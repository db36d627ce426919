//! Calls the fixture's public surface so u1 stays out of the d4 story.

fn main() {
    print!("{}", cli::export::to_jsonl(7, &[1]));
}
