//! Calls the fixture's public surface so u1 stays out of the c1 story.

fn main() {
    println!("{}", sim::guarded());
}
