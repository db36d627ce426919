//! An example: a caller of `store`.

fn main() {
    println!("{}", store::example_api());
}
