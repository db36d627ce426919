//! The benchmark package: its own workspace, a caller of `store`.

fn main() {
    println!("{}", store::bench_only_api());
}
