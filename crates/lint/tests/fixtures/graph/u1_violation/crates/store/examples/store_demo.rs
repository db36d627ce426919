//! Calls `live_api` and only `live_api`.

fn main() {
    println!("{}", store::live_api());
}
