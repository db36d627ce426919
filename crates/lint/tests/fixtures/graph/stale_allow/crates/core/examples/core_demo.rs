//! Calls the fixture's public surface so u1 stays out of the audit.

fn main() {
    println!("{}", core_fixture::robust());
}
