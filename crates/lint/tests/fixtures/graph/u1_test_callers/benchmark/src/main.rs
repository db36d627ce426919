//! The benchmark package: its code calls `store`; its tests do not
//! count.

fn main() {
    println!("{}", store::bench_api());
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_tested_api_answers() {
        assert_eq!(store::bench_tested_api(), 5);
    }
}
