//! Names `integration_tested_api`, which does not make it live.

#[test]
fn integration_tested_api_answers() {
    assert_eq!(store::integration_tested_api(), 3);
}
