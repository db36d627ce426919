//! Calls the sink from a test; the d4 test reads only d4 findings.

#[test]
fn jsonl_mentions_every_event() {
    let out = cli::export::to_jsonl(&[1, 2]);
    assert_eq!(out.lines().count(), 2);
}
