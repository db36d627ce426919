//! Clean fixture: a scoped `lint:allow(rule): reason` escape with a
//! non-empty reason suppresses the finding on its line and the next.

/// A trailing escape covers its own line.
pub fn trailing(rate: f64) -> String {
    format!("{{\"rate\": {rate:.3}}}") // lint:allow(d2-float-format): a debug dump that no digest reads
}

/// An escape on the line above covers the line below.
pub fn above(rate: f64) -> String {
    // lint:allow(d2-float-format): rounded on purpose for a human-facing status line
    format!("{{\"rate\": {rate:e}}}")
}

/// Block comments carry escapes too.
pub fn block(rate: f64) -> String {
    /* lint:allow(d2-float-format): the operator asked for three decimals */
    format!("{{\"rate\": {rate:8.3}}}")
}
