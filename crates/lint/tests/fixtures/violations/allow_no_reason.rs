//! Violation fixture: `lint:allow` escapes must carry a non-empty
//! reason and name a known rule; malformed ones suppress nothing.

/// The allow below has no reason, so the float spec still fires and
/// the malformed escape is itself reported.
pub fn bad_allow(rate: f64) -> String {
    // lint:allow(d2-float-format):
    format!("{{\"rate\": {rate:.3}}}")
}

/// Unknown rule names are reported too.
pub fn unknown_rule(rate: f64) -> String {
    // lint:allow(d9-imaginary): not a real rule
    format!("{{\"rate\": {rate:.3}}}")
}
