//! Findings output: rustc-style human diagnostics and the
//! deterministic, FNV-digested JSON report CI archives.
//!
//! The JSON writer follows the same discipline as every other export
//! in the workspace (see `tagwatch_obs::export`): hand-rolled, fixed
//! field order, a trailing `fnv64:` digest over the preceding lines —
//! so two runs over the same tree produce byte-identical reports and
//! a findings diff is a digest diff.

use tagwatch_obs::{fnv1a_lines, json_escape};

use crate::rules::{AllowRecord, Finding, RuleId};

/// The complete result of a workspace analysis.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// All findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// All valid `lint:allow` escapes encountered.
    pub allows: Vec<AllowRecord>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Rustc-style diagnostics, one block per finding. Call-graph
    /// findings render their sink→source chain as `note:` lines.
    #[must_use]
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}:{}\n",
                f.rule.name(),
                f.message,
                f.file,
                f.line,
                f.col
            ));
            for (i, hop) in f.chain.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("  note: call chain: {hop}\n"));
                } else {
                    out.push_str(&format!("  note:   -> {hop}\n"));
                }
            }
        }
        out
    }

    /// One-line summary for the terminal.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "tagwatch-lint: {} finding(s), {} allow(s) across {} files (digest fnv64:{:016x})",
            self.findings.len(),
            self.allows.len(),
            self.files_scanned,
            self.digest()
        )
    }

    /// FNV-1a digest over the report body (everything above the digest
    /// line of [`Analysis::to_json`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a_lines(self.body_lines())
    }

    /// The deterministic JSON report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for line in self.body_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "  \"digest\": \"fnv64:{:016x}\"\n}}\n",
            self.digest()
        ));
        out
    }

    /// Report body lines: everything above (and hashed into) the
    /// digest. The trailing comma after `allows` is load-bearing —
    /// the digest line follows.
    fn body_lines(&self) -> Vec<String> {
        let mut lines = vec![
            "{".to_string(),
            "  \"schema\": \"tagwatch-lint/v2\",".to_string(),
            format!("  \"files_scanned\": {},", self.files_scanned),
            "  \"rules\": [".to_string(),
        ];
        for (i, rule) in RuleId::ALL.iter().enumerate() {
            let comma = if i + 1 < RuleId::ALL.len() { "," } else { "" };
            lines.push(format!(
                "    {{\"id\": \"{}\", \"summary\": \"{}\"}}{comma}",
                rule.name(),
                json_escape(rule.summary())
            ));
        }
        lines.push("  ],".to_string());
        lines.push("  \"findings\": [".to_string());
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let chain = if f.chain.is_empty() {
                String::new()
            } else {
                let hops: Vec<String> = f
                    .chain
                    .iter()
                    .map(|h| format!("\"{}\"", json_escape(h)))
                    .collect();
                format!(", \"chain\": [{}]", hops.join(", "))
            };
            lines.push(format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"{chain}}}{comma}",
                f.rule.name(),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.message)
            ));
        }
        lines.push("  ],".to_string());
        lines.push("  \"allows\": [".to_string());
        for (i, a) in self.allows.iter().enumerate() {
            let comma = if i + 1 < self.allows.len() { "," } else { "" };
            lines.push(format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{comma}",
                a.rule.name(),
                json_escape(&a.file),
                a.line,
                json_escape(&a.reason)
            ));
        }
        lines.push("  ],".to_string());
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule: RuleId::D2FloatFormat,
                file: "crates/obs/src/x.rs".to_string(),
                line: 3,
                col: 7,
                message: "float precision formatting inside a JSON-building string".to_string(),
                chain: Vec::new(),
            }],
            allows: vec![AllowRecord {
                rule: RuleId::U1DeadPub,
                file: "crates/sim/src/y.rs".to_string(),
                line: 10,
                reason: "oracle: a property test compares against it".to_string(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn json_is_deterministic_and_digest_pinned_to_body() {
        let a = sample();
        let j1 = a.to_json();
        let j2 = a.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains(&format!("fnv64:{:016x}", a.digest())));
        // Any body change moves the digest.
        let mut b = sample();
        b.findings[0].line = 4;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn human_diagnostics_are_rustc_shaped() {
        let h = sample().human();
        assert!(h.contains("error[d2-float-format]:"));
        assert!(h.contains("--> crates/obs/src/x.rs:3:7"));
    }

    #[test]
    fn empty_analysis_is_clean() {
        let a = Analysis::default();
        assert!(a.is_clean());
        assert!(a.to_json().contains("\"findings\": ["));
    }
}
