//! Declarative per-site monitoring policy documents.
//!
//! The paper's protocols say *when a tag looks missing*; everything
//! operational — alarm confirmation, desync strikes, quarantine, audit
//! budgets — used to live in a hardcoded session-policy ladder.
//! This module replaces that with a versioned, deterministic, text
//! document (`tagwatch-policy v1`, the same hand-rolled sectioned
//! format discipline as `tagwatch-checkpoint v1`) parsed into a
//! validated [`Policy`] that *compiles down to* the existing ladder
//! semantics: [`MonitoringSession`](crate::MonitoringSession) is now a
//! policy **interpreter**, and its decision points are recorded as
//! declarative [`PolicyAction`]s.
//!
//! ## Document format
//!
//! ```text
//! tagwatch-policy v1
//! @section site
//! name default
//! @section protocol
//! ticks trp
//! @section thresholds
//! alarms_to_escalate 2
//! max_desync_retries 3
//! desyncs_to_quarantine 2
//! @section desync
//! window 96
//! @section audit
//! budget unlimited
//! window 100
//! @section escalation
//! action identify
//! @section identify
//! frame_factor 2
//! max_rounds 64
//! ```
//!
//! Every section and key is required (a v1 document is always
//! complete, so two readers can never disagree on an implied default);
//! blank lines and `#`-comment lines are ignored on parse and never
//! emitted by [`Policy::to_text`]. `desyncs_to_quarantine` accepts
//! `off` (quarantine disabled) and `budget` accepts `unlimited`.
//!
//! ## Determinism contract
//!
//! [`Policy::default`] carries the legacy ladder defaults
//! and its document reproduces the committed soak/obs golden digests
//! byte-for-byte. `Policy::parse(p.to_text()) == p` for every valid
//! policy, and the flat key–value codec ([`Policy::to_flat_lines`] /
//! [`Policy::from_flat_lines`]) embeds losslessly into checkpoint
//! sections and WAL config records, so `recover` replays a crashed run
//! under the exact policy it started with.

use std::fmt;

use tagwatch_core::identify::IdentifyConfig;
use tagwatch_sim::FrameSize;

use crate::session::TickProtocol;

/// Header line of every policy document.
pub const POLICY_HEADER: &str = "tagwatch-policy v1";

/// Desync window carried by the default policy: the soak harness's
/// documented server window (`SoakConfig::default().desync_window`).
const DEFAULT_DESYNC_WINDOW: u64 = 96;

/// Audit window carried by the default policy, matching the soak
/// report's `max_audits_in_window(100)` statistic.
const DEFAULT_AUDIT_WINDOW: u64 = 100;

/// What the session does when the alarm ladder tops out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EscalateAction {
    /// Run the paper's iterative identification protocol and name the
    /// missing tags (the classic ladder behavior).
    Identify,
    /// Record the escalation for an operator without spending
    /// identification rounds — for sites that resolve alarms by
    /// physical sweep. The escalation event carries empty verdicts and
    /// zero slots; no identification RNG draws are consumed.
    Report,
}

impl EscalateAction {
    /// The document keyword for this action.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            EscalateAction::Identify => "identify",
            EscalateAction::Report => "report",
        }
    }

    fn from_keyword(value: &str) -> Option<Self> {
        match value {
            "identify" => Some(EscalateAction::Identify),
            "report" => Some(EscalateAction::Report),
            _ => None,
        }
    }
}

fn protocol_keyword(protocol: TickProtocol) -> &'static str {
    match protocol {
        TickProtocol::Trp => "trp",
        TickProtocol::Utrp => "utrp",
    }
}

fn protocol_from_keyword(value: &str) -> Option<TickProtocol> {
    match value {
        "trp" => Some(TickProtocol::Trp),
        "utrp" => Some(TickProtocol::Utrp),
        _ => None,
    }
}

/// A validated, per-site monitoring policy: the declarative form the
/// session's escalation ladder interprets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Policy {
    /// Site name (non-empty, no whitespace, no `@`): the label audit
    /// trails and `inspect` output attribute decisions to.
    pub site: String,
    /// Protocol for routine ticks.
    pub protocol: TickProtocol,
    /// Consecutive alarming ticks before escalating.
    pub alarms_to_escalate: u32,
    /// In-tick desync re-challenge budget (fresh nonces per retry).
    pub max_desync_retries: u32,
    /// Desync strikes before a suspect tag is quarantined for physical
    /// audit; `None` disables quarantine entirely.
    pub desyncs_to_quarantine: Option<u32>,
    /// Identification configuration used by
    /// [`EscalateAction::Identify`].
    pub identify: IdentifyConfig,
    /// Server-side desync diagnosis window (counter steps searched
    /// when an alarming UTRP round is checked for desynchronization).
    /// Consumed where the policy constructs a server (soak, CLI); a
    /// session over a pre-built server keeps that server's window.
    pub desync_window: u64,
    /// Physical audits permitted per trailing [`audit_window`] ticks;
    /// `None` is unlimited. Drivers that exceed the budget raise a
    /// policy alert (they never silently skip the audit).
    ///
    /// [`audit_window`]: Policy::audit_window
    pub audit_budget: Option<u32>,
    /// Length in ticks of the trailing window the audit budget is
    /// counted over.
    pub audit_window: u64,
    /// What escalation does when the ladder tops out.
    pub escalate_action: EscalateAction,
}

impl Default for Policy {
    /// The documented defaults: site `default`, TRP ticks, escalate
    /// after 2 consecutive alarms (by identification), up to 3
    /// in-tick desync retries, quarantine on the 2nd strike, desync
    /// window 96, unlimited audits counted over 100-tick windows.
    fn default() -> Self {
        Policy {
            site: "default".to_string(),
            protocol: TickProtocol::Trp,
            alarms_to_escalate: 2,
            max_desync_retries: 3,
            desyncs_to_quarantine: Some(2),
            identify: IdentifyConfig::default(),
            desync_window: DEFAULT_DESYNC_WINDOW,
            audit_budget: None,
            audit_window: DEFAULT_AUDIT_WINDOW,
            escalate_action: EscalateAction::Identify,
        }
    }
}

/// One declarative decision the policy interpreter took. The session
/// records these on its policy trace as it climbs the ladder; on the
/// flight recorder the same decision points surface as the existing
/// `ObsEvent::Resynced` / `Quarantined` / `Escalated` /
/// `AuditCompleted` events, so the default instrumentation stream is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// A desynced round was recovered in-tick and re-challenged with
    /// fresh nonces (the retry budget had room).
    RetryResync {
        /// 1-based resync attempt within the tick.
        attempt: u32,
        /// Suspects carried by the accepted hypothesis.
        suspects: usize,
    },
    /// Suspect tags crossed the strike threshold and were quarantined.
    Quarantine {
        /// Tags quarantined by this decision.
        tags: usize,
        /// The strike threshold that was crossed.
        threshold: u32,
    },
    /// Consecutive alarms crossed the threshold and the configured
    /// escalation action ran.
    Escalate {
        /// The action the policy prescribed.
        action: EscalateAction,
        /// Consecutive alarms that triggered the escalation.
        after_alarms: u32,
    },
    /// Audited tags were released back to service.
    ReleaseAudited {
        /// Tags released by this audit.
        released: usize,
    },
}

/// A rejected policy document or degenerate policy, rendered as
/// rustc-style diagnostics (one `error:` block per problem, with
/// `--> origin:line` arrows where the offending line is known and
/// `= help:` notes where a fix is obvious).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError {
    /// The rendered diagnostics.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PolicyError {}

/// One diagnostic under construction.
struct Diagnostic {
    message: String,
    location: Option<(String, usize)>,
    help: Option<String>,
}

impl Diagnostic {
    fn new(message: impl Into<String>) -> Self {
        Diagnostic {
            message: message.into(),
            location: None,
            help: None,
        }
    }

    fn at(mut self, origin: &str, line: usize) -> Self {
        self.location = Some((origin.to_string(), line));
        self
    }

    fn help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    fn render(&self, out: &mut String) {
        out.push_str("error: ");
        out.push_str(&self.message);
        if let Some((origin, line)) = &self.location {
            out.push_str(&format!("\n  --> {origin}:{line}"));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  = help: {help}"));
        }
    }
}

fn render_all(diags: Vec<Diagnostic>) -> PolicyError {
    let mut message = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            message.push_str("\n\n");
        }
        d.render(&mut message);
    }
    PolicyError { message }
}

/// The sections a v1 document must carry, in canonical order, with
/// their permitted keys.
const SECTIONS: &[(&str, &[&str])] = &[
    ("site", &["name"]),
    ("protocol", &["ticks"]),
    (
        "thresholds",
        &[
            "alarms_to_escalate",
            "max_desync_retries",
            "desyncs_to_quarantine",
        ],
    ),
    ("desync", &["window"]),
    ("audit", &["budget", "window"]),
    ("escalation", &["action"]),
    ("identify", &["frame_factor", "max_rounds"]),
];

fn known_section(name: &str) -> Option<&'static [&'static str]> {
    SECTIONS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, keys)| *keys)
}

/// One parsed `key value` line with provenance for diagnostics.
struct Entry {
    section: &'static str,
    key: &'static str,
    value: String,
    line: usize,
}

/// Raw first-pass parse: header, section structure, key/value shape.
/// Returns entries on success; structural problems become diagnostics.
fn parse_entries(text: &str, origin: &str) -> Result<Vec<Entry>, PolicyError> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut current: Option<&'static str> = None;
    let mut seen_sections: Vec<&'static str> = Vec::new();
    let mut seen_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !seen_header {
            if line != POLICY_HEADER {
                return Err(render_all(vec![Diagnostic::new(format!(
                    "expected `{POLICY_HEADER}` header, found `{line}`"
                ))
                .at(origin, lineno)]));
            }
            seen_header = true;
            continue;
        }
        if let Some(name) = line.strip_prefix("@section ") {
            match known_section(name) {
                Some(_) => {
                    // Borrow the static name so entries stay allocation-light.
                    current = SECTIONS.iter().map(|(n, _)| *n).find(|n| *n == name);
                    if let Some(section) = current {
                        if seen_sections.contains(&section) {
                            diags.push(
                                Diagnostic::new(format!("duplicate section `@section {name}`"))
                                    .at(origin, lineno),
                            );
                        } else {
                            seen_sections.push(section);
                        }
                    }
                }
                None => {
                    diags.push(
                        Diagnostic::new(format!("unknown section `@section {name}`"))
                            .at(origin, lineno)
                            .help(format!(
                                "v1 sections are: {}",
                                SECTIONS
                                    .iter()
                                    .map(|(n, _)| *n)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            )),
                    );
                    current = None;
                }
            }
            continue;
        }
        let Some(section) = current else {
            diags.push(
                Diagnostic::new(format!("line outside any section: `{line}`")).at(origin, lineno),
            );
            continue;
        };
        let Some((key, value)) = line.split_once(' ') else {
            diags.push(
                Diagnostic::new(format!("expected `key value`, found `{line}`")).at(origin, lineno),
            );
            continue;
        };
        let keys = known_section(section).unwrap_or(&[]);
        let Some(key) = keys.iter().copied().find(|k| *k == key) else {
            diags.push(
                Diagnostic::new(format!("unknown key `{key}` in `@section {section}`"))
                    .at(origin, lineno)
                    .help(format!(
                        "`@section {section}` keys are: {}",
                        keys.join(", ")
                    )),
            );
            continue;
        };
        if entries.iter().any(|e| e.section == section && e.key == key) {
            diags.push(
                Diagnostic::new(format!("duplicate key `{key}` in `@section {section}`"))
                    .at(origin, lineno),
            );
            continue;
        }
        entries.push(Entry {
            section,
            key,
            value: value.trim().to_string(),
            line: lineno,
        });
    }
    if !seen_header {
        diags.push(Diagnostic::new(format!(
            "empty document: expected `{POLICY_HEADER}` header"
        )));
    }
    if diags.is_empty() {
        Ok(entries)
    } else {
        Err(render_all(diags))
    }
}

/// Second-pass field extraction over parsed entries.
struct Fields<'a> {
    origin: &'a str,
    entries: Vec<Entry>,
    diags: Vec<Diagnostic>,
}

impl<'a> Fields<'a> {
    fn get(&mut self, section: &str, key: &str) -> Option<(String, usize)> {
        match self
            .entries
            .iter()
            .find(|e| e.section == section && e.key == key)
        {
            Some(e) => Some((e.value.clone(), e.line)),
            None => {
                self.diags.push(Diagnostic::new(format!(
                    "missing `{key}` in `@section {section}`"
                )));
                None
            }
        }
    }

    fn number<T: std::str::FromStr>(&mut self, section: &str, key: &str) -> Option<(T, usize)> {
        let (value, line) = self.get(section, key)?;
        match value.parse::<T>() {
            Ok(n) => Some((n, line)),
            Err(_) => {
                self.diags.push(
                    Diagnostic::new(format!("`{key}` wants a number, found `{value}`"))
                        .at(self.origin, line),
                );
                None
            }
        }
    }

    /// A number or a sentinel keyword mapping to `None`.
    fn number_or<T: std::str::FromStr>(
        &mut self,
        section: &str,
        key: &str,
        sentinel: &str,
    ) -> Option<(Option<T>, usize)> {
        let (value, line) = self.get(section, key)?;
        if value == sentinel {
            return Some((None, line));
        }
        match value.parse::<T>() {
            Ok(n) => Some((Some(n), line)),
            Err(_) => {
                self.diags.push(
                    Diagnostic::new(format!(
                        "`{key}` wants a number or `{sentinel}`, found `{value}`"
                    ))
                    .at(self.origin, line),
                );
                None
            }
        }
    }
}

impl Policy {
    /// Parses a `tagwatch-policy v1` document and validates it.
    /// Equivalent to [`Policy::parse_named`] with origin `<policy>`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] diagnostics for structural problems
    /// (bad header, unknown sections/keys, missing fields, malformed
    /// values) and for degenerate-but-parseable policies (see
    /// [`Policy::validate`]).
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        Policy::parse_named(text, "<policy>")
    }

    /// [`Policy::parse`] with an origin (normally the file path) that
    /// diagnostics point their `-->` arrows at.
    ///
    /// # Errors
    ///
    /// See [`Policy::parse`].
    pub fn parse_named(text: &str, origin: &str) -> Result<Policy, PolicyError> {
        let entries = parse_entries(text, origin)?;
        let mut f = Fields {
            origin,
            entries,
            diags: Vec::new(),
        };

        let site = f.get("site", "name");
        let protocol = match f.get("protocol", "ticks") {
            Some((value, line)) => match protocol_from_keyword(&value) {
                Some(p) => Some((p, line)),
                None => {
                    f.diags.push(
                        Diagnostic::new(format!("unknown protocol `{value}`"))
                            .at(origin, line)
                            .help("`ticks` is `trp` or `utrp`"),
                    );
                    None
                }
            },
            None => None,
        };
        let alarms = f.number::<u32>("thresholds", "alarms_to_escalate");
        let retries = f.number::<u32>("thresholds", "max_desync_retries");
        let quarantine = f.number_or::<u32>("thresholds", "desyncs_to_quarantine", "off");
        let desync_window = f.number::<u64>("desync", "window");
        let budget = f.number_or::<u32>("audit", "budget", "unlimited");
        let audit_window = f.number::<u64>("audit", "window");
        let action = match f.get("escalation", "action") {
            Some((value, line)) => match EscalateAction::from_keyword(&value) {
                Some(a) => Some((a, line)),
                None => {
                    f.diags.push(
                        Diagnostic::new(format!("unknown escalation action `{value}`"))
                            .at(origin, line)
                            .help("`action` is `identify` or `report`"),
                    );
                    None
                }
            },
            None => None,
        };
        let frame_factor = f.number::<u64>("identify", "frame_factor");
        let max_rounds = f.number::<u32>("identify", "max_rounds");

        let mut diags = f.diags;
        let (
            Some(site),
            Some(protocol),
            Some(alarms),
            Some(retries),
            Some(quarantine),
            Some(desync_window),
            Some(budget),
            Some(audit_window),
            Some(action),
            Some(frame_factor),
            Some(max_rounds),
        ) = (
            site,
            protocol,
            alarms,
            retries,
            quarantine,
            desync_window,
            budget,
            audit_window,
            action,
            frame_factor,
            max_rounds,
        )
        else {
            return Err(render_all(diags));
        };
        if !diags.is_empty() {
            return Err(render_all(diags));
        }

        let policy = Policy {
            site: site.0,
            protocol: protocol.0,
            alarms_to_escalate: alarms.0,
            max_desync_retries: retries.0,
            desyncs_to_quarantine: quarantine.0,
            identify: IdentifyConfig {
                frame_factor: frame_factor.0,
                max_rounds: max_rounds.0,
            },
            desync_window: desync_window.0,
            audit_budget: budget.0,
            audit_window: audit_window.0,
            escalate_action: action.0,
        };
        policy.collect_validation(
            origin,
            &[
                ("site", site.1),
                ("max_desync_retries", retries.1),
                ("desyncs_to_quarantine", quarantine.1),
                ("desync_window", desync_window.1),
                ("audit_budget", budget.1),
                ("alarms_to_escalate", alarms.1),
                ("frame_factor", frame_factor.1),
            ],
            &mut diags,
        );
        if diags.is_empty() {
            Ok(policy)
        } else {
            Err(render_all(diags))
        }
    }

    /// Checks a policy for degenerate configurations that would
    /// silently run an un-escalatable or un-recoverable session.
    /// [`Policy::parse`] runs this automatically with line-accurate
    /// diagnostics; call it directly on programmatically built
    /// policies.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] diagnostics when the policy is
    /// degenerate: a zero in-tick retry budget with a zero desync
    /// window, an audit budget of 0 with quarantine enabled, a zero
    /// alarm threshold, an invalid site name, a zero identification
    /// budget with [`EscalateAction::Identify`], or a `frame_factor` or
    /// desync `window` above [`FrameSize::MAX`].
    pub fn validate(&self) -> Result<(), PolicyError> {
        let mut diags = Vec::new();
        self.collect_validation("<policy>", &[], &mut diags);
        if diags.is_empty() {
            Ok(())
        } else {
            Err(render_all(diags))
        }
    }

    /// Shared semantic checks; `lines` maps field names to document
    /// lines when the policy came from a parse.
    fn collect_validation(
        &self,
        origin: &str,
        lines: &[(&str, usize)],
        diags: &mut Vec<Diagnostic>,
    ) {
        let at = |d: Diagnostic, field: &str| -> Diagnostic {
            match lines.iter().find(|(f, _)| *f == field) {
                Some((_, line)) => d.at(origin, *line),
                None => d,
            }
        };
        if self.site.is_empty()
            || self.site.contains(char::is_whitespace)
            || self.site.contains('@')
        {
            diags.push(at(
                Diagnostic::new(format!("invalid site name `{}`", self.site))
                    .help("site names are non-empty and contain no whitespace or `@`"),
                "site",
            ));
        }
        if self.alarms_to_escalate == 0 {
            diags.push(at(
                Diagnostic::new("`alarms_to_escalate 0` escalates on every tick, intact or not")
                    .help("set it to at least 1; 2 rides out a single transiently blocked round"),
                "alarms_to_escalate",
            ));
        }
        if self.max_desync_retries == 0 && self.desync_window == 0 {
            diags.push(at(
                Diagnostic::new(
                    "zero in-tick retry budget with a zero desync window leaves a desynced \
                     site no recovery path",
                )
                .help(
                    "raise `max_desync_retries` so desyncs are re-challenged in-tick, or give \
                     the server a nonzero `window` so they are diagnosed at all",
                ),
                "max_desync_retries",
            ));
        }
        if self.audit_budget == Some(0) && self.desyncs_to_quarantine.is_some() {
            diags.push(at(
                Diagnostic::new("audit budget of 0 with quarantine enabled").help(
                    "quarantined tags only return to service through a physical audit; raise \
                     `budget` or disable quarantine with `desyncs_to_quarantine off`",
                ),
                "audit_budget",
            ));
        }
        if self.escalate_action == EscalateAction::Identify
            && (self.identify.frame_factor == 0 || self.identify.max_rounds == 0)
        {
            diags.push(at(
                Diagnostic::new("`action identify` with a zero identification budget").help(
                    "set `frame_factor` and `max_rounds` to at least 1, or use `action report`",
                ),
                "frame_factor",
            ));
        }
        if self.identify.frame_factor > FrameSize::MAX {
            diags.push(at(
                Diagnostic::new(format!(
                    "`frame_factor {}` sizes an identification frame no registry can use",
                    self.identify.frame_factor
                ))
                .help(format!(
                    "a frame is `n × frame_factor` slots and at most {} (2^24); 2 is the default",
                    FrameSize::MAX
                )),
                "frame_factor",
            ));
        }
        if self.desync_window > FrameSize::MAX {
            diags.push(at(
                Diagnostic::new(format!(
                    "`window {}` searches past the longest round",
                    self.desync_window
                ))
                .help(format!(
                    "one lost round carries at most {} (2^24) announcements, and diagnosis \
                     time grows linearly with the window; 96 is the default",
                    FrameSize::MAX
                )),
                "desync_window",
            ));
        }
        if self.desyncs_to_quarantine == Some(0) {
            diags.push(at(
                Diagnostic::new("`desyncs_to_quarantine 0` is ambiguous")
                    .help("use `off` to disable quarantine, or a threshold of at least 1"),
                "desyncs_to_quarantine",
            ));
        }
    }

    /// Serializes to the canonical v1 document. Round-trip exact:
    /// `Policy::parse(p.to_text()) == p` for every valid policy.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(POLICY_HEADER);
        out.push('\n');
        out.push_str("@section site\n");
        out.push_str(&format!("name {}\n", self.site));
        out.push_str("@section protocol\n");
        out.push_str(&format!("ticks {}\n", protocol_keyword(self.protocol)));
        out.push_str("@section thresholds\n");
        out.push_str(&format!("alarms_to_escalate {}\n", self.alarms_to_escalate));
        out.push_str(&format!("max_desync_retries {}\n", self.max_desync_retries));
        match self.desyncs_to_quarantine {
            Some(n) => out.push_str(&format!("desyncs_to_quarantine {n}\n")),
            None => out.push_str("desyncs_to_quarantine off\n"),
        }
        out.push_str("@section desync\n");
        out.push_str(&format!("window {}\n", self.desync_window));
        out.push_str("@section audit\n");
        match self.audit_budget {
            Some(n) => out.push_str(&format!("budget {n}\n")),
            None => out.push_str("budget unlimited\n"),
        }
        out.push_str(&format!("window {}\n", self.audit_window));
        out.push_str("@section escalation\n");
        out.push_str(&format!("action {}\n", self.escalate_action.keyword()));
        out.push_str("@section identify\n");
        out.push_str(&format!("frame_factor {}\n", self.identify.frame_factor));
        out.push_str(&format!("max_rounds {}\n", self.identify.max_rounds));
        out
    }

    /// Serializes to flat `key value` lines — no `@` markers, no
    /// newlines — safe to embed as one checkpoint section or as
    /// prefixed WAL config lines. Inverse of
    /// [`Policy::from_flat_lines`].
    #[must_use]
    pub fn to_flat_lines(&self) -> Vec<String> {
        vec![
            format!("site {}", self.site),
            format!("protocol {}", protocol_keyword(self.protocol)),
            format!("alarms_to_escalate {}", self.alarms_to_escalate),
            format!("max_desync_retries {}", self.max_desync_retries),
            match self.desyncs_to_quarantine {
                Some(n) => format!("desyncs_to_quarantine {n}"),
                None => "desyncs_to_quarantine off".to_string(),
            },
            format!("desync_window {}", self.desync_window),
            match self.audit_budget {
                Some(n) => format!("audit_budget {n}"),
                None => "audit_budget unlimited".to_string(),
            },
            format!("audit_window {}", self.audit_window),
            format!("escalate_action {}", self.escalate_action.keyword()),
            format!("identify_frame_factor {}", self.identify.frame_factor),
            format!("identify_max_rounds {}", self.identify.max_rounds),
        ]
    }

    /// Rebuilds a policy from [`Policy::to_flat_lines`] output. Every
    /// key is required exactly once; the rebuilt policy is validated.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] on unknown/duplicate/missing keys,
    /// malformed values, or a degenerate policy.
    pub fn from_flat_lines<I, S>(lines: I) -> Result<Policy, PolicyError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut diags = Vec::new();
        for line in lines {
            let line = line.as_ref();
            let Some((key, value)) = line.split_once(' ') else {
                diags.push(Diagnostic::new(format!(
                    "expected `key value` policy line, found `{line}`"
                )));
                continue;
            };
            if pairs.iter().any(|(k, _)| k == key) {
                diags.push(Diagnostic::new(format!("duplicate policy key `{key}`")));
                continue;
            }
            pairs.push((key.to_string(), value.trim().to_string()));
        }
        if !diags.is_empty() {
            return Err(render_all(diags));
        }
        // Reuse the document parser by lowering the flat pairs into a
        // canonical document: one decode path, one set of diagnostics.
        let mut by_section: Vec<(&str, Vec<(String, String)>)> = SECTIONS
            .iter()
            .map(|(name, _)| (*name, Vec::new()))
            .collect();
        for (key, value) in pairs {
            let (section, doc_key) = match key.as_str() {
                "site" => ("site", "name"),
                "protocol" => ("protocol", "ticks"),
                "alarms_to_escalate" => ("thresholds", "alarms_to_escalate"),
                "max_desync_retries" => ("thresholds", "max_desync_retries"),
                "desyncs_to_quarantine" => ("thresholds", "desyncs_to_quarantine"),
                "desync_window" => ("desync", "window"),
                "audit_budget" => ("audit", "budget"),
                "audit_window" => ("audit", "window"),
                "escalate_action" => ("escalation", "action"),
                "identify_frame_factor" => ("identify", "frame_factor"),
                "identify_max_rounds" => ("identify", "max_rounds"),
                other => {
                    return Err(render_all(vec![Diagnostic::new(format!(
                        "unknown policy key `{other}`"
                    ))]));
                }
            };
            if let Some((_, lines)) = by_section.iter_mut().find(|(n, _)| *n == section) {
                lines.push((doc_key.to_string(), value));
            }
        }
        let mut doc = String::new();
        doc.push_str(POLICY_HEADER);
        doc.push('\n');
        for (section, lines) in by_section {
            doc.push_str(&format!("@section {section}\n"));
            for (key, value) in lines {
                doc.push_str(&format!("{key} {value}\n"));
            }
        }
        Policy::parse_named(&doc, "<flat policy lines>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_mirrors_the_legacy_defaults() {
        let p = Policy::default();
        assert_eq!(p.site, "default");
        assert_eq!(p.protocol, TickProtocol::Trp);
        assert_eq!(p.alarms_to_escalate, 2);
        assert_eq!(p.max_desync_retries, 3);
        assert_eq!(p.desyncs_to_quarantine, Some(2));
        assert_eq!(p.desync_window, 96);
        assert_eq!(p.audit_budget, None);
        assert_eq!(p.audit_window, 100);
        assert_eq!(p.escalate_action, EscalateAction::Identify);
        p.validate().unwrap();
    }

    #[test]
    fn builder_quarantine_clamp_is_applied_eagerly() {
        use crate::session::MonitoringSession;
        use tagwatch_core::MonitorServer;
        use tagwatch_sim::TagPopulation;
        let floor = TagPopulation::with_sequential_ids(10);
        let server = MonitorServer::new(floor.ids(), 1, 0.9).unwrap();
        let session = MonitoringSession::builder(server)
            .desyncs_to_quarantine(0)
            .build();
        assert_eq!(session.policy().desyncs_to_quarantine, Some(1));
    }

    #[test]
    fn canonical_document_round_trips_byte_exactly() {
        let p = Policy::default();
        let text = p.to_text();
        let parsed = Policy::parse(&text).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn off_and_unlimited_keywords_round_trip() {
        let p = Policy {
            desyncs_to_quarantine: None,
            audit_budget: Some(4),
            escalate_action: EscalateAction::Report,
            protocol: TickProtocol::Utrp,
            site: "dock-9".to_string(),
            ..Policy::default()
        };
        let text = p.to_text();
        assert!(text.contains("desyncs_to_quarantine off"));
        assert!(text.contains("budget 4"));
        let parsed = Policy::parse(&text).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let mut text = String::from("# site policy, reviewed 2026-08\n\n");
        text.push_str(&Policy::default().to_text());
        text.push_str("\n# trailing note\n");
        assert_eq!(Policy::parse(&text).unwrap(), Policy::default());
    }

    #[test]
    fn diagnostics_are_rustc_shaped() {
        let text = Policy::default()
            .to_text()
            .replace("ticks trp", "ticks lora");
        let err = Policy::parse_named(&text, "bad.twp").unwrap_err();
        assert!(
            err.message.starts_with("error: unknown protocol `lora`"),
            "{err}"
        );
        assert!(err.message.contains("--> bad.twp:"), "{err}");
        assert!(
            err.message.contains("= help: `ticks` is `trp` or `utrp`"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_structural_damage() {
        assert!(Policy::parse("").is_err());
        assert!(Policy::parse("not a policy\n").is_err());
        let orphan = format!("{POLICY_HEADER}\nname dock\n");
        assert!(Policy::parse(&orphan)
            .unwrap_err()
            .message
            .contains("outside any section"));
        let unknown = format!("{POLICY_HEADER}\n@section weather\nrain heavy\n");
        assert!(Policy::parse(&unknown)
            .unwrap_err()
            .message
            .contains("unknown section"));
        let missing = format!("{POLICY_HEADER}\n@section site\nname dock\n");
        let err = Policy::parse(&missing).unwrap_err();
        assert!(
            err.message
                .contains("missing `ticks` in `@section protocol`"),
            "{err}"
        );
        let dup = Policy::default().to_text() + "@section site\nname again\n";
        assert!(Policy::parse(&dup)
            .unwrap_err()
            .message
            .contains("duplicate section"));
    }

    #[test]
    fn validation_rejects_degenerate_documents() {
        let no_recovery = Policy {
            max_desync_retries: 0,
            desync_window: 0,
            ..Policy::default()
        };
        let err = no_recovery.validate().unwrap_err();
        assert!(err.message.contains("no recovery path"), "{err}");
        assert!(err.message.contains("= help:"), "{err}");

        let frozen_quarantine = Policy {
            audit_budget: Some(0),
            ..Policy::default()
        };
        let err = frozen_quarantine.validate().unwrap_err();
        assert!(
            err.message
                .contains("audit budget of 0 with quarantine enabled"),
            "{err}"
        );

        // ...but a zero budget with quarantine off is fine.
        Policy {
            audit_budget: Some(0),
            desyncs_to_quarantine: None,
            ..Policy::default()
        }
        .validate()
        .unwrap();

        let hair_trigger = Policy {
            alarms_to_escalate: 0,
            ..Policy::default()
        };
        assert!(hair_trigger.validate().is_err());

        let bad_site = Policy {
            site: "two words".to_string(),
            ..Policy::default()
        };
        assert!(bad_site.validate().is_err());

        let no_identify_budget = Policy {
            identify: IdentifyConfig {
                frame_factor: 0,
                max_rounds: 64,
            },
            ..Policy::default()
        };
        assert!(no_identify_budget.validate().is_err());

        // Past 2^24 no registry has a frame, under either action; at
        // 2^24 a one-tag registry still does.
        for escalate_action in [EscalateAction::Identify, EscalateAction::Report] {
            let too_wide = Policy {
                escalate_action,
                identify: IdentifyConfig {
                    frame_factor: FrameSize::MAX + 1,
                    max_rounds: 64,
                },
                ..Policy::default()
            };
            let err = too_wide.validate().unwrap_err();
            assert!(
                err.message.contains("`frame_factor 16777217`") && err.message.contains("= help:"),
                "{err}"
            );
        }
        Policy {
            identify: IdentifyConfig {
                frame_factor: FrameSize::MAX,
                max_rounds: 64,
            },
            ..Policy::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn an_overflowing_frame_factor_is_pointed_at_its_line() {
        let text = Policy::default()
            .to_text()
            .replace("frame_factor 2", "frame_factor 4611686018427387904");
        let err = Policy::parse_named(&text, "wide.twp").unwrap_err();
        assert!(
            err.message
                .contains("`frame_factor 4611686018427387904` sizes an identification frame"),
            "{err}"
        );
        let line = text
            .lines()
            .position(|l| l.starts_with("frame_factor"))
            .unwrap()
            + 1;
        assert!(
            err.message.contains(&format!("--> wide.twp:{line}")),
            "{err}"
        );
    }

    #[test]
    fn a_desync_window_past_every_round_is_pointed_at_its_line() {
        let text = Policy::default()
            .to_text()
            .replace("window 96", "window 1000000000000000");
        let err = Policy::parse_named(&text, "wide.twp").unwrap_err();
        assert!(
            err.message
                .contains("`window 1000000000000000` searches past the longest round"),
            "{err}"
        );
        let line = text
            .lines()
            .position(|l| l == "window 1000000000000000")
            .unwrap()
            + 1;
        assert!(
            err.message.contains(&format!("--> wide.twp:{line}")),
            "{err}"
        );
        let at_bound = Policy::default()
            .to_text()
            .replace("window 96", "window 16777216");
        assert_eq!(
            Policy::parse(&at_bound).unwrap().desync_window,
            FrameSize::MAX
        );
    }

    #[test]
    fn parse_points_validation_diagnostics_at_lines() {
        let text = Policy::default()
            .to_text()
            .replace("budget unlimited", "budget 0");
        let err = Policy::parse_named(&text, "site.twp").unwrap_err();
        assert!(err.message.contains("audit budget of 0"), "{err}");
        assert!(err.message.contains("--> site.twp:"), "{err}");
    }

    #[test]
    fn flat_lines_round_trip_and_embed_safely() {
        let p = Policy {
            site: "dock-9".to_string(),
            protocol: TickProtocol::Utrp,
            desyncs_to_quarantine: None,
            audit_budget: Some(12),
            ..Policy::default()
        };
        let lines = p.to_flat_lines();
        assert_eq!(lines.len(), 11);
        // Checkpoint-section safe: no `@` markers, no embedded newlines.
        assert!(lines
            .iter()
            .all(|l| !l.starts_with('@') && !l.contains('\n')));
        assert_eq!(Policy::from_flat_lines(&lines).unwrap(), p);
    }

    #[test]
    fn flat_lines_reject_unknown_and_duplicate_keys() {
        let mut lines = Policy::default().to_flat_lines();
        lines.push("color blue".to_string());
        assert!(Policy::from_flat_lines(&lines)
            .unwrap_err()
            .message
            .contains("unknown policy key"));

        let mut lines = Policy::default().to_flat_lines();
        lines.push("site other".to_string());
        assert!(Policy::from_flat_lines(&lines)
            .unwrap_err()
            .message
            .contains("duplicate policy key `site`"));

        let mut lines = Policy::default().to_flat_lines();
        lines.pop();
        assert!(Policy::from_flat_lines(&lines)
            .unwrap_err()
            .message
            .contains("missing"));
    }
}
