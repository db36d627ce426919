//! Multi-group monitoring (paper contribution #4).
//!
//! The paper contrasts itself with generalized yoking proofs, whose
//! per-group on-chip timers make group sizes inflexible: "our technique
//! is more flexible than prior research in that we can accommodate
//! different sized groups of tags" (§1). This module makes that claim
//! concrete: a [`GroupedMonitor`] manages many named tag groups — a
//! pallet, a shelf, a truckload — each with its **own** size, tolerance
//! and confidence, each sized independently by Eq. 2, and audited in
//! one sweep.
//!
//! Tag IDs are globally unique across groups (a physical tag sits in
//! exactly one pallet), which the monitor enforces at registration.

use std::collections::BTreeMap;
use std::fmt;

use rand::Rng;

use tagwatch_sim::TagId;

use crate::bitstring::Bitstring;
use crate::error::CoreError;
use crate::server::{MonitorServer, ServerConfig};
use crate::trp::TrpChallenge;
use crate::verdict::MonitorReport;

/// A challenge per group, issued together as one audit sweep.
///
/// Consumed by [`GroupedMonitor::verify_audit`]; like single-group
/// challenges, an audit cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedAudit {
    challenges: BTreeMap<String, TrpChallenge>,
}

impl GroupedAudit {
    /// The challenge for one group.
    #[must_use]
    pub fn challenge(&self, group: &str) -> Option<&TrpChallenge> {
        self.challenges.get(group)
    }

    /// Group names covered by the audit, ascending.
    pub fn groups(&self) -> impl Iterator<Item = &str> {
        self.challenges.keys().map(String::as_str)
    }

    /// Total slots the audit will cost across all groups — directly
    /// comparable against one big collect-all.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.challenges.values().map(|c| c.frame_size().get()).sum()
    }
}

/// Per-group outcome of an audit.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedReport {
    /// Individual verification reports, keyed by group name. Groups the
    /// responder skipped are reported as alarms (a missing pallet is at
    /// least as bad as a missing tag).
    pub per_group: BTreeMap<String, MonitorReport>,
    /// Names of groups with no response.
    pub unanswered: Vec<String>,
}

impl GroupedReport {
    /// Names of groups that alarmed (including unanswered ones).
    #[must_use]
    pub fn alarmed_groups(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .per_group
            .iter()
            .filter(|(_, r)| r.is_alarm())
            .map(|(k, _)| k.as_str())
            .collect();
        out.extend(self.unanswered.iter().map(String::as_str));
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A monitor over many independently-sized tag groups.
///
/// ```rust
/// use rand::SeedableRng;
/// use tagwatch_core::groups::GroupedMonitor;
/// use tagwatch_sim::TagId;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut monitor = GroupedMonitor::new();
/// // A big pallet with a loose policy, a small case with a strict one.
/// monitor.add_group("pallet-a", (1..=500u64).map(TagId::from), 10, 0.95)?;
/// monitor.add_group("case-7", (501..=520u64).map(TagId::from), 0, 0.99)?;
///
/// let audit = monitor.issue_audit(&mut rng)?;
/// assert_eq!(audit.groups().count(), 2);
/// # Ok::<(), tagwatch_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GroupedMonitor {
    groups: BTreeMap<String, MonitorServer>,
    owner_of: BTreeMap<TagId, String>,
    config: ServerConfig,
}

impl GroupedMonitor {
    /// Creates an empty monitor with default server configuration.
    #[must_use]
    pub fn new() -> Self {
        GroupedMonitor::default()
    }

    /// Creates an empty monitor with an explicit configuration applied
    /// to every group added later.
    #[must_use]
    pub fn with_config(config: ServerConfig) -> Self {
        GroupedMonitor {
            config,
            ..GroupedMonitor::default()
        }
    }

    /// Registers a group. Group sizes, tolerances and confidences are
    /// fully independent — the flexibility the paper claims over
    /// fixed-size yoking proofs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for a duplicate group name,
    /// a tag already owned by another group, or invalid `(m, alpha)`.
    pub fn add_group<I: IntoIterator<Item = TagId>>(
        &mut self,
        name: &str,
        ids: I,
        m: u64,
        alpha: f64,
    ) -> Result<(), CoreError> {
        if self.groups.contains_key(name) {
            return Err(CoreError::InvalidParams {
                reason: format!("group `{name}` already exists"),
            });
        }
        let ids: Vec<TagId> = ids.into_iter().collect();
        for &id in &ids {
            if let Some(owner) = self.owner_of.get(&id) {
                return Err(CoreError::InvalidParams {
                    reason: format!("tag {id} already belongs to group `{owner}`"),
                });
            }
        }
        let server = MonitorServer::with_config(ids.clone(), m, alpha, self.config)?;
        for id in ids {
            self.owner_of.insert(id, name.to_owned());
        }
        self.groups.insert(name.to_owned(), server);
        Ok(())
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no groups are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Shared access to one group's server.
    #[must_use]
    pub fn group(&self, name: &str) -> Option<&MonitorServer> {
        self.groups.get(name)
    }

    /// The group owning a tag.
    #[must_use]
    pub fn owner_of(&self, id: TagId) -> Option<&str> {
        self.owner_of.get(&id).map(String::as_str)
    }

    /// Issues one TRP challenge per group, each frame sized by that
    /// group's own `(n, m, α)` via Eq. 2.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when no groups are
    /// registered, or propagates sizing failures.
    pub fn issue_audit<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<GroupedAudit, CoreError> {
        if self.groups.is_empty() {
            return Err(CoreError::InvalidParams {
                reason: "no groups registered".to_owned(),
            });
        }
        let mut challenges = BTreeMap::new();
        for (name, server) in &self.groups {
            challenges.insert(name.clone(), server.issue_trp_challenge(rng)?);
        }
        Ok(GroupedAudit { challenges })
    }

    /// Verifies a full audit: one bitstring per group. Groups without a
    /// response are alarmed as unanswered.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResponseShapeMismatch`] if any supplied
    /// bitstring disagrees with its group's frame (no partial state is
    /// recorded in that case for the offending group).
    pub fn verify_audit(
        &mut self,
        audit: GroupedAudit,
        responses: &BTreeMap<String, Bitstring>,
    ) -> Result<GroupedReport, CoreError> {
        let mut per_group = BTreeMap::new();
        let mut unanswered = Vec::new();
        for (name, challenge) in audit.challenges {
            let server = self
                .groups
                .get_mut(&name)
                .ok_or_else(|| CoreError::InvalidParams {
                    reason: format!("audit group `{name}` does not belong to this monitor"),
                })?;
            match responses.get(&name) {
                Some(bs) => {
                    let report = server.verify_trp(challenge, bs)?;
                    per_group.insert(name, report);
                }
                None => unanswered.push(name),
            }
        }
        Ok(GroupedReport {
            per_group,
            unanswered,
        })
    }
}

impl GroupedMonitor {
    /// Serializes every group to a sectioned text format (one
    /// [`crate::registry`] snapshot per group):
    ///
    /// ```text
    /// tagwatch-groups v1
    /// group pallet-a
    /// tagwatch-registry v1
    /// policy m=10 alpha=0.95
    /// …
    /// group case-7
    /// …
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("tagwatch-groups v1\n");
        for (name, server) in &self.groups {
            out.push_str("group ");
            out.push_str(name);
            out.push('\n');
            out.push_str(&server.snapshot().to_text());
        }
        out
    }

    /// Restores a grouped monitor from [`GroupedMonitor::to_text`]
    /// output, applying `config` to every group.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseSnapshot`] for format violations
    /// (wrong magic, group names containing whitespace, duplicate
    /// groups or cross-group tag ownership conflicts surface as
    /// [`CoreError::InvalidParams`]).
    pub fn from_text(text: &str, config: ServerConfig) -> Result<Self, CoreError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("tagwatch-groups v1") {
            return Err(CoreError::ParseSnapshot {
                line: 1,
                reason: "bad magic line (expected `tagwatch-groups v1`)".to_owned(),
            });
        }
        let mut monitor = GroupedMonitor::with_config(config);
        let mut current: Option<(String, String)> = None;

        let flush = |monitor: &mut GroupedMonitor,
                     section: Option<(String, String)>|
         -> Result<(), CoreError> {
            let Some((name, body)) = section else {
                return Ok(());
            };
            let snapshot = crate::registry::RegistrySnapshot::from_text(&body)?;
            let server = MonitorServer::from_snapshot(snapshot, config)?;
            // Route through add_group for name/ownership validation,
            // then restore counters and the sync flag by replacing the
            // freshly-built server.
            monitor.add_group(
                &name,
                server.registered_ids(),
                server.params().tolerance(),
                server.params().confidence(),
            )?;
            monitor.groups.insert(name, server);
            Ok(())
        };

        for raw in lines {
            if let Some(name) = raw.strip_prefix("group ") {
                let name = name.trim();
                if name.is_empty() || name.contains(char::is_whitespace) {
                    return Err(CoreError::ParseSnapshot {
                        line: 0,
                        reason: format!("bad group name `{name}`"),
                    });
                }
                flush(&mut monitor, current.take())?;
                current = Some((name.to_owned(), String::new()));
            } else if let Some((_, body)) = current.as_mut() {
                body.push_str(raw);
                body.push('\n');
            } else if !raw.trim().is_empty() {
                return Err(CoreError::ParseSnapshot {
                    line: 0,
                    reason: "content before the first group section".to_owned(),
                });
            }
        }
        flush(&mut monitor, current.take())?;
        Ok(monitor)
    }
}

impl fmt::Display for GroupedMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grouped monitor: {} groups, {} tags",
            self.groups.len(),
            self.owner_of.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trp::observed_bitstring;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tagwatch_sim::TagPopulation;

    fn ids(range: std::ops::RangeInclusive<u64>) -> Vec<TagId> {
        range.map(TagId::from).collect()
    }

    fn monitor_with_two_groups() -> GroupedMonitor {
        let mut m = GroupedMonitor::new();
        m.add_group("pallet", ids(1..=300), 5, 0.95).unwrap();
        m.add_group("case", ids(301..=320), 0, 0.99).unwrap();
        m
    }

    #[test]
    fn groups_of_different_sizes_coexist() {
        let m = monitor_with_two_groups();
        assert_eq!(m.len(), 2);
        assert_eq!(m.group("pallet").unwrap().len(), 300);
        assert_eq!(m.group("case").unwrap().len(), 20);
        assert_eq!(m.owner_of(TagId::new(301)), Some("case"));
        assert_eq!(m.owner_of(TagId::new(999)), None);
    }

    #[test]
    fn duplicate_names_and_shared_tags_are_rejected() {
        let mut m = monitor_with_two_groups();
        assert!(m.add_group("pallet", ids(400..=410), 1, 0.9).is_err());
        // Tag 300 already owned by "pallet".
        assert!(m.add_group("other", ids(300..=305), 1, 0.9).is_err());
        assert_eq!(m.len(), 2, "failed registrations must not half-apply");
    }

    #[test]
    fn frames_are_sized_per_group_policy() {
        let m = monitor_with_two_groups();
        let mut rng = StdRng::seed_from_u64(1);
        let audit = m.issue_audit(&mut rng).unwrap();
        let pallet_f = audit.challenge("pallet").unwrap().frame_size().get();
        let case_f = audit.challenge("case").unwrap().frame_size().get();
        // Strictness dominates size: the 20-tag case at (m=0, α=0.99)
        // needs a *larger* frame than the 300-tag pallet at (m=5,
        // α=0.95) — detecting a single missing tag requires its slot to
        // be empty of all peers, i.e. f ≈ (n−1)/ln(1/α). The per-group
        // sizing must reflect each policy, not the group size.
        assert!(case_f > pallet_f, "{case_f} vs {pallet_f}");
        assert_eq!(audit.total_slots(), pallet_f + case_f);

        // Same tag count, looser policy → smaller frame.
        let mut relaxed = GroupedMonitor::new();
        relaxed.add_group("case", ids(301..=320), 2, 0.9).unwrap();
        let audit2 = relaxed.issue_audit(&mut rng).unwrap();
        let relaxed_f = audit2.challenge("case").unwrap().frame_size().get();
        assert!(relaxed_f < case_f, "{relaxed_f} vs {case_f}");
    }

    #[test]
    fn intact_audit_passes_all_groups() {
        let mut m = monitor_with_two_groups();
        let mut rng = StdRng::seed_from_u64(2);
        let audit = m.issue_audit(&mut rng).unwrap();

        let mut responses = BTreeMap::new();
        for name in ["pallet", "case"] {
            let ch = audit.challenge(name).unwrap();
            let group_ids = m.group(name).unwrap().registered_ids();
            responses.insert(name.to_owned(), observed_bitstring(&group_ids, ch));
        }
        let report = m.verify_audit(audit, &responses).unwrap();
        assert!(report.alarmed_groups().is_empty());
    }

    #[test]
    fn theft_localizes_to_the_right_group() {
        let mut m = monitor_with_two_groups();
        let mut rng = StdRng::seed_from_u64(3);
        let audit = m.issue_audit(&mut rng).unwrap();

        // The case (m = 0) loses one tag; the pallet is intact.
        let mut case_floor = TagPopulation::from_ids(ids(301..=320)).unwrap();
        case_floor.remove_random(1, &mut rng).unwrap();

        let mut responses = BTreeMap::new();
        responses.insert(
            "pallet".to_owned(),
            observed_bitstring(
                &m.group("pallet").unwrap().registered_ids(),
                audit.challenge("pallet").unwrap(),
            ),
        );
        responses.insert(
            "case".to_owned(),
            observed_bitstring(&case_floor.ids(), audit.challenge("case").unwrap()),
        );
        let report = m.verify_audit(audit, &responses).unwrap();
        // m = 0 and a 20-tag group with a 0.99-sized frame: detection is
        // near-certain; the pallet must stay quiet.
        assert_eq!(report.alarmed_groups(), vec!["case"]);
        assert!(!report.per_group["pallet"].is_alarm());
    }

    #[test]
    fn unanswered_groups_alarm() {
        let mut m = monitor_with_two_groups();
        let mut rng = StdRng::seed_from_u64(4);
        let audit = m.issue_audit(&mut rng).unwrap();
        let mut responses = BTreeMap::new();
        responses.insert(
            "pallet".to_owned(),
            observed_bitstring(
                &m.group("pallet").unwrap().registered_ids(),
                audit.challenge("pallet").unwrap(),
            ),
        );
        // "case" never responds.
        let report = m.verify_audit(audit, &responses).unwrap();
        assert_eq!(report.unanswered, vec!["case".to_owned()]);
        assert_eq!(report.alarmed_groups(), vec!["case"]);
    }

    #[test]
    fn empty_monitor_cannot_audit() {
        let m = GroupedMonitor::new();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(m.issue_audit(&mut rng).is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn grouped_text_round_trip_preserves_everything() {
        let mut m = monitor_with_two_groups();
        // Advance some state: a UTRP round on the small group so its
        // counters are non-zero.
        let mut rng = StdRng::seed_from_u64(9);
        let ch = m
            .group("case")
            .unwrap()
            .issue_utrp_challenge(&mut rng)
            .unwrap();
        let mut floor = TagPopulation::from_ids(ids(301..=320)).unwrap();
        let timing = m.group("case").unwrap().config().timing;
        let response = crate::utrp::run_honest_reader(&mut floor, &ch, &timing).unwrap();
        m.groups
            .get_mut("case")
            .unwrap()
            .verify_utrp(ch, &response)
            .unwrap();

        let text = m.to_text();
        let restored =
            GroupedMonitor::from_text(&text, crate::server::ServerConfig::default()).unwrap();
        assert_eq!(restored.to_string(), m.to_string());
        for name in ["pallet", "case"] {
            let a = m.group(name).unwrap();
            let b = restored.group(name).unwrap();
            assert_eq!(a.params(), b.params(), "{name}");
            assert_eq!(a.counters_synced(), b.counters_synced(), "{name}");
            for id in a.registered_ids() {
                assert_eq!(
                    a.counter_of(id).unwrap(),
                    b.counter_of(id).unwrap(),
                    "{name}/{id}"
                );
            }
        }
        assert_eq!(restored.owner_of(TagId::new(301)), Some("case"));
    }

    #[test]
    fn grouped_text_rejects_malformed_input() {
        let cfg = crate::server::ServerConfig::default();
        assert!(GroupedMonitor::from_text("", cfg).is_err());
        assert!(GroupedMonitor::from_text("wrong magic", cfg).is_err());
        assert!(
            GroupedMonitor::from_text("tagwatch-groups v1\ntag before any group", cfg).is_err()
        );
        assert!(GroupedMonitor::from_text("tagwatch-groups v1\ngroup bad name\n", cfg).is_err());
        // Duplicate group names.
        let dup = "tagwatch-groups v1\n\
             group a\ntagwatch-registry v1\npolicy m=0 alpha=0.9\ntag 01 0\n\
             group a\ntagwatch-registry v1\npolicy m=0 alpha=0.9\ntag 02 0\n";
        assert!(GroupedMonitor::from_text(dup, cfg).is_err());
    }

    #[test]
    fn empty_grouped_monitor_round_trips() {
        let m = GroupedMonitor::new();
        let restored =
            GroupedMonitor::from_text(&m.to_text(), crate::server::ServerConfig::default())
                .unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn display_counts_groups_and_tags() {
        let m = monitor_with_two_groups();
        let text = m.to_string();
        assert!(text.contains("2 groups"));
        assert!(text.contains("320 tags"));
    }
}
