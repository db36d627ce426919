//! # tagwatch
//!
//! Monitor large sets of RFID tags for missing tags **without
//! collecting a single ID over the air** — a production-quality Rust
//! reproduction of Chiu C. Tan, Bo Sheng, and Qun Li, *"How to Monitor
//! for Missing RFID Tags"*, ICDCS 2008.
//!
//! This crate is the facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `tagwatch-sim` | slot-level RFID substrate: tags, readers, channel, slotted ALOHA, timing |
//! | [`core`] | `tagwatch-core` | the paper's protocols: TRP, UTRP, frame-sizing math, the monitoring server |
//! | [`protocols`] | `tagwatch-protocols` | baselines: collect-all DFSA, query tree, cardinality estimation |
//! | [`attack`] | `tagwatch-attack` | adversaries: replay, split-set collusion, budgeted UTRP colluders |
//! | [`analytics`] | `tagwatch-analytics` | Monte-Carlo harness reproducing the paper's Figures 4–7, plus continuous monitoring sessions |
//! | [`obs`] | `tagwatch-obs` | observability: metrics registry, flight recorder, deterministic JSONL/snapshot export |
//!
//! A command-line interface ships as the `tagwatch-cli` crate
//! (`cargo run -p tagwatch-cli -- help`), and figure-regeneration
//! binaries as `tagwatch-bench`.
//!
//! ## Sixty-second tour
//!
//! ```rust
//! use rand::SeedableRng;
//! use tagwatch::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // A warehouse of 1 000 tagged items, registered with the server.
//! // Policy: tolerate up to 10 missing items, 95% detection confidence.
//! let warehouse = TagPopulation::with_sequential_ids(1_000);
//! let mut server = MonitorServer::new(warehouse.ids(), 10, 0.95)?;
//!
//! // Routine check: one challenge, one ALOHA frame, one bit per slot.
//! let challenge = server.issue_trp_challenge(&mut rng)?;
//! let mut reader = Reader::new(ReaderConfig::default());
//! let bs = trp::run_reader(&mut reader, &challenge, &warehouse, &Channel::ideal());
//! let report = server.verify_trp(challenge, &bs)?;
//! assert!(report.verdict.is_intact());
//! println!("{report}; used {} slots", reader.slots_used());
//! # Ok(())
//! # }
//! ```
//!
//! For the untrusted-reader protocol, collusion attacks, baselines, and
//! the figure reproductions, see the `examples/` directory and the
//! `fig4`–`fig7` binaries in `tagwatch-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tagwatch_analytics as analytics;
pub use tagwatch_attack as attack;
pub use tagwatch_core as core;
pub use tagwatch_obs as obs;
pub use tagwatch_protocols as protocols;
pub use tagwatch_sim as sim;

/// One-import convenience: the types almost every user touches.
pub mod prelude {
    pub use tagwatch_core::{
        identify_missing, trp, trp_frame_size, utrp, utrp_frame_size, Bitstring, CoreError,
        GroupedMonitor, IdentifyConfig, MonitorParams, MonitorReport, MonitorServer, ProtocolKind,
        RegistrySnapshot, ServerConfig, TrpChallenge, UtrpChallenge, UtrpResponse, UtrpSizing,
        Verdict,
    };
    pub use tagwatch_sim::{
        Channel, ChannelConfig, Counter, FrameSize, Nonce, Reader, ReaderConfig, Sgtin96,
        SimDuration, SimError, SimTime, TagId, TagPopulation, TimingModel,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let id = crate::sim::TagId::new(1);
        assert_eq!(id.as_u128(), 1);
        let params = crate::core::MonitorParams::new(10, 1, 0.9).unwrap();
        assert_eq!(params.population(), 10);
    }
}
