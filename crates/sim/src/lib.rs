//! # tagwatch-sim
//!
//! RFID PHY/MAC simulation substrate for the `tagwatch` missing-tag
//! monitoring system (a reproduction of Tan, Sheng & Li,
//! *"How to Monitor for Missing RFID Tags"*, ICDCS 2008).
//!
//! The paper evaluates its protocols purely in simulation, with the
//! *time slot* of a framed-slotted-ALOHA round as the unit of cost. This
//! crate provides that substrate, built from scratch:
//!
//! * [`time`] — simulated clock types ([`SimTime`], [`SimDuration`]).
//! * [`hash`] — the deterministic slot-pick hash `h(id ⊕ r) mod f` that
//!   both tags and the server evaluate (the cornerstone of TRP/UTRP).
//! * [`tag`] — the passive-tag device model: 96-bit EPC-style ID, the
//!   monotone counter `ct` used by UTRP, mute/detuned states.
//! * [`population`] — collections of tags with removal/splitting support
//!   (the adversary "steals" tags by removing them here).
//! * [`radio`] — the shared channel: per-slot outcome resolution
//!   (empty / single / collision) plus optional failure injection.
//! * [`fault`] — deterministic scripted fault plans (reply loss,
//!   announcement loss, reader crash, truncation, clock skew) for
//!   robustness testing, complementing [`radio`]'s probabilistic knobs.
//! * [`markov`] — Markov-modulated channel evolution (named quality
//!   levels + transition matrix) for long-horizon soak runs.
//! * [`reader`] — the interrogator device that broadcasts frames and
//!   resolves their slots in order on the channel.
//! * [`aloha`] — framed-slotted-ALOHA round descriptors and executions.
//! * [`timing`] — an EPC-Gen2-inspired air-interface timing model, so
//!   slot counts can also be converted into microseconds.
//! * [`rng`] — deterministic seed derivation for reproducible trials.
//! * [`epc`] — SGTIN-96 EPC encoding, for production-shaped identities.
//!
//! ## Example
//!
//! ```rust
//! use tagwatch_sim::prelude::*;
//!
//! # fn main() -> Result<(), tagwatch_sim::SimError> {
//! // A population of 100 tags with deterministic IDs.
//! let population = TagPopulation::with_sequential_ids(100);
//! let channel = Channel::ideal();
//! let mut reader = Reader::new(ReaderConfig::default());
//!
//! // Run one framed-slotted-ALOHA presence round: tags answer with a
//! // short random burst, not their ID.
//! let frame = FramePlan::new(FrameSize::new(128)?, Nonce::new(42));
//! let execution = reader.run_presence_frame(&frame, &population, &channel);
//! assert_eq!(execution.outcomes().len(), 128);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aloha;
pub mod epc;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ident;
pub mod markov;
pub mod population;
pub mod radio;
pub mod reader;
pub mod rng;
pub mod tag;
pub mod time;
pub mod timing;

pub use aloha::{FrameExecution, FramePlan, FrameStats};
pub use epc::{sgtin_batch, Sgtin96};
pub use error::SimError;
pub use fault::{FaultInjector, FaultPlan, StorageFault, StorageFaultPlan};
pub use hash::{slot_for, slot_for_counted, FastMod};
pub use ident::{FrameSize, Nonce, TagId};
pub use markov::{ChannelLevel, MarkovChannel};
pub use population::TagPopulation;
pub use radio::{Channel, ChannelConfig, Reception, SlotOutcome};
pub use reader::{Reader, ReaderConfig};
pub use rng::SeedSequence;
pub use tag::{Counter, Tag, TagState};
pub use time::{SimDuration, SimTime};
pub use timing::TimingModel;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::aloha::{FrameExecution, FramePlan, FrameStats};
    pub use crate::error::SimError;
    pub use crate::fault::{FaultInjector, FaultPlan, StorageFault, StorageFaultPlan};
    pub use crate::hash::{slot_for, slot_for_counted};
    pub use crate::ident::{FrameSize, Nonce, TagId};
    pub use crate::markov::{ChannelLevel, MarkovChannel};
    pub use crate::population::TagPopulation;
    pub use crate::radio::{Channel, ChannelConfig, SlotOutcome};
    pub use crate::reader::{Reader, ReaderConfig};
    pub use crate::rng::SeedSequence;
    pub use crate::tag::{Counter, Tag, TagState};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timing::TimingModel;
}
