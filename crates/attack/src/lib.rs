//! # tagwatch-attack
//!
//! Adversary implementations against the missing-tag monitoring
//! protocols — the other half of a security paper's reproduction. A
//! defence is only demonstrated by an attack that *works against the
//! weaker design and fails against the hardened one*:
//!
//! * [`replay`] — record a bitstring, play it back later (§1, §5.1's
//!   first vulnerability; defeated by fresh nonces).
//! * [`split_set`] — the collusion attack of Alg. 4: steal a subset,
//!   have an accomplice scan it remotely, OR the bitstrings. Defeats
//!   TRP completely.
//! * [`colluder`] — the *best-strategy* attack against UTRP from §5.4:
//!   synchronize re-seeds over a budgeted side channel for as long as
//!   the deadline allows, then finish solo. Eq. 3's frame sizing is
//!   exactly what keeps this attack detectable, and Fig. 7 measures it.
//! * [`rescan`] — the pre-scan attack against a **counter-less** UTRP
//!   variant (§5.2, Fig. 3): the ablation showing the hardware counter
//!   is load-bearing, not decorative.
//! * [`jammer`] — energy injection to "patch the holes" missing tags
//!   leave: only ever adds evidence, quantified.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod colluder;
pub mod jammer;
pub mod replay;
pub mod rescan;
pub mod split_set;

pub use colluder::{collude_utrp, collude_utrp_reference, ColluderConfig, ColluderOutcome};
pub use jammer::{jammed_scan, JammerStrategy};
pub use replay::ReplayAttacker;
pub use rescan::{counterless_round, prescan_attack};
pub use split_set::split_set_attack;
