//! # tagwatch-protocols
//!
//! Baseline RFID inventory protocols that the paper's evaluation
//! compares against (or cites as alternatives):
//!
//! * [`collect_all`](mod@collect_all) — the **collect-all** strategy the paper's
//!   introduction names and Fig. 4 benchmarks: dynamic framed-slotted
//!   ALOHA that keeps re-framing until (almost) every tag has delivered
//!   its ID. Frame sizing follows Lee et al. \[7\]: the optimal frame
//!   equals the number of still-unidentified tags.
//! * [`query_tree`] — a deterministic **query-tree** anti-collision
//!   protocol (cited family \[3\]): the reader walks a binary prefix
//!   trie of the ID space, splitting on collisions.
//! * [`tree_slotted`] — **Tree Slotted ALOHA** (cited \[2\]): collided
//!   slots spawn dedicated child frames, beating flat re-framing.
//! * [`estimate`] — probabilistic **cardinality estimation** in the
//!   spirit of Kodialam & Nandagopal \[6\]: estimate *how many* tags are
//!   present from empty-slot counts, without identifying anybody.
//!
//! All three run on the `tagwatch-sim` substrate, so their slot counts
//! are directly comparable with TRP/UTRP's.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod collect_all;
pub mod estimate;
pub mod query_tree;
pub mod tree_slotted;

pub use collect_all::{collect_all, CollectAllConfig, CollectAllRun, FramePolicy};
pub use estimate::{estimate_cardinality, EstimateConfig, EstimateOutcome};
pub use query_tree::{query_tree_inventory, QueryTreeRun};
pub use tree_slotted::{tree_slotted_inventory, TsaConfig, TsaRun};
