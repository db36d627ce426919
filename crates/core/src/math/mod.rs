//! The analytical machinery behind TRP and UTRP frame sizing.
//!
//! * [`binomial`] — log-space factorials, binomial pmfs, tail windows.
//! * [`detection`] — `g(n, x, f)`, the TRP detection probability
//!   (Theorem 1).
//! * [`utrp`] — the colluder-aware detection probability and sync
//!   horizon (Theorems 3–5, Eq. 3).

pub mod binomial;
pub mod detection;
pub mod utrp;

pub use binomial::{binomial_terms, binomial_window, LnFactorial};
pub use detection::{detection_probability, detection_probability_with, EmptySlotModel};
pub use utrp::{sync_horizon, utrp_detection_probability, utrp_detection_probability_reference};
