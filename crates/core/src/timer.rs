//! The server-side response timer (paper §5.4).
//!
//! UTRP's defence is economic: forcing colluding readers to synchronize
//! after every reply slot costs them side-channel round-trips, and the
//! server's deadline bounds how many they can afford. The server sets
//! the timer to `t = STmax`, an empirical upper bound on an *honest*
//! reader's scanning time; the colluders can then communicate in at
//! most `c = (t − STmin) / tcomm` slots.
//!
//! [`ResponseTimer`] derives `STmin` / `STmax` from the substrate's
//! [`TimingModel`]:
//!
//! * `STmin` — the fastest honest round: every slot empty, a single
//!   announcement (an empty warehouse reads fast);
//! * `STmax` — the slowest honest round: every slot answered, hence a
//!   re-announcement after every slot.

use tagwatch_sim::{FrameSize, SimDuration, TimingModel};

/// The deadline and collusion-budget model for one UTRP challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ResponseTimer {
    st_min: SimDuration,
    st_max: SimDuration,
}

impl ResponseTimer {
    /// Derives the timer bounds for a frame of `f` slots under `timing`.
    #[must_use]
    pub fn for_frame(timing: &TimingModel, f: FrameSize) -> Self {
        let slots = f.get();
        // Fastest honest round: one announcement, all slots empty.
        let st_min = timing.frame_announce + (timing.slot_broadcast + timing.empty_slot) * slots;
        // Slowest honest round: every slot carries a reply, and each
        // reply (except in the final slot) triggers a re-announcement.
        let st_max = timing.frame_announce * slots.max(1)
            + (timing.slot_broadcast + timing.presence_reply) * slots;
        ResponseTimer { st_min, st_max }
    }

    /// Builds a timer from explicit bounds (tests, calibration data).
    ///
    /// # Panics
    ///
    /// Panics if `st_min > st_max`.
    #[must_use]
    // lint:allow(u1-dead-pub): scenario builder: core/tests/conformance.rs::section_5_4_budget_formula sets the paper's bounds with it
    pub fn from_bounds(st_min: SimDuration, st_max: SimDuration) -> Self {
        assert!(st_min <= st_max, "st_min must not exceed st_max");
        ResponseTimer { st_min, st_max }
    }

    /// The empirical minimum honest scanning time `STmin`.
    #[must_use]
    pub fn st_min(&self) -> SimDuration {
        self.st_min
    }

    /// The empirical maximum honest scanning time `STmax`.
    #[must_use]
    pub fn st_max(&self) -> SimDuration {
        self.st_max
    }

    /// The deadline the server enforces: `t = STmax` (§5.4).
    #[must_use]
    pub fn deadline(&self) -> SimDuration {
        self.st_max
    }

    /// Whether a response that took `elapsed` is on time.
    #[must_use]
    pub fn accepts(&self, elapsed: SimDuration) -> bool {
        elapsed <= self.deadline()
    }

    /// The colluders' synchronization budget under this timer:
    /// `c = (t − STmin) / tcomm`, the number of side-channel round-trips
    /// that fit in the slack.
    ///
    /// # Panics
    ///
    /// Panics if `tcomm` is zero (an infinitely fast side channel makes
    /// the budget unbounded; model it with a small positive latency
    /// instead).
    #[must_use]
    pub fn sync_budget(&self, tcomm: SimDuration) -> u64 {
        assert!(
            tcomm > SimDuration::ZERO,
            "side-channel latency must be positive"
        );
        self.deadline()
            .saturating_sub(self.st_min)
            .div_duration(tcomm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u64) -> FrameSize {
        FrameSize::new(n).unwrap()
    }

    #[test]
    fn bounds_order_holds_for_gen2() {
        let t = ResponseTimer::for_frame(&TimingModel::gen2(), frame(500));
        assert!(t.st_min() < t.st_max());
        assert_eq!(t.deadline(), t.st_max());
    }

    #[test]
    fn uniform_model_bounds() {
        // Uniform slots: announce is free, every slot costs 1 µs, so
        // STmin = STmax = f µs and the budget under any tcomm is 0 —
        // the degenerate case the paper's difficulty discussion (§5.1)
        // warns about when slot timings carry no information.
        let t = ResponseTimer::for_frame(&TimingModel::uniform_slots(), frame(100));
        assert_eq!(t.st_min().as_micros(), 100);
        assert_eq!(t.st_max().as_micros(), 100);
        assert_eq!(t.sync_budget(SimDuration::from_micros(50)), 0);
    }

    #[test]
    fn budget_matches_paper_formula() {
        let t = ResponseTimer::from_bounds(
            SimDuration::from_micros(1_000),
            SimDuration::from_micros(11_000),
        );
        // c = (t - STmin) / tcomm = 10_000 / 500 = 20 — the paper's
        // evaluation value.
        assert_eq!(t.sync_budget(SimDuration::from_micros(500)), 20);
    }

    #[test]
    fn budget_shrinks_with_slower_side_channel() {
        let t = ResponseTimer::from_bounds(
            SimDuration::from_micros(0),
            SimDuration::from_micros(10_000),
        );
        assert!(
            t.sync_budget(SimDuration::from_micros(1_000))
                > t.sync_budget(SimDuration::from_micros(5_000))
        );
    }

    #[test]
    fn accepts_on_time_rejects_late() {
        let t =
            ResponseTimer::from_bounds(SimDuration::from_micros(10), SimDuration::from_micros(100));
        assert!(t.accepts(SimDuration::from_micros(100)));
        assert!(!t.accepts(SimDuration::from_micros(101)));
    }

    #[test]
    fn bigger_frames_stretch_both_bounds() {
        let timing = TimingModel::gen2();
        let small = ResponseTimer::for_frame(&timing, frame(100));
        let large = ResponseTimer::for_frame(&timing, frame(1000));
        assert!(large.st_min() > small.st_min());
        assert!(large.st_max() > small.st_max());
    }

    #[test]
    #[should_panic(expected = "st_min must not exceed st_max")]
    fn from_bounds_validates_order() {
        let _ =
            ResponseTimer::from_bounds(SimDuration::from_micros(2), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "side-channel latency must be positive")]
    fn zero_tcomm_is_rejected() {
        let t = ResponseTimer::from_bounds(SimDuration::ZERO, SimDuration::from_micros(1));
        let _ = t.sync_budget(SimDuration::ZERO);
    }
}
