//! Full figure sweeps (paper §6, Figures 4–7).
//!
//! Each `figN` function reproduces one figure's data: the same `n` grid
//! (100…2000 step 100), tolerance panels `m ∈ {5, 10, 20, 30}`,
//! `α = 0.95`, adversary stealing exactly `m + 1` tags, and (for the
//! accuracy figures) Monte-Carlo averaging — the paper uses 1000 trials,
//! configurable here. Trials parallelize across cores with per-trial
//! seeds derived from the sweep seed, so results are machine- and
//! thread-count-independent.

use tagwatch_core::{trp_frame_size, utrp_frame_size, CoreError, MonitorParams, UtrpSizing};
use tagwatch_sim::SeedSequence;

use crate::montecarlo::{collect_all_slots_trial, trp_detection_trial, utrp_detection_cell};
use crate::parallel::parallel_count;
use crate::stats::{Proportion, Summary};

/// Parameters shared by every figure sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Population sizes to sweep.
    pub n_values: Vec<u64>,
    /// Tolerance panels.
    pub m_values: Vec<u64>,
    /// Confidence level `α`.
    pub alpha: f64,
    /// Monte-Carlo trials per (n, m) cell for the accuracy figures.
    pub trials: u64,
    /// Trials per cell for collect-all cost averaging (cheaper spread,
    /// so fewer are needed).
    pub collect_trials: u64,
    /// Colluders' sync budget `c` (Figs. 6–7).
    pub sync_budget: u64,
    /// Root seed for per-trial derivation.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's exact evaluation grid (§6): `n = 100…2000` step 100,
    /// `m ∈ {5, 10, 20, 30}`, `α = 0.95`, 1000 trials, `c = 20`.
    #[must_use]
    pub fn paper() -> Self {
        SweepConfig {
            n_values: (1..=20).map(|k| k * 100).collect(),
            m_values: vec![5, 10, 20, 30],
            alpha: 0.95,
            trials: 1000,
            collect_trials: 25,
            sync_budget: 20,
            seed: 0x7467_7761,
        }
    }

    /// A reduced grid for CI and benches: four population sizes, 100
    /// trials.
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            n_values: vec![100, 500, 1000, 2000],
            m_values: vec![5, 10, 20, 30],
            alpha: 0.95,
            trials: 100,
            collect_trials: 5,
            sync_budget: 20,
            seed: 0x7467_7761,
        }
    }

    fn cell_seeds(&self, figure: u64, m: u64, n: u64) -> SeedSequence {
        SeedSequence::new(self.seed).child(figure).child(m).child(n)
    }
}

/// One point of Fig. 4: slots used by collect-all vs TRP.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Tolerance panel.
    pub m: u64,
    /// Population size.
    pub n: u64,
    /// Collect-all slot cost (mean over trials).
    pub collect_all_slots: Summary,
    /// TRP frame size from Eq. 2 (deterministic).
    pub trp_slots: u64,
}

/// Fig. 4: collect-all vs TRP scanning cost.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn fig4(config: &SweepConfig) -> Result<Vec<Fig4Row>, CoreError> {
    let mut rows = Vec::new();
    for &m in &config.m_values {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            let trp_slots = trp_frame_size(&params)?.get();
            let seeds = config.cell_seeds(4, m, n);
            let samples: Vec<f64> = crate::parallel::parallel_map(config.collect_trials, |t| {
                collect_all_slots_trial(n, m, seeds.seed_for(t)) as f64
            });
            rows.push(Fig4Row {
                m,
                n,
                collect_all_slots: Summary::from_samples(&samples),
                trp_slots,
            });
        }
    }
    Ok(rows)
}

/// One point of Fig. 5: TRP detection probability when `m + 1` tags are
/// stolen.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Tolerance panel.
    pub m: u64,
    /// Population size.
    pub n: u64,
    /// The Eq. 2 frame size used.
    pub frame: u64,
    /// Measured detection proportion.
    pub detection: Proportion,
}

/// Fig. 5: TRP accuracy at the Eq. 2 frame size, adversary steals
/// `m + 1`.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn fig5(config: &SweepConfig) -> Result<Vec<Fig5Row>, CoreError> {
    let mut rows = Vec::new();
    for &m in &config.m_values {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            let f = trp_frame_size(&params)?;
            let seeds = config.cell_seeds(5, m, n);
            let detected = parallel_count(config.trials, |t| {
                trp_detection_trial(n, m, f, seeds.seed_for(t))
            });
            rows.push(Fig5Row {
                m,
                n,
                frame: f.get(),
                detection: Proportion::new(detected, config.trials),
            });
        }
    }
    Ok(rows)
}

/// One point of Fig. 6: TRP vs UTRP frame sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Tolerance panel.
    pub m: u64,
    /// Population size.
    pub n: u64,
    /// Eq. 2 frame size.
    pub trp_slots: u64,
    /// Eq. 3 frame size (with the paper's small safety pad).
    pub utrp_slots: u64,
}

/// Fig. 6: the slot overhead of collusion resistance, `c = 20`.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn fig6(config: &SweepConfig) -> Result<Vec<Fig6Row>, CoreError> {
    let sizing = UtrpSizing {
        sync_budget: config.sync_budget,
        safety_pad: 8,
    };
    let mut rows = Vec::new();
    for &m in &config.m_values {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            rows.push(Fig6Row {
                m,
                n,
                trp_slots: trp_frame_size(&params)?.get(),
                utrp_slots: utrp_frame_size(&params, sizing)?.get(),
            });
        }
    }
    Ok(rows)
}

/// One point of Fig. 7: UTRP detection probability under the
/// best-strategy collusion attack.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Tolerance panel.
    pub m: u64,
    /// Population size.
    pub n: u64,
    /// The Eq. 3 frame size used.
    pub frame: u64,
    /// Measured detection proportion against the colluders.
    pub detection: Proportion,
}

/// Fig. 7: UTRP accuracy against colluding readers, `c = 20`.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn fig7(config: &SweepConfig) -> Result<Vec<Fig7Row>, CoreError> {
    let sizing = UtrpSizing {
        sync_budget: config.sync_budget,
        safety_pad: 8,
    };
    let mut rows = Vec::new();
    for &m in &config.m_values {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            let f = utrp_frame_size(&params, sizing)?;
            let seeds = config.cell_seeds(7, m, n);
            let detected = utrp_detection_cell(n, m, f, config.sync_budget, config.trials, seeds);
            rows.push(Fig7Row {
                m,
                n,
                frame: f.get(),
                detection: Proportion::new(detected, config.trials),
            });
        }
    }
    Ok(rows)
}

/// One point of the time-domain companion to Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4TimeRow {
    /// Tolerance panel.
    pub m: u64,
    /// Population size.
    pub n: u64,
    /// Collect-all air time under the Gen2 model, microseconds (mean).
    pub collect_all_micros: Summary,
    /// TRP air time under the Gen2 model, microseconds.
    pub trp_micros: u64,
}

/// The paper's Fig. 4 footnote, quantified: "the actual performance of
/// collect all will be worse since the tag needs to return its ID
/// rather than a shorter random number". Same sweep as Fig. 4 but in
/// *air time* under the Gen2-style timing model, where an ID slot is 6×
/// a presence slot.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn fig4_time(config: &SweepConfig) -> Result<Vec<Fig4TimeRow>, CoreError> {
    use rand::SeedableRng;
    use tagwatch_protocols::collect_all::{collect_all, CollectAllConfig};
    use tagwatch_sim::{Channel, Reader, ReaderConfig, TagPopulation, TimingModel};

    let timing = TimingModel::gen2();
    let mut rows = Vec::new();
    for &m in &config.m_values {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            let f = trp_frame_size(&params)?;
            // TRP time: announce + per-slot broadcast + outcome bodies.
            // Expected occupied slots: f·(1 − e^{−n/f}).
            let occupied =
                (f.get() as f64 * (1.0 - (-(n as f64) / f.get() as f64).exp())).round() as u64;
            let empty = f.get() - occupied;
            let trp_micros = (timing.frame_announce
                + timing.slot_broadcast * f.get()
                + timing.presence_reply * occupied
                + timing.empty_slot * empty)
                .as_micros();

            let seeds = config.cell_seeds(40, m, n);
            let samples: Vec<f64> = crate::parallel::parallel_map(config.collect_trials, |t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seeds.seed_for(t));
                let mut reader = Reader::new(ReaderConfig {
                    timing,
                    ..ReaderConfig::default()
                });
                let mut pop = TagPopulation::with_sequential_ids(n as usize);
                #[expect(
                    clippy::expect_used,
                    reason = "CollectAllConfig::paper(n, m) is valid whenever MonitorParams::new(n, m, alpha) succeeded above, and a Result cannot cross the parallel_map closure boundary"
                )]
                let run = collect_all(
                    &mut reader,
                    &mut pop,
                    &Channel::ideal(),
                    &CollectAllConfig::paper(n, m),
                    &mut rng,
                )
                .expect("valid config");
                run.duration.as_micros() as f64
            });
            rows.push(Fig4TimeRow {
                m,
                n,
                collect_all_micros: Summary::from_samples(&samples),
                trp_micros,
            });
        }
    }
    Ok(rows)
}

/// One point of the safety-pad ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PadAblationRow {
    /// Pad added to the Eq. 3 minimum.
    pub pad: u64,
    /// Population size.
    pub n: u64,
    /// Resulting frame size.
    pub frame: u64,
    /// Measured detection against the best-strategy colluders.
    pub detection: Proportion,
}

/// Ablation: how much does the paper's "+5–10 slot" safety pad on the
/// Eq. 3 frame actually buy? Measured detection at pads 0–16, fixed
/// `m = 10`, `c = 20`, over the configured `n` grid.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn pad_ablation(config: &SweepConfig) -> Result<Vec<PadAblationRow>, CoreError> {
    let m = 10u64;
    let mut rows = Vec::new();
    for &pad in &[0u64, 4, 8, 16] {
        for &n in &config.n_values {
            let params = MonitorParams::new(n, m, config.alpha)?;
            let sizing = UtrpSizing {
                sync_budget: config.sync_budget,
                safety_pad: pad,
            };
            let f = utrp_frame_size(&params, sizing)?;
            let seeds = config.cell_seeds(100 + pad, m, n);
            let detected = utrp_detection_cell(n, m, f, config.sync_budget, config.trials, seeds);
            rows.push(PadAblationRow {
                pad,
                n,
                frame: f.get(),
                detection: Proportion::new(detected, config.trials),
            });
        }
    }
    Ok(rows)
}

/// One point of the attacker-budget sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSweepRow {
    /// The attacker's actual sync budget.
    pub attacker_budget: u64,
    /// Population size.
    pub n: u64,
    /// The frame (sized for the *design* budget `c = 20`).
    pub frame: u64,
    /// Measured detection.
    pub detection: Proportion,
}

/// Ablation: the frame is sized for `c = 20`; what happens when the
/// real attacker has more (a faster side channel than the deadline
/// model assumed) or less? Fixed `m = 10`.
///
/// # Errors
///
/// Returns [`CoreError`] when the grid holds an invalid `(n, m, α)`
/// combination or a cell's frame-size search is infeasible.
pub fn budget_sweep(config: &SweepConfig) -> Result<Vec<BudgetSweepRow>, CoreError> {
    let m = 10u64;
    let mut rows = Vec::new();
    for &n in &config.n_values {
        let params = MonitorParams::new(n, m, config.alpha)?;
        let sizing = UtrpSizing {
            sync_budget: config.sync_budget,
            safety_pad: 8,
        };
        let f = utrp_frame_size(&params, sizing)?;
        for &budget in &[0u64, 10, 20, 40, 80, 160] {
            let seeds = config.cell_seeds(200 + budget, m, n);
            let detected = utrp_detection_cell(n, m, f, budget, config.trials, seeds);
            rows.push(BudgetSweepRow {
                attacker_budget: budget,
                n,
                frame: f.get(),
                detection: Proportion::new(detected, config.trials),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            n_values: vec![100, 300],
            m_values: vec![5, 10],
            alpha: 0.95,
            trials: 200,
            collect_trials: 3,
            sync_budget: 20,
            seed: 1,
        }
    }

    #[test]
    fn fig4_shapes_hold_on_tiny_grid() {
        let rows = fig4(&tiny()).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            // TRP must beat collect-all everywhere on the paper's grid.
            assert!(
                (row.trp_slots as f64) < row.collect_all_slots.mean,
                "m={} n={}: trp {} vs collect {}",
                row.m,
                row.n,
                row.trp_slots,
                row.collect_all_slots.mean
            );
        }
        // Larger tolerance shrinks TRP frames for equal n.
        let trp_at = |m: u64, n: u64| {
            rows.iter()
                .find(|r| r.m == m && r.n == n)
                .unwrap()
                .trp_slots
        };
        assert!(trp_at(10, 300) < trp_at(5, 300));
    }

    #[test]
    fn fig5_detection_stays_near_alpha() {
        let rows = fig5(&tiny()).unwrap();
        for row in &rows {
            let (lo, _) = row.detection.wilson_interval(1.96);
            assert!(
                lo > 0.85,
                "m={} n={}: detection {} CI floor {lo}",
                row.m,
                row.n,
                row.detection.rate()
            );
        }
    }

    #[test]
    fn fig6_overhead_is_small_and_nonnegative() {
        let rows = fig6(&tiny()).unwrap();
        for row in &rows {
            assert!(row.utrp_slots >= row.trp_slots, "m={} n={}", row.m, row.n);
            assert!(
                row.utrp_slots < row.trp_slots * 2 + 300,
                "m={} n={}: overhead too large ({} vs {})",
                row.m,
                row.n,
                row.utrp_slots,
                row.trp_slots
            );
        }
    }

    #[test]
    fn fig7_detection_stays_near_alpha() {
        let rows = fig7(&tiny()).unwrap();
        for row in &rows {
            let (lo, _) = row.detection.wilson_interval(1.96);
            assert!(
                lo > 0.85,
                "m={} n={}: detection {} CI floor {lo}",
                row.m,
                row.n,
                row.detection.rate()
            );
        }
    }

    #[test]
    fn sweeps_are_reproducible() {
        let a = fig5(&tiny()).unwrap();
        let b = fig5(&tiny()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn paper_config_matches_the_evaluation_grid() {
        let cfg = SweepConfig::paper();
        assert_eq!(cfg.n_values.len(), 20);
        assert_eq!(cfg.n_values[0], 100);
        assert_eq!(*cfg.n_values.last().unwrap(), 2000);
        assert_eq!(cfg.m_values, vec![5, 10, 20, 30]);
        assert_eq!(cfg.trials, 1000);
        assert_eq!(cfg.sync_budget, 20);
    }

    #[test]
    fn fig4_time_amplifies_the_slot_gap() {
        let mut cfg = tiny();
        cfg.n_values = vec![300];
        cfg.m_values = vec![10];
        let slot_rows = fig4(&cfg).unwrap();
        let time_rows = fig4_time(&cfg).unwrap();
        let slot_ratio = slot_rows[0].trp_slots as f64 / slot_rows[0].collect_all_slots.mean;
        let time_ratio = time_rows[0].trp_micros as f64 / time_rows[0].collect_all_micros.mean;
        // The paper's footnote: in time, collect-all loses even harder
        // than in slots (IDs are 6x presence bursts in the Gen2 model).
        assert!(
            time_ratio < slot_ratio,
            "time ratio {time_ratio} should beat slot ratio {slot_ratio}"
        );
        assert!(time_rows[0].trp_micros > 0);
    }

    #[test]
    fn pad_ablation_pads_never_hurt() {
        let mut cfg = tiny();
        cfg.n_values = vec![300];
        cfg.m_values = vec![10];
        let rows = pad_ablation(&cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let at = |pad: u64| rows.iter().find(|r| r.pad == pad).unwrap();
        // Bigger pads → bigger frames → detection does not degrade
        // (allow Monte-Carlo slack).
        assert!(at(16).frame > at(0).frame);
        assert!(at(16).detection.rate() + 0.05 >= at(0).detection.rate());
    }

    #[test]
    fn budget_sweep_shows_graceful_degradation() {
        let mut cfg = tiny();
        cfg.n_values = vec![300];
        let rows = budget_sweep(&cfg).unwrap();
        let at = |c: u64| rows.iter().find(|r| r.attacker_budget == c).unwrap();
        // An attacker far over the design budget evades more often than
        // one at the design point.
        assert!(
            at(160).detection.rate() < at(20).detection.rate() + 0.02,
            "over-budget attacker should not be easier to catch: {} vs {}",
            at(160).detection.rate(),
            at(20).detection.rate()
        );
        // Everyone shares the same frame (sized for c = 20).
        assert!(rows.iter().all(|r| r.frame == at(20).frame));
    }
}
