//! Command execution: each CLI command rendered to a `String`.

use tagwatch_analytics::{trp_detection_trial, utrp_detection_cell, Proportion};
use tagwatch_core::math::detection::{detection_probability, EmptySlotModel};
use tagwatch_core::math::utrp::{sync_horizon, utrp_detection_probability};
use tagwatch_core::registry::RegistrySnapshot;
use tagwatch_core::{trp_frame_size, utrp_frame_size, MonitorParams, MonitorServer, UtrpSizing};
use tagwatch_sim::{SeedSequence, TagId};

use crate::parse::{help, CliError, Command};

/// Executes a parsed command, returning its stdout text.
///
/// # Errors
///
/// Returns a user-facing [`CliError`] for invalid parameter
/// combinations (e.g. `m >= n`).
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(help()),
        Command::SizeTrp { n, m, alpha } => {
            let params = params(n, m, alpha)?;
            let f = trp_frame_size(&params).map_err(CliError::new)?;
            let g = detection_probability(n, m + 1, f.get(), EmptySlotModel::Poisson);
            Ok(format!(
                "TRP frame (Eq. 2): {} for n={n}, m={m}, alpha={alpha}\n\
                 detection probability at that frame: {g:.4}\n",
                f
            ))
        }
        Command::SizeUtrp { n, m, alpha, c } => {
            let params = params(n, m, alpha)?;
            let sizing = UtrpSizing {
                sync_budget: c,
                safety_pad: 8,
            };
            let f = utrp_frame_size(&params, sizing).map_err(CliError::new)?;
            let d = utrp_detection_probability(n, m, f.get(), c, EmptySlotModel::Poisson);
            Ok(format!(
                "UTRP frame (Eq. 3 + pad 8): {} for n={n}, m={m}, alpha={alpha}, c={c}\n\
                 sync horizon c' = {:.1} slots; detection at that frame: {d:.4}\n",
                f,
                sync_horizon(n, m, f.get(), c)
            ))
        }
        Command::Detection { n, x, f } => {
            if x > n {
                return Err(CliError::new(format!("x = {x} exceeds n = {n}")));
            }
            if f == 0 {
                return Err(CliError::new("f must be at least 1"));
            }
            let poisson = detection_probability(n, x, f, EmptySlotModel::Poisson);
            let exact = detection_probability(n, x, f, EmptySlotModel::Exact);
            Ok(format!(
                "g({n}, {x}, {f}) = {poisson:.6}  (paper's Poisson form)\n\
                 exact empty-slot model:   {exact:.6}\n"
            ))
        }
        Command::SimulateTrp { n, m, trials, seed } => {
            let params = params(n, m, 0.95)?;
            let f = trp_frame_size(&params).map_err(CliError::new)?;
            let seeds = SeedSequence::new(seed);
            let detected = (0..trials)
                .filter(|&t| trp_detection_trial(n, m, f, seeds.seed_for(t)))
                .count() as u64;
            let p = Proportion::new(detected, trials);
            Ok(format!(
                "TRP simulation: n={n}, steal m+1={}, frame {} (alpha=0.95)\n\
                 detection: {p}\n",
                m + 1,
                f
            ))
        }
        Command::SimulateUtrp {
            n,
            m,
            budget,
            trials,
            seed,
        } => {
            let params = params(n, m, 0.95)?;
            if m + 1 >= n {
                return Err(CliError::new("utrp needs n > m + 1"));
            }
            let sizing = UtrpSizing {
                sync_budget: budget,
                safety_pad: 8,
            };
            let f = utrp_frame_size(&params, sizing).map_err(CliError::new)?;
            let detected = utrp_detection_cell(n, m, f, budget, trials, SeedSequence::new(seed));
            let p = Proportion::new(detected, trials);
            Ok(format!(
                "UTRP simulation: n={n}, colluders steal m+1={}, c={budget}, frame {}\n\
                 detection vs best-strategy colluders: {p}\n",
                m + 1,
                f
            ))
        }
        Command::Identify { n, steal, seed } => {
            use rand::SeedableRng;
            use tagwatch_core::identify::{identify_missing, IdentifyConfig};
            use tagwatch_core::trp::observed_bitstring;
            use tagwatch_sim::TagPopulation;

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut floor = TagPopulation::with_sequential_ids(n as usize);
            let registry = floor.ids();
            let stolen = floor
                .remove_random(steal as usize, &mut rng)
                .map_err(CliError::new)?;
            let present = floor.ids();
            let outcome = identify_missing(
                &registry,
                IdentifyConfig::default(),
                &mut rng,
                |challenge| Ok(observed_bitstring(&present, challenge)),
            )
            .map_err(CliError::new)?;
            let mut found: Vec<String> = outcome.missing.iter().map(ToString::to_string).collect();
            found.sort();
            let mut expected: Vec<String> = stolen.iter().map(|t| t.id().to_string()).collect();
            expected.sort();
            Ok(format!(
                "identification over n={n}, {steal} stolen:\n\
                 rounds: {}, slots: {}, unresolved: {}\n\
                 missing found: {}\n\
                 ground truth:  {}\n\
                 match: {}\n",
                outcome.rounds,
                outcome.slots_used,
                outcome.unresolved.len(),
                found.join(" "),
                expected.join(" "),
                if found == expected {
                    "exact"
                } else {
                    "MISMATCH"
                }
            ))
        }
        Command::Faults(faults) => crate::faults::run_faults(faults),
        Command::Soak(soak) => crate::soak::run_soak_command(soak),
        Command::Recover { path, report } => crate::recover::run_recover_command(&path, report),
        Command::Inspect { path } => crate::inspect::run_inspect(&path),
        Command::InspectDiff { a, b } => crate::inspect::run_inspect_diff(&a, &b),
        Command::RegistryNew { n, m, alpha } => {
            let ids: Vec<TagId> = (1..=n).map(TagId::from).collect();
            let server = MonitorServer::new(ids, m, alpha).map_err(CliError::new)?;
            Ok(server.snapshot().to_text())
        }
        Command::RegistryInfo { text } => {
            let snap = RegistrySnapshot::from_text(&text).map_err(CliError::new)?;
            let max_ct = snap
                .entries
                .iter()
                .map(|(_, ct)| ct.get())
                .max()
                .unwrap_or(0);
            Ok(format!(
                "registry: {} tags, m={}, alpha={}, counters {} (max counter {})\n",
                snap.entries.len(),
                snap.tolerance,
                snap.alpha,
                if snap.counters_synced {
                    "synced"
                } else {
                    "DESYNCED - physical audit required"
                },
                max_ct
            ))
        }
    }
}

fn params(n: u64, m: u64, alpha: f64) -> Result<MonitorParams, CliError> {
    MonitorParams::new(n, m, alpha).map_err(CliError::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_mentions_every_command() {
        let text = run(Command::Help).unwrap();
        for word in [
            "size trp",
            "size utrp",
            "detection",
            "simulate",
            "faults",
            "soak",
            "recover",
            "inspect",
            "inspect diff",
            "--metrics-out",
            "--trace-out",
            "--prom-out",
            "--spans-out",
            "--spans-wall",
            "--wal-out",
            "--crash-at",
            "--policy",
            "registry",
        ] {
            assert!(text.contains(word), "help missing `{word}`");
        }
    }

    #[test]
    fn size_trp_matches_library() {
        let out = run(Command::SizeTrp {
            n: 1000,
            m: 10,
            alpha: 0.95,
        })
        .unwrap();
        let f = trp_frame_size(&MonitorParams::new(1000, 10, 0.95).unwrap()).unwrap();
        assert!(out.contains(&format!("{f}")), "{out}");
    }

    #[test]
    fn size_utrp_reports_horizon() {
        let out = run(Command::SizeUtrp {
            n: 500,
            m: 5,
            alpha: 0.95,
            c: 20,
        })
        .unwrap();
        assert!(out.contains("sync horizon"));
        assert!(out.contains("c=20"));
    }

    #[test]
    fn detection_prints_both_models() {
        let out = run(Command::Detection {
            n: 500,
            x: 6,
            f: 700,
        })
        .unwrap();
        assert!(out.contains("Poisson"));
        assert!(out.contains("exact"));
    }

    #[test]
    fn detection_validates() {
        assert!(run(Command::Detection { n: 5, x: 6, f: 10 }).is_err());
        assert!(run(Command::Detection { n: 5, x: 1, f: 0 }).is_err());
    }

    #[test]
    fn simulate_trp_reports_a_rate_near_alpha() {
        let out = run(Command::SimulateTrp {
            n: 200,
            m: 5,
            trials: 300,
            seed: 1,
        })
        .unwrap();
        // "detection: 0.95xx (…)" — parse the rate back out.
        let rate: f64 = out
            .split("detection: ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(rate > 0.9, "{out}");
    }

    #[test]
    fn simulate_utrp_runs() {
        let out = run(Command::SimulateUtrp {
            n: 150,
            m: 5,
            budget: 20,
            trials: 100,
            seed: 1,
        })
        .unwrap();
        assert!(out.contains("best-strategy colluders"));
    }

    #[test]
    fn identify_recovers_the_stolen_set() {
        let out = run(Command::Identify {
            n: 200,
            steal: 7,
            seed: 3,
        })
        .unwrap();
        assert!(out.contains("match: exact"), "{out}");
        assert!(out.contains("unresolved: 0"), "{out}");
    }

    #[test]
    fn registry_round_trip_through_cli() {
        let snapshot = run(Command::RegistryNew {
            n: 25,
            m: 2,
            alpha: 0.9,
        })
        .unwrap();
        let info = run(Command::RegistryInfo { text: snapshot }).unwrap();
        assert!(info.contains("25 tags"));
        assert!(info.contains("synced"));
    }

    #[test]
    fn invalid_params_surface_as_cli_errors() {
        assert!(run(Command::SizeTrp {
            n: 5,
            m: 5,
            alpha: 0.95
        })
        .is_err());
        assert!(run(Command::SimulateUtrp {
            n: 3,
            m: 2,
            budget: 20,
            trials: 10,
            seed: 1
        })
        .is_err());
    }
}
