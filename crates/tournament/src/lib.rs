//! # mobicore-tournament
//!
//! Races every CPU policy against every catalog scenario and ranks the
//! field on an energy-vs-performance Pareto leaderboard
//! (docs/tournament.md).
//!
//! A tournament is a `policies × scenarios × seeds` fan-out: each
//! (policy, scenario) **cell** runs once per seed, each run is a full
//! closed-loop simulation, and the per-run `(energy, executed cycles,
//! QoS violations)` triples are aggregated into one
//! [`Leaderboard`] entry per policy. The fan-out rides the sweep
//! executor — one cell per chunk, so a cell's seeds share one job — and
//! idle-heavy cells multiplex their seeds through a single [`FleetSim`]
//! event loop instead of running them back-to-back (the same
//! byte-identical multiplexing the fleet harness uses; docs/simulator.md).
//!
//! Everything downstream of the simulations is pure deterministic
//! arithmetic over submission-ordered results, so the leaderboard —
//! including its serialized bytes — is identical whatever
//! `MOBICORE_JOBS` says (`tests/tournament.rs` pins `--jobs 1` against
//! `--jobs 8`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use mobicore_experiments::policy;
use mobicore_model::{profiles, DeviceProfile};
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{FleetSim, SimConfig, SimReport, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::{Leaderboard, LeaderboardEntry, MetricSet, PolicyStats};
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to race. Defaults mirror the ISSUE's acceptance shape: every
/// policy [`policy::names`] knows, the full scenario catalog, five
/// seeds starting at the experiments seed, 60 s per run.
#[derive(Debug, Clone)]
pub struct TournamentSpec {
    /// Free-form tournament name (lands in the leaderboard).
    pub name: String,
    /// Policy wire names (`mobicore::registry`; defaults to its `ARENA`).
    pub policies: Vec<String>,
    /// Scenario names from `mobicore_workloads::scenario::CATALOG`.
    pub scenarios: Vec<String>,
    /// Seeds raced per (policy, scenario) cell. Seed `s` feeds both the
    /// simulator RNG and the `learned` governor's exploration RNG.
    pub seeds: Vec<u64>,
    /// Simulated seconds per run.
    pub secs: u64,
}

impl Default for TournamentSpec {
    fn default() -> Self {
        let base = mobicore_experiments::runner::SEED;
        TournamentSpec {
            name: "full-catalog".to_string(),
            policies: policy::names().iter().map(|s| s.to_string()).collect(),
            scenarios: scenario::CATALOG.iter().map(|s| s.to_string()).collect(),
            seeds: (base..base + 5).collect(),
            secs: 60,
        }
    }
}

/// One (policy, scenario, seed) run's scoreboard contribution.
#[derive(Debug, Clone)]
struct RunStat {
    energy_mj: f64,
    perf_gcycles: f64,
    qos_violations: u64,
}

/// A finished tournament: the leaderboard plus run-level accounting.
#[derive(Debug)]
pub struct TournamentOutput {
    /// The ranked, Pareto-marked leaderboard (already finalized).
    pub leaderboard: Leaderboard,
    /// Merged telemetry of every run, plus `tournament.runs` /
    /// `tournament.cells` counters.
    pub telemetry: MetricSet,
    /// Total (policy, scenario, seed) runs executed.
    pub runs: usize,
    /// Wall-clock seconds for the whole tournament.
    pub wall_s: f64,
    /// Runs per wall-second.
    pub runs_per_s: f64,
}

/// Sums a report's QoS violations: every workload metric named
/// `deadline_misses` or `jank_frames`, whichever workloads the scenario
/// happened to schedule.
fn qos_violations(report: &SimReport) -> u64 {
    let mut total = 0.0;
    for w in &report.workloads {
        for m in &w.metrics {
            if m.name == "deadline_misses" || m.name == "jank_frames" {
                total += m.value;
            }
        }
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        total.round() as u64
    }
}

/// Builds one run's simulation: the cell's policy under the cell's
/// scenario, seeded with the run's seed.
fn build_run(
    spec: &TournamentSpec,
    profile: &Arc<DeviceProfile>,
    paths: &Arc<PathTable>,
    policy_name: &str,
    scenario_name: &str,
    seed: u64,
) -> Simulation {
    let cfg = SimConfig::new(Arc::clone(profile))
        .with_duration_secs(spec.secs)
        .with_seed(seed)
        .without_mpdecision();
    let p = policy::by_name(policy_name, profile, seed)
        .unwrap_or_else(|| panic!("unknown policy {policy_name:?}"));
    let mut sim =
        Simulation::with_paths(cfg, p, Arc::clone(paths)).expect("tournament config is valid");
    let day = scenario::by_name(scenario_name, profile, seed)
        .unwrap_or_else(|| panic!("unknown scenario {scenario_name:?}"));
    sim.add_workload(Box::new(day));
    sim
}

/// Runs one (policy, scenario) cell — every seed — and parks its batched
/// telemetry for ordered folding, one lock acquisition per cell.
///
/// The `idle-day` cell multiplexes its seeds through one [`FleetSim`]
/// event loop (>99 % idle means the loop is almost all fast-forward);
/// every other cell runs its seeds back-to-back. Both paths produce
/// byte-identical reports, so this is purely a wall-clock choice.
fn run_cell(
    spec: &TournamentSpec,
    profile: &Arc<DeviceProfile>,
    paths: &Arc<PathTable>,
    first: usize,
    policy_name: &str,
    scenario_name: &str,
    cell_metrics: &Mutex<Vec<(usize, MetricSet)>>,
) -> Vec<RunStat> {
    let mut sims: Vec<Simulation> = spec
        .seeds
        .iter()
        .map(|&seed| build_run(spec, profile, paths, policy_name, scenario_name, seed))
        .collect();
    if scenario_name == "idle-day" {
        let mut fleet = FleetSim::with_capacity(sims.len());
        for sim in sims {
            fleet.add_device(sim);
        }
        fleet.run();
        sims = fleet.into_devices();
    } else {
        for sim in &mut sims {
            sim.run();
        }
    }
    let mut metrics = MetricSet::new();
    let mut out = Vec::with_capacity(sims.len());
    for sim in &sims {
        metrics.merge(sim.telemetry().metrics());
        let report = sim.report();
        out.push(RunStat {
            energy_mj: report.energy_mj,
            #[allow(clippy::cast_precision_loss)]
            perf_gcycles: report.executed_cycles as f64 / 1e9,
            qos_violations: qos_violations(&report),
        });
    }
    metrics.inc("tournament.cells", 1);
    metrics.inc("tournament.runs", out.len() as u64);
    cell_metrics
        .lock()
        .expect("tournament metrics lock")
        .push((first, metrics));
    out
}

/// Mean-energy / mean-perf / total-QoS aggregate of a slice of runs.
fn aggregate(stats: &[&RunStat]) -> PolicyStats {
    #[allow(clippy::cast_precision_loss)]
    let n = stats.len().max(1) as f64;
    PolicyStats {
        energy_mj: stats.iter().map(|s| s.energy_mj).sum::<f64>() / n,
        perf_gcycles: stats.iter().map(|s| s.perf_gcycles).sum::<f64>() / n,
        qos_violations: stats.iter().map(|s| s.qos_violations).sum(),
        runs: stats.len() as u64,
    }
}

/// Runs `spec` on the sweep executor (`MOBICORE_JOBS` workers), one
/// (policy, scenario) cell per job, and returns the finalized
/// leaderboard.
///
/// # Panics
///
/// Panics on an unknown policy or scenario name, or an empty seed list
/// (validated up front, before any job runs).
pub fn run(spec: &TournamentSpec) -> TournamentOutput {
    let profile = Arc::new(profiles::nexus5());
    assert!(!spec.seeds.is_empty(), "tournament needs at least one seed");
    for s in &spec.scenarios {
        assert!(
            scenario::by_name(s, &profile, 0).is_some(),
            "unknown scenario {s:?}; catalog: {}",
            scenario::CATALOG.join(", ")
        );
    }
    for p in &spec.policies {
        assert!(
            policy::by_name(p, &profile, 0).is_some(),
            "unknown policy {p:?}; known: {}",
            policy::names().join(", ")
        );
    }
    let paths = Arc::new(PathTable::new(profile.n_cores()));
    // Cell-major item list: every seed of a cell lands in one chunk.
    let cells: Vec<(usize, usize)> = (0..spec.policies.len())
        .flat_map(|p| (0..spec.scenarios.len()).map(move |s| (p, s)))
        .collect();
    let items: Vec<(usize, usize)> = cells
        .iter()
        .flat_map(|&cell| std::iter::repeat_n(cell, spec.seeds.len()))
        .collect();
    let cell_metrics = Mutex::new(Vec::with_capacity(cells.len()));
    let exec = Executor::from_env();
    let wall = Instant::now();
    let results: Vec<RunStat> = exec.run_chunked(items, spec.seeds.len(), |first, chunk| {
        let (p, s) = chunk[0];
        run_cell(
            spec,
            &profile,
            &paths,
            first,
            &spec.policies[p],
            &spec.scenarios[s],
            &cell_metrics,
        )
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut cell_sets = cell_metrics
        .into_inner()
        .expect("tournament metrics lock was never poisoned");
    cell_sets.sort_by_key(|&(first, _)| first);
    let mut telemetry = MetricSet::new();
    for (_, set) in &cell_sets {
        telemetry.merge(set);
    }
    // Results come back in submission order: policy-major, then
    // scenario, then seed. Slice them back into per-policy rows.
    let runs_per_policy = spec.scenarios.len() * spec.seeds.len();
    let mut entries = Vec::with_capacity(spec.policies.len());
    for (p, name) in spec.policies.iter().enumerate() {
        let mine = &results[p * runs_per_policy..(p + 1) * runs_per_policy];
        let mut scenarios = BTreeMap::new();
        for (s, scen) in spec.scenarios.iter().enumerate() {
            let cell: Vec<&RunStat> = mine[s * spec.seeds.len()..(s + 1) * spec.seeds.len()]
                .iter()
                .collect();
            scenarios.insert(scen.clone(), aggregate(&cell));
        }
        entries.push(LeaderboardEntry {
            policy: name.clone(),
            rank: 0,
            pareto: false,
            overall: aggregate(&mine.iter().collect::<Vec<_>>()),
            scenarios,
        });
    }
    let mut leaderboard = Leaderboard {
        name: spec.name.clone(),
        profile: profile.name().to_string(),
        duration_us: spec.secs * 1_000_000,
        scenarios: spec.scenarios.clone(),
        seeds: spec.seeds.clone(),
        git: None,
        created_unix_ms: None,
        wall_ms: None,
        entries,
    };
    leaderboard.finalize();
    let runs = spec.policies.len() * runs_per_policy;
    #[allow(clippy::cast_precision_loss)]
    let runs_per_s = runs as f64 / wall_s.max(1e-9);
    TournamentOutput {
        leaderboard,
        telemetry,
        runs,
        wall_s,
        runs_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TournamentSpec {
        TournamentSpec {
            name: "tiny".to_string(),
            policies: vec!["ondemand".to_string(), "learned".to_string()],
            scenarios: vec!["mixed-day-mini".to_string(), "idle-day".to_string()],
            seeds: vec![3, 4],
            secs: 2,
        }
    }

    #[test]
    fn tiny_tournament_fills_the_leaderboard() {
        let out = run(&tiny_spec());
        assert_eq!(out.runs, 8);
        let lb = &out.leaderboard;
        assert_eq!(lb.entries.len(), 2);
        assert!(!lb.pareto_frontier().is_empty(), "frontier is never empty");
        for (i, e) in lb.entries.iter().enumerate() {
            assert_eq!(e.rank, i as u64 + 1);
            assert_eq!(e.overall.runs, 4);
            assert_eq!(e.scenarios.len(), 2);
            assert!(e.overall.energy_mj > 0.0);
            assert!(e.overall.perf_gcycles > 0.0);
        }
        assert_eq!(out.telemetry.counter("tournament.runs"), Some(8));
        assert_eq!(out.telemetry.counter("tournament.cells"), Some(4));
    }

    #[test]
    fn leaderboard_round_trips_through_json() {
        let lb = run(&tiny_spec()).leaderboard;
        let back = Leaderboard::from_json_text(&lb.to_json_text()).unwrap();
        assert_eq!(back, lb);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics_up_front() {
        let spec = TournamentSpec {
            policies: vec!["warp-drive".to_string()],
            ..tiny_spec()
        };
        run(&spec);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics_up_front() {
        let spec = TournamentSpec {
            scenarios: vec!["no-such-day".to_string()],
            ..tiny_spec()
        };
        run(&spec);
    }
}
