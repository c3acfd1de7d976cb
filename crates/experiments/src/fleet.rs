//! Fleet-scale sweep driver: one sweep job is a **chunk of devices**
//! advanced by a single multiplexed event loop (docs/simulator.md).
//!
//! [`run_multiplexed`] is the one chunk runner both the fleet harness
//! ([`run`], `mobicore-fleetsim`) and the tournament
//! (`mobicore_tournament::run`) go through. A job is a contiguous chunk
//! of items run through one [`FleetSim`]:
//!
//! * shared immutable data is hoisted behind `Arc` **once per run** —
//!   the [`DeviceProfile`] (OPP tables, power-model caches) and the
//!   interned sysfs [`PathTable`] are cloned by reference into every
//!   device;
//! * per-item results come back in **submission order** and are
//!   byte-identical to independent one-simulation-per-device runs
//!   (`tests/fleetsim.rs` pins this at 1000 devices against an in-test
//!   reference);
//! * telemetry batches through one sink per chunk: each chunk merges its
//!   devices' [`MetricSet`]s locally ([`MetricSet::merge`]) and the
//!   chunk sets fold in submission order, so last-writer-wins gauges
//!   see the same write order whatever the steal interleaving, while
//!   per-device attribution rides the per-device manifests;
//! * `git describe` runs once per fleet run, not once per manifest.

use crate::runner::ManifestSink;
use mobicore_model::{profiles, DeviceProfile};
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{FleetSim, SimConfig, SimReport, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::MetricSet;
use mobicore_workloads::scenario;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A fleet run description. Defaults mirror `mobicore-fleetsim`'s CLI
/// defaults: 1000 devices in chunks of 32, the >99 %-idle `idle-day`
/// catalog scenario under the MobiCore policy, 60 s per device.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of devices.
    pub devices: usize,
    /// Devices per sweep job (`--fleet-chunk`); clamped to ≥ 1.
    pub chunk: usize,
    /// Scenario name from `mobicore_workloads::scenario::CATALOG`.
    pub scenario: String,
    /// Policy: a `mobicore::registry` name.
    pub policy: String,
    /// Simulated seconds per device.
    pub secs: u64,
    /// Device `i` runs with seed `base_seed + i` — the simulator's, the
    /// scenario's and the policy's.
    pub base_seed: u64,
    /// Per-device manifests land here when set.
    pub manifest_dir: Option<PathBuf>,
    /// Capture each device's event JSONL into its [`DeviceResult`]
    /// (memory-heavy at fleet scale; the byte-identity tests use it).
    pub capture_events: bool,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            devices: 1000,
            chunk: 32,
            scenario: "idle-day".to_string(),
            policy: "mobicore".to_string(),
            secs: 60,
            base_seed: crate::runner::SEED,
            manifest_dir: None,
            capture_events: false,
        }
    }
}

/// One device's outcome, in submission (device-id) order.
#[derive(Debug, Clone)]
pub struct DeviceResult {
    /// Device id (0-based submission index).
    pub device: usize,
    /// The device's seed (`base_seed + device`).
    pub seed: u64,
    /// The device's full report — byte-identical (`Debug`-rendered) to
    /// the same device run on its own.
    pub report: SimReport,
    /// The device's event JSONL when `capture_events` was set.
    pub events_jsonl: Option<String>,
}

/// A whole fleet run: per-device results plus batched telemetry.
#[derive(Debug)]
pub struct FleetOutput {
    /// Per-device outcomes, in device-id order.
    pub results: Vec<DeviceResult>,
    /// Fleet-level telemetry: every device's `MetricSet` merged through
    /// its chunk's sink, plus `fleet.devices` / `fleet.chunks` counters.
    pub telemetry: MetricSet,
    /// Number of chunks the executor ran.
    pub chunks: usize,
    /// Wall-clock seconds for the whole run (builds included).
    pub wall_s: f64,
    /// Simulated device-seconds per wall-second.
    pub device_s_per_wall_s: f64,
}

/// Panics, before any job runs, on a policy name [`mobicore::registry`]
/// does not know or a scenario outside the catalog.
pub fn check_names(profile: &DeviceProfile, policies: &[String], scenarios: &[String]) {
    for s in scenarios {
        assert!(
            scenario::by_name(s, profile, 0).is_some(),
            "unknown scenario {s:?}; catalog: {}",
            scenario::CATALOG.join(", ")
        );
    }
    for p in policies {
        assert!(
            crate::policy::by_name(p, profile, 0).is_some(),
            "unknown policy {p:?}; known: {}",
            mobicore::registry::NAMES.join(", ")
        );
    }
}

/// Builds one closed-loop run on the shared `profile` and `paths`:
/// `policy` under the catalog `scenario` for `secs` simulated seconds,
/// with `seed` feeding the simulator, the scenario and the policy (only
/// `learned` reads it).
///
/// # Panics
///
/// Panics on an unknown name; [`check_names`] validates them up front.
pub fn build_sim(
    profile: &Arc<DeviceProfile>,
    paths: &Arc<PathTable>,
    policy: &str,
    scenario_name: &str,
    secs: u64,
    seed: u64,
) -> Simulation {
    let cfg = SimConfig::new(Arc::clone(profile))
        .with_duration_secs(secs)
        .with_seed(seed)
        .without_mpdecision();
    let p = crate::policy::by_name(policy, profile, seed)
        .unwrap_or_else(|| panic!("unknown policy {policy:?}"));
    let mut sim = Simulation::with_paths(cfg, p, Arc::clone(paths)).expect("run config is valid");
    let day = scenario::by_name(scenario_name, profile, seed)
        .unwrap_or_else(|| panic!("unknown scenario {scenario_name:?}"));
    sim.add_workload(Box::new(day));
    sim
}

/// Runs `items` on the sweep executor (`MOBICORE_JOBS` workers) in
/// contiguous chunks of `chunk` (clamped to ≥ 1), one chunk per job.
///
/// Each job builds its chunk's simulations with `build` on one
/// [`PathTable`] shared by the whole run, multiplexes them through one
/// [`FleetSim`], and reads each finished simulation back with
/// `collect(item, sim, chunk_wall_ms)`. Returns the per-item results in
/// submission order and every simulation's telemetry, merged chunk by
/// chunk and folded in submission order.
pub fn run_multiplexed<T, R>(
    profile: &DeviceProfile,
    items: &[T],
    chunk: usize,
    build: impl Fn(&T, &Arc<PathTable>) -> Simulation + Sync,
    collect: impl Fn(&T, &Simulation, f64) -> R + Sync,
) -> (Vec<R>, MetricSet)
where
    T: Sync,
    R: Send,
{
    let paths = Arc::new(PathTable::new(profile.n_cores()));
    let chunks: Vec<&[T]> = items.chunks(chunk.max(1)).collect();
    let per_chunk = Executor::from_env().run_ordered(chunks, |_, chunk| {
        let mut fleet = FleetSim::with_capacity(chunk.len());
        for item in chunk {
            fleet.add_device(build(item, &paths));
        }
        let wall = Instant::now();
        fleet.run();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let mut metrics = MetricSet::new();
        let mut out = Vec::with_capacity(chunk.len());
        for (item, sim) in chunk.iter().zip(fleet.devices()) {
            metrics.merge(sim.telemetry().metrics());
            out.push(collect(item, sim, wall_ms));
        }
        (out, metrics)
    });
    let mut results = Vec::with_capacity(items.len());
    let mut telemetry = MetricSet::new();
    for (out, metrics) in per_chunk {
        results.extend(out);
        telemetry.merge(&metrics);
    }
    (results, telemetry)
}

/// Runs `spec` through [`run_multiplexed`], one chunk of devices per
/// job, and returns submission-ordered per-device results.
///
/// # Panics
///
/// Panics on an unknown scenario or policy name.
pub fn run(spec: &FleetSpec) -> FleetOutput {
    let profile = Arc::new(profiles::nexus5());
    check_names(
        &profile,
        std::slice::from_ref(&spec.policy),
        std::slice::from_ref(&spec.scenario),
    );
    // One `git describe` subprocess per run; every manifest reuses the
    // string (same repo, same answer).
    let git = spec
        .manifest_dir
        .as_ref()
        .and_then(|_| mobicore_telemetry::git_describe(Path::new(".")));
    let (policy, scenario) = (&spec.policy, &spec.scenario);
    let seed = |d: usize| spec.base_seed + d as u64;
    let devices: Vec<usize> = (0..spec.devices).collect();
    let wall = Instant::now();
    let (results, mut telemetry) = run_multiplexed(
        &profile,
        &devices,
        spec.chunk,
        |&d, paths| build_sim(&profile, paths, policy, scenario, spec.secs, seed(d)),
        |&d, sim, wall_ms| {
            if let Some(dir) = &spec.manifest_dir {
                // Per-device labels keep manifest file names independent
                // of the chunking.
                ManifestSink::new(&format!("fleet-{d:04}"), Some(dir.clone())).emit_with_git(
                    sim,
                    wall_ms,
                    git.clone(),
                );
            }
            DeviceResult {
                device: d,
                seed: seed(d),
                report: sim.report(),
                events_jsonl: spec.capture_events.then(|| sim.events_jsonl()),
            }
        },
    );
    let wall_s = wall.elapsed().as_secs_f64();
    let chunks = spec.devices.div_ceil(spec.chunk.max(1));
    telemetry.inc("fleet.chunks", chunks as u64);
    telemetry.inc("fleet.devices", spec.devices as u64);
    #[allow(clippy::cast_precision_loss)]
    let device_s = (spec.devices as u64 * spec.secs) as f64;
    FleetOutput {
        results,
        telemetry,
        chunks,
        wall_s,
        device_s_per_wall_s: device_s / wall_s.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics_up_front() {
        run(&FleetSpec {
            devices: 2,
            scenario: "no-such-day".to_string(),
            ..FleetSpec::default()
        });
    }
}
