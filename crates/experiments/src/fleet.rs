//! Fleet-scale sweep driver: one sweep job is a **chunk of devices**
//! advanced by a single multiplexed event loop (docs/simulator.md).
//!
//! The pre-FleetSim sweep mapped one device run to one executor job —
//! fine for 16-job figure sweeps, wasteful for a 1000-device fleet where
//! every job re-derives the same profile, OPP tables and sysfs path
//! strings, and forks `git describe` per manifest. Here a job is a chunk
//! of `--fleet-chunk` devices run through one [`FleetSim`]:
//!
//! * shared immutable data is hoisted behind `Arc` **once per fleet** —
//!   the [`DeviceProfile`] (OPP tables, power-model caches) and the
//!   interned sysfs [`PathTable`] are cloned by reference into every
//!   device;
//! * per-device reports and manifests come back in **submission order**
//!   and are byte-identical to independent one-job-per-device runs
//!   (`tests/fleetsim.rs` pins this at 1000 devices);
//! * telemetry batches through one sink per chunk: each chunk merges its
//!   devices' [`MetricSet`]s locally ([`MetricSet::merge`]) and folds
//!   into the fleet-level set under a single lock acquisition, while
//!   per-device attribution rides the per-device manifests (each device
//!   keeps its own telemetry, untouched by the batching);
//! * `git describe` runs once per chunk, not once per manifest.
//!
//! [`Mode::Independent`] keeps the old shape — one device per build, own
//! profile, own path table, one `git describe` per manifest — as the
//! baseline fleet mode is compared against (docs/performance.md).

use crate::runner::ManifestSink;
use mobicore_model::{profiles, DeviceProfile};
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{FleetSim, SimConfig, SimReport, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::MetricSet;
use mobicore_workloads::scenario;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the fleet's devices are advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One [`FleetSim`] per chunk multiplexes the chunk's devices
    /// through a single event loop with shared `Arc` data.
    Fleet,
    /// One full simulation per device, each building its own profile
    /// and path table — the pre-FleetSim sweep shape, kept as the
    /// bench baseline.
    Independent,
}

impl Mode {
    /// Parses `fleet` / `independent`.
    pub fn from_name(name: &str) -> Option<Mode> {
        match name {
            "fleet" => Some(Mode::Fleet),
            "independent" => Some(Mode::Independent),
            _ => None,
        }
    }

    /// The wire name (`fleet` / `independent`).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Fleet => "fleet",
            Mode::Independent => "independent",
        }
    }
}

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
    /// Device `i` runs with seed `base_seed + i`.
    pub base_seed: u64,
    /// How devices are advanced.
    pub mode: Mode,
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
            mode: Mode::Fleet,
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
    /// The device's full report — byte-identical (`Debug`-rendered)
    /// between [`Mode::Fleet`] and [`Mode::Independent`].
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

/// Builds the policy named by `spec.policy` for `profile`.
///
/// # Panics
///
/// Panics on a name [`mobicore::registry`] does not know — [`run`]
/// validates names up front so the panic carries the CLI error.
fn build_policy(spec: &FleetSpec, profile: &DeviceProfile) -> Box<dyn mobicore_sim::CpuPolicy> {
    crate::policy::by_name(&spec.policy, profile, crate::runner::SEED)
        .unwrap_or_else(|| panic!("unknown policy {:?}", spec.policy))
}

/// Builds device `device`'s simulation. With `paths` the sim shares the
/// fleet's interned path table; without, it interns its own (the
/// independent baseline).
fn build_device(
    spec: &FleetSpec,
    profile: &Arc<DeviceProfile>,
    paths: Option<&Arc<PathTable>>,
    device: usize,
) -> Simulation {
    let seed = spec.base_seed + device as u64;
    let cfg = SimConfig::new(Arc::clone(profile))
        .with_duration_secs(spec.secs)
        .with_seed(seed)
        .without_mpdecision();
    let policy = build_policy(spec, profile);
    let mut sim = match paths {
        Some(p) => Simulation::with_paths(cfg, policy, Arc::clone(p)),
        None => Simulation::new(cfg, policy),
    }
    .expect("fleet config is valid");
    let day = scenario::by_name(&spec.scenario, profile, seed)
        .unwrap_or_else(|| panic!("unknown scenario {:?}", spec.scenario));
    sim.add_workload(Box::new(day));
    sim
}

/// Collects a finished device into its [`DeviceResult`] and merges its
/// telemetry into the chunk set.
fn collect_device(
    spec: &FleetSpec,
    sim: &Simulation,
    device: usize,
    chunk_metrics: &mut MetricSet,
) -> DeviceResult {
    chunk_metrics.merge(sim.telemetry().metrics());
    DeviceResult {
        device,
        seed: spec.base_seed + device as u64,
        report: sim.report(),
        events_jsonl: spec.capture_events.then(|| sim.events_jsonl()),
    }
}

/// Runs one chunk of devices multiplexed through a single [`FleetSim`].
fn run_chunk_fleet(
    spec: &FleetSpec,
    profile: &Arc<DeviceProfile>,
    paths: &Arc<PathTable>,
    ids: &[usize],
    fleet_metrics: &Mutex<Vec<(usize, MetricSet)>>,
) -> Vec<DeviceResult> {
    let mut fleet = FleetSim::with_capacity(ids.len());
    for &d in ids {
        fleet.add_device(build_device(spec, profile, Some(paths), d));
    }
    let wall = Instant::now();
    fleet.run();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    // One `git describe` subprocess per chunk; every manifest in the
    // chunk reuses the string (byte-identical to per-manifest resolution
    // — same repo, same answer).
    let git = if spec.manifest_dir.is_some() {
        mobicore_telemetry::git_describe(Path::new("."))
    } else {
        None
    };
    let mut chunk_metrics = MetricSet::new();
    let mut out = Vec::with_capacity(ids.len());
    for (sim, &d) in fleet.devices().iter().zip(ids) {
        out.push(collect_device(spec, sim, d, &mut chunk_metrics));
        if let Some(dir) = &spec.manifest_dir {
            // Per-device labels make manifest file names identical to
            // the independent mode's, whatever the chunking.
            ManifestSink::new(&format!("fleet-{d:04}"), Some(dir.clone())).emit_with_git(
                sim,
                wall_ms,
                git.clone(),
            );
        }
    }
    fold_chunk(ids[0], ids.len(), chunk_metrics, fleet_metrics);
    out
}

/// Runs one chunk's devices as fully independent simulations — each
/// builds its own profile and path table and resolves git per manifest.
fn run_chunk_independent(
    spec: &FleetSpec,
    ids: &[usize],
    fleet_metrics: &Mutex<Vec<(usize, MetricSet)>>,
) -> Vec<DeviceResult> {
    let mut chunk_metrics = MetricSet::new();
    let mut out = Vec::with_capacity(ids.len());
    for &d in ids {
        let profile = Arc::new(profiles::nexus5());
        let mut sim = build_device(spec, &profile, None, d);
        let wall = Instant::now();
        sim.run();
        out.push(collect_device(spec, &sim, d, &mut chunk_metrics));
        if let Some(dir) = &spec.manifest_dir {
            ManifestSink::new(&format!("fleet-{d:04}"), Some(dir.clone()))
                .emit(&sim, wall.elapsed().as_secs_f64() * 1e3);
        }
    }
    fold_chunk(ids[0], ids.len(), chunk_metrics, fleet_metrics);
    out
}

/// Stamps the chunk counters and parks the chunk's batched telemetry
/// for ordered folding — one lock acquisition per chunk, not per
/// device. Chunks land keyed by their first device id and are merged in
/// that order after the executor drains, so last-writer-wins gauges see
/// the same write order whatever the steal interleaving.
fn fold_chunk(
    first: usize,
    n_devices: usize,
    mut chunk_metrics: MetricSet,
    fleet_metrics: &Mutex<Vec<(usize, MetricSet)>>,
) {
    chunk_metrics.inc("fleet.chunks", 1);
    chunk_metrics.inc("fleet.devices", n_devices as u64);
    fleet_metrics
        .lock()
        .expect("fleet metrics lock")
        .push((first, chunk_metrics));
}

/// Runs `spec` on the sweep executor (`MOBICORE_JOBS` workers), one
/// chunk per job, and returns submission-ordered per-device results.
///
/// # Panics
///
/// Panics on an unknown scenario or policy name.
pub fn run(spec: &FleetSpec) -> FleetOutput {
    let profile = Arc::new(profiles::nexus5());
    // Validate names once, before any job runs.
    assert!(
        scenario::by_name(&spec.scenario, &profile, 0).is_some(),
        "unknown scenario {:?}; catalog: {}",
        spec.scenario,
        scenario::CATALOG.join(", ")
    );
    drop(build_policy(spec, &profile));
    let paths = Arc::new(PathTable::new(profile.n_cores()));
    let chunk = spec.chunk.max(1);
    let chunks = spec.devices.div_ceil(chunk);
    let fleet_metrics = Mutex::new(Vec::with_capacity(chunks));
    let exec = Executor::from_env();
    let wall = Instant::now();
    let results = exec.run_chunked(
        (0..spec.devices).collect(),
        chunk,
        |_first, ids| match spec.mode {
            Mode::Fleet => run_chunk_fleet(spec, &profile, &paths, &ids, &fleet_metrics),
            Mode::Independent => run_chunk_independent(spec, &ids, &fleet_metrics),
        },
    );
    let wall_s = wall.elapsed().as_secs_f64();
    let mut chunk_sets = fleet_metrics
        .into_inner()
        .expect("fleet metrics lock was never poisoned");
    chunk_sets.sort_by_key(|&(first, _)| first);
    let mut telemetry = MetricSet::new();
    for (_, set) in &chunk_sets {
        telemetry.merge(set);
    }
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

    fn tiny_spec(mode: Mode) -> FleetSpec {
        FleetSpec {
            devices: 5,
            chunk: 2,
            scenario: "mixed-day-mini".to_string(),
            policy: "ondemand".to_string(),
            secs: 1,
            base_seed: 7,
            mode,
            manifest_dir: None,
            capture_events: true,
        }
    }

    #[test]
    fn fleet_and_independent_modes_agree_on_a_tiny_fleet() {
        let fleet = run(&tiny_spec(Mode::Fleet));
        let indep = run(&tiny_spec(Mode::Independent));
        assert_eq!(fleet.results.len(), 5);
        assert_eq!(fleet.chunks, 3);
        for (a, b) in fleet.results.iter().zip(&indep.results) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "device {} report differs between modes",
                a.device
            );
            assert_eq!(a.events_jsonl, b.events_jsonl);
        }
        // The batched chunk sinks merge to identical fleet telemetry.
        assert_eq!(fleet.telemetry.counter("fleet.devices"), Some(5));
        assert_eq!(fleet.telemetry.counter("fleet.chunks"), Some(3));
        assert_eq!(indep.telemetry.counter("fleet.devices"), Some(5));
        let strip = |m: &MetricSet| {
            let mut r = m.rollups();
            r.remove("fleet.chunks");
            r
        };
        assert_eq!(strip(&fleet.telemetry), strip(&indep.telemetry));
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [Mode::Fleet, Mode::Independent] {
            assert_eq!(Mode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(Mode::from_name("warp"), None);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics_up_front() {
        let spec = FleetSpec {
            scenario: "no-such-day".to_string(),
            ..tiny_spec(Mode::Fleet)
        };
        run(&spec);
    }
}
