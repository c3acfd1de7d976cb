//! FleetSim byte-identity at fleet scale: a multiplexed 1000-device run
//! must produce per-device reports, event streams and manifests
//! byte-identical to 1000 independent per-device runs, in submission
//! order — the same bar the event engine meets against the cyclic loop
//! and `--jobs N` meets against `--jobs 1`. The independent runs are
//! built here, as a reference, not by the fleet driver under test.
//!
//! Also the `mobicore-fleetsim` binary end to end: usage errors exit 2
//! and a small default run exits 0.

use mobicore_experiments::fleet::{run, DeviceResult, FleetOutput, FleetSpec};
use mobicore_experiments::runner::ManifestSink;
use mobicore_model::profiles;
use mobicore_sim::{SimConfig, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::{MetricSet, RunManifest};
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Instant;

fn spec(devices: usize, chunk: usize) -> FleetSpec {
    FleetSpec {
        devices,
        chunk,
        scenario: "idle-day".to_string(),
        policy: "mobicore".to_string(),
        secs: 1,
        base_seed: 20_170_315,
        manifest_dir: None,
        capture_events: true,
    }
}

/// Runs one device on its own, the pre-FleetSim way: its own profile,
/// its own interned path table (`Simulation::new`), its own loop, and
/// its own `git describe` per manifest (`ManifestSink::emit`). `seed`
/// feeds the simulator, the scenario and the policy.
fn standalone(spec: &FleetSpec, device: usize) -> Simulation {
    let seed = spec.base_seed + device as u64;
    let profile = Arc::new(profiles::nexus5());
    let cfg = SimConfig::new(Arc::clone(&profile))
        .with_duration_secs(spec.secs)
        .with_seed(seed)
        .without_mpdecision();
    let policy = mobicore::registry::build(&spec.policy, &profile, seed).expect("known policy");
    let mut sim = Simulation::new(cfg, policy).expect("valid config");
    let day = scenario::by_name(&spec.scenario, &profile, seed).expect("known scenario");
    sim.add_workload(Box::new(day));
    let wall = Instant::now();
    sim.run();
    if let Some(dir) = &spec.manifest_dir {
        ManifestSink::new(&format!("fleet-{device:04}"), Some(dir.clone()))
            .emit(&sim, wall.elapsed().as_secs_f64() * 1e3);
    }
    sim
}

/// The independent reference for `spec`: every device a [`standalone`]
/// run, on the sweep executor. Telemetry merges per chunk of
/// `spec.chunk` devices and folds in order, as the fleet's does, so
/// histogram sums add up in the same float order; it counts
/// `fleet.devices` but not `fleet.chunks`.
fn reference(spec: &FleetSpec) -> (Vec<DeviceResult>, MetricSet) {
    let ids: Vec<usize> = (0..spec.devices).collect();
    let chunks: Vec<&[usize]> = ids.chunks(spec.chunk.max(1)).collect();
    let per_chunk = Executor::from_env().run_ordered(chunks, |_, ids| {
        let mut metrics = MetricSet::new();
        let mut results = Vec::with_capacity(ids.len());
        for &d in ids {
            let sim = standalone(spec, d);
            metrics.merge(sim.telemetry().metrics());
            metrics.inc("fleet.devices", 1);
            results.push(DeviceResult {
                device: d,
                seed: spec.base_seed + d as u64,
                report: sim.report(),
                events_jsonl: spec.capture_events.then(|| sim.events_jsonl()),
            });
        }
        (results, metrics)
    });
    let mut results = Vec::with_capacity(spec.devices);
    let mut telemetry = MetricSet::new();
    for (r, m) in per_chunk {
        results.extend(r);
        telemetry.merge(&m);
    }
    (results, telemetry)
}

/// Asserts the fleet's per-device results equal the reference's, in
/// submission order, byte for byte.
fn assert_same_results(fleet: &[DeviceResult], reference: &[DeviceResult]) {
    assert_eq!(fleet.len(), reference.len());
    for (a, b) in fleet.iter().zip(reference) {
        assert_eq!(a.device, b.device, "submission order preserved");
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            format!("{:?}", a.report),
            format!("{:?}", b.report),
            "device {} report differs between multiplexed and independent runs",
            a.device
        );
        assert_eq!(
            a.events_jsonl, b.events_jsonl,
            "device {} event stream differs",
            a.device
        );
    }
}

#[test]
fn multiplexed_1000_devices_match_independent_runs() {
    let spec = spec(1000, 64);
    let fleet = run(&spec);
    let (indep, _) = reference(&spec);
    assert_eq!(fleet.results.len(), 1000);
    assert_same_results(&fleet.results, &indep);
    // Batched chunk telemetry attributes every device exactly once.
    assert_eq!(fleet.telemetry.counter("fleet.devices"), Some(1000));
    assert_eq!(fleet.telemetry.counter("fleet.chunks"), Some(16));
}

#[test]
fn tiny_fleet_matches_independent_runs_and_telemetry() {
    let spec = FleetSpec {
        devices: 5,
        chunk: 2,
        scenario: "mixed-day-mini".to_string(),
        policy: "ondemand".to_string(),
        base_seed: 7,
        ..spec(5, 2)
    };
    let FleetOutput {
        results,
        telemetry,
        chunks,
        ..
    } = run(&spec);
    let (indep, indep_telemetry) = reference(&spec);
    assert_eq!(results.len(), 5);
    assert_eq!(chunks, 3);
    assert_same_results(&results, &indep);
    // The batched chunk sinks merge to the same telemetry.
    assert_eq!(telemetry.counter("fleet.devices"), Some(5));
    assert_eq!(telemetry.counter("fleet.chunks"), Some(3));
    assert_eq!(indep_telemetry.counter("fleet.devices"), Some(5));
    let mut rollups = telemetry.rollups();
    rollups.remove("fleet.chunks");
    assert_eq!(rollups, indep_telemetry.rollups());
}

#[test]
fn learned_devices_are_seeded_with_their_device_seed() {
    let at = |base_seed| FleetSpec {
        scenario: "mixed-day".to_string(),
        policy: "learned".to_string(),
        secs: 2,
        base_seed,
        capture_events: false,
        ..spec(2, 2)
    };
    let one = run(&at(1));
    let two = run(&at(2));
    assert_ne!(
        format!("{:?}", one.results[0].report),
        format!("{:?}", two.results[0].report),
        "the learner's exploration must follow the fleet seed"
    );
    for spec in [at(1), at(2)] {
        assert_same_results(&run(&spec).results, &reference(&spec).0);
    }
}

/// Reads every manifest under `dir`, strips the wall-clock stamps, and
/// returns `file name → canonical JSON` for byte-level comparison.
fn normalized_manifests(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("manifest dir exists")
        .filter_map(Result::ok)
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(e.path()).expect("manifest readable");
            let mut m = RunManifest::from_json_text(&text).expect("manifest parses");
            assert!(m.wall_ms.is_some(), "{name}: wall clock stamped");
            assert!(m.created_unix_ms.is_some(), "{name}: creation time stamped");
            m.wall_ms = None;
            m.created_unix_ms = None;
            (name, m.to_json_text())
        })
        .collect()
}

#[test]
fn fleet_manifests_are_byte_identical_to_independent_ones() {
    // Smaller fleet with sinks enabled: the reference forks
    // `git describe` per manifest, so 48 devices keeps the test quick
    // while still spanning several chunks.
    let base = std::env::temp_dir().join("mobicore-fleetsim-manifest-test");
    let fleet_dir = base.join("fleet");
    let indep_dir = base.join("independent");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&fleet_dir).expect("create fleet dir");
    std::fs::create_dir_all(&indep_dir).expect("create independent dir");

    let mut fleet_spec = spec(48, 16);
    fleet_spec.manifest_dir = Some(fleet_dir.clone());
    let mut indep_spec = spec(48, 16);
    indep_spec.manifest_dir = Some(indep_dir.clone());
    run(&fleet_spec);
    reference(&indep_spec);

    let fleet_m = normalized_manifests(&fleet_dir);
    let indep_m = normalized_manifests(&indep_dir);
    assert_eq!(fleet_m.len(), 48, "one manifest per device");
    assert_eq!(
        fleet_m.keys().collect::<Vec<_>>(),
        indep_m.keys().collect::<Vec<_>>(),
        "manifest file names independent of chunking"
    );
    for (name, body) in &fleet_m {
        assert_eq!(
            body, &indep_m[name],
            "manifest {name} differs between fleet and independent runs"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

fn fleetsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mobicore-fleetsim"))
        .args(args)
        .output()
        .expect("mobicore-fleetsim runs")
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["--policy", "bogus"][..],
        &["--mode", "independent"],
        &["--scenario", "no-such-day"],
        &["--devices"],
        &["--frobnicate", "1"],
    ] {
        let out = fleetsim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains("learned"), "lists policies: {stderr}");
    }
}

#[test]
fn small_default_run_exits_0() {
    let out = fleetsim(&["--devices", "3", "--secs", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("devices 3  chunks 1"), "{text}");
    assert!(text.contains("fleet.devices = 3"), "{text}");
}
