//! Loopback determinism (ISSUE 5 satellite): one scenario run through
//! `mobicore-serve` on 127.0.0.1 must produce the **identical**
//! decision stream as an in-process `Simulation` — same report, same
//! telemetry event stream, byte-identical manifest. Mirrors the
//! sequential-vs-parallel guarantee of `determinism.rs` across the
//! network boundary.

use mobicore_serve::{RemotePolicy, ServeConfig, Server};
use mobicore_sim::{CpuPolicy, SimConfig, Simulation};
use mobicore_workloads::scenario;
use std::time::Duration;

/// Runs `scenario_name` for `secs` simulated seconds under `policy`,
/// returning (report debug, events JSONL, manifest JSON).
fn run_sim(policy: Box<dyn CpuPolicy>, scenario_name: &str, secs: u64) -> (String, String, String) {
    let profile = mobicore_model::profiles::nexus5();
    let workload = scenario::by_name(scenario_name, &profile, 7).expect("scenario exists");
    let cfg = SimConfig::new(profile)
        .with_duration_secs(secs)
        .with_seed(7);
    let mut sim = Simulation::new(cfg, policy).expect("config valid");
    sim.add_workload(Box::new(workload));
    let report = sim.run();
    (
        format!("{report:?}"),
        sim.events_jsonl(),
        sim.manifest("serve-det").to_json_text(),
    )
}

fn assert_remote_equals_local(policy_name: &str, scenario_name: &str, secs: u64) {
    assert_remote_equals_local_with_window(policy_name, scenario_name, secs, 1);
}

fn assert_remote_equals_local_with_window(
    policy_name: &str,
    scenario_name: &str,
    secs: u64,
    window: usize,
) {
    let profile = mobicore_model::profiles::nexus5();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default().with_drain_deadline(Duration::from_secs(2)),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let local = mobicore_serve::registry::build_policy(policy_name, &profile)
        .expect("policy exists locally");
    let (local_report, local_events, local_manifest) = run_sim(local, scenario_name, secs);

    let remote = RemotePolicy::connect(&addr, policy_name, "nexus5", 7)
        .expect("connect")
        .with_window(window);
    assert_eq!(
        remote.name(),
        policy_name,
        "HelloAck must carry the resolved name"
    );
    let (remote_report, remote_events, remote_manifest) =
        run_sim(Box::new(remote), scenario_name, secs);

    assert_eq!(
        local_report, remote_report,
        "{policy_name}/{scenario_name}: remote report differs from in-process"
    );
    assert_eq!(
        local_events, remote_events,
        "{policy_name}/{scenario_name}: remote event stream differs from in-process"
    );
    assert_eq!(
        local_manifest, remote_manifest,
        "{policy_name}/{scenario_name}: remote manifest differs from in-process"
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert!(
        stats.decisions > 0,
        "the remote run must actually have used the wire"
    );
}

#[test]
fn mobicore_over_loopback_matches_in_process() {
    assert_remote_equals_local("mobicore", "mixed-day-mini", 3);
}

#[test]
fn stock_governor_over_loopback_matches_in_process() {
    // A different policy family: the stock Android stack attaches its
    // own telemetry notes, which must survive the wire round-trip too.
    assert_remote_equals_local("android-default", "mixed-day-mini", 2);
}

#[test]
fn pipelined_window_over_loopback_matches_in_process() {
    // A pipelining window > 1 changes frame batching (corked writes,
    // coalesced flushes) but must not change a single decision byte.
    assert_remote_equals_local_with_window("mobicore", "mixed-day-mini", 2, 4);
}

/// The remote and in-process runs of `policy_name` under `seed` — the
/// remote one over `addr`, the local one built the way the server
/// resolves a Hello carrying that seed.
fn seeded_runs(
    addr: &str,
    policy_name: &str,
    seed: u64,
) -> ((String, String, String), (String, String, String)) {
    let profile = mobicore_model::profiles::nexus5();
    let local = mobicore_serve::registry::build_policy_seeded(policy_name, &profile, seed)
        .expect("policy exists locally");
    let local_name = local.name().to_string();
    let local_run = run_sim(local, "mixed-day-mini", 2);
    let remote = RemotePolicy::connect(addr, policy_name, "nexus5", seed).expect("connect");
    assert_eq!(
        remote.name(),
        local_name,
        "HelloAck must carry the resolved name"
    );
    (local_run, run_sim(Box::new(remote), "mixed-day-mini", 2))
}

#[test]
fn every_registered_policy_honours_the_client_seed_over_loopback() {
    const SEEDS: [u64; 2] = [7, 20_170_315];
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default().with_drain_deadline(Duration::from_secs(2)),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    for name in mobicore_serve::registry::policy_names() {
        let mut local_reports = Vec::new();
        for seed in SEEDS {
            let (local, remote) = seeded_runs(&addr, name, seed);
            assert_eq!(
                local.0, remote.0,
                "{name}/seed {seed}: remote report differs from in-process"
            );
            assert_eq!(
                local.1, remote.1,
                "{name}/seed {seed}: remote event stream differs from in-process"
            );
            assert_eq!(
                local.2, remote.2,
                "{name}/seed {seed}: remote manifest differs from in-process"
            );
            local_reports.push(local.0);
        }
        if name == "learned" {
            // Otherwise the check above could not tell a dropped seed
            // from an honoured one.
            assert_ne!(
                local_reports[0], local_reports[1],
                "learned must explore differently under different seeds"
            );
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    let runs = mobicore_serve::registry::policy_names().len() * SEEDS.len();
    assert_eq!(stats.sessions, runs as u64, "one session per remote run");
}
