//! Bit-for-bit reproducibility: every simulation is a pure function of
//! its `SimConfig` (DESIGN.md §7).

use mobicore::MobiCore;
use mobicore_governors::AndroidDefaultPolicy;
use mobicore_model::profiles;
use mobicore_sim::{CpuPolicy, SimConfig, SimReport, Simulation, TraceLevel};
use mobicore_workloads::{GameApp, GameProfile, GeekBenchApp};

fn game_run(seed: u64, mobicore: bool) -> SimReport {
    let profile = profiles::nexus5();
    let policy: Box<dyn CpuPolicy> = if mobicore {
        Box::new(MobiCore::new(&profile))
    } else {
        Box::new(AndroidDefaultPolicy::new(&profile))
    };
    let cfg = SimConfig::new(profile)
        .with_duration_secs(8)
        .with_seed(seed)
        .with_trace(TraceLevel::Full)
        .without_mpdecision();
    let mut sim = Simulation::new(cfg, policy).unwrap();
    sim.add_workload(Box::new(GameApp::new(GameProfile::subway_surf(), seed)));
    sim.run()
}

#[test]
fn identical_configs_produce_identical_runs() {
    let a = game_run(42, true);
    let b = game_run(42, true);
    assert_eq!(a.avg_power_mw, b.avg_power_mw);
    assert_eq!(a.executed_cycles, b.executed_cycles);
    assert_eq!(a.energy_mj, b.energy_mj);
    assert_eq!(a.avg_khz_online, b.avg_khz_online);
    assert_eq!(a.trace, b.trace, "full traces are bit-identical");
    assert_eq!(a.first_metric("avg_fps"), b.first_metric("avg_fps"));
}

#[test]
fn different_seeds_differ() {
    let a = game_run(1, true);
    let b = game_run(2, true);
    // Frame noise and scene changes differ: executed work must differ.
    assert_ne!(a.executed_cycles, b.executed_cycles);
}

#[test]
fn policies_share_the_same_workload_stream() {
    // Same seed under both policies: the *offered* workload is identical
    // (the generators are policy-independent), so the two runs diverge
    // only through the policy's decisions.
    let a = game_run(7, false);
    let m = game_run(7, true);
    assert_ne!(a.avg_power_mw, m.avg_power_mw);
    assert_ne!(a.policy, m.policy);
}

#[test]
fn geekbench_deterministic_across_runs() {
    let score = |_| {
        let profile = profiles::nexus5();
        let cfg = SimConfig::new(profile.clone())
            .with_duration_secs(6)
            .with_seed(5)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(MobiCore::new(&profile))).unwrap();
        sim.add_workload(Box::new(GeekBenchApp::standard(4)));
        sim.run().first_metric("score").unwrap()
    };
    assert_eq!(score(0), score(1));
}
