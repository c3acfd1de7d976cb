//! Simulator output pinned against a committed fixture: the report and
//! the JSONL event stream of every arena policy on the three busy
//! scenarios, one run that moves every piece of per-core state the tick
//! loop keeps (OPP limits, hotplug, quota, the thermal cap) through
//! sysfs, and two 60-s `learned` runs long enough to pull most arms.
//!
//! Each run is pinned by an FNV-1a digest of its full `Debug` report
//! (trace samples included) and of its `events_jsonl()` bytes, so the
//! fixture stays small while any change to a single bit of either shows.
//! A rework of the tick loop must reproduce these bytes exactly. To
//! re-bless after an intentional change to what a run computes:
//!
//! ```text
//! BLESS=1 cargo test -p mobicore-experiments --test tick_golden
//! ```

use mobicore::registry::{self, ARENA};
use mobicore_experiments::runner::SEED;
use mobicore_model::profiles::{opp_ladder, NEXUS5_CEFF_F, NEXUS5_FREQS_KHZ};
use mobicore_model::{profiles, DeviceProfile, ThermalParams};
use mobicore_sim::{SimConfig, SimEngine, Simulation, TraceLevel};
use mobicore_workloads::{scenario, BusyLoop};
use std::fmt::Write;
use std::sync::Arc;

const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/tick_golden.txt");

/// The busy scenarios the per-tick fast path spends its time on.
const SCENARIOS: [&str; 3] = ["gaming", "mixed-day", "bursty-launches"];

/// 64-bit FNV-1a: a stable digest (std's hasher is not stable across
/// releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fixture line: the run's report and event digests, its event
/// count and its average power (readable, so a drift is easy to place).
fn line(out: &mut String, name: &str, sim: &Simulation) {
    let report = sim.report();
    let events = sim.events_jsonl();
    writeln!(
        out,
        "{name} report={:016x} events={:016x} n_events={} avg_power_mw={:?}",
        fnv1a(format!("{report:?}").as_bytes()),
        fnv1a(events.as_bytes()),
        events.lines().count(),
        report.avg_power_mw,
    )
    .expect("writing to a String");
}

/// The long `learned` runs: enough samples (3000 each) that most arms
/// are pulled many times, which the 10-s rows (500 samples) never reach.
const LEARNED_LONG: [&str; 2] = ["idle-day", "mixed-day"];

/// A `secs`-long cyclic run of `policy` on `scenario`, full trace.
fn arena_run(policy: &str, scenario_name: &str, secs: u64) -> Simulation {
    let profile = Arc::new(profiles::nexus5());
    let cfg = SimConfig::new(Arc::clone(&profile))
        .with_duration_secs(secs)
        .with_seed(SEED)
        .with_trace(TraceLevel::Full)
        .without_mpdecision()
        .with_engine(SimEngine::Cyclic);
    let policy = registry::build(policy, &profile, SEED).expect("arena policy");
    let mut sim = Simulation::new(cfg, policy).expect("valid config");
    let day = scenario::by_name(scenario_name, &profile, SEED).expect("catalog scenario");
    sim.add_workload(Box::new(day));
    sim.run();
    sim
}

/// A Nexus 5 whose package heats in about a second and trips at 30 °C,
/// so a short run crosses the thermal cap both ways many times.
fn fast_thermal_nexus5() -> DeviceProfile {
    DeviceProfile::builder("Nexus 5 (fast thermal)", 4)
        .opps(opp_ladder(
            &NEXUS5_FREQS_KHZ,
            900,
            1_200,
            47.0,
            120.0,
            NEXUS5_CEFF_F,
        ))
        .platform_base_mw(150.0)
        .cluster_max_mw(600.0)
        .cluster_floor(0.75)
        .cluster_exp(1.8)
        .core_marginal(vec![1.0, 0.75, 0.65, 0.58])
        .thermal(ThermalParams {
            ambient_c: 25.0,
            r_th_c_per_w: 7.1,
            tau_s: 1.0,
            trip_c: 30.0,
            clear_c: 29.0,
        })
        .hotplug_on_latency_us(5_000)
        .dvfs_latency_us(200)
        .build()
        .expect("valid profile")
}

/// A 6-s `ondemand` run under `engine` that drives, through sysfs and
/// adb, every edge that moves a core's effective OPP, frequency or
/// online state: `scaling_max_freq` and `scaling_min_freq` writes,
/// `online` 0 then 1 with mpdecision stopped, a `cfs_quota_us` change,
/// and (from the hot profile) thermal throttle and clear.
fn edge_run(engine: SimEngine) -> Simulation {
    let profile = Arc::new(fast_thermal_nexus5());
    let f_max = profile.opps().max_khz();
    let cfg = SimConfig::new(Arc::clone(&profile))
        .with_duration_secs(6)
        .with_seed(SEED)
        .with_trace(TraceLevel::Full)
        .with_engine(engine);
    let policy = registry::build("ondemand", &profile, SEED).expect("arena policy");
    let mut sim = Simulation::new(cfg, policy).expect("valid config");
    let launches = scenario::by_name("bursty-launches", &profile, SEED).expect("catalog scenario");
    sim.add_workload(Box::new(launches));
    sim.add_workload(Box::new(BusyLoop::with_target_util(2, 0.5, f_max, SEED)));
    let cpu = "/sys/devices/system/cpu";
    let quota = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us";
    let script: [(u64, &str); 10] = [
        (
            500_000,
            "echo 1190400 > {cpu}/cpu1/cpufreq/scaling_max_freq",
        ),
        (
            1_000_000,
            "echo 1497600 > {cpu}/cpu0/cpufreq/scaling_min_freq",
        ),
        (1_500_000, "stop mpdecision"),
        (2_000_000, "echo 0 > {cpu}/cpu2/online"),
        (2_500_000, "echo 120000 > {quota}"),
        (3_000_000, "echo 1 > {cpu}/cpu2/online"),
        (
            3_500_000,
            "echo 300000 > {cpu}/cpu1/cpufreq/scaling_max_freq",
        ),
        (
            4_000_000,
            "echo 2265600 > {cpu}/cpu1/cpufreq/scaling_max_freq",
        ),
        (
            4_500_000,
            "echo 300000 > {cpu}/cpu0/cpufreq/scaling_min_freq",
        ),
        (5_000_000, "echo -1 > {quota}"),
    ];
    for (t_us, cmd) in script {
        sim.run_until(t_us);
        let cmd = cmd.replace("{cpu}", cpu).replace("{quota}", quota);
        sim.adb(&cmd).expect("scripted adb command");
    }
    sim.run();
    sim
}

fn rendered() -> String {
    let mut out = String::new();
    for policy in ARENA {
        for scenario_name in SCENARIOS {
            line(
                &mut out,
                &format!("{policy}/{scenario_name}"),
                &arena_run(policy, scenario_name, 10),
            );
        }
    }
    for (name, engine) in [
        ("edges/cyclic", SimEngine::Cyclic),
        ("edges/event-driven", SimEngine::EventDriven),
    ] {
        let sim = edge_run(engine);
        let counts = sim.telemetry().event_counts();
        for kind in [
            "core-offline",
            "core-online",
            "quota-shrink",
            "quota-restore",
            "thermal-throttle",
            "thermal-clear",
        ] {
            assert!(
                counts.get(kind).copied().unwrap_or(0) > 0,
                "{name}: the edge run must see a {kind} event, saw {counts:?}"
            );
        }
        line(&mut out, name, &sim);
    }
    for scenario_name in LEARNED_LONG {
        line(
            &mut out,
            &format!("learned/{scenario_name}/60s"),
            &arena_run("learned", scenario_name, 60),
        );
    }
    out
}

#[test]
fn tick_output_matches_the_committed_fixture() {
    let text = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(FIXTURE_PATH, &text).expect("write fixture");
    }
    let fixture =
        std::fs::read_to_string(FIXTURE_PATH).expect("fixture exists (run with BLESS=1 to create)");
    assert_eq!(
        text, fixture,
        "simulator output drifted from the committed fixture; if intentional, \
         re-bless with BLESS=1"
    );
}
