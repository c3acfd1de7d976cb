//! Cyclic vs event-driven engine equivalence (ISSUE 7 acceptance
//! criterion, tier-1).
//!
//! The event-driven engine (`SimEngine::EventDriven`) may only skip work
//! it can prove is a no-op, so for every scenario in the catalog — and
//! for randomly generated scenario slices — the two engines must produce
//! **byte-identical** reports (full `Debug` rendering), telemetry event
//! streams (JSONL) and run manifests. The equivalence argument lives in
//! docs/simulator.md; this test is the cross-check that keeps it honest.
//!
//! Engine selection here always goes through `with_engine`, never the
//! `MOBICORE_SIM_ENGINE` environment variable: tests run in parallel and
//! the environment is process-global.

use mobicore::MobiCore;
use mobicore_model::profiles;
use mobicore_sim::builtin::PinnedPolicy;
use mobicore_sim::{
    CpuPolicy, FleetSim, SimConfig, SimEngine, Simulation, TraceLevel, Wake, Workload,
    WorkloadReport, WorkloadRt,
};
use mobicore_workloads::scenario::{by_name, CATALOG};
use mobicore_workloads::{AppLaunch, BusyLoop, Scenario, VideoPlayback};
use proptest::prelude::*;

/// Everything a run produces that the two engines must agree on, in
/// byte-comparable form. The manifest's `wall_ms` / `created_unix_ms` /
/// `git` stamps are `None` until a caller sets them, so no normalization
/// is needed here (and the manifest carries no engine tag — by design,
/// or cross-engine identity would be unachievable).
#[derive(Debug, PartialEq, Eq)]
struct RunArtifacts {
    report: String,
    events: String,
    manifest: String,
}

fn sim_with(
    engine: SimEngine,
    policy: Box<dyn CpuPolicy>,
    workload: Box<dyn Workload>,
    duration_us: u64,
    seed: u64,
) -> Simulation {
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile)
        .with_duration_us(duration_us)
        .with_seed(seed)
        .with_trace(TraceLevel::Full)
        .without_mpdecision()
        .with_engine(engine);
    let mut sim = Simulation::new(cfg, policy).expect("config valid");
    sim.add_workload(workload);
    sim
}

fn artifacts(sim: &Simulation) -> RunArtifacts {
    RunArtifacts {
        report: format!("{:?}", sim.report()),
        events: sim.events_jsonl(),
        manifest: sim.manifest("eq").to_json_text(),
    }
}

fn run_with(
    engine: SimEngine,
    policy: Box<dyn CpuPolicy>,
    workload: Box<dyn Workload>,
    duration_us: u64,
    seed: u64,
) -> RunArtifacts {
    let mut sim = sim_with(engine, policy, workload, duration_us, seed);
    sim.run();
    artifacts(&sim)
}

fn assert_engines_agree(
    mk_policy: impl Fn() -> Box<dyn CpuPolicy>,
    mk_workload: impl Fn() -> Box<dyn Workload>,
    duration_us: u64,
    seed: u64,
    label: &str,
) {
    let cyclic = run_with(
        SimEngine::Cyclic,
        mk_policy(),
        mk_workload(),
        duration_us,
        seed,
    );
    let event = run_with(
        SimEngine::EventDriven,
        mk_policy(),
        mk_workload(),
        duration_us,
        seed,
    );
    assert_eq!(cyclic.report, event.report, "{label}: report differs");
    assert_eq!(cyclic.events, event.events, "{label}: event stream differs");
    assert_eq!(cyclic.manifest, event.manifest, "{label}: manifest differs");
}

/// Runs two copies of the simulation through one [`FleetSim`] and
/// asserts each matches the cyclic engine's bytes.
fn assert_fleet_agrees(
    mk_policy: impl Fn() -> Box<dyn CpuPolicy>,
    mk_workload: impl Fn() -> Box<dyn Workload>,
    duration_us: u64,
    seed: u64,
    label: &str,
) {
    let cyclic = run_with(
        SimEngine::Cyclic,
        mk_policy(),
        mk_workload(),
        duration_us,
        seed,
    );
    let mut fleet = FleetSim::with_capacity(2);
    for _ in 0..2 {
        fleet.add_device(sim_with(
            SimEngine::EventDriven,
            mk_policy(),
            mk_workload(),
            duration_us,
            seed,
        ));
    }
    fleet.run();
    for (id, sim) in fleet.devices().iter().enumerate() {
        let dev = artifacts(sim);
        assert_eq!(cyclic.report, dev.report, "{label}: device {id} report");
        assert_eq!(cyclic.events, dev.events, "{label}: device {id} events");
        assert_eq!(
            cyclic.manifest, dev.manifest,
            "{label}: device {id} manifest"
        );
    }
}

const SEED: u64 = 20_170_315;

/// Every catalog scenario, under the full MobiCore policy. The idle-heavy
/// `idle-day` scenario runs its whole 60 s (its long silence is exactly
/// what the event engine fast-forwards); busier scenarios run an 8 s
/// window that still crosses their phase boundaries.
#[test]
fn catalog_scenarios_byte_identical_across_engines() {
    let profile = profiles::nexus5();
    for name in CATALOG {
        let duration_us = if name == "idle-day" {
            60_000_000
        } else {
            8_000_000
        };
        assert_engines_agree(
            || Box::new(MobiCore::new(&profiles::nexus5())),
            || Box::new(by_name(name, &profile, SEED).expect("catalog name builds")),
            duration_us,
            SEED,
            name,
        );
    }
}

/// A timer workload that queues a burst of work every `period_us` and,
/// after every other burst, declares as its wake the burst it already
/// ran: `Wake::At(t)` with `t` in the past, which the event engine must
/// read as "due now". Were it read as a future or absent wake, the next
/// burst would be queued late and the bytes would differ.
struct StaleWake {
    period_us: u64,
    next_fire_us: u64,
    bursts: u64,
    thread: usize,
}

impl StaleWake {
    fn new(period_us: u64) -> Self {
        StaleWake {
            period_us,
            next_fire_us: 0,
            bursts: 0,
            thread: 0,
        }
    }
}

impl Workload for StaleWake {
    fn name(&self) -> &str {
        "stale-wake"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        self.thread = rt.spawn_thread();
    }

    fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
        if now_us >= self.next_fire_us {
            rt.push_work(self.thread, 3_000_000, self.bursts);
            self.bursts += 1;
            self.next_fire_us = now_us + self.period_us;
        }
    }

    fn next_tick_us(&self, _now_us: u64) -> Wake {
        if self.bursts.is_multiple_of(2) {
            Wake::At(self.next_fire_us)
        } else {
            Wake::At(self.next_fire_us - self.period_us)
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn report(&self, _now_us: u64, _rt: &WorkloadRt) -> WorkloadReport {
        WorkloadReport::named("stale-wake").with_metric("bursts", self.bursts as f64)
    }
}

/// Raw (un-scenario-wrapped) workloads, covering each `next_tick_us`
/// implementation directly: VideoPlayback's frame timer, AppLaunch's
/// idle-gap wake, and BusyLoop's default every-tick declaration — plus
/// [`StaleWake`]'s past wake, under FleetSim too.
#[test]
fn raw_workload_wake_hints_byte_identical_across_engines() {
    assert_engines_agree(
        || Box::new(MobiCore::new(&profiles::nexus5())),
        || Box::new(VideoPlayback::new(12_000_000)),
        4_000_000,
        SEED,
        "video-playback",
    );
    assert_engines_agree(
        || Box::new(MobiCore::new(&profiles::nexus5())),
        || Box::new(AppLaunch::new(800_000, SEED)),
        6_000_000,
        SEED,
        "app-launch",
    );
    let f = profiles::nexus5().opps().max_khz();
    assert_engines_agree(
        || Box::new(MobiCore::new(&profiles::nexus5())),
        move || Box::new(BusyLoop::with_target_util(2, 0.4, f, SEED)),
        3_000_000,
        SEED,
        "busyloop",
    );
    let stale = || Box::new(StaleWake::new(70_000)) as Box<dyn Workload>;
    let mobicore = || Box::new(MobiCore::new(&profiles::nexus5())) as Box<dyn CpuPolicy>;
    assert_engines_agree(mobicore, stale, 3_000_000, SEED, "stale-wake");
    assert_fleet_agrees(mobicore, stale, 3_000_000, SEED, "stale-wake");
}

/// A pinned policy never samples anything into commands, making the
/// governor wake the only recurring full step — the deepest fast-forward
/// the engine attempts outside benches.
#[test]
fn pinned_policy_idle_gap_byte_identical_across_engines() {
    let f = profiles::nexus5().opps().get_clamped(5).khz;
    assert_engines_agree(
        move || Box::new(PinnedPolicy::new(2, f)),
        || {
            Box::new(
                Scenario::new()
                    .phase_secs(0, 1, Box::new(VideoPlayback::new(12_000_000)))
                    .phase_secs(9, 10, Box::new(VideoPlayback::new(12_000_000))),
            )
        },
        10_000_000,
        SEED,
        "pinned-idle-gap",
    );
}

/// One random phase: `(start_us, end_us, kind, param)`. `kind` selects
/// the inner workload (0 video, 1 busy loop, 2 launch storm) and `param`
/// shapes it — the vendored proptest has no `prop_oneof!`, so the enum
/// choice is an explicit discriminant.
fn phase_strategy() -> impl Strategy<Value = (u64, u64, u8, u64)> {
    // Windows inside the 4 s run, at least 100 ms long.
    (0u64..3_000, 100u64..2_000, 0u8..3, 0u64..1_000).prop_map(|(start_ms, len_ms, kind, p)| {
        (start_ms * 1_000, (start_ms + len_ms) * 1_000, kind, p)
    })
}

fn build_scenario(phases: &[(u64, u64, u8, u64)], seed: u64) -> Scenario {
    let f = profiles::nexus5().opps().max_khz();
    let mut s = Scenario::new();
    for &(start_us, end_us, kind, p) in phases {
        let inner: Box<dyn Workload> = match kind {
            0 => Box::new(VideoPlayback::new(4_000_000 + p * 16_000)),
            #[allow(clippy::cast_possible_truncation)]
            1 => Box::new(BusyLoop::with_target_util(
                1 + (p % 3) as usize,
                0.1 + (p % 90) as f64 / 100.0,
                f,
                seed,
            )),
            _ => Box::new(AppLaunch::new((200 + p) * 1_000, seed)),
        };
        s = s.phase(start_us, end_us, inner);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random scenario slices — arbitrary phase layouts (including
    /// overlaps and gaps) must stay byte-identical under both engines.
    #[test]
    fn random_scenario_slices_byte_identical_across_engines(
        phases in proptest::collection::vec(phase_strategy(), 1..4),
        seed in 0u64..1_000,
    ) {
        let cyclic = run_with(
            SimEngine::Cyclic,
            Box::new(MobiCore::new(&profiles::nexus5())),
            Box::new(build_scenario(&phases, seed)),
            4_000_000,
            seed,
        );
        let event = run_with(
            SimEngine::EventDriven,
            Box::new(MobiCore::new(&profiles::nexus5())),
            Box::new(build_scenario(&phases, seed)),
            4_000_000,
            seed,
        );
        prop_assert_eq!(&cyclic.report, &event.report, "report differs: {:?}", phases);
        prop_assert_eq!(&cyclic.events, &event.events, "events differ: {:?}", phases);
        prop_assert_eq!(&cyclic.manifest, &event.manifest, "manifest differs: {:?}", phases);
    }
}
