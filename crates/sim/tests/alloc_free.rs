//! Asserts the simulator tick loop is allocation-free after warmup
//! (ISSUE 3 satellite: the fast-path scratch buffers really are reused).
//!
//! A counting `GlobalAlloc` wraps the system allocator for this test
//! binary only — the sim crate itself stays `#![forbid(unsafe_code)]`;
//! integration tests are separate compilation units, so the `unsafe
//! impl` here does not violate the library's lint wall.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobicore_model::{profiles, Khz, Utilization};
use mobicore_sim::builtin::PinnedPolicy;
use mobicore_sim::{CoreSnapshot, FleetSim, PolicySnapshot, SimConfig, SimEngine, Simulation};
use mobicore_workloads::BusyLoop;
use std::sync::Arc;

/// Counts every allocation and reallocation made by the *current thread*
/// (frees don't matter for the "no churn in the hot loop" claim; a free
/// implies an earlier alloc). A thread-local counter keeps the tests
/// independent of each other even though the harness runs them on
/// parallel threads.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: the allocator can be called while thread-local storage
    // is being torn down; missing those events is fine for the test.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    TL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Steps a busy cyclic-engine simulation through one warm simulated
/// second and returns the allocations that second made.
fn cyclic_warm_second_allocs(telemetry: bool) -> u64 {
    let f_max = Khz(2_265_600);
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile)
        .with_duration_secs(3)
        .with_seed(42)
        .without_mpdecision()
        .with_telemetry(telemetry);
    let mut sim =
        Simulation::new(cfg, Box::new(PinnedPolicy::new(4, f_max))).expect("valid config");
    sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.7, f_max, 42)));

    // Warmup: one simulated second grows every scratch buffer, meter
    // reservation, and workload queue to steady-state capacity.
    while sim.now_us() < 1_000_000 {
        sim.step();
    }

    let before = allocs();
    while sim.now_us() < 2_000_000 {
        sim.step();
    }
    allocs() - before
}

#[test]
fn tick_loop_is_allocation_free_after_warmup() {
    let delta = cyclic_warm_second_allocs(false);
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across 1 simulated second of \
         warm tick loop, observed {delta}"
    );
}

#[test]
fn tick_loop_with_telemetry_is_allocation_free_after_warmup() {
    // The default config records per-tick metrics; once every metric
    // name exists, updating it must not allocate its key again.
    let delta = cyclic_warm_second_allocs(true);
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across 1 simulated second of \
         warm tick loop with telemetry on, observed {delta}"
    );
}

/// Runs a workload-free event-engine simulation through one warm
/// simulated second and returns the allocations that second made.
fn event_quiet_warm_second_allocs(telemetry: bool) -> u64 {
    let f_max = Khz(2_265_600);
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile)
        .with_duration_secs(3)
        .with_seed(42)
        .without_mpdecision()
        .with_telemetry(telemetry)
        .with_engine(SimEngine::EventDriven);
    let mut sim =
        Simulation::new(cfg, Box::new(PinnedPolicy::new(4, f_max))).expect("valid config");

    // No workload: after warmup the run is one long quiet stretch, so
    // the loop alternates governor-sample full steps with quiet bursts
    // — the event engine's warm fast path. The first simulated second
    // grows the wake queue, the activity/power memo, and every scratch
    // buffer to steady state.
    sim.run_until(1_000_000);

    let before = allocs();
    sim.run_until(2_000_000);
    allocs() - before
}

#[test]
fn event_engine_quiet_loop_is_allocation_free_after_warmup() {
    let delta = event_quiet_warm_second_allocs(false);
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across 1 simulated second of \
         warm quiet bursts, observed {delta}"
    );
}

#[test]
fn event_engine_quiet_loop_with_telemetry_is_allocation_free_after_warmup() {
    let delta = event_quiet_warm_second_allocs(true);
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across 1 simulated second of \
         warm quiet bursts with telemetry on, observed {delta}"
    );
}

#[test]
fn fleet_multiplexed_loop_is_allocation_free_after_warmup() {
    // Eight mostly-idle devices multiplexed through one FleetSim loop:
    // once every device's scratch state and the fleet heap are warm,
    // advancing the whole fleet a further simulated second must not
    // allocate (the multiplexed warm-burst claim of docs/simulator.md).
    let profile = Arc::new(profiles::nexus5());
    let mut fleet = FleetSim::with_capacity(8);
    for seed in 0..8 {
        let cfg = SimConfig::new(Arc::clone(&profile))
            .with_duration_secs(3)
            .with_seed(seed)
            .without_mpdecision()
            .with_telemetry(false)
            .with_engine(SimEngine::EventDriven);
        let sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, Khz(2_265_600))))
            .expect("valid config");
        fleet.add_device(sim);
    }

    // Warmup: the first simulated second grows each device's wake
    // queue, power memo and scratch buffers to steady state.
    while fleet.devices().iter().any(|d| d.now_us() < 1_000_000) {
        fleet.advance_next();
    }

    let before = allocs();
    while fleet.devices().iter().any(|d| d.now_us() < 2_000_000) {
        fleet.advance_next();
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "expected zero heap allocations across 1 simulated second of \
         warm multiplexed fleet loop, observed {delta}"
    );
}

#[test]
fn snapshot_aggregates_are_allocation_free() {
    // Policies read these once per sample (the learned governor's
    // features, both hotplug governors), so they must not allocate.
    let mut snap = PolicySnapshot::synthetic(4, 3, Khz(1_190_400), Utilization::new(0.4), 20_000);
    snap.cores[1] = CoreSnapshot::offline();
    let before = allocs();
    let avg = snap.online_avg_util();
    let demand = snap.demand_khz();
    let delta = allocs() - before;
    assert!(avg > Utilization::IDLE && demand > 0.0);
    assert_eq!(
        delta, 0,
        "online_avg_util and demand_khz made {delta} heap allocations"
    );
}

#[test]
fn warmup_itself_does_allocate() {
    // Sanity check that the counter actually counts: constructing a sim
    // allocates plenty, so a zero reading above can't be a dead counter.
    let before = allocs();
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile)
        .with_duration_secs(1)
        .without_mpdecision()
        .with_telemetry(false);
    let _sim =
        Simulation::new(cfg, Box::new(PinnedPolicy::new(1, Khz(300_000)))).expect("valid config");
    assert!(
        allocs() > before,
        "allocator counter must observe setup allocations"
    );
}
