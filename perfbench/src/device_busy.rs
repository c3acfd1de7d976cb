//! `device-busy`: single-thread `Simulation` runs of every registered
//! policy × {gaming, mixed-day, bursty-launches} on the cyclic engine —
//! the per-tick fast path.
//!
//! Set-up runs every cell once on the event-driven engine; those report
//! digests are the reference (the engines are byte-identical by
//! contract). Every measured cell must reproduce its digest.

use crate::ledger::{ns_since, Probe, SimLedger, TimedPolicy, TimedWorkload};
use crate::report::{digest, mix, report_digest, Fastest, Outcome, Window};
use crate::{Layers, Opts};
use mobicore_experiments::policy;
use mobicore_model::{profiles, DeviceProfile};
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{SimConfig, SimEngine, Simulation};
use mobicore_workloads::scenario;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The busy scenarios every policy runs.
const SCENARIOS: [&str; 3] = ["gaming", "mixed-day", "bursty-launches"];

/// One (policy, scenario, seed) run.
struct Cell {
    policy: &'static str,
    pidx: usize,
    scenario: &'static str,
    seed: u64,
    /// The policy's sampling period, µs: one lockstep step.
    period_us: u64,
}

/// Everything built before the first measured cell.
pub struct Setup {
    profile: Arc<DeviceProfile>,
    paths: Arc<PathTable>,
    cells: Vec<Cell>,
    secs: u64,
    reference: Vec<u64>,
    /// Digest of the generated inputs (every cell's seed).
    pub inputs: u64,
}

/// Builds the cell list from the workload seed and the reference
/// digests on the event-driven engine.
pub fn setup(opts: &Opts) -> Setup {
    let profile = Arc::new(profiles::nexus5());
    let paths = Arc::new(PathTable::new(profile.n_cores()));
    let mut cells = Vec::new();
    for (pidx, name) in policy::names().into_iter().enumerate() {
        for (s, scen) in SCENARIOS.into_iter().enumerate() {
            let seed = mix(opts.seed, (pidx * SCENARIOS.len() + s) as u64) % 1_000_000;
            let period_us = policy::by_name(name, &profile, seed)
                .expect("registered policy")
                .sampling_period_us()
                .max(1);
            cells.push(Cell {
                policy: name,
                pidx,
                scenario: scen,
                seed,
                period_us,
            });
        }
    }
    let mut setup = Setup {
        profile,
        paths,
        cells,
        secs: if opts.tiny { 2 } else { 60 },
        reference: Vec::new(),
        inputs: 0,
    };
    let seeds: Vec<u8> = setup
        .cells
        .iter()
        .flat_map(|c| c.seed.to_le_bytes())
        .collect();
    setup.inputs = digest(&seeds);
    setup.reference = setup
        .cells
        .iter()
        .map(|c| report_digest(&build(&setup, c, SimEngine::EventDriven, None).run()))
        .collect();
    if opts.corrupt_reference {
        setup.reference[0] ^= 1;
    }
    setup
}

/// The cell's simulation, optionally with the policy and workload
/// wrapped for tracing.
fn build(setup: &Setup, cell: &Cell, engine: SimEngine, probe: Option<&Rc<Probe>>) -> Simulation {
    let cfg = SimConfig::new(Arc::clone(&setup.profile))
        .with_duration_secs(setup.secs)
        .with_seed(cell.seed)
        .without_mpdecision()
        .with_engine(engine);
    let p = policy::by_name(cell.policy, &setup.profile, cell.seed).expect("registered policy");
    let day =
        scenario::by_name(cell.scenario, &setup.profile, cell.seed).expect("catalog scenario");
    let mut sim = match probe {
        Some(probe) => Simulation::with_paths(
            cfg,
            Box::new(TimedPolicy::new(p, Rc::clone(probe))),
            Arc::clone(&setup.paths),
        ),
        None => Simulation::with_paths(cfg, p, Arc::clone(&setup.paths)),
    }
    .expect("benchmark config is valid");
    match probe {
        Some(probe) => sim.add_workload(Box::new(TimedWorkload::new(day, Rc::clone(probe)))),
        None => sim.add_workload(Box::new(day)),
    };
    sim
}

/// Repetitions kept per cell: the fastest one (min-of-N timing; a
/// 40-second run repeats every cell about 40 times).
const KEEP: usize = 1;

/// Untraced pass: every cell, round after round.
pub struct Pass {
    /// Per cell execution: simulated s, decisions, host s from build to
    /// report, host µs per policy-sample period (lockstep) and the
    /// cell's host µs (session).
    pub fastest: Fastest,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs whole rounds of every cell on the cyclic engine for at least
/// `seconds`, advancing each device one sampling period at a time.
pub fn untraced(setup: &Setup, seconds: f64) -> Pass {
    let mut pass = Pass {
        fastest: Fastest::new(setup.cells.len(), KEEP),
        attempted: 0,
        failed: 0,
    };
    let end_us = setup.secs * 1_000_000;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
        for (i, cell) in setup.cells.iter().enumerate() {
            let mut w = Window {
                kind: i,
                ..Window::default()
            };
            let t0 = Instant::now();
            let mut sim = build(setup, cell, SimEngine::Cyclic, None);
            let mut t = Instant::now();
            let mut next = cell.period_us;
            while sim.now_us() < end_us {
                sim.run_until(next.min(end_us));
                let t2 = Instant::now();
                w.lockstep.record((t2 - t).as_secs_f64() * 1e6);
                t = t2;
                next += cell.period_us;
            }
            let report = sim.report();
            w.wall_s = t0.elapsed().as_secs_f64();
            w.session.record(w.wall_s * 1e6);
            w.device_s = setup.secs as f64;
            w.decisions = samples(&sim);
            pass.attempted += 1;
            if report_digest(&report) != setup.reference[i] {
                pass.failed += 1;
            }
            pass.fastest.offer(w);
        }
        rounds += 1;
    }
    pass
}

/// Policy decisions the simulation made (its `sim.samples` counter).
fn samples(sim: &Simulation) -> f64 {
    sim.telemetry()
        .metrics()
        .counter("sim.samples")
        .unwrap_or(0) as f64
}

/// Traced pass: the same cells with `Simulation::step` driven directly
/// and the policy and workload layers wrapped; fills the layer table.
pub fn traced(
    setup: &Setup,
    seconds: f64,
    untraced: &Pass,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let names = policy::names();
    let mut ledger = SimLedger::new(names.len());
    let end_us = setup.secs * 1_000_000;
    let mut wall_ns = 0u64;
    let mut rounds = 0u64;
    let mut fastest_ns = vec![u64::MAX; setup.cells.len()];
    let started = Instant::now();
    while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
        for (i, cell) in setup.cells.iter().enumerate() {
            let t0 = Instant::now();
            let probe = Rc::new(Probe::default());
            let mut sim = build(setup, cell, SimEngine::Cyclic, Some(&probe));
            let build_ns = ns_since(t0);
            ledger.build.add(build_ns);
            if cell.policy == "learned" {
                ledger.build_learned.add(build_ns);
            }
            // One span over the step loop: a clock read per step would
            // cost a tenth of the step.
            let ts = Instant::now();
            let mut steps = 0;
            while sim.now_us() < end_us {
                sim.step();
                steps += 1;
            }
            ledger.step.add_n(ns_since(ts), steps);
            let tr = Instant::now();
            let report = sim.report();
            ledger.report.add(ns_since(tr));
            let cell_ns = ns_since(t0);
            wall_ns += cell_ns;
            fastest_ns[i] = fastest_ns[i].min(cell_ns);
            probe.drain_into(&mut ledger, cell.pidx);
            out.attempted += 1;
            if report_digest(&report) != setup.reference[i] {
                out.failed += 1;
            }
        }
        rounds += 1;
    }
    let wall = wall_ns as f64;
    let policy_all = ledger.policy_total();
    let inner = policy_all.ns + ledger.workload.ns;
    layers.set("sim.step_ns", ledger.step.mean_ns());
    layers.set(
        "sim.step_self_ns",
        (ledger.step.ns.saturating_sub(inner)) as f64 / ledger.step.calls.max(1) as f64,
    );
    layers.set("sim.steps", (ledger.step.calls / rounds) as f64);
    layers.policies(&names, &ledger, wall, rounds);
    layers.set("workloads.on_tick_ns", ledger.workload.mean_ns());
    layers.set("workloads.share", ledger.workload.ns as f64 / wall);
    layers.set("sim.build_us", ledger.build.mean_ns() / 1e3);
    layers.set("sim.build_us.learned", ledger.build_learned.mean_ns() / 1e3);
    layers.set("sim.report_us", ledger.report.mean_ns() / 1e3);
    let named = ledger.step.ns + ledger.build.ns + ledger.report.ns;
    layers.set("unattributed_frac", 1.0 - named as f64 / wall);
    // Fastest against fastest execution of every cell: host speed
    // swings cancel.
    let traced_s = fastest_ns.iter().sum::<u64>() as f64 / 1e9;
    layers.set(
        "trace_overhead",
        traced_s / untraced.fastest.best_wall_s() - 1.0,
    );
    out.note("traced_rounds", rounds);
}
