//! `fleet-idle`: `mobicore_tournament::run` over every registered
//! policy × `idle-day` × a seed set, on a 2-worker sweep executor. Each
//! (policy, scenario) cell multiplexes its seeds through one `FleetSim`.
//!
//! Set-up composes the same tournament from public pieces
//! (`Executor::run_chunked`, `FleetSim::add_device`,
//! `FleetSim::advance_next`, `Leaderboard::finalize`) on one worker; its
//! leaderboard bytes are the reference every measured tournament must
//! reproduce. The traced run is that composition on the measured worker
//! count, with each layer timed.

use crate::ledger::{ns_since, Probe, SimLedger, TimedPolicy, TimedWorkload};
use crate::report::{digest, median, mix, report_digest, Fastest, Outcome, Window};
use crate::{Layers, Opts};
use mobicore_experiments::policy;
use mobicore_model::profiles;
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{FleetSim, SimConfig, SimReport, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::{Leaderboard, LeaderboardEntry, MetricSet, PolicyStats};
use mobicore_tournament::TournamentSpec;
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seeds per (policy, idle-day) cell: sized so one tournament takes
/// about 0.15 s on two workers of a 2-CPU host, short enough to land
/// between the host's slow episodes.
const SEEDS: u64 = 8;

/// Everything built before the first measured tournament.
pub struct Setup {
    spec: TournamentSpec,
    reference: Composed,
    jobs: usize,
    /// Digest of the generated inputs (the seed set).
    pub inputs: u64,
}

/// One device run's scoreboard contribution.
struct RunStat {
    energy_mj: f64,
    perf_gcycles: f64,
    qos_violations: u64,
    digest: u64,
}

/// A tournament composed from public pieces.
pub struct Composed {
    leaderboard: String,
    digests: Vec<u64>,
    samples: u64,
    ledger: SimLedger,
    job_ns: Vec<u64>,
    wall_ns: u64,
}

/// The tournament spec the workload seed selects.
fn spec(opts: &Opts) -> TournamentSpec {
    let base = mix(opts.seed, 0) % 1_000_000;
    let seeds = if opts.tiny { 2 } else { SEEDS };
    TournamentSpec {
        name: "fleet-idle".to_string(),
        policies: policy::names().iter().map(|s| s.to_string()).collect(),
        scenarios: vec!["idle-day".to_string()],
        seeds: (base..base + seeds).collect(),
        secs: if opts.tiny { 2 } else { 60 },
    }
}

/// Builds the spec and the one-worker reference composition.
pub fn setup(opts: &Opts, jobs: usize) -> Setup {
    let spec = spec(opts);
    let mut reference = compose(&spec, &Executor::new(1), false);
    if opts.corrupt_reference {
        reference.leaderboard.push(' ');
        reference.digests[0] ^= 1;
    }
    let seeds: Vec<u8> = spec.seeds.iter().flat_map(|s| s.to_le_bytes()).collect();
    Setup {
        inputs: digest(&seeds),
        spec,
        reference,
        jobs,
    }
}

/// QoS violations of a report, as the tournament counts them.
fn qos_violations(report: &SimReport) -> u64 {
    let total: f64 = report
        .workloads
        .iter()
        .flat_map(|w| &w.metrics)
        .filter(|m| m.name == "deadline_misses" || m.name == "jank_frames")
        .map(|m| m.value)
        .sum();
    total.round() as u64
}

/// Mean-energy / mean-perf / total-QoS aggregate, as the tournament
/// folds it.
fn aggregate(stats: &[&RunStat]) -> PolicyStats {
    let n = stats.len().max(1) as f64;
    PolicyStats {
        energy_mj: stats.iter().map(|s| s.energy_mj).sum::<f64>() / n,
        perf_gcycles: stats.iter().map(|s| s.perf_gcycles).sum::<f64>() / n,
        qos_violations: stats.iter().map(|s| s.qos_violations).sum(),
        runs: stats.len() as u64,
    }
}

/// Runs `spec` cell by cell on `exec`; with `traced`, wraps policy and
/// workload and times every layer boundary into the returned ledger.
pub fn compose(spec: &TournamentSpec, exec: &Executor, traced: bool) -> Composed {
    let profile = Arc::new(profiles::nexus5());
    let paths = Arc::new(PathTable::new(profile.n_cores()));
    let nseeds = spec.seeds.len();
    let npol = spec.policies.len();
    let items: Vec<(usize, usize)> = (0..npol)
        .flat_map(|p| (0..spec.scenarios.len()).map(move |s| (p, s)))
        .flat_map(|cell| std::iter::repeat_n(cell, nseeds))
        .collect();
    let parked: Mutex<Vec<(usize, MetricSet, SimLedger, u64)>> = Mutex::new(Vec::new());
    let wall = Instant::now();
    let runs: Vec<(RunStat, Option<SimReport>)> =
        exec.run_chunked(items, nseeds, |first, chunk| {
            let job_t0 = Instant::now();
            let (p, s) = chunk[0];
            let (pname, sname) = (&spec.policies[p], &spec.scenarios[s]);
            let mut ledger = SimLedger::new(npol);
            let probe = Rc::new(Probe::default());
            let mut fleet = FleetSim::with_capacity(nseeds);
            for &seed in &spec.seeds {
                let tb = Instant::now();
                let cfg = SimConfig::new(Arc::clone(&profile))
                    .with_duration_secs(spec.secs)
                    .with_seed(seed)
                    .without_mpdecision();
                let pol = policy::by_name(pname, &profile, seed).expect("registered policy");
                let day = scenario::by_name(sname, &profile, seed).expect("catalog scenario");
                let mut sim = if traced {
                    let timed = Box::new(TimedPolicy::new(pol, Rc::clone(&probe)));
                    Simulation::with_paths(cfg, timed, Arc::clone(&paths))
                } else {
                    Simulation::with_paths(cfg, pol, Arc::clone(&paths))
                }
                .expect("benchmark config is valid");
                if traced {
                    sim.add_workload(Box::new(TimedWorkload::new(day, Rc::clone(&probe))));
                } else {
                    sim.add_workload(Box::new(day));
                }
                fleet.add_device(sim);
                let ns = ns_since(tb);
                ledger.build.add(ns);
                if pname == "learned" {
                    ledger.build_learned.add(ns);
                }
            }
            if traced {
                // One span over the whole loop; the counts are per advance.
                let tick_us = fleet.device(0).config().tick_us.max(1);
                let mut last = vec![0u64; fleet.len()];
                let ta = Instant::now();
                let mut advances = 0;
                while let Some((id, now)) = fleet.advance_next() {
                    let ticks = (now - last[id]) / tick_us;
                    last[id] = now;
                    advances += 1;
                    ledger.advance_ticks += ticks;
                    ledger.bursts += u64::from(ticks > 1);
                }
                ledger.advance.add_n(ns_since(ta), advances);
            } else {
                fleet.run();
            }
            let mut metrics = MetricSet::new();
            let mut runs = Vec::with_capacity(nseeds);
            for sim in fleet.devices() {
                let tm = Instant::now();
                metrics.merge(sim.telemetry().metrics());
                ledger.merge.add(ns_since(tm));
                let tr = Instant::now();
                let report = sim.report();
                ledger.report.add(ns_since(tr));
                let stat = RunStat {
                    energy_mj: report.energy_mj,
                    perf_gcycles: report.executed_cycles as f64 / 1e9,
                    qos_violations: qos_violations(&report),
                    digest: 0,
                };
                // The digest formats the whole report: a traced run keeps
                // the report and digests it off the clock, an untraced one
                // digests now and drops it.
                if traced {
                    runs.push((stat, Some(report)));
                } else {
                    runs.push((
                        RunStat {
                            digest: report_digest(&report),
                            ..stat
                        },
                        None,
                    ));
                }
            }
            probe.drain_into(&mut ledger, p);
            parked
                .lock()
                .expect("no job panicked holding the lock")
                .push((first, metrics, ledger, ns_since(job_t0)));
            runs
        });
    let wall_ns = ns_since(wall);
    let results: Vec<RunStat> = runs
        .into_iter()
        .map(|(stat, report)| match report {
            Some(r) => RunStat {
                digest: report_digest(&r),
                ..stat
            },
            None => stat,
        })
        .collect();
    let mut parked = parked
        .into_inner()
        .expect("no job panicked holding the lock");
    parked.sort_by_key(|x| x.0);
    let mut telemetry = MetricSet::new();
    let mut ledger = SimLedger::new(npol);
    let mut job_ns = Vec::new();
    for (_, set, l, ns) in &parked {
        telemetry.merge(set);
        ledger.merge(l);
        job_ns.push(*ns);
    }
    let per_policy = spec.scenarios.len() * nseeds;
    let entries = spec
        .policies
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let mine = &results[p * per_policy..(p + 1) * per_policy];
            let scenarios = spec
                .scenarios
                .iter()
                .enumerate()
                .map(|(s, scen)| {
                    let cell: Vec<&RunStat> = mine[s * nseeds..(s + 1) * nseeds].iter().collect();
                    (scen.clone(), aggregate(&cell))
                })
                .collect::<BTreeMap<_, _>>();
            LeaderboardEntry {
                policy: name.clone(),
                rank: 0,
                pareto: false,
                overall: aggregate(&mine.iter().collect::<Vec<_>>()),
                scenarios,
            }
        })
        .collect();
    let mut board = Leaderboard {
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
    board.finalize();
    Composed {
        leaderboard: board.to_json_text(),
        digests: results.iter().map(|r| r.digest).collect(),
        samples: telemetry.counter("sim.samples").unwrap_or(0),
        ledger,
        job_ns,
        wall_ns,
    }
}

/// Fastest tournaments kept, of the ~260 a 40-second run makes: few,
/// so one quiet stretch of the host is enough.
const KEEP: usize = 3;

/// Untraced pass: back-to-back `tournament::run` calls.
pub struct Pass {
    /// Per tournament: device-s, decisions, host s, host µs per policy
    /// decision per worker (the fine-grained, "lockstep" latency), host
    /// µs of the whole tournament (the coarse, "session" one).
    pub fastest: Fastest,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs whole tournaments for at least `seconds`, checking each
/// leaderboard against the reference bytes.
pub fn untraced(setup: &Setup, seconds: f64) -> Pass {
    let mut pass = Pass {
        fastest: Fastest::new(1, KEEP),
        attempted: 0,
        failed: 0,
    };
    let spec = &setup.spec;
    let device_s = (spec.policies.len() * spec.seeds.len()) as f64 * spec.secs as f64;
    let started = Instant::now();
    while pass.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = mobicore_tournament::run(spec);
        let wall_s = t0.elapsed().as_secs_f64();
        let samples = out.telemetry.counter("sim.samples").unwrap_or(0);
        pass.attempted += 1;
        if out.leaderboard.to_json_text() != setup.reference.leaderboard
            || samples != setup.reference.samples
        {
            pass.failed += 1;
        }
        let mut w = Window {
            device_s,
            decisions: samples as f64,
            wall_s,
            ..Window::default()
        };
        w.lockstep
            .record(wall_s * 1e6 * setup.jobs as f64 / w.decisions.max(1.0));
        w.session.record(wall_s * 1e6);
        pass.fastest.offer(w);
    }
    pass
}

/// Traced pass: composed tournaments on the measured worker count.
pub fn traced(
    setup: &Setup,
    seconds: f64,
    untraced: &Pass,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let exec = Executor::new(setup.jobs);
    let names = policy::names();
    let mut ledger = SimLedger::new(names.len());
    let mut busy_ns = 0u64;
    let mut imbalance = Vec::new();
    let mut wall_ns = 0u64;
    let mut fastest_ns = u64::MAX;
    let mut runs = 0u64;
    let started = Instant::now();
    while runs == 0 || started.elapsed().as_secs_f64() < seconds {
        let c = compose(&setup.spec, &exec, true);
        out.attempted += 1;
        if c.leaderboard != setup.reference.leaderboard
            || c.digests != setup.reference.digests
            || c.samples != setup.reference.samples
        {
            out.failed += 1;
        }
        ledger.merge(&c.ledger);
        busy_ns += c.job_ns.iter().sum::<u64>();
        let jobs: Vec<f64> = c.job_ns.iter().map(|&n| n as f64).collect();
        let max = jobs.iter().copied().fold(0.0, f64::max);
        imbalance.push(max / median(&jobs).max(1.0));
        wall_ns += c.wall_ns;
        fastest_ns = fastest_ns.min(c.wall_ns);
        runs += 1;
    }
    let worker_ns = (wall_ns * setup.jobs as u64) as f64;
    layers.policies(&names, &ledger, worker_ns, runs);
    layers.set("workloads.on_tick_ns", ledger.workload.mean_ns());
    layers.set("workloads.share", ledger.workload.ns as f64 / worker_ns);
    layers.set("sim.fleet.advance_ns", ledger.advance.mean_ns());
    layers.set(
        "sim.fleet.advances",
        ledger.advance.calls as f64 / runs as f64,
    );
    layers.set(
        "sim.fleet.ticks_per_advance",
        ledger.advance_ticks as f64 / ledger.advance.calls.max(1) as f64,
    );
    layers.set(
        "sim.fleet.burst_frac",
        ledger.bursts as f64 / ledger.advance.calls.max(1) as f64,
    );
    layers.set("sim.build_us", ledger.build.mean_ns() / 1e3);
    layers.set("sim.build_us.learned", ledger.build_learned.mean_ns() / 1e3);
    layers.set("sweep.busy_frac", busy_ns as f64 / worker_ns);
    layers.set("sweep.job_ms_max_over_p50", median(&imbalance));
    layers.set("telemetry.merge_us", ledger.merge.mean_ns() / 1e3);
    layers.set("sim.report_us", ledger.report.mean_ns() / 1e3);
    // Worker time is busy (jobs) or idle in the executor; the sweep
    // layer owns the idle part, the job spans own the busy part.
    let in_jobs = ledger.build.ns + ledger.advance.ns + ledger.merge.ns + ledger.report.ns;
    let idle = worker_ns - busy_ns as f64;
    layers.set(
        "unattributed_frac",
        1.0 - (in_jobs as f64 + idle) / worker_ns,
    );
    // Fastest tournament against fastest: host speed swings cancel.
    let untraced_s = untraced.fastest.best_wall_s();
    layers.set("trace_overhead", fastest_ns as f64 / 1e9 / untraced_s - 1.0);
    out.note("traced_tournaments", runs);
    out.note("jobs", setup.jobs);
}
