//! Emits a `kind = "bench"` run manifest (`BENCH_NN.json`) so the perf
//! trajectory between PRs is a `mobicore-inspect diff` away.
//!
//! Unlike the criterion benches this harness is deliberately plain
//! `std::time::Instant` timing: it has to run in seconds as part of a
//! normal PR loop, and the manifest records medians-of-rounds which are
//! stable enough for trend lines (criterion remains the tool for
//! statistically careful comparisons).
//!
//! ```text
//! cargo run --release -p mobicore-bench --bin bench-manifest -- BENCH_08.json
//! ```

use mobicore::{BandwidthAnalyzer, DcsPass, MobiCore, MobiCoreConfig};
use mobicore_experiments::fleet;
use mobicore_experiments::runner::{run_pinned, ManifestSink};
use mobicore_model::{profiles, Khz, Quota, Utilization};
use mobicore_sim::{
    CoreSnapshot, CpuControl, CpuPolicy, PolicySnapshot, SimConfig, SimEngine, Simulation,
};
use mobicore_sweep::Executor;
use mobicore_telemetry::{git_describe, RunManifest};
use mobicore_workloads::{scenario, BusyLoop};
use std::hint::black_box;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn snapshot(utils: [f64; 4]) -> PolicySnapshot {
    let cores: Vec<CoreSnapshot> = utils
        .iter()
        .map(|&u| CoreSnapshot {
            online: true,
            cur_khz: Khz(960_000),
            target_khz: Khz(960_000),
            util: Utilization::new(u),
            busy_us: (u * 20_000.0) as u64,
        })
        .collect();
    PolicySnapshot {
        now_us: 1_000_000,
        window_us: 20_000,
        overall_util: Utilization::new(utils.iter().sum::<f64>() / 4.0),
        cores,
        quota: Quota::FULL,
        mpdecision_enabled: false,
        max_runnable_threads: 4,
        temp_c: 30.0,
    }
}

/// Median ns/op over `rounds` rounds of `iters` calls each.
fn time_ns_per_op(rounds: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_round.sort_by(|a, b| a.total_cmp(b));
    per_round[per_round.len() / 2]
}

/// Simulated-seconds per wall-second for `policy` under a mixed load
/// (telemetry on, like a real inspected run).
fn sim_throughput(secs: u64) -> (f64, Simulation) {
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();
    let cfg = SimConfig::new(profile.clone())
        .with_duration_secs(secs)
        .with_seed(20_170_315)
        .without_mpdecision();
    let mut sim =
        Simulation::new(cfg, Box::new(MobiCore::new(&profile))).expect("bench config is valid");
    sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.3, f_max, 2)));
    let t = Instant::now();
    sim.run();
    (secs as f64 / t.elapsed().as_secs_f64(), sim)
}

/// Simulated-seconds per wall-second of the > 99 %-idle `idle-day`
/// catalog scenario under `engine`; median of `rounds` runs. The
/// cyclic/event pair on the same scenario and host is the event
/// engine's fast-forward win (docs/simulator.md) — the acceptance bar
/// is event ≥ 5× cyclic here.
fn idle_throughput(engine: SimEngine, rounds: usize) -> f64 {
    const SECS: u64 = 60;
    let mut per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let profile = profiles::nexus5();
            let cfg = SimConfig::new(profile.clone())
                .with_duration_secs(SECS)
                .with_seed(20_170_315)
                .without_mpdecision()
                .with_engine(engine);
            let mut sim = Simulation::new(cfg, Box::new(MobiCore::new(&profile)))
                .expect("bench config is valid");
            let day = scenario::by_name("idle-day", &profile, 20_170_315)
                .expect("idle-day is in the catalog");
            sim.add_workload(Box::new(day));
            let t = Instant::now();
            sim.run();
            SECS as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    per_round.sort_by(|a, b| a.total_cmp(b));
    per_round[per_round.len() / 2]
}

/// Wall-clock jobs/second for a fig03/fig04-shaped pinned sweep (16
/// jobs × `secs` sim-seconds) on `n_jobs` workers; median of `rounds`.
fn sweep_jobs_per_s(n_jobs: usize, secs: u64, rounds: usize) -> f64 {
    let profile = profiles::nexus5();
    let sink = ManifestSink::disabled();
    let exec = Executor::new(n_jobs);
    let mut per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut jobs = Vec::new();
            for &opp in &[0usize, 4, 9, 13] {
                for cores in 1..=4usize {
                    jobs.push((cores, opp));
                }
            }
            let n = jobs.len();
            let t = Instant::now();
            let reports = exec.run_ordered(jobs, |_, (cores, opp)| {
                let khz = profile.opps().get_clamped(opp).khz;
                run_pinned(
                    &profile,
                    cores,
                    khz,
                    vec![Box::new(BusyLoop::with_target_util(cores, 0.8, khz, 2))],
                    secs,
                    20_170_315,
                    &sink,
                )
            });
            black_box(reports);
            n as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    per_round.sort_by(|a, b| a.total_cmp(b));
    per_round[per_round.len() / 2]
}

/// Loopback serve throughput: a `mobicore-serve` daemon plus a
/// `mobicore-load` run in the same process, reporting decisions per
/// wall-second and RTT quantiles (µs) exactly as the `mobicore-load`
/// CLI would. Snapshots ride the windowed batching path (corked
/// writes, coalesced flushes).
fn serve_loopback(sessions: usize) -> mobicore_serve::LoadReport {
    let server = mobicore_serve::Server::bind(
        "127.0.0.1:0",
        mobicore_serve::ServeConfig::default()
            .with_drain_deadline(std::time::Duration::from_secs(3)),
    )
    .expect("loopback bind");
    let cfg = mobicore_serve::LoadConfig {
        sessions,
        drivers: 4,
        record_secs: 2,
        snapshots_per_session: 50,
        seed: 20_170_315,
        ..mobicore_serve::LoadConfig::default()
    };
    let report = mobicore_serve::run_load(&server.local_addr().to_string(), &cfg)
        .expect("loopback load runs");
    assert!(
        report.clean(),
        "bench loopback run must be loss-free and byte-identical: {report:?}"
    );
    server.shutdown();
    report
}

/// Fleet throughput: a `mobicore-router` in front of two in-process
/// serve shards, driven by the fleet orchestrator — `sessions` device
/// sessions multiplexed over hot router connections, each session a
/// Route+Hello round trip, one windowed snapshot batch, and a Bye.
fn fleet_loopback(sessions: usize) -> mobicore_serve::FleetReport {
    let shard_cfg = || {
        mobicore_serve::ServeConfig::default()
            .with_drain_deadline(std::time::Duration::from_secs(3))
    };
    let s0 = mobicore_serve::Server::bind("127.0.0.1:0", shard_cfg()).expect("bind s0");
    let s1 = mobicore_serve::Server::bind("127.0.0.1:0", shard_cfg()).expect("bind s1");
    let shards = vec![
        mobicore_serve::Shard {
            name: "s0".to_string(),
            addr: s0.local_addr().to_string(),
        },
        mobicore_serve::Shard {
            name: "s1".to_string(),
            addr: s1.local_addr().to_string(),
        },
    ];
    let router = mobicore_serve::Router::bind(
        "127.0.0.1:0",
        shards,
        mobicore_serve::RouterConfig::default()
            .with_drain_deadline(std::time::Duration::from_secs(3)),
    )
    .expect("bind router");
    let cfg = mobicore_serve::FleetConfig {
        sessions,
        per_conn: 250,
        drivers: 4,
        window: 8,
        record_secs: 1,
        snapshots_per_session: 2,
        seed: 20_170_315,
        ..mobicore_serve::FleetConfig::default()
    };
    let report = mobicore_serve::run_fleet(&router.local_addr().to_string(), &cfg)
        .expect("fleet loopback runs");
    assert!(
        report.clean(),
        "bench fleet run must be loss-free and byte-identical: {report:?}"
    );
    router.shutdown();
    s0.shutdown();
    s1.shutdown();
    report
}

/// A bench-sized governor tournament: the thesis policy, the stock
/// Android baseline, and the online learner over three catalog
/// scenarios × three seeds. Small enough to run in about a second,
/// big enough that `runs_per_s` exercises the real cell fan-out (and
/// the energy ratios are byte-deterministic, so the learned-vs-baseline
/// gap doubles as a quality trend line, not just a speed one).
fn tournament_bench() -> mobicore_tournament::TournamentOutput {
    let spec = mobicore_tournament::TournamentSpec {
        name: "bench".to_string(),
        policies: vec![
            "mobicore".to_string(),
            "android-default".to_string(),
            "learned".to_string(),
        ],
        scenarios: vec![
            "steady-video".to_string(),
            "mixed-day-mini".to_string(),
            "idle-day".to_string(),
        ],
        seeds: (20_170_315..20_170_318).collect(),
        secs: 20,
    };
    mobicore_tournament::run(&spec)
}

/// `bench.host_cpus` from the newest committed `BENCH_*.json` at the
/// repo root, so this run's manifest can be tagged when the host
/// changed underneath the trend line (the BENCH_04→06 sim-throughput
/// "regression" was really `bench.host_cpus` going 4→1).
fn latest_committed_host_cpus(root: &Path) -> Option<f64> {
    let mut candidates: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    candidates.sort();
    // Names are BENCH_NN.json, so lexicographic max == newest.
    let newest = candidates.pop()?;
    let text = std::fs::read_to_string(&newest).ok()?;
    let m = RunManifest::from_json_text(&text).ok()?;
    m.metrics.get("bench.host_cpus").copied()
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_08.json".into());
    let profile = profiles::nexus5();
    let snap = snapshot([0.9, 0.4, 0.2, 0.05]);
    const ROUNDS: usize = 7;
    const ITERS: u32 = 10_000;

    eprintln!("timing per-sample decision paths ({ROUNDS} rounds x {ITERS} iters)...");
    let mut policy = MobiCore::new(&profile);
    let mobicore_ns = time_ns_per_op(ROUNDS, ITERS, || {
        let mut ctl = CpuControl::new();
        policy.on_sample(black_box(&snap), &mut ctl);
        black_box(ctl.take());
    });
    let mut bw = BandwidthAnalyzer::new(MobiCoreConfig::default());
    let mut u = 0.0f64;
    let bw_ns = time_ns_per_op(ROUNDS, ITERS, || {
        u = (u + 0.013) % 0.6;
        black_box(bw.decide(Utilization::new(u)));
    });
    let dcs = DcsPass::new(MobiCoreConfig::default());
    let dcs_ns = time_ns_per_op(ROUNDS, ITERS, || {
        black_box(dcs.decide(black_box(&snap), Quota::FULL));
    });

    eprintln!("measuring simulator throughput...");
    let wall = Instant::now();
    let (sim_s_per_wall_s, sim) = sim_throughput(10);

    eprintln!("measuring idle-day throughput (cyclic vs event-driven)...");
    let idle_cyclic = idle_throughput(SimEngine::Cyclic, 5);
    let idle_event = idle_throughput(SimEngine::EventDriven, 5);
    eprintln!(
        "idle-day: {idle_cyclic:.0} sim-s/wall-s cyclic vs {idle_event:.0} \
         event-driven (×{:.2})",
        idle_event / idle_cyclic
    );

    eprintln!("measuring sweep throughput (--jobs 1 vs --jobs 4)...");
    let sweep_j1 = sweep_jobs_per_s(1, 5, 3);
    let sweep_j4 = sweep_jobs_per_s(4, 5, 3);
    let speedup = sweep_j4 / sweep_j1;
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "sweep: {sweep_j1:.2} jobs/s (j1) vs {sweep_j4:.2} jobs/s (j4), \
         speedup ×{speedup:.2} on {host_cpus} host cpu(s)"
    );

    eprintln!("measuring serve loopback throughput (128 sessions)...");
    let serve = serve_loopback(128);
    eprintln!(
        "serve: {:.0} decisions/s, rtt p50 {:.0} us / p99 {:.0} us / p999 {:.0} us",
        serve.decisions_per_s,
        serve.rtt_us.quantile(0.50),
        serve.rtt_us.quantile(0.99),
        serve.rtt_us.quantile(0.999),
    );

    eprintln!("measuring fleet throughput (router + 2 shards, 100k sessions)...");
    let fleet = fleet_loopback(100_000);
    eprintln!(
        "fleet: {} sessions over {} shard(s), {:.0} decisions/s, rtt p99 {:.0} us",
        fleet.sessions,
        fleet.shard_sessions.len(),
        fleet.decisions_per_s,
        fleet.rtt_us.quantile(0.99),
    );

    eprintln!("measuring fleetsim multiplexed vs independent throughput (1000 devices)...");
    let fleet_spec = |mode: fleet::Mode| fleet::FleetSpec {
        devices: 1000,
        secs: 10,
        mode,
        ..fleet::FleetSpec::default()
    };
    let multiplexed = fleet::run(&fleet_spec(fleet::Mode::Fleet));
    let independent = fleet::run(&fleet_spec(fleet::Mode::Independent));
    let fleetsim_speedup = multiplexed.device_s_per_wall_s / independent.device_s_per_wall_s;
    eprintln!(
        "fleetsim: {:.0} device-s/wall-s multiplexed vs {:.0} independent \
         (×{fleetsim_speedup:.2}) over {} chunks",
        multiplexed.device_s_per_wall_s, independent.device_s_per_wall_s, multiplexed.chunks,
    );

    eprintln!("measuring tournament throughput (3 policies x 3 scenarios x 3 seeds)...");
    let tournament = tournament_bench();
    let energy = |p: &str| {
        tournament
            .leaderboard
            .entries
            .iter()
            .find(|e| e.policy == p)
            .map(|e| e.overall.energy_mj)
            .expect("policy raced in the bench tournament")
    };
    let learned_over_mobicore = energy("learned") / energy("mobicore");
    let learned_over_default = energy("learned") / energy("android-default");
    eprintln!(
        "tournament: {} runs at {:.1} runs/s; learned energy x{learned_over_mobicore:.3} \
         of mobicore, x{learned_over_default:.3} of android-default",
        tournament.runs, tournament.runs_per_s,
    );

    let mut m = sim.manifest("bench-08");
    m.kind = "bench".to_string();
    m.git = git_describe(std::path::Path::new("."));
    m.created_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .and_then(|d| u64::try_from(d.as_millis()).ok());
    m.wall_ms = Some(wall.elapsed().as_secs_f64() * 1e3);
    m.metrics
        .insert("bench.mobicore_on_sample_ns".into(), mobicore_ns);
    m.metrics.insert("bench.bandwidth_decide_ns".into(), bw_ns);
    m.metrics.insert("bench.dcs_decide_ns".into(), dcs_ns);
    m.metrics
        .insert("bench.sim_s_per_wall_s".into(), sim_s_per_wall_s);
    m.metrics
        .insert("bench.sim_s_per_wall_s_idle_cyclic".into(), idle_cyclic);
    m.metrics
        .insert("bench.sim_s_per_wall_s_event".into(), idle_event);
    // The headline sweep metric is the --jobs 4 figure-suite rate; j1 and
    // the ratio are recorded alongside so the trajectory stays readable
    // on hosts with different core counts (see docs/performance.md).
    m.metrics.insert("bench.sweep_jobs_per_s".into(), sweep_j4);
    m.metrics
        .insert("bench.sweep_jobs_per_s_j1".into(), sweep_j1);
    m.metrics
        .insert("bench.sweep_speedup_j4_over_j1".into(), speedup);
    m.metrics.insert("bench.host_cpus".into(), host_cpus as f64);
    if host_cpus == 1 {
        // A single-CPU host cannot show parallel speedup; the ratio is
        // still recorded for the trend line, but this tag tells readers
        // (and the bench gate) that it is not a meaningful signal here.
        m.tags
            .insert("sweep_speedup".into(), "skipped-single-cpu".into());
        eprintln!("sweep speedup tagged skipped-single-cpu (host has 1 cpu)");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Some(prev) = latest_committed_host_cpus(&root) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let prev = prev.round() as usize;
        if prev != host_cpus {
            // The host changed under the trend line: absolute throughput
            // against the previous baseline measures the hardware swap,
            // not the code. The bench gate skips on this condition; the
            // tag records it for readers of the committed manifest.
            m.tags.insert(
                "bench_gate".into(),
                format!("skipped-host-mismatch-{prev}-to-{host_cpus}-cpus"),
            );
            eprintln!(
                "host changed since the last committed baseline \
                 ({prev} → {host_cpus} cpus); tagged bench_gate=skipped-host-mismatch"
            );
        }
    }
    m.metrics
        .insert("serve.decisions_per_s".into(), serve.decisions_per_s);
    m.metrics
        .insert("serve.rtt_p50_us".into(), serve.rtt_us.quantile(0.50));
    m.metrics
        .insert("serve.rtt_p99_us".into(), serve.rtt_us.quantile(0.99));
    m.metrics
        .insert("serve.rtt_p999_us".into(), serve.rtt_us.quantile(0.999));
    #[allow(clippy::cast_precision_loss)]
    m.metrics
        .insert("serve.sessions".into(), serve.sessions as f64);
    #[allow(clippy::cast_precision_loss)]
    m.metrics
        .insert("fleet.sessions".into(), fleet.sessions as f64);
    m.metrics
        .insert("fleet.decisions_per_s".into(), fleet.decisions_per_s);
    m.metrics
        .insert("fleet.rtt_p99_us".into(), fleet.rtt_us.quantile(0.99));
    for (name, hist) in &fleet.shard_rtt_us {
        m.metrics
            .insert(format!("fleet.rtt_p99_us.{name}"), hist.quantile(0.99));
    }
    #[allow(clippy::cast_precision_loss)]
    for (name, sessions) in &fleet.shard_sessions {
        m.metrics
            .insert(format!("fleet.sessions.{name}"), *sessions as f64);
    }
    m.metrics.insert("bench.fleetsim_devices".into(), 1000.0);
    m.metrics.insert(
        "bench.fleetsim_device_s_per_wall_s".into(),
        multiplexed.device_s_per_wall_s,
    );
    m.metrics.insert(
        "bench.fleetsim_independent_device_s_per_wall_s".into(),
        independent.device_s_per_wall_s,
    );
    m.metrics.insert(
        "bench.fleetsim_speedup_over_independent".into(),
        fleetsim_speedup,
    );
    m.metrics
        .insert("bench.tournament_runs_per_s".into(), tournament.runs_per_s);
    #[allow(clippy::cast_precision_loss)]
    m.metrics
        .insert("bench.tournament_runs".into(), tournament.runs as f64);
    // Energy ratios are deterministic given (spec, seed): they move only
    // when a policy's decisions change, making them a quality trend line
    // that is immune to host swaps (unlike the throughput metrics).
    m.metrics.insert(
        "bench.tournament_learned_over_mobicore_energy".into(),
        learned_over_mobicore,
    );
    m.metrics.insert(
        "bench.tournament_learned_over_default_energy".into(),
        learned_over_default,
    );

    match std::fs::write(&out, m.to_json_text()) {
        Ok(()) => {
            eprintln!("wrote {out}");
            println!("{}", m.summary_text());
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
