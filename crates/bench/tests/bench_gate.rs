//! Opt-in performance regression gate (ISSUE 3 satellite).
//!
//! Compares a freshly measured `bench.sim_s_per_wall_s` against the most
//! recent committed `BENCH_*.json` at the repo root and fails on a >25 %
//! regression. Opt-in because a cold CI box's absolute throughput is
//! noisy: enable with
//!
//! ```text
//! MOBICORE_BENCH_GATE=1 cargo test --release -p mobicore-bench --test bench_gate
//! ```
//!
//! The gate insists on an optimized build — debug-profile throughput is
//! ~10× below any committed release number, so comparing would only
//! measure the profile, not a regression.

use mobicore::MobiCore;
use mobicore_model::profiles;
use mobicore_sim::{SimConfig, Simulation};
use mobicore_telemetry::RunManifest;
use mobicore_workloads::BusyLoop;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Maximum tolerated drop vs the committed baseline.
const MAX_REGRESSION: f64 = 0.25;

/// The test harness runs `#[test]`s on parallel threads; on a small
/// host two concurrent gate measurements steal CPU from each other and
/// fail spuriously. Each gate holds this lock across its measurement.
static GATE_LOCK: Mutex<()> = Mutex::new(());

/// The same scenario `bench-manifest` records, so numbers are comparable.
fn fresh_sim_s_per_wall_s(secs: u64) -> f64 {
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
    secs as f64 / t.elapsed().as_secs_f64()
}

/// A fresh loopback serve measurement shaped like the one
/// `bench-manifest` records (128 sessions over 4 drivers, 50 snapshots
/// each), so numbers are comparable with the committed baseline.
fn fresh_serve_decisions_per_s() -> f64 {
    let server = mobicore_serve::Server::bind(
        "127.0.0.1:0",
        mobicore_serve::ServeConfig::default()
            .with_drain_deadline(std::time::Duration::from_secs(3)),
    )
    .expect("loopback bind");
    let cfg = mobicore_serve::LoadConfig {
        sessions: 128,
        drivers: 4,
        record_secs: 2,
        snapshots_per_session: 50,
        seed: 20_170_315,
        ..mobicore_serve::LoadConfig::default()
    };
    let report = mobicore_serve::run_load(&server.local_addr().to_string(), &cfg)
        .expect("loopback load runs");
    assert!(report.clean(), "gate run must be loss-free: {report:?}");
    server.shutdown();
    report.decisions_per_s
}

/// A fresh tournament measurement shaped exactly like the one
/// `bench-manifest` records (3 policies × 3 scenarios × 3 seeds ×
/// 20 s), so `runs_per_s` is comparable with the committed baseline.
fn fresh_tournament() -> mobicore_tournament::TournamentOutput {
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

/// The newest committed `BENCH_NN.json` manifest at the repo root.
fn latest_committed_manifest(root: &Path) -> Option<(PathBuf, RunManifest)> {
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(root)
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
    Some((newest, m))
}

/// Current host's logical CPU count — the counterpart of the
/// `bench.host_cpus` metric every committed manifest records.
fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// True (with an explanatory note) when `baseline` was recorded on a
/// host with a different CPU count than this one. Absolute throughput
/// is not comparable across hosts — the BENCH_04→06 sim-throughput
/// "regression" (2910→2274 sim-s/wall-s) was really `bench.host_cpus`
/// going 4→1 — so every gate skips on a host change instead of failing
/// on a number that measures the hardware swap, not the code. Baselines
/// that predate the metric can't be checked and compare as before.
fn baseline_host_differs(path: &Path, baseline: &RunManifest) -> bool {
    let Some(recorded) = baseline.metrics.get("bench.host_cpus").copied() else {
        return false;
    };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let recorded = recorded.round() as usize;
    let current = host_cpus();
    if recorded == current {
        return false;
    }
    eprintln!(
        "bench gate skipped: baseline {} was recorded on a {recorded}-cpu host, \
         this host has {current} — absolute throughput is not comparable",
        path.display()
    );
    true
}

/// The newest committed baseline value for `metric`, if any (older
/// baselines predate some metrics — a gate whose metric is absent
/// simply has no baseline yet). `None` (after a printed explanation)
/// also when the baseline host's CPU count differs from this host's,
/// because that comparison would measure the hardware swap.
fn latest_committed_baseline(root: &Path, metric: &str) -> Option<(PathBuf, f64)> {
    let (newest, m) = latest_committed_manifest(root)?;
    if baseline_host_differs(&newest, &m) {
        return None;
    }
    let v = m.metrics.get(metric).copied()?;
    Some((newest, v))
}

#[test]
fn bench_gate_sim_throughput_within_25_pct_of_committed() {
    if std::env::var("MOBICORE_BENCH_GATE").as_deref() != Ok("1") {
        eprintln!("bench gate skipped (set MOBICORE_BENCH_GATE=1 to enable)");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "bench gate skipped: needs an optimized build \
             (run with `cargo test --release`)"
        );
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Some((baseline_path, baseline)) =
        latest_committed_baseline(&root, "bench.sim_s_per_wall_s")
    else {
        eprintln!("bench gate skipped: no comparable committed baseline");
        return;
    };
    let _serial = GATE_LOCK.lock().expect("gate lock");
    let fresh = fresh_sim_s_per_wall_s(10);
    let floor = baseline * (1.0 - MAX_REGRESSION);
    eprintln!(
        "bench gate: fresh {fresh:.1} sim-s/wall-s vs baseline {baseline:.1} \
         ({}), floor {floor:.1}",
        baseline_path.display()
    );
    assert!(
        fresh >= floor,
        "sim throughput regressed >{:.0} %: fresh {fresh:.1} < floor {floor:.1} \
         (baseline {baseline:.1} from {})",
        MAX_REGRESSION * 100.0,
        baseline_path.display()
    );
}

#[test]
fn bench_gate_sweep_speedup_meaningful_only_on_multi_cpu_hosts() {
    if std::env::var("MOBICORE_BENCH_GATE").as_deref() != Ok("1") {
        eprintln!("sweep gate skipped (set MOBICORE_BENCH_GATE=1 to enable)");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "sweep gate skipped: needs an optimized build \
             (run with `cargo test --release`)"
        );
        return;
    }
    if host_cpus() == 1 {
        // A single-CPU host cannot exhibit parallel speedup; bench-manifest
        // still records the ratio but tags it skipped, and this gate
        // follows suit rather than failing on a meaningless number.
        eprintln!("sweep gate skipped: host has 1 cpu, j4-over-j1 speedup is not meaningful");
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Some((baseline_path, baseline_manifest)) = latest_committed_manifest(&root) else {
        eprintln!("sweep gate skipped: no committed BENCH_*.json found");
        return;
    };
    if baseline_host_differs(&baseline_path, &baseline_manifest) {
        // Even the speedup *ratio* shifts with core count (a 2-cpu host
        // cannot reach a 4-cpu host's j4-over-j1), so a host change
        // invalidates this baseline too.
        return;
    }
    if baseline_manifest
        .tags
        .get("sweep_speedup")
        .is_some_and(|t| t.starts_with("skipped"))
        || baseline_manifest.metrics.get("bench.host_cpus").copied() == Some(1.0)
    {
        eprintln!(
            "sweep gate skipped: baseline {} was recorded on a single-cpu host",
            baseline_path.display()
        );
        return;
    }
    let Some(baseline) = baseline_manifest
        .metrics
        .get("bench.sweep_speedup_j4_over_j1")
        .copied()
    else {
        eprintln!("sweep gate skipped: no committed baseline carries the sweep speedup");
        return;
    };
    // On a multi-core host the floor is the stricter of "within 25 % of
    // the committed speedup" and "actually faster than serial at all".
    let floor = (baseline * (1.0 - MAX_REGRESSION)).max(1.0);
    let _serial = GATE_LOCK.lock().expect("gate lock");
    let fresh = {
        use mobicore_experiments::runner::{run_pinned, ManifestSink};
        use mobicore_sweep::Executor;
        let profile = profiles::nexus5();
        let sink = ManifestSink::disabled();
        let measure = |n_jobs: usize| {
            let exec = Executor::new(n_jobs);
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
                    3,
                    20_170_315,
                    &sink,
                )
            });
            std::hint::black_box(reports);
            n as f64 / t.elapsed().as_secs_f64()
        };
        measure(4) / measure(1)
    };
    eprintln!(
        "sweep gate: fresh speedup x{fresh:.2} vs baseline x{baseline:.2}, floor x{floor:.2}"
    );
    assert!(
        fresh >= floor,
        "sweep speedup regressed: fresh x{fresh:.2} < floor x{floor:.2} (baseline x{baseline:.2})"
    );
}

#[test]
fn bench_gate_tournament_throughput_within_25_pct_of_committed() {
    if std::env::var("MOBICORE_BENCH_GATE").as_deref() != Ok("1") {
        eprintln!("tournament gate skipped (set MOBICORE_BENCH_GATE=1 to enable)");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "tournament gate skipped: needs an optimized build \
             (run with `cargo test --release`)"
        );
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Some((baseline_path, baseline)) =
        latest_committed_baseline(&root, "bench.tournament_runs_per_s")
    else {
        eprintln!("tournament gate skipped: no comparable baseline carries tournament_runs_per_s");
        return;
    };
    let _serial = GATE_LOCK.lock().expect("gate lock");
    let out = fresh_tournament();
    let fresh = out.runs_per_s;
    let floor = baseline * (1.0 - MAX_REGRESSION);
    eprintln!(
        "tournament gate: fresh {fresh:.1} runs/s vs baseline {baseline:.1} \
         ({}), floor {floor:.1}",
        baseline_path.display()
    );
    assert!(
        fresh >= floor,
        "tournament throughput regressed >{:.0} %: fresh {fresh:.1} < floor {floor:.1} \
         (baseline {baseline:.1} from {})",
        MAX_REGRESSION * 100.0,
        baseline_path.display()
    );
    // The quality half of the gate: the learned governor must keep
    // undercutting the stock Android baseline on mean energy in the
    // bench-sized field. The ratio is deterministic given the spec, so
    // any failure here is a real behavior change, not noise.
    let energy = |p: &str| {
        out.leaderboard
            .entries
            .iter()
            .find(|e| e.policy == p)
            .map(|e| e.overall.energy_mj)
            .expect("policy raced in the gate tournament")
    };
    let ratio = energy("learned") / energy("android-default");
    eprintln!("tournament gate: learned energy is x{ratio:.3} of android-default");
    assert!(
        ratio < 1.0,
        "learned governor no longer beats android-default on mean energy \
         (ratio x{ratio:.3})"
    );
}

#[test]
fn bench_gate_serve_throughput_within_25_pct_of_committed() {
    if std::env::var("MOBICORE_BENCH_GATE").as_deref() != Ok("1") {
        eprintln!("serve gate skipped (set MOBICORE_BENCH_GATE=1 to enable)");
        return;
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "serve gate skipped: needs an optimized build \
             (run with `cargo test --release`)"
        );
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let Some((baseline_path, baseline)) = latest_committed_baseline(&root, "serve.decisions_per_s")
    else {
        eprintln!("serve gate skipped: no comparable baseline carries serve.decisions_per_s");
        return;
    };
    let _serial = GATE_LOCK.lock().expect("gate lock");
    let fresh = fresh_serve_decisions_per_s();
    let floor = baseline * (1.0 - MAX_REGRESSION);
    eprintln!(
        "serve gate: fresh {fresh:.0} decisions/s vs baseline {baseline:.0} \
         ({}), floor {floor:.0}",
        baseline_path.display()
    );
    assert!(
        fresh >= floor,
        "serve throughput regressed >{:.0} %: fresh {fresh:.0} < floor {floor:.0} \
         (baseline {baseline:.0} from {})",
        MAX_REGRESSION * 100.0,
        baseline_path.display()
    );
}
