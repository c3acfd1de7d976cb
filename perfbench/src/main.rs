//! The MobiCore reproduction's benchmark: one closed-loop workload per
//! end-to-end path, timed from outside through the crates' public
//! entry points (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <device-busy|fleet-idle|decision-service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer ones with `--trace 1`. The line before it records the
//! host, the build, the seed and the sample count behind every
//! percentile.

mod decision_service;
mod device_busy;
mod fleet_idle;
mod ledger;
mod report;

use ledger::SimLedger;
use report::{host_metadata, median, notes_line, peak_rss_mb, result_line, Fastest, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["device-busy", "fleet-idle", "decision-service"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Per-layer metrics that do not depend on the policy list, with units.
const LAYERS: [(&str, &str); 41] = [
    ("sim.step_ns", "ns"),
    ("sim.step_self_ns", "ns"),
    ("sim.steps", "count"),
    ("policy.samples", "count"),
    ("policy.share", "frac"),
    ("workloads.on_tick_ns", "ns"),
    ("workloads.share", "frac"),
    ("sim.fleet.advance_ns", "ns"),
    ("sim.fleet.advances", "count"),
    ("sim.fleet.ticks_per_advance", "ticks"),
    ("sim.fleet.burst_frac", "frac"),
    ("sim.build_us", "us"),
    ("sim.build_us.learned", "us"),
    ("sweep.busy_frac", "frac"),
    ("sweep.job_ms_max_over_p50", "ratio"),
    ("telemetry.merge_us", "us"),
    ("sim.report_us", "us"),
    ("serve.client.route_hello_us", "us"),
    ("serve.client.submit_ns", "ns"),
    ("serve.client.flush_ns", "ns"),
    ("serve.client.collect_us", "us"),
    ("serve.protocol.encode_ns.snapshot", "ns"),
    ("serve.protocol.encode_ns.decision", "ns"),
    ("serve.protocol.decode_ns.snapshot", "ns"),
    ("serve.protocol.decode_ns.decision", "ns"),
    ("serve.server.decision_us_p50", "us"),
    ("serve.server.decision_us_p99", "us"),
    ("serve.server.backpressure_events", "count"),
    ("serve.server.aborted_sessions", "count"),
    ("serve.server.protocol_errors", "count"),
    ("serve.direct_rtt_p50_us", "us"),
    ("serve.router.relay_us", "us"),
    ("serve.wire_rtt_us", "us"),
    ("serve.router.leg_reuse_ratio", "frac"),
    ("serve.router.relay_errors", "count"),
    ("process.cpu_us_per_decision", "us"),
    ("lockstep_rtt_p99_us", "us"),
    ("session_rtt_p99_us", "us"),
    ("trace_overhead", "frac"),
    ("unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Parsed command line.
pub struct Opts {
    workload: String,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    /// Small inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Flip one reference byte, to prove the output checks fire.
    pub corrupt_reference: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_reference: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => opts.tiny = true,
            "--corrupt-reference" => opts.corrupt_reference = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage("unknown or missing --workload");
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    opts
}

/// The per-layer table of a traced run: every name starts at 0 (the
/// layer did no work on this workload) and the workload fills in what
/// it measured.
pub struct Layers {
    values: BTreeMap<String, f64>,
    order: Vec<(String, &'static str)>,
}

impl Layers {
    fn new() -> Self {
        let mut order: Vec<(String, &'static str)> = Vec::new();
        for (i, &(name, unit)) in LAYERS.iter().enumerate() {
            order.push((name.to_string(), unit));
            if i == 4 {
                for p in mobicore_experiments::policy::names() {
                    order.push((format!("policy.{p}.on_sample_ns"), "ns"));
                }
            }
        }
        Layers {
            values: BTreeMap::new(),
            order,
        }
    }

    /// The tail latencies of an untraced pass's kept repetitions: too
    /// noisy between runs on a shared host to carry an end-to-end
    /// bound, so they are reported here.
    pub fn tails(&mut self, fastest: &Fastest) {
        let (lockstep, session) = fastest.latency(0.99);
        self.set("lockstep_rtt_p99_us", lockstep);
        self.set("session_rtt_p99_us", session);
    }

    /// Sets one per-layer metric.
    ///
    /// # Panics
    ///
    /// On a name outside the table (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.order.iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The policy layer: per-policy mean `on_sample` cost, samples per
    /// repetition (round or tournament), and policy time over `wall_ns`.
    pub fn policies(&mut self, names: &[&str], ledger: &SimLedger, wall_ns: f64, reps: u64) {
        for (name, acc) in names.iter().zip(&ledger.policy) {
            self.set(&format!("policy.{name}.on_sample_ns"), acc.mean_ns());
        }
        let total = ledger.policy_total();
        self.set("policy.samples", (total.calls / reps.max(1)) as f64);
        self.set("policy.share", total.ns as f64 / wall_ns);
    }

    fn into_outcome(self, out: &mut Outcome) {
        for (name, unit) in &self.order {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            out.put(name.clone(), v, unit);
        }
    }
}

/// Runs `f` `n` times, keeping the last result and the median set-up
/// time; earlier results go to `discard`.
fn timed_setups<S>(n: usize, mut f: impl FnMut() -> S, mut discard: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// glibc's per-thread malloc arenas: the sweep executor starts fresh
/// worker threads for every tournament, and with the default arena cap
/// (8 per CPU) peak RSS then depends on how many threads a run happened
/// to start. Two arenas (the sweep width) make it repeat.
const ARENAS: (&str, &str) = ("MALLOC_ARENA_MAX", "2");

fn main() {
    // The allocator reads its tunables at process start, so pin them by
    // re-running this binary once with them set.
    if std::env::var(ARENAS.0).as_deref() != Ok(ARENAS.1) {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(ARENAS.0, ARENAS.1)
                .status()
        });
        std::process::exit(status.map_or(1, |s| s.code().unwrap_or(1)));
    }
    let opts = parse_args();
    // Pin what ambient environment could otherwise reshape: the engine
    // (device-busy pins cyclic per run as well) and the sweep width,
    // never more workers than the host has CPUs.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = nproc.min(2);
    std::env::set_var(mobicore_sim::ENGINE_ENV, "cyclic");
    std::env::set_var(mobicore_sweep::JOBS_ENV, jobs.to_string());

    let mut out = Outcome::default();
    let mut layers = Layers::new();
    // A traced run sets up once, then splits its time between an
    // untraced pass (the overhead baseline) and the traced pass.
    let setups = if opts.trace { 1 } else { SETUPS };
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let setup_s = match opts.workload.as_str() {
        "device-busy" => {
            let (setup, s) = timed_setups(setups, || device_busy::setup(&opts), drop);
            out.note("input_digest", format!("{:016x}", setup.inputs));
            let pass = device_busy::untraced(&setup, untraced_s);
            out.attempted += pass.attempted;
            out.failed += pass.failed;
            if opts.trace {
                layers.tails(&pass.fastest);
                device_busy::traced(&setup, untraced_s, &pass, &mut layers, &mut out);
            } else {
                pass.fastest.put(&mut out);
            }
            s
        }
        "fleet-idle" => {
            let (setup, s) = timed_setups(setups, || fleet_idle::setup(&opts, jobs), drop);
            out.note("input_digest", format!("{:016x}", setup.inputs));
            let pass = fleet_idle::untraced(&setup, untraced_s);
            out.attempted += pass.attempted;
            out.failed += pass.failed;
            if opts.trace {
                layers.tails(&pass.fastest);
                fleet_idle::traced(&setup, untraced_s, &pass, &mut layers, &mut out);
            } else {
                pass.fastest.put(&mut out);
            }
            s
        }
        _ => {
            let stop = |s: decision_service::Setup| {
                s.stack.stop();
            };
            let (setup, s) = timed_setups(setups, || decision_service::setup(&opts), stop);
            out.note("input_digest", format!("{:016x}", setup.inputs));
            if opts.trace {
                decision_service::traced(&setup, opts.seconds, &mut layers, &mut out);
            } else {
                decision_service::end_to_end(&setup, opts.seconds, &mut out);
            }
            let (router, shards) = setup.stack.stop();
            let aborted: u64 = shards.iter().map(|s| s.aborted_sessions).sum();
            let errors: u64 = shards.iter().map(|s| s.protocol_errors).sum();
            out.note("router_relay_errors", router.relay_errors);
            out.note("shard_aborted_sessions", aborted);
            out.note("shard_protocol_errors", errors);
            out.attempted += 1;
            out.failed += u64::from(aborted + errors + router.relay_errors > 0);
            s
        }
    };

    if opts.trace {
        layers.set("failed_frac", out.failed_frac());
        layers.into_outcome(&mut out);
        out.note("setup_s", setup_s);
    } else {
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        out.note("setups", SETUPS);
    }
    out.note("workload", &opts.workload);
    out.note("seed", opts.seed);
    out.note("seconds", opts.seconds);
    out.note("trace", u8::from(opts.trace));
    out.note("jobs", jobs);
    out.note("failed_frac", out.failed_frac());
    let meta = host_metadata();
    println!("{}", notes_line(&meta, &out));
    println!("{}", result_line(&out));
}
