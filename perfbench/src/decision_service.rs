//! `decision-service`: an in-process `Router` in front of two 1-worker
//! `Server` shards on loopback, driven closed-loop by two threads that
//! each hold one hot router connection.
//!
//! * Driver A runs long **lockstep** sessions: window 1, one snapshot
//!   per request, no think time — a phone offloading every sample.
//! * Driver B runs short **batched** sessions: Route+Hello, one window-8
//!   batch, Bye — a fleet replay.
//!
//! Sessions rotate over every registered policy. Snapshots come from a
//! `mixed-day` stream recorded at set-up; every decision is
//! byte-compared with an in-process replay built the way the server
//! resolves names, and every ByeAck count with the client's count.

use crate::ledger::{ns_since, Acc};
use crate::report::{digest, mix, process_cpu_us, Dist, Fastest, Outcome, Window};
use crate::{Layers, Opts};
use mobicore_experiments::policy;
use mobicore_governors::learned::DEFAULT_SEED;
use mobicore_serve::protocol::{decode_frame, encode_frame, frame_bytes};
use mobicore_serve::{
    record_snapshots, registry, ClientError, ClientSession, Frame, Router, RouterConfig,
    RouterStats, ServeConfig, ServeStats, Server, Shard,
};
use mobicore_sim::{CpuControl, PolicySnapshot};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Device profile every session names.
const PROFILE: &str = "nexus5";
/// Snapshots per batched session (its pipelining window).
const BATCH: usize = 8;
/// Distinct batch start offsets in the stream.
const OFFSETS: usize = 16;
/// Distinct routing keys.
const KEYS: usize = 64;
/// Measurement windows per second.
const WINDOWS_PER_S: f64 = 10.0;
/// Fastest windows kept, of the 400 a 40-second run makes: few, so one
/// quiet second of the host is enough.
const KEEP: usize = 10;

/// The router and its shards.
pub struct Stack {
    router: Router,
    shards: Vec<Server>,
}

impl Stack {
    fn start() -> Stack {
        let cfg = ServeConfig::default()
            .with_workers(1)
            .with_drain_deadline(Duration::from_secs(2));
        let shards: Vec<Server> = (0..2)
            .map(|_| Server::bind("127.0.0.1:0", cfg.clone()).expect("bind a loopback shard"))
            .collect();
        let named = shards
            .iter()
            .enumerate()
            .map(|(i, s)| Shard {
                name: format!("s{i}"),
                addr: s.local_addr().to_string(),
            })
            .collect();
        let rcfg = RouterConfig::default()
            .with_workers(1)
            .with_drain_deadline(Duration::from_secs(2));
        let router = Router::bind("127.0.0.1:0", named, rcfg).expect("bind the loopback router");
        Stack { router, shards }
    }

    /// Drains and joins the router, then every shard.
    pub fn stop(self) -> (RouterStats, Vec<ServeStats>) {
        let r = self.router.shutdown();
        let s = self.shards.into_iter().map(Server::shutdown).collect();
        (r, s)
    }
}

/// Everything built before the first measured decision.
pub struct Setup {
    snaps: Vec<PolicySnapshot>,
    names: Vec<&'static str>,
    /// Per policy: the encoded Decision for every snapshot of a
    /// lockstep session over the whole stream.
    lockstep_ref: Vec<Vec<Vec<u8>>>,
    /// Batch start offsets into the stream.
    offsets: Vec<usize>,
    /// Per policy, per offset: the encoded Decisions of that batch.
    batch_ref: Vec<Vec<Vec<Vec<u8>>>>,
    keys: Vec<u64>,
    /// Digest of the generated inputs: the stream, batch offsets, keys.
    pub inputs: u64,
    pub stack: Stack,
}

/// A fresh in-process replay of `snaps` through `name`, built the way
/// the server resolves names, as encoded Decision frames.
fn replay(name: &str, snaps: &[PolicySnapshot]) -> Vec<Vec<u8>> {
    let device = registry::profile_by_name(PROFILE).expect("known profile");
    let mut p = registry::build_policy(name, &device).expect("registered policy");
    let mut ctl = CpuControl::new();
    snaps
        .iter()
        .enumerate()
        .map(|(i, snap)| {
            p.on_sample(snap, &mut ctl);
            frame_bytes(&Frame::Decision {
                seq: i as u64,
                commands: ctl.take(),
                notes: ctl.take_notes(),
            })
        })
        .collect()
}

/// Records the stream, replays the references and starts the stack.
pub fn setup(opts: &Opts) -> Setup {
    let secs = if opts.tiny { 2 } else { 60 };
    let snaps = record_snapshots(PROFILE, "mixed-day", mix(opts.seed, 1) % 1_000_000, secs)
        .expect("record the mixed-day stream");
    let names = policy::names();
    let mut lockstep_ref: Vec<Vec<Vec<u8>>> = names.iter().map(|n| replay(n, &snaps)).collect();
    let span = snaps.len().saturating_sub(BATCH).max(1) as u64;
    let offsets: Vec<usize> = (0..OFFSETS)
        .map(|i| (mix(opts.seed, 2 + i as u64) % span) as usize)
        .collect();
    let mut batch_ref: Vec<Vec<Vec<Vec<u8>>>> = names
        .iter()
        .map(|n| {
            offsets
                .iter()
                .map(|&o| replay(n, &snaps[o..o + BATCH]))
                .collect()
        })
        .collect();
    if opts.corrupt_reference {
        lockstep_ref[0][0][0] ^= 1;
        batch_ref[0][0][0][0] ^= 1;
    }
    let keys: Vec<u64> = (0..KEYS).map(|i| mix(opts.seed, 1000 + i as u64)).collect();
    let mut bytes: Vec<u8> = snaps
        .iter()
        .flat_map(|s| {
            frame_bytes(&Frame::Snapshot {
                seq: 0,
                snap: s.clone(),
            })
        })
        .collect();
    bytes.extend(offsets.iter().flat_map(|o| (*o as u64).to_le_bytes()));
    bytes.extend(keys.iter().flat_map(|k| k.to_le_bytes()));
    Setup {
        inputs: digest(&bytes),
        snaps,
        names,
        lockstep_ref,
        offsets,
        batch_ref,
        keys,
        stack: Stack::start(),
    }
}

/// One driver's counts and timings.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Driver A, through the router, per window.
    lockstep: Vec<Dist>,
    /// Driver A, straight to shard `s0` (traced run only).
    direct: Dist,
    /// Driver A, raw loopback echo of the same frame sizes (traced
    /// run only).
    wire: Dist,
    /// Driver B, Route to ByeAck, per window.
    session: Vec<Dist>,
    route_hello: Acc,
    submit: Acc,
    flush: Acc,
    collect: Acc,
}

impl Tally {
    fn new(windows: usize) -> Self {
        Tally {
            lockstep: vec![Dist::default(); windows],
            session: vec![Dist::default(); windows],
            ..Tally::default()
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (a, b) in self.lockstep.iter_mut().zip(&o.lockstep) {
            a.merge(b);
        }
        for (a, b) in self.session.iter_mut().zip(&o.session) {
            a.merge(b);
        }
        self.direct.merge(&o.direct);
        self.wire.merge(&o.wire);
        self.route_hello.merge(o.route_hello);
        self.submit.merge(o.submit);
        self.flush.merge(o.flush);
        self.collect.merge(o.collect);
    }
}

/// Where driver A sends its lockstep traffic.
#[derive(Clone, Copy, PartialEq)]
enum Target {
    Router,
    Direct,
    Wire,
}

/// State shared by the drivers of one pass.
struct Ctx<'a> {
    setup: &'a Setup,
    router_addr: String,
    s0_addr: String,
    stop: AtomicBool,
    /// Verified decisions so far (both drivers).
    verified: AtomicU64,
    traced: bool,
    start: Instant,
    window_s: f64,
    windows: usize,
}

impl Ctx<'_> {
    /// The window `t` falls in (the last one past the end).
    fn window(&self, t: Instant) -> usize {
        let w = ((t - self.start).as_secs_f64() / self.window_s) as usize;
        w.min(self.windows - 1)
    }

    fn stopped(&self) -> bool {
        // relaxed: a stop hint polled between requests; publishes no data.
        self.stop.load(Ordering::Relaxed)
    }

    /// Counts one verified decision or one failure.
    fn verify(&self, got: Frame, want: &[u8], tally: &mut Tally) {
        tally.attempted += 1;
        if frame_bytes(&got) == want {
            // relaxed: a statistic sampled by the pass's clock thread.
            self.verified.fetch_add(1, Ordering::Relaxed);
        } else {
            tally.failed += 1;
        }
    }
}

fn decision_frame(d: mobicore_serve::RemoteDecision) -> Frame {
    Frame::Decision {
        seq: d.seq,
        commands: d.commands,
        notes: d.notes,
    }
}

/// One lockstep session of policy `p` over the stream, until the stream
/// ends, the pass stops, or `until` passes.
fn lockstep_session(
    ctx: &Ctx<'_>,
    conn: &mut ClientSession,
    p: usize,
    key: u64,
    target: Target,
    until: Instant,
    tally: &mut Tally,
) -> Result<(), ClientError> {
    let name = ctx.setup.names[p];
    let t = Instant::now();
    if target == Target::Direct {
        conn.hello(name, PROFILE, DEFAULT_SEED)?;
    } else {
        conn.route_hello(key, name, PROFILE, DEFAULT_SEED)?;
    }
    if ctx.traced {
        tally.route_hello.add(ns_since(t));
    }
    let mut sent = 0u64;
    for (j, snap) in ctx.setup.snaps.iter().enumerate() {
        if ctx.stopped() || Instant::now() >= until {
            break;
        }
        let t0 = Instant::now();
        let d = if ctx.traced {
            conn.submit(snap)?;
            let t1 = Instant::now();
            conn.flush()?;
            let t2 = Instant::now();
            let d = conn.collect()?;
            tally.submit.add((t1 - t0).as_nanos() as u64);
            tally.flush.add((t2 - t1).as_nanos() as u64);
            tally.collect.add(ns_since(t2));
            d
        } else {
            conn.submit(snap)?;
            conn.flush()?;
            conn.collect()?
        };
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        match target {
            Target::Direct => tally.direct.record(rtt_us),
            _ => tally.lockstep[ctx.window(t0)].record(rtt_us),
        }
        sent += 1;
        ctx.verify(decision_frame(d), &ctx.setup.lockstep_ref[p][j], tally);
    }
    let acked = conn.end_session()?;
    tally.attempted += 1;
    if acked != sent {
        tally.failed += 1;
    }
    Ok(())
}

/// Driver A: lockstep sessions through the router; in the traced run
/// the last two thirds go straight to shard `s0`, then to a raw echo.
fn driver_a(ctx: &Ctx<'_>, phases: [Instant; 2], echo: Option<&TcpListener>) -> Tally {
    let mut tally = Tally::new(ctx.windows);
    let far = Instant::now() + Duration::from_secs(3600);
    let mut conn: Option<ClientSession> = None;
    let mut target = Target::Router;
    let mut i = 0usize;
    while !ctx.stopped() {
        if ctx.traced {
            let now = Instant::now();
            let want = if now < phases[0] {
                Target::Router
            } else if now < phases[1] {
                Target::Direct
            } else {
                Target::Wire
            };
            if want != target {
                conn = None;
                target = want;
            }
        }
        if target == Target::Wire {
            if let Some(listener) = echo {
                wire_echo(ctx, listener, &mut tally);
            }
            break;
        }
        let addr = if target == Target::Direct {
            &ctx.s0_addr
        } else {
            &ctx.router_addr
        };
        if conn.is_none() {
            match ClientSession::connect_raw(addr.as_str()) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let until = if !ctx.traced {
            far
        } else if target == Target::Router {
            phases[0]
        } else {
            phases[1]
        };
        let p = i % ctx.setup.names.len();
        let key = ctx.setup.keys[i % ctx.setup.keys.len()];
        let c = conn.as_mut().expect("connected above");
        if lockstep_session(ctx, c, p, key, target, until, &mut tally).is_err() {
            tally.attempted += 1;
            tally.failed += 1;
            conn = None;
        }
        i += 1;
    }
    tally
}

/// Raw loopback ping-pong of a snapshot-sized request and a
/// decision-sized reply against a blocking echo thread: the wire and
/// kernel share of a lockstep round trip.
fn wire_echo(ctx: &Ctx<'_>, listener: &TcpListener, tally: &mut Tally) {
    let req = frame_bytes(&Frame::Snapshot {
        seq: 0,
        snap: ctx.setup.snaps[ctx.setup.snaps.len() / 2].clone(),
    });
    let resp = ctx.setup.lockstep_ref[0][ctx.setup.snaps.len() / 2].clone();
    let addr = listener.local_addr().expect("echo listener address");
    std::thread::scope(|s| {
        let echo = s.spawn(|| -> std::io::Result<()> {
            let (mut sock, _) = listener.accept()?;
            sock.set_nodelay(true)?;
            let mut buf = vec![0u8; req.len()];
            loop {
                if sock.read_exact(&mut buf).is_err() {
                    return Ok(());
                }
                sock.write_all(&resp)?;
            }
        });
        let mut run = || -> std::io::Result<()> {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            let mut buf = vec![0u8; resp.len()];
            while !ctx.stopped() {
                let t0 = Instant::now();
                sock.write_all(&req)?;
                sock.read_exact(&mut buf)?;
                tally.wire.record(t0.elapsed().as_secs_f64() * 1e6);
            }
            Ok(())
        };
        if run().is_err() {
            tally.attempted += 1;
            tally.failed += 1;
        }
        if !matches!(echo.join(), Ok(Ok(()))) {
            tally.attempted += 1;
            tally.failed += 1;
        }
    });
}

/// One batched session: Route+Hello, a corked window of `BATCH`
/// snapshots, collect them all, Bye.
fn batch_session(
    ctx: &Ctx<'_>,
    conn: &mut ClientSession,
    p: usize,
    o: usize,
    key: u64,
    tally: &mut Tally,
) -> Result<(), ClientError> {
    let t = Instant::now();
    conn.route_hello(key, ctx.setup.names[p], PROFILE, DEFAULT_SEED)?;
    if ctx.traced {
        tally.route_hello.add(ns_since(t));
    }
    let off = ctx.setup.offsets[o];
    for snap in &ctx.setup.snaps[off..off + BATCH] {
        let t0 = Instant::now();
        conn.submit(snap)?;
        if ctx.traced {
            tally.submit.add(ns_since(t0));
        }
    }
    let t0 = Instant::now();
    conn.flush()?;
    if ctx.traced {
        tally.flush.add(ns_since(t0));
    }
    for j in 0..BATCH {
        let t0 = Instant::now();
        let d = conn.collect()?;
        if ctx.traced {
            tally.collect.add(ns_since(t0));
        }
        ctx.verify(decision_frame(d), &ctx.setup.batch_ref[p][o][j], tally);
    }
    let acked = conn.end_session()?;
    tally.session[ctx.window(t)].record(t.elapsed().as_secs_f64() * 1e6);
    tally.attempted += 1;
    if acked != BATCH as u64 {
        tally.failed += 1;
    }
    Ok(())
}

/// Driver B: batched sessions through the router for the whole pass.
fn driver_b(ctx: &Ctx<'_>) -> Tally {
    let mut tally = Tally::new(ctx.windows);
    let mut conn: Option<ClientSession> = None;
    let npol = ctx.setup.names.len();
    let mut i = 0usize;
    while !ctx.stopped() {
        if conn.is_none() {
            match ClientSession::connect_raw(ctx.router_addr.as_str()) {
                Ok(c) => conn = Some(c.with_window(BATCH)),
                Err(_) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let (p, o) = (i % npol, (i / npol) % OFFSETS);
        let key = ctx.setup.keys[(i * 7 + 3) % ctx.setup.keys.len()];
        let c = conn.as_mut().expect("connected above");
        if batch_session(ctx, c, p, o, key, &mut tally).is_err() {
            tally.attempted += 1;
            tally.failed += 1;
            conn = None;
        }
        i += 1;
    }
    tally
}

/// A measured pass: both drivers for `seconds`, sampled in windows.
struct Pass {
    tally: Tally,
    fastest: Fastest,
    decisions: u64,
    wall_s: f64,
}

impl Pass {
    /// Driver A's through-router samples over the whole pass.
    fn lockstep(&self) -> Dist {
        let mut d = Dist::default();
        for w in &self.tally.lockstep {
            d.merge(w);
        }
        d
    }
}

fn run_pass(setup: &Setup, seconds: f64, traced: bool, echo: Option<&TcpListener>) -> Pass {
    let windows = ((seconds * WINDOWS_PER_S).floor() as usize).max(1);
    let start = Instant::now();
    let ctx = Ctx {
        setup,
        router_addr: setup.stack.router.local_addr().to_string(),
        s0_addr: setup.stack.shards[0].local_addr().to_string(),
        stop: AtomicBool::new(false),
        verified: AtomicU64::new(0),
        traced,
        start,
        window_s: seconds / windows as f64,
        windows,
    };
    let phases = [
        start + Duration::from_secs_f64(seconds / 3.0),
        start + Duration::from_secs_f64(seconds * 2.0 / 3.0),
    ];
    let mut counts = Vec::with_capacity(windows);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| driver_a(&ctx, phases, echo));
        let b = s.spawn(|| driver_b(&ctx));
        let mut last = 0u64;
        for w in 1..=windows {
            let due = start + Duration::from_secs_f64(ctx.window_s * w as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // relaxed: a statistic; the joins below publish the tallies.
            let now = ctx.verified.load(Ordering::Relaxed);
            counts.push(now - last);
            last = now;
        }
        // relaxed: see `Ctx::stopped`.
        ctx.stop.store(true, Ordering::Relaxed);
        (
            a.join().expect("driver A does not panic"),
            b.join().expect("driver B does not panic"),
        )
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tally = a;
    tally.merge(&b);
    let per_decision_s = window_s(setup);
    let mut fastest = Fastest::new(1, KEEP);
    for (w, &n) in counts.iter().enumerate() {
        fastest.offer(Window {
            kind: 0,
            device_s: n as f64 * per_decision_s,
            decisions: n as f64,
            wall_s: ctx.window_s,
            lockstep: tally.lockstep[w].clone(),
            session: tally.session[w].clone(),
        });
    }
    Pass {
        tally,
        fastest,
        decisions: ctx.verified.into_inner(),
        wall_s,
    }
}

/// Device seconds of control one decision covers: the mean sampling
/// window of the recorded stream.
fn window_s(setup: &Setup) -> f64 {
    let total: u64 = setup.snaps.iter().map(|s| s.window_us).sum();
    total as f64 / setup.snaps.len().max(1) as f64 / 1e6
}

/// Untraced pass: the end-to-end metrics.
pub fn end_to_end(setup: &Setup, seconds: f64, out: &mut Outcome) {
    let pass = run_pass(setup, seconds, false, None);
    pass.fastest.put(out);
    out.note("decisions", pass.decisions);
    out.note("stream_len", setup.snaps.len());
    out.attempted += pass.tally.attempted;
    out.failed += pass.tally.failed;
}

/// Mean ns per call of `f` over `items`, repeated until ~20 ms pass.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < Duration::from_millis(20) {
        for it in items {
            f(it);
        }
        calls += items.len() as u64;
    }
    ns_since(t0) as f64 / calls.max(1) as f64
}

/// `encode_frame` and `decode_frame` on the recorded snapshot frames
/// and the reference decision frames: (encode snapshot, encode
/// decision, decode snapshot, decode decision), ns per frame.
fn protocol_costs(setup: &Setup) -> [f64; 4] {
    let snap_frames: Vec<Frame> = setup
        .snaps
        .iter()
        .enumerate()
        .map(|(i, s)| Frame::Snapshot {
            seq: i as u64,
            snap: s.clone(),
        })
        .collect();
    let dec_bytes = &setup.lockstep_ref[0];
    let dec_frames: Vec<Frame> = dec_bytes
        .iter()
        .map(|b| {
            decode_frame(b)
                .ok()
                .flatten()
                .expect("reference frame decodes")
                .0
        })
        .collect();
    let snap_bytes: Vec<Vec<u8>> = snap_frames.iter().map(frame_bytes).collect();
    let mut buf = Vec::with_capacity(4096);
    let mut enc = |f: &Frame| {
        buf.clear();
        encode_frame(std::hint::black_box(f), &mut buf);
        std::hint::black_box(&buf);
    };
    let enc_snap = time_each(&snap_frames, &mut enc);
    let enc_dec = time_each(&dec_frames, &mut enc);
    let dec = |b: &Vec<u8>| {
        std::hint::black_box(decode_frame(std::hint::black_box(b)).ok());
    };
    [
        enc_snap,
        enc_dec,
        time_each(&snap_bytes, dec),
        time_each(dec_bytes, dec),
    ]
}

/// Count-weighted `serve.decision_us` quantile across the shards.
fn shard_decision_us(setup: &Setup, q: &str) -> f64 {
    let (mut sum, mut n) = (0.0, 0.0);
    for s in &setup.stack.shards {
        let m = s.manifest("perfbench").metrics;
        let c = m.get("serve.decision_us.count").copied().unwrap_or(0.0);
        sum += m
            .get(&format!("serve.decision_us.{q}"))
            .copied()
            .unwrap_or(0.0)
            * c;
        n += c;
    }
    if n > 0.0 {
        sum / n
    } else {
        0.0
    }
}

/// Trace mode: an untraced pass (CPU cost, overhead baseline), then a
/// traced pass whose driver A spends a third of its time each through
/// the router, straight to `s0`, and on a raw loopback echo.
pub fn traced(setup: &Setup, seconds: f64, layers: &mut Layers, out: &mut Outcome) {
    let cpu0 = process_cpu_us();
    let base = run_pass(setup, seconds / 2.0, false, None);
    let cpu_us = process_cpu_us() - cpu0;
    let echo = TcpListener::bind("127.0.0.1:0").expect("bind the echo listener");
    let pass = run_pass(setup, seconds / 2.0, true, Some(&echo));
    let t = &pass.tally;
    out.attempted += base.tally.attempted + t.attempted;
    out.failed += base.tally.failed + t.failed;

    layers.tails(&base.fastest);
    let via_dist = pass.lockstep();
    let via = via_dist.quantile(0.5);
    let direct = t.direct.quantile(0.5);
    let wire = t.wire.quantile(0.5);
    let [enc_snap, enc_dec, dec_snap, dec_dec] = protocol_costs(setup);
    let dec_p50 = shard_decision_us(setup, "p50");
    layers.set("serve.client.route_hello_us", t.route_hello.mean_ns() / 1e3);
    layers.set("serve.client.submit_ns", t.submit.mean_ns());
    layers.set("serve.client.flush_ns", t.flush.mean_ns());
    layers.set("serve.client.collect_us", t.collect.mean_ns() / 1e3);
    layers.set("serve.protocol.encode_ns.snapshot", enc_snap);
    layers.set("serve.protocol.encode_ns.decision", enc_dec);
    layers.set("serve.protocol.decode_ns.snapshot", dec_snap);
    layers.set("serve.protocol.decode_ns.decision", dec_dec);
    layers.set("serve.server.decision_us_p50", dec_p50);
    layers.set(
        "serve.server.decision_us_p99",
        shard_decision_us(setup, "p99"),
    );
    let stats: Vec<ServeStats> = setup.stack.shards.iter().map(Server::stats).collect();
    let sum = |f: fn(&ServeStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    layers.set(
        "serve.server.backpressure_events",
        sum(|s| s.backpressure_events),
    );
    layers.set("serve.server.aborted_sessions", sum(|s| s.aborted_sessions));
    layers.set("serve.server.protocol_errors", sum(|s| s.protocol_errors));
    layers.set("serve.direct_rtt_p50_us", direct);
    layers.set("serve.router.relay_us", via - direct);
    layers.set("serve.wire_rtt_us", wire);
    let r = setup.stack.router.stats();
    let legs = (r.legs_opened + r.legs_reused).max(1) as f64;
    layers.set("serve.router.leg_reuse_ratio", r.legs_reused as f64 / legs);
    layers.set("serve.router.relay_errors", r.relay_errors as f64);
    layers.set(
        "process.cpu_us_per_decision",
        cpu_us / base.decisions.max(1) as f64,
    );
    // A lockstep round trip through the router is the relay hop plus a
    // direct one; a direct one is client encode, the wire (both
    // directions' syscalls and loopback), shard decode, the policy,
    // shard encode, and client decode.
    let named_us = (via - direct)
        + t.submit.mean_ns() / 1e3
        + wire
        + (dec_snap + enc_dec + dec_dec) / 1e3
        + dec_p50;
    layers.set("unattributed_frac", 1.0 - named_us / via.max(1e-9));
    let base_p50 = base.lockstep().quantile(0.5);
    layers.set("trace_overhead", via / base_p50.max(1e-9) - 1.0);
    out.note("untraced_decisions", base.decisions);
    out.note("traced_decisions", pass.decisions);
    out.note("via_router_samples", via_dist.count());
    out.note("direct_samples", t.direct.count());
    out.note("wire_samples", t.wire.count());
    out.note("traced_wall_s", format!("{:.3}", pass.wall_s));
}
