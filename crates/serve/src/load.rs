//! The `mobicore-load` generator: drives device sessions against a
//! `mobicore-serve` daemon, or through a `mobicore-router` in front of
//! serve shards, from a recorded snapshot stream and verifies, per
//! session, that every decision comes back in order and
//! **byte-identical** to what the same policy produces in process.
//!
//! The snapshot stream is recorded once by running the named scenario
//! through a local `Simulation` under a [`RecordingPolicy`] — so every
//! session replays the same realistic utilization trace, and the local
//! reference replay sees exactly the bytes the daemon saw.
//!
//! [`run_load`] opens `ceil(sessions / per_conn)` connections up front
//! and splits them over `drivers` threads. Each connection carries
//! `per_conn` sessions back to back and holds one open at a time, so
//! up to `ceil(sessions / per_conn)` sessions are live at once.
//! Snapshots are sent in windowed batches over the corked client
//! buffer: `window` snapshots per flush, then the whole batch of
//! decisions collected — one write syscall and one read burst per
//! batch instead of per frame.
//!
//! A routed run (`route`) opens each session with Route + Hello corked
//! into one round trip, keyed by the session index, and tallies each
//! shard apart. Every count in the report is a pure function of the
//! config, which [`LoadReport::deterministic_manifest`] serializes —
//! byte-identical run to run at a fixed seed.

use crate::client::ClientSession;
use crate::protocol::{frame_bytes, Frame};
use mobicore_model::profiles;
use mobicore_sim::builtin::{PinnedPolicy, RecordingPolicy, SnapshotRecorder};
use mobicore_sim::{PolicySnapshot, SimConfig, Simulation};
use mobicore_telemetry::{EventData, Histogram, RunManifest, Telemetry};
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// What one load run should do.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Device sessions to run in total.
    pub sessions: usize,
    /// Sessions each connection carries back to back (clamped to ≥ 1).
    pub per_conn: usize,
    /// Driver threads the connections are split over.
    pub drivers: usize,
    /// Pipelining window: snapshots corked per flush and kept in
    /// flight before the batch of decisions is collected (capped by
    /// the server's HelloAck advertisement).
    pub window: usize,
    /// Talk to a `mobicore-router`: each session opens with
    /// [`ClientSession::route_hello`] keyed by its session index, and
    /// the report tallies each shard apart.
    pub route: bool,
    /// Policy name each session requests.
    pub policy: String,
    /// Device profile name each session requests.
    pub profile: String,
    /// Scenario (see `mobicore_workloads::scenario::CATALOG`) whose
    /// recorded snapshot stream every session replays.
    pub scenario: String,
    /// Seed for the scenario recording.
    pub seed: u64,
    /// Scenario seconds to record (bounds the per-session stream).
    pub record_secs: u64,
    /// Cap on snapshots each session sends (0 = the whole recording).
    pub snapshots_per_session: usize,
    /// Verify decisions byte-for-byte against a local replay.
    pub verify: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 64,
            per_conn: 1,
            drivers: 4,
            window: 8,
            route: false,
            policy: "mobicore".to_string(),
            profile: "nexus5".to_string(),
            scenario: "mixed-day-mini".to_string(),
            seed: 7,
            record_secs: 6,
            snapshots_per_session: 0,
            verify: true,
        }
    }
}

/// What a load run measured. Wall-clock numbers (throughput, RTT)
/// vary run to run; every count is a pure function of the config.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions that completed handshake + teardown.
    pub sessions: u64,
    /// Decisions received across all sessions.
    pub decisions: u64,
    /// Wall-clock seconds of the streaming phase.
    pub wall_s: f64,
    /// Decisions per wall-clock second.
    pub decisions_per_s: f64,
    /// Round-trip times, µs (one sample per decision).
    pub rtt_us: Histogram,
    /// Sessions that failed (connect, route, stream, or teardown
    /// error); a dead connection fails every session it had left.
    pub errors: u64,
    /// Decisions whose echoed sequence number did not match the
    /// request — must be 0.
    pub reordered: u64,
    /// Decisions that differed byte-for-byte from the local replay —
    /// must be 0 (only counted when `verify` is on).
    pub mismatches: u64,
    /// Backpressure notices observed across all connections.
    pub backpressure_seen: u64,
    /// Sum of server-side per-session decision counts from ByeAck —
    /// equals `decisions` when nothing was dropped.
    pub server_decisions: u64,
    /// Snapshots each session replays.
    pub stream_len: u64,
    /// Per-shard tallies of a routed run, keyed by the shard name the
    /// router reported; empty for a direct run.
    pub shards: BTreeMap<String, ShardTally>,
    /// Telemetry of the run (one `fleet-shard-summary` event per
    /// shard), as JSONL.
    pub events_jsonl: String,
}

/// One shard's share of a routed run.
#[derive(Debug, Clone, Default)]
pub struct ShardTally {
    /// Sessions the shard completed.
    pub sessions: u64,
    /// Decisions received from the shard.
    pub decisions: u64,
    /// Round-trip times of those decisions, µs.
    pub rtt_us: Histogram,
}

impl LoadReport {
    /// `true` when every session finished with zero drops, zero
    /// reorders, and (if verified) zero mismatches.
    pub fn clean(&self) -> bool {
        self.errors == 0
            && self.reordered == 0
            && self.mismatches == 0
            && self.decisions == self.server_decisions
    }

    /// Builds the run manifest (`kind: "load"`): the
    /// [`LoadReport::deterministic_manifest`] plus the wall-clock
    /// numbers (duration, throughput, RTT quantiles overall and per
    /// shard) and the count of `fleet-shard-summary` events.
    pub fn manifest(&self, name: &str, cfg: &LoadConfig) -> RunManifest {
        let mut manifest = self.deterministic_manifest(name, cfg);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            manifest.duration_us = (self.wall_s * 1e6) as u64;
        }
        let metrics = &mut manifest.metrics;
        #[allow(clippy::cast_precision_loss)]
        metrics.insert(
            "load.backpressure_seen".to_string(),
            self.backpressure_seen as f64,
        );
        metrics.insert("load.wall_s".to_string(), self.wall_s);
        metrics.insert("load.decisions_per_s".to_string(), self.decisions_per_s);
        metrics.insert("load.rtt_p50_us".to_string(), self.rtt_us.quantile(0.50));
        metrics.insert("load.rtt_p99_us".to_string(), self.rtt_us.quantile(0.99));
        metrics.insert("load.rtt_p999_us".to_string(), self.rtt_us.quantile(0.999));
        for (shard, t) in &self.shards {
            metrics.insert(format!("load.rtt_p99_us.{shard}"), t.rtt_us.quantile(0.99));
        }
        if !self.shards.is_empty() {
            manifest
                .event_counts
                .insert("fleet-shard-summary".to_string(), self.shards.len() as u64);
        }
        manifest
    }

    /// Builds the deterministic manifest: counts only (overall and per
    /// shard), `duration_us` pinned to 0 — the rendered text is
    /// byte-identical run to run at a fixed seed.
    pub fn deterministic_manifest(&self, name: &str, cfg: &LoadConfig) -> RunManifest {
        let mut metrics = BTreeMap::new();
        #[allow(clippy::cast_precision_loss)]
        {
            metrics.insert("load.sessions".to_string(), self.sessions as f64);
            metrics.insert("load.decisions".to_string(), self.decisions as f64);
            metrics.insert("load.errors".to_string(), self.errors as f64);
            metrics.insert("load.reordered".to_string(), self.reordered as f64);
            metrics.insert("load.mismatches".to_string(), self.mismatches as f64);
            metrics.insert(
                "load.server_decisions".to_string(),
                self.server_decisions as f64,
            );
            metrics.insert("load.stream_len".to_string(), self.stream_len as f64);
            for (shard, t) in &self.shards {
                metrics.insert(format!("load.sessions.{shard}"), t.sessions as f64);
                metrics.insert(format!("load.decisions.{shard}"), t.decisions as f64);
            }
        }
        let mut tags = BTreeMap::new();
        tags.insert("scenario".to_string(), cfg.scenario.clone());
        tags.insert("drivers".to_string(), cfg.drivers.to_string());
        tags.insert("per_conn".to_string(), cfg.per_conn.to_string());
        tags.insert("window".to_string(), cfg.window.to_string());
        if !self.shards.is_empty() {
            let names: Vec<&str> = self.shards.keys().map(String::as_str).collect();
            tags.insert("shards".to_string(), names.join(","));
        }
        RunManifest {
            kind: "load".to_string(),
            name: name.to_string(),
            policy: cfg.policy.clone(),
            profile: cfg.profile.clone(),
            seed: cfg.seed,
            duration_us: 0,
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts: BTreeMap::new(),
        }
    }
}

/// Records the canonical snapshot stream: the named scenario run under
/// a pinned policy (so the stream does not depend on the policy under
/// test), captured via [`RecordingPolicy`].
///
/// # Errors
///
/// Returns a description when the profile, scenario, or simulation
/// rejects its configuration.
pub fn record_snapshots(
    profile: &str,
    scenario_name: &str,
    seed: u64,
    secs: u64,
) -> Result<Vec<PolicySnapshot>, String> {
    let device =
        profiles::by_name(profile).ok_or_else(|| format!("unknown profile `{profile}`"))?;
    let workload = scenario::by_name(scenario_name, &device, seed)
        .ok_or_else(|| format!("unknown scenario `{scenario_name}`"))?;
    let recorder = SnapshotRecorder::new();
    let f = device.opps().max_khz();
    let inner = Box::new(PinnedPolicy::new(device.n_cores(), f));
    let policy = RecordingPolicy::new(inner, recorder.clone());
    let cfg = SimConfig::new(device)
        .with_duration_secs(secs)
        .without_mpdecision();
    let mut sim = Simulation::new(cfg, Box::new(policy)).map_err(|e| e.to_string())?;
    sim.add_workload(Box::new(workload));
    let _ = sim.run();
    let snaps = recorder.take();
    if snaps.is_empty() {
        return Err("recording produced no snapshots".to_string());
    }
    Ok(snaps)
}

/// Replays `snaps` through a fresh local instance of `policy` (seeded
/// like the Hello the sessions send) and returns each decision as
/// encoded wire bytes — the reference the daemon's answers must match
/// byte-for-byte.
fn local_reference(
    policy: &str,
    profile: &str,
    seed: u64,
    snaps: &[PolicySnapshot],
) -> Option<Vec<Vec<u8>>> {
    let device = profiles::by_name(profile)?;
    let mut p = mobicore::registry::build(policy, &device, seed)?;
    let mut ctl = mobicore_sim::CpuControl::new();
    let mut out = Vec::with_capacity(snaps.len());
    for (i, snap) in snaps.iter().enumerate() {
        p.on_sample(snap, &mut ctl);
        out.push(frame_bytes(&Frame::Decision {
            seq: i as u64,
            commands: ctl.take(),
            notes: ctl.take_notes(),
        }));
    }
    Some(out)
}

#[derive(Default)]
struct Tally {
    sessions: u64,
    decisions: u64,
    errors: u64,
    reordered: u64,
    mismatches: u64,
    backpressure: u64,
    server_decisions: u64,
    rtt: Histogram,
}

impl Tally {
    fn absorb(&mut self, t: &Tally) {
        self.sessions += t.sessions;
        self.decisions += t.decisions;
        self.errors += t.errors;
        self.reordered += t.reordered;
        self.mismatches += t.mismatches;
        self.backpressure += t.backpressure;
        self.server_decisions += t.server_decisions;
        self.rtt.merge(&t.rtt);
    }
}

/// What one driver thread (or the whole run) tallied: overall, and per
/// shard for a routed run.
#[derive(Default)]
struct Totals {
    all: Tally,
    shards: BTreeMap<String, Tally>,
}

impl Totals {
    fn absorb(&mut self, part: Totals) {
        self.all.absorb(&part.all);
        for (shard, t) in part.shards {
            self.shards.entry(shard).or_default().absorb(&t);
        }
    }
}

/// Walks one session through `snaps[sent..sent + batch]` as a single
/// corked batch: submit everything, flush once, then collect and
/// verify the whole window. Returns `false` when the session died.
fn drive_batch(
    sess: &mut ClientSession,
    snaps: &[PolicySnapshot],
    reference: Option<&Vec<Vec<u8>>>,
    sent: usize,
    batch: usize,
    tally: &mut Tally,
) -> bool {
    let t0 = Instant::now();
    for snap in &snaps[sent..sent + batch] {
        if sess.submit(snap).is_err() {
            return false;
        }
    }
    if sess.flush().is_err() {
        return false;
    }
    for i in sent..sent + batch {
        match sess.collect() {
            Ok(d) => {
                tally.rtt.record(t0.elapsed().as_secs_f64() * 1e6);
                tally.decisions += 1;
                if d.seq != i as u64 {
                    tally.reordered += 1;
                }
                if let Some(reference) = reference {
                    let got = frame_bytes(&Frame::Decision {
                        seq: d.seq,
                        commands: d.commands,
                        notes: d.notes,
                    });
                    if got != reference[i] {
                        tally.mismatches += 1;
                    }
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// One connection and the sessions (indices `next..end`) it still has
/// to carry; `sess` is `None` once it is closed or dead.
struct Conn {
    sess: Option<ClientSession>,
    next: u64,
    end: u64,
    shard: Option<String>,
    /// The current session's tally, folded into the totals when the
    /// session ends.
    cur: Tally,
}

impl Conn {
    fn open(addr: &str, window: usize, sessions: Range<u64>) -> Conn {
        Conn {
            sess: ClientSession::connect_raw(addr)
                .ok()
                .map(|s| s.with_window(window)),
            next: sessions.start,
            end: sessions.end,
            shard: None,
            cur: Tally::default(),
        }
    }

    /// Opens session `next`: Hello, or Route + Hello when routed.
    /// Returns `false` when the connection is dead.
    fn start(&mut self, cfg: &LoadConfig) -> bool {
        let Some(sess) = self.sess.as_mut() else {
            return false;
        };
        if !cfg.route {
            return sess.hello(&cfg.policy, &cfg.profile, cfg.seed).is_ok();
        }
        match sess.route_hello(self.next, &cfg.policy, &cfg.profile, cfg.seed) {
            Ok((_, name)) => {
                self.shard = Some(name);
                true
            }
            Err(_) => false,
        }
    }

    /// Folds the current session into `out`. A failed session kills
    /// the connection, and every session it had left counts as an
    /// error; the connection closes once it has none left.
    fn finish_session(&mut self, ok: bool, out: &mut Totals) {
        let cur = std::mem::take(&mut self.cur);
        if let Some(shard) = self.shard.take() {
            out.shards.entry(shard).or_default().absorb(&cur);
        }
        out.all.absorb(&cur);
        if ok {
            self.next += 1;
        } else {
            out.all.errors += self.end - self.next;
            self.next = self.end;
        }
        if self.next == self.end {
            if let Some(sess) = self.sess.take() {
                out.all.backpressure += sess.backpressure_seen();
            }
        }
    }
}

/// One driver thread: opens its connections, then runs their sessions
/// in rounds — every connection starts its next session, all of them
/// stream the snapshots in windowed batches (one corked flush per
/// batch), and every session ends with Bye/ByeAck.
fn drive(
    addr: &str,
    cfg: &LoadConfig,
    snaps: &[PolicySnapshot],
    reference: Option<&Vec<Vec<u8>>>,
    limit: usize,
    conns: &[Range<u64>],
) -> Totals {
    let mut out = Totals::default();
    let mut conns: Vec<Conn> = conns
        .iter()
        .map(|r| Conn::open(addr, cfg.window, r.clone()))
        .collect();
    while conns.iter().any(|c| c.next < c.end) {
        for c in conns.iter_mut().filter(|c| c.next < c.end) {
            if !c.start(cfg) {
                c.finish_session(false, &mut out);
            }
        }
        let mut sent = 0usize;
        while sent < limit {
            // The effective window is identical across sessions (same
            // request, same server) — the min guards the degenerate case.
            let batch = conns
                .iter()
                .filter_map(|c| c.sess.as_ref())
                .map(ClientSession::window)
                .min()
                .unwrap_or(1)
                .min(limit - sent);
            for c in &mut conns {
                let Some(sess) = c.sess.as_mut() else {
                    continue;
                };
                if !drive_batch(sess, snaps, reference, sent, batch, &mut c.cur) {
                    c.finish_session(false, &mut out);
                }
            }
            sent += batch;
        }
        for c in &mut conns {
            let Some(sess) = c.sess.as_mut() else {
                continue;
            };
            let ok = match sess.end_session() {
                Ok(n) => {
                    c.cur.server_decisions += n;
                    c.cur.sessions += 1;
                    true
                }
                Err(_) => false,
            };
            c.finish_session(ok, &mut out);
        }
    }
    out
}

/// Runs the load: `cfg.sessions` sessions against the daemon (or,
/// with `cfg.route`, the router) at `addr`, `cfg.per_conn` per
/// connection, the connections split over at most `cfg.drivers`
/// threads.
///
/// # Errors
///
/// Returns a description when the snapshot recording or local
/// reference replay cannot be built, or a driver thread fails;
/// per-session network failures are *counted* in the report instead.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let snaps = record_snapshots(&cfg.profile, &cfg.scenario, cfg.seed, cfg.record_secs)?;
    let limit = if cfg.snapshots_per_session == 0 {
        snaps.len()
    } else {
        cfg.snapshots_per_session.min(snaps.len())
    };
    let reference = if cfg.verify {
        Some(
            local_reference(&cfg.policy, &cfg.profile, cfg.seed, &snaps)
                .ok_or_else(|| format!("cannot build local reference for `{}`", cfg.policy))?,
        )
    } else {
        None
    };
    let per_conn = cfg.per_conn.max(1);
    let conns: Vec<Range<u64>> = (0..cfg.sessions)
        .step_by(per_conn)
        .map(|first| first as u64..(first + per_conn).min(cfg.sessions) as u64)
        .collect();
    let per_driver = conns.len().div_ceil(cfg.drivers.max(1)).max(1);
    let started = Instant::now();
    let parts = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (d, part) in conns.chunks(per_driver).enumerate() {
            let (snaps, reference) = (&snaps, reference.as_ref());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("load-driver-{d}"))
                    .spawn_scoped(s, move || drive(addr, cfg, snaps, reference, limit, part))
                    .map_err(|e| e.to_string())?,
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "driver thread panicked".to_string()))
            .collect::<Result<Vec<Totals>, String>>()
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut run = Totals::default();
    for part in parts {
        run.absorb(part);
    }
    let mut telemetry = Telemetry::enabled();
    let t_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    for (shard, t) in &run.shards {
        telemetry.emit(
            t_us,
            EventData::FleetShardSummary {
                shard: shard.clone(),
                sessions: t.sessions,
                decisions: t.decisions,
            },
        );
    }
    let all = run.all;
    #[allow(clippy::cast_precision_loss)]
    Ok(LoadReport {
        sessions: all.sessions,
        decisions: all.decisions,
        wall_s,
        decisions_per_s: if wall_s > 0.0 {
            all.decisions as f64 / wall_s
        } else {
            0.0
        },
        rtt_us: all.rtt,
        errors: all.errors,
        reordered: all.reordered,
        mismatches: all.mismatches,
        backpressure_seen: all.backpressure,
        server_decisions: all.server_decisions,
        stream_len: limit as u64,
        shards: run
            .shards
            .into_iter()
            .map(|(shard, t)| {
                let tally = ShardTally {
                    sessions: t.sessions,
                    decisions: t.decisions,
                    rtt_us: t.rtt,
                };
                (shard, tally)
            })
            .collect(),
        events_jsonl: telemetry.events_jsonl(),
    })
}
