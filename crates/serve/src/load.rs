//! The `mobicore-load` generator: drives N concurrent sessions against
//! a daemon from a recorded snapshot stream and verifies, per session,
//! that every decision comes back in order and **byte-identical** to
//! what the same policy produces in process.
//!
//! The snapshot stream is recorded once by running the named scenario
//! through a local `Simulation` under a [`RecordingPolicy`] — so every
//! session replays the same realistic utilization trace, and the local
//! reference replay sees exactly the bytes the daemon saw.
//!
//! Snapshots are sent in windowed batches over the corked client
//! buffer: `window` snapshots per flush, then the whole batch of
//! decisions collected — one write syscall and one read burst per
//! batch instead of per frame.
//!
//! [`run_fleet`] scales the same machinery to fleet size through a
//! `mobicore-router`: each connection job multiplexes `per_conn`
//! device sessions back to back (Route + Hello corked into one round
//! trip each), jobs run on the sweep executor's submission-ordered
//! [`Executor::run_ordered`], and the aggregate manifest is
//! deterministic — byte-identical run to run at a fixed seed.
//!
//! [`Executor::run_ordered`]: mobicore_sweep::Executor::run_ordered

use crate::client::ClientSession;
use crate::protocol::{frame_bytes, Frame};
use crate::registry;
use mobicore_sim::builtin::{PinnedPolicy, RecordingPolicy, SnapshotRecorder};
use mobicore_sim::{PolicySnapshot, SimConfig, Simulation};
use mobicore_sweep::Executor;
use mobicore_telemetry::{EventData, Histogram, RunManifest, Telemetry};
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What one load run should do.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent sessions to hold open.
    pub sessions: usize,
    /// Driver threads multiplexing those sessions.
    pub drivers: usize,
    /// Pipelining window: snapshots corked per flush and kept in
    /// flight before the batch of decisions is collected (capped by
    /// the server's HelloAck advertisement).
    pub window: usize,
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
            drivers: 4,
            window: 8,
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

/// What a load run measured.
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
    /// Sessions that failed (connect, stream, or teardown error).
    pub errors: u64,
    /// Decisions whose echoed sequence number did not match the
    /// request — must be 0.
    pub reordered: u64,
    /// Decisions that differed byte-for-byte from the local replay —
    /// must be 0 (only counted when `verify` is on).
    pub mismatches: u64,
    /// Backpressure notices observed across all sessions.
    pub backpressure_seen: u64,
    /// Sum of server-side per-session decision counts from ByeAck —
    /// equals `decisions` when nothing was dropped.
    pub server_decisions: u64,
    /// Snapshots in the recorded stream each session replays.
    pub stream_len: u64,
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

    /// Builds the run manifest (`kind: "load"`) for this report.
    pub fn manifest(&self, name: &str, cfg: &LoadConfig) -> RunManifest {
        let mut metrics = BTreeMap::new();
        metrics.insert("load.sessions".to_string(), self.sessions as f64);
        #[allow(clippy::cast_precision_loss)]
        {
            metrics.insert("load.decisions".to_string(), self.decisions as f64);
            metrics.insert("load.errors".to_string(), self.errors as f64);
            metrics.insert("load.reordered".to_string(), self.reordered as f64);
            metrics.insert("load.mismatches".to_string(), self.mismatches as f64);
            metrics.insert(
                "load.backpressure_seen".to_string(),
                self.backpressure_seen as f64,
            );
        }
        metrics.insert("load.wall_s".to_string(), self.wall_s);
        metrics.insert("serve.decisions_per_s".to_string(), self.decisions_per_s);
        metrics.insert("serve.rtt_p50_us".to_string(), self.rtt_us.quantile(0.50));
        metrics.insert("serve.rtt_p99_us".to_string(), self.rtt_us.quantile(0.99));
        metrics.insert("serve.rtt_p999_us".to_string(), self.rtt_us.quantile(0.999));
        let mut tags = BTreeMap::new();
        tags.insert("scenario".to_string(), cfg.scenario.clone());
        tags.insert("drivers".to_string(), cfg.drivers.to_string());
        tags.insert("window".to_string(), cfg.window.to_string());
        RunManifest {
            kind: "load".to_string(),
            name: name.to_string(),
            policy: cfg.policy.clone(),
            profile: cfg.profile.clone(),
            seed: cfg.seed,
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            duration_us: (self.wall_s * 1e6) as u64,
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
        registry::profile_by_name(profile).ok_or_else(|| format!("unknown profile `{profile}`"))?;
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
    let device = registry::profile_by_name(profile)?;
    let mut p = registry::build_policy_seeded(policy, &device, seed)?;
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
struct DriverTally {
    sessions: u64,
    decisions: u64,
    errors: u64,
    reordered: u64,
    mismatches: u64,
    backpressure: u64,
    server_decisions: u64,
    rtt: Histogram,
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
    tally: &mut DriverTally,
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

/// One driver thread: hold `count` sessions open concurrently and walk
/// them through the whole stream in windowed rounds — each session
/// submits a corked batch of up to `window` snapshots (one flush, one
/// write syscall), then collects the batch of decisions.
#[allow(clippy::needless_pass_by_value)]
fn drive(
    addr: String,
    cfg: LoadConfig,
    snaps: Arc<Vec<PolicySnapshot>>,
    reference: Arc<Option<Vec<Vec<u8>>>>,
    count: usize,
) -> DriverTally {
    let mut tally = DriverTally::default();
    let mut sessions: Vec<Option<ClientSession>> = Vec::with_capacity(count);
    for _ in 0..count {
        match ClientSession::connect(&addr, &cfg.policy, &cfg.profile, cfg.seed) {
            Ok(s) => sessions.push(Some(s.with_window(cfg.window))),
            Err(_) => {
                tally.errors += 1;
                sessions.push(None);
            }
        }
    }
    let limit = if cfg.snapshots_per_session == 0 {
        snaps.len()
    } else {
        cfg.snapshots_per_session.min(snaps.len())
    };
    let mut sent = 0usize;
    while sent < limit {
        // The effective window is identical across sessions (same
        // request, same server) — the min guards the degenerate case.
        let batch = sessions
            .iter()
            .flatten()
            .map(ClientSession::window)
            .min()
            .unwrap_or(1)
            .min(limit - sent);
        for slot in &mut sessions {
            let Some(sess) = slot.as_mut() else { continue };
            if !drive_batch(
                sess,
                &snaps,
                reference.as_ref().as_ref(),
                sent,
                batch,
                &mut tally,
            ) {
                tally.errors += 1;
                *slot = None;
            }
        }
        sent += batch;
    }
    for slot in sessions {
        let Some(sess) = slot else { continue };
        tally.backpressure += sess.backpressure_seen();
        match sess.finish() {
            Ok(n) => {
                tally.server_decisions += n;
                tally.sessions += 1;
            }
            Err(_) => tally.errors += 1,
        }
    }
    tally
}

/// Runs the load: `cfg.sessions` concurrent sessions over
/// `cfg.drivers` threads against the daemon at `addr`.
///
/// # Errors
///
/// Returns a description when the snapshot recording or local
/// reference replay cannot be built; per-session network failures are
/// *counted* in the report instead.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> Result<LoadReport, String> {
    let snaps = Arc::new(record_snapshots(
        &cfg.profile,
        &cfg.scenario,
        cfg.seed,
        cfg.record_secs,
    )?);
    let reference = if cfg.verify {
        Some(
            local_reference(&cfg.policy, &cfg.profile, cfg.seed, &snaps)
                .ok_or_else(|| format!("cannot build local reference for `{}`", cfg.policy))?,
        )
    } else {
        None
    };
    let reference = Arc::new(reference);
    let drivers = cfg.drivers.clamp(1, cfg.sessions.max(1));
    let base = cfg.sessions / drivers;
    let extra = cfg.sessions % drivers;
    let started = Instant::now();
    let mut handles = Vec::with_capacity(drivers);
    for d in 0..drivers {
        let count = base + usize::from(d < extra);
        if count == 0 {
            continue;
        }
        let addr = addr.to_string();
        let cfg = cfg.clone();
        let snaps = Arc::clone(&snaps);
        let reference = Arc::clone(&reference);
        handles.push(
            std::thread::Builder::new()
                .name(format!("load-driver-{d}"))
                .spawn(move || drive(addr, cfg, snaps, reference, count))
                .map_err(|e| e.to_string())?,
        );
    }
    let mut total = DriverTally::default();
    for h in handles {
        let t = h.join().map_err(|_| "driver thread panicked".to_string())?;
        total.sessions += t.sessions;
        total.decisions += t.decisions;
        total.errors += t.errors;
        total.reordered += t.reordered;
        total.mismatches += t.mismatches;
        total.backpressure += t.backpressure;
        total.server_decisions += t.server_decisions;
        total.rtt.merge(&t.rtt);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let stream_len = if cfg.snapshots_per_session == 0 {
        snaps.len()
    } else {
        cfg.snapshots_per_session.min(snaps.len())
    };
    #[allow(clippy::cast_precision_loss)]
    Ok(LoadReport {
        sessions: total.sessions,
        decisions: total.decisions,
        wall_s,
        decisions_per_s: if wall_s > 0.0 {
            total.decisions as f64 / wall_s
        } else {
            0.0
        },
        rtt_us: total.rtt,
        errors: total.errors,
        reordered: total.reordered,
        mismatches: total.mismatches,
        backpressure_seen: total.backpressure,
        server_decisions: total.server_decisions,
        stream_len: stream_len as u64,
    })
}

/// What one fleet run should do: `sessions` device sessions driven
/// through a `mobicore-router`, multiplexed `per_conn` to a
/// connection, with connection jobs spread over the sweep executor.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total device sessions to run (each routes by its device id).
    pub sessions: usize,
    /// Device sessions multiplexed back to back per connection job.
    pub per_conn: usize,
    /// Executor jobs running connection jobs concurrently.
    pub drivers: usize,
    /// Pipelining window per session (see [`LoadConfig::window`]).
    pub window: usize,
    /// Policy name each session requests.
    pub policy: String,
    /// Device profile name each session requests.
    pub profile: String,
    /// Scenario whose recorded snapshot stream every session replays.
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

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 1024,
            per_conn: 128,
            drivers: 4,
            window: 8,
            policy: "mobicore".to_string(),
            profile: "nexus5".to_string(),
            scenario: "mixed-day-mini".to_string(),
            seed: 7,
            record_secs: 6,
            snapshots_per_session: 2,
            verify: true,
        }
    }
}

/// What a fleet run measured. The shape splits in two: wall-clock
/// numbers (throughput, RTT) vary run to run, while every *count* is
/// a pure function of the config — which is what
/// [`FleetReport::deterministic_manifest`] serializes, byte-identical
/// across runs at a fixed seed.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Device sessions that completed handshake + teardown.
    pub sessions: u64,
    /// Decisions received across all sessions.
    pub decisions: u64,
    /// Wall-clock seconds of the whole fleet run.
    pub wall_s: f64,
    /// Decisions per wall-clock second.
    pub decisions_per_s: f64,
    /// Round-trip times, µs, merged across shards.
    pub rtt_us: Histogram,
    /// Sessions that failed (connect, route, stream, or teardown).
    pub errors: u64,
    /// Decisions whose echoed sequence number did not match — must
    /// be 0.
    pub reordered: u64,
    /// Decisions that differed byte-for-byte from the local replay —
    /// must be 0 (only counted when `verify` is on).
    pub mismatches: u64,
    /// Backpressure notices observed across all connections.
    pub backpressure_seen: u64,
    /// Sum of server-side per-session decision counts from ByeAck.
    pub server_decisions: u64,
    /// Snapshots each session replays.
    pub stream_len: u64,
    /// Sessions per shard, keyed by stable shard name.
    pub shard_sessions: BTreeMap<String, u64>,
    /// Decisions per shard, keyed by stable shard name.
    pub shard_decisions: BTreeMap<String, u64>,
    /// RTT histogram per shard, keyed by stable shard name.
    pub shard_rtt_us: BTreeMap<String, Histogram>,
    /// Telemetry of the run (one `FleetShardSummary` per shard),
    /// as JSONL.
    pub events_jsonl: String,
}

impl FleetReport {
    /// `true` when every session finished with zero drops, zero
    /// reorders, and (if verified) zero mismatches.
    pub fn clean(&self) -> bool {
        self.errors == 0
            && self.reordered == 0
            && self.mismatches == 0
            && self.decisions == self.server_decisions
    }

    fn count_metrics(&self) -> BTreeMap<String, f64> {
        let mut metrics = BTreeMap::new();
        #[allow(clippy::cast_precision_loss)]
        {
            metrics.insert("fleet.sessions".to_string(), self.sessions as f64);
            metrics.insert("fleet.decisions".to_string(), self.decisions as f64);
            metrics.insert("fleet.errors".to_string(), self.errors as f64);
            metrics.insert("fleet.reordered".to_string(), self.reordered as f64);
            metrics.insert("fleet.mismatches".to_string(), self.mismatches as f64);
            metrics.insert(
                "fleet.server_decisions".to_string(),
                self.server_decisions as f64,
            );
            metrics.insert("fleet.stream_len".to_string(), self.stream_len as f64);
            for (name, n) in &self.shard_sessions {
                metrics.insert(format!("fleet.sessions.{name}"), *n as f64);
            }
            for (name, n) in &self.shard_decisions {
                metrics.insert(format!("fleet.decisions.{name}"), *n as f64);
            }
        }
        metrics
    }

    fn tags(&self, cfg: &FleetConfig) -> BTreeMap<String, String> {
        let mut tags = BTreeMap::new();
        tags.insert("scenario".to_string(), cfg.scenario.clone());
        tags.insert("per_conn".to_string(), cfg.per_conn.to_string());
        tags.insert("window".to_string(), cfg.window.to_string());
        tags.insert(
            "shards".to_string(),
            self.shard_sessions
                .keys()
                .cloned()
                .collect::<Vec<_>>()
                .join(","),
        );
        tags
    }

    /// Builds the full run manifest (`kind: "fleet"`): counts plus the
    /// wall-clock numbers (throughput, per-shard RTT quantiles).
    pub fn manifest(&self, name: &str, cfg: &FleetConfig) -> RunManifest {
        let mut metrics = self.count_metrics();
        #[allow(clippy::cast_precision_loss)]
        metrics.insert(
            "fleet.backpressure_seen".to_string(),
            self.backpressure_seen as f64,
        );
        metrics.insert("fleet.wall_s".to_string(), self.wall_s);
        metrics.insert("fleet.decisions_per_s".to_string(), self.decisions_per_s);
        metrics.insert("fleet.rtt_p50_us".to_string(), self.rtt_us.quantile(0.50));
        metrics.insert("fleet.rtt_p99_us".to_string(), self.rtt_us.quantile(0.99));
        for (name, h) in &self.shard_rtt_us {
            metrics.insert(format!("fleet.rtt_p99_us.{name}"), h.quantile(0.99));
        }
        let mut event_counts = BTreeMap::new();
        event_counts.insert(
            "fleet-shard-summary".to_string(),
            self.shard_sessions.len() as u64,
        );
        RunManifest {
            kind: "fleet".to_string(),
            name: name.to_string(),
            policy: cfg.policy.clone(),
            profile: cfg.profile.clone(),
            seed: cfg.seed,
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            duration_us: (self.wall_s * 1e6) as u64,
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags: self.tags(cfg),
            metrics,
            event_counts,
        }
    }

    /// Builds the deterministic aggregate manifest: counts only
    /// (overall and per shard), `duration_us` pinned to 0 — the
    /// rendered text is byte-identical run to run at a fixed seed.
    pub fn deterministic_manifest(&self, name: &str, cfg: &FleetConfig) -> RunManifest {
        RunManifest {
            kind: "fleet".to_string(),
            name: name.to_string(),
            policy: cfg.policy.clone(),
            profile: cfg.profile.clone(),
            seed: cfg.seed,
            duration_us: 0,
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags: self.tags(cfg),
            metrics: self.count_metrics(),
            event_counts: BTreeMap::new(),
        }
    }
}

#[derive(Default)]
struct FleetTally {
    sessions: u64,
    decisions: u64,
    errors: u64,
    reordered: u64,
    mismatches: u64,
    backpressure: u64,
    server_decisions: u64,
    shard_sessions: BTreeMap<String, u64>,
    shard_decisions: BTreeMap<String, u64>,
    shard_rtt: BTreeMap<String, Histogram>,
}

/// One connection job: `count` device sessions back to back over a
/// single router connection, each bound by `route_hello` (Route +
/// Hello in one corked round trip) and streamed in windowed batches.
fn fleet_conn(
    addr: &str,
    cfg: &FleetConfig,
    snaps: &[PolicySnapshot],
    reference: Option<&Vec<Vec<u8>>>,
    limit: usize,
    first_device: u64,
    count: u64,
) -> FleetTally {
    let mut tally = FleetTally::default();
    let Ok(mut sess) = ClientSession::connect_raw(addr) else {
        tally.errors += count;
        return tally;
    };
    sess.set_window(cfg.window);
    for device in first_device..first_device + count {
        let shard = match sess.route_hello(device, &cfg.policy, &cfg.profile, cfg.seed) {
            Ok((_, name)) => name,
            Err(_) => {
                // The connection is gone; every remaining session on
                // this job is lost.
                tally.errors += first_device + count - device;
                return tally;
            }
        };
        let mut inner = DriverTally::default();
        let mut sent = 0usize;
        let mut dead = false;
        while sent < limit {
            let batch = sess.window().min(limit - sent);
            if !drive_batch(&mut sess, snaps, reference, sent, batch, &mut inner) {
                dead = true;
                break;
            }
            sent += batch;
        }
        tally.decisions += inner.decisions;
        tally.reordered += inner.reordered;
        tally.mismatches += inner.mismatches;
        *tally.shard_decisions.entry(shard.clone()).or_default() += inner.decisions;
        tally
            .shard_rtt
            .entry(shard.clone())
            .or_default()
            .merge(&inner.rtt);
        if dead {
            tally.errors += first_device + count - device;
            return tally;
        }
        match sess.end_session() {
            Ok(n) => {
                tally.server_decisions += n;
                tally.sessions += 1;
                *tally.shard_sessions.entry(shard).or_default() += 1;
            }
            Err(_) => {
                tally.errors += first_device + count - device;
                return tally;
            }
        }
    }
    tally.backpressure = sess.backpressure_seen();
    tally
}

/// Runs the fleet: `cfg.sessions` device sessions through the router
/// at `addr`, multiplexed `cfg.per_conn` per connection, connection
/// jobs spread over `cfg.drivers` executor workers in submission
/// order — so the merged tallies (and the deterministic manifest
/// built from them) do not depend on scheduling.
///
/// # Errors
///
/// Returns a description when the snapshot recording or local
/// reference replay cannot be built; per-session failures are
/// *counted* in the report instead.
pub fn run_fleet(addr: &str, cfg: &FleetConfig) -> Result<FleetReport, String> {
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
    let per_conn = cfg.per_conn.max(1) as u64;
    let total = cfg.sessions as u64;
    let mut jobs = Vec::new();
    let mut start = 0u64;
    while start < total {
        let count = per_conn.min(total - start);
        jobs.push((start, count));
        start += count;
    }
    let exec = Executor::new(cfg.drivers.max(1));
    let started = Instant::now();
    let tallies = exec.run_ordered(jobs, |_, (first_device, count)| {
        fleet_conn(
            addr,
            cfg,
            &snaps,
            reference.as_ref(),
            limit,
            first_device,
            count,
        )
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut total = FleetTally::default();
    for t in tallies {
        total.sessions += t.sessions;
        total.decisions += t.decisions;
        total.errors += t.errors;
        total.reordered += t.reordered;
        total.mismatches += t.mismatches;
        total.backpressure += t.backpressure;
        total.server_decisions += t.server_decisions;
        for (name, n) in t.shard_sessions {
            *total.shard_sessions.entry(name).or_default() += n;
        }
        for (name, n) in t.shard_decisions {
            *total.shard_decisions.entry(name).or_default() += n;
        }
        for (name, h) in t.shard_rtt {
            total.shard_rtt.entry(name).or_default().merge(&h);
        }
    }
    let rtt_us = Histogram::merged(total.shard_rtt.values());
    let mut telemetry = Telemetry::enabled();
    let t_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    for (name, sessions) in &total.shard_sessions {
        telemetry.emit(
            t_us,
            EventData::FleetShardSummary {
                shard: name.clone(),
                sessions: *sessions,
                decisions: total.shard_decisions.get(name).copied().unwrap_or(0),
            },
        );
    }
    #[allow(clippy::cast_precision_loss)]
    Ok(FleetReport {
        sessions: total.sessions,
        decisions: total.decisions,
        wall_s,
        decisions_per_s: if wall_s > 0.0 {
            total.decisions as f64 / wall_s
        } else {
            0.0
        },
        rtt_us,
        errors: total.errors,
        reordered: total.reordered,
        mismatches: total.mismatches,
        backpressure_seen: total.backpressure,
        server_decisions: total.server_decisions,
        stream_len: limit as u64,
        shard_sessions: total.shard_sessions,
        shard_decisions: total.shard_decisions,
        shard_rtt_us: total.shard_rtt,
        events_jsonl: telemetry.events_jsonl(),
    })
}
