//! The `mobicore-router` tier: a shard router that binds device
//! sessions to `mobicore-serve` shards by rendezvous hashing and
//! relays frames between them.
//!
//! A client opens one connection to the router and sends
//! [`Frame::Route`] with its session key; the router picks the shard
//! by highest-random-weight (rendezvous) hashing over the *stable
//! shard names* — not their addresses, so ephemeral ports do not
//! perturb placement — answers [`Frame::Routed`], and from then on
//! relays whole frames both ways, verbatim. Client frames are split by
//! length and type alone, watching for the next `Route` (a session
//! boundary — held back, never forwarded); shard frames are decoded
//! only to spot `ByeAck` (the session is over — the shard connection
//! detaches into a per-shard pool and is reused hot for the next
//! session, which the serve tier supports by returning to
//! `AwaitHello` after `ByeAck`).
//!
//! Backpressure propagates by construction: every relay hop is a
//! blocking write, so a stalled shard stops the router reading its
//! client and a client that stops reading stops the router reading
//! the shard — TCP flow control pushes back on the true producer. A
//! shard leg that dies mid-session surfaces as a
//! [`codes::SHARD_UNAVAILABLE`] error frame to the client rather than
//! a silent hangup.
//!
//! Threading model: the acceptor starts one relay thread per client
//! connection. It reads client frames, binds sessions, and forwards
//! frames to the session's shard leg. A second, long-lived leg-reader
//! thread per relay relays shard frames to the client. Legs pass from
//! the relay thread to its leg reader over a channel and come back at
//! `ByeAck`; client-bound writes from either thread go out as whole
//! frames under a per-relay mutex. Shutdown drains like the serve
//! daemon: `GoingAway` within one wake period, then a force-close of
//! every client socket and active leg left at the drain deadline.

use crate::conn::{accept_loop, timed_out, Daemon, WAKE};
use crate::protocol::{
    codes, decode_frame, frame_bytes, peek_frame_type, Frame, MAX_FRAME_LEN, TY_BYE, TY_ROUTE,
};
use mobicore_analyze::sync::atomic::{AtomicU64, Ordering};
use mobicore_analyze::sync::{lock_unpoisoned, Arc, Mutex};
use mobicore_telemetry::{EventData, RunManifest};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The frame types owned by the router tier (checked against
/// `docs/serving.md` by the `registry-doc-sync` lint).
pub const ROUTER_FRAMES: [&str; 2] = ["Route", "Routed"];

/// One serve shard the router can bind sessions to.
///
/// The `name` is the identity: rendezvous hashing runs over names, so
/// session placement is a pure function of `(key, shard names)` and
/// survives address changes (and OS-assigned ports) unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Stable shard identity, e.g. `"s0"`.
    pub name: String,
    /// Dial address, e.g. `"127.0.0.1:7401"`.
    pub addr: String,
}

impl Shard {
    /// Parses the CLI form `NAME=ADDR`.
    pub fn parse(spec: &str) -> Option<Shard> {
        let (name, addr) = spec.split_once('=')?;
        if name.is_empty() || addr.is_empty() {
            return None;
        }
        Some(Shard {
            name: name.to_string(),
            addr: addr.to_string(),
        })
    }
}

/// `splitmix64` finalizer: a cheap, well-mixed bijection on `u64`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a shard name, used as the per-shard half of the
/// rendezvous weight.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Picks the shard for `key` by rendezvous (highest-random-weight)
/// hashing: every `(key, name)` pair gets a weight and the highest
/// wins. Returns the index into `names`, or `None` when empty.
///
/// Properties the proptests hold:
/// - deterministic: the same `(key, names-as-a-set)` always picks the
///   same *name*, in any order the list is given;
/// - minimal remap: removing one shard only moves the keys that were
///   on it;
/// - ties (distinct names hashing to equal weights) break by name, so
///   the winner is still order-independent.
pub fn rendezvous_shard<S: AsRef<str>>(key: u64, names: &[S]) -> Option<usize> {
    let mixed = mix64(key);
    names
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            let (a, b) = (a.as_ref(), b.as_ref());
            let wa = mix64(fnv1a(a.as_bytes()) ^ mixed);
            let wb = mix64(fnv1a(b.as_bytes()) ^ mixed);
            wa.cmp(&wb).then_with(|| a.cmp(b).reverse())
        })
        .map(|(i, _)| i)
}

/// Tuning knobs of one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Accept cap: connections past this are refused with
    /// `SERVER_FULL`.
    pub max_conns: usize,
    /// Bound on buffered unrelayed bytes per relay direction; a frame
    /// that cannot fit is rejected as malformed.
    pub relay_buf_cap: usize,
    /// Close a relay when no client frame arrives for this long.
    pub idle_timeout: Duration,
    /// Close a relay when a write to its client or shard leg blocks
    /// for this long.
    pub write_timeout: Duration,
    /// How long graceful shutdown waits for in-flight relays.
    pub drain_deadline: Duration,
    /// Drop a pooled shard leg unused for longer than this instead of
    /// reusing it.
    pub pool_idle: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_conns: 4096,
            relay_buf_cap: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            pool_idle: Duration::from_secs(10),
        }
    }
}

impl RouterConfig {
    /// Does nothing: every client connection has its own relay
    /// threads, so there is no worker pool to size. Kept so existing
    /// callers still build.
    #[must_use]
    pub fn with_workers(self, _n: usize) -> Self {
        self
    }

    /// Overrides the drain deadline.
    #[must_use]
    pub fn with_drain_deadline(mut self, d: Duration) -> Self {
        self.drain_deadline = d;
        self
    }

    /// Overrides the idle timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }
}

/// Aggregate accounting returned by [`Router::stats`] and
/// [`Router::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Client connections accepted.
    pub conns: u64,
    /// Sessions bound to a shard (Route frames answered).
    pub routed_sessions: u64,
    /// Fresh TCP connections dialed to shards.
    pub legs_opened: u64,
    /// Sessions served over a pooled (reused) shard leg.
    pub legs_reused: u64,
    /// Relays that ended abnormally (shard loss, protocol error,
    /// timeout).
    pub relay_errors: u64,
    /// Client connections still open.
    pub active_conns: u64,
}

/// A detached, idle shard connection waiting for its next session.
struct PooledLeg {
    stream: TcpStream,
    since: Instant,
}

struct Shared {
    cfg: RouterConfig,
    shards: Vec<Shard>,
    names: Vec<String>,
    daemon: Daemon,
    pools: Vec<Mutex<Vec<PooledLeg>>>,
    routed: AtomicU64,
    legs_opened: AtomicU64,
    legs_reused: AtomicU64,
    relay_errors: AtomicU64,
}

impl Shared {
    fn stats(&self) -> RouterStats {
        // Advisory snapshot, same contract as ServeStats: exact after
        // shutdown joins the relay threads, cross-counter skew
        // tolerated while relays are in flight.
        RouterStats {
            conns: self.daemon.accepted(),
            routed_sessions: self.routed.load(Ordering::Relaxed), // relaxed: advisory snapshot (see above)
            legs_opened: self.legs_opened.load(Ordering::Relaxed), // relaxed: advisory snapshot
            legs_reused: self.legs_reused.load(Ordering::Relaxed), // relaxed: advisory snapshot
            relay_errors: self.relay_errors.load(Ordering::Relaxed), // relaxed: advisory snapshot
            active_conns: self.daemon.live_conns() as u64,
        }
    }

    fn relay_error(&self) {
        // relaxed: monotonic counter; published by the Release
        // decrement of the live count when the relay retires.
        self.relay_errors.fetch_add(1, Ordering::Relaxed);
        self.daemon.count("router.errors", 1);
    }

    /// A warm leg from the shard's pool, or a fresh blocking dial.
    fn acquire_leg(&self, shard: usize) -> std::io::Result<TcpStream> {
        loop {
            let pooled = lock_unpoisoned(self.pools[shard].lock()).pop();
            match pooled {
                Some(leg) if leg.since.elapsed() <= self.cfg.pool_idle => {
                    // relaxed: monotonic counter; published by the
                    // Release decrement of the live count at relay close.
                    self.legs_reused.fetch_add(1, Ordering::Relaxed);
                    self.daemon.count("router.legs_reused", 1);
                    return Ok(leg.stream);
                }
                Some(_stale) => continue, // dropped; dial or try next
                None => break,
            }
        }
        let stream = TcpStream::connect(&self.shards[shard].addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_write_timeout(Some(self.cfg.write_timeout))?;
        // relaxed: monotonic counter; published by the Release
        // decrement of the live count at relay close.
        self.legs_opened.fetch_add(1, Ordering::Relaxed);
        self.daemon.count("router.legs_opened", 1);
        Ok(stream)
    }

    /// Returns a healthy leg to its shard's pool for the next session.
    fn release_leg(&self, shard: usize, stream: TcpStream) {
        if self.daemon.draining() {
            return; // dropping it closes the shard conn promptly
        }
        lock_unpoisoned(self.pools[shard].lock()).push(PooledLeg {
            stream,
            since: Instant::now(),
        });
    }
}

/// The client socket's write side, shared by a relay thread and its
/// leg reader; holding the lock means writing whole frames.
struct ClientOut {
    stream: Arc<TcpStream>,
    frames_out: u64,
}

/// Writes `frames` whole frames to the client. `false` when the client
/// is gone or stopped reading for longer than the write timeout.
fn write_client(out: &Mutex<ClientOut>, bytes: &[u8], frames: u64) -> bool {
    let mut out = lock_unpoisoned(out.lock());
    out.frames_out += frames;
    let mut stream: &TcpStream = &out.stream;
    stream.write_all(bytes).is_ok()
}

/// How one session's leg came back from the leg reader.
enum LegEvent {
    /// The shard answered `ByeAck`; `quiet` when nothing followed it.
    ByeAck { quiet: bool },
    /// The shard leg died or broke framing.
    Lost,
    /// A write to the client failed.
    ClientGone,
}

/// The leg-reader thread of one relay: for each leg handed over, relay
/// shard frames to the client until the session's `ByeAck`, then hand
/// the leg back.
fn leg_reader(
    out: &Mutex<ClientOut>,
    jobs: &mpsc::Receiver<Arc<TcpStream>>,
    events: &mpsc::Sender<LegEvent>,
    cap: usize,
) {
    let mut buf = Vec::new();
    while let Ok(leg) = jobs.recv() {
        buf.clear();
        let event = relay_leg(&leg, out, &mut buf, cap);
        drop(leg);
        if events.send(event).is_err() {
            return;
        }
    }
}

/// Relays whole shard frames from `leg` to the client — one write per
/// read — through the session's `ByeAck`.
fn relay_leg(leg: &TcpStream, out: &Mutex<ClientOut>, buf: &mut Vec<u8>, cap: usize) -> LegEvent {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let room = cap.saturating_sub(buf.len()).min(scratch.len());
        if room == 0 {
            return LegEvent::Lost; // a frame larger than the relay buffer
        }
        let mut input = leg;
        let n = match input.read(&mut scratch[..room]) {
            Ok(0) => return LegEvent::Lost,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LegEvent::Lost,
        };
        buf.extend_from_slice(&scratch[..n]);
        let (mut end, mut frames, mut outcome) = (0, 0, None);
        loop {
            match decode_frame(&buf[end..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    end += used;
                    frames += 1;
                    if matches!(frame, Frame::ByeAck { .. }) {
                        outcome = Some(LegEvent::ByeAck {
                            quiet: end == buf.len(),
                        });
                        break;
                    }
                }
                Err(_) => {
                    // The shard broke framing — treat the leg as lost.
                    outcome = Some(LegEvent::Lost);
                    break;
                }
            }
        }
        if end > 0 && !write_client(out, &buf[..end], frames) {
            return LegEvent::ClientGone;
        }
        if let Some(event) = outcome {
            return event;
        }
        buf.drain(..end);
    }
}

/// A session bound to a shard.
struct Bound {
    shard: usize,
    leg: Arc<TcpStream>,
    /// The leg's id in the daemon's socket registry.
    socket: u64,
    /// Bye has been forwarded.
    bye_sent: bool,
    /// Frames were forwarded after Bye, so the shard may still answer
    /// after its ByeAck: do not pool the leg.
    dirty: bool,
}

/// Why forwarding client frames stopped.
enum Stop {
    /// No complete frame left.
    Incomplete,
    /// The next session's `Route`: held until `ByeAck`.
    Route,
    /// A frame length out of bounds.
    Malformed,
}

/// One client connection, owned by its relay thread.
struct Relay<'a> {
    shared: &'a Shared,
    conn_id: u64,
    client: Arc<TcpStream>,
    out: Arc<Mutex<ClientOut>>,
    jobs: mpsc::Sender<Arc<TcpStream>>,
    events: mpsc::Receiver<LegEvent>,
    /// The session bound to a shard; `None` while awaiting a `Route`.
    bound: Option<Bound>,
    closing: bool,
    /// client → router staging, frame-parsed for `Route` boundaries;
    /// `cpos` marks what has been relayed.
    cbuf: Vec<u8>,
    cpos: usize,
    /// router → shard frames of one pass, written at once.
    fwd: Vec<u8>,
    frames_in: u64,
    clean: bool,
    eof: bool,
    drain_notified: bool,
    last_read: Instant,
}

impl Relay<'_> {
    fn send_client(&mut self, frame: &Frame) {
        if !write_client(&self.out, &frame_bytes(frame), 1) {
            self.close_dirty();
        }
    }

    fn close_dirty(&mut self) {
        self.drop_leg();
        self.clean = false;
        self.closing = true;
    }

    fn fail(&mut self, code: u16, message: &str) {
        self.send_client(&Frame::Error {
            code,
            message: message.to_string(),
        });
        self.close_dirty();
    }

    /// Ends the bound session (if any), back to awaiting a `Route`.
    fn unbind(&mut self) -> Option<Bound> {
        let bound = self.bound.take()?;
        self.shared.daemon.deregister(bound.socket);
        Some(bound)
    }

    /// Drops the shard leg (if any) without pooling it.
    fn drop_leg(&mut self) {
        if let Some(bound) = self.unbind() {
            let _ = bound.leg.shutdown(Shutdown::Both);
        }
    }

    /// The shard leg died mid-session: tell the client, account the
    /// error, close.
    fn shard_lost(&mut self) {
        self.drop_leg();
        self.shared.relay_error();
        self.fail(
            codes::SHARD_UNAVAILABLE,
            "shard connection lost mid-session",
        );
    }

    fn on_leg_event(&mut self, event: LegEvent) {
        match event {
            LegEvent::ByeAck { quiet } => {
                // Session over. Pool the leg only when it is fully
                // quiet: nothing forwarded after Bye, nothing received
                // after the ByeAck. Dropping it otherwise closes it.
                let Some(bound) = self.unbind() else {
                    return;
                };
                if let (true, Ok(leg)) = (quiet && !bound.dirty, Arc::try_unwrap(bound.leg)) {
                    self.shared.release_leg(bound.shard, leg);
                }
            }
            LegEvent::Lost => self.shard_lost(),
            LegEvent::ClientGone => self.close_dirty(),
        }
    }

    /// Tells the client `GoingAway` once drain begins; closes the relay
    /// once the drain deadline has passed.
    fn check_drain(&mut self) {
        let daemon = &self.shared.daemon;
        if !daemon.draining() {
            return;
        }
        if !self.drain_notified {
            self.drain_notified = true;
            self.send_client(&Frame::GoingAway {
                reason: "router is shutting down".to_string(),
            });
        }
        if daemon.past_deadline(Instant::now()) {
            self.close_dirty();
        }
    }

    /// Blocks until the bound session's leg comes back (`ByeAck`) or is
    /// lost, waking every [`WAKE`] to honour drain and the idle
    /// timeout — never an unbounded wait on a stalled shard.
    fn wait_leg(&mut self) {
        while self.bound.is_some() {
            match self.events.recv_timeout(WAKE) {
                Ok(event) => self.on_leg_event(event),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.check_drain();
                    if self.last_read.elapsed() > self.shared.cfg.idle_timeout {
                        self.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => self.shard_lost(),
            }
        }
    }

    /// Binds a session: picks the shard, dials or reuses a leg,
    /// answers `Routed`, and hands the leg to the leg reader.
    fn route(&mut self, key: u64) {
        let shared = self.shared;
        let Some(idx) = rendezvous_shard(key, &shared.names) else {
            self.fail(codes::SHARD_UNAVAILABLE, "router has no shards");
            return;
        };
        let leg = match shared.acquire_leg(idx) {
            Ok(leg) => Arc::new(leg),
            Err(e) => {
                shared.relay_error();
                self.fail(
                    codes::SHARD_UNAVAILABLE,
                    &format!("shard `{}` unreachable: {e}", shared.names[idx]),
                );
                return;
            }
        };
        // relaxed: monotonic counter; published by the Release
        // decrement of the live count when the relay retires.
        shared.routed.fetch_add(1, Ordering::Relaxed);
        shared.daemon.count("router.routed", 1);
        shared.daemon.emit(EventData::ShardRouted {
            conn: self.conn_id,
            key,
            shard: shared.names[idx].clone(),
        });
        // Routed goes out before the leg reader may relay anything.
        self.send_client(&Frame::Routed {
            shard: u32::try_from(idx).unwrap_or(u32::MAX),
            name: shared.names[idx].clone(),
        });
        if self.closing {
            return;
        }
        let handed = self.jobs.send(Arc::clone(&leg)).is_ok();
        self.bound = Some(Bound {
            shard: idx,
            socket: shared.daemon.register(&leg),
            leg,
            bye_sent: false,
            dirty: false,
        });
        if !handed {
            self.shard_lost();
        }
    }

    /// Collects the complete client frames of a bound session into
    /// `fwd`, stopping at the next `Route`.
    fn collect_frames(&mut self) -> Stop {
        let Some(bound) = self.bound.as_mut() else {
            return Stop::Incomplete;
        };
        loop {
            let pending = &self.cbuf[self.cpos..];
            if pending.len() >= 4 {
                let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
                if len == 0 || len > MAX_FRAME_LEN {
                    return Stop::Malformed;
                }
            }
            let ty = match peek_frame_type(pending) {
                None => return Stop::Incomplete,
                Some(TY_ROUTE) => return Stop::Route,
                Some(ty) => ty,
            };
            let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
            self.fwd.extend_from_slice(&pending[..4 + len]);
            self.cpos += 4 + len;
            self.frames_in += 1;
            bound.dirty |= bound.bye_sent;
            bound.bye_sent |= ty == TY_BYE;
        }
    }

    /// Moves complete client frames toward the shard. Unbound, the only
    /// legal frame is `Route`. Bound, whole frames forward verbatim in
    /// one write — except the *next* `Route`, which marks a session
    /// boundary and waits for the current session's `ByeAck`.
    fn relay_client_frames(&mut self) {
        while !self.closing {
            if self.bound.is_none() {
                match decode_frame(&self.cbuf[self.cpos..]) {
                    Ok(None) => break,
                    Ok(Some((frame, used))) => {
                        self.cpos += used;
                        self.frames_in += 1;
                        match frame {
                            Frame::Route { key } => self.route(key),
                            _ => {
                                self.fail(codes::BAD_STATE, "expected Route before session frames")
                            }
                        }
                    }
                    Err(err) => self.fail(codes::MALFORMED, &err.to_string()),
                }
                continue;
            }
            let stop = self.collect_frames();
            if !self.fwd.is_empty() {
                let sent = self
                    .bound
                    .as_ref()
                    .is_some_and(|b| (&*b.leg).write_all(&self.fwd).is_ok());
                self.fwd.clear();
                if !sent {
                    self.shard_lost();
                    break;
                }
            }
            match stop {
                Stop::Incomplete => break,
                Stop::Malformed => self.fail(codes::MALFORMED, "frame length out of bounds"),
                Stop::Route => self.wait_leg(),
            }
        }
        self.cbuf.drain(..self.cpos);
        self.cpos = 0;
    }

    /// Relays until the client finishes between sessions, the relay
    /// fails, or the drain deadline passes.
    fn run(&mut self) {
        let shared = self.shared;
        let cfg = &shared.cfg;
        let _ = self.client.set_read_timeout(Some(WAKE));
        let _ = self.client.set_write_timeout(Some(cfg.write_timeout));
        let mut scratch = [0u8; 16 * 1024];
        loop {
            // Sessions the leg reader finished (or lost) meanwhile.
            while let Ok(event) = self.events.try_recv() {
                self.on_leg_event(event);
            }
            self.check_drain();
            self.relay_client_frames();
            if self.eof {
                // Client EOF: close once the shard owes nothing more.
                self.wait_leg();
            }
            if self.closing || self.eof {
                return;
            }
            let room = cfg
                .relay_buf_cap
                .saturating_sub(self.cbuf.len())
                .min(scratch.len());
            if room == 0 {
                self.fail(codes::MALFORMED, "frame exceeds the relay buffer");
                return;
            }
            let mut input: &TcpStream = &self.client;
            match input.read(&mut scratch[..room]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.cbuf.extend_from_slice(&scratch[..n]);
                    self.last_read = Instant::now();
                }
                Err(e) if timed_out(e.kind()) => {
                    if self.last_read.elapsed() > cfg.idle_timeout {
                        self.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// Admits or refuses one accepted client connection; an admitted one
/// gets a relay thread and a leg-reader thread.
fn spawn_relay(shared: &Arc<Shared>, stream: TcpStream) -> Option<JoinHandle<()>> {
    let conn = shared
        .daemon
        .admit(stream, shared.cfg.max_conns, "router")?;
    let out = Arc::new(Mutex::new(ClientOut {
        stream: Arc::clone(&conn.stream),
        frames_out: 0,
    }));
    let (jobs, job_rx) = mpsc::channel();
    let (event_tx, events) = mpsc::channel();
    let cap = shared.cfg.relay_buf_cap;
    let reader_out = Arc::clone(&out);
    let reader = shared.daemon.spawn(
        format!("router-leg-{}", conn.conn_id),
        conn.socket,
        move || leg_reader(&reader_out, &job_rx, &event_tx, cap),
    )?;
    let thread_shared = Arc::clone(shared);
    shared.daemon.spawn(
        format!("router-conn-{}", conn.conn_id),
        conn.socket,
        move || {
            let shared = thread_shared;
            let mut relay = Relay {
                shared: &shared,
                conn_id: conn.conn_id,
                client: Arc::clone(&conn.stream),
                out,
                jobs,
                events,
                bound: None,
                closing: false,
                cbuf: Vec::new(),
                cpos: 0,
                fwd: Vec::new(),
                frames_in: 0,
                clean: true,
                eof: false,
                drain_notified: false,
                last_read: Instant::now(),
            };
            relay.run();
            relay.drop_leg();
            let Relay {
                out,
                jobs,
                frames_in,
                clean,
                ..
            } = relay;
            // Closing the client first fails a leg-reader write the
            // client stopped reading; dropping `jobs` ends the reader.
            let _ = conn.stream.shutdown(Shutdown::Both);
            drop(jobs);
            let _ = reader.join();
            if !clean {
                // relaxed: monotonic counter; published by the Release
                // decrement of the live count just below.
                shared.relay_errors.fetch_add(1, Ordering::Relaxed);
            }
            shared.daemon.emit(EventData::ConnClosed {
                conn: conn.conn_id,
                frames_in,
                frames_out: lock_unpoisoned(out.lock()).frames_out,
            });
            shared.daemon.retire(conn.socket);
        },
    )
}

/// A bound, running router. Dropping the handle shuts it down
/// gracefully (same as [`Router::shutdown`]).
pub struct Router {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts routing to
    /// `shards`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects an empty shard list or
    /// duplicate shard names with `InvalidInput`.
    pub fn bind(addr: &str, shards: Vec<Shard>, cfg: RouterConfig) -> std::io::Result<Router> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let mut seen = shards.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
        seen.sort();
        seen.dedup();
        if seen.len() != shards.len() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "duplicate shard names",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let names = shards.iter().map(|s| s.name.clone()).collect();
        let pools = shards.iter().map(|_| Mutex::new(Vec::new())).collect();
        let shared = Arc::new(Shared {
            daemon: Daemon::new(cfg.drain_deadline),
            cfg,
            shards,
            names,
            pools,
            routed: AtomicU64::new(0),
            legs_opened: AtomicU64::new(0),
            legs_reused: AtomicU64::new(0),
            relay_errors: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-accept".to_string())
                .spawn(move || {
                    accept_loop(&shared.daemon, &listener, |stream| {
                        spawn_relay(&shared, stream)
                    })
                })?
        };
        Ok(Router {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard names in configuration order.
    pub fn shard_names(&self) -> &[String] {
        &self.shared.names
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Builds the router's run manifest (`kind: "router"`).
    pub fn manifest(&self, name: &str) -> RunManifest {
        let tags = [("shards".to_string(), self.shared.names.join(","))].into();
        self.shared.daemon.manifest("router", name, "relay", tags)
    }

    /// The router's retained telemetry events as JSONL — the first
    /// few thousand; the manifest's event counts cover every event.
    pub fn events_jsonl(&self) -> String {
        self.shared.daemon.telemetry().events_jsonl()
    }

    /// Graceful shutdown: stop accepting, tell every relay
    /// [`Frame::GoingAway`], keep relaying until each client finishes
    /// or the drain deadline passes, force-close what is left, join
    /// all threads, close pooled shard legs, and return the final
    /// stats.
    pub fn shutdown(mut self) -> RouterStats {
        self.begin_drain_and_join();
        self.shared.stats()
    }

    fn begin_drain_and_join(&mut self) {
        self.shared.daemon.shutdown(self.addr, self.acceptor.take());
        // Dropping pooled legs closes the idle shard connections so
        // the shards themselves can drain promptly.
        for pool in &self.shared.pools {
            lock_unpoisoned(pool.lock()).clear();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.begin_drain_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_name_addr() {
        let s = Shard::parse("s0=127.0.0.1:7401").expect("valid spec");
        assert_eq!(s.name, "s0");
        assert_eq!(s.addr, "127.0.0.1:7401");
        assert!(Shard::parse("no-equals").is_none());
        assert!(Shard::parse("=addr").is_none());
        assert!(Shard::parse("name=").is_none());
    }

    #[test]
    fn rendezvous_empty_is_none() {
        let names: [&str; 0] = [];
        assert_eq!(rendezvous_shard(7, &names), None);
    }

    #[test]
    fn rendezvous_single_always_wins() {
        for key in 0..64 {
            assert_eq!(rendezvous_shard(key, &["only"]), Some(0));
        }
    }

    #[test]
    fn rendezvous_is_permutation_invariant() {
        let a = ["s0", "s1", "s2", "s3"];
        let b = ["s3", "s1", "s0", "s2"];
        for key in 0..512u64 {
            let wa = rendezvous_shard(key, &a).map(|i| a[i]);
            let wb = rendezvous_shard(key, &b).map(|i| b[i]);
            assert_eq!(wa, wb, "key {key} moved between orderings");
        }
    }

    #[test]
    fn rendezvous_spreads_keys() {
        let names = ["s0", "s1", "s2", "s3"];
        let mut counts = [0usize; 4];
        for key in 0..4096u64 {
            counts[rendezvous_shard(key, &names).expect("non-empty")] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Perfectly uniform would be 1024 each; allow wide slack.
            assert!(c > 512, "shard {i} starved: {c}/4096");
        }
    }

    #[test]
    fn rendezvous_remap_is_minimal() {
        let full = ["s0", "s1", "s2", "s3"];
        let less = ["s0", "s1", "s3"];
        for key in 0..2048u64 {
            let before = full[rendezvous_shard(key, &full).expect("non-empty")];
            let after = less[rendezvous_shard(key, &less).expect("non-empty")];
            if before != "s2" {
                assert_eq!(before, after, "key {key} moved though its shard survived");
            }
        }
    }
}
