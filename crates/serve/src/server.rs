//! The `mobicore-serve` daemon: a TCP policy-decision server with one
//! blocking thread per connection.
//!
//! Threading model: the acceptor thread blocks in `accept` and starts
//! one thread per admitted connection. That thread owns the
//! connection's sessions outright: it reads what the socket has,
//! decodes up to the per-pass frame budget, runs the session's policy,
//! and writes every reply of the pass in one coalesced write. Per-
//! session ordering is structural — one thread, one socket — and a
//! decision leaves as soon as the policy returns: the thread that
//! answers is parked in `read`, and the kernel wakes it when the bytes
//! arrive. Reads wait at most a fixed 10 ms wake period, so the thread
//! notices drain and idle timeouts; writes block under
//! `write_timeout`.
//!
//! Backpressure is two-layered: a session that pipelines more complete
//! frames than its budget gets a [`Frame::Backpressure`] notice on the
//! rising edge (decisions keep flowing — nothing is dropped, the
//! surplus is served in the next pass before the socket is read again),
//! and the connection reads nothing while it owes a write, so TCP flow
//! control pushes back on a peer that ignores the notice. A peer that
//! stops *reading* for longer than the write timeout is closed as a
//! slow consumer.
//!
//! Graceful shutdown flips the daemon into drain: the acceptor stops,
//! every connection is told [`Frame::GoingAway`] within one wake
//! period, sessions that finish with Bye/ByeAck drain cleanly, and at
//! the drain deadline shutdown force-closes every connection socket
//! still open — so `shutdown()` returns within the configured deadline
//! even when a connection is blocked writing to a peer that stopped
//! reading.

use crate::conn::{accept_loop, timed_out, Daemon, WAKE};
use crate::protocol::{
    codes, decode_frame, encode_frame, has_complete_frame, Frame, PROTOCOL_VERSION,
};
use mobicore_analyze::sync::atomic::{AtomicU64, Ordering};
use mobicore_analyze::sync::Arc;
use mobicore_model::profiles;
use mobicore_sim::{CpuControl, CpuPolicy};
use mobicore_telemetry::{EventData, RunManifest};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Accept cap: connections past this are refused with `SERVER_FULL`.
    pub max_sessions: usize,
    /// Per-service-pass frame budget; pipelining past it raises
    /// backpressure.
    pub queue_budget: usize,
    /// Bound on buffered unparsed input per connection, bytes. A frame
    /// that cannot fit is rejected as malformed.
    pub read_buf_cap: usize,
    /// Close a session when no frame arrives for this long.
    pub idle_timeout: Duration,
    /// Close a connection when a write to it blocks for this long.
    pub write_timeout: Duration,
    /// How long graceful shutdown waits for in-flight sessions.
    pub drain_deadline: Duration,
    /// Pipelining window advertised in HelloAck: the most snapshots a
    /// client should keep in flight before collecting decisions.
    /// Advisory — the server's own pacing is `queue_budget` per
    /// service pass either way.
    pub pipeline_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 4096,
            queue_budget: 64,
            read_buf_cap: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            pipeline_window: 32,
        }
    }
}

impl ServeConfig {
    /// Does nothing: every connection has its own thread, so there is
    /// no worker pool to size. Kept so existing callers still build.
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

    /// Overrides the per-session frame budget (clamped to ≥ 1).
    #[must_use]
    pub fn with_queue_budget(mut self, n: usize) -> Self {
        self.queue_budget = n.max(1);
        self
    }
}

/// Aggregate accounting returned by [`ServerHandle::stats`] and
/// [`ServerHandle::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions that completed a handshake.
    pub sessions: u64,
    /// Decisions served.
    pub decisions: u64,
    /// Sessions that ended with a clean Bye/ByeAck.
    pub drained_sessions: u64,
    /// Sessions closed any other way (error, timeout, drain deadline).
    pub aborted_sessions: u64,
    /// Rising-edge backpressure notices sent.
    pub backpressure_events: u64,
    /// Frames rejected by the codec.
    pub protocol_errors: u64,
    /// Connections still open.
    pub active_conns: u64,
}

struct Shared {
    cfg: ServeConfig,
    daemon: Daemon,
    next_session: AtomicU64,
    sessions: AtomicU64,
    decisions: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
    backpressure: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        // A live snapshot is advisory by contract: each counter is
        // internally consistent, cross-counter skew is acceptable
        // while sessions are in flight. The *final* stats read after
        // `Daemon::shutdown` is exact because every connection's Release
        // decrement of the live count (and the join itself)
        // happens-before it — model-checked in
        // `mobicore_analyze::protocols::serve::check_drain_stats_exact`.
        ServeStats {
            sessions: self.sessions.load(Ordering::Relaxed), // relaxed: advisory snapshot (see above)
            decisions: self.decisions.load(Ordering::Relaxed), // relaxed: advisory snapshot
            drained_sessions: self.drained.load(Ordering::Relaxed), // relaxed: advisory snapshot
            aborted_sessions: self.aborted.load(Ordering::Relaxed), // relaxed: advisory snapshot
            backpressure_events: self.backpressure.load(Ordering::Relaxed), // relaxed: advisory snapshot
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed), // relaxed: advisory snapshot
            active_conns: self.daemon.live_conns() as u64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessState {
    AwaitHello,
    Streaming,
    /// Flush pending output, then close.
    Closing,
}

/// One connection's protocol state; its thread is the only owner.
struct Session {
    conn_id: u64,
    session_id: u64,
    state: SessState,
    /// Received bytes not yet decoded.
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    policy: Option<Box<dyn CpuPolicy + Send>>,
    ctl: CpuControl,
    decisions: u64,
    frames_in: u64,
    frames_out: u64,
    last_seq: Option<u64>,
    backpressured: bool,
    eof: bool,
    drain_notified: bool,
    last_read: Instant,
}

impl Session {
    fn new(conn_id: u64) -> Self {
        Session {
            conn_id,
            session_id: 0,
            state: SessState::AwaitHello,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            policy: None,
            ctl: CpuControl::new(),
            decisions: 0,
            frames_in: 0,
            frames_out: 0,
            last_seq: None,
            backpressured: false,
            eof: false,
            drain_notified: false,
            last_read: Instant::now(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        encode_frame(frame, &mut self.wbuf);
        self.frames_out += 1;
    }

    fn fail(&mut self, code: u16, message: &str) {
        self.send(&Frame::Error {
            code,
            message: message.to_string(),
        });
        self.state = SessState::Closing;
    }
}

/// One service pass: decode and serve up to the frame budget, then
/// raise rising-edge backpressure when complete frames remain.
fn service(sess: &mut Session, shared: &Shared) {
    let (mut served, mut decoded) = (0usize, 0usize);
    while served < shared.cfg.queue_budget && sess.state != SessState::Closing {
        match decode_frame(&sess.rbuf[decoded..]) {
            Ok(None) => break,
            Ok(Some((frame, used))) => {
                decoded += used;
                sess.frames_in += 1;
                served += 1;
                handle_frame(sess, shared, frame);
            }
            Err(err) => {
                // relaxed: monotonic counter; published by the Release
                // decrement of the live count when the connection retires.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.daemon.count("serve.protocol_errors", 1);
                sess.fail(codes::MALFORMED, &err.to_string());
            }
        }
    }
    sess.rbuf.drain(..decoded);

    // Rising-edge backpressure when the peer pipelines past the
    // budget. Nothing is dropped — the surplus is served next pass.
    if sess.state == SessState::Streaming {
        if has_complete_frame(&sess.rbuf) {
            if !sess.backpressured {
                sess.backpressured = true;
                let queued = count_complete_frames(&sess.rbuf);
                // relaxed: monotonic counter; published by the Release
                // decrement of the live count when the connection retires.
                shared.backpressure.fetch_add(1, Ordering::Relaxed);
                shared.daemon.count("serve.backpressure", 1);
                shared.daemon.emit(EventData::Backpressure {
                    session: sess.session_id,
                    queued,
                    limit: shared.cfg.queue_budget as u64,
                });
                sess.send(&Frame::Backpressure {
                    queued: u32::try_from(queued).unwrap_or(u32::MAX),
                    limit: u32::try_from(shared.cfg.queue_budget).unwrap_or(u32::MAX),
                });
            }
        } else {
            sess.backpressured = false;
        }
    }
}

/// Serves one connection until it closes, fails, or the drain deadline
/// passes.
fn serve_conn(shared: &Shared, stream: &TcpStream, sess: &mut Session) {
    let _ = stream.set_read_timeout(Some(WAKE));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut scratch = [0u8; 16 * 1024];
    loop {
        // 1. Drain notice (once) when shutdown begins.
        if shared.daemon.draining() {
            if !sess.drain_notified {
                sess.drain_notified = true;
                sess.send(&Frame::GoingAway {
                    reason: "server is shutting down".to_string(),
                });
            }
            if shared.daemon.past_deadline(Instant::now()) {
                return;
            }
        }

        // 2. Serve up to the budget; every reply of the pass leaves in
        // one coalesced write — with the client's corked submit
        // batches, this is what amortizes syscalls across pipelined
        // frames.
        service(sess, shared);
        if !sess.wbuf.is_empty() {
            let mut out = stream;
            if out.write_all(&sess.wbuf).is_err() {
                return; // dead peer, or one that stopped reading
            }
            sess.wbuf.clear();
        }
        if sess.state == SessState::Closing {
            return;
        }

        // 3. A surplus past the budget is served before reading more.
        if has_complete_frame(&sess.rbuf) {
            continue;
        }
        if sess.eof {
            return;
        }

        // 4. Wait for bytes, at most one wake period.
        let room = shared
            .cfg
            .read_buf_cap
            .saturating_sub(sess.rbuf.len())
            .min(scratch.len());
        if room == 0 {
            sess.fail(codes::MALFORMED, "frame exceeds the read buffer");
            continue;
        }
        let mut input = stream;
        match input.read(&mut scratch[..room]) {
            Ok(0) => sess.eof = true,
            Ok(n) => {
                sess.rbuf.extend_from_slice(&scratch[..n]);
                sess.last_read = Instant::now();
            }
            Err(e) if timed_out(e.kind()) => {
                if sess.last_read.elapsed() > shared.cfg.idle_timeout {
                    sess.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
                }
            }
            Err(_) => return,
        }
    }
}

fn count_complete_frames(mut buf: &[u8]) -> u64 {
    let mut n = 0;
    while has_complete_frame(buf) {
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        buf = &buf[4 + len..];
        n += 1;
    }
    n
}

fn handle_frame(sess: &mut Session, shared: &Shared, frame: Frame) {
    match (sess.state, frame) {
        (
            SessState::AwaitHello,
            Frame::Hello {
                version,
                policy,
                profile,
                seed,
            },
        ) => {
            if version != PROTOCOL_VERSION {
                sess.fail(
                    codes::VERSION_MISMATCH,
                    &format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
                );
                return;
            }
            let Some(device) = profiles::by_name(&profile) else {
                sess.fail(
                    codes::UNKNOWN_PROFILE,
                    &format!("unknown profile `{profile}`"),
                );
                return;
            };
            let Some(resolved) = mobicore::registry::build(&policy, &device, seed) else {
                sess.fail(codes::UNKNOWN_POLICY, &format!("unknown policy `{policy}`"));
                return;
            };
            // relaxed: id allocation only needs atomicity, not ordering.
            // Distinct from conn_id: one hot connection can carry many
            // sessions back to back (ByeAck returns to AwaitHello).
            sess.session_id = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let name = resolved.name().to_string();
            let sampling_us = resolved.sampling_period_us();
            sess.policy = Some(resolved);
            sess.state = SessState::Streaming;
            // relaxed: monotonic counter; published by the Release
            // decrement of the live count when the connection retires.
            shared.sessions.fetch_add(1, Ordering::Relaxed);
            shared.daemon.count("serve.sessions", 1);
            shared.daemon.emit(EventData::SessionStart {
                session: sess.session_id,
                policy: name.clone(),
            });
            sess.send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
                session: sess.session_id,
                policy: name,
                sampling_us,
                window: u32::try_from(shared.cfg.pipeline_window).unwrap_or(u32::MAX),
            });
        }
        (SessState::Streaming, Frame::Snapshot { seq, snap }) => {
            if sess.last_seq.is_some_and(|last| seq <= last) {
                sess.fail(
                    codes::BAD_SEQ,
                    &format!("sequence number {seq} did not increase"),
                );
                return;
            }
            sess.last_seq = Some(seq);
            let t0 = Instant::now();
            let Some(policy) = sess.policy.as_mut() else {
                sess.fail(codes::BAD_STATE, "no policy bound");
                return;
            };
            policy.on_sample(&snap, &mut sess.ctl);
            let commands = sess.ctl.take();
            let notes = sess.ctl.take_notes();
            let service_us = t0.elapsed().as_secs_f64() * 1e6;
            sess.decisions += 1;
            // relaxed: monotonic counter; published by the Release
            // decrement of the live count when the connection retires
            // (model-checked: protocols::serve::check_drain_stats_exact).
            shared.decisions.fetch_add(1, Ordering::Relaxed);
            {
                let mut tel = shared.daemon.telemetry();
                tel.count("serve.decisions", 1);
                tel.count("serve.notes", notes.len() as u64);
                tel.record("serve.decision_us", service_us);
            }
            sess.send(&Frame::Decision {
                seq,
                commands,
                notes,
            });
        }
        (_, Frame::Bye) => {
            sess.send(&Frame::ByeAck {
                decisions: sess.decisions,
            });
            end_session(sess, shared, true);
            // Hot connection reuse: unless draining, the connection
            // returns to AwaitHello so a router (or fleet client) can
            // start the next device session without a fresh TCP
            // handshake — and without exhausting ephemeral ports at
            // 100k+ sessions.
            sess.state = if shared.daemon.draining() {
                SessState::Closing
            } else {
                SessState::AwaitHello
            };
        }
        (_, Frame::Error { .. }) => {
            // The peer has given up; nothing left to say.
            sess.state = SessState::Closing;
        }
        (state, frame) => {
            sess.fail(
                codes::BAD_STATE,
                &format!("frame {} not legal in state {state:?}", frame_name(&frame)),
            );
        }
    }
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::HelloAck { .. } => "HelloAck",
        Frame::Snapshot { .. } => "Snapshot",
        Frame::Decision { .. } => "Decision",
        Frame::Backpressure { .. } => "Backpressure",
        Frame::Bye => "Bye",
        Frame::ByeAck { .. } => "ByeAck",
        Frame::GoingAway { .. } => "GoingAway",
        Frame::Error { .. } => "Error",
        Frame::Route { .. } => "Route",
        Frame::Routed { .. } => "Routed",
    }
}

/// Accounts the end of one session (clean Bye/ByeAck or not) and
/// resets the per-session state so the connection can host another.
fn end_session(sess: &mut Session, shared: &Shared, clean: bool) {
    if sess.session_id == 0 {
        return;
    }
    if clean {
        // relaxed: monotonic counter; published by the Release
        // decrement of the live count when the connection retires.
        shared.drained.fetch_add(1, Ordering::Relaxed);
    } else {
        // relaxed: monotonic counter; published by the Release
        // decrement of the live count when the connection retires.
        shared.aborted.fetch_add(1, Ordering::Relaxed);
    }
    shared.daemon.emit(EventData::SessionEnd {
        session: sess.session_id,
        decisions: sess.decisions,
        drained: clean,
    });
    sess.session_id = 0;
    sess.policy = None;
    sess.decisions = 0;
    sess.last_seq = None;
    sess.backpressured = false;
}

fn finalize(sess: &mut Session, shared: &Shared) {
    // A session still open at connection close did not Bye cleanly.
    end_session(sess, shared, false);
    shared.daemon.emit(EventData::ConnClosed {
        conn: sess.conn_id,
        frames_in: sess.frames_in,
        frames_out: sess.frames_out,
    });
}

/// Admits or refuses one accepted connection; an admitted one gets its
/// own thread.
fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) -> Option<JoinHandle<()>> {
    let conn = shared
        .daemon
        .admit(stream, shared.cfg.max_sessions, "serve")?;
    let thread_shared = Arc::clone(shared);
    shared.daemon.spawn(
        format!("serve-conn-{}", conn.conn_id),
        conn.socket,
        move || {
            let shared = thread_shared;
            let mut sess = Session::new(conn.conn_id);
            serve_conn(&shared, &conn.stream, &mut sess);
            finalize(&mut sess, &shared);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            shared.daemon.retire(conn.socket);
        },
    )
}

/// A bound, running daemon. Dropping the handle shuts it down
/// gracefully (same as [`ServerHandle::shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

/// Alias kept for readability at call sites: [`Server::bind`] returns
/// the handle you shut down.
pub type ServerHandle = Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the acceptor
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket errors of binding the listener or
    /// starting the acceptor.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            daemon: Daemon::new(cfg.drain_deadline),
            cfg,
            next_session: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    accept_loop(&shared.daemon, &listener, |stream| {
                        spawn_conn(&shared, stream)
                    })
                })?
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Builds the daemon's run manifest (`kind: "serve"`): uptime,
    /// telemetry metric rollups, and event counts — the artifact
    /// `mobicore-inspect` renders and diffs.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let cfg = &self.shared.cfg;
        let tags = [
            ("max_sessions", cfg.max_sessions),
            ("queue_budget", cfg.queue_budget),
            ("pipeline_window", cfg.pipeline_window),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        self.shared.daemon.manifest("serve", name, "multi", tags)
    }

    /// The daemon's retained telemetry events as JSONL — the first
    /// few thousand; the manifest's event counts cover every event.
    pub fn events_jsonl(&self) -> String {
        self.shared.daemon.telemetry().events_jsonl()
    }

    /// Graceful shutdown: stop accepting, tell every session
    /// [`Frame::GoingAway`], serve until each finishes or the drain
    /// deadline passes, force-close what is left, then join all
    /// threads and return the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_drain_and_join();
        self.shared.stats()
    }

    fn begin_drain_and_join(&mut self) {
        self.shared.daemon.shutdown(self.addr, self.acceptor.take());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain_and_join();
    }
}
