//! Blocking client for the `mobicore-serve` protocol, plus
//! [`RemotePolicy`] — a [`CpuPolicy`] adapter that forwards every
//! sampling window over the wire and replays the daemon's decision
//! locally, so a `Simulation` driven by a remote policy is
//! byte-identical to one running the same policy in process.
//!
//! Frame I/O is *corked*: every outgoing frame is appended to a write
//! buffer and nothing touches the socket until an explicit flush point
//! ([`ClientSession::flush`], or implicitly the first blocking read) —
//! so a batch of pipelined snapshots costs one `write` syscall, not
//! one per frame. Pipelining is windowed: up to
//! [`ClientSession::window`] snapshots may be in flight
//! ([`ClientSession::submit`]) before decisions must be collected
//! ([`ClientSession::collect`]); the lockstep
//! [`ClientSession::request`] is submit + flush + collect with a
//! window of one frame in flight.

use crate::protocol::{decode_frame, encode_frame, Frame, WireError, PROTOCOL_VERSION};
use mobicore_sim::{Command, CpuControl, CpuPolicy, PolicySnapshot};
use mobicore_telemetry::EventData;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes the codec rejected.
    Wire(WireError),
    /// The server answered with a typed [`Frame::Error`].
    Remote {
        /// One of [`crate::protocol::codes`].
        code: u16,
        /// The server's detail message.
        message: String,
    },
    /// The server is draining and asked us to finish.
    GoingAway(String),
    /// The peer sent a frame that is not legal at this point.
    UnexpectedFrame(&'static str),
    /// The peer closed the connection mid-exchange.
    Disconnected,
    /// `submit` was called with the pipelining window already full;
    /// collect a decision first.
    WindowFull,
    /// `collect` was called with nothing in flight.
    NothingInFlight,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::GoingAway(reason) => write!(f, "server going away: {reason}"),
            ClientError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::WindowFull => write!(f, "pipelining window is full"),
            ClientError::NothingInFlight => write!(f, "no request in flight to collect"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One decision as received from the daemon.
#[derive(Debug, Clone)]
pub struct RemoteDecision {
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Commands the remote policy queued, in issue order.
    pub commands: Vec<Command>,
    /// Telemetry notes the remote policy attached, in issue order.
    pub notes: Vec<EventData>,
}

/// A blocking protocol session: connect, handshake, windowed
/// snapshot→decision exchanges, clean Bye/ByeAck teardown.
///
/// One connection can carry many sessions back to back
/// ([`ClientSession::end_session`] then [`ClientSession::hello`]
/// again) — through a `mobicore-router`, each opens with
/// [`ClientSession::route_hello`] instead, so consecutive sessions may
/// land on different shards over the same hot client connection.
#[derive(Debug)]
pub struct ClientSession {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    seq: u64,
    inflight: VecDeque<u64>,
    window: usize,
    server_window: u32,
    session_id: u64,
    policy_name: String,
    sampling_us: u64,
    backpressure_seen: u64,
    going_away: bool,
}

impl ClientSession {
    /// Connects to `addr` and performs the Hello/HelloAck handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server rejects the version,
    /// policy, or profile; I/O and wire errors otherwise.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        policy: &str,
        profile: &str,
        seed: u64,
    ) -> Result<ClientSession, ClientError> {
        let mut sess = Self::connect_raw(addr)?;
        sess.hello(policy, profile, seed)?;
        Ok(sess)
    }

    /// Opens the TCP connection, with 30-s read/write timeouts, without
    /// starting a session. Follow with [`ClientSession::hello`], or
    /// [`ClientSession::route_hello`] against a router.
    ///
    /// # Errors
    ///
    /// Socket errors only; nothing is sent yet.
    pub fn connect_raw<A: ToSocketAddrs>(addr: A) -> Result<ClientSession, ClientError> {
        let timeout = Duration::from_secs(30);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(ClientSession {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            seq: 0,
            inflight: VecDeque::new(),
            window: 1,
            server_window: 0,
            session_id: 0,
            policy_name: String::new(),
            sampling_us: 0,
            backpressure_seen: 0,
            going_away: false,
        })
    }

    /// Sets the requested pipelining window (clamped to ≥ 1); the
    /// effective window is additionally capped by what the server
    /// advertises in its HelloAck.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.set_window(window);
        self
    }

    /// See [`ClientSession::with_window`].
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// The effective pipelining window: the configured request capped
    /// by the server's advertisement (once a HelloAck has arrived).
    pub fn window(&self) -> usize {
        if self.server_window == 0 {
            self.window
        } else {
            self.window.min(self.server_window as usize).max(1)
        }
    }

    /// The server-assigned session id (0 between sessions).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The resolved policy name the server reported.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The remote policy's sampling period, µs.
    pub fn sampling_us(&self) -> u64 {
        self.sampling_us
    }

    /// Backpressure notices received so far.
    pub fn backpressure_seen(&self) -> u64 {
        self.backpressure_seen
    }

    /// Queues `frame` into the corked write buffer; no syscall happens
    /// until [`ClientSession::flush`].
    fn queue(&mut self, frame: &Frame) {
        encode_frame(frame, &mut self.wbuf);
    }

    /// Writes every queued frame to the socket in one `write_all`.
    ///
    /// # Errors
    ///
    /// Socket errors; the buffer is kept so a retry resends cleanly.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Receives the next frame, absorbing advisory
    /// [`Frame::Backpressure`] notices (counted, not surfaced) and
    /// remembering [`Frame::GoingAway`]. Flushes queued output first —
    /// blocking on a read with requests still corked would deadlock.
    fn recv(&mut self) -> Result<Frame, ClientError> {
        self.flush()?;
        loop {
            if let Some((frame, used)) = decode_frame(&self.rbuf[self.rpos..])? {
                self.rpos += used;
                if self.rpos == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                match frame {
                    Frame::Backpressure { .. } => {
                        self.backpressure_seen += 1;
                        continue;
                    }
                    Frame::GoingAway { .. } => {
                        self.going_away = true;
                        continue;
                    }
                    other => return Ok(other),
                }
            }
            let mut scratch = [0u8; 16 * 1024];
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Whether the server has announced it is draining.
    pub fn going_away(&self) -> bool {
        self.going_away
    }

    /// Starts a session: Hello, wait for HelloAck. Legal on a fresh
    /// connection and again after [`ClientSession::end_session`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server rejects the version,
    /// policy, or profile; I/O and wire errors otherwise.
    pub fn hello(&mut self, policy: &str, profile: &str, seed: u64) -> Result<(), ClientError> {
        self.queue_hello(policy, profile, seed);
        self.await_hello_ack()
    }

    /// Against a `mobicore-router`: Route + Hello corked into one flush
    /// (one round trip through the router instead of two). The router
    /// binds the session to the shard owning `key`; returns that
    /// shard's `(index, name)`. Between sessions it may be repeated
    /// with a different key.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the router has no reachable shard
    /// or the shard rejects the Hello; wire/socket failures otherwise.
    pub fn route_hello(
        &mut self,
        key: u64,
        policy: &str,
        profile: &str,
        seed: u64,
    ) -> Result<(u32, String), ClientError> {
        self.queue(&Frame::Route { key });
        self.queue_hello(policy, profile, seed);
        let routed = match self.recv()? {
            Frame::Routed { shard, name } => (shard, name),
            Frame::Error { code, message } => return Err(ClientError::Remote { code, message }),
            _ => return Err(ClientError::UnexpectedFrame("expected Routed")),
        };
        self.await_hello_ack()?;
        Ok(routed)
    }

    fn queue_hello(&mut self, policy: &str, profile: &str, seed: u64) {
        self.queue(&Frame::Hello {
            version: PROTOCOL_VERSION,
            policy: policy.to_string(),
            profile: profile.to_string(),
            seed,
        });
    }

    /// Reads the HelloAck that answers a queued Hello and adopts the
    /// session it describes.
    fn await_hello_ack(&mut self) -> Result<(), ClientError> {
        match self.recv()? {
            Frame::HelloAck {
                version,
                session,
                policy,
                sampling_us,
                window,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(ClientError::UnexpectedFrame("HelloAck version"));
                }
                self.session_id = session;
                self.policy_name = policy;
                self.sampling_us = sampling_us;
                self.server_window = window;
                self.seq = 0;
                self.inflight.clear();
                Ok(())
            }
            Frame::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::UnexpectedFrame("expected HelloAck")),
        }
    }

    /// Queues one snapshot into the corked buffer and returns its
    /// sequence number. Nothing is written until
    /// [`ClientSession::flush`] (or the flush implicit in
    /// [`ClientSession::collect`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::WindowFull`] when [`ClientSession::window`]
    /// snapshots are already in flight.
    pub fn submit(&mut self, snap: &PolicySnapshot) -> Result<u64, ClientError> {
        if self.inflight.len() >= self.window() {
            return Err(ClientError::WindowFull);
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue(&Frame::Snapshot {
            seq,
            snap: snap.clone(),
        });
        self.inflight.push_back(seq);
        Ok(seq)
    }

    /// Blocks for the oldest in-flight decision (flushing queued
    /// output first) and checks its sequence echo.
    ///
    /// # Errors
    ///
    /// [`ClientError::NothingInFlight`] without a prior `submit`;
    /// [`ClientError::Remote`] on a typed server error; wire/socket
    /// failures otherwise.
    pub fn collect(&mut self) -> Result<RemoteDecision, ClientError> {
        let Some(expected) = self.inflight.pop_front() else {
            return Err(ClientError::NothingInFlight);
        };
        match self.recv()? {
            Frame::Decision {
                seq,
                commands,
                notes,
            } => {
                if seq != expected {
                    return Err(ClientError::UnexpectedFrame("decision out of order"));
                }
                Ok(RemoteDecision {
                    seq,
                    commands,
                    notes,
                })
            }
            Frame::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::UnexpectedFrame("expected Decision")),
        }
    }

    /// Sends one snapshot and blocks for the matching decision — the
    /// lockstep path: submit, flush, collect.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] on a typed server error; wire/socket
    /// failures otherwise.
    pub fn request(&mut self, snap: &PolicySnapshot) -> Result<RemoteDecision, ClientError> {
        if self.inflight.len() >= self.window() {
            return Err(ClientError::WindowFull);
        }
        self.submit(snap)?;
        self.collect()
    }

    /// Ends the current session (Bye → ByeAck) but keeps the
    /// connection open for another [`ClientSession::hello`] /
    /// [`ClientSession::route_hello`]. Late pipelined decisions are drained
    /// and discarded; returns the server-side decision count.
    ///
    /// # Errors
    ///
    /// Propagates socket and wire failures.
    pub fn end_session(&mut self) -> Result<u64, ClientError> {
        self.queue(&Frame::Bye);
        loop {
            match self.recv()? {
                Frame::ByeAck { decisions } => {
                    self.session_id = 0;
                    self.seq = 0;
                    self.inflight.clear();
                    return Ok(decisions);
                }
                Frame::Decision { .. } => continue, // late pipelined answers
                Frame::Error { code, message } => {
                    return Err(ClientError::Remote { code, message })
                }
                _ => return Err(ClientError::UnexpectedFrame("expected ByeAck")),
            }
        }
    }

    /// Clean teardown: Bye, wait for ByeAck, drop the connection.
    /// Returns the decision count the server accounted to this session.
    ///
    /// # Errors
    ///
    /// Propagates socket and wire failures; the session is consumed
    /// either way.
    pub fn finish(mut self) -> Result<u64, ClientError> {
        self.end_session()
    }
}

/// A [`CpuPolicy`] that delegates every sampling window to a
/// `mobicore-serve` daemon.
///
/// `name()` and `sampling_period_us()` mirror what the server resolved
/// in its HelloAck, and each decision's commands *and* telemetry notes
/// are replayed into the local [`CpuControl`] — so a simulation driven
/// by `RemotePolicy` produces the same report, event stream, and
/// manifest as the same policy running in process.
pub struct RemotePolicy {
    sess: ClientSession,
    errors: u64,
}

impl RemotePolicy {
    /// Connects and handshakes; see [`ClientSession::connect`].
    ///
    /// # Errors
    ///
    /// As [`ClientSession::connect`].
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        policy: &str,
        profile: &str,
        seed: u64,
    ) -> Result<RemotePolicy, ClientError> {
        Ok(RemotePolicy {
            sess: ClientSession::connect(addr, policy, profile, seed)?,
            errors: 0,
        })
    }

    /// Sets the session's pipelining window. `on_sample` is inherently
    /// lockstep (the simulator needs each decision before the next
    /// window), so at most one request is ever in flight — but every
    /// frame still rides the corked submit/flush/collect machinery, and
    /// decisions are byte-identical whatever the window (a tier-1 test
    /// in `tests/smoke.rs` holds window > 1 to window = 1).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.sess.set_window(window);
        self
    }

    /// Requests that failed mid-run (the simulation keeps going with
    /// empty decisions; a nonzero value means the run is NOT faithful).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Tears the session down cleanly; returns the server-side decision
    /// count.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::finish`].
    pub fn finish(self) -> Result<u64, ClientError> {
        self.sess.finish()
    }
}

impl CpuPolicy for RemotePolicy {
    fn name(&self) -> &str {
        self.sess.policy_name()
    }

    fn sampling_period_us(&self) -> u64 {
        self.sess.sampling_us()
    }

    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        let decision = match self.sess.request(snap) {
            Ok(d) => d,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        for cmd in decision.commands {
            match cmd {
                Command::SetFreq { core, khz } => ctl.set_freq(core, khz),
                Command::SetFreqAll { khz } => ctl.set_freq_all(khz),
                Command::SetOnline { core, online } => ctl.set_online(core, online),
                Command::SetQuota(q) => ctl.set_quota(q),
            }
        }
        for note in decision.notes {
            ctl.note(note);
        }
    }
}
