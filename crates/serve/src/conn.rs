//! The daemon core shared by the serve and router tiers: admission, the
//! telemetry sink, the socket registry, and the bounded drain (its
//! flag and live-connection count are [`Drain`]).
//!
//! Both daemons run one blocking thread per connection. The acceptor
//! blocks in `accept`; shutdown wakes it with a connect to the
//! daemon's own address. Connection threads read with a [`WAKE`]
//! timeout so they notice drain and idle timeouts without polling,
//! and block on writes under their configured write timeout. Every
//! connection socket is registered with the [`Daemon`]; at the drain
//! deadline shutdown force-closes whatever is still registered, which
//! unblocks a thread stuck writing to a peer that stopped reading, so
//! shutdown returns within its deadline.

use crate::drain::Drain;
use crate::protocol::{codes, frame_bytes, Frame};
use mobicore_telemetry::{CounterId, EventData, RunManifest, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a connection thread blocks in a read before it re-checks
/// the drain flag, the drain deadline and its idle timeout. Bounds how
/// late an idle connection hears `GoingAway`; costs one wake-up per
/// idle connection per period.
pub(crate) const WAKE: Duration = Duration::from_millis(10);

/// Events a daemon's log retains; past it only the per-kind counts
/// grow, so memory stays flat however many sessions are served.
const MAX_EVENTS: usize = 4096;

/// Whether a read error only means nothing arrived — the [`WAKE`]
/// timeout expired (Linux reports `WouldBlock`, other platforms
/// `TimedOut`) or a signal interrupted the call — rather than a dead
/// socket.
pub(crate) fn timed_out(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// The guard of a lock even if a thread panicked holding it: every
/// structure a daemon locks stays valid across a panic.
pub(crate) fn lock_unpoisoned<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One admitted connection.
pub(crate) struct Admitted {
    /// Connection id, as in the `conn-*` telemetry events.
    pub(crate) conn_id: u64,
    pub(crate) stream: Arc<TcpStream>,
    /// Registry id; the connection thread ends with
    /// [`Daemon::retire`] on it.
    pub(crate) socket: u64,
}

/// Telemetry, drain state, live-connection accounting and the socket
/// registry of one daemon.
pub(crate) struct Daemon {
    start: Instant,
    telemetry: Mutex<Telemetry>,
    /// The `<tier>.conns` counter slot.
    conns: CounterId,
    accepted: AtomicU64,
    drain: Drain,
    drain_deadline: Duration,
    deadline_at: Mutex<Option<Instant>>,
    next_socket: AtomicU64,
    sockets: Mutex<HashMap<u64, Arc<TcpStream>>>,
}

impl Daemon {
    /// A daemon of `tier` (`serve`, `router`), the prefix of its
    /// connection counter.
    pub(crate) fn new(drain_deadline: Duration, tier: &str) -> Self {
        let mut telemetry = Telemetry::enabled().with_max_events(MAX_EVENTS);
        let conns = telemetry.counter_id(&format!("{tier}.conns"));
        Daemon {
            start: Instant::now(),
            telemetry: Mutex::new(telemetry),
            conns,
            accepted: AtomicU64::new(0),
            drain: Drain::new(),
            drain_deadline,
            deadline_at: Mutex::new(None),
            next_socket: AtomicU64::new(0),
            sockets: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn telemetry(&self) -> MutexGuard<'_, Telemetry> {
        lock_unpoisoned(self.telemetry.lock())
    }

    fn uptime_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub(crate) fn emit(&self, data: EventData) {
        let t = self.uptime_us();
        self.telemetry().emit(t, data);
    }

    /// Adds `by` to the counter in slot `id` of the daemon's telemetry.
    pub(crate) fn inc(&self, id: CounterId, by: u64) {
        self.telemetry().inc_id(id, by);
    }

    /// A run manifest of the daemon's telemetry so far.
    pub(crate) fn manifest(
        &self,
        kind: &str,
        name: &str,
        policy: &str,
        tags: BTreeMap<String, String>,
    ) -> RunManifest {
        let (metrics, event_counts) = {
            let tel = self.telemetry();
            (tel.metrics().rollups(), tel.event_counts())
        };
        RunManifest {
            kind: kind.to_string(),
            name: name.to_string(),
            policy: policy.to_string(),
            profile: "multi".to_string(),
            seed: 0,
            duration_us: self.uptime_us(),
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts,
        }
    }

    /// Connections accepted so far, refused ones included.
    pub(crate) fn accepted(&self) -> u64 {
        // relaxed: advisory stats; exact once the acceptor is joined.
        self.accepted.load(Ordering::Relaxed)
    }

    pub(crate) fn draining(&self) -> bool {
        self.drain.draining()
    }

    /// Whether drain has begun and its deadline has passed.
    pub(crate) fn past_deadline(&self, now: Instant) -> bool {
        self.draining() && lock_unpoisoned(self.deadline_at.lock()).is_some_and(|d| now >= d)
    }

    /// Connections admitted and not yet retired.
    pub(crate) fn live_conns(&self) -> usize {
        self.drain.live()
    }

    /// Registers `socket` for force-close at the drain deadline and
    /// returns its registry id.
    pub(crate) fn register(&self, socket: &Arc<TcpStream>) -> u64 {
        // relaxed: id allocation only needs atomicity, not ordering.
        let id = self.next_socket.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(self.sockets.lock()).insert(id, Arc::clone(socket));
        id
    }

    pub(crate) fn deregister(&self, id: u64) {
        lock_unpoisoned(self.sockets.lock()).remove(&id);
    }

    /// Accounts one accepted connection (`conn-accepted`, counter
    /// `<tier>.conns`). Past `cap` live connections it is refused with
    /// a `SERVER_FULL` error frame and dropped; otherwise it is counted
    /// live and registered.
    pub(crate) fn admit(&self, stream: TcpStream, cap: usize) -> Option<Admitted> {
        // relaxed: id allocation only needs atomicity, not ordering.
        let conn_id = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        self.emit(EventData::ConnAccepted { conn: conn_id });
        self.inc(self.conns, 1);
        let _ = stream.set_nodelay(true);
        if !self.drain.admit(cap) {
            let refusal = frame_bytes(&Frame::Error {
                code: codes::SERVER_FULL,
                message: "connection cap reached".to_string(),
            });
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = (&stream).write_all(&refusal);
            self.emit(EventData::ConnClosed {
                conn: conn_id,
                frames_in: 0,
                frames_out: 1,
            });
            return None;
        }
        let stream = Arc::new(stream);
        let socket = self.register(&stream);
        Some(Admitted {
            conn_id,
            stream,
            socket,
        })
    }

    /// Starts a thread for an admitted connection, retiring the
    /// connection if the thread cannot start. The connection's main
    /// thread must end with [`Daemon::retire`].
    pub(crate) fn spawn(
        &self,
        name: String,
        socket: u64,
        body: impl FnOnce() + Send + 'static,
    ) -> Option<JoinHandle<()>> {
        match std::thread::Builder::new().name(name).spawn(body) {
            Ok(thread) => Some(thread),
            Err(_) => {
                self.retire(socket);
                None
            }
        }
    }

    /// Retires a connection admitted under registry id `socket`
    /// ([`Drain::retire`]: its counter updates are published to the
    /// drain wait in [`Daemon::shutdown`]).
    pub(crate) fn retire(&self, socket: u64) {
        self.deregister(socket);
        self.drain.retire();
    }

    /// Graceful shutdown: flips the daemon into drain (once, recording
    /// a `serve-shutdown` event), wakes the acceptor blocked on `addr`
    /// and joins it, waits for every connection to retire or the drain
    /// deadline, force-closes every socket still registered, and joins
    /// every connection thread.
    pub(crate) fn shutdown(
        &self,
        addr: SocketAddr,
        acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    ) {
        if let Some(active) = self.drain.begin() {
            let deadline = Instant::now() + self.drain_deadline;
            *lock_unpoisoned(self.deadline_at.lock()) = Some(deadline);
            self.emit(EventData::ServeShutdown {
                active_sessions: active as u64,
            });
        }
        let Some(acceptor) = acceptor else {
            return;
        };
        // Any connection accepted after the flip ends the accept loop;
        // this one makes sure there is one.
        let _ = TcpStream::connect_timeout(&wake_addr(addr), Duration::from_secs(1));
        let threads = acceptor.join().unwrap_or_default();
        let deadline = lock_unpoisoned(self.deadline_at.lock())
            .unwrap_or_else(|| Instant::now() + self.drain_deadline);
        self.drain.wait_until(deadline);
        for socket in lock_unpoisoned(self.sockets.lock()).values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The address a wake-up connect should dial: the bound address, with
/// an unspecified IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts connections until the daemon drains, handing each to
/// `spawn` (which may refuse it and return `None`). Returns the
/// connection threads still running, for the drain to join.
pub(crate) fn accept_loop<F>(
    daemon: &Daemon,
    listener: &TcpListener,
    mut spawn: F,
) -> Vec<JoinHandle<()>>
where
    F: FnMut(TcpStream) -> Option<JoinHandle<()>>,
{
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if daemon.draining() {
            return threads;
        }
        match accepted {
            Ok((stream, _peer)) => {
                reap(&mut threads);
                threads.extend(spawn(stream));
            }
            // Out of descriptors, an aborted handshake: back off rather
            // than spin on an error accept may not clear by itself.
            Err(_) => std::thread::sleep(WAKE),
        }
    }
}

/// Joins the connection threads that have already finished.
fn reap(threads: &mut Vec<JoinHandle<()>>) {
    let (done, running) = std::mem::take(threads)
        .into_iter()
        .partition(|t| t.is_finished());
    *threads = running;
    for t in done {
        let _ = t.join();
    }
}
