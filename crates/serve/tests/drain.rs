//! Shutdown and backpressure hazards of blocking per-connection I/O.
//!
//! Connection threads block — in reads bounded by the daemon's wake
//! period, in writes bounded only by `write_timeout`, and (in the
//! router) waiting for a shard's `ByeAck`. None of those waits may hold
//! `shutdown()` past its drain deadline, an idle connection must still
//! hear `GoingAway` promptly, and the per-pass frame budget must still
//! raise rising-edge backpressure.

use mobicore_model::{Khz, Utilization};
use mobicore_serve::protocol::{decode_frame, frame_bytes, Frame, PROTOCOL_VERSION};
use mobicore_serve::{Router, RouterConfig, ServeConfig, Server, Shard};
use mobicore_sim::PolicySnapshot;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const DRAIN: Duration = Duration::from_millis(500);
/// Far past the drain deadline: a shutdown that waited out a blocked
/// write or an idle timeout instead of force-closing would blow
/// [`SHUTDOWN_BOUND`].
const SLOW: Duration = Duration::from_secs(30);
/// The drain deadline plus scheduling slack.
const SHUTDOWN_BOUND: Duration = Duration::from_millis(2500);
/// A few 10 ms wake periods plus slack for a loaded test host — far
/// below any drain deadline.
const NOTICE_BOUND: Duration = Duration::from_millis(250);

fn hello(policy: &str) -> Vec<u8> {
    frame_bytes(&Frame::Hello {
        version: PROTOCOL_VERSION,
        policy: policy.to_string(),
        profile: "nexus5".to_string(),
        seed: 0,
    })
}

fn snapshot(seq: u64) -> Vec<u8> {
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.6), 20_000);
    frame_bytes(&Frame::Snapshot { seq, snap })
}

/// Reads one frame, buffering partial reads in `buf`.
fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Frame {
    loop {
        if let Some((frame, used)) = decode_frame(buf).expect("well-formed frame") {
            buf.drain(..used);
            return frame;
        }
        let mut scratch = [0u8; 4096];
        let n = stream.read(&mut scratch).expect("read a frame");
        assert!(n > 0, "peer closed mid-frame");
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Connects with a read timeout and sends `first`.
fn connect(addr: SocketAddr, first: &[u8]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(first).expect("first frame");
    stream
}

/// Writes snapshots with rising sequence numbers until the socket has
/// accepted nothing for 300 ms — the peer has stopped reading.
fn pump_until_stalled(stream: &TcpStream) {
    let mut w = stream.try_clone().expect("clone");
    w.set_nonblocking(true).expect("nonblocking pump");
    let (mut seq, mut frame, mut offset) = (0, snapshot(0), 0);
    let mut last_progress = Instant::now();
    while last_progress.elapsed() < Duration::from_millis(300) {
        match w.write(&frame[offset..]) {
            Ok(n) => {
                assert!(n > 0, "socket closed while pumping");
                offset += n;
                last_progress = Instant::now();
                if offset == frame.len() {
                    (seq, offset) = (seq + 1, 0);
                    frame = snapshot(seq);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("pump write failed: {e}"),
        }
    }
}

/// Runs `shutdown` and asserts it returned within the drain bound.
fn assert_bounded<T>(what: &str, shutdown: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let stats = shutdown();
    let took = started.elapsed();
    assert!(took < SHUTDOWN_BOUND, "shutdown waited on {what}: {took:?}");
    stats
}

#[test]
fn server_shutdown_is_bounded_while_a_write_is_blocked() {
    let cfg = ServeConfig {
        write_timeout: SLOW,
        ..ServeConfig::default()
    }
    .with_drain_deadline(DRAIN)
    .with_idle_timeout(SLOW);
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    // The peer never reads a decision: the server fills the socket and
    // blocks writing, and only then stops reading the peer.
    let peer = connect(server.local_addr(), &hello("mobicore"));
    pump_until_stalled(&peer);

    let stats = assert_bounded("a blocked write", || server.shutdown());
    assert_eq!(stats.active_conns, 0, "{stats:?}");
    assert_eq!(stats.aborted_sessions, 1, "force-closed: {stats:?}");
    assert!(stats.decisions > 0, "{stats:?}");
}

/// A stand-in shard that accepts the router's legs and never answers.
/// A `reading` shard consumes everything and reports each `Bye` it sees
/// on the returned channel; otherwise it reads nothing.
fn silent_shard(reading: bool) -> (String, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("addr").to_string();
    let (byes, seen) = mpsc::channel();
    std::thread::spawn(move || {
        let mut legs = Vec::new();
        for leg in listener.incoming().flatten() {
            let (mut sink, byes) = (leg.try_clone().expect("clone"), byes.clone());
            legs.push(leg);
            if !reading {
                continue;
            }
            std::thread::spawn(move || {
                let (mut buf, mut scratch) = (Vec::new(), [0u8; 4096]);
                while let Ok(n @ 1..) = sink.read(&mut scratch) {
                    buf.extend_from_slice(&scratch[..n]);
                    while let Ok(Some((frame, used))) = decode_frame(&buf) {
                        buf.drain(..used);
                        if matches!(frame, Frame::Bye) {
                            let _ = byes.send(());
                        }
                    }
                }
            });
        }
    });
    (addr, seen)
}

/// A router in front of one shard at `addr`, and a client connection
/// whose session it has routed.
fn routed_client(addr: String) -> (Router, TcpStream) {
    let cfg = RouterConfig {
        write_timeout: SLOW,
        ..RouterConfig::default()
    }
    .with_drain_deadline(DRAIN)
    .with_idle_timeout(SLOW);
    let shards = vec![Shard {
        name: "s0".to_string(),
        addr,
    }];
    let router = Router::bind("127.0.0.1:0", shards, cfg).expect("bind router");
    let mut client = connect(router.local_addr(), &frame_bytes(&Frame::Route { key: 1 }));
    let frame = read_frame(&mut client, &mut Vec::new());
    assert!(matches!(frame, Frame::Routed { .. }), "{frame:?}");
    (router, client)
}

#[test]
fn router_shutdown_is_bounded_while_a_route_waits_on_a_stalled_shard() {
    // The shard never answers, so the session's ByeAck never comes and
    // the next Route stays staged behind it.
    let (shard, byes) = silent_shard(true);
    let (router, mut client) = routed_client(shard);
    let mut batch = hello("noop");
    batch.extend(frame_bytes(&Frame::Bye));
    batch.extend(frame_bytes(&Frame::Route { key: 2 }));
    client.write_all(&batch).expect("hello, bye, next route");
    byes.recv_timeout(Duration::from_secs(5))
        .expect("the relay forwards the session through Bye");

    // The waiting relay still wakes to say GoingAway, and lets go at
    // the deadline.
    let (latency, stats) = assert_bounded("the staged Route", || {
        going_away_latency(&mut client, move || router.shutdown())
    });
    assert!(latency < NOTICE_BOUND, "GoingAway after {latency:?}");
    assert_eq!(stats.active_conns, 0, "{stats:?}");
    assert_eq!(stats.routed_sessions, 1, "{stats:?}");
    assert!(stats.relay_errors > 0, "cut off at the deadline: {stats:?}");
}

#[test]
fn router_shutdown_is_bounded_while_a_leg_write_is_blocked() {
    // The shard never reads, so the relay blocks writing to its leg.
    let (shard, _) = silent_shard(false);
    let (router, mut client) = routed_client(shard);
    client.write_all(&hello("noop")).expect("hello");
    pump_until_stalled(&client);

    let stats = assert_bounded("a blocked leg write", || router.shutdown());
    assert_eq!(stats.active_conns, 0, "{stats:?}");
}

/// Starts `shutdown` on another thread and returns how long after its
/// start `client` read `GoingAway`, and what `shutdown` returned.
fn going_away_latency<T: Send + 'static>(
    client: &mut TcpStream,
    shutdown: impl FnOnce() -> T + Send + 'static,
) -> (Duration, T) {
    let (started_tx, started) = mpsc::channel();
    let closer = std::thread::spawn(move || {
        started_tx.send(Instant::now()).expect("report start");
        shutdown()
    });
    let frame = read_frame(client, &mut Vec::new());
    let heard = Instant::now();
    assert!(matches!(frame, Frame::GoingAway { .. }), "{frame:?}");
    let began = started.recv().expect("shutdown began");
    let stats = closer.join().expect("shutdown thread");
    (heard.saturating_duration_since(began), stats)
}

#[test]
fn idle_connections_hear_going_away_within_a_few_wake_periods() {
    let slow_idle = ServeConfig::default()
        .with_idle_timeout(SLOW)
        .with_drain_deadline(DRAIN);
    let server = Server::bind("127.0.0.1:0", slow_idle.clone()).expect("bind");
    let mut raw = connect(server.local_addr(), &hello("noop"));
    let frame = read_frame(&mut raw, &mut Vec::new());
    assert!(matches!(frame, Frame::HelloAck { .. }), "{frame:?}");
    let (latency, _) = going_away_latency(&mut raw, move || server.shutdown());
    assert!(latency < NOTICE_BOUND, "serve GoingAway after {latency:?}");

    let shard = Server::bind("127.0.0.1:0", slow_idle).expect("bind shard");
    let (router, mut client) = routed_client(shard.local_addr().to_string());
    let (latency, _) = going_away_latency(&mut client, move || router.shutdown());
    assert!(latency < NOTICE_BOUND, "router GoingAway after {latency:?}");
}

#[test]
fn pipelining_past_the_budget_raises_backpressure_and_loses_nothing() {
    const BUDGET: usize = 4;
    const FRAMES: u64 = 40;
    let cfg = ServeConfig::default().with_queue_budget(BUDGET);
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    // Hello and every snapshot in one write: the first pass sees far
    // more than BUDGET complete frames.
    let mut batch = hello("mobicore");
    batch.extend((0..FRAMES).flat_map(snapshot));
    batch.extend(frame_bytes(&Frame::Bye));
    let mut raw = connect(server.local_addr(), &batch);

    let (mut buf, mut seqs, mut notices) = (Vec::new(), Vec::new(), 0);
    loop {
        match read_frame(&mut raw, &mut buf) {
            Frame::HelloAck { .. } => {}
            Frame::Decision { seq, .. } => seqs.push(seq),
            Frame::Backpressure { limit, .. } => {
                assert_eq!(limit as usize, BUDGET);
                notices += 1;
            }
            Frame::ByeAck { decisions } => {
                assert_eq!(decisions, FRAMES);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(seqs, (0..FRAMES).collect::<Vec<_>>(), "in order, none lost");
    assert!(notices >= 1, "pipelining past the budget must be flagged");
    drop(raw);
    assert_eq!(server.shutdown().backpressure_events, notices);
}
