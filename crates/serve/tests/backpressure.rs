//! Router leg pooling and stalled-shard backpressure.
//!
//! Two properties the fleet tier depends on but nothing exercised
//! directly before: sequential sessions on one client connection ride
//! one pooled shard leg instead of redialing, and a shard that stops
//! reading propagates backpressure all the way to the client socket at
//! `relay_buf_cap` — halting client reads rather than buffering without
//! bound, and without dropping or reordering a single relayed byte.

use mobicore_model::{Khz, Utilization};
use mobicore_serve::protocol::{decode_frame, frame_bytes, Frame};
use mobicore_serve::{ClientSession, Router, RouterConfig, ServeConfig, Server, Shard};
use mobicore_sim::PolicySnapshot;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn router_config() -> RouterConfig {
    RouterConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

#[test]
fn sequential_sessions_on_one_connection_reuse_one_pooled_leg() {
    const SESSIONS: u64 = 5;

    let shard = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default()
            .with_drain_deadline(Duration::from_secs(2))
            .with_idle_timeout(Duration::from_secs(10)),
    )
    .expect("bind shard");
    let shards = vec![Shard {
        name: "s0".to_string(),
        addr: shard.local_addr().to_string(),
    }];
    let router = Router::bind("127.0.0.1:0", shards, router_config()).expect("bind router");

    let mut sess =
        ClientSession::connect_raw(router.local_addr().to_string()).expect("connect via router");
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.4), 20_000);
    for key in 0..SESSIONS {
        let (_, name) = sess
            .route_hello(key, "noop", "nexus5", 0)
            .expect("route+hello");
        assert_eq!(name, "s0", "a one-shard pool routes everything to s0");
        let d = sess.request(&snap).expect("decision");
        assert_eq!(d.seq, 0, "seq restarts per session");
        assert_eq!(sess.end_session().expect("bye"), 1);
    }
    drop(sess);

    let stats = router.shutdown();
    assert_eq!(stats.routed_sessions, SESSIONS, "{stats:?}");
    // Lockstep sessions leave the leg quiet at every ByeAck, so the
    // first session dials and every later one must hit the pool.
    assert_eq!(
        stats.legs_opened, 1,
        "sequential sessions must share one dialed leg: {stats:?}"
    );
    assert_eq!(
        stats.legs_reused,
        SESSIONS - 1,
        "every session after the first must reuse the pooled leg: {stats:?}"
    );
    assert_eq!(stats.relay_errors, 0, "{stats:?}");
    shard.shutdown();
}

/// Blocking incremental read of one frame (the stream's read timeout
/// bounds it).
fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Frame {
    loop {
        if let Some((frame, used)) = decode_frame(buf).expect("well-formed frame from router") {
            buf.drain(..used);
            return frame;
        }
        let mut scratch = [0u8; 4096];
        let n = stream.read(&mut scratch).expect("read from router");
        assert!(n > 0, "router closed mid-frame");
        buf.extend_from_slice(&scratch[..n]);
    }
}

#[test]
fn stalled_shard_halts_client_writes_without_dropping_or_reordering() {
    const RELAY_BUF_CAP: usize = 32 * 1024;
    // How long client writes must make zero progress before we call the
    // pipeline halted — far past the router's idle-poll nap cap, far
    // under its idle/write timeouts.
    const HALT_WINDOW: Duration = Duration::from_millis(600);

    // A fake shard: accepts the router's one leg, then sits on it
    // without reading until told to drain. Once draining it accumulates
    // every relayed byte until the client's Bye arrives, answers with a
    // ByeAck so the relay ends the session cleanly, and returns the
    // exact byte stream it saw.
    let shard_listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let shard_addr = shard_listener.local_addr().expect("addr").to_string();
    let (drain_tx, drain_rx) = mpsc::channel::<()>();
    // The leg is returned (not dropped) so the socket stays open until
    // the test joins — closing it right after the ByeAck would race the
    // router into reading EOF before it relays the buffered ByeAck.
    let shard_thread = std::thread::spawn(move || -> (Vec<u8>, TcpStream) {
        let (mut leg, _) = shard_listener.accept().expect("router dials the leg");
        drain_rx.recv().expect("drain signal");
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut saw_bye = false;
        while !saw_bye {
            let mut scratch = [0u8; 16 * 1024];
            let n = leg.read(&mut scratch).expect("read relayed bytes");
            assert!(n > 0, "router closed the leg before Bye");
            got.extend_from_slice(&scratch[..n]);
            while let Some((frame, used)) =
                decode_frame(&got[pos..]).expect("relayed frames stay well-formed")
            {
                pos += used;
                if matches!(frame, Frame::Bye) {
                    saw_bye = true;
                }
            }
        }
        assert_eq!(pos, got.len(), "no partial frame may trail the Bye");
        leg.write_all(&frame_bytes(&Frame::ByeAck { decisions: 0 }))
            .expect("byeack");
        (got, leg)
    });

    let cfg = RouterConfig {
        relay_buf_cap: RELAY_BUF_CAP,
        ..router_config()
    };
    let shards = vec![Shard {
        name: "s0".to_string(),
        addr: shard_addr,
    }];
    let router = Router::bind("127.0.0.1:0", shards, cfg).expect("bind router");

    let mut client = TcpStream::connect(router.local_addr()).expect("connect");
    let _ = client.set_nodelay(true);
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut recv_buf = Vec::new();
    client
        .write_all(&frame_bytes(&Frame::Route { key: 7 }))
        .expect("route");
    match read_frame(&mut client, &mut recv_buf) {
        Frame::Routed { name, .. } => assert_eq!(name, "s0"),
        other => panic!("expected Routed, got {other:?}"),
    }

    // Pump copies of one snapshot frame at the router without reading
    // anything back. The stalled shard means the chain must fill —
    // sout to `relay_buf_cap` (which stops the router reading the
    // client), then cbuf, then the kernel socket buffers — until the
    // client's own writes stop being accepted.
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.5), 20_000);
    let frame = frame_bytes(&Frame::Snapshot { seq: 0, snap });
    client.set_nonblocking(true).expect("nonblocking pump");
    let mut sent: Vec<u8> = Vec::new();
    let mut offset = 0usize;
    let started = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        match client.write(&frame[offset..]) {
            Ok(0) => panic!("client socket closed while pumping"),
            Ok(n) => {
                sent.extend_from_slice(&frame[offset..offset + n]);
                offset = (offset + n) % frame.len();
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if last_progress.elapsed() > HALT_WINDOW {
                    break; // backpressure reached the client socket
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("client write failed: {e}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "writes never halted; {} bytes accepted so far",
            sent.len()
        );
    }
    // The cap bounds what the *router* buffers (cbuf + sout ≤ 2×cap);
    // the kernel autotunes the socket buffers on the three hops up to
    // tens of MB, so the absolute byte count mostly measures the OS.
    // The properties under test are the halt above and the byte
    // identity below; this is only a runaway safety valve.
    assert!(
        sent.len() <= 48 * 1024 * 1024,
        "client wrote without bound: {} bytes",
        sent.len()
    );

    // Unstall the shard, finish the partially written frame so the
    // stream ends on a frame boundary, and terminate with Bye.
    drain_tx.send(()).expect("unstall shard");
    client.set_nonblocking(false).expect("blocking finish");
    if offset > 0 {
        client.write_all(&frame[offset..]).expect("finish frame");
        sent.extend_from_slice(&frame[offset..]);
    }
    let bye = frame_bytes(&Frame::Bye);
    client.write_all(&bye).expect("bye");
    sent.extend_from_slice(&bye);

    match read_frame(&mut client, &mut recv_buf) {
        Frame::ByeAck { decisions } => assert_eq!(decisions, 0),
        other => panic!("expected ByeAck, got {other:?}"),
    }
    let (got, leg) = shard_thread.join().expect("shard thread");
    assert_eq!(
        got.len(),
        sent.len(),
        "shard must receive every byte the client's kernel accepted"
    );
    assert_eq!(got, sent, "relayed bytes dropped or reordered");

    drop(client);
    let stats = router.shutdown();
    drop(leg);
    assert_eq!(stats.routed_sessions, 1, "{stats:?}");
    assert_eq!(stats.legs_opened, 1, "{stats:?}");
    assert_eq!(
        stats.relay_errors, 0,
        "a stalled-then-drained session must close cleanly: {stats:?}"
    );
}
