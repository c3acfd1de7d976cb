//! Fast loopback smoke tests — these run unconditionally in tier-1
//! `cargo test -q`, so they are kept to a handful of sessions and a
//! few dozen frames each.

use mobicore_model::{Khz, Utilization};
use mobicore_serve::protocol::{codes, frame_bytes, Frame};
use mobicore_serve::{ClientError, ClientSession, LoadConfig, ServeConfig, Server};
use mobicore_sim::PolicySnapshot;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

#[test]
fn handshake_stream_and_clean_bye() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr().to_string();

    let mut sess = ClientSession::connect(&addr, "mobicore", "nexus5", 7).expect("connect");
    assert_eq!(sess.policy_name(), "mobicore");
    assert_eq!(sess.sampling_us(), 20_000);
    assert!(sess.session_id() > 0);

    let mut decisions = 0u64;
    for i in 0..32u64 {
        let snap = PolicySnapshot::synthetic(
            4,
            4,
            Khz(960_000),
            Utilization::new(0.5 + (i as f64) * 0.01),
            20_000,
        );
        let d = sess.request(&snap).expect("decision");
        assert_eq!(d.seq, i);
        decisions += 1;
    }
    let server_count = sess.finish().expect("clean bye");
    assert_eq!(server_count, decisions);

    let stats = server.shutdown();
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.decisions, 32);
    assert_eq!(stats.drained_sessions, 1);
    assert_eq!(stats.aborted_sessions, 0);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn unknown_policy_and_profile_are_typed_errors() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr().to_string();

    match ClientSession::connect(&addr, "warp-drive", "nexus5", 0) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, codes::UNKNOWN_POLICY),
        other => panic!("expected UNKNOWN_POLICY, got {other:?}"),
    }
    match ClientSession::connect(&addr, "mobicore", "tricorder", 0) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, codes::UNKNOWN_PROFILE),
        other => panic!("expected UNKNOWN_PROFILE, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.sessions, 0,
        "failed handshakes must not count as sessions"
    );
}

#[test]
fn malformed_frame_is_rejected_without_panic() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // A framed payload with an unknown frame type.
    raw.write_all(&[2, 0, 0, 0, 0xEE, 0xFF]).expect("write");
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf)
        .expect("server closes after error frame");
    assert!(!buf.is_empty(), "expected a typed Error frame before close");
    let (frame, _) = mobicore_serve::protocol::decode_frame(&buf)
        .expect("server sent a valid frame")
        .expect("complete");
    match frame {
        Frame::Error { code, .. } => assert_eq!(code, codes::MALFORMED),
        other => panic!("expected Error, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.decisions, 0);
}

#[test]
fn version_mismatch_is_rejected() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = frame_bytes(&Frame::Hello {
        version: 99,
        policy: "mobicore".to_string(),
        profile: "nexus5".to_string(),
        seed: 0,
    });
    raw.write_all(&hello).expect("write");
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("read");
    let (frame, _) = mobicore_serve::protocol::decode_frame(&buf)
        .expect("valid")
        .expect("complete");
    match frame {
        Frame::Error { code, .. } => assert_eq!(code, codes::VERSION_MISMATCH),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn non_monotonic_seq_is_rejected() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    raw.write_all(&frame_bytes(&Frame::Hello {
        version: mobicore_serve::PROTOCOL_VERSION,
        policy: "noop".to_string(),
        profile: "nexus5".to_string(),
        seed: 0,
    }))
    .expect("hello");
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.5), 20_000);
    raw.write_all(&frame_bytes(&Frame::Snapshot {
        seq: 5,
        snap: snap.clone(),
    }))
    .expect("snap 5");
    raw.write_all(&frame_bytes(&Frame::Snapshot { seq: 5, snap }))
        .expect("snap 5 again");
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("read");
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Ok(Some((f, used))) = mobicore_serve::protocol::decode_frame(&buf[pos..]) {
        pos += used;
        frames.push(f);
    }
    assert!(
        matches!(frames.first(), Some(Frame::HelloAck { .. })),
        "{frames:?}"
    );
    assert!(
        matches!(frames.get(1), Some(Frame::Decision { seq: 5, .. })),
        "{frames:?}"
    );
    assert!(
        matches!(frames.get(2), Some(Frame::Error { code, .. }) if *code == codes::BAD_SEQ),
        "{frames:?}"
    );
    server.shutdown();
}

#[test]
fn loopback_load_small_is_clean() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr().to_string();

    let cfg = LoadConfig {
        sessions: 4,
        drivers: 2,
        record_secs: 1,
        snapshots_per_session: 20,
        ..LoadConfig::default()
    };
    let report = mobicore_serve::run_load(&addr, &cfg).expect("load runs");
    assert_eq!(report.sessions, 4);
    assert_eq!(report.decisions, 4 * 20);
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.reordered, 0, "{report:?}");
    assert_eq!(report.mismatches, 0, "byte-identity violated: {report:?}");
    assert_eq!(report.server_decisions, report.decisions);
    assert!(report.clean());
    assert_eq!(report.rtt_us.count(), 4 * 20);

    let manifest = server.manifest("smoke");
    assert_eq!(manifest.kind, "serve");
    // The per-decision metrics keep their manifest keys; the slots
    // resolved at bind but never updated (no protocol error in a clean
    // run) stay out of the manifest.
    let m = &manifest.metrics;
    assert_eq!(m.get("serve.decisions"), Some(&80.0));
    assert_eq!(m.get("serve.decision_us.count"), Some(&80.0));
    assert_eq!(m.get("serve.sessions"), Some(&4.0));
    for key in [
        "serve.notes",
        "serve.decision_us.p50",
        "serve.decision_us.p99",
    ] {
        assert!(m.contains_key(key), "{key} missing: {m:?}");
    }
    assert!(!m.contains_key("serve.protocol_errors"), "{m:?}");
    let stats = server.shutdown();
    assert_eq!(stats.decisions, 4 * 20);
    assert_eq!(stats.drained_sessions, 4);
}

#[test]
fn one_connection_carries_sessions_back_to_back() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr().to_string();

    let mut sess = ClientSession::connect_raw(&addr).expect("connect");
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.4), 20_000);
    let mut ids = Vec::new();
    for _ in 0..3 {
        sess.hello("noop", "nexus5", 0).expect("hello");
        ids.push(sess.session_id());
        let d = sess.request(&snap).expect("decision");
        assert_eq!(d.seq, 0, "seq restarts per session");
        assert_eq!(sess.end_session().expect("bye"), 1);
    }
    ids.dedup();
    assert_eq!(ids.len(), 3, "each Hello must get a fresh session id");

    let stats = server.shutdown();
    assert_eq!(stats.sessions, 3, "three sessions over one connection");
    assert_eq!(stats.drained_sessions, 3);
    assert_eq!(stats.aborted_sessions, 0);
}

#[test]
fn pipelined_window_is_byte_identical_to_lockstep() {
    let server = Server::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.local_addr().to_string();

    let snaps: Vec<PolicySnapshot> = (0..24)
        .map(|i| {
            PolicySnapshot::synthetic(
                4,
                4,
                Khz(960_000),
                Utilization::new(0.2 + f64::from(i) * 0.03),
                20_000,
            )
        })
        .collect();

    // Window 1: strict lockstep, one frame per write.
    let mut lockstep = ClientSession::connect(&addr, "mobicore", "nexus5", 7).expect("connect");
    let reference: Vec<Vec<u8>> = snaps
        .iter()
        .map(|snap| {
            let d = lockstep.request(snap).expect("decision");
            frame_bytes(&Frame::Decision {
                seq: d.seq,
                commands: d.commands,
                notes: d.notes,
            })
        })
        .collect();
    lockstep.finish().expect("bye");

    // Window 6: corked batches of pipelined snapshots, one flush each.
    let mut piped = ClientSession::connect(&addr, "mobicore", "nexus5", 7)
        .expect("connect")
        .with_window(6);
    let mut got = Vec::new();
    for batch in snaps.chunks(piped.window()) {
        for snap in batch {
            piped.submit(snap).expect("submit within window");
        }
        piped.flush().expect("one write per batch");
        for _ in batch {
            let d = piped.collect().expect("decision");
            got.push(frame_bytes(&Frame::Decision {
                seq: d.seq,
                commands: d.commands,
                notes: d.notes,
            }));
        }
    }
    piped.finish().expect("bye");

    assert_eq!(
        got, reference,
        "pipelined decisions must be byte-identical to lockstep"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_within_deadline_and_notifies() {
    let server = Server::bind(
        "127.0.0.1:0",
        test_config().with_drain_deadline(Duration::from_millis(500)),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Open a session and leave it idle mid-stream.
    let mut sess = ClientSession::connect(&addr, "noop", "nexus5", 0).expect("connect");
    let snap = PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.3), 20_000);
    sess.request(&snap).expect("one decision");

    let started = std::time::Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain must respect its deadline, took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.active_conns, 0, "drain must close everything");
}
