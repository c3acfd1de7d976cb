//! The ISSUE acceptance load test: 1000+ concurrent loopback sessions
//! with zero dropped or reordered decision frames, every decision
//! byte-identical to the in-process policy, and a graceful drain that
//! finishes within the configured deadline.
//!
//! Kept affordable on a single-core host by replaying a short snapshot
//! stream per session; the concurrency (all sessions open at once,
//! spread over a handful of driver threads) is the point, not the
//! per-session volume.

use mobicore_serve::{LoadConfig, ServeConfig, Server};
use std::time::{Duration, Instant};

#[test]
fn thousand_concurrent_sessions_zero_loss_byte_identical() {
    const SESSIONS: usize = 1000;
    const SNAPSHOTS: usize = 8;

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default()
            .with_drain_deadline(Duration::from_secs(3))
            .with_idle_timeout(Duration::from_secs(60)),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let cfg = LoadConfig {
        sessions: SESSIONS,
        drivers: 8,
        window: 4,
        policy: "mobicore".to_string(),
        profile: "nexus5".to_string(),
        scenario: "mixed-day-mini".to_string(),
        seed: 7,
        record_secs: 1,
        snapshots_per_session: SNAPSHOTS,
        verify: true,
    };
    let report = mobicore_serve::run_load(&addr, &cfg).expect("load runs");

    assert_eq!(report.sessions, SESSIONS as u64, "{report:?}");
    assert_eq!(report.errors, 0, "sessions failed: {report:?}");
    assert_eq!(
        report.decisions,
        (SESSIONS * SNAPSHOTS) as u64,
        "decision frames dropped: {report:?}"
    );
    assert_eq!(report.reordered, 0, "decision frames reordered: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "decisions diverged from the in-process policy: {report:?}"
    );
    assert_eq!(
        report.server_decisions, report.decisions,
        "server and client accounting disagree: {report:?}"
    );
    assert!(report.clean());
    assert!(report.decisions_per_s > 0.0);

    // The server agrees with the client-side accounting.
    let stats = server.stats();
    assert_eq!(stats.sessions, SESSIONS as u64);
    assert_eq!(stats.decisions, (SESSIONS * SNAPSHOTS) as u64);
    assert_eq!(stats.drained_sessions, SESSIONS as u64);
    assert_eq!(stats.aborted_sessions, 0);
    assert_eq!(stats.protocol_errors, 0);
    // A hot connection parks in AwaitHello after ByeAck; the server only
    // notices the client's close on a later poll, asynchronously to the
    // client observing ByeAck. Retirement is therefore *eventual* —
    // poll with a bound instead of reading once and racing the worker.
    let deadline = Instant::now() + Duration::from_secs(2);
    let active = loop {
        let active = server.stats().active_conns;
        if active == 0 || Instant::now() >= deadline {
            break active;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(active, 0, "connections still accounted active after 2 s");

    // Telemetry saw every session start and end.
    let manifest = server.manifest("load1000");
    assert_eq!(manifest.kind, "serve");
    assert_eq!(
        manifest.event_counts.get("session-start").copied(),
        Some(SESSIONS as u64)
    );
    assert_eq!(
        manifest.event_counts.get("session-end").copied(),
        Some(SESSIONS as u64)
    );

    // Drain with nothing in flight is prompt and bounded.
    let started = Instant::now();
    let final_stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "drain exceeded its deadline: {:?}",
        started.elapsed()
    );
    assert_eq!(final_stats.decisions, (SESSIONS * SNAPSHOTS) as u64);
}
