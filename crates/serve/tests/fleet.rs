//! Router + fleet loopback tests: a real `mobicore-router` in front
//! of two real `mobicore-serve` shards, driven by the fleet
//! orchestrator. Kept small — these run in tier-1 `cargo test -q`.

use mobicore_serve::{
    run_fleet, ClientSession, FleetConfig, Router, RouterConfig, ServeConfig, Server, Shard,
};
use std::time::Duration;

fn shard_config() -> ServeConfig {
    ServeConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

fn router_config() -> RouterConfig {
    RouterConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

/// Two serve shards plus a router in front; returns everything so the
/// test controls shutdown order.
fn fleet_stack() -> (Server, Server, Router) {
    let s0 = Server::bind("127.0.0.1:0", shard_config()).expect("bind s0");
    let s1 = Server::bind("127.0.0.1:0", shard_config()).expect("bind s1");
    let shards = vec![
        Shard {
            name: "s0".to_string(),
            addr: s0.local_addr().to_string(),
        },
        Shard {
            name: "s1".to_string(),
            addr: s1.local_addr().to_string(),
        },
    ];
    let router = Router::bind("127.0.0.1:0", shards, router_config()).expect("bind router");
    (s0, s1, router)
}

fn small_fleet_config() -> FleetConfig {
    FleetConfig {
        sessions: 60,
        per_conn: 10,
        drivers: 2,
        window: 4,
        record_secs: 1,
        snapshots_per_session: 3,
        ..FleetConfig::default()
    }
}

#[test]
fn routing_is_stable_over_the_wire() {
    let (s0, s1, router) = fleet_stack();
    let addr = router.local_addr().to_string();

    // Same key must land on the same shard, session after session.
    let mut sess = ClientSession::connect_raw(&addr).expect("connect");
    let mut names = Vec::new();
    for round in 0..2 {
        for key in 0..8u64 {
            let (_, name) = sess
                .route_hello(key, "noop", "nexus5", 0)
                .expect("route+hello");
            names.push((round, key, name));
            sess.end_session().expect("bye");
        }
    }
    for key in 0..8u64 {
        let a = &names
            .iter()
            .find(|(r, k, _)| *r == 0 && *k == key)
            .unwrap()
            .2;
        let b = &names
            .iter()
            .find(|(r, k, _)| *r == 1 && *k == key)
            .unwrap()
            .2;
        assert_eq!(a, b, "key {key} moved shards between sessions");
    }
    drop(sess);

    let rstats = router.shutdown();
    assert_eq!(rstats.routed_sessions, 16);
    assert!(
        rstats.legs_reused > 0,
        "back-to-back sessions must reuse pooled shard legs: {rstats:?}"
    );
    s0.shutdown();
    s1.shutdown();
}

#[test]
fn fleet_run_is_clean_and_covers_both_shards() {
    let (s0, s1, router) = fleet_stack();
    let addr = router.local_addr().to_string();
    let cfg = small_fleet_config();

    let report = run_fleet(&addr, &cfg).expect("fleet runs");
    assert_eq!(report.sessions, 60, "{report:?}");
    assert_eq!(report.decisions, 60 * 3, "{report:?}");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.shard_sessions.len(), 2, "both shards must serve");
    let total: u64 = report.shard_sessions.values().sum();
    assert_eq!(total, 60);
    assert!(report.events_jsonl.contains("fleet-shard-summary"));

    // Shard-side accounting agrees with the fleet's view.
    let st0 = s0.shutdown();
    let st1 = s1.shutdown();
    assert_eq!(
        st0.sessions + st1.sessions,
        60,
        "shards must account every fleet session"
    );
    assert_eq!(st0.decisions + st1.decisions, 60 * 3);

    let started = std::time::Instant::now();
    let rstats = router.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "router drain must respect its deadline"
    );
    assert_eq!(rstats.active_conns, 0);
    assert_eq!(rstats.relay_errors, 0, "{rstats:?}");
}

#[test]
fn fleet_manifest_is_byte_identical_across_runs() {
    let cfg = small_fleet_config();

    let (s0, s1, router) = fleet_stack();
    let addr = router.local_addr().to_string();
    let first = run_fleet(&addr, &cfg).expect("fleet run 1");
    router.shutdown();
    s0.shutdown();
    s1.shutdown();

    // A fresh stack on fresh ports: placement hashes names, not
    // addresses, so the deterministic manifest must not move a byte.
    let (s0, s1, router) = fleet_stack();
    let addr = router.local_addr().to_string();
    let second = run_fleet(&addr, &cfg).expect("fleet run 2");
    router.shutdown();
    s0.shutdown();
    s1.shutdown();

    assert!(first.clean(), "{first:?}");
    assert!(second.clean(), "{second:?}");
    let a = first.deterministic_manifest("fleet", &cfg).to_json_text();
    let b = second.deterministic_manifest("fleet", &cfg).to_json_text();
    assert_eq!(a, b, "deterministic fleet manifests must be byte-identical");
}
