//! The `mobicore-load` binary end to end: usage errors exit 2, and
//! small direct and routed runs against in-process daemons exit 0.

use mobicore_serve::{Router, RouterConfig, ServeConfig, Server, Shard};
use std::process::{Command, Output};
use std::time::Duration;

fn load(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mobicore-load"))
        .args(args)
        .output()
        .expect("mobicore-load runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn shard_config() -> ServeConfig {
    ServeConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["127.0.0.1:1", "--frobnicate"][..],
        &["127.0.0.1:1", "--sessions"],
        &["127.0.0.1:1", "--sessions", "many"],
        &["127.0.0.1:1", "--fleet", "10"],
        &["--sessions", "4"],
    ] {
        let out = load(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}: {out:?}"
        );
    }
}

#[test]
fn direct_run_exits_0() {
    let server = Server::bind("127.0.0.1:0", shard_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let out = load(&[
        &addr,
        "--sessions",
        "3",
        "--drivers",
        "2",
        "--snapshots",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("sessions=3 decisions=12 (12 server-side)"),
        "{text}"
    );
    assert!(text.contains("errors=0 reordered=0 mismatches=0"), "{text}");
    assert!(
        !text.contains("shard "),
        "a direct run has no shards: {text}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.sessions, 3);
    assert_eq!(stats.decisions, 12);
}

#[test]
fn routed_run_exits_0_covers_both_shards_and_honours_sessions() {
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
    let router_config = RouterConfig::default()
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10));
    let router = Router::bind("127.0.0.1:0", shards, router_config).expect("bind router");
    let addr = router.local_addr().to_string();
    let out = load(&[
        &addr,
        "--route",
        "--sessions",
        "20",
        "--per-conn",
        "5",
        "--drivers",
        "2",
        "--snapshots",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("sessions=20 decisions=40 (40 server-side)"),
        "{text}"
    );
    assert!(text.contains("shard s0: sessions="), "{text}");
    assert!(text.contains("shard s1: sessions="), "{text}");
    assert!(text.contains("errors=0 reordered=0 mismatches=0"), "{text}");
    router.shutdown();
    let (st0, st1) = (s0.shutdown(), s1.shutdown());
    assert_eq!(st0.sessions + st1.sessions, 20);
    assert_eq!(st0.decisions + st1.decisions, 40);
}
