//! The `mobicore-load` generator binary.
//!
//! ```text
//! mobicore-load ADDR [--sessions N] [--per-conn K] [--drivers N]
//!               [--window W] [--route] [--policy NAME] [--profile NAME]
//!               [--scenario NAME] [--seed N] [--snapshots N]
//!               [--no-verify] [--manifest PATH] [--det-manifest PATH]
//! ```
//!
//! Runs `--sessions` sessions against the daemon at `ADDR`, `--per-conn`
//! back to back on each connection (default 1: every session on its
//! own connection, all open at once), replays the recorded scenario
//! stream through each in windowed batches, and prints decisions/s plus
//! RTT p50/p99/p999. With `--route`, `ADDR` is a `mobicore-router`:
//! each session routes by its index and the per-shard tallies are
//! printed too. `--det-manifest` writes the deterministic manifest
//! (counts only, byte-identical run to run at a fixed seed).
//!
//! Exits 1 when any decision was dropped, reordered, or differed from
//! the in-process reference, and 2 on a usage error.

#![forbid(unsafe_code)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]

use mobicore_serve::{run_load, LoadConfig};
use mobicore_telemetry::RunManifest;

fn usage() -> ! {
    eprintln!(
        "usage: mobicore-load ADDR [--sessions N] [--per-conn K] [--drivers N] \
         [--window W] [--route] [--policy NAME] [--profile NAME] \
         [--scenario NAME] [--seed N] [--snapshots N] [--no-verify] \
         [--manifest PATH] [--det-manifest PATH]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    let Some(v) = args.next() else {
        eprintln!("{flag} needs a value");
        usage()
    };
    let Ok(v) = v.parse() else {
        eprintln!("{flag}: cannot parse `{v}`");
        usage()
    };
    v
}

fn write_manifest(path: &str, manifest: &RunManifest) {
    if let Err(e) = std::fs::write(path, manifest.to_json_text()) {
        eprintln!("mobicore-load: cannot write {path}: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut cfg = LoadConfig::default();
    let mut manifest_path: Option<String> = None;
    let mut det_manifest_path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => cfg.sessions = parse(&mut args, "--sessions"),
            "--per-conn" => cfg.per_conn = parse(&mut args, "--per-conn"),
            "--drivers" => cfg.drivers = parse(&mut args, "--drivers"),
            "--window" => cfg.window = parse(&mut args, "--window"),
            "--route" => cfg.route = true,
            "--policy" => cfg.policy = parse(&mut args, "--policy"),
            "--profile" => cfg.profile = parse(&mut args, "--profile"),
            "--scenario" => cfg.scenario = parse(&mut args, "--scenario"),
            "--seed" => cfg.seed = parse(&mut args, "--seed"),
            "--snapshots" => cfg.snapshots_per_session = parse(&mut args, "--snapshots"),
            "--no-verify" => cfg.verify = false,
            "--manifest" => manifest_path = Some(parse(&mut args, "--manifest")),
            "--det-manifest" => det_manifest_path = Some(parse(&mut args, "--det-manifest")),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && addr.is_none() => addr = Some(other.to_string()),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let Some(addr) = addr else { usage() };

    let report = match run_load(&addr, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mobicore-load: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sessions={} decisions={} ({} server-side) stream_len={} wall_s={:.3}",
        report.sessions,
        report.decisions,
        report.server_decisions,
        report.stream_len,
        report.wall_s,
    );
    println!(
        "decisions/s={:.0} rtt p50={:.0}us p99={:.0}us p999={:.0}us backpressure={}",
        report.decisions_per_s,
        report.rtt_us.quantile(0.50),
        report.rtt_us.quantile(0.99),
        report.rtt_us.quantile(0.999),
        report.backpressure_seen,
    );
    for (shard, t) in &report.shards {
        println!(
            "shard {shard}: sessions={} decisions={} rtt p99={:.0}us",
            t.sessions,
            t.decisions,
            t.rtt_us.quantile(0.99),
        );
    }
    println!(
        "errors={} reordered={} mismatches={}",
        report.errors, report.reordered, report.mismatches,
    );
    if let Some(path) = &manifest_path {
        write_manifest(path, &report.manifest("mobicore-load", &cfg));
    }
    if let Some(path) = &det_manifest_path {
        write_manifest(path, &report.deterministic_manifest("mobicore-load", &cfg));
    }
    if !report.clean() {
        eprintln!("mobicore-load: FAILED integrity checks");
        std::process::exit(1);
    }
}
