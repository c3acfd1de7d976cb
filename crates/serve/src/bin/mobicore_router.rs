//! The `mobicore-router` shard router binary.
//!
//! ```text
//! mobicore-router [ADDR] --shard NAME=ADDR [--shard NAME=ADDR ...]
//!                 [--max-conns N] [--drain-secs S] [--idle-secs S]
//!                 [--manifest PATH]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7470`), prints the bound address,
//! and routes sessions to the named shards until stdin reaches EOF or
//! a line saying `quit` — the same lifecycle as `mobicore-serve`. On
//! shutdown the router drains, prints final stats, and (with
//! `--manifest`) writes its run manifest JSON.

#![forbid(unsafe_code)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]

use mobicore_serve::{Router, RouterConfig, Shard};
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mobicore-router [ADDR] --shard NAME=ADDR [--shard NAME=ADDR ...] \
         [--max-conns N] [--drain-secs S] [--idle-secs S] [--manifest PATH]"
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7470".to_string();
    let mut cfg = RouterConfig::default();
    let mut shards: Vec<Shard> = Vec::new();
    let mut manifest_path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shard" => {
                let spec: String = parse(&mut args, "--shard");
                let Some(shard) = Shard::parse(&spec) else {
                    eprintln!("--shard: expected NAME=ADDR, got `{spec}`");
                    usage()
                };
                shards.push(shard);
            }
            "--max-conns" => cfg.max_conns = parse(&mut args, "--max-conns"),
            "--drain-secs" => {
                cfg =
                    cfg.with_drain_deadline(Duration::from_secs(parse(&mut args, "--drain-secs")));
            }
            "--idle-secs" => {
                cfg = cfg.with_idle_timeout(Duration::from_secs(parse(&mut args, "--idle-secs")));
            }
            "--manifest" => manifest_path = Some(parse(&mut args, "--manifest")),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => addr = other.to_string(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if shards.is_empty() {
        eprintln!("mobicore-router: at least one --shard NAME=ADDR is required");
        usage()
    }

    let router = match Router::bind(&addr, shards, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mobicore-router: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("mobicore-router listening on {}", router.local_addr());
    println!("routing to shards: {}", router.shard_names().join(", "));
    println!("(EOF or `quit` on stdin shuts down gracefully)");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(l) if l.trim() == "stats" => {
                println!("{:?}", router.stats());
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }

    if let Some(path) = &manifest_path {
        let manifest = router.manifest("mobicore-router");
        if let Err(e) = std::fs::write(path, manifest.to_json_text()) {
            eprintln!("mobicore-router: cannot write {path}: {e}");
        }
    }
    let stats = router.shutdown();
    println!(
        "routed {} sessions over {} conns ({} legs opened, {} reused, {} relay errors)",
        stats.routed_sessions,
        stats.conns,
        stats.legs_opened,
        stats.legs_reused,
        stats.relay_errors,
    );
}
