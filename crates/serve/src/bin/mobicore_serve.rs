//! The `mobicore-serve` daemon binary.
//!
//! ```text
//! mobicore-serve [ADDR] [--max-sessions N] [--drain-secs S]
//!                [--idle-secs S] [--manifest PATH]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7474`), prints the bound address,
//! and serves until stdin reaches EOF or a line saying `quit` — a
//! deliberately simple lifecycle that needs no signal handling and
//! works under pipes and test harnesses. On shutdown the daemon
//! drains, prints final stats, and (with `--manifest`) writes its run
//! manifest JSON.

#![forbid(unsafe_code)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]

use mobicore_serve::{ServeConfig, Server};
use std::io::BufRead;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mobicore-serve [ADDR] [--max-sessions N] [--drain-secs S] \
         [--idle-secs S] [--manifest PATH]"
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
    let mut addr = "127.0.0.1:7474".to_string();
    let mut cfg = ServeConfig::default();
    let mut manifest_path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-sessions" => cfg.max_sessions = parse(&mut args, "--max-sessions"),
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

    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mobicore-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("mobicore-serve listening on {}", server.local_addr());
    println!("(EOF or `quit` on stdin shuts down gracefully)");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(l) if l.trim() == "stats" => {
                println!("{:?}", server.stats());
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }

    if let Some(path) = &manifest_path {
        let manifest = server.manifest("mobicore-serve");
        if let Err(e) = std::fs::write(path, manifest.to_json_text()) {
            eprintln!("mobicore-serve: cannot write {path}: {e}");
        }
    }
    let stats = server.shutdown();
    println!(
        "served {} sessions, {} decisions ({} drained clean, {} aborted, {} backpressure, {} protocol errors)",
        stats.sessions,
        stats.decisions,
        stats.drained_sessions,
        stats.aborted_sessions,
        stats.backpressure_events,
        stats.protocol_errors,
    );
}
