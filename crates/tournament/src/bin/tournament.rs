//! `mobicore-tournament` — races every policy against every catalog
//! scenario and prints the Pareto leaderboard.
//!
//! ```text
//! mobicore-tournament [--governors A,B,..] [--scenarios X,Y,..]
//!                     [--seeds K] [--base-seed S] [--secs T]
//!                     [--jobs N] [--out LEADERBOARD.json] [--name NAME]
//! ```
//!
//! Defaults race the full field: every policy × the whole scenario
//! catalog × 5 seeds × 60 s. `--out` writes the leaderboard JSON that
//! `mobicore-inspect summary` renders and `mobicore-inspect diff`
//! compares; the bytes are identical whatever `--jobs` says. Only the
//! `git` stamp is environment-dependent (same answer for every job
//! count), so an `--out` file diffs clean across reruns of the same
//! tree.
//!
//! Exit codes: 0 = success, 1 = cannot write `--out`, 2 = usage error.

#![forbid(unsafe_code)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]

use mobicore_tournament::{run, TournamentSpec};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: mobicore-tournament [--governors A,B,..] [--scenarios X,Y,..]\n\
     \x20                          [--seeds K] [--base-seed S] [--secs T]\n\
     \x20                          [--jobs N] [--out LEADERBOARD.json] [--name NAME]\n\
     \n\
     --governors  comma-separated policy names (default: all of them)\n\
     --scenarios  comma-separated catalog scenarios (default: the full catalog)\n\
     --seeds      seeds per (policy, scenario) cell (default: 5)\n\
     --base-seed  first seed (default: the experiments seed)\n\
     --secs       simulated seconds per run (default: 60)\n\
     --jobs       sweep workers (default: MOBICORE_JOBS or all cores)\n\
     --out        write the leaderboard JSON here (mobicore-inspect reads it)\n\
     --name       tournament name recorded in the leaderboard"
}

fn parse(argv: &[String]) -> Result<(TournamentSpec, Option<String>), String> {
    let mut spec = TournamentSpec::default();
    let mut out = None;
    let mut seeds = spec.seeds.len() as u64;
    let mut base_seed = spec.seeds[0];
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--governors" => {
                spec.policies = value("--governors")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--scenarios" => {
                spec.scenarios = value("--scenarios")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--seeds" => {
                seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds needs a positive count".to_string())?;
                if seeds == 0 {
                    return Err("--seeds needs a positive count".to_string());
                }
            }
            "--base-seed" => {
                base_seed = value("--base-seed")?
                    .parse()
                    .map_err(|_| "--base-seed needs an integer".to_string())?;
            }
            "--secs" => {
                spec.secs = value("--secs")?
                    .parse()
                    .map_err(|_| "--secs needs a positive count".to_string())?;
                if spec.secs == 0 {
                    return Err("--secs needs a positive count".to_string());
                }
            }
            "--jobs" => {
                let n = mobicore_sweep::parse_jobs(&value("--jobs")?)
                    .ok_or_else(|| "--jobs needs a positive count".to_string())?;
                std::env::set_var(mobicore_sweep::JOBS_ENV, n.to_string());
            }
            "--out" => out = Some(value("--out")?),
            "--name" => spec.name = value("--name")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    spec.seeds = (base_seed..base_seed + seeds).collect();
    Ok((spec, out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out) = match parse(&argv) {
        Ok(v) => v,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("mobicore-tournament: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "racing {} policies x {} scenarios x {} seeds ({} s each, {} worker(s))",
        spec.policies.len(),
        spec.scenarios.len(),
        spec.seeds.len(),
        spec.secs,
        mobicore_sweep::Executor::from_env().jobs(),
    );
    let result = run(&spec);
    let mut lb = result.leaderboard;
    // Stamp provenance but not wall/created time: the git answer is the
    // same whatever the job count, so the bytes stay reproducible.
    lb.git = mobicore_telemetry::git_describe(Path::new("."));
    print!("{}", lb.summary_text());
    eprintln!(
        "{} runs in {:.1} s ({:.1} runs/s)",
        result.runs, result.wall_s, result.runs_per_s
    );
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, lb.to_json_text()) {
            eprintln!("mobicore-tournament: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
