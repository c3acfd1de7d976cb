//! # mobicore-experiments
//!
//! One runner per table and figure of the MobiCore thesis. Each module
//! regenerates its artifact on the simulator and prints paper-vs-measured
//! lines; EXPERIMENTS.md is assembled from these outputs.
//!
//! Run a single experiment:
//!
//! ```text
//! cargo run -p mobicore-experiments --release --bin fig03
//! cargo run -p mobicore-experiments --release --bin fig10 -- --quick
//! ```
//!
//! or everything: `cargo run -p mobicore-experiments --release --bin all`.
//!
//! Every experiment takes a `quick` flag (shorter sessions, coarser
//! sweeps) used by the integration tests; the numbers quoted in
//! EXPERIMENTS.md come from full (non-quick) runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod ext01;
pub mod ext02;
pub mod ext03;
pub mod ext04;
pub mod ext05;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fleet;
pub mod games_suite;
pub mod phone;
pub mod policy;
pub mod result;
pub mod runner;
pub mod table1;
pub mod table2;

pub use result::{Check, ExperimentResult};

/// Entry point shared by the per-figure binaries: runs the experiment(s)
/// named `id` (or `"all"`), honouring a `--quick` command-line flag, and
/// prints the result(s). Exits nonzero if any shape check diverges.
///
/// `--markdown [PATH]` additionally writes the results as markdown, and
/// `--manifest DIR` makes every simulation drop a run manifest under
/// `DIR` for `mobicore-inspect` (see docs/observability.md).
/// `--jobs N` sets the sweep-executor worker count (equivalent to the
/// `MOBICORE_JOBS` environment variable; see docs/performance.md).
/// `--engine NAME` selects the simulator engine for every run —
/// `cyclic` or `event-driven`, equivalent to the `MOBICORE_SIM_ENGINE`
/// environment variable (see docs/simulator.md); both engines produce
/// byte-identical results.
pub fn bin_main(id: &str) {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut experiments = all_experiments();
    experiments.extend(extension_experiments());
    let selected: Vec<_> = experiments
        .iter()
        .filter(|(eid, _)| id == "all" || *eid == id)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment id {id:?}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().collect();
    let markdown_path = args
        .iter()
        .position(|a| a == "--markdown")
        .map(|i| args.get(i + 1).cloned().unwrap_or("RESULTS.md".into()));
    let manifest_dir = args
        .iter()
        .position(|a| a == "--manifest")
        .map(|i| args.get(i + 1).cloned().unwrap_or("manifests".into()));
    if let Some(dir) = manifest_dir {
        // Each experiment builds its ManifestSink from this variable, so
        // setting it here reaches every runner without global state in
        // the experiments crate itself.
        std::env::set_var("MOBICORE_MANIFEST_DIR", dir);
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let value = args.get(i + 1).map_or("", String::as_str);
        match mobicore_sweep::parse_jobs(value) {
            Some(n) => std::env::set_var(mobicore_sweep::JOBS_ENV, n.to_string()),
            None => {
                eprintln!("--jobs needs a positive worker count, got {value:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(name) = args
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| args.get(i + 1))
    {
        // Every simulation a runner builds picks the engine up from the
        // environment (SimConfig::new reads ENGINE_ENV), so one set_var
        // here reaches them all — the same pattern as --manifest.
        match mobicore_sim::SimEngine::from_name(name) {
            Some(engine) => std::env::set_var(mobicore_sim::ENGINE_ENV, engine.name()),
            None => {
                eprintln!(
                    "unknown engine {name:?}; valid engines: {}",
                    mobicore_sim::ENGINE_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    println!(
        "# MobiCore reproduction — seed {} — {} mode — {} sweep worker(s) — {} engine",
        runner::SEED,
        if quick { "quick" } else { "full" },
        mobicore_sweep::Executor::from_env().jobs(),
        mobicore_sim::SimEngine::from_env()
            .unwrap_or_default()
            .name()
    );
    let mut ok = true;
    let mut md = format!(
        "# MobiCore reproduction results (seed {}, {} mode)\n\n",
        runner::SEED,
        if quick { "quick" } else { "full" }
    );
    for (_, run) in selected {
        let result = run(quick);
        ok &= result.all_pass();
        println!("{result}");
        md.push_str(&result.to_markdown());
    }
    if let Some(path) = markdown_path {
        match std::fs::write(&path, md) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        eprintln!("one or more shape checks diverged from the paper");
        std::process::exit(1);
    }
}

/// An experiment entry point: takes `quick` and produces a result.
pub type ExperimentFn = fn(bool) -> ExperimentResult;

/// Every experiment in paper order, as `(id, runner)` pairs.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig01", fig01::run as ExperimentFn),
        ("fig02", fig02::run),
        ("table1", table1::run),
        ("fig03", fig03::run),
        ("fig04", fig04::run),
        ("fig05", fig05::run),
        ("fig06", fig06::run),
        ("fig07", fig07::run),
        ("table2", table2::run),
        ("fig09", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
    ]
}

/// Experiments beyond the paper (extensions; DESIGN.md §5 and §7 future
/// work). Included in `--bin all` after the paper artifacts.
pub fn extension_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("ext01", ext01::run as ExperimentFn),
        ("ext02", ext02::run),
        ("ext03", ext03::run),
        ("ext04", ext04::run),
        ("ext05", ext05::run),
    ]
}
