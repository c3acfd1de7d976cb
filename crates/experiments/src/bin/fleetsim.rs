//! `mobicore-fleetsim` — run a device fleet through the multiplexed
//! FleetSim driver (docs/simulator.md, docs/performance.md).
//!
//! ```text
//! mobicore-fleetsim --devices 1000 --fleet-chunk 32 \
//!     --scenario idle-day --secs 60 --manifest manifests/
//! ```
//!
//! Per-device reports and manifests are byte-identical (modulo
//! wall-clock stamps) to running each device on its own;
//! `tests/fleetsim.rs` checks this against an in-test reference.
//!
//! Exit codes: 0 = success, 2 = usage error (unknown flag, policy or
//! scenario, or a malformed value).

use mobicore_experiments::fleet::{run, FleetSpec};
use mobicore_workloads::scenario;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: mobicore-fleetsim [--devices N] [--fleet-chunk N] \
         [--scenario NAME] [--policy NAME] [--secs S] [--seed S] \
         [--manifest DIR] [--jobs N]\n\
         scenarios: {}\n\
         policies: {}, pinned:<cores>:<khz>",
        scenario::CATALOG.join(", "),
        mobicore::registry::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_spec() -> FleetSpec {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = FleetSpec::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let Some(value) = args.get(i + 1) else {
            usage()
        };
        match flag {
            "--devices" => spec.devices = value.parse().unwrap_or_else(|_| usage()),
            "--fleet-chunk" => spec.chunk = value.parse().unwrap_or_else(|_| usage()),
            "--scenario" => spec.scenario.clone_from(value),
            "--policy" => spec.policy.clone_from(value),
            "--secs" => spec.secs = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.base_seed = value.parse().unwrap_or_else(|_| usage()),
            "--manifest" => spec.manifest_dir = Some(PathBuf::from(value)),
            "--jobs" => match mobicore_sweep::parse_jobs(value) {
                Some(n) => std::env::set_var(mobicore_sweep::JOBS_ENV, n.to_string()),
                None => usage(),
            },
            _ => usage(),
        }
        i += 2;
    }
    if !scenario::CATALOG.contains(&spec.scenario.as_str()) {
        eprintln!("unknown scenario {:?}", spec.scenario);
        usage();
    }
    let profile = mobicore_model::profiles::nexus5();
    if mobicore::registry::build(&spec.policy, &profile, 0).is_none() {
        eprintln!("unknown policy {:?}", spec.policy);
        usage();
    }
    spec
}

fn main() {
    let spec = parse_spec();
    println!(
        "# mobicore-fleetsim — {} device(s) × {} s {} — {} — chunk {} — {} worker(s)",
        spec.devices,
        spec.secs,
        spec.scenario,
        spec.policy,
        spec.chunk.max(1),
        mobicore_sweep::Executor::from_env().jobs(),
    );
    let out = run(&spec);
    let energy_mj: f64 = out.results.iter().map(|r| r.report.energy_mj).sum();
    let avg_power_mw = if out.results.is_empty() {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let n = out.results.len() as f64;
        out.results
            .iter()
            .map(|r| r.report.avg_power_mw)
            .sum::<f64>()
            / n
    };
    println!(
        "devices {}  chunks {}  wall {:.2} s  device-s/wall-s {:.1}",
        out.results.len(),
        out.chunks,
        out.wall_s,
        out.device_s_per_wall_s,
    );
    println!("fleet energy {energy_mj:.1} mJ  mean device power {avg_power_mw:.1} mW");
    for (name, value) in out.telemetry.rollups() {
        if name.starts_with("fleet.") {
            println!("{name} = {value}");
        }
    }
}
