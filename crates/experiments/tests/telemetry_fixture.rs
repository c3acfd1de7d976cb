//! Telemetry output pinned against a committed fixture, not only against
//! another path of the same build: the full manifest `metrics` map and
//! `event_counts` of one 10-s cyclic `mobicore`/`mixed-day` run, and the
//! merged `MetricSet` rollups of one 8-device `idle-day` FleetSim chunk.
//!
//! A change to how metrics are stored or updated (slots, handles,
//! histogram bucketing) must reproduce these bytes exactly. To re-bless
//! after an intentional change to what a run records:
//!
//! ```text
//! BLESS=1 cargo test -p mobicore-experiments --test telemetry_fixture
//! ```

use mobicore_experiments::fleet::{build_sim, run_multiplexed};
use mobicore_experiments::runner::SEED;
use mobicore_model::profiles;
use mobicore_sim::{SimConfig, SimEngine, Simulation};
use mobicore_workloads::scenario;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/telemetry_fixture.txt"
);

/// One `[section]` header, then `name value` lines in name order; floats
/// print in Rust's shortest round-trip form, so equal text is equal bits.
fn section<V: std::fmt::Debug>(out: &mut String, title: &str, map: &BTreeMap<String, V>) {
    writeln!(out, "[{title}]").expect("writing to a String");
    for (name, value) in map {
        writeln!(out, "{name} {value:?}").expect("writing to a String");
    }
}

/// The 10-s `mobicore`/`mixed-day` run on the cyclic engine.
fn cyclic_run() -> Simulation {
    let profile = Arc::new(profiles::nexus5());
    let cfg = SimConfig::new(Arc::clone(&profile))
        .with_duration_secs(10)
        .with_seed(SEED)
        .without_mpdecision()
        .with_engine(SimEngine::Cyclic);
    let policy = mobicore::registry::build("mobicore", &profile, SEED).expect("known policy");
    let mut sim = Simulation::new(cfg, policy).expect("valid config");
    let day = scenario::by_name("mixed-day", &profile, SEED).expect("known scenario");
    sim.add_workload(Box::new(day));
    sim.run();
    sim
}

fn rendered() -> String {
    let mut out = String::new();
    let manifest = cyclic_run().manifest("fixture");
    section(
        &mut out,
        "mobicore/mixed-day 10 s cyclic: metrics",
        &manifest.metrics,
    );
    section(
        &mut out,
        "mobicore/mixed-day 10 s cyclic: event_counts",
        &manifest.event_counts,
    );

    let profile = Arc::new(profiles::nexus5());
    let devices: Vec<u64> = (0..8).collect();
    let (_, merged) = run_multiplexed(
        &profile,
        &devices,
        devices.len(),
        |&d, paths| build_sim(&profile, paths, "mobicore", "idle-day", 60, SEED + d),
        |_, _, _| (),
    );
    section(
        &mut out,
        "idle-day 8-device FleetSim chunk: merged rollups",
        &merged.rollups(),
    );
    out
}

#[test]
fn telemetry_matches_the_committed_fixture() {
    let text = rendered();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(FIXTURE_PATH, &text).expect("write fixture");
    }
    let fixture =
        std::fs::read_to_string(FIXTURE_PATH).expect("fixture exists (run with BLESS=1 to create)");
    assert_eq!(
        text, fixture,
        "telemetry drifted from the committed fixture; if intentional, \
         re-bless with BLESS=1"
    );
}
