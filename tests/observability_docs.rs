//! docs/observability.md is a contract: it must name every event kind
//! the telemetry layer can emit and every metric a run manifest can
//! contain. These tests enumerate the code and grep the doc, so adding
//! an event or metric without documenting it fails CI.

use mobicore::MobiCore;
use mobicore_model::profiles;
use mobicore_sim::{SimConfig, Simulation};
use mobicore_telemetry::EventKind;
use mobicore_workloads::BusyLoop;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn doc() -> String {
    read("docs/observability.md")
}

/// The doc's "Event taxonomy" section (so metric names and event kinds
/// cannot vouch for each other).
fn event_section(doc: &str) -> &str {
    let start = doc
        .find("## Event taxonomy")
        .expect("event taxonomy section");
    let end = doc[start..]
        .find("## Metrics")
        .expect("metrics section follows");
    &doc[start..start + end]
}

#[test]
fn every_event_kind_is_documented() {
    let doc = doc();
    let section = event_section(&doc);
    for kind in EventKind::ALL {
        let name = format!("`{}`", kind.name());
        assert!(
            section.contains(&name),
            "event kind {name} is missing from docs/observability.md"
        );
    }
}

#[test]
fn every_event_kind_description_matches_the_doc_verbatim() {
    // Names alone let the prose rot (the doc once described retired
    // serve kinds next to the right names); the taxonomy tables carry a
    // description column that must be `EventKind::description()`
    // character for character.
    let doc = doc();
    let section = event_section(&doc);
    for kind in EventKind::ALL {
        let row = format!("| `{}` | {} |", kind.name(), kind.description());
        assert!(
            section.contains(&row),
            "docs/observability.md row for `{}` does not carry its \
             code description verbatim; expected a table row starting \
             with: {row}",
            kind.name()
        );
    }
}

#[test]
fn every_documented_kind_exists_in_code() {
    let doc = doc();
    // Table rows in the taxonomy section lead with | `kind-name` |.
    for line in event_section(&doc).lines() {
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        if name == "kind" {
            continue; // table header
        }
        assert!(
            EventKind::from_name(name).is_some(),
            "docs/observability.md documents unknown event kind `{name}`"
        );
    }
}

#[test]
fn every_manifest_metric_is_documented() {
    let doc = doc();
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();
    let cfg = SimConfig::new(profile.clone())
        .with_duration_secs(2)
        .with_seed(5)
        .without_mpdecision();
    let mut sim = Simulation::new(cfg, Box::new(MobiCore::new(&profile))).expect("valid");
    sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.3, f_max, 5)));
    sim.run();
    let manifest = sim.manifest("doc-check");
    assert!(!manifest.metrics.is_empty());
    for name in manifest.metrics.keys() {
        // Histogram rollups document the base name once.
        let base = name
            .strip_suffix(".count")
            .or_else(|| name.strip_suffix(".mean"))
            .or_else(|| name.strip_suffix(".p50"))
            .or_else(|| name.strip_suffix(".p99"))
            .or_else(|| name.strip_suffix(".max"))
            .unwrap_or(name);
        assert!(
            doc.contains(&format!("`{base}`")),
            "metric `{base}` (from `{name}`) is missing from docs/observability.md"
        );
    }
}

#[test]
fn documented_umbrella_filter_matches_the_cli() {
    // The doc promises `hotplug` expands to these four kinds; the CLI
    // test asserts the expansion — here we only pin the doc wording.
    let doc = doc();
    for name in [
        "`hotplug`",
        "`core-online`",
        "`core-offline`",
        "`hotplug-vetoed`",
        "`hotplug-decision`",
    ] {
        assert!(
            doc.contains(name),
            "{name} missing from umbrella documentation"
        );
    }
}

#[test]
fn note_tag_table_numbers_every_kind_by_its_index() {
    // docs/serving.md's Decision note-tag table: a row `| i | `name` |`
    // per kind, `i` being the tag byte on the wire (`EventKind::index`).
    let doc = read("docs/serving.md");
    let rows: Vec<(usize, String)> = doc
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let tag = cells.next()?.parse().ok()?;
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((tag, name.to_string()))
        })
        .collect();
    let want: Vec<(usize, String)> = EventKind::ALL
        .iter()
        .map(|k| (k.index(), k.name().to_string()))
        .collect();
    assert_eq!(rows, want, "docs/serving.md note-tag table");
}
