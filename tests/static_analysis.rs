//! Workspace-level static-analysis gate, two layers:
//!
//! 1. Every built-in device profile is model-checked against the three
//!    configuration ablations (`default`, `without_quota`, `without_dcs`)
//!    with `mobicore-checker`, so `cargo test` fails if a policy change
//!    ever breaks one of the MobiCore invariants.
//! 2. The `mobicore-analyze` invariant linter runs over the whole
//!    workspace source tree: unjustified `Ordering::Relaxed`, panic
//!    paths in the serve daemon, wall-clock reads in the simulator,
//!    missing crate lint headers, unregistered wake-time
//!    implementations, stale doc cargo commands and unused dependencies
//!    all fail tier-1 here (see docs/static-analysis.md).
//!
//! The exhaustive grid is reserved for the `checker` binary; these tests use
//! the `quick` grid to keep the tier-1 suite fast while still walking every
//! (profile, config) pair.

use mobicore::config::MobiCoreConfig;
use mobicore_checker::{builtin_configs, builtin_profiles, check, CheckerConfig, Report};
use mobicore_telemetry::Json;

fn quick_report(profile_name: &str, label: &str) -> Report {
    let profile = mobicore_checker::profile_by_name(profile_name)
        .unwrap_or_else(|| panic!("built-in profile `{profile_name}` should exist"));
    let (_, cfg) = builtin_configs()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("built-in config `{label}` should exist"));
    check(&profile, &cfg, label, &CheckerConfig::quick())
}

fn invariant<'r>(report: &'r Report, name: &str) -> &'r mobicore_checker::InvariantReport {
    report
        .invariants
        .iter()
        .find(|i| i.name == name)
        .unwrap_or_else(|| panic!("report should contain invariant `{name}`"))
}

/// The headline gate: all built-in profiles × all three ablations are clean.
#[test]
fn every_builtin_profile_passes_every_config_ablation() {
    let configs = builtin_configs();
    assert_eq!(
        configs.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        ["default", "without_quota", "without_dcs"],
        "the three ablations from the issue must all be covered"
    );
    for profile in builtin_profiles() {
        for (label, cfg) in &configs {
            let report = check(&profile, cfg, label, &CheckerConfig::quick());
            assert!(
                report.ok(),
                "({}, {label}) violated an invariant:\n{}",
                profile.name(),
                report.human()
            );
            assert_eq!(report.invariants.len(), 5, "all five invariants must run");
        }
    }
}

/// OPP membership: every issued frequency is an exact member of the profile's
/// OPP table (Table 1 / §2.2.1), checked over a non-trivial state count.
#[test]
fn opp_membership_invariant_is_exercised() {
    let report = quick_report("Nexus 5", "default");
    let inv = invariant(&report, "opp-membership");
    assert!(
        inv.states_checked > 100,
        "expected a real walk, got {} states",
        inv.states_checked
    );
    assert_eq!(inv.violation_count, 0, "{:?}", inv.violations);
}

/// Capacity floor: the Eq. (9) frequency (after deadband hold) still covers
/// the quota-scaled demand redistributed over the DCS core target.
#[test]
fn capacity_floor_invariant_is_exercised() {
    for label in ["default", "without_quota"] {
        let report = quick_report("Nexus 5", label);
        let inv = invariant(&report, "capacity-floor");
        assert!(
            inv.states_checked > 100,
            "({label}) walk too small: {}",
            inv.states_checked
        );
        assert_eq!(inv.violation_count, 0, "({label}) {:?}", inv.violations);
    }
}

/// No hotplug ping-pong: every closed orbit of the policy settles on a single
/// online-core count — the §5.2 oscillation guard — including on the
/// eight-core profile where hotplug has the most room to oscillate.
#[test]
fn no_ping_pong_invariant_is_exercised() {
    for profile_name in ["Nexus 5", "Synthetic Octa"] {
        let report = quick_report(profile_name, "default");
        let inv = invariant(&report, "no-ping-pong");
        assert!(
            inv.states_checked > 0,
            "({profile_name}) no orbits were walked"
        );
        assert_eq!(
            inv.violation_count, 0,
            "({profile_name}) {:?}",
            inv.violations
        );
    }
}

/// A known-bad tunable (inverted quota window) must fail with a pointed
/// diagnostic instead of being silently clamped, and the walk is skipped.
#[test]
fn inverted_quota_window_fails_with_diagnostic() {
    let profile = builtin_profiles().remove(0);
    let cfg = MobiCoreConfig {
        quota_min: 0.9,
        quota_max: 0.3,
        ..MobiCoreConfig::default()
    };
    let report = check(&profile, &cfg, "bad-quota", &CheckerConfig::quick());
    assert!(!report.ok(), "inverted quota bounds must fail the check");
    assert!(
        report.invariants.is_empty(),
        "error-level diagnostics must skip the state-space walk"
    );
    let text = report.human();
    assert!(
        text.contains("quota_min") && text.contains("quota_max"),
        "diagnostic should name the offending fields:\n{text}"
    );
}

/// The `mobicore-analyze` invariant linter is clean over the workspace.
///
/// This is the in-tree gate for the source-level rules (`cargo run -p
/// mobicore-analyze -- rules` lists them): removing a `// relaxed:`
/// justification, adding an `.unwrap()` to a serve non-test path, or
/// adding a registry entry without documenting it fails this test with
/// the same file:line findings the CLI prints.
#[test]
fn analyze_lint_is_clean_over_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = mobicore_analyze::lint::lint_workspace(root)
        .unwrap_or_else(|e| panic!("lint walk failed: {e}"));
    assert!(
        findings.is_empty(),
        "mobicore-analyze found {} invariant violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The JSON report stays machine-readable: it parses, names the five
/// invariants, and carries an `ok` verdict consistent with `Report::ok`.
#[test]
fn json_report_is_consistent_with_verdict() {
    let report = quick_report("Nexus 4", "default");
    let json = Json::parse(&report.json()).expect("the report is JSON");
    let names: Vec<&str> = json
        .get("invariants")
        .and_then(Json::as_arr)
        .expect("an invariants array")
        .iter()
        .filter_map(|i| i.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(
        names,
        [
            "opp-membership",
            "quota-bounds",
            "capacity-floor",
            "no-ping-pong",
            "energy-monotone",
        ]
    );
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(report.ok()));
    assert!(report.ok());
}
