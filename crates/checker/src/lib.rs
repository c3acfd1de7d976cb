//! Static model checker for the MobiCore decision automaton.
//!
//! MobiCore's whole per-window decision is a pure function —
//! [`mobicore::policy::step`] — of a tiny amount of carried state (the
//! ondemand estimate, the ΔU reference, the last issued frequency) plus
//! the observed snapshot. That makes the policy a finite automaton once
//! inputs are discretized: utilization from a grid, online-core counts
//! from `1..=n_cores`, frequencies from the profile's OPP table. This
//! crate enumerates that product space for every built-in
//! [`DeviceProfile`] and verifies the invariants the thesis relies on:
//!
//! * **opp-membership** — every issued frequency is a table OPP inside
//!   `[min_khz, max_khz]` (Table 1; requests are snapped with
//!   `CPUFREQ_RELATION_L` semantics).
//! * **quota-bounds** — the Table-2 analysis is total (every `(ΔU, U)`
//!   pair classifies) and the installed quota stays inside the
//!   configured `[quota_min, quota_max]` interval (§4.1.2).
//! * **capacity-floor** — the Eq.-(9) retarget never starves the
//!   quota-scaled demand: `f_new · n` covers `f_ondemand · K·q · n_max`
//!   up to the configured deadband (§4.2, Eq. 9).
//! * **no-ping-pong** — under any constant input, the reachable cycle of
//!   the closed loop holds the online-core count steady (§5.2's 10 %
//!   rule must not fight the capacity floor).
//! * **energy-monotone** — both the calibrated plant model and the
//!   fitted analytic model (Eqs. (1)–(4)) draw non-decreasing power as
//!   frequency rises at fixed utilization, the premise of the whole
//!   race-to-idle-vs-DVFS argument.
//!
//! The checker drives the *shipped* transition functions
//! ([`mobicore::policy::step`], [`BandwidthAnalyzer::transition`],
//! `DcsPass::decide`) — there is no re-implementation to drift.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

use mobicore::config::{Diagnostic, MobiCoreConfig, Severity};
use mobicore::policy::{step, PolicyState};
use mobicore::BandwidthAnalyzer;
use mobicore_model::energy::CpuEnergyModel;
use mobicore_model::{profiles, DeviceProfile, Quota, Utilization};
use mobicore_sim::PolicySnapshot;
use mobicore_telemetry::Json;
use std::collections::HashMap;

pub mod closed_loop;
pub use closed_loop::{check_policy, PolicyCheckConfig};

/// Absolute tolerance for floating-point invariant comparisons.
const EPS: f64 = 1e-9;

/// How many violations of one invariant are kept verbatim in a report
/// (the rest are only counted).
const KEPT_VIOLATIONS: usize = 5;

/// Grid resolution and sweep depth of one checker run.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Utilization levels the closed loop is driven with.
    pub util_grid: Vec<f64>,
    /// Utilization levels the energy-monotonicity sweep evaluates at.
    pub energy_utils: Vec<f64>,
}

impl CheckerConfig {
    /// The grid used by `cargo test`: coarse enough to stay fast in
    /// debug builds, fine enough to cross every Table-2 boundary.
    pub fn quick() -> Self {
        let util_grid = (0..=20).map(|i| f64::from(i) * 0.05).collect();
        CheckerConfig {
            util_grid,
            energy_utils: vec![0.0, 0.5, 1.0],
        }
    }

    /// The grid the `checker` binary uses by default: 1 %-steps plus
    /// the values straddling the 40 % analysis threshold.
    pub fn exhaustive() -> Self {
        let mut util_grid: Vec<f64> = (0..=100).map(|i| f64::from(i) * 0.01).collect();
        util_grid.extend([0.399, 0.401]);
        CheckerConfig {
            util_grid,
            energy_utils: (0..=10).map(|i| f64::from(i) * 0.1).collect(),
        }
    }
}

/// One concrete invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Human-readable description of the violating state and why.
    pub detail: String,
}

/// The outcome of checking one invariant over one (profile, config).
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Invariant identifier (stable, kebab-case).
    pub name: &'static str,
    /// The thesis material the invariant encodes.
    pub thesis_ref: &'static str,
    /// How many (state, input) points were evaluated.
    pub states_checked: usize,
    /// Total number of violations found.
    pub violation_count: usize,
    /// The first few violations, verbatim.
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    fn new(name: &'static str, thesis_ref: &'static str) -> Self {
        InvariantReport {
            name,
            thesis_ref,
            states_checked: 0,
            violation_count: 0,
            violations: Vec::new(),
        }
    }

    fn ok(&self) -> bool {
        self.violation_count == 0
    }

    fn violate(&mut self, detail: String) {
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations.push(Violation { detail });
        }
        self.violation_count += 1;
    }
}

/// The full verdict for one (profile, config) pair.
#[derive(Debug, Clone)]
pub struct Report {
    /// Device profile name.
    pub profile: String,
    /// Configuration label (`default`, `without_quota`, …).
    pub config_label: String,
    /// Findings of [`MobiCoreConfig::validate`] on the input config.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-invariant results. Empty when the configuration has
    /// error-level diagnostics (there is nothing meaningful to walk).
    pub invariants: Vec<InvariantReport>,
}

impl Report {
    /// Whether the configuration is coherent and every invariant held.
    pub fn ok(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
            && self.invariants.iter().all(InvariantReport::ok)
    }

    /// The human-readable rendering the binary prints.
    pub fn human(&self) -> String {
        let mut out = format!("== {} / {} ==\n", self.profile, self.config_label);
        if self.diagnostics.is_empty() {
            out.push_str("config: clean\n");
        } else {
            for d in &self.diagnostics {
                out.push_str(&format!("config: {d}\n"));
            }
        }
        for inv in &self.invariants {
            let verdict = if inv.ok() {
                "OK".to_string()
            } else {
                format!("FAIL ({} violations)", inv.violation_count)
            };
            out.push_str(&format!(
                "  {:<16} {:>8} states  {}   [{}]\n",
                inv.name, inv.states_checked, verdict, inv.thesis_ref
            ));
            for v in &inv.violations {
                out.push_str(&format!("    - {}\n", v.detail));
            }
        }
        out
    }

    /// The machine-readable rendering (`--json`), one compact object.
    pub fn json(&self) -> String {
        let str = |s: &str| Json::Str(s.to_string());
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj()
                    .with("severity", str(&d.severity.to_string()))
                    .with("field", str(d.field))
                    .with("message", str(&d.message))
                    .with("fixit", str(&d.fixit))
            })
            .collect();
        let invariants = self
            .invariants
            .iter()
            .map(|inv| {
                Json::obj()
                    .with("name", str(inv.name))
                    .with("thesis_ref", str(inv.thesis_ref))
                    .with("states_checked", Json::Int(inv.states_checked as u64))
                    .with("violation_count", Json::Int(inv.violation_count as u64))
                    .with(
                        "violations",
                        Json::Arr(inv.violations.iter().map(|v| str(&v.detail)).collect()),
                    )
            })
            .collect();
        Json::obj()
            .with("profile", str(&self.profile))
            .with("config", str(&self.config_label))
            .with("ok", Json::Bool(self.ok()))
            .with("diagnostics", Json::Arr(diagnostics))
            .with("invariants", Json::Arr(invariants))
            .to_compact()
    }
}

/// Every built-in device profile the checker sweeps, in
/// [`profiles::NAMES`] order.
pub fn builtin_profiles() -> Vec<DeviceProfile> {
    profiles::NAMES
        .iter()
        .filter_map(|n| profiles::by_name(n))
        .collect()
}

/// Looks a built-in profile up by its display name (`Nexus 5`) —
/// [`profiles::by_display_name`].
pub fn profile_by_name(name: &str) -> Option<DeviceProfile> {
    profiles::by_display_name(name)
}

/// The configuration ablations the checker sweeps, as `(label, config)`.
pub fn builtin_configs() -> Vec<(&'static str, MobiCoreConfig)> {
    vec![
        ("default", MobiCoreConfig::default()),
        ("without_quota", MobiCoreConfig::default().without_quota()),
        ("without_dcs", MobiCoreConfig::default().without_dcs()),
    ]
}

/// The abstract automaton state the reachability walk tracks: everything
/// in [`PolicyState`] collapses to OPP indices, and the plant adds the
/// online-core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AbsState {
    ondemand_idx: usize,
    issued_idx: usize,
    n_online: usize,
}

/// Runs every invariant over one (profile, config) pair.
pub fn check(
    profile: &DeviceProfile,
    cfg: &MobiCoreConfig,
    config_label: &str,
    ck: &CheckerConfig,
) -> Report {
    let diagnostics = cfg.validate();
    let mut report = Report {
        profile: profile.name().to_string(),
        config_label: config_label.to_string(),
        diagnostics,
        invariants: Vec::new(),
    };
    if report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error)
    {
        // A contradictory config has no meaningful automaton to walk;
        // the diagnostics themselves are the verdict.
        return report;
    }
    // Warnings are repairable: walk what MobiCore::with_config would run
    // (the diagnostics above already carry the findings, so repair quietly).
    let cfg = cfg.repaired();

    let mut opp_membership = InvariantReport::new("opp-membership", "Table 1 / §2.2.1");
    let mut quota_bounds = InvariantReport::new("quota-bounds", "Table 2 / §4.1.2");
    let mut capacity_floor = InvariantReport::new("capacity-floor", "Eq. (9) / §4.2");
    let mut no_ping_pong = InvariantReport::new("no-ping-pong", "§5.2 (10 % rule)");
    let mut energy_monotone = InvariantReport::new("energy-monotone", "Eqs. (1)-(4) / §4.1");

    walk_state_space(
        profile,
        &cfg,
        ck,
        &mut opp_membership,
        &mut quota_bounds,
        &mut capacity_floor,
        &mut no_ping_pong,
    );
    sweep_quota_totality(&cfg, ck, &mut quota_bounds);
    sweep_energy_monotonicity(profile, ck, &mut energy_monotone);

    report.invariants = vec![
        opp_membership,
        quota_bounds,
        capacity_floor,
        no_ping_pong,
        energy_monotone,
    ];
    report
}

/// The closed-loop reachability walk: for every grid utilization and
/// every initial online-core count, iterate the (pure) policy step with
/// the plant granting each request, until the orbit revisits an abstract
/// state. Per-step invariants are checked on the way; the closing cycle
/// is checked for hotplug ping-pong.
fn walk_state_space(
    profile: &DeviceProfile,
    cfg: &MobiCoreConfig,
    ck: &CheckerConfig,
    opp_membership: &mut InvariantReport,
    quota_bounds: &mut InvariantReport,
    capacity_floor: &mut InvariantReport,
    no_ping_pong: &mut InvariantReport,
) {
    let opps = profile.opps();
    let n_max = profile.n_cores();
    // The abstract space is finite: the orbit must close within it.
    let orbit_bound = (opps.len() + 1) * (opps.len() + 1) * (n_max + 1) + 2;
    let (q_lo, q_hi) = effective_quota_bounds(cfg);

    for &u in &ck.util_grid {
        let overall = Utilization::new(u);
        for n0 in 1..=n_max {
            let mut state = PolicyState::default();
            let mut n_online = n0;
            let mut seen: HashMap<AbsState, usize> = HashMap::new();
            let mut trail: Vec<AbsState> = Vec::new();

            for _ in 0..orbit_bound {
                let khz = state.last_issued.unwrap_or_else(|| opps.min_khz());
                let snap =
                    PolicySnapshot::synthetic(n_max, n_online, khz, overall, cfg.sampling_us);
                let out = step(cfg, profile, state, &snap);
                let d = &out.decision;

                // opp-membership: the issued frequency is a table OPP.
                opp_membership.states_checked += 1;
                let issued_idx = match opps.index_of(d.f_new) {
                    Some(i) => i,
                    None => {
                        opp_membership.violate(format!(
                            "u={u:.2} n={n_online}: issued {} is not a table OPP \
                             (table spans {}..{})",
                            d.f_new,
                            opps.min_khz(),
                            opps.max_khz()
                        ));
                        opps.nearest_index(d.f_new)
                    }
                };

                // quota-bounds along the reachable orbit.
                quota_bounds.states_checked += 1;
                let q = d.quota.as_fraction();
                if q < q_lo - EPS || q > q_hi + EPS {
                    quota_bounds.violate(format!(
                        "u={u:.2} n={n_online}: quota {q:.4} outside [{q_lo:.2}, {q_hi:.2}]"
                    ));
                }

                // capacity-floor: delivered capacity covers the
                // quota-scaled demand up to the deadband.
                capacity_floor.states_checked += 1;
                let per_core =
                    (u * d.scale * n_max as f64 / d.target_online.max(1) as f64).clamp(0.0, 1.0);
                let raw_hz = d.f_ondemand.as_hz() * per_core;
                if d.f_new.as_hz() * (1.0 + EPS) < (1.0 - cfg.freq_deadband) * raw_hz {
                    capacity_floor.violate(format!(
                        "u={u:.2} n={n_online}: f_new {} below (1-{:.2})·demand \
                         ({:.0} Hz needed, f_od {})",
                        d.f_new, cfg.freq_deadband, raw_hz, d.f_ondemand
                    ));
                }

                let n_next = d.target_online.clamp(1, n_max);
                let abs = AbsState {
                    ondemand_idx: opps.index_of(d.f_ondemand).unwrap_or(opps.max_index()),
                    issued_idx,
                    n_online: n_next,
                };
                if let Some(&first) = seen.get(&abs) {
                    // Orbit closed: the cycle is trail[first..] (+ abs).
                    no_ping_pong.states_checked += 1;
                    let cycle = &trail[first..];
                    let mut counts: Vec<usize> = cycle.iter().map(|s| s.n_online).collect();
                    counts.push(abs.n_online);
                    counts.sort_unstable();
                    counts.dedup();
                    if counts.len() > 1 {
                        no_ping_pong.violate(format!(
                            "u={u:.2} start n={n0}: steady input toggles online cores \
                             among {counts:?}"
                        ));
                    }
                    break;
                }
                seen.insert(abs, trail.len());
                trail.push(abs);
                state = out.state;
                n_online = n_next;
            }
        }
    }
}

/// The interval the installed quota may legally inhabit: the configured
/// bounds, tightened by [`Quota`]'s own hard floor.
fn effective_quota_bounds(cfg: &MobiCoreConfig) -> (f64, f64) {
    let lo = cfg.quota_min.max(Quota::MIN_FRACTION);
    let hi = cfg.quota_max.clamp(Quota::MIN_FRACTION, 1.0);
    (lo.min(hi), hi)
}

/// Exhaustive (prev, cur) utilization-pair sweep of the Table-2 analysis:
/// every pair must classify into exactly one mode with a finite quota
/// inside the configured bounds — the "quota transitions are total" half
/// of the quota invariant.
fn sweep_quota_totality(
    cfg: &MobiCoreConfig,
    ck: &CheckerConfig,
    quota_bounds: &mut InvariantReport,
) {
    let (q_lo, q_hi) = effective_quota_bounds(cfg);
    for &prev in &ck.util_grid {
        for &cur in &ck.util_grid {
            quota_bounds.states_checked += 1;
            let (bw, _mode) = BandwidthAnalyzer::transition(
                cfg,
                Some(Utilization::new(prev)),
                Utilization::new(cur),
            );
            let q = bw.quota.as_fraction();
            if !q.is_finite() || q < q_lo - EPS || q > q_hi + EPS {
                quota_bounds.violate(format!(
                    "prev={prev:.2} cur={cur:.2}: quota {q:.4} outside [{q_lo:.2}, {q_hi:.2}]"
                ));
            }
            if bw.k_effective.as_fraction() > cur + EPS {
                quota_bounds.violate(format!(
                    "prev={prev:.2} cur={cur:.2}: K·q {:.4} exceeds the raw utilization",
                    bw.k_effective.as_fraction()
                ));
            }
        }
    }
}

/// Power must not decrease as frequency rises at fixed utilization and
/// core count — in both the calibrated plant model the simulator obeys
/// and the fitted analytic model MobiCore reasons with.
fn sweep_energy_monotonicity(
    profile: &DeviceProfile,
    ck: &CheckerConfig,
    energy_monotone: &mut InvariantReport,
) {
    let opps = profile.opps();
    let model = CpuEnergyModel::fit(opps, profiles::NEXUS5_CEFF_F, 450.0);
    for n in 1..=profile.n_cores() {
        for &u in &ck.energy_utils {
            let mut prev_plant = f64::NEG_INFINITY;
            let mut prev_fitted = f64::NEG_INFINITY;
            for (idx, opp) in opps.iter().enumerate() {
                energy_monotone.states_checked += 1;
                let plant = profile.uniform_power_mw(n, idx, u);
                if plant + EPS < prev_plant {
                    energy_monotone.violate(format!(
                        "plant model: n={n} u={u:.1}: power drops {prev_plant:.1} -> \
                         {plant:.1} mW at OPP {idx} ({})",
                        opp.khz
                    ));
                }
                prev_plant = plant;
                let fitted = model.total_power_mw(n, opp.khz, Utilization::new(u));
                if fitted + EPS < prev_fitted {
                    energy_monotone.violate(format!(
                        "fitted model: n={n} u={u:.1}: power drops {prev_fitted:.1} -> \
                         {fitted:.1} mW at OPP {idx} ({})",
                        opp.khz
                    ));
                }
                prev_fitted = fitted;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus5_default_is_clean() {
        let p = profiles::nexus5();
        let r = check(
            &p,
            &MobiCoreConfig::default(),
            "default",
            &CheckerConfig::quick(),
        );
        assert!(r.ok(), "{}", r.human());
        assert_eq!(r.invariants.len(), 5);
        for inv in &r.invariants {
            assert!(inv.states_checked > 0, "{} never ran", inv.name);
        }
    }

    #[test]
    fn inverted_quota_bounds_fail_with_pointed_diagnostic() {
        let p = profiles::nexus5();
        let cfg = MobiCoreConfig {
            quota_min: 0.9,
            quota_max: 0.3,
            ..MobiCoreConfig::default()
        };
        let r = check(&p, &cfg, "bad", &CheckerConfig::quick());
        assert!(!r.ok());
        assert!(r.invariants.is_empty(), "no walk on a contradictory config");
        let text = r.human();
        assert!(text.contains("error: `quota_min`"), "{text}");
        assert!(text.contains("exceeds quota_max"), "{text}");
    }

    #[test]
    fn warnings_do_not_fail_the_check() {
        let p = profiles::nexus5();
        let cfg = MobiCoreConfig::default().without_dcs();
        let r = check(&p, &cfg, "without_dcs", &CheckerConfig::quick());
        assert!(r.ok(), "{}", r.human());
        assert!(!r.diagnostics.is_empty(), "the disable is still reported");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let p = profiles::nexus_s();
        let r = check(
            &p,
            &MobiCoreConfig::default(),
            "default",
            &CheckerConfig::quick(),
        );
        let j = Json::parse(&r.json()).expect("the report is JSON");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        let invariants = j.get("invariants").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = invariants
            .iter()
            .map(|i| i.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let want: Vec<&str> = r.invariants.iter().map(|i| i.name).collect();
        assert_eq!(names, want);
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn json_escaping() {
        let mut r = check(
            &profiles::nexus_s(),
            &MobiCoreConfig::default(),
            "default",
            &CheckerConfig::quick(),
        );
        r.profile = "a\"b\\c\nd".to_string();
        let j = Json::parse(&r.json()).expect("the report is JSON");
        assert_eq!(j.get("profile").and_then(Json::as_str), Some("a\"b\\c\nd"));
    }

    #[test]
    fn wide_deadband_still_passes_capacity_floor() {
        // The floor invariant must tolerate exactly the configured
        // deadband (holding a stale lower OPP is allowed within it) and
        // nothing more; the widest legal deadband is the sharpest test.
        let p = profiles::nexus5();
        let cfg = MobiCoreConfig {
            freq_deadband: 0.5,
            ..MobiCoreConfig::default()
        };
        let r = check(&p, &cfg, "wide-deadband", &CheckerConfig::quick());
        assert!(r.ok(), "{}", r.human());
    }
}
