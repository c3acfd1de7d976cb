//! MobiCore tunables, their validation diagnostics, and sanitization.

use std::fmt;

/// How MobiCore turns its observation into per-core frequencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrequencyRule {
    /// Eq. (9): `f_new = f_ondemand · (K·q) · n_max / n` — the rule the
    /// thesis implements.
    #[default]
    Eq9,
    /// The §4.2 model-based variant: enumerate feasible `(cores, OPP)`
    /// operating points and take the one the analytic energy model
    /// (Eqs. (1)–(7)) predicts cheapest. Used for the ablation benches.
    OptimalPoint,
}

/// Tunables of the MobiCore policy. The defaults are the values the
/// thesis states or implies.
///
/// The quickstart in one doctest — simulate the thesis' setup (§3.1
/// busy loop, mpdecision stopped) under the Android default policy and
/// under MobiCore, and compare:
///
/// ```
/// use mobicore::{MobiCore, MobiCoreConfig};
/// use mobicore_governors::AndroidDefaultPolicy;
/// use mobicore_model::profiles;
/// use mobicore_sim::{CpuPolicy, SimConfig, Simulation};
/// use mobicore_workloads::BusyLoop;
///
/// let profile = profiles::nexus5();
/// let f_max = profile.opps().max_khz();
/// let mut session = |policy: Box<dyn CpuPolicy>| {
///     let cfg = SimConfig::new(profile.clone())
///         .with_duration_secs(5)
///         .with_seed(7)
///         .without_mpdecision(); // the thesis' `adb shell stop mpdecision`
///     let mut sim = Simulation::new(cfg, policy)?;
///     // The in-house kernel app of §3.1: busy loops at a 30 % duty cycle.
///     sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.3, f_max, 7)));
///     Ok::<_, mobicore_sim::SimError>(sim.run())
/// };
///
/// let android = session(Box::new(AndroidDefaultPolicy::new(&profile)))?;
///
/// // A validated config: tweak a tunable, let `validate()` vet it.
/// let cfg = MobiCoreConfig { offline_threshold_pct: 15.0, ..MobiCoreConfig::default() };
/// assert!(cfg.validate().is_empty(), "tunables are coherent");
/// let mobicore = session(Box::new(MobiCore::with_config(&profile, cfg)))?;
///
/// // MobiCore shrinks the quota below 1.0 and spends less power.
/// assert!(mobicore.avg_quota < 1.0);
/// assert!(mobicore.avg_power_mw < android.avg_power_mw);
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobiCoreConfig {
    /// Individual core load (%) below which a core may be off-lined
    /// (§5.2: "if the individual workload of a core is under 10%, we
    /// assume that we can turn it off").
    pub offline_threshold_pct: f64,
    /// Overall load (%) below which the bandwidth variation analysis runs
    /// at all (Table 2 line 3: `if utilization(t) < 40`).
    pub low_load_threshold_pct: f64,
    /// ΔU (percentage points) above which the window counts as burst mode
    /// (Table 2 line 8).
    pub delta_up_pct: f64,
    /// ΔU (percentage points) below which (i.e. more negative than
    /// −`delta_down_pct`) the window counts as slow mode (Table 2 line 4).
    pub delta_down_pct: f64,
    /// The slow-mode bandwidth scaling factor (Table 2 line 5: 0.9).
    pub scaling_factor: f64,
    /// Headroom added on top of `quota = utilization` so steady loads are
    /// not throttled by measurement noise (fraction of full bandwidth).
    pub quota_headroom: f64,
    /// Lower bound on the installed CFS quota (fraction of full
    /// bandwidth). The quota never shrinks below this even in deep slow
    /// mode, so the foreground app always keeps a sliver of CPU.
    pub quota_min: f64,
    /// Upper bound on the installed CFS quota (fraction of full
    /// bandwidth). 1.0 (the default) means the quota mechanism may
    /// restore the whole bandwidth.
    pub quota_max: f64,
    /// Per-core utilization the DCS pass sizes capacity for: more cores
    /// are brought in when the demand would push the remaining cores above
    /// this (fraction).
    pub capacity_target: f64,
    /// Relative deadband on frequency retargeting: a new Eq.-(9) target
    /// within this fraction of the last issued one is dropped, avoiding
    /// OPP ping-pong (every real transition stalls the core briefly).
    pub freq_deadband: f64,
    /// The frequency rule.
    pub rule: FrequencyRule,
    /// Sampling period, µs (the thesis samples at the ondemand cadence).
    pub sampling_us: u64,
}

impl Default for MobiCoreConfig {
    fn default() -> Self {
        MobiCoreConfig {
            offline_threshold_pct: 10.0,
            low_load_threshold_pct: 40.0,
            delta_up_pct: 5.0,
            delta_down_pct: 3.0,
            scaling_factor: 0.9,
            quota_headroom: 0.08,
            quota_min: mobicore_model::Quota::MIN_FRACTION,
            quota_max: 1.0,
            capacity_target: 0.85,
            freq_deadband: 0.06,
            rule: FrequencyRule::Eq9,
            sampling_us: 20_000,
        }
    }
}

/// How serious a configuration diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The value is unusual or was clamped, but the configuration still
    /// means something sensible (e.g. a negative offline threshold is the
    /// documented way to disable DCS).
    Warning,
    /// The configuration is contradictory or meaningless as given;
    /// [`MobiCoreConfig::sanitized`] has to invent a repair.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of [`MobiCoreConfig::validate`]: which field, what is
/// wrong, and the repair [`MobiCoreConfig::sanitized`] would apply.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// The offending field, as named in [`MobiCoreConfig`].
    pub field: &'static str,
    /// What is wrong with the value.
    pub message: String,
    /// The repair `sanitized()` applies, as fix-it text.
    pub fixit: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: `{}`: {} (fix: {})",
            self.severity, self.field, self.message, self.fixit
        )
    }
}

impl Diagnostic {
    fn error(field: &'static str, message: String, fixit: String) -> Self {
        Diagnostic {
            severity: Severity::Error,
            field,
            message,
            fixit,
        }
    }

    fn warning(field: &'static str, message: String, fixit: String) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            field,
            message,
            fixit,
        }
    }
}

/// Pushes a range diagnostic for `value` outside `[lo, hi]`.
fn check_range(
    out: &mut Vec<Diagnostic>,
    severity: Severity,
    field: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
) {
    if !value.is_finite() {
        out.push(Diagnostic::error(
            field,
            format!("non-finite value {value}"),
            format!("set to {lo}"),
        ));
    } else if value < lo || value > hi {
        let clamped = value.clamp(lo, hi);
        out.push(Diagnostic {
            severity,
            field,
            message: format!("{value} is outside [{lo}, {hi}]"),
            fixit: format!("clamp to {clamped}"),
        });
    }
}

impl MobiCoreConfig {
    /// Checks every tunable and the cross-field constraints, returning
    /// one [`Diagnostic`] per violation (empty = clean).
    ///
    /// [`Severity::Error`] findings mean the configuration is
    /// contradictory (e.g. `quota_min > quota_max`);
    /// [`Severity::Warning`] findings mean a value will be clamped or has
    /// a documented out-of-range meaning (a negative
    /// `offline_threshold_pct` disables DCS).
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if self.offline_threshold_pct < 0.0 && self.offline_threshold_pct.is_finite() {
            out.push(Diagnostic::warning(
                "offline_threshold_pct",
                format!(
                    "{} is negative: no core load is ever below it, so DCS never offlines \
                     (this is how `without_dcs()` disables the pass)",
                    self.offline_threshold_pct
                ),
                "clamp to 0 (equivalent: no core is ever offlined)".to_string(),
            ));
        } else {
            check_range(
                &mut out,
                Severity::Warning,
                "offline_threshold_pct",
                self.offline_threshold_pct,
                0.0,
                100.0,
            );
        }
        check_range(
            &mut out,
            Severity::Warning,
            "low_load_threshold_pct",
            self.low_load_threshold_pct,
            0.0,
            100.0,
        );
        check_range(
            &mut out,
            Severity::Warning,
            "delta_up_pct",
            self.delta_up_pct,
            0.0,
            100.0,
        );
        check_range(
            &mut out,
            Severity::Warning,
            "delta_down_pct",
            self.delta_down_pct,
            0.0,
            100.0,
        );
        check_range(
            &mut out,
            Severity::Error,
            "scaling_factor",
            self.scaling_factor,
            0.1,
            1.0,
        );
        check_range(
            &mut out,
            Severity::Warning,
            "quota_headroom",
            self.quota_headroom,
            0.0,
            1.0,
        );
        check_range(
            &mut out,
            Severity::Error,
            "quota_min",
            self.quota_min,
            0.0,
            1.0,
        );
        check_range(
            &mut out,
            Severity::Error,
            "quota_max",
            self.quota_max,
            0.0,
            1.0,
        );
        if self.quota_min.is_finite()
            && self.quota_max.is_finite()
            && self.quota_min > self.quota_max
        {
            out.push(Diagnostic::error(
                "quota_min",
                format!(
                    "quota_min ({}) exceeds quota_max ({}): the quota interval is empty",
                    self.quota_min, self.quota_max
                ),
                "swap the two bounds".to_string(),
            ));
        }
        check_range(
            &mut out,
            Severity::Error,
            "capacity_target",
            self.capacity_target,
            0.1,
            1.0,
        );
        check_range(
            &mut out,
            Severity::Warning,
            "freq_deadband",
            self.freq_deadband,
            0.0,
            0.5,
        );
        if self.sampling_us < 1_000 {
            out.push(Diagnostic::warning(
                "sampling_us",
                format!(
                    "{} µs is below the 1 ms floor (faster than any real governor cadence)",
                    self.sampling_us
                ),
                "raise to 1000".to_string(),
            ));
        }
        out
    }

    /// Whether [`validate`](Self::validate) finds no
    /// [`Severity::Error`]-level problems.
    pub fn is_valid(&self) -> bool {
        self.validate()
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Repairs the tunables into range, logging every applied fix to
    /// stderr. Prefer [`validate`](Self::validate) when you want the
    /// findings programmatically; `sanitized()` is the last line of
    /// defense before the policy runs.
    #[must_use]
    pub fn sanitized(self) -> Self {
        for d in self.validate() {
            eprintln!("mobicore: config {d}");
        }
        self.repaired()
    }

    /// The same repairs as [`sanitized`](Self::sanitized) without the
    /// stderr logging — for callers (like `mobicore-checker`) that report
    /// the [`validate`](Self::validate) findings through their own channel.
    #[must_use]
    pub fn repaired(mut self) -> Self {
        let finite = |v: f64, fallback: f64| if v.is_finite() { v } else { fallback };
        self.offline_threshold_pct = finite(self.offline_threshold_pct, 0.0).clamp(0.0, 100.0);
        self.low_load_threshold_pct = finite(self.low_load_threshold_pct, 0.0).clamp(0.0, 100.0);
        self.delta_up_pct = finite(self.delta_up_pct, 0.0).clamp(0.0, 100.0);
        self.delta_down_pct = finite(self.delta_down_pct, 0.0).clamp(0.0, 100.0);
        self.scaling_factor = finite(self.scaling_factor, 1.0).clamp(0.1, 1.0);
        self.quota_headroom = finite(self.quota_headroom, 0.0).clamp(0.0, 1.0);
        self.quota_min = finite(self.quota_min, 0.0).clamp(0.0, 1.0);
        self.quota_max = finite(self.quota_max, 1.0).clamp(0.0, 1.0);
        if self.quota_min > self.quota_max {
            std::mem::swap(&mut self.quota_min, &mut self.quota_max);
        }
        self.capacity_target = finite(self.capacity_target, 0.85).clamp(0.1, 1.0);
        self.freq_deadband = finite(self.freq_deadband, 0.0).clamp(0.0, 0.5);
        self.sampling_us = self.sampling_us.max(1_000);
        self
    }

    /// A configuration with the quota mechanism effectively disabled
    /// (always full bandwidth) — the "no-quota" ablation.
    #[must_use]
    pub fn without_quota(mut self) -> Self {
        self.low_load_threshold_pct = 0.0;
        self
    }

    /// A configuration with the DCS pass disabled (all cores stay online)
    /// — the "DVFS-only MobiCore" ablation.
    #[must_use]
    pub fn without_dcs(mut self) -> Self {
        self.offline_threshold_pct = -1.0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MobiCoreConfig::default();
        assert_eq!(c.offline_threshold_pct, 10.0);
        assert_eq!(c.low_load_threshold_pct, 40.0);
        assert_eq!(c.scaling_factor, 0.9);
        assert_eq!(c.rule, FrequencyRule::Eq9);
        assert!(c.validate().is_empty(), "defaults must be clean");
        assert!(c.is_valid());
    }

    #[test]
    fn sanitize_clamps() {
        let c = MobiCoreConfig {
            offline_threshold_pct: 150.0,
            scaling_factor: 5.0,
            sampling_us: 10,
            ..MobiCoreConfig::default()
        }
        .sanitized();
        assert_eq!(c.offline_threshold_pct, 100.0);
        assert_eq!(c.scaling_factor, 1.0);
        assert_eq!(c.sampling_us, 1_000);
    }

    #[test]
    fn ablation_builders() {
        let c = MobiCoreConfig::default().without_quota();
        assert_eq!(c.low_load_threshold_pct, 0.0);
        assert!(c.is_valid(), "ablations stay valid");
        let c = MobiCoreConfig::default().without_dcs();
        assert!(c.offline_threshold_pct < 0.0);
        assert!(c.is_valid(), "disabled DCS is a warning, not an error");
    }

    fn diag_for<'a>(diags: &'a [Diagnostic], field: &str) -> &'a Diagnostic {
        diags
            .iter()
            .find(|d| d.field == field)
            .unwrap_or_else(|| panic!("no diagnostic for `{field}` in {diags:?}"))
    }

    #[test]
    fn every_clamp_emits_a_diagnostic() {
        // One out-of-range value per field; each must surface in
        // validate() and be repaired by sanitized().
        let c = MobiCoreConfig {
            offline_threshold_pct: 150.0,
            low_load_threshold_pct: -3.0,
            delta_up_pct: -1.0,
            delta_down_pct: 200.0,
            scaling_factor: 5.0,
            quota_headroom: 2.0,
            quota_min: -0.5,
            quota_max: 1.5,
            capacity_target: 0.0,
            freq_deadband: 0.9,
            sampling_us: 10,
            ..MobiCoreConfig::default()
        };
        let diags = c.validate();
        for field in [
            "offline_threshold_pct",
            "low_load_threshold_pct",
            "delta_up_pct",
            "delta_down_pct",
            "scaling_factor",
            "quota_headroom",
            "quota_min",
            "quota_max",
            "capacity_target",
            "freq_deadband",
            "sampling_us",
        ] {
            let d = diag_for(&diags, field);
            assert!(!d.message.is_empty() && !d.fixit.is_empty(), "{d:?}");
        }
        let fixed = c.sanitized();
        assert!(fixed.validate().is_empty(), "sanitized() output is clean");
    }

    #[test]
    fn quota_bound_inversion_is_an_error() {
        let c = MobiCoreConfig {
            quota_min: 0.9,
            quota_max: 0.3,
            ..MobiCoreConfig::default()
        };
        assert!(!c.is_valid());
        let d = c
            .validate()
            .into_iter()
            .find(|d| d.severity == Severity::Error)
            .expect("inversion is an error");
        assert_eq!(d.field, "quota_min");
        assert!(d.message.contains("exceeds quota_max"), "{d}");
        let fixed = c.sanitized();
        assert!(fixed.quota_min <= fixed.quota_max);
        assert!(fixed.is_valid());
    }

    #[test]
    fn non_finite_values_are_errors_and_repaired() {
        let c = MobiCoreConfig {
            capacity_target: f64::NAN,
            quota_headroom: f64::INFINITY,
            ..MobiCoreConfig::default()
        };
        assert!(!c.is_valid());
        let fixed = c.sanitized();
        assert!(fixed.capacity_target.is_finite());
        assert!(fixed.quota_headroom.is_finite());
        assert!(fixed.validate().is_empty());
    }

    #[test]
    fn dcs_disable_is_warning_severity() {
        let diags = MobiCoreConfig::default().without_dcs().validate();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].field, "offline_threshold_pct");
        assert!(diags[0].message.contains("disables"), "{}", diags[0]);
    }

    #[test]
    fn diagnostic_display_is_pointed() {
        let c = MobiCoreConfig {
            quota_min: 0.9,
            quota_max: 0.3,
            ..MobiCoreConfig::default()
        };
        let text = c
            .validate()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("error: `quota_min`"), "{text}");
        assert!(text.contains("fix:"), "{text}");
    }
}
