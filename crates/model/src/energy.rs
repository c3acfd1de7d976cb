//! The CPU energy model of paper §4.1, Eqs. (1)–(7), and MobiCore's
//! frequency re-evaluation, Eqs. (9)–(10).
//!
//! This is the *policy-side* model: deliberately simple (the thesis sets
//! the IPC-dependence of `C_eff` to a constant, §4.2), used by MobiCore to
//! predict which (cores × frequency) combination minimizes power. The
//! richer calibrated model the simulated hardware obeys lives in
//! [`crate::profile`]; keeping the two separate mirrors reality, where a
//! governor's internal model never matches the silicon exactly.
//!
//! ```text
//! (1) P_d     = C_eff · V² · f · u          dynamic (busy) power
//! (2) P_s     = V · I_leak                  static (idle) power
//! (3) P_cpu   = P_d + P_s                   one core
//! (4) P_total = n · P_cpu + P_cache         n cores + uncore
//! (5)–(7) E   = ∫ P dt = P · T              energy over a period
//! (9) f_new   = f_ondemand · (K·q) · n_max / n
//! (10) P_core(f_new) — Eq. (3) evaluated at the re-computed frequency
//! ```
//!
//! Eq. (9) reconstruction note: the thesis text lists the variables of
//! Eq. (9) (`K`, `n`, `n_max`, `f_new`, `f_ondemand`) but the equation body
//! is lost in the available source. The form above satisfies every
//! constraint the prose states — proportional to the quota-scaled overall
//! utilization, inversely proportional to the online-core count, and equal
//! to the ondemand choice at `K = 1, n = n_max`. See DESIGN.md §2.

use crate::opp::OppTable;
use crate::quota::Quota;
use crate::units::{Khz, MilliVolts, Utilization};

/// Dynamic power of one busy core, Eq. (1): `C_eff · V² · f · u`, in mW.
///
/// `ceff_f` is the effective switched capacitance in farads, `v` the rail
/// voltage, `f` the clock, `u` the busy fraction.
///
/// ```
/// use mobicore_model::energy::dynamic_power_mw;
/// use mobicore_model::{Khz, MilliVolts, Utilization};
/// let p = dynamic_power_mw(2.0e-10, MilliVolts(1200), Khz(2_265_600), Utilization::FULL);
/// assert!((p - 652.5).abs() < 1.0); // ≈ 652 mW, Krait-400 class
/// ```
pub fn dynamic_power_mw(ceff_f: f64, v: MilliVolts, f: Khz, u: Utilization) -> f64 {
    ceff_f * v.as_volts().powi(2) * f.as_hz() * u.as_fraction() * 1_000.0
}

/// Static power of one online core, Eq. (2): `V · I_leak`, in mW, with
/// the leakage current in milliamps.
pub fn static_power_mw(v: MilliVolts, ileak_ma: f64) -> f64 {
    v.as_volts() * ileak_ma
}

/// Energy in millijoules of a constant power draw over a duration,
/// Eqs. (5)–(7): `E = P · T`.
pub fn energy_mj(power_mw: f64, duration_us: u64) -> f64 {
    power_mw * (duration_us as f64 / 1_000_000.0)
}

/// The fitted analytic model MobiCore reasons with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuEnergyModel {
    /// Effective switched capacitance, farads (Eq. (1); the thesis fixes
    /// its IPC dependence to a constant, §4.2).
    pub ceff_f: f64,
    /// Leakage current model `I_leak = i0 + i1 · V` in mA with V in volts
    /// (Eq. (2)).
    pub ileak_ma_intercept: f64,
    /// Voltage slope of the leakage current, mA/V.
    pub ileak_ma_per_v: f64,
    /// Uncore/cache power at the top OPP, mW (Eq. (4) `P_cache`).
    pub cache_max_mw: f64,
    /// Exponent of the cache-power-vs-frequency curve.
    pub cache_exp: f64,
    /// Voltage at the lowest OPP.
    pub v_min: MilliVolts,
    /// Voltage at the highest OPP.
    pub v_max: MilliVolts,
    /// Lowest OPP frequency.
    pub f_min: Khz,
    /// Highest OPP frequency.
    pub f_max: Khz,
}

impl CpuEnergyModel {
    /// Fits the analytic model to an OPP table: voltage endpoints come
    /// straight from the table, and the leakage line is the least-squares
    /// fit through the table's `(V, idle_mw / V)` points.
    pub fn fit(opps: &OppTable, ceff_f: f64, cache_max_mw: f64) -> Self {
        // Least-squares fit of I_leak(V) = i0 + i1·V through the table.
        let pts: Vec<(f64, f64)> = opps
            .iter()
            .map(|o| (o.mv.as_volts(), o.idle_mw / o.mv.as_volts()))
            .collect();
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        let (i1, i0) = if denom.abs() < 1e-12 {
            (0.0, sy / n)
        } else {
            let slope = (n * sxy - sx * sy) / denom;
            (slope, (sy - slope * sx) / n)
        };
        CpuEnergyModel {
            ceff_f,
            ileak_ma_intercept: i0,
            ileak_ma_per_v: i1,
            cache_max_mw,
            cache_exp: 1.8,
            v_min: opps.get(0).expect("non-empty").mv,
            v_max: opps.get(opps.max_index()).expect("non-empty").mv,
            f_min: opps.min_khz(),
            f_max: opps.max_khz(),
        }
    }

    /// The voltage the model assumes for a frequency (linear V–f relation,
    /// the standard DVFS assumption of §2.2.1).
    pub fn voltage_for(&self, f: Khz) -> MilliVolts {
        let f0 = self.f_min.as_hz();
        let f1 = self.f_max.as_hz();
        let t = ((f.as_hz() - f0) / (f1 - f0)).clamp(0.0, 1.0);
        let mv = f64::from(self.v_min.0) + (f64::from(self.v_max.0) - f64::from(self.v_min.0)) * t;
        MilliVolts::from_f64(mv.round())
    }

    /// Leakage current at voltage `v`, mA.
    pub fn ileak_ma(&self, v: MilliVolts) -> f64 {
        (self.ileak_ma_intercept + self.ileak_ma_per_v * v.as_volts()).max(0.0)
    }

    /// Eq. (3): power of one online core at frequency `f`, utilization `u`.
    pub fn core_power_mw(&self, f: Khz, u: Utilization) -> f64 {
        let v = self.voltage_for(f);
        dynamic_power_mw(self.ceff_f, v, f, u) + static_power_mw(v, self.ileak_ma(v))
    }

    /// Eq. (4): total power of `n` identical online cores plus cache.
    pub fn total_power_mw(&self, n: usize, f: Khz, u: Utilization) -> f64 {
        let p = n as f64 * self.core_power_mw(f, u) + self.cache_power_mw(f);
        debug_assert!(p.is_finite() && p >= 0.0, "non-physical power {p} mW");
        p
    }

    /// The `P_cache` term of Eq. (4) (frequency-dependent, core-count
    /// independent).
    pub fn cache_power_mw(&self, f: Khz) -> f64 {
        let frac = (f.as_hz() / self.f_max.as_hz()).clamp(0.0, 1.0);
        self.cache_max_mw * frac.powf(self.cache_exp)
    }

    /// Eq. (7): energy of `n` cores under global DVFS over `duration_us`.
    pub fn energy_mj(&self, n: usize, f: Khz, u: Utilization, duration_us: u64) -> f64 {
        energy_mj(self.total_power_mw(n, f, u), duration_us)
    }

    /// Eq. (10): the per-core power MobiCore predicts after re-evaluating
    /// the frequency with Eq. (9).
    pub fn mobicore_core_power_mw(
        &self,
        f_ondemand: Khz,
        overall_util: Utilization,
        quota: Quota,
        n: usize,
        n_max: usize,
    ) -> f64 {
        let f_new = mobicore_frequency(f_ondemand, overall_util, quota, n, n_max);
        let f_new = Khz((f_new.0).clamp(self.f_min.0, self.f_max.0));
        // At the re-evaluated frequency the core runs at the utilization
        // implied by spreading K·q over n cores' worth of the new capacity;
        // the thesis evaluates Eq. (10) at full busy, which is the
        // conservative bound we keep.
        self.core_power_mw(f_new, Utilization::FULL)
    }
}

/// Eq. (9): MobiCore's frequency re-evaluation.
///
/// `f_new = f_ondemand · (K·q) · n_max / n` where `K` is the overall
/// utilization of the phone (busy time summed over all cores, normalized
/// by `n_max`), `q` the bandwidth quota of Table 2, `n` the online-core
/// count chosen by the DCS pass, and `n_max` the physical core count.
///
/// `K · n_max / n` is exactly the average per-core utilization of the
/// online cores, so the product asks for the *just-needed* frequency
/// instead of ondemand's burst-to-max choice (§2.2.1). The result is not
/// snapped to an OPP — callers round with [`OppTable::snap_up`] so
/// delivered capacity never falls below the demand.
///
/// ```
/// use mobicore_model::energy::mobicore_frequency;
/// use mobicore_model::{Khz, Quota, Utilization};
/// let f = mobicore_frequency(
///     Khz(2_265_600),
///     Utilization::from_percent(50.0),
///     Quota::FULL,
///     4,
///     4,
/// );
/// assert_eq!(f, Khz(1_132_800)); // half the ondemand pick
/// ```
pub fn mobicore_frequency(
    f_ondemand: Khz,
    overall_util: Utilization,
    quota: Quota,
    n: usize,
    n_max: usize,
) -> Khz {
    assert!(n >= 1 && n_max >= 1, "core counts must be positive");
    let per_core = (overall_util.as_fraction() * quota.as_fraction() * n_max as f64 / n as f64)
        .clamp(0.0, 1.0);
    let f_new = Khz::from_f64((f64::from(f_ondemand.0) * per_core).round());
    // per_core ≤ 1, so the re-evaluation can only lower the ondemand pick.
    debug_assert!(f_new <= f_ondemand, "Eq. (9) must not exceed f_ondemand");
    f_new
}

/// Deliverable compute capacity of an operating point, in kHz-equivalents
/// (cycles per second, on the same scale as a `Σ util·cur_khz` demand sum
/// over online cores).
///
/// The frequency bounds what each online core can execute; the CFS
/// bandwidth quota bounds the **global** runtime pool at `q · n_total`
/// core-seconds per second (the pool does not shrink when cores go
/// offline — see the bandwidth controller's docs), so the delivered
/// capacity is `f · min(n_online, q · n_total)`.
///
/// ```
/// use mobicore_model::energy::effective_capacity_khz;
/// use mobicore_model::{Khz, Quota};
/// // 2 cores at 1 GHz, quota 1.0 of a 4-core pool: frequency-bound.
/// assert_eq!(effective_capacity_khz(Khz(1_000_000), 2, Quota::FULL, 4), 2_000_000.0);
/// // 4 cores at 1 GHz, quota 0.25: runtime-pool-bound at 1 core's worth.
/// assert_eq!(effective_capacity_khz(Khz(1_000_000), 4, Quota::new(0.25), 4), 1_000_000.0);
/// ```
pub fn effective_capacity_khz(f: Khz, n_online: usize, quota: Quota, n_total: usize) -> f64 {
    let pool_cores = (quota.as_fraction() * n_total as f64).min(n_online as f64);
    f64::from(f.0) * pool_cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn model() -> CpuEnergyModel {
        let p = profiles::nexus5();
        CpuEnergyModel::fit(p.opps(), profiles::NEXUS5_CEFF_F, 450.0)
    }

    #[test]
    fn dynamic_power_scales_with_v_squared() {
        let f = Khz(1_000_000);
        let p1 = dynamic_power_mw(1e-10, MilliVolts(900), f, Utilization::FULL);
        let p2 = dynamic_power_mw(1e-10, MilliVolts(1800), f, Utilization::FULL);
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_linear_in_frequency_and_util() {
        let v = MilliVolts(1_000);
        let base = dynamic_power_mw(1e-10, v, Khz(500_000), Utilization::FULL);
        let double = dynamic_power_mw(1e-10, v, Khz(1_000_000), Utilization::FULL);
        assert!((double / base - 2.0).abs() < 1e-9);
        let half_util = dynamic_power_mw(1e-10, v, Khz(1_000_000), Utilization::new(0.5));
        assert!((double / half_util - 2.0).abs() < 1e-9);
    }

    #[test]
    fn static_power_matches_eq2() {
        assert_eq!(static_power_mw(MilliVolts(1_000), 100.0), 100.0);
        assert_eq!(static_power_mw(MilliVolts(1_200), 100.0), 120.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        // 1000 mW for 1 s = 1000 mJ.
        assert_eq!(energy_mj(1_000.0, 1_000_000), 1_000.0);
        assert_eq!(energy_mj(500.0, 2_000_000), 1_000.0);
    }

    #[test]
    fn fitted_model_reproduces_static_anchors() {
        // The fit should land near the measured 47 mW (f_min) and 120 mW
        // (f_max) per-core static powers of §4.1.2.
        let m = model();
        let lo = static_power_mw(m.v_min, m.ileak_ma(m.v_min));
        let hi = static_power_mw(m.v_max, m.ileak_ma(m.v_max));
        assert!((lo - 47.0).abs() < 8.0, "fit at f_min: {lo}");
        assert!((hi - 120.0).abs() < 8.0, "fit at f_max: {hi}");
    }

    #[test]
    fn voltage_interpolation_hits_endpoints() {
        let m = model();
        assert_eq!(m.voltage_for(m.f_min), m.v_min);
        assert_eq!(m.voltage_for(m.f_max), m.v_max);
        let mid = m.voltage_for(Khz((m.f_min.0 + m.f_max.0) / 2));
        assert!(mid > m.v_min && mid < m.v_max);
        // Clamps outside the table.
        assert_eq!(m.voltage_for(Khz(1)), m.v_min);
        assert_eq!(m.voltage_for(Khz(9_999_999)), m.v_max);
    }

    #[test]
    fn total_power_is_superlinear_in_frequency() {
        // V rises with f, so P ∝ V²f grows faster than f: the core of the
        // DVFS argument.
        let m = model();
        let p_half = m.total_power_mw(1, Khz(1_132_800), Utilization::FULL);
        let p_full = m.total_power_mw(1, m.f_max, Utilization::FULL);
        assert!(p_full > 2.0 * (p_half - m.cache_power_mw(Khz(1_132_800))) * 0.9);
        assert!(p_full / p_half > 2.0, "superlinear: {}", p_full / p_half);
    }

    #[test]
    fn cache_power_independent_of_core_count() {
        let m = model();
        let p1 = m.total_power_mw(1, m.f_max, Utilization::IDLE);
        let p4 = m.total_power_mw(4, m.f_max, Utilization::IDLE);
        let per_core = m.core_power_mw(m.f_max, Utilization::IDLE);
        assert!((p4 - p1 - 3.0 * per_core).abs() < 1e-9);
    }

    #[test]
    fn eq9_identity_at_full_load_all_cores() {
        let f = mobicore_frequency(Khz(1_728_000), Utilization::FULL, Quota::FULL, 4, 4);
        assert_eq!(f, Khz(1_728_000));
    }

    #[test]
    fn eq9_scales_down_with_utilization() {
        let f = mobicore_frequency(Khz(2_000_000), Utilization::new(0.25), Quota::FULL, 4, 4);
        assert_eq!(f, Khz(500_000));
    }

    #[test]
    fn eq9_scales_up_when_cores_offlined() {
        // Same overall demand on fewer cores needs a faster clock.
        let k = Utilization::new(0.4);
        let f4 = mobicore_frequency(Khz(1_000_000), k, Quota::FULL, 4, 4);
        let f2 = mobicore_frequency(Khz(1_000_000), k, Quota::FULL, 2, 4);
        assert_eq!(f4, Khz(400_000));
        assert_eq!(f2, Khz(800_000));
    }

    #[test]
    fn eq9_never_exceeds_ondemand_choice() {
        // per-core utilization clamps at 1, so f_new ≤ f_ondemand.
        let f = mobicore_frequency(Khz(1_000_000), Utilization::FULL, Quota::FULL, 1, 4);
        assert_eq!(f, Khz(1_000_000));
    }

    #[test]
    fn eq9_quota_shrinks_frequency() {
        let k = Utilization::new(0.3);
        let full = mobicore_frequency(Khz(1_000_000), k, Quota::FULL, 4, 4);
        let cut = mobicore_frequency(Khz(1_000_000), k, Quota::new(0.9), 4, 4);
        assert_eq!(full, Khz(300_000));
        assert_eq!(cut, Khz(270_000));
    }

    #[test]
    #[should_panic(expected = "core counts must be positive")]
    fn eq9_rejects_zero_cores() {
        mobicore_frequency(Khz(1_000_000), Utilization::FULL, Quota::FULL, 0, 4);
    }

    #[test]
    fn eq10_power_drops_with_load() {
        let m = model();
        let heavy = m.mobicore_core_power_mw(m.f_max, Utilization::FULL, Quota::FULL, 4, 4);
        let light = m.mobicore_core_power_mw(m.f_max, Utilization::new(0.3), Quota::FULL, 4, 4);
        assert!(light < heavy);
    }

    #[test]
    fn eq7_energy_matches_total_power() {
        let m = model();
        let p = m.total_power_mw(2, Khz(960_000), Utilization::new(0.7));
        assert!(
            (m.energy_mj(2, Khz(960_000), Utilization::new(0.7), 500_000) - p * 0.5).abs() < 1e-9
        );
    }
}
