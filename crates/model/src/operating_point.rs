//! Operating points and the minimum-power optimizer of paper §3.4 / §4.2.
//!
//! An *operating point* is a `(number of online cores, OPP)` pair. For a
//! demanded global load there is a whole family of feasible points — all
//! combinations whose aggregate capacity covers the demand — and the
//! thesis measures each of them (Figure 5) to find the minimum-power one.
//! Plotting the optimum against rising load produces the curve the author
//! describes as looking "like the scar on Harry Potter's face": frequency
//! rises with one core until two slower cores can carry the same load,
//! drops, rises again, and so on.

use crate::error::ModelError;
use crate::profile::DeviceProfile;
use crate::units::Khz;
use std::fmt;

/// A `(cores, OPP)` combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingPoint {
    /// Number of online cores, `1..=n_cores`.
    pub cores: usize,
    /// Index into the device's OPP table.
    pub opp_idx: usize,
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} core(s) @ opp[{}]", self.cores, self.opp_idx)
    }
}

/// A feasible point annotated with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedPoint {
    /// The combination.
    pub point: OperatingPoint,
    /// The frequency at `point.opp_idx`.
    pub khz: Khz,
    /// Per-core utilization once the demand is spread over the point
    /// (`demand / capacity`), in `[0, 1]`.
    pub per_core_util: f64,
    /// Predicted device power at this point, mW.
    pub power_mw: f64,
}

/// Enumerates feasible operating points and picks the minimum-power one.
///
/// The default cost function is the device profile's calibrated power
/// model evaluated at the utilization each point implies; a policy that
/// must not peek at ground truth can substitute its own analytic model
/// with [`OperatingPointOptimizer::with_cost`].
pub struct OperatingPointOptimizer<'a> {
    profile: &'a DeviceProfile,
    cost: Box<dyn Fn(usize, usize, f64) -> f64 + 'a>,
}

impl fmt::Debug for OperatingPointOptimizer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperatingPointOptimizer")
            .field("profile", &self.profile.name())
            .finish_non_exhaustive()
    }
}

impl<'a> OperatingPointOptimizer<'a> {
    /// An optimizer costing points with the profile's own power model.
    pub fn new(profile: &'a DeviceProfile) -> Self {
        OperatingPointOptimizer {
            profile,
            cost: Box::new(move |n, opp_idx, util| profile.uniform_power_mw(n, opp_idx, util)),
        }
    }

    /// Replaces the cost function. Arguments are `(cores, opp_idx,
    /// per_core_util)`; the return value is minimized.
    #[must_use]
    pub fn with_cost(mut self, cost: impl Fn(usize, usize, f64) -> f64 + 'a) -> Self {
        self.cost = Box::new(cost);
        self
    }

    /// The demand in cycles/s implied by a global load fraction: `K ·
    /// n_max · f_max` (§3.4: "a 100 % global CPU load needs all the cores
    /// active at their highest frequency").
    pub fn demand_hz(&self, global_load: f64) -> f64 {
        global_load.max(0.0) * self.profile.max_capacity_hz()
    }

    /// All feasible `(cores, OPP)` combinations for a global load, each
    /// evaluated with the cost function. Points are ordered by core count
    /// then frequency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleLoad`] if the load exceeds the
    /// full-platform capacity (global load > 1).
    pub fn feasible_points(&self, global_load: f64) -> Result<Vec<EvaluatedPoint>, ModelError> {
        if global_load > 1.0 + 1e-9 {
            return Err(ModelError::InfeasibleLoad {
                demanded: global_load,
            });
        }
        let demand = self.demand_hz(global_load);
        let opps = self.profile.opps();
        let mut out = Vec::new();
        for n in 1..=self.profile.n_cores() {
            for opp_idx in 0..opps.len() {
                let cap = self.profile.capacity_hz(n, opp_idx);
                if cap + 1e-9 < demand {
                    continue;
                }
                let util = if cap > 0.0 {
                    (demand / cap).min(1.0)
                } else {
                    0.0
                };
                out.push(EvaluatedPoint {
                    point: OperatingPoint { cores: n, opp_idx },
                    khz: opps.get_clamped(opp_idx).khz,
                    per_core_util: util,
                    power_mw: (self.cost)(n, opp_idx, util),
                });
            }
        }
        Ok(out)
    }

    /// The minimum-power feasible point for a global load.
    ///
    /// Ties (within 1e-9 mW) break toward fewer cores, then lower
    /// frequency — fewer online cores means less leakage surface
    /// (§4.1.2).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InfeasibleLoad`] if the load exceeds full
    /// platform capacity.
    pub fn best_for_global_load(&self, global_load: f64) -> Result<OperatingPoint, ModelError> {
        let pts = self.feasible_points(global_load)?;
        let mut best: Option<&EvaluatedPoint> = None;
        for p in &pts {
            match best {
                None => best = Some(p),
                Some(b) => {
                    if p.power_mw + 1e-9 < b.power_mw {
                        best = Some(p);
                    }
                }
            }
        }
        best.map(|p| p.point).ok_or(ModelError::InfeasibleLoad {
            demanded: global_load,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn full_load_needs_everything() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let pts = opt.feasible_points(1.0).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(
            pts[0].point,
            OperatingPoint {
                cores: 4,
                opp_idx: p.opps().max_index()
            }
        );
        assert!((pts[0].per_core_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_load_is_an_error() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        assert!(matches!(
            opt.best_for_global_load(1.2),
            Err(ModelError::InfeasibleLoad { .. })
        ));
    }

    #[test]
    fn zero_load_prefers_one_slow_core() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let best = opt.best_for_global_load(0.0).unwrap();
        assert_eq!(best.cores, 1);
        assert_eq!(best.opp_idx, 0);
    }

    #[test]
    fn feasible_set_shrinks_with_load() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let low = opt.feasible_points(0.1).unwrap().len();
        let mid = opt.feasible_points(0.5).unwrap().len();
        let high = opt.feasible_points(0.9).unwrap().len();
        assert!(low > mid && mid > high, "{low} > {mid} > {high}");
    }

    #[test]
    fn every_feasible_point_covers_demand() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        for load in [0.1, 0.3, 0.5, 0.7] {
            let demand = opt.demand_hz(load);
            for pt in opt.feasible_points(load).unwrap() {
                let cap = p.capacity_hz(pt.point.cores, pt.point.opp_idx);
                assert!(cap + 1e-6 >= demand, "{pt:?} does not cover {load}");
                assert!(pt.per_core_util <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn scar_curve_is_monotone_in_capacity() {
        // As load rises the optimal capacity never decreases (the §4.2
        // "scar curve": the optimum, load by load).
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let mut prev_cap = 0.0;
        for load in (1..=20).map(|i| f64::from(i) * 0.05) {
            let pt = opt.best_for_global_load(load).unwrap();
            let cap = p.capacity_hz(pt.cores, pt.opp_idx);
            assert!(
                cap + 1e-6 >= prev_cap,
                "capacity dropped at load {load}: {pt}"
            );
            prev_cap = cap;
        }
    }

    #[test]
    fn scar_curve_adds_cores_as_load_rises() {
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let low = opt.best_for_global_load(0.05).unwrap();
        let high = opt.best_for_global_load(0.95).unwrap();
        assert!(low.cores < high.cores);
        assert_eq!(high.cores, 4);
    }

    #[test]
    fn custom_cost_is_respected() {
        // A cost that always prefers more cores flips the low-load choice.
        let p = profiles::nexus5();
        let opt =
            OperatingPointOptimizer::new(&p).with_cost(|n, opp, _| -((n * 1000 + opp) as f64));
        let best = opt.best_for_global_load(0.1).unwrap();
        assert_eq!(best.cores, 4);
        assert_eq!(best.opp_idx, p.opps().max_index());
    }

    #[test]
    fn optimum_beats_naive_all_cores_max_freq_at_low_load() {
        // §3.4: carefully chosen operating points beat giving the whole
        // resource blindly.
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let best = opt.best_for_global_load(0.1).unwrap();
        let naive = p.uniform_power_mw(4, p.opps().max_index(), 0.1);
        let chosen = p.uniform_power_mw(
            best.cores,
            best.opp_idx,
            opt.demand_hz(0.1) / p.capacity_hz(best.cores, best.opp_idx),
        );
        assert!(chosen < naive);
    }

    #[test]
    fn very_low_load_consolidates_to_one_core() {
        // At very low load the leakage of extra online cores dominates and
        // a single slow core wins (§3.4: "using only one core ... is more
        // efficient" when the load is low enough).
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let best = opt.best_for_global_load(0.02).unwrap();
        assert_eq!(best.cores, 1, "got {best}");
    }

    #[test]
    fn mid_load_uses_more_than_minimal_cores() {
        // §3.4: "a minimal energy point is often achieved when more than
        // the minimal number of cores is active. That allows the frequency
        // of cores to be further reduced."
        let p = profiles::nexus5();
        let opt = OperatingPointOptimizer::new(&p);
        let best = opt.best_for_global_load(0.5).unwrap();
        // 50% load needs ≥ 2 cores; the optimum should use more than the
        // bare minimum.
        assert!(best.cores > 2, "got {best}");
    }

    #[test]
    fn display_formats() {
        let pt = OperatingPoint {
            cores: 2,
            opp_idx: 5,
        };
        assert_eq!(pt.to_string(), "2 core(s) @ opp[5]");
    }
}
