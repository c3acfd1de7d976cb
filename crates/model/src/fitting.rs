//! Fit a device power model to Monsoon-style measurements.
//!
//! The thesis calibrates its understanding of the Nexus 5 by sweeping
//! (cores × frequency × utilization) configurations and reading the
//! power meter (§3). Anyone porting MobiCore to another phone repeats
//! that exercise; this module automates the curve-fitting step: given the
//! sweep samples, recover the four linear coefficients of the
//! [`DeviceProfile`] power model —
//!
//! ```text
//! P(n, f, u) = base
//!            + cluster_max · (f/f_max)^exp · (floor + (1-floor)·min(1, n·u))
//!            + G(n) · (idle_scale · idle_f + u · busy_scale · busy_f)
//! ```
//!
//! where `G(n)` is the cumulative marginal-core factor and
//! `idle_f`/`busy_f` are the per-OPP table columns. With the shape
//! parameters (`exp`, `floor`, marginals) held fixed, the model is linear
//! in `(base, cluster_max, idle_scale, busy_scale)` and ordinary least
//! squares recovers them exactly.

use crate::error::ModelError;
use crate::opp::OppTable;
use crate::profile::{DeviceProfile, DeviceProfileBuilder};

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Online cores during the measurement.
    pub cores: usize,
    /// OPP index all cores were pinned at.
    pub opp_idx: usize,
    /// Per-core utilization during the measurement, `[0, 1]`.
    pub utilization: f64,
    /// The meter reading, mW.
    pub measured_mw: f64,
}

/// The fixed shape parameters the linear fit is conditioned on.
#[derive(Debug, Clone, PartialEq)]
pub struct FitShape {
    /// Cluster power exponent.
    pub cluster_exp: f64,
    /// Cluster activity floor.
    pub cluster_floor: f64,
    /// Marginal per-core factors (first entry 1.0).
    pub core_marginal: Vec<f64>,
}

impl Default for FitShape {
    fn default() -> Self {
        FitShape {
            cluster_exp: 1.8,
            cluster_floor: 0.75,
            core_marginal: vec![1.0, 0.75, 0.65, 0.58],
        }
    }
}

impl FitShape {
    fn g(&self, n: usize) -> f64 {
        (0..n)
            .map(|k| {
                *self
                    .core_marginal
                    .get(k.min(self.core_marginal.len() - 1))
                    .expect("non-empty by construction")
            })
            .sum()
    }
}

/// The recovered coefficients plus the fit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// Always-on platform floor, mW.
    pub base_mw: f64,
    /// Cluster power at the top OPP with full activity, mW.
    pub cluster_max_mw: f64,
    /// Multiplier on the table's per-OPP idle power.
    pub idle_scale: f64,
    /// Multiplier on the table's per-OPP busy-extra power.
    pub busy_scale: f64,
    /// Root-mean-square residual over the samples, mW.
    pub rmse_mw: f64,
}

impl FitResult {
    /// Builds a [`DeviceProfile`] from the fit (scaling the table columns
    /// by the recovered multipliers).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from profile construction.
    pub fn into_profile(
        self,
        name: &str,
        n_cores: usize,
        opps: &OppTable,
        shape: &FitShape,
    ) -> Result<DeviceProfile, ModelError> {
        let scaled: Vec<crate::opp::Opp> = opps
            .iter()
            .map(|o| crate::opp::Opp {
                khz: o.khz,
                mv: o.mv,
                idle_mw: o.idle_mw * self.idle_scale,
                busy_extra_mw: o.busy_extra_mw * self.busy_scale,
            })
            .collect();
        let builder: DeviceProfileBuilder = DeviceProfile::builder(name, n_cores)
            .opps(OppTable::new(scaled)?)
            .platform_base_mw(self.base_mw.max(0.0))
            .cluster_max_mw(self.cluster_max_mw.max(0.0))
            .cluster_floor(shape.cluster_floor)
            .cluster_exp(shape.cluster_exp)
            .core_marginal(shape.core_marginal.clone());
        builder.build()
    }
}

fn design_row(opps: &OppTable, shape: &FitShape, s: &PowerSample) -> [f64; 4] {
    let opp = opps.get_clamped(s.opp_idx);
    let f_frac = opp.khz.as_hz() / opps.max_khz().as_hz();
    let cluster_util = (s.cores as f64 * s.utilization).min(1.0);
    let cluster_shape = f_frac.powf(shape.cluster_exp)
        * (shape.cluster_floor + (1.0 - shape.cluster_floor) * cluster_util);
    let g = shape.g(s.cores);
    [
        1.0,
        cluster_shape,
        g * opp.idle_mw,
        g * s.utilization.clamp(0.0, 1.0) * opp.busy_extra_mw,
    ]
}

/// Solves the 4×4 normal equations by Gaussian elimination with partial
/// pivoting. Returns `None` when the system is singular (degenerate
/// sweep).
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        let pivot = (col..4).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite")
        })?;
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in 0..4 {
            if row == col {
                continue;
            }
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (k, cell) in a[row].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row[k];
            }
            b[row] -= factor * b[col];
        }
    }
    Some([
        b[0] / a[0][0],
        b[1] / a[1][1],
        b[2] / a[2][2],
        b[3] / a[3][3],
    ])
}

/// Errors of the least-squares fit.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Fewer than four sweep samples were provided.
    TooFewSamples {
        /// How many arrived.
        got: usize,
    },
    /// The sweep does not vary enough directions (collinear design
    /// matrix) — vary cores, frequency AND utilization.
    DegenerateSweep,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples { got } => {
                write!(f, "need at least 4 sweep samples, got {got}")
            }
            FitError::DegenerateSweep => {
                write!(f, "degenerate sweep: vary cores, frequency and utilization")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Fits the linear coefficients to the sweep.
///
/// # Errors
///
/// [`FitError::TooFewSamples`] below four samples;
/// [`FitError::DegenerateSweep`] when the sweep configurations are
/// collinear (e.g. every sample at the same operating point).
pub fn fit(
    opps: &OppTable,
    shape: &FitShape,
    samples: &[PowerSample],
) -> Result<FitResult, FitError> {
    if samples.len() < 4 {
        return Err(FitError::TooFewSamples { got: samples.len() });
    }
    // Normal equations: (XᵀX) β = Xᵀy.
    let mut xtx = [[0.0f64; 4]; 4];
    let mut xty = [0.0f64; 4];
    for s in samples {
        let row = design_row(opps, shape, s);
        for i in 0..4 {
            for j in 0..4 {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * s.measured_mw;
        }
    }
    let beta = solve4(xtx, xty).ok_or(FitError::DegenerateSweep)?;
    let mut sse = 0.0;
    for s in samples {
        let row = design_row(opps, shape, s);
        let pred: f64 = row.iter().zip(&beta).map(|(r, b)| r * b).sum();
        sse += (pred - s.measured_mw).powi(2);
    }
    Ok(FitResult {
        base_mw: beta[0],
        cluster_max_mw: beta[1],
        idle_scale: beta[2],
        busy_scale: beta[3],
        rmse_mw: (sse / samples.len() as f64).sqrt(),
    })
}

/// Generates the full sweep grid the thesis measures (every core count ×
/// the five benchmark frequencies × a utilization ladder), sampling
/// `measure` for each point — handy for tests and for driving the
/// simulator as a stand-in meter.
pub fn sweep_grid(
    opps: &OppTable,
    n_cores: usize,
    utils: &[f64],
    mut measure: impl FnMut(usize, usize, f64) -> f64,
) -> Vec<PowerSample> {
    let mut out = Vec::new();
    let five = opps.benchmark_five();
    for n in 1..=n_cores {
        for f in &five {
            let opp_idx = opps.ceil_index(*f);
            for &u in utils {
                out.push(PowerSample {
                    cores: n,
                    opp_idx,
                    utilization: u,
                    measured_mw: measure(n, opp_idx, u),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn nexus5_sweep() -> (OppTable, Vec<PowerSample>) {
        let p = profiles::nexus5();
        let opps = p.opps().clone();
        let samples = sweep_grid(&opps, 4, &[0.1, 0.4, 0.7, 1.0], |n, opp, u| {
            p.uniform_power_mw(n, opp, u)
        });
        (opps, samples)
    }

    #[test]
    fn recovers_the_generating_model_exactly() {
        let (opps, samples) = nexus5_sweep();
        let fitres = fit(&opps, &FitShape::default(), &samples).expect("well-posed");
        assert!((fitres.base_mw - 150.0).abs() < 1.0, "{fitres:?}");
        assert!((fitres.cluster_max_mw - 600.0).abs() < 5.0, "{fitres:?}");
        assert!((fitres.idle_scale - 1.0).abs() < 0.02, "{fitres:?}");
        assert!((fitres.busy_scale - 1.0).abs() < 0.02, "{fitres:?}");
        assert!(fitres.rmse_mw < 1.0, "{fitres:?}");
    }

    #[test]
    fn fitted_profile_predicts_like_the_original() {
        let (opps, samples) = nexus5_sweep();
        let shape = FitShape::default();
        let fitted = fit(&opps, &shape, &samples)
            .expect("well-posed")
            .into_profile("refit", 4, &opps, &shape)
            .expect("valid profile");
        let original = profiles::nexus5();
        for &(n, opp, u) in &[
            (1usize, 13usize, 1.0f64),
            (2, 5, 0.5),
            (4, 0, 0.2),
            (3, 9, 0.8),
        ] {
            let a = original.uniform_power_mw(n, opp, u);
            let b = fitted.uniform_power_mw(n, opp, u);
            assert!((a - b).abs() / a < 0.02, "({n},{opp},{u}): {a} vs {b}");
        }
    }

    #[test]
    fn tolerates_measurement_noise() {
        let (opps, mut samples) = nexus5_sweep();
        // ±2 % deterministic "noise"
        for (i, s) in samples.iter_mut().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            s.measured_mw *= 1.0 + sign * 0.02;
        }
        let fitres = fit(&opps, &FitShape::default(), &samples).expect("well-posed");
        assert!((fitres.base_mw - 150.0).abs() < 30.0);
        assert!((fitres.idle_scale - 1.0).abs() < 0.15);
        assert!(fitres.rmse_mw < 40.0);
    }

    #[test]
    fn rejects_tiny_sweeps() {
        let (opps, samples) = nexus5_sweep();
        let err = fit(&opps, &FitShape::default(), &samples[..3]).unwrap_err();
        assert_eq!(err, FitError::TooFewSamples { got: 3 });
        assert!(err.to_string().contains("at least 4"));
    }

    #[test]
    fn rejects_degenerate_sweeps() {
        let (opps, samples) = nexus5_sweep();
        // All samples identical: collinear design matrix.
        let degenerate = vec![samples[0]; 10];
        let err = fit(&opps, &FitShape::default(), &degenerate).unwrap_err();
        assert_eq!(err, FitError::DegenerateSweep);
    }

    #[test]
    fn sweep_grid_covers_the_space() {
        let (_, samples) = nexus5_sweep();
        // 4 cores × 5 freqs × 4 utils
        assert_eq!(samples.len(), 80);
        assert!(samples.iter().any(|s| s.cores == 1));
        assert!(samples.iter().any(|s| s.cores == 4));
        assert!(samples.iter().any(|s| s.opp_idx == 0));
        assert!(samples.iter().any(|s| s.opp_idx == 13));
    }
}
