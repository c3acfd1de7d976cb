//! The CPU bandwidth quota of paper §4.1.1 / Table 2.
//!
//! The Linux architecture exposes a global CPU bandwidth value (the CFS
//! bandwidth controller's `cpu.cfs_quota_us` relative to
//! `cpu.cfs_period_us`); MobiCore shrinks it by a small scaling factor in
//! "slow mode" and restores it in "burst mode". A [`Quota`] is that value
//! as a fraction of the full bandwidth.

use crate::units::quantize_u64;
use std::fmt;

/// A global CPU bandwidth quota as a fraction of full bandwidth.
///
/// Clamped to `[Quota::MIN_FRACTION, 1.0]`; the floor keeps a pathological
/// controller from starving the system outright (the paper only ever
/// multiplies by 0.9 per period, but repeated application must bottom out
/// somewhere).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Quota(f64);

impl Quota {
    /// The lowest representable quota (20 % of full bandwidth).
    pub const MIN_FRACTION: f64 = 0.2;

    /// Full bandwidth — no throttling.
    pub const FULL: Quota = Quota(1.0);

    /// Creates a quota from a fraction, clamping to
    /// `[MIN_FRACTION, 1.0]`. Non-finite input clamps to full.
    pub fn new(fraction: f64) -> Self {
        if fraction.is_finite() {
            Quota(fraction.clamp(Self::MIN_FRACTION, 1.0))
        } else {
            Quota(1.0)
        }
    }

    /// The quota as a fraction of full bandwidth.
    pub fn as_fraction(self) -> f64 {
        self.0
    }

    /// Applies a scaling factor (Table 2 line 6: `quota = quota *
    /// scaling_factor`), re-clamping.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Quota {
        Quota::new(self.0 * factor)
    }

    /// The `cpu.cfs_quota_us` value this fraction corresponds to for a
    /// given enforcement period and core count (how the value reaches the
    /// kernel on a real device).
    pub fn as_cfs_quota_us(self, period_us: u64, n_cores: usize) -> u64 {
        quantize_u64((self.0 * period_us as f64 * n_cores as f64).round())
    }
}

impl Default for Quota {
    fn default() -> Self {
        Quota::FULL
    }
}

impl fmt::Display for Quota {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_range() {
        assert_eq!(Quota::new(1.5), Quota::FULL);
        assert_eq!(Quota::new(0.0).as_fraction(), Quota::MIN_FRACTION);
        assert_eq!(Quota::new(f64::NAN), Quota::FULL);
        assert_eq!(Quota::new(-3.0).as_fraction(), Quota::MIN_FRACTION);
    }

    #[test]
    fn scaled_applies_factor() {
        let q = Quota::new(0.8).scaled(0.9);
        assert!((q.as_fraction() - 0.72).abs() < 1e-12);
        // scaling up is allowed but clamps at full
        assert_eq!(Quota::new(0.95).scaled(2.0), Quota::FULL);
    }

    #[test]
    fn repeated_shrink_bottoms_out() {
        let mut q = Quota::FULL;
        for _ in 0..200 {
            q = q.scaled(0.9);
        }
        assert_eq!(q.as_fraction(), Quota::MIN_FRACTION);
    }

    #[test]
    fn cfs_quota_translation() {
        // full bandwidth on 4 cores with a 100 ms period = 400 ms runtime.
        assert_eq!(Quota::FULL.as_cfs_quota_us(100_000, 4), 400_000);
        assert_eq!(Quota::new(0.5).as_cfs_quota_us(100_000, 4), 200_000);
    }

    #[test]
    fn display_and_default() {
        assert_eq!(Quota::default(), Quota::FULL);
        assert_eq!(Quota::new(0.9).to_string(), "90%");
    }
}
