//! Strongly-typed units used throughout the reproduction.
//!
//! The cpufreq subsystem of Linux expresses frequencies in kHz, voltages in
//! millivolts and (in our power models) power in milliwatts; we keep the
//! same conventions so sysfs strings round-trip without conversion factors.

use std::fmt;

/// A CPU frequency in kilohertz, the native unit of Linux cpufreq.
///
/// `Khz(300_000)` is 300 MHz, the lowest Nexus 5 OPP; `Khz(2_265_600)` is
/// the 2.2656 GHz top OPP.
///
/// ```
/// use mobicore_model::Khz;
/// let f = Khz(2_265_600);
/// assert_eq!(f.as_mhz(), 2265.6);
/// assert!(Khz(300_000) < f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Khz(pub u32);

impl Khz {
    /// Zero frequency; used for offline cores in traces.
    pub const ZERO: Khz = Khz(0);

    /// Returns the frequency in MHz as a float (for display and plotting).
    pub fn as_mhz(self) -> f64 {
        f64::from(self.0) / 1_000.0
    }

    /// Returns the frequency in Hz.
    pub fn as_hz(self) -> f64 {
        f64::from(self.0) * 1_000.0
    }

    /// Number of CPU cycles executed in `us` microseconds at this frequency.
    ///
    /// Exact in integer arithmetic: `kHz × µs / 1000` (1 kHz = 1 cycle/ms).
    ///
    /// ```
    /// use mobicore_model::Khz;
    /// // 2.2656 GHz for 1 ms = 2,265,600 cycles.
    /// assert_eq!(Khz(2_265_600).cycles_in_us(1_000), 2_265_600);
    /// ```
    pub fn cycles_in_us(self, us: u64) -> u64 {
        u64::from(self.0) * us / 1_000
    }

    /// Microseconds needed to execute `cycles` cycles at this frequency,
    /// rounded up. Returns `u64::MAX` for a zero frequency.
    pub fn us_for_cycles(self, cycles: u64) -> u64 {
        if self.0 == 0 {
            return u64::MAX;
        }
        cycles.saturating_mul(1_000).div_ceil(u64::from(self.0))
    }
}

/// Quantizes a non-negative `f64` quantity (µs, cycles, budget counts) onto
/// the `u64` grid. Rust float-to-int casts saturate at the integer bounds,
/// so out-of-range inputs clamp instead of wrapping; negative inputs clamp
/// to zero (and trip a debug assertion, since callers deal in magnitudes).
#[must_use]
pub fn quantize_u64(v: f64) -> u64 {
    debug_assert!(
        v >= 0.0 || v.is_nan(),
        "quantize_u64 expects a non-negative quantity, got {v}"
    );
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        v.max(0.0) as u64
    }
}

/// `u32` variant of [`quantize_u64`] for kHz/mV-sized quantities.
#[must_use]
pub fn quantize_u32(v: f64) -> u32 {
    debug_assert!(
        v >= 0.0 || v.is_nan(),
        "quantize_u32 expects a non-negative quantity, got {v}"
    );
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        v.max(0.0) as u32
    }
}

/// `usize` variant of [`quantize_u64`] for counts and indices.
#[must_use]
pub fn quantize_usize(v: f64) -> usize {
    debug_assert!(
        v >= 0.0 || v.is_nan(),
        "quantize_usize expects a non-negative quantity, got {v}"
    );
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        v.max(0.0) as usize
    }
}

impl Khz {
    /// Quantizes a fractional kHz value (a scaled or interpolated
    /// frequency) onto the kHz grid, saturating at the `u32` range.
    #[must_use]
    pub fn from_f64(khz: f64) -> Self {
        Khz(quantize_u32(khz))
    }
}

impl MilliVolts {
    /// Quantizes a fractional millivolt value onto the mV grid.
    #[must_use]
    pub fn from_f64(mv: f64) -> Self {
        MilliVolts(quantize_u32(mv))
    }
}

impl fmt::Display for Khz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.as_mhz())
    }
}

impl From<u32> for Khz {
    fn from(khz: u32) -> Self {
        Khz(khz)
    }
}

/// A supply voltage in millivolts.
///
/// The Nexus 5 Krait 400 rail spans 900 mV (at 300 MHz) to 1200 mV (at
/// 2.2656 GHz) — paper Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MilliVolts(pub u32);

impl MilliVolts {
    /// Returns the voltage in volts.
    pub fn as_volts(self) -> f64 {
        f64::from(self.0) / 1_000.0
    }
}

impl fmt::Display for MilliVolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

impl From<u32> for MilliVolts {
    fn from(mv: u32) -> Self {
        MilliVolts(mv)
    }
}

/// A CPU utilization fraction, clamped to `[0, 1]`.
///
/// The paper works in percent ("a 100 % global CPU load", "if the
/// individual workload of a core is under 10 %"); we store the fraction and
/// provide percent accessors.
///
/// ```
/// use mobicore_model::Utilization;
/// let u = Utilization::from_percent(37.5);
/// assert_eq!(u.as_fraction(), 0.375);
/// assert_eq!(Utilization::new(7.0), Utilization::FULL); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Utilization(f64);

impl Utilization {
    /// A fully idle CPU (0 %).
    pub const IDLE: Utilization = Utilization(0.0);
    /// A fully busy CPU (100 %).
    pub const FULL: Utilization = Utilization(1.0);

    /// Creates a utilization from a fraction, clamping to `[0, 1]`.
    /// Non-finite inputs clamp to zero.
    pub fn new(fraction: f64) -> Self {
        if fraction.is_finite() {
            Utilization(fraction.clamp(0.0, 1.0))
        } else {
            Utilization(0.0)
        }
    }

    /// Creates a utilization from a percentage (`0..=100`), clamping.
    pub fn from_percent(percent: f64) -> Self {
        Self::new(percent / 100.0)
    }

    /// The utilization as a fraction in `[0, 1]`.
    pub fn as_fraction(self) -> f64 {
        self.0
    }

    /// The utilization as a percentage in `[0, 100]`.
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Saturating difference `self - other`, as a plain fraction
    /// (may be negative; used for the ΔU(t, t−1) analysis of Table 2).
    pub fn delta(self, other: Utilization) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn khz_cycles_are_exact() {
        assert_eq!(Khz(300_000).cycles_in_us(1_000), 300_000);
        assert_eq!(Khz(1_000).cycles_in_us(1), 1);
        assert_eq!(Khz(0).cycles_in_us(1_000_000), 0);
    }

    #[test]
    fn khz_us_for_cycles_rounds_up() {
        // Khz(1_000) is 1 MHz = 1 cycle per µs.
        assert_eq!(Khz(1_000).us_for_cycles(1), 1);
        assert_eq!(Khz(1_000).us_for_cycles(3), 3);
        // 2 MHz = 2 cycles/µs: 3 cycles take 1.5 µs, rounded up to 2.
        assert_eq!(Khz(2_000).us_for_cycles(3), 2);
        // 1 kHz = 1 cycle per ms.
        assert_eq!(Khz(1).us_for_cycles(1), 1_000);
        assert_eq!(Khz(0).us_for_cycles(1), u64::MAX);
    }

    #[test]
    fn khz_us_for_cycles_does_not_overflow_quietly() {
        // Large cycle counts saturate instead of wrapping.
        assert_eq!(Khz(1).us_for_cycles(u64::MAX), u64::MAX);
    }

    #[test]
    fn khz_display_in_mhz() {
        assert_eq!(Khz(2_265_600).to_string(), "2265.6 MHz");
    }

    #[test]
    fn khz_ordering_matches_numeric() {
        assert!(Khz(300_000) < Khz(422_400));
        assert_eq!(Khz::from(960_000u32), Khz(960_000));
    }

    #[test]
    fn millivolts_as_volts() {
        assert_eq!(MilliVolts(1200).as_volts(), 1.2);
        assert_eq!(MilliVolts(900).to_string(), "900 mV");
    }

    #[test]
    fn utilization_clamps() {
        assert_eq!(Utilization::new(-0.5), Utilization::IDLE);
        assert_eq!(Utilization::new(2.0), Utilization::FULL);
        assert_eq!(Utilization::new(f64::NAN), Utilization::IDLE);
        assert_eq!(Utilization::new(f64::INFINITY), Utilization::IDLE);
    }

    #[test]
    fn utilization_percent_round_trip() {
        let u = Utilization::from_percent(42.0);
        assert!((u.as_percent() - 42.0).abs() < 1e-12);
        assert!((u.as_fraction() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn utilization_delta_is_signed() {
        let a = Utilization::from_percent(30.0);
        let b = Utilization::from_percent(50.0);
        assert!(a.delta(b) < 0.0);
        assert!(b.delta(a) > 0.0);
        assert_eq!(a.delta(a), 0.0);
    }

    #[test]
    fn quantize_truncates_and_saturates() {
        assert_eq!(quantize_u64(1234.9), 1234);
        assert_eq!(quantize_u64(0.0), 0);
        assert_eq!(quantize_u64(1e30), u64::MAX);
        assert_eq!(quantize_u32(2_265_600.4), 2_265_600);
        assert_eq!(quantize_u32(1e12), u32::MAX);
        assert_eq!(quantize_usize(3.999), 3);
        assert_eq!(Khz::from_f64(300_000.7), Khz(300_000));
        assert_eq!(MilliVolts::from_f64(899.5), MilliVolts(899));
    }

    #[test]
    fn utilization_display() {
        assert_eq!(Utilization::from_percent(12.34).to_string(), "12.3%");
    }
}
