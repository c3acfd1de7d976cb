//! Thermal parameters of a device.
//!
//! The thesis motivates MobiCore with an IR picture (Figure 2(a)): the
//! CPU area of a fully stressed Nexus 5 reaches 42.1 °C against 26.9 °C for
//! the single-core Nexus S. We model the package with a first-order RC
//! lumped thermal circuit
//!
//! ```text
//! dT/dt = (P · R_th − (T − T_ambient)) / τ
//! ```
//!
//! plus a throttling trip point: real MSM8974 firmware caps the allowed
//! OPP when the package crosses its trip temperature, which is what makes
//! measured 4-core power at f_max grow far more slowly than an additive
//! CMOS model predicts (paper Figure 4). The dynamics live in
//! `mobicore-sim::thermal`; only the parameters live here.

/// First-order RC thermal model parameters plus throttle trip points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient (and initial package) temperature, °C.
    pub ambient_c: f64,
    /// Package thermal resistance, °C per watt of dissipated power.
    pub r_th_c_per_w: f64,
    /// Thermal time constant, seconds.
    pub tau_s: f64,
    /// Temperature at which the thermal engine starts stepping the OPP cap
    /// down, °C.
    pub trip_c: f64,
    /// Temperature below which the OPP cap is allowed to step back up, °C
    /// (must be below `trip_c`; the gap is the control hysteresis).
    pub clear_c: f64,
}

impl ThermalParams {
    /// Steady-state package temperature while dissipating `power_mw`.
    ///
    /// ```
    /// use mobicore_model::ThermalParams;
    /// let p = ThermalParams { ambient_c: 25.0, r_th_c_per_w: 7.0,
    ///     tau_s: 8.0, trip_c: 42.0, clear_c: 40.5 };
    /// assert_eq!(p.steady_state_c(1000.0), 32.0);
    /// ```
    pub fn steady_state_c(&self, power_mw: f64) -> f64 {
        self.ambient_c + self.r_th_c_per_w * power_mw / 1_000.0
    }

    /// The sustained power budget implied by the trip point: dissipating
    /// more than this long enough engages the throttle.
    pub fn sustainable_power_mw(&self) -> f64 {
        (self.trip_c - self.ambient_c) / self.r_th_c_per_w * 1_000.0
    }
}

impl Default for ThermalParams {
    /// Nexus-5-like defaults.
    fn default() -> Self {
        ThermalParams {
            ambient_c: 25.0,
            r_th_c_per_w: 7.1,
            tau_s: 8.0,
            trip_c: 42.0,
            clear_c: 40.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_linear_in_power() {
        let p = ThermalParams::default();
        let t1 = p.steady_state_c(1_000.0);
        let t2 = p.steady_state_c(2_000.0);
        assert!((t2 - t1 - p.r_th_c_per_w).abs() < 1e-9);
        assert_eq!(p.steady_state_c(0.0), p.ambient_c);
    }

    #[test]
    fn sustainable_power_matches_trip() {
        let p = ThermalParams::default();
        let budget = p.sustainable_power_mw();
        assert!((p.steady_state_c(budget) - p.trip_c).abs() < 1e-9);
    }

    #[test]
    fn default_trip_above_clear() {
        let p = ThermalParams::default();
        assert!(p.trip_c > p.clear_c);
        assert!(p.clear_c > p.ambient_c);
    }
}
