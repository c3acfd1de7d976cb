//! A simple battery model: turn measured average power into the number
//! the phone's owner actually cares about — hours of runtime.
//!
//! The thesis motivates everything with battery life ("Due to battery
//! constraints, energy efficiency is, today, the main concern in mobile
//! devices", §1) but reports only power; this module closes the loop for
//! the reports and examples. The model is a constant-voltage capacity
//! tank with a configurable usable fraction — deliberately simple, and
//! documented as such.

/// A phone battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Rated capacity, mAh.
    pub capacity_mah: f64,
    /// Nominal cell voltage, V.
    pub nominal_v: f64,
    /// Fraction of the rated capacity usable before shutdown
    /// (cells cut off above 0 % to protect themselves).
    pub usable_frac: f64,
}

impl Battery {
    /// The Nexus 5 battery: 2300 mAh at 3.8 V nominal.
    pub fn nexus5() -> Self {
        Battery {
            capacity_mah: 2_300.0,
            nominal_v: 3.8,
            usable_frac: 0.95,
        }
    }

    /// Usable energy, milliwatt-hours.
    pub fn usable_mwh(&self) -> f64 {
        self.capacity_mah * self.nominal_v * self.usable_frac
    }

    /// Usable energy, millijoules.
    pub fn usable_mj(&self) -> f64 {
        self.usable_mwh() * 3_600.0
    }

    /// Hours of runtime at a constant average draw.
    ///
    /// Returns `f64::INFINITY` for a non-positive draw.
    pub fn hours_at(&self, avg_power_mw: f64) -> f64 {
        if avg_power_mw <= 0.0 {
            return f64::INFINITY;
        }
        self.usable_mwh() / avg_power_mw
    }

    /// Battery-life improvement factor going from `baseline_mw` to
    /// `improved_mw` (e.g. 1.06 = 6 % longer runtime).
    pub fn life_gain(&self, baseline_mw: f64, improved_mw: f64) -> f64 {
        if improved_mw <= 0.0 || baseline_mw <= 0.0 {
            return 1.0;
        }
        baseline_mw / improved_mw
    }

    /// State of charge after drawing `avg_power_mw` for `duration_us`,
    /// starting from full, clamped to `[0, 1]`.
    pub fn soc_after(&self, avg_power_mw: f64, duration_us: u64) -> f64 {
        let spent_mj = avg_power_mw * duration_us as f64 / 1_000_000.0;
        (1.0 - spent_mj / self.usable_mj()).clamp(0.0, 1.0)
    }
}

impl Default for Battery {
    fn default() -> Self {
        Battery::nexus5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus5_energy_budget() {
        let b = Battery::nexus5();
        // 2300 mAh · 3.8 V · 0.95 ≈ 8303 mWh
        assert!((b.usable_mwh() - 8_303.0).abs() < 1.0);
    }

    #[test]
    fn hours_scale_inversely_with_draw() {
        let b = Battery::nexus5();
        let h1 = b.hours_at(1_000.0);
        let h2 = b.hours_at(2_000.0);
        assert!((h1 / h2 - 2.0).abs() < 1e-9);
        // ~8.3 h of 1 W draw on a Nexus 5.
        assert!((7.5..9.0).contains(&h1), "{h1}");
    }

    #[test]
    fn zero_draw_lasts_forever() {
        assert!(Battery::nexus5().hours_at(0.0).is_infinite());
        assert!(Battery::nexus5().hours_at(-5.0).is_infinite());
    }

    #[test]
    fn life_gain_matches_power_ratio() {
        let b = Battery::nexus5();
        assert!((b.life_gain(2_000.0, 1_800.0) - 1.111).abs() < 0.001);
        assert_eq!(b.life_gain(0.0, 1.0), 1.0);
    }

    #[test]
    fn soc_depletes_and_clamps() {
        let b = Battery::nexus5();
        let one_hour_us = 3_600_000_000u64;
        let soc = b.soc_after(1_000.0, one_hour_us);
        assert!((soc - (1.0 - 1_000.0 / b.usable_mwh())).abs() < 1e-9);
        assert_eq!(b.soc_after(1_000_000.0, one_hour_us * 100), 0.0);
        assert_eq!(b.soc_after(0.0, one_hour_us), 1.0);
    }
}
