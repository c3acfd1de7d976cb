//! RC thermal dynamics and the throttling engine.
//!
//! Integrates `dT/dt = (P · R_th − (T − T_amb)) / τ` every tick and runs a
//! thermal-engine control loop (like msm_thermal / core_control on the
//! real MSM8974) that steps the allowed OPP cap down when the package
//! crosses the trip temperature and back up once it cools past the clear
//! temperature. This is what flattens sustained multi-core power at high
//! frequency (paper Figure 4) and pins the full-stress steady temperature
//! near the 42.1 °C the IR picture shows (Figure 2(a)).

use mobicore_model::ThermalParams;

/// Thermal state of the package plus the throttle controller.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    params: ThermalParams,
    temp_c: f64,
    max_opp: usize,
    cap_opp: usize,
    next_poll_us: u64,
    poll_period_us: u64,
    /// Total time spent with an active cap, µs (observability).
    pub throttled_time_us: u64,
    /// Peak temperature seen, °C.
    pub max_temp_c: f64,
    temp_integral: f64,
    integral_us: u64,
    /// `(tick_us, 1 − e^(−dt/τ))` of the last step; the tick length is
    /// constant within a run, so this turns one `exp` per tick into one
    /// per run.
    alpha_cache: Option<(u64, f64)>,
}

impl ThermalModel {
    /// A package at ambient with no cap.
    pub fn new(params: ThermalParams, max_opp: usize, poll_period_us: u64) -> Self {
        ThermalModel {
            temp_c: params.ambient_c,
            max_temp_c: params.ambient_c,
            params,
            max_opp,
            cap_opp: max_opp,
            next_poll_us: 0,
            poll_period_us,
            throttled_time_us: 0,
            temp_integral: 0.0,
            integral_us: 0,
            alpha_cache: None,
        }
    }

    /// Current package temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// The OPP cap the throttle currently enforces.
    pub fn cap_opp(&self) -> usize {
        self.cap_opp
    }

    /// Whether the throttle is currently engaged.
    pub fn throttling(&self) -> bool {
        self.cap_opp < self.max_opp
    }

    /// Time-weighted average temperature over the run, °C.
    pub fn avg_temp_c(&self) -> f64 {
        if self.integral_us == 0 {
            self.temp_c
        } else {
            self.temp_integral / self.integral_us as f64
        }
    }

    /// Integrates one tick of dissipation and runs the control loop when
    /// its poll period elapses. Returns the (possibly updated) OPP cap.
    pub fn tick(&mut self, now_us: u64, tick_us: u64, power_mw: f64) -> usize {
        let steady = self.params.steady_state_c(power_mw);
        // Exact first-order step: T += (T_ss − T)·(1 − e^(−dt/τ)).
        let alpha = match self.alpha_cache {
            Some((cached_tick, a)) if cached_tick == tick_us => a,
            _ => {
                let dt_s = tick_us as f64 / 1_000_000.0;
                let a = 1.0 - (-dt_s / self.params.tau_s).exp();
                self.alpha_cache = Some((tick_us, a));
                a
            }
        };
        self.temp_c += (steady - self.temp_c) * alpha;
        self.max_temp_c = self.max_temp_c.max(self.temp_c);
        self.temp_integral += self.temp_c * tick_us as f64;
        self.integral_us += tick_us;
        if self.throttling() {
            self.throttled_time_us += tick_us;
        }
        if now_us >= self.next_poll_us {
            self.next_poll_us = now_us + self.poll_period_us;
            if self.temp_c > self.params.trip_c {
                self.cap_opp = self.cap_opp.saturating_sub(1);
            } else if self.temp_c < self.params.clear_c && self.cap_opp < self.max_opp {
                self.cap_opp += 1;
            }
        }
        self.cap_opp
    }

    /// Runs up to `max_ticks` ticks at constant `power_mw` in one tight
    /// loop, bit-identically to that many [`ThermalModel::tick`] calls,
    /// stopping early *after* the tick on which the control loop changes
    /// the cap (the event engine's quiet fast path must end its burst
    /// there — docs/simulator.md).
    ///
    /// Returns `(ticks_run, pre_tick_temp_c)` where the temperature is
    /// the one read *before* the last executed tick's RC step — what the
    /// cyclic loop gauges on that tick. The float sequence (RC step, max,
    /// integral) is per-tick in cyclic order; only the integer elapsed /
    /// throttled-time accounting is batched, which is exact because the
    /// cap — and with it [`ThermalModel::throttling`] — cannot change
    /// before the tick this method stops on.
    pub fn quiet_run(
        &mut self,
        start_us: u64,
        tick_us: u64,
        power_mw: f64,
        max_ticks: u64,
    ) -> (u64, f64) {
        // `steady` and `alpha` are pure in `power_mw`/`tick_us`, both
        // constant here: hoisting them out of the loop is bitwise equal
        // to `tick` recomputing them.
        let steady = self.params.steady_state_c(power_mw);
        let alpha = match self.alpha_cache {
            Some((cached_tick, a)) if cached_tick == tick_us => a,
            _ => {
                let dt_s = tick_us as f64 / 1_000_000.0;
                let a = 1.0 - (-dt_s / self.params.tau_s).exp();
                self.alpha_cache = Some((tick_us, a));
                a
            }
        };
        let dt_f = tick_us as f64;
        let cap_at_entry = self.cap_opp;
        let mut now = start_us;
        let mut pre_tick_temp = self.temp_c;
        let mut k = 0u64;
        while k < max_ticks {
            pre_tick_temp = self.temp_c;
            self.temp_c += (steady - self.temp_c) * alpha;
            self.max_temp_c = self.max_temp_c.max(self.temp_c);
            self.temp_integral += self.temp_c * dt_f;
            k += 1;
            if now >= self.next_poll_us {
                self.next_poll_us = now + self.poll_period_us;
                if self.temp_c > self.params.trip_c {
                    self.cap_opp = self.cap_opp.saturating_sub(1);
                } else if self.temp_c < self.params.clear_c && self.cap_opp < self.max_opp {
                    self.cap_opp += 1;
                }
                if self.cap_opp != cap_at_entry {
                    break;
                }
            }
            now += tick_us;
        }
        self.integral_us += k * tick_us;
        if cap_at_entry < self.max_opp {
            self.throttled_time_us += k * tick_us;
        }
        (k, pre_tick_temp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ThermalParams {
        ThermalParams {
            ambient_c: 25.0,
            r_th_c_per_w: 7.0,
            tau_s: 2.0,
            trip_c: 42.0,
            clear_c: 40.0,
        }
    }

    #[test]
    fn warms_toward_steady_state() {
        let mut t = ThermalModel::new(params(), 13, 100_000);
        // 2 W → steady 39 °C; run 20 s (10 τ).
        for i in 0..20_000u64 {
            t.tick(i * 1_000, 1_000, 2_000.0);
        }
        assert!((t.temp_c() - 39.0).abs() < 0.1, "{}", t.temp_c());
        assert!(!t.throttling(), "39 °C is below the 42 °C trip");
    }

    #[test]
    fn cools_back_to_ambient() {
        let mut t = ThermalModel::new(params(), 13, 100_000);
        for i in 0..10_000u64 {
            t.tick(i * 1_000, 1_000, 2_000.0);
        }
        for i in 10_000..40_000u64 {
            t.tick(i * 1_000, 1_000, 0.0);
        }
        assert!((t.temp_c() - 25.0).abs() < 0.2);
    }

    #[test]
    fn throttle_engages_above_trip_and_releases() {
        let mut t = ThermalModel::new(params(), 13, 100_000);
        // 3 W → steady 46 °C: must throttle.
        let mut now = 0u64;
        for _ in 0..30_000u64 {
            t.tick(now, 1_000, 3_000.0);
            now += 1_000;
        }
        assert!(t.throttling());
        let engaged_cap = t.cap_opp();
        assert!(engaged_cap < 13);
        assert!(t.throttled_time_us > 0);
        // Cool down with no power: cap steps back up to max.
        for _ in 0..120_000u64 {
            t.tick(now, 1_000, 0.0);
            now += 1_000;
        }
        assert!(!t.throttling(), "cap is {}", t.cap_opp());
    }

    #[test]
    fn cap_never_exceeds_max_or_underflows() {
        let mut t = ThermalModel::new(params(), 3, 1_000);
        let mut now = 0u64;
        // Massive power: cap walks to 0 and stays.
        for _ in 0..100_000u64 {
            t.tick(now, 1_000, 50_000.0);
            now += 1_000;
        }
        assert_eq!(t.cap_opp(), 0);
        for _ in 0..400_000u64 {
            t.tick(now, 1_000, 0.0);
            now += 1_000;
        }
        assert_eq!(t.cap_opp(), 3);
    }

    #[test]
    fn quiet_run_is_bit_identical_to_tick_loop() {
        // Heat at 3 W through a cap change (steady 46 °C > 42 °C trip),
        // then cool: the quiet run must stop exactly at each cap change
        // and, resumed across those stops, leave every field — float
        // bits included — equal to the plain tick loop's.
        let mut a = ThermalModel::new(params(), 13, 100_000);
        let mut b = a.clone();
        for (power, ticks) in [(3_000.0, 40_000u64), (0.0, 60_000u64)] {
            let mut now_a = a.integral_us;
            for _ in 0..ticks {
                a.tick(now_a, 1_000, power);
                now_a += 1_000;
            }
            let mut left = ticks;
            let mut now_b = b.integral_us;
            while left > 0 {
                let (k, pre) = b.quiet_run(now_b, 1_000, power, left);
                assert!(k >= 1 && k <= left);
                assert!(pre.is_finite());
                now_b += k * 1_000;
                left -= k;
            }
        }
        assert_eq!(a.temp_c.to_bits(), b.temp_c.to_bits());
        assert_eq!(a.max_temp_c.to_bits(), b.max_temp_c.to_bits());
        assert_eq!(a.temp_integral.to_bits(), b.temp_integral.to_bits());
        assert_eq!(a.integral_us, b.integral_us);
        assert_eq!(a.throttled_time_us, b.throttled_time_us);
        assert_eq!(a.cap_opp, b.cap_opp);
        assert_eq!(a.next_poll_us, b.next_poll_us);
        assert!(a.throttled_time_us > 0, "the hot phase must have capped");
    }

    #[test]
    fn max_and_avg_temperature_tracked() {
        let mut t = ThermalModel::new(params(), 13, 100_000);
        for i in 0..5_000u64 {
            t.tick(i * 1_000, 1_000, 2_000.0);
        }
        assert!(t.max_temp_c >= t.avg_temp_c());
        assert!(t.avg_temp_c() > 25.0);
    }
}
