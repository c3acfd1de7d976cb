//! The CFS-bandwidth-style quota controller (paper §4.1.1, Table 2).
//!
//! On a real device MobiCore writes `cpu.cfs_quota_us`; the kernel then
//! limits how much runtime the group gets per enforcement period. The
//! pool is **global**: one saturated thread may consume a whole core even
//! under a 50 % quota, as long as the group total stays inside the
//! budget. We keep the same bookkeeping (period + runtime budget) and
//! additionally smooth enforcement to per-tick granularity so a
//! 1 ms-tick simulation does not see 100 ms on/off beating.

use mobicore_model::{quantize_u64, Quota};

/// Global CPU bandwidth controller.
#[derive(Debug, Clone)]
pub struct BandwidthController {
    quota: Quota,
    period_us: u64,
    /// Runtime left in the current period, µs.
    runtime_left_us: u64,
    period_end_us: u64,
    n_cores: usize,
    /// Total runtime ever denied by throttling, µs (observability).
    pub throttled_us: u64,
    /// Time-weighted quota integral for averaging, quota·µs.
    quota_integral: f64,
    integral_us: u64,
}

impl BandwidthController {
    /// Full bandwidth with the given enforcement period.
    pub fn new(period_us: u64, n_cores: usize) -> Self {
        BandwidthController {
            quota: Quota::FULL,
            period_us,
            runtime_left_us: period_us * n_cores as u64,
            period_end_us: period_us,
            n_cores,
            throttled_us: 0,
            quota_integral: 0.0,
            integral_us: 0,
        }
    }

    /// The quota currently in force.
    pub fn quota(&self) -> Quota {
        self.quota
    }

    /// The `cpu.cfs_quota_us` view of the current quota.
    pub fn cfs_quota_us(&self) -> u64 {
        self.quota.as_cfs_quota_us(self.period_us, self.n_cores)
    }

    /// Installs a new quota (takes effect immediately; the current
    /// period's remaining budget is re-derived).
    pub fn set_quota(&mut self, quota: Quota, now_us: u64) {
        self.quota = quota;
        self.refill(now_us);
    }

    fn budget_per_period_us(&self) -> u64 {
        quantize_u64(
            (self.quota.as_fraction() * self.period_us as f64 * self.n_cores as f64).round(),
        )
    }

    fn refill(&mut self, now_us: u64) {
        self.runtime_left_us = self.budget_per_period_us();
        self.period_end_us = now_us + self.period_us;
    }

    /// Called once per tick before scheduling: rolls the period over if
    /// needed, then returns the **global** runtime the whole CPU group may
    /// use this tick, µs.
    ///
    /// The per-tick allowance is the per-period budget spread uniformly
    /// (`quota · n_cores · tick`), bounded by what is left in the period —
    /// smooth throttling with exact period accounting.
    pub fn begin_tick(&mut self, now_us: u64, tick_us: u64) -> u64 {
        if now_us >= self.period_end_us {
            self.refill(now_us);
        }
        self.quota_integral += self.quota.as_fraction() * tick_us as f64;
        self.integral_us += tick_us;
        let smooth =
            quantize_u64((self.quota.as_fraction() * tick_us as f64 * self.n_cores as f64).round());
        smooth.min(self.runtime_left_us)
    }

    /// Advances `ticks` consecutive ticks in one tight loop,
    /// bit-identically to that many [`BandwidthController::begin_tick`]
    /// calls whose allowance is discarded — the event engine's quiet
    /// fast path (docs/simulator.md), where no thread runs and so the
    /// allowance feeds nothing.
    ///
    /// Period rollover and the quota integral stay per-tick in sequence
    /// (the integral is a float sum) with the constant `quota·tick`
    /// increment hoisted; the elapsed integral is batched (integer,
    /// exact). The smooth-allowance arithmetic `begin_tick` performs is
    /// pure — skipping it leaves no state behind.
    pub fn quiet_run(&mut self, start_us: u64, tick_us: u64, ticks: u64) {
        let dq = self.quota.as_fraction() * tick_us as f64;
        let mut now = start_us;
        for _ in 0..ticks {
            if now >= self.period_end_us {
                self.refill(now);
            }
            self.quota_integral += dq;
            now += tick_us;
        }
        self.integral_us += ticks * tick_us;
    }

    /// Charges actually-consumed runtime and records throttled demand.
    pub fn charge(&mut self, used_us: u64, denied_us: u64) {
        self.runtime_left_us = self.runtime_left_us.saturating_sub(used_us);
        self.throttled_us += denied_us;
    }

    /// Time-weighted average quota over the run.
    pub fn avg_quota(&self) -> f64 {
        if self.integral_us == 0 {
            self.quota.as_fraction()
        } else {
            self.quota_integral / self.integral_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_quota_allows_all_cores() {
        let mut bw = BandwidthController::new(100_000, 4);
        assert_eq!(bw.begin_tick(0, 1_000), 4_000);
    }

    #[test]
    fn half_quota_allows_half_the_pool() {
        let mut bw = BandwidthController::new(100_000, 4);
        bw.set_quota(Quota::new(0.5), 0);
        // Global pool: 2 cores' worth — a single saturated thread is NOT
        // throttled (it needs only 1000 of the 2000).
        assert_eq!(bw.begin_tick(0, 1_000), 2_000);
        assert_eq!(bw.cfs_quota_us(), 200_000);
    }

    #[test]
    fn budget_exhaustion_throttles() {
        let mut bw = BandwidthController::new(10_000, 1);
        bw.set_quota(Quota::new(0.5), 0);
        // Period budget = 5 000 µs. Burn it in big charges.
        assert_eq!(bw.begin_tick(0, 1_000), 500);
        bw.charge(5_000, 0); // pretend the whole budget went
        assert_eq!(bw.begin_tick(1_000, 1_000), 0, "no runtime left");
        // Next period refills.
        assert_eq!(bw.begin_tick(10_000, 1_000), 500);
    }

    #[test]
    fn throttled_time_accumulates() {
        let mut bw = BandwidthController::new(100_000, 2);
        bw.charge(100, 400);
        bw.charge(0, 100);
        assert_eq!(bw.throttled_us, 500);
    }

    #[test]
    fn avg_quota_is_time_weighted() {
        let mut bw = BandwidthController::new(100_000, 4);
        bw.begin_tick(0, 1_000); // quota 1.0
        bw.set_quota(Quota::new(0.5), 1_000);
        bw.begin_tick(1_000, 1_000);
        bw.begin_tick(2_000, 1_000);
        let avg = bw.avg_quota();
        assert!((avg - (1.0 + 0.5 + 0.5) / 3.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn quiet_run_is_bit_identical_to_begin_tick_loop() {
        let mut a = BandwidthController::new(100_000, 4);
        let mut b = a.clone();
        a.set_quota(Quota::new(0.37), 0);
        b.set_quota(Quota::new(0.37), 0);
        let mut now = 0u64;
        for _ in 0..2_500u64 {
            let _ = a.begin_tick(now, 1_000);
            now += 1_000;
        }
        b.quiet_run(0, 1_000, 1_000);
        b.quiet_run(1_000_000, 1_000, 1_500);
        assert_eq!(a.quota_integral.to_bits(), b.quota_integral.to_bits());
        assert_eq!(a.integral_us, b.integral_us);
        assert_eq!(a.runtime_left_us, b.runtime_left_us);
        assert_eq!(a.period_end_us, b.period_end_us, "rollovers must align");
    }

    #[test]
    fn avg_quota_before_any_tick_is_current() {
        let bw = BandwidthController::new(100_000, 4);
        assert_eq!(bw.avg_quota(), 1.0);
    }
}
