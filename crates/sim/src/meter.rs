//! A Monsoon-Power-Monitor-like meter.
//!
//! The thesis measures power "directly at the power pins" with the
//! battery removed (§3.1): the meter sees whole-device instantaneous
//! power. We integrate energy exactly per tick and keep a decimated
//! sample series for plotting.

/// Whole-device power meter.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    /// Accumulated energy in mW·µs (nanojoules).
    energy_uj: f64,
    elapsed_us: u64,
    sample_period_us: u64,
    next_sample_us: u64,
    samples: Vec<(u64, f64)>,
    max_mw: f64,
}

impl PowerMeter {
    /// A meter decimating its sample series to one point per
    /// `sample_period_us`.
    pub fn new(sample_period_us: u64) -> Self {
        PowerMeter {
            energy_uj: 0.0,
            elapsed_us: 0,
            sample_period_us: sample_period_us.max(1),
            next_sample_us: 0,
            samples: Vec::new(),
            max_mw: f64::NEG_INFINITY,
        }
    }

    /// Pre-sizes the sample series for a run of `duration_us`, so the
    /// decimated pushes inside the tick loop never reallocate.
    pub fn reserve_for_duration(&mut self, duration_us: u64) {
        let expected = usize::try_from(duration_us / self.sample_period_us + 1).unwrap_or(0);
        self.samples
            .reserve(expected.saturating_sub(self.samples.len()));
    }

    /// Records one tick of dissipation.
    pub fn record(&mut self, now_us: u64, tick_us: u64, power_mw: f64) {
        self.energy_uj += power_mw * tick_us as f64;
        self.elapsed_us += tick_us;
        self.max_mw = self.max_mw.max(power_mw);
        if now_us >= self.next_sample_us {
            self.samples.push((now_us, power_mw));
            self.next_sample_us = now_us + self.sample_period_us;
        }
    }

    /// Records `ticks` consecutive ticks at constant `power_mw` in one
    /// tight loop, bit-identically to that many [`PowerMeter::record`]
    /// calls — the event engine's quiet fast path (docs/simulator.md).
    ///
    /// The energy accumulation stays per-tick in sequence (float sums
    /// are order-sensitive) with the constant `power·tick` product
    /// hoisted; elapsed time is batched (integer, exact) and the
    /// max fold is applied once, which equals applying it `ticks` times
    /// because `max` with the same value is idempotent.
    pub fn quiet_run(&mut self, start_us: u64, tick_us: u64, power_mw: f64, ticks: u64) {
        if ticks == 0 {
            return;
        }
        let energy_add = power_mw * tick_us as f64;
        let mut now = start_us;
        for _ in 0..ticks {
            self.energy_uj += energy_add;
            if now >= self.next_sample_us {
                self.samples.push((now, power_mw));
                self.next_sample_us = now + self.sample_period_us;
            }
            now += tick_us;
        }
        self.elapsed_us += ticks * tick_us;
        self.max_mw = self.max_mw.max(power_mw);
    }

    /// Average power over everything recorded, mW.
    pub fn avg_power_mw(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.energy_uj / self.elapsed_us as f64
        }
    }

    /// Total energy, millijoules.
    pub fn energy_mj(&self) -> f64 {
        // The accumulator is in mW·µs = nanojoules.
        self.energy_uj / 1_000_000.0
    }

    /// Peak instantaneous power, mW (0 if nothing recorded).
    pub fn max_power_mw(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.max_mw
        }
    }

    /// The decimated `(time_us, power_mw)` series.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_energy_over_time() {
        let mut m = PowerMeter::new(1_000);
        m.record(0, 1_000, 100.0);
        m.record(1_000, 1_000, 300.0);
        assert!((m.avg_power_mw() - 200.0).abs() < 1e-9);
        // 200 mW over 2 ms = 0.4 mJ.
        assert!((m.energy_mj() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = PowerMeter::new(1_000);
        assert_eq!(m.avg_power_mw(), 0.0);
        assert_eq!(m.energy_mj(), 0.0);
        assert_eq!(m.max_power_mw(), 0.0);
    }

    #[test]
    fn extremes_tracked() {
        let mut m = PowerMeter::new(1_000);
        m.record(0, 1_000, 50.0);
        m.record(1_000, 1_000, 500.0);
        m.record(2_000, 1_000, 200.0);
        assert_eq!(m.max_power_mw(), 500.0);
    }

    #[test]
    fn sampling_decimates() {
        let mut m = PowerMeter::new(10_000);
        for i in 0..100u64 {
            m.record(i * 1_000, 1_000, i as f64);
        }
        // one sample per 10 ms over 100 ms
        assert_eq!(m.samples().len(), 10);
        assert_eq!(m.samples()[0], (0, 0.0));
        assert_eq!(m.samples()[1], (10_000, 10.0));
    }

    #[test]
    fn quiet_run_is_bit_identical_to_record_loop() {
        let mut a = PowerMeter::new(10_000);
        let mut b = PowerMeter::new(10_000);
        // An irrational-ish power makes any accumulation-order slip show
        // up in the low mantissa bits.
        let p = 123.456_789;
        let mut now = 0u64;
        for _ in 0..5_000u64 {
            a.record(now, 1_000, p);
            now += 1_000;
        }
        b.quiet_run(0, 1_000, p, 3_000);
        b.quiet_run(3_000_000, 1_000, p, 2_000);
        assert_eq!(a.energy_uj.to_bits(), b.energy_uj.to_bits());
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.max_mw.to_bits(), b.max_mw.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.next_sample_us, b.next_sample_us);
        // A zero-length run is a no-op (and must not poison the max).
        b.quiet_run(5_000_000, 1_000, 9e9, 0);
        assert_eq!(a.max_mw.to_bits(), b.max_mw.to_bits());
    }

    #[test]
    fn zero_sample_period_is_clamped() {
        let mut m = PowerMeter::new(0);
        m.record(0, 1_000, 1.0);
        m.record(1_000, 1_000, 2.0);
        assert_eq!(m.samples().len(), 2);
    }
}
