//! The in-house "kernel application" of paper §3.1.
//!
//! > "This application is characterized by configurable busy loops which
//! > do not include any memory accesses. The load is going on for a
//! > certain number of iterations and includes a period of idleness,
//! > which is about 40ms."
//!
//! Each thread alternates a fixed-cycle burst with a fixed idle gap. The
//! burst size is chosen so that at a *reference frequency* the busy duty
//! cycle equals the requested utilization; when a policy lowers the clock
//! the same iteration count stretches in time and the observed utilization
//! rises — exactly the feedback a DVFS governor works against.

use mobicore_model::{quantize_u64, Khz};
use mobicore_sim::{ThreadId, Workload, WorkloadReport, WorkloadRt};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The default idleness period between bursts (§3.1: "about 40ms").
pub const DEFAULT_IDLE_US: u64 = 40_000;

#[derive(Debug, Clone, Copy)]
struct ThreadState {
    id: ThreadId,
    /// Next burst may be queued at this time.
    next_burst_at_us: u64,
    /// A burst is in flight (queued but not yet completed).
    in_flight: bool,
}

/// The busy-loop kernel app.
#[derive(Debug)]
pub struct BusyLoop {
    n_threads: usize,
    burst_cycles: u64,
    idle_us: u64,
    seed: u64,
    threads: Vec<ThreadState>,
    bursts_completed: u64,
    next_tag: u64,
    started_at_us: Option<u64>,
}

impl BusyLoop {
    /// A busy loop with an explicit burst size (CPU cycles) and idle gap.
    pub fn fixed_burst(n_threads: usize, burst_cycles: u64, idle_us: u64, seed: u64) -> Self {
        BusyLoop {
            n_threads: n_threads.max(1),
            burst_cycles: burst_cycles.max(1),
            idle_us,
            seed,
            threads: Vec::new(),
            bursts_completed: 0,
            next_tag: 0,
            started_at_us: None,
        }
    }

    /// A busy loop sized so that each thread is busy `util` of the time
    /// when running alone on a core clocked at `f_ref`:
    /// `burst = util / (1 − util) · idle · f_ref`.
    ///
    /// With `n_threads = n_cores` and `f_ref = f_max` this produces the
    /// "allowed overall CPU utilization" knob of the thesis' app.
    ///
    /// # Panics
    ///
    /// Panics if `util` is not within `(0, 1]`.
    pub fn with_target_util(n_threads: usize, util: f64, f_ref: Khz, seed: u64) -> Self {
        assert!(util > 0.0 && util <= 1.0, "util must be in (0, 1]");
        if util >= 1.0 {
            // 100 %: one giant burst per second, no idle gap.
            return BusyLoop::fixed_burst(n_threads, f_ref.cycles_in_us(1_000_000), 0, seed);
        }
        let idle = DEFAULT_IDLE_US;
        let busy_us = util / (1.0 - util) * idle as f64;
        let burst = quantize_u64((busy_us * f64::from(f_ref.0) / 1_000.0).round());
        BusyLoop::fixed_burst(n_threads, burst.max(1), idle, seed)
    }
}

impl Workload for BusyLoop {
    fn name(&self) -> &str {
        "busyloop"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.n_threads {
            let id = rt.spawn_thread();
            // Stagger thread phases so bursts do not run in lockstep.
            let stagger = if self.idle_us == 0 {
                0
            } else {
                rng.random_range(0..self.idle_us)
            };
            self.threads.push(ThreadState {
                id,
                next_burst_at_us: stagger,
                in_flight: false,
            });
        }
    }

    fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
        self.started_at_us.get_or_insert(now_us);
        // Burst completions re-arm their thread after the idle gap.
        // Completions are Copy; iterating the slice directly keeps the
        // per-tick path allocation-free.
        for &c in rt.completions() {
            if let Some(t) = self.threads.iter_mut().find(|t| t.id == c.thread) {
                t.in_flight = false;
                t.next_burst_at_us = c.time_us + self.idle_us;
                self.bursts_completed += 1;
            }
        }
        for t in &mut self.threads {
            if !t.in_flight && now_us >= t.next_burst_at_us {
                rt.push_work(t.id, self.burst_cycles, self.next_tag);
                self.next_tag += 1;
                t.in_flight = true;
            }
        }
    }

    fn report(&self, now_us: u64, rt: &WorkloadRt) -> WorkloadReport {
        let elapsed_s = (now_us - self.started_at_us.unwrap_or(0)) as f64 / 1_000_000.0;
        let throughput = if elapsed_s > 0.0 {
            rt.total_executed_cycles() as f64 / elapsed_s
        } else {
            0.0
        };
        WorkloadReport::named(self.name())
            .with_metric("bursts", self.bursts_completed as f64)
            .with_metric("throughput_hz", throughput)
            .with_metric("executed_cycles", rt.total_executed_cycles() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::profiles;
    use mobicore_sim::builtin::PinnedPolicy;
    use mobicore_sim::{SimConfig, Simulation};

    fn run_pinned(
        util: f64,
        n_threads: usize,
        n_cores: usize,
        opp: usize,
    ) -> mobicore_sim::SimReport {
        let profile = profiles::nexus5();
        let khz = profile.opps().get_clamped(opp).khz;
        let cfg = SimConfig::new(profile)
            .with_duration_secs(5)
            .without_mpdecision()
            .with_seed(42);
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(n_cores, khz))).unwrap();
        sim.add_workload(Box::new(BusyLoop::with_target_util(
            n_threads, util, khz, 42,
        )));
        sim.run()
    }

    #[test]
    fn burst_sizing_matches_duty_cycle() {
        // util 0.5 at f_ref: burst time == idle time.
        let b = BusyLoop::with_target_util(1, 0.5, Khz(1_000_000), 0);
        // 40 ms at 1 GHz = 40e6 cycles.
        assert_eq!(b.burst_cycles, 40_000_000);
        assert_eq!(b.idle_us, DEFAULT_IDLE_US);
    }

    #[test]
    fn full_util_has_no_idle() {
        let b = BusyLoop::with_target_util(2, 1.0, Khz(300_000), 0);
        assert_eq!(b.idle_us, 0);
    }

    #[test]
    #[should_panic(expected = "util must be in")]
    fn zero_util_rejected() {
        let _ = BusyLoop::with_target_util(1, 0.0, Khz(300_000), 0);
    }

    #[test]
    fn achieved_utilization_tracks_target_when_pinned() {
        for target in [0.3, 0.7] {
            let report = run_pinned(target, 1, 1, 13);
            // overall util is over 4 cores but only one is online;
            // per-online-core utilization = overall · 4.
            let per_core = report.avg_overall_util * 4.0;
            assert!(
                (per_core - target).abs() < 0.08,
                "target {target} achieved {per_core}"
            );
        }
    }

    #[test]
    fn full_load_saturates_core() {
        let report = run_pinned(1.0, 1, 1, 13);
        let per_core = report.avg_overall_util * 4.0;
        assert!(per_core > 0.95, "got {per_core}");
    }

    #[test]
    fn lower_frequency_raises_utilization() {
        // Same target-util app (sized for f_max) on a slower clock is
        // busier: iterations stretch in time.
        let profile = profiles::nexus5();
        let f_max = profile.opps().max_khz();
        let slow_khz = profile.opps().get_clamped(5).khz;
        let cfg = SimConfig::new(profile)
            .with_duration_secs(5)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, slow_khz))).unwrap();
        sim.add_workload(Box::new(BusyLoop::with_target_util(1, 0.3, f_max, 7)));
        let report = sim.run();
        let per_core = report.avg_overall_util * 4.0;
        assert!(per_core > 0.4, "stretched util {per_core}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_pinned(0.5, 2, 2, 7);
        let b = run_pinned(0.5, 2, 2, 7);
        assert_eq!(a.executed_cycles, b.executed_cycles);
        assert_eq!(a.avg_power_mw, b.avg_power_mw);
    }

    #[test]
    fn reports_bursts_and_throughput() {
        let report = run_pinned(0.5, 1, 1, 13);
        assert!(report.first_metric("bursts").unwrap() > 10.0);
        assert!(report.first_metric("throughput_hz").unwrap() > 0.0);
    }
}
