//! Everyday-app patterns beyond games: app launches and video playback.
//!
//! The thesis motivates MobiCore with games but positions it as a general
//! CPU-management policy; these workloads exercise the burst-mode /
//! slow-mode transitions of Table 2 on the patterns a phone actually
//! spends its day on.

use mobicore_sim::{ThreadId, Wake, Workload, WorkloadReport, WorkloadRt};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An app-launch storm: long idle, then a multi-thread burst (process
/// start, JIT, layout, first frame), then moderate steady activity —
/// repeated. The canonical burst-mode test for the ΔU analysis.
#[derive(Debug)]
pub struct AppLaunch {
    /// Cycles of the launch burst on the main thread.
    pub burst_cycles: u64,
    /// Worker threads helping during the burst.
    pub helpers: usize,
    /// Cycles each helper burns per launch.
    pub helper_cycles: u64,
    /// Idle gap between launches, µs.
    pub idle_gap_us: u64,
    /// Steady post-launch activity duration, µs.
    pub settle_us: u64,
    seed: u64,
    threads: Vec<ThreadId>,
    state: LaunchState,
    launches: u64,
    launch_latencies_us: Vec<u64>,
    rng: Option<StdRng>,
    next_tag: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LaunchState {
    Idle { until_us: u64 },
    Launching { started_us: u64, outstanding: u64 },
    Settling { until_us: u64, burst_done_us: u64 },
}

impl AppLaunch {
    /// A Nexus-5-scale launch pattern: ~0.6 s of single-plus-helpers CPU
    /// burst at f_max, every `idle_gap_us`.
    pub fn new(idle_gap_us: u64, seed: u64) -> Self {
        AppLaunch {
            burst_cycles: 1_200_000_000, // ~0.53 s at f_max
            helpers: 2,
            helper_cycles: 400_000_000,
            idle_gap_us,
            settle_us: 1_500_000,
            seed,
            threads: Vec::new(),
            state: LaunchState::Idle { until_us: 0 },
            launches: 0,
            launch_latencies_us: Vec::new(),
            rng: None,
            next_tag: 0,
        }
    }

    /// Completed launches.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Mean launch latency so far, µs (0 before the first launch).
    pub fn mean_launch_latency_us(&self) -> f64 {
        if self.launch_latencies_us.is_empty() {
            0.0
        } else {
            self.launch_latencies_us.iter().sum::<u64>() as f64
                / self.launch_latencies_us.len() as f64
        }
    }
}

impl Workload for AppLaunch {
    fn name(&self) -> &str {
        "app-launch"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        self.rng = Some(StdRng::seed_from_u64(self.seed));
        for _ in 0..(1 + self.helpers) {
            self.threads.push(rt.spawn_thread());
        }
        let jitter = self
            .rng
            .as_mut()
            .expect("just set")
            .random_range(0..=self.idle_gap_us / 2);
        self.state = LaunchState::Idle { until_us: jitter };
    }

    fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
        match self.state {
            LaunchState::Idle { until_us } => {
                if now_us >= until_us {
                    // Kick the burst.
                    rt.push_work(self.threads[0], self.burst_cycles, self.next_tag);
                    self.next_tag += 1;
                    let mut outstanding = 1;
                    for h in 1..=self.helpers {
                        rt.push_work(self.threads[h], self.helper_cycles, self.next_tag);
                        self.next_tag += 1;
                        outstanding += 1;
                    }
                    self.state = LaunchState::Launching {
                        started_us: now_us,
                        outstanding,
                    };
                }
            }
            LaunchState::Launching {
                started_us,
                mut outstanding,
            } => {
                let done = rt
                    .completions()
                    .iter()
                    .filter(|c| self.threads.contains(&c.thread))
                    .count() as u64;
                outstanding = outstanding.saturating_sub(done);
                if outstanding == 0 {
                    self.launches += 1;
                    self.launch_latencies_us.push(now_us - started_us);
                    self.state = LaunchState::Settling {
                        until_us: now_us + self.settle_us,
                        burst_done_us: now_us,
                    };
                } else {
                    self.state = LaunchState::Launching {
                        started_us,
                        outstanding,
                    };
                }
            }
            LaunchState::Settling {
                until_us,
                burst_done_us,
            } => {
                // Light steady activity: small chunks on the main thread.
                if rt.pending_cycles(self.threads[0]) == 0 {
                    let _ = burst_done_us;
                    rt.push_work(self.threads[0], 3_000_000, self.next_tag);
                    self.next_tag += 1;
                }
                if now_us >= until_us {
                    self.state = LaunchState::Idle {
                        until_us: now_us + self.idle_gap_us,
                    };
                }
            }
        }
    }

    fn next_tick_us(&self, _now_us: u64) -> Wake {
        match self.state {
            // Ticks before the gap expires match the Idle arm's
            // `now_us < until_us` branch: nothing happens.
            LaunchState::Idle { until_us } => Wake::At(until_us),
            // Launching watches completions; Settling tops work up as
            // soon as the main thread drains — both need every tick.
            LaunchState::Launching { .. } | LaunchState::Settling { .. } => Wake::EveryTick,
        }
    }

    fn report(&self, _now_us: u64, _rt: &WorkloadRt) -> WorkloadReport {
        WorkloadReport::named(self.name())
            .with_metric("launches", self.launches as f64)
            .with_metric(
                "mean_launch_latency_ms",
                self.mean_launch_latency_us() / 1_000.0,
            )
    }
}

/// Video playback: a strictly periodic, light decode job — 30 frames per
/// second, each cheap. The steadiest workload a phone sees; a policy that
/// cannot idle down here wastes battery on every movie.
#[derive(Debug)]
pub struct VideoPlayback {
    /// Decode cost per frame, cycles.
    pub frame_cycles: u64,
    /// Frame period, µs (33 333 = 30 fps).
    pub period_us: u64,
    thread: ThreadId,
    next_frame_at: Option<u64>,
    frames_decoded: u64,
    deadline_misses: u64,
    next_tag: u64,
    inflight_deadline: Option<u64>,
}

impl VideoPlayback {
    /// 30 fps playback costing `frame_cycles` per frame
    /// (default ≈ 12 M cycles ≈ 5 ms at 2.27 GHz).
    pub fn new(frame_cycles: u64) -> Self {
        VideoPlayback {
            frame_cycles: frame_cycles.max(1),
            period_us: 33_333,
            thread: 0,
            next_frame_at: None,
            frames_decoded: 0,
            deadline_misses: 0,
            next_tag: 0,
            inflight_deadline: None,
        }
    }

    /// Frames decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Frames that finished after their presentation deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }
}

impl Workload for VideoPlayback {
    fn name(&self) -> &str {
        "video-playback"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        self.thread = rt.spawn_thread();
    }

    fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
        // Completions are Copy; iterating the slice directly keeps the
        // per-tick path allocation-free.
        for &c in rt.completions() {
            if c.thread == self.thread {
                self.frames_decoded += 1;
                if let Some(deadline) = self.inflight_deadline.take() {
                    if c.time_us > deadline {
                        self.deadline_misses += 1;
                    }
                }
            }
        }
        let next_at = *self.next_frame_at.get_or_insert(now_us);
        if now_us >= next_at && self.inflight_deadline.is_none() {
            rt.push_work(self.thread, self.frame_cycles, self.next_tag);
            self.next_tag += 1;
            self.inflight_deadline = Some(next_at + self.period_us);
            self.next_frame_at = Some(next_at + self.period_us);
        }
    }

    fn next_tick_us(&self, _now_us: u64) -> Wake {
        // A frame in flight means a completion may land any tick, and
        // before the first tick the playback clock is not anchored yet.
        if self.inflight_deadline.is_some() {
            return Wake::EveryTick;
        }
        match self.next_frame_at {
            // Between frames nothing happens until the next frame is due.
            Some(t) => Wake::At(t),
            None => Wake::EveryTick,
        }
    }

    fn report(&self, now_us: u64, _rt: &WorkloadRt) -> WorkloadReport {
        let start = self
            .next_frame_at
            .map(|n| n.saturating_sub(self.frames_decoded * self.period_us + self.period_us))
            .unwrap_or(now_us);
        let expected = now_us.saturating_sub(start) / self.period_us;
        WorkloadReport::named(self.name())
            .with_metric("frames", self.frames_decoded as f64)
            .with_metric("deadline_misses", self.deadline_misses as f64)
            .with_metric(
                "completion_rate",
                if expected == 0 {
                    1.0
                } else {
                    self.frames_decoded as f64 / expected as f64
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::profiles;
    use mobicore_sim::builtin::PinnedPolicy;
    use mobicore_sim::{SimConfig, Simulation};

    #[test]
    fn video_meets_deadlines_on_fast_hardware() {
        let profile = profiles::nexus5();
        let f = profile.opps().max_khz();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(5)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, f))).unwrap();
        sim.add_workload(Box::new(VideoPlayback::new(12_000_000)));
        let r = sim.run();
        assert!(r.first_metric("frames").unwrap() > 140.0, "≈150 at 30 fps");
        assert_eq!(r.first_metric("deadline_misses").unwrap(), 0.0);
        assert!(r.first_metric("completion_rate").unwrap() > 0.95);
    }

    #[test]
    fn video_misses_deadlines_when_starved() {
        let profile = profiles::nexus5();
        let f_min = profile.opps().min_khz();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(5)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, f_min))).unwrap();
        // 20 M cycles per frame at 300 MHz = 66 ms > 33 ms period.
        sim.add_workload(Box::new(VideoPlayback::new(20_000_000)));
        let r = sim.run();
        assert!(r.first_metric("deadline_misses").unwrap() > 0.0);
        assert!(r.first_metric("completion_rate").unwrap() < 0.7);
    }

    #[test]
    fn app_launch_completes_and_measures_latency() {
        let profile = profiles::nexus5();
        let f = profile.opps().max_khz();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(12)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, f))).unwrap();
        sim.add_workload(Box::new(AppLaunch::new(2_000_000, 4)));
        let r = sim.run();
        let launches = r.first_metric("launches").unwrap();
        assert!(launches >= 2.0, "got {launches}");
        let latency = r.first_metric("mean_launch_latency_ms").unwrap();
        assert!(latency > 100.0 && latency < 2_000.0, "latency {latency} ms");
    }

    #[test]
    fn app_launch_latency_suffers_on_slow_hardware() {
        let profile = profiles::nexus5();
        let run_at = |opp: usize| {
            let khz = profile.opps().get_clamped(opp).khz;
            let cfg = SimConfig::new(profile.clone())
                .with_duration_secs(15)
                .without_mpdecision();
            let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, khz))).unwrap();
            sim.add_workload(Box::new(AppLaunch::new(2_000_000, 4)));
            sim.run().first_metric("mean_launch_latency_ms").unwrap()
        };
        let fast = run_at(13);
        let slow = run_at(3);
        assert!(slow > fast * 1.5, "fast {fast} slow {slow}");
    }
}
