//! A GeekBench-4-flavoured scored CPU benchmark (§3.5, §6.1.1).
//!
//! > "This application performs a complex real-life benchmark on the
//! > available CPU resources to push the limits of the system ... The
//! > score represents the use of 1 single thread running on each of the
//! > active CPU cores."
//!
//! The suite alternates single-threaded and multi-threaded phases. Each
//! phase is a sequence of fixed-cycle *chunks* separated by a fixed
//! memory-stall gap that does **not** scale with frequency — that stall is
//! what makes measured performance plateau at high frequency (paper
//! Figure 6) and the 4-core performance/power ratio roll over after
//! ~960 MHz (Figure 7).

use mobicore_sim::{ThreadId, Workload, WorkloadReport, WorkloadRt};

/// One benchmark phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Worker threads the phase keeps busy.
    pub threads: usize,
    /// Cycles per chunk.
    pub chunk_cycles: u64,
    /// Memory-stall gap between chunks, µs (frequency independent).
    pub stall_us: u64,
    /// Chunks per thread to finish the phase.
    pub chunks: u64,
}

/// The benchmark application.
#[derive(Debug)]
pub struct GeekBenchApp {
    phases: Vec<Phase>,
    max_threads: usize,
    threads: Vec<ThreadId>,
    /// (phase index, chunks completed in phase across threads)
    cur_phase: usize,
    chunks_done: u64,
    /// Per-thread: next chunk may be queued at this time.
    next_chunk_at: Vec<u64>,
    in_flight: Vec<bool>,
    suites_completed: u64,
    suite_started_us: u64,
    suite_durations_us: Vec<u64>,
    started: bool,
}

impl GeekBenchApp {
    /// A suite with explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero threads/chunks.
    pub fn with_phases(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.threads > 0 && p.chunks > 0),
            "phases need threads and chunks"
        );
        let max_threads = phases.iter().map(|p| p.threads).max().unwrap_or(1);
        GeekBenchApp {
            phases,
            max_threads,
            threads: Vec::new(),
            cur_phase: 0,
            chunks_done: 0,
            next_chunk_at: Vec::new(),
            in_flight: Vec::new(),
            suites_completed: 0,
            suite_started_us: 0,
            suite_durations_us: Vec::new(),
            started: false,
        }
    }

    /// The default suite, shaped for an `n_cores`-core device: integer,
    /// float and crypto-like single-core phases plus matching multi-core
    /// phases.
    pub fn standard(n_cores: usize) -> Self {
        let n = n_cores.max(1);
        GeekBenchApp::with_phases(vec![
            // single-core: compute-heavy, light stalls
            Phase {
                threads: 1,
                chunk_cycles: 12_000_000,
                stall_us: 800,
                chunks: 24,
            },
            // single-core: memory-heavier
            Phase {
                threads: 1,
                chunk_cycles: 6_000_000,
                stall_us: 2_200,
                chunks: 24,
            },
            // multi-core: embarrassingly parallel
            Phase {
                threads: n,
                chunk_cycles: 10_000_000,
                stall_us: 900,
                chunks: 16,
            },
            // multi-core: bandwidth-bound
            Phase {
                threads: n,
                chunk_cycles: 5_000_000,
                stall_us: 2_600,
                chunks: 16,
            },
        ])
    }

    fn phase(&self) -> Phase {
        self.phases[self.cur_phase]
    }

    fn phase_total_chunks(&self) -> u64 {
        let p = self.phase();
        p.chunks * p.threads as u64
    }

    /// The reference duration a suite would take on an idealized 1 GHz
    /// single-issue core with no stalls, µs — used to normalize the score.
    fn reference_us(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| {
                let cycles = p.chunk_cycles * p.chunks * p.threads as u64;
                cycles as f64 / 1_000.0 // 1 GHz = 1000 cycles/µs
            })
            .sum()
    }

    /// The score: 1000 × (reference time / measured mean suite time).
    /// Partial progress counts when no full suite finished.
    pub fn score(&self, now_us: u64) -> f64 {
        let mean_us = if self.suite_durations_us.is_empty() {
            // extrapolate from partial progress
            let total: u64 = self
                .phases
                .iter()
                .map(|p| p.chunks * p.threads as u64)
                .sum();
            let done: u64 = self.phases[..self.cur_phase]
                .iter()
                .map(|p| p.chunks * p.threads as u64)
                .sum::<u64>()
                + self.chunks_done;
            if done == 0 {
                return 0.0;
            }
            (now_us - self.suite_started_us) as f64 * total as f64 / done as f64
        } else {
            self.suite_durations_us.iter().sum::<u64>() as f64
                / self.suite_durations_us.len() as f64
        };
        if mean_us <= 0.0 {
            return 0.0;
        }
        1_000.0 * self.reference_us() / mean_us
    }
}

impl Workload for GeekBenchApp {
    fn name(&self) -> &str {
        "geekbench"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        for _ in 0..self.max_threads {
            self.threads.push(rt.spawn_thread());
        }
        self.next_chunk_at = vec![0; self.max_threads];
        self.in_flight = vec![false; self.max_threads];
    }

    fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
        if !self.started {
            self.started = true;
            self.suite_started_us = now_us;
        }
        // Completions are Copy; iterating the slice directly keeps the
        // per-tick path allocation-free.
        for &c in rt.completions() {
            if let Some(slot) = self.threads.iter().position(|&t| t == c.thread) {
                self.in_flight[slot] = false;
                self.next_chunk_at[slot] = c.time_us + self.phase().stall_us;
                self.chunks_done += 1;
            }
        }
        // Phase / suite roll-over.
        if self.chunks_done >= self.phase_total_chunks() && self.in_flight.iter().all(|f| !f) {
            self.chunks_done = 0;
            self.cur_phase += 1;
            if self.cur_phase >= self.phases.len() {
                self.cur_phase = 0;
                self.suites_completed += 1;
                self.suite_durations_us.push(now_us - self.suite_started_us);
                self.suite_started_us = now_us;
            }
            for at in &mut self.next_chunk_at {
                *at = (*at).max(now_us);
            }
        }
        // Queue chunks for the current phase's threads.
        let p = self.phase();
        let remaining_to_queue = self.phase_total_chunks().saturating_sub(
            self.chunks_done + self.in_flight.iter().filter(|&&f| f).count() as u64,
        );
        let mut can_queue = remaining_to_queue;
        for slot in 0..p.threads.min(self.max_threads) {
            if can_queue == 0 {
                break;
            }
            if !self.in_flight[slot] && now_us >= self.next_chunk_at[slot] {
                rt.push_work(self.threads[slot], p.chunk_cycles, self.cur_phase as u64);
                self.in_flight[slot] = true;
                can_queue -= 1;
            }
        }
    }

    fn report(&self, now_us: u64, _rt: &WorkloadRt) -> WorkloadReport {
        WorkloadReport::named(self.name())
            .with_metric("score", self.score(now_us))
            .with_metric("suites", self.suites_completed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::{profiles, Khz};
    use mobicore_sim::builtin::PinnedPolicy;
    use mobicore_sim::{SimConfig, Simulation};

    fn score_at(n_cores: usize, khz: Khz, secs: u64) -> f64 {
        let profile = profiles::nexus5();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(secs)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(n_cores, khz))).unwrap();
        sim.add_workload(Box::new(GeekBenchApp::standard(n_cores)));
        let report = sim.run();
        report.first_metric("score").unwrap()
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = GeekBenchApp::with_phases(vec![]);
    }

    #[test]
    fn score_increases_with_frequency() {
        let slow = score_at(1, Khz(652_800), 10);
        let fast = score_at(1, Khz(2_265_600), 10);
        assert!(fast > slow * 1.5, "slow {slow} fast {fast}");
    }

    #[test]
    fn score_saturates_at_high_frequency() {
        // Fig 6: the last OPP steps buy less than proportional score.
        let p = profiles::nexus5();
        let f = |i: usize| p.opps().get_clamped(i).khz;
        let s_mid = score_at(1, f(9), 10); // 1.4976 GHz
        let s_top = score_at(1, f(13), 10); // 2.2656 GHz
        let freq_gain = f(13).as_hz() / f(9).as_hz();
        let score_gain = s_top / s_mid;
        assert!(
            score_gain < freq_gain * 0.93,
            "score gain {score_gain} vs freq gain {freq_gain}"
        );
        assert!(score_gain > 1.0);
    }

    #[test]
    fn four_cores_beat_one() {
        let one = score_at(1, Khz(2_265_600), 10);
        let four = score_at(4, Khz(2_265_600), 10);
        assert!(four > one * 1.3, "one {one} four {four}");
    }

    #[test]
    fn score_is_deterministic() {
        let a = score_at(2, Khz(960_000), 5);
        let b = score_at(2, Khz(960_000), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn partial_progress_scores_nonzero() {
        // A short run that cannot finish a suite still reports a score.
        let s = score_at(1, Khz(300_000), 2);
        assert!(s > 0.0);
    }

    #[test]
    fn suites_counted() {
        let profile = profiles::nexus5();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(20)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, Khz(2_265_600)))).unwrap();
        sim.add_workload(Box::new(GeekBenchApp::standard(4)));
        let report = sim.run();
        assert!(report.first_metric("suites").unwrap() >= 1.0);
    }
}
