//! A CFS-flavoured task scheduler.
//!
//! Per tick it distributes runnable threads over the online cores
//! (balanced, with cache-affinity stickiness), executes their work at each
//! core's effective frequency, honours the bandwidth controller's runtime
//! allowance, and produces the per-core busy accounting every policy in
//! the paper keys off. The thesis notes (§3.2) that the default scheduler
//! "is splitting the workload over a certain number of processes" and that
//! this barely affects the per-core work — a balanced greedy assignment
//! reproduces that behaviour.

use crate::workload::{Completion, WorkloadRt};
use mobicore_model::Khz;

/// What one scheduling tick did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Busy time per core this tick, µs (indexed by core id).
    pub busy_us: Vec<u64>,
    /// Cycles executed this tick across all cores.
    pub executed_cycles: u64,
    /// Runtime consumed against the bandwidth budget, µs.
    pub used_runtime_us: u64,
    /// Runtime demand denied by the bandwidth throttle, µs.
    pub denied_us: u64,
    /// Threads runnable at the start of the tick.
    pub runnable_threads: usize,
}

/// Inputs of one scheduling tick.
#[derive(Debug, Clone, Copy)]
pub struct TickParams<'a> {
    /// Current simulation time, µs.
    pub now_us: u64,
    /// Tick length, µs.
    pub tick_us: u64,
    /// Number of physical cores (sizes the outcome vectors).
    pub n_cores: usize,
    /// Ids of online cores.
    pub online: &'a [usize],
    /// Effective frequency of every core, indexed by core id (offline
    /// cores may carry any value).
    pub khz: &'a [Khz],
    /// The CPU group's total runtime allowance for this tick from the
    /// [`BandwidthController`](crate::bandwidth::BandwidthController);
    /// each core is additionally capped at `tick_us`.
    pub global_allowance_us: u64,
    /// Which online core the budget walk starts at (rotating it each
    /// tick keeps throttling fair across cores).
    pub rotation: usize,
    /// Per-core time lost to a DVFS transition stall this tick, µs
    /// (indexed by core id; empty means no stalls).
    pub stall_us: &'a [u64],
}

/// Reusable buffers for [`schedule_tick_into`].
///
/// The simulator calls the scheduler every tick; keeping the runnable /
/// assignment vectors alive between calls removes four heap allocations
/// per tick from the hot loop (docs/performance.md).
#[derive(Debug, Default)]
pub struct SchedScratch {
    runnable: Vec<usize>,
    assigned: Vec<Vec<usize>>,
    unplaced: Vec<usize>,
}

/// Runs one scheduling tick, writing the result into `outcome` and reusing
/// the buffers in `scratch` (allocation-free once they are warm).
pub fn schedule_tick_into(
    rt: &mut WorkloadRt,
    p: &TickParams<'_>,
    scratch: &mut SchedScratch,
    outcome: &mut TickOutcome,
) {
    let TickParams {
        now_us,
        tick_us,
        n_cores,
        online,
        khz,
        global_allowance_us,
        rotation,
        stall_us,
    } = *p;
    outcome.busy_us.clear();
    outcome.busy_us.resize(n_cores, 0);
    outcome.executed_cycles = 0;
    outcome.used_runtime_us = 0;
    outcome.denied_us = 0;
    scratch.runnable.clear();
    scratch
        .runnable
        .extend((0..rt.threads.len()).filter(|&t| rt.threads[t].runnable()));
    let runnable = &scratch.runnable;
    outcome.runnable_threads = runnable.len();
    if online.is_empty() || runnable.is_empty() {
        return;
    }

    // --- assignment: balanced greedy with affinity stickiness ---------
    let per_core_target = runnable.len().div_ceil(online.len());
    if scratch.assigned.len() < n_cores {
        scratch.assigned.resize_with(n_cores, Vec::new);
    }
    let assigned = &mut scratch.assigned;
    for a in assigned.iter_mut() {
        a.clear();
    }
    scratch.unplaced.clear();
    for &t in runnable {
        match rt.threads[t].last_core {
            Some(c) if online.contains(&c) && assigned[c].len() < per_core_target => {
                assigned[c].push(t);
            }
            _ => scratch.unplaced.push(t),
        }
    }
    for &t in &scratch.unplaced {
        // least-loaded online core, ties to the lowest id
        let &c = online
            .iter()
            .min_by_key(|&&c| (assigned[c].len(), c))
            .expect("online is non-empty");
        assigned[c].push(t);
        rt.threads[t].last_core = Some(c);
    }

    // --- execution ------------------------------------------------------
    let mut pool_us = global_allowance_us;
    let start = if online.is_empty() {
        0
    } else {
        rotation % online.len()
    };
    for k in 0..online.len() {
        let c = online[(start + k) % online.len()];
        if assigned[c].is_empty() {
            continue;
        }
        let stall = stall_us.get(c).copied().unwrap_or(0).min(tick_us);
        let allowed_us = (tick_us - stall).min(pool_us);
        let f = khz[c];
        let capacity = f.cycles_in_us(allowed_us);
        let mut left = capacity;
        let mut had_leftover_work = false;
        for &t in &assigned[c] {
            let thread = &mut rt.threads[t];
            thread.last_core = Some(c);
            while left > 0 {
                let Some(item) = thread.queue.front_mut() else {
                    break;
                };
                let run = item.cycles_left.min(left);
                item.cycles_left -= run;
                left -= run;
                thread.executed_cycles += run;
                if item.cycles_left == 0 {
                    let done = thread.queue.pop_front().expect("front exists");
                    let consumed = capacity - left;
                    let at = now_us + f.us_for_cycles(consumed).min(tick_us);
                    rt.completions.push(Completion {
                        thread: t,
                        tag: done.tag,
                        time_us: at,
                    });
                } else {
                    break; // capacity exhausted mid-item
                }
            }
            if thread.runnable() {
                had_leftover_work = true;
            }
        }
        let used_cycles = capacity - left;
        outcome.executed_cycles += used_cycles;
        let busy = if capacity == 0 {
            0
        } else {
            // Proportional share of the allowance actually used.
            u64::try_from(u128::from(allowed_us) * u128::from(used_cycles) / u128::from(capacity))
                .expect("share is bounded by allowed_us")
        };
        outcome.busy_us[c] = busy;
        outcome.used_runtime_us += busy;
        pool_us = pool_us.saturating_sub(busy);
        if had_leftover_work && allowed_us < tick_us {
            outcome.denied_us += tick_us - allowed_us;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one tick on fresh scratch buffers (test shorthand for the
    /// params struct).
    #[allow(clippy::too_many_arguments)]
    fn st(
        rt: &mut WorkloadRt,
        now: u64,
        tick: u64,
        n: usize,
        online: &[usize],
        khz: &[Khz],
        allow: u64,
        rot: usize,
    ) -> TickOutcome {
        let p = TickParams {
            now_us: now,
            tick_us: tick,
            n_cores: n,
            online,
            khz,
            global_allowance_us: allow,
            rotation: rot,
            stall_us: &[],
        };
        let mut outcome = TickOutcome::default();
        schedule_tick_into(rt, &p, &mut SchedScratch::default(), &mut outcome);
        outcome
    }

    fn rt_with_threads(n: usize) -> WorkloadRt {
        let mut rt = WorkloadRt::new();
        for _ in 0..n {
            rt.spawn_thread();
        }
        rt
    }

    const F: Khz = Khz(1_000); // 1 MHz: 1 cycle/µs, 1000 cycles per 1 ms tick

    #[test]
    fn no_work_no_busy() {
        let mut rt = rt_with_threads(2);
        let o = st(&mut rt, 0, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        assert_eq!(o.busy_us, vec![0; 4]);
        assert_eq!(o.executed_cycles, 0);
        assert_eq!(o.runnable_threads, 0);
    }

    #[test]
    fn runnable_threads_counted_with_no_core_online() {
        let mut rt = rt_with_threads(3);
        rt.push_work(0, 100, 0);
        rt.push_work(2, 100, 0);
        let o = st(&mut rt, 0, 1_000, 4, &[], &[F; 4], 4_000, 0);
        assert_eq!(o.runnable_threads, 2);
        assert_eq!(o.executed_cycles, 0);
    }

    #[test]
    fn single_thread_runs_on_one_core() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 500, 1);
        let o = st(&mut rt, 0, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        assert_eq!(o.executed_cycles, 500);
        assert_eq!(o.busy_us.iter().filter(|&&b| b > 0).count(), 1);
        assert_eq!(o.busy_us[0], 500, "half the tick at 1 cycle/µs");
        assert_eq!(rt.completions().len(), 1);
        assert_eq!(rt.completions()[0].tag, 1);
        assert!(rt.completions()[0].time_us <= 1_000);
    }

    #[test]
    fn threads_spread_across_cores() {
        let mut rt = rt_with_threads(4);
        for t in 0..4 {
            rt.push_work(t, 10_000, t as u64);
        }
        let o = st(&mut rt, 0, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        assert_eq!(o.busy_us, vec![1_000; 4], "each core fully busy");
        assert_eq!(o.executed_cycles, 4_000);
        assert!(rt.completions().is_empty(), "nothing finished");
    }

    #[test]
    fn affinity_stickiness_across_ticks() {
        let mut rt = rt_with_threads(2);
        rt.push_work(0, 10_000, 0);
        rt.push_work(1, 10_000, 1);
        st(&mut rt, 0, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        let c0 = rt.threads[0].last_core.unwrap();
        let c1 = rt.threads[1].last_core.unwrap();
        st(&mut rt, 1_000, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        assert_eq!(rt.threads[0].last_core.unwrap(), c0);
        assert_eq!(rt.threads[1].last_core.unwrap(), c1);
        assert_ne!(c0, c1);
    }

    #[test]
    fn offline_cores_get_nothing() {
        let mut rt = rt_with_threads(4);
        for t in 0..4 {
            rt.push_work(t, 10_000, 0);
        }
        let o = st(&mut rt, 0, 1_000, 4, &[0, 2], &[F; 4], 2_000, 0);
        assert_eq!(o.busy_us[1], 0);
        assert_eq!(o.busy_us[3], 0);
        assert_eq!(o.busy_us[0], 1_000);
        assert_eq!(o.busy_us[2], 1_000);
    }

    #[test]
    fn migration_off_an_offlined_core() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 50_000, 0);
        st(&mut rt, 0, 1_000, 4, &[0, 1, 2, 3], &[F; 4], 4_000, 0);
        let first = rt.threads[0].last_core.unwrap();
        // Take that core offline; thread must migrate.
        let remaining: Vec<usize> = (0..4).filter(|&c| c != first).collect();
        let o = st(&mut rt, 1_000, 1_000, 4, &remaining, &[F; 4], 3_000, 0);
        let new_core = rt.threads[0].last_core.unwrap();
        assert_ne!(new_core, first);
        assert_eq!(o.busy_us[first], 0);
        assert_eq!(o.busy_us[new_core], 1_000);
    }

    #[test]
    fn quota_allowance_limits_execution() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 10_000, 0);
        let o = st(&mut rt, 0, 1_000, 1, &[0], &[F], 400, 0);
        assert_eq!(o.busy_us[0], 400);
        assert_eq!(o.executed_cycles, 400);
        assert_eq!(o.denied_us, 600, "throttled demand recorded");
    }

    #[test]
    fn faster_core_does_more_cycles_same_busy_time() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 10_000_000, 0);
        let slow = st(&mut rt, 0, 1_000, 1, &[0], &[Khz(500_000)], 1_000, 0);
        let mut rt2 = rt_with_threads(1);
        rt2.push_work(0, 10_000_000, 0);
        let fast = st(&mut rt2, 0, 1_000, 1, &[0], &[Khz(2_000_000)], 1_000, 0);
        assert_eq!(slow.busy_us[0], 1_000);
        assert_eq!(fast.busy_us[0], 1_000);
        assert_eq!(fast.executed_cycles, 4 * slow.executed_cycles);
    }

    #[test]
    fn partial_work_leaves_core_partially_busy() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 250, 9);
        let o = st(&mut rt, 0, 1_000, 1, &[0], &[F], 1_000, 0);
        assert_eq!(o.busy_us[0], 250);
        assert_eq!(o.denied_us, 0);
        assert_eq!(rt.completions()[0].time_us, 250);
    }

    #[test]
    fn multiple_items_complete_in_order_with_timestamps() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 100, 1);
        rt.push_work(0, 100, 2);
        let o = st(&mut rt, 5_000, 1_000, 1, &[0], &[F], 1_000, 0);
        assert_eq!(o.executed_cycles, 200);
        let done = rt.completions();
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].tag, done[1].tag), (1, 2));
        assert!(done[0].time_us <= done[1].time_us);
        assert_eq!(done[0].time_us, 5_100);
        assert_eq!(done[1].time_us, 5_200);
    }

    #[test]
    fn more_threads_than_cores_share() {
        let mut rt = rt_with_threads(8);
        for t in 0..8 {
            rt.push_work(t, 100, t as u64);
        }
        let o = st(&mut rt, 0, 1_000, 2, &[0, 1], &[F; 4], 2_000, 0);
        // 8 × 100 cycles = 800 cycles over 2 cores at 1000 cycles each.
        assert_eq!(o.executed_cycles, 800);
        assert_eq!(rt.completions().len(), 8);
    }

    #[test]
    fn stall_reduces_capacity_sub_tick() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 10_000, 0);
        let p = TickParams {
            now_us: 0,
            tick_us: 1_000,
            n_cores: 1,
            online: &[0],
            khz: &[F],
            global_allowance_us: 1_000,
            rotation: 0,
            stall_us: &[300],
        };
        let mut o = TickOutcome::default();
        schedule_tick_into(&mut rt, &p, &mut SchedScratch::default(), &mut o);
        // 300 µs lost to the transition: 700 cycles at 1 cycle/µs.
        assert_eq!(o.executed_cycles, 700);
        assert_eq!(o.busy_us[0], 700);
    }

    #[test]
    fn zero_frequency_core_executes_nothing() {
        let mut rt = rt_with_threads(1);
        rt.push_work(0, 100, 0);
        let o = st(&mut rt, 0, 1_000, 1, &[0], &[Khz::ZERO], 1_000, 0);
        assert_eq!(o.executed_cycles, 0);
        assert_eq!(o.busy_us[0], 0);
    }
}
