//! Model check of the executor's deal/steal core, `src/pool.rs`, the
//! same file the library compiles.
//!
//! `pool.rs` names its lock only as `super::sync::Mutex`; here that is
//! the `mobicore_analyze` explorer's mutex, so every lock and unlock in
//! `deal`, `work` and `steal` is a scheduling point. The driver plays
//! worker 0 and spawns the rest; every job fills its submission slot,
//! and the checks hold on every schedule with at most two preemptions:
//! no job runs twice, and every slot is filled once the pool drains.
//!
//! The sizes matter. A steal takes the back half of a victim's deque,
//! runs its first job at once and appends the rest to the thief's own
//! deque. With 3 jobs no deque holds more than 2, so no steal appends
//! anything; at 2 workers × 6 jobs a steal of 2 appends one. A steal
//! that dropped what it appends passes the smaller cases and fails
//! 2 × 6.

mod sync {
    pub use mobicore_analyze::model::sync::Mutex;
}

#[path = "../src/pool.rs"]
mod pool;

use mobicore_analyze::model::sync::Arc;
use mobicore_analyze::model::{thread, Model, Outcome};
use sync::Mutex;

/// Runs `pool::work` for worker `me`; each job writes its item into
/// its submission slot and asserts the slot was empty.
fn worker(deques: &[pool::Deque<usize>], slots: &[Mutex<Option<usize>>], me: usize) {
    pool::work(deques, me, |idx, item| {
        let prev = pool::lock_unpoisoned(slots[idx].lock()).replace(item);
        assert!(prev.is_none(), "job {idx} must run exactly once");
    });
}

/// Explores `workers` workers draining `jobs` dealt jobs.
fn check(workers: usize, jobs: usize) -> Outcome {
    Model::new().with_preemption_bound(2).check(move || {
        let deques = Arc::new(pool::deal((0..jobs).collect(), workers));
        let slots: Arc<Vec<Mutex<Option<usize>>>> =
            Arc::new((0..jobs).map(|_| Mutex::new(None)).collect());
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let (deques, slots) = (Arc::clone(&deques), Arc::clone(&slots));
                thread::spawn(move || worker(&deques, &slots, w))
            })
            .collect();
        worker(&deques, &slots, 0);
        for h in handles {
            h.join().expect("worker joins");
        }
        for (j, slot) in slots.iter().enumerate() {
            assert_eq!(
                *pool::lock_unpoisoned(slot.lock()),
                Some(j),
                "result slot {j} must be filled"
            );
        }
    })
}

fn assert_verified(workers: usize, jobs: usize) {
    let outcome = check(workers, jobs);
    outcome.assert_passed(&format!("pool, {workers} workers x {jobs} jobs"));
    assert!(outcome.complete, "bounded space exhausted: {outcome:?}");
    assert!(
        outcome.schedules > 10,
        "interleavings explored: {outcome:?}"
    );
}

#[test]
fn two_workers_three_jobs_run_each_job_once() {
    assert_verified(2, 3);
}

#[test]
fn three_workers_three_jobs_run_each_job_once() {
    assert_verified(3, 3);
}

#[test]
fn two_workers_six_jobs_keep_the_appended_steal() {
    assert_verified(2, 6);
}
