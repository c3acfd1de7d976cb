//! Failure-mode tests for the sweep executor: a panicking job must not
//! deadlock the pool or lose its siblings' results.
//!
//! The companion concurrency claims (exactly-once execution under
//! stealing) are model-checked on `src/pool.rs` itself by
//! `tests/model.rs`; these tests cover the unwind paths the model does
//! not simulate.

use mobicore_sweep::Executor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn panicking_job_does_not_deadlock_or_lose_siblings() {
    let ran = AtomicUsize::new(0);
    let exec = Executor::new(4);
    let settled = exec.run_settled((0..64u64).collect(), |_, x| {
        ran.fetch_add(1, Ordering::Relaxed);
        if x == 13 {
            panic!("job {x} diverged");
        }
        x * 2
    });
    // Every job ran despite the panic — the pool settled, no deadlock.
    assert_eq!(ran.load(Ordering::Relaxed), 64);
    assert_eq!(settled.len(), 64);
    for (i, s) in settled.iter().enumerate() {
        if i == 13 {
            let p = s.as_ref().expect_err("job 13 panicked");
            assert_eq!(p.index, 13);
            assert!(p.message().contains("job 13 diverged"), "{}", p.message());
        } else {
            assert_eq!(*s.as_ref().expect("sibling result kept"), i as u64 * 2);
        }
    }
}

#[test]
fn run_ordered_propagates_the_panic() {
    let exec = Executor::new(4);
    let err = catch_unwind(AssertUnwindSafe(|| {
        exec.run_ordered((0..32u64).collect(), |_, x| {
            if x == 7 {
                panic!("boom at {x}");
            }
            x
        })
    }))
    .expect_err("run_ordered re-raises the job panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("boom at 7"), "unexpected payload: {msg}");
}

#[test]
fn first_panic_in_submission_order_wins() {
    // Two jobs panic; whichever *runs* first is a scheduling accident,
    // but run_ordered must deterministically re-raise the one with the
    // lower submission index.
    for _ in 0..20 {
        let exec = Executor::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            exec.run_ordered((0..32u64).collect(), |_, x| {
                if x == 5 {
                    panic!("first by index");
                }
                if x == 29 {
                    panic!("last by index");
                }
                x
            })
        }))
        .expect_err("panics propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(msg, "first by index");
    }
}

#[test]
fn settled_sequential_path_matches_parallel() {
    for jobs in [1, 4] {
        let exec = Executor::new(jobs);
        let settled = exec.run_settled((0..10u32).collect(), |_, x| {
            if x % 3 == 0 {
                panic!("multiple of three");
            }
            x
        });
        for (i, s) in settled.iter().enumerate() {
            assert_eq!(s.is_err(), i % 3 == 0, "jobs={jobs} slot={i}");
        }
    }
}

#[test]
fn survivors_stay_in_submission_order() {
    let exec = Executor::new(8);
    let settled = exec.run_settled((0..257u64).collect(), |i, x| {
        assert_eq!(i as u64, x);
        if x % 17 == 0 {
            panic!("unlucky");
        }
        x + 1
    });
    let survivors: Vec<u64> = settled.into_iter().filter_map(Result::ok).collect();
    let expected: Vec<u64> = (0..257u64).filter(|x| x % 17 != 0).map(|x| x + 1).collect();
    assert_eq!(survivors, expected);
}

#[test]
fn executor_is_reusable_after_a_panicking_sweep() {
    let exec = Executor::new(4);
    let _ = exec.run_settled((0..16u32).collect(), |_, _| -> u32 { panic!("all fail") });
    let out = exec.run_ordered((0..16u32).collect(), |_, x| x + 1);
    assert_eq!(out, (1..=16u32).collect::<Vec<_>>());
}
