//! # mobicore-sweep
//!
//! A dependency-free, hand-rolled work-stealing executor for running
//! design-space sweeps — (policy × workload × profile × seed) simulation
//! jobs — concurrently with **deterministic, submission-ordered result
//! collection**.
//!
//! The thesis's evaluation is a sweep (Figures 8–13, Tables 1–2), and
//! related work (SysScale's multi-domain DVFS configurations, Bhat et
//! al.'s power/thermal case-study matrices) scales the same shape
//! further. Each job is a full simulator run — seconds of work — so the
//! scheduling granularity is coarse and a simple mutex-guarded deque per
//! worker with chunked stealing is plenty; no lock-free cleverness (or
//! `unsafe`) is needed to keep every worker busy.
//!
//! Design:
//!
//! * [`Executor::run_ordered`] spawns scoped threads
//!   (`std::thread::scope`) — no `'static` bounds, no detached threads,
//!   results collected before return;
//! * jobs are dealt to per-worker deques in contiguous chunks; an idle
//!   worker steals the back half of a victim's deque, preserving the
//!   front-to-back locality of the owner's chunk;
//! * every job carries its submission index and writes its result into
//!   that slot, so the returned `Vec` is in submission order regardless
//!   of which worker ran what — `--jobs 1` and `--jobs 8` produce
//!   byte-identical output (asserted by `tests/determinism.rs` in the
//!   experiments crate);
//! * worker count comes from [`Executor::new`], the `MOBICORE_JOBS`
//!   environment variable, or `std::thread::available_parallelism`
//!   ([`Executor::from_env`]).
//!
//! # Example
//!
//! ```
//! use mobicore_sweep::Executor;
//!
//! let exec = Executor::new(4);
//! let squares = exec.run_ordered((0..10).collect(), |_idx, x: u64| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod pool;

/// The lock `pool` names as `super::sync::Mutex`; the model check in
/// `tests/model.rs` binds the explorer's mutex here instead.
mod sync {
    pub(crate) use std::sync::Mutex;
}

use pool::lock_unpoisoned;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use sync::Mutex;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "MOBICORE_JOBS";

/// A captured panic from one sweep job.
///
/// Produced by [`Executor::run_settled`] when a job's closure panics.
/// The panic is confined to that job: the worker that caught it keeps
/// draining its deque, siblings' results are kept, and the pool joins
/// normally (no deadlock, no poisoned executor state).
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    payload: Box<dyn Any + Send + 'static>,
}

impl JobPanic {
    /// The panic message, when the payload was a string (the common
    /// `panic!("...")` case); a placeholder otherwise.
    pub fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// The raw panic payload, for re-raising with
    /// [`std::panic::resume_unwind`].
    pub fn into_payload(self) -> Box<dyn Any + Send + 'static> {
        self.payload
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("index", &self.index)
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message())
    }
}

/// A fixed-width work-stealing executor for coarse-grained sweep jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// Worker count from `MOBICORE_JOBS`, falling back to the machine's
    /// available parallelism. Unparsable or zero values fall back too.
    pub fn from_env() -> Self {
        Self::new(jobs_from_env().unwrap_or_else(default_jobs))
    }

    /// The worker count this executor runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item, in parallel across the workers, and
    /// returns the results **in submission order** — `run_ordered(v, f)`
    /// is observably equivalent to `v.into_iter().enumerate().map(f)`
    /// whatever the worker count, as long as `f` is a pure function of
    /// `(index, item)`.
    ///
    /// `f` receives each item's submission index alongside the item.
    /// With one worker (or one item) everything runs inline on the
    /// calling thread — no threads are spawned, which keeps `--jobs 1`
    /// a true sequential baseline.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, every *other* job still runs to
    /// completion (the pool settles), then the first panic **in
    /// submission order** is re-raised on the calling thread. Use
    /// [`Executor::run_settled`] to observe all outcomes instead.
    pub fn run_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut first_panic = None;
        let results: Vec<R> = self
            .run_settled(items, f)
            .into_iter()
            .filter_map(|settled| match settled {
                Ok(r) => Some(r),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                    None
                }
            })
            .collect();
        if let Some(p) = first_panic {
            resume_unwind(p.into_payload());
        }
        results
    }

    /// Runs `f` over `items` in contiguous chunks of up to `chunk_size`
    /// items, one chunk per sweep job, and flattens the per-chunk result
    /// vectors back into submission order.
    ///
    /// A chunk becomes one job (a chunk of devices can share one
    /// `FleetSim` loop, docs/simulator.md), and because chunks are
    /// contiguous and results are flattened in chunk order,
    /// `run_chunked(v, c, f)` is observably equivalent to mapping the
    /// items one-by-one — whatever the chunk size or worker count — as
    /// long as `f` maps each chunk item-wise.
    ///
    /// `f` receives `(first_index, chunk)` where `first_index` is the
    /// submission index of the chunk's first item, and must return one
    /// result per item, in item order. `chunk_size` is clamped to at
    /// least 1.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a different number of results than the
    /// chunk has items, and propagates panics from `f` like
    /// [`Executor::run_ordered`].
    pub fn run_chunked<T, R, F>(&self, items: Vec<T>, chunk_size: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, Vec<T>) -> Vec<R> + Sync,
    {
        let chunk_size = chunk_size.max(1);
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::new();
        let mut items = items.into_iter();
        let mut first = 0;
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            let len = chunk.len();
            chunks.push((first, chunk));
            first += len;
        }
        self.run_ordered(chunks, |_, (first_index, chunk)| {
            let n = chunk.len();
            let out = f(first_index, chunk);
            assert_eq!(
                out.len(),
                n,
                "run_chunked closure must return one result per item"
            );
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Like [`Executor::run_ordered`], but a panicking job becomes an
    /// `Err(JobPanic)` in its submission slot instead of taking the
    /// sweep down: the worker that caught it keeps draining its deque,
    /// every sibling's result is kept, and the pool joins normally.
    ///
    /// This is the failure-isolation primitive for long sweeps — one
    /// diverging simulation (a panicking policy, a profile assertion)
    /// costs exactly its own slot, not the hours of results around it.
    pub fn run_settled<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        let settle = |idx: usize, item: T| {
            catch_unwind(AssertUnwindSafe(|| f(idx, item))).map_err(|payload| JobPanic {
                index: idx,
                payload,
            })
        };
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| settle(i, item))
                .collect();
        }

        // The exactly-once claim of this deal/steal protocol is
        // model-checked on `pool` itself by `tests/model.rs`.
        let deques = pool::deal(items, workers);
        let results: Vec<Mutex<Option<Result<R, JobPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let (deques, slots, settle) = (&deques, &results, &settle);

        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || {
                    pool::work(deques, w, |idx, item| {
                        *lock_unpoisoned(slots[idx].lock()) = Some(settle(idx, item));
                    });
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                lock_unpoisoned(slot.into_inner()).expect("every submitted job ran exactly once")
            })
            .collect()
    }
}

impl Default for Executor {
    /// Same as [`Executor::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// A worker count as `--jobs` and `MOBICORE_JOBS` spell it: a positive
/// integer, surrounding whitespace allowed. `None` for anything else.
pub fn parse_jobs(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// `MOBICORE_JOBS` as a positive worker count, if set and parsable.
pub fn jobs_from_env() -> Option<usize> {
    std::env::var(JOBS_ENV).ok().as_deref().and_then(parse_jobs)
}

/// The machine's available parallelism (1 if undetectable).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = Executor::new(8);
        let out: Vec<u32> = exec.run_ordered(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
    }

    #[test]
    fn single_item_runs_inline() {
        let exec = Executor::new(8);
        let out = exec.run_ordered(vec![21u64], |i, x| (i, x * 2));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn results_in_submission_order_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 4, 8, 16] {
            let exec = Executor::new(jobs);
            let out = exec.run_ordered(items.clone(), |_, x| x * x + 1);
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let exec = Executor::new(4);
        let out = exec.run_ordered((0..100usize).collect(), |i, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x, "index matches item");
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn imbalanced_jobs_get_stolen() {
        // Front-loaded long jobs: without stealing, worker 0 serializes
        // the slow chunk while the others idle. With stealing every
        // worker stays busy; we only assert correctness here (the timing
        // claim lives in BENCH_03).
        let exec = Executor::new(4);
        let out = exec.run_ordered((0..32u64).collect(), |_, x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=32u64).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let exec = Executor::new(64);
        let out = exec.run_ordered((0..5u32).collect(), |_, x| x);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jobs_env_parsing() {
        // The parse helper only: no env mutation here, to stay
        // test-order independent.
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 8\n"), Some(8));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("-1"), None);
        assert_eq!(parse_jobs("banana"), None);
        assert_eq!(parse_jobs(""), None);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn run_chunked_flattens_in_submission_order() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for jobs in [1, 4] {
            for chunk in [1, 7, 50, 103, 500] {
                let exec = Executor::new(jobs);
                let out = exec.run_chunked(items.clone(), chunk, |first, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| {
                            assert_eq!((first + i) as u64, x, "chunks are contiguous");
                            x * 3
                        })
                        .collect()
                });
                assert_eq!(out, expected, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    #[test]
    fn run_chunked_zero_chunk_clamps_and_empty_is_empty() {
        let exec = Executor::new(2);
        let out = exec.run_chunked((0..5u32).collect(), 0, |_, c| c);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        let empty: Vec<u32> = exec.run_chunked(Vec::new(), 8, |_, c| c);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per item")]
    fn run_chunked_rejects_miscounted_results() {
        Executor::new(1).run_chunked(vec![1, 2, 3], 2, |_, _| vec![0]);
    }

    #[test]
    fn non_copy_items_and_results() {
        let items: Vec<String> = (0..20).map(|i| format!("job-{i}")).collect();
        let exec = Executor::new(3);
        let out = exec.run_ordered(items, |i, s| format!("{s}:{i}"));
        assert_eq!(out[7], "job-7:7");
        assert_eq!(out.len(), 20);
    }
}
