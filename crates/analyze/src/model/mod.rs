//! A loom-style interleaving model checker for small concurrent
//! protocols.
//!
//! [`Model::check`] runs a driver closure many times, once per explored
//! schedule. Inside the closure, the code under test uses the
//! [`sync`] primitives (mutexes, condvars, atomics) and
//! [`thread::spawn`]/[`JoinHandle::join`](thread::JoinHandle::join);
//! every such operation is a *scheduling point* where the explorer
//! decides which modeled thread performs the next operation, and every
//! atomic load may branch over the set of stores the C11-style
//! happens-before model makes visible. The explorer enumerates these
//! choices by bounded depth-first search with backtracking:
//!
//! * **exhaustive** when [`Model::preemption_bound`] is `None` and the
//!   program is small enough — every interleaving and every legal
//!   stale read is visited;
//! * **bounded** otherwise: a CHESS-style preemption bound caps
//!   involuntary context switches, a stale-read budget caps how many
//!   non-latest atomic reads one execution may observe, and a step
//!   budget prunes unfair schedules (e.g. a poll loop starved forever);
//!   pruned paths are counted separately in [`Outcome::pruned`].
//!
//! What the checker reports:
//!
//! * assertion failures and panics in any modeled thread, with the
//!   schedule that produced them;
//! * deadlocks (no runnable thread while some are blocked) — which is
//!   how lost wake-ups surface;
//! * primitive misuse (re-locking an owned mutex, unlocking an unowned
//!   one, leaking an unjoined thread).
//!
//! The weak-memory model is the reason dropping an `Acquire` is
//! *observable*: a Release store carries the storer's vector clock and
//! an Acquire load joins it, which supersedes older stores; take the
//! Acquire away and the stale candidates stay readable, so the DFS
//! finds the read that breaks the invariant. See
//! `docs/static-analysis.md` for the worked example.

pub mod clock;
mod exec;
pub mod sync;
pub mod thread;

use exec::{Bounds, Choice, Execution, Failure, ModelAbort};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

pub use clock::MAX_THREADS;

/// Thread-local binding of an OS thread to (execution, modeled id).
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn install_ctx(exec: Arc<Execution>, id: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec, id }));
}

fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

pub(crate) fn ctx() -> Ctx {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|x| Ctx {
                exec: Arc::clone(&x.exec),
                id: x.id,
            })
            .expect("model sync primitive used outside Model::check")
    })
}

/// Suppresses panic-hook output for the sentinel unwinds the engine
/// uses to abort executions; real panics still print once.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_some() {
                return;
            }
            previous(info);
        }));
    });
}

/// A property violation found by the explorer.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// Human-readable description (assertion message, deadlock
    /// snapshot, ...).
    pub message: String,
    /// The `(chosen, options)` choice sequence reproducing it.
    pub schedule: Vec<(usize, usize)>,
}

/// The result of exploring a driver closure.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Violation-free executions explored to completion.
    pub schedules: u64,
    /// Paths abandoned at the step budget (unfair schedules such as a
    /// starved poll loop) — not violations, but not proofs either.
    pub pruned: u64,
    /// Distinct reasons paths were pruned (e.g. `"step budget"`),
    /// for reporting.
    pub pruned_kinds: Vec<&'static str>,
    /// Whether the DFS exhausted the (bounded) choice space, rather
    /// than stopping at `max_schedules` or at a violation.
    pub complete: bool,
    /// The first violation found, if any (the DFS stops there).
    pub violation: Option<ModelViolation>,
}

impl Outcome {
    /// True when exploration finished with no violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// Panics (with the schedule) if a violation was found — the
    /// assertion helper for tests and the CLI.
    pub fn assert_passed(&self, what: &str) {
        if let Some(v) = &self.violation {
            panic!(
                "model check `{what}` failed after {} schedules: {}\nschedule: {:?}",
                self.schedules, v.message, v.schedule
            );
        }
    }
}

/// Explorer configuration. `Default` is exhaustive thread scheduling
/// with a stale-read budget of 4 and a step budget of 2000.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Stop after this many executions (completed + pruned).
    pub max_schedules: u64,
    /// Per-execution operation budget; exceeding it prunes the path.
    pub max_steps: u64,
    /// CHESS-style bound on involuntary context switches per
    /// execution; `None` explores all schedules.
    pub preemption_bound: Option<u32>,
    /// Bound on stale (non-latest) atomic reads per execution.
    pub stale_read_bound: u32,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            max_schedules: 100_000,
            max_steps: 2_000,
            preemption_bound: None,
            stale_read_bound: 4,
        }
    }
}

impl Model {
    /// Exhaustive defaults (see [`Default`]).
    pub fn new() -> Self {
        Model::default()
    }

    /// Caps involuntary context switches per execution.
    #[must_use]
    pub fn with_preemption_bound(mut self, bound: u32) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Caps total executions explored.
    #[must_use]
    pub fn with_max_schedules(mut self, n: u64) -> Self {
        self.max_schedules = n;
        self
    }

    /// Caps operations per execution (prunes unfair schedules).
    #[must_use]
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Explores `f` under every (bounded) schedule. The closure runs
    /// once per schedule as modeled thread 0; it may spawn up to
    /// [`MAX_THREADS`]` - 1` children via [`thread::spawn`] and must
    /// join them all before returning.
    pub fn check<F>(&self, f: F) -> Outcome
    where
        F: Fn(),
    {
        install_quiet_hook();
        let bounds = Bounds {
            max_steps: self.max_steps,
            preemption_bound: self.preemption_bound,
            stale_read_bound: self.stale_read_bound,
        };
        let mut prefix: Vec<Choice> = Vec::new();
        let mut schedules = 0u64;
        let mut pruned = 0u64;
        let mut pruned_kinds: Vec<&'static str> = Vec::new();
        loop {
            let execution = Arc::new(Execution::new(bounds, prefix));
            install_ctx(Arc::clone(&execution), 0);
            let run = catch_unwind(AssertUnwindSafe(&f));
            clear_ctx();
            let (driver_ok, driver_panic) = match &run {
                Ok(()) => (true, None),
                Err(payload) => {
                    if payload.downcast_ref::<ModelAbort>().is_some() {
                        (false, None)
                    } else {
                        (false, Some(thread::panic_message(payload.as_ref())))
                    }
                }
            };
            execution.finalize(driver_ok, driver_panic);
            let (choices, failure, _steps) = execution.take_result();
            match failure {
                Some(Failure::Violation(message)) => {
                    return Outcome {
                        schedules,
                        pruned,
                        pruned_kinds,
                        complete: false,
                        violation: Some(ModelViolation {
                            message,
                            schedule: choices.iter().map(|c| (c.chosen, c.options)).collect(),
                        }),
                    };
                }
                Some(Failure::Pruned(kind)) => {
                    pruned += 1;
                    if !pruned_kinds.contains(&kind) {
                        pruned_kinds.push(kind);
                    }
                }
                None => schedules += 1,
            }
            if schedules + pruned >= self.max_schedules {
                return Outcome {
                    schedules,
                    pruned,
                    pruned_kinds,
                    complete: false,
                    violation: None,
                };
            }
            // Depth-first backtrack: bump the deepest choice that still
            // has an untried option, drop everything after it.
            prefix = choices;
            loop {
                match prefix.last().copied() {
                    None => {
                        return Outcome {
                            schedules,
                            pruned,
                            pruned_kinds,
                            complete: true,
                            violation: None,
                        };
                    }
                    Some(c) if c.chosen + 1 < c.options => {
                        let depth = prefix.len() - 1;
                        prefix[depth].chosen += 1;
                        break;
                    }
                    Some(_) => {
                        prefix.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Mutex};
    use super::*;

    #[test]
    fn sequential_driver_explores_one_schedule() {
        let outcome = Model::new().check(|| {
            let m = Mutex::new(0u32);
            *m.lock().expect("model lock") += 1;
            assert_eq!(*m.lock().expect("model lock"), 1);
        });
        outcome.assert_passed("sequential");
        assert_eq!(outcome.schedules, 1);
        assert!(outcome.complete);
    }

    #[test]
    fn two_increments_never_lose_an_update_under_a_mutex() {
        let outcome = Model::new().check(|| {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let t = thread::spawn(move || {
                *m2.lock().expect("model lock") += 1;
            });
            *m.lock().expect("model lock") += 1;
            t.join().expect("joins");
            assert_eq!(*m.lock().expect("model lock"), 2);
        });
        outcome.assert_passed("mutex increments");
        assert!(outcome.schedules > 1, "interleavings were explored");
        assert!(outcome.complete);
    }

    #[test]
    fn racy_read_modify_write_is_caught() {
        // Classic lost update: load + store instead of fetch_add.
        let outcome = Model::new().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = Arc::clone(&a);
            let t = thread::spawn(move || {
                let v = a2.load(Ordering::Relaxed);
                a2.store(v + 1, Ordering::Relaxed);
            });
            let v = a.load(Ordering::Relaxed);
            a.store(v + 1, Ordering::Relaxed);
            t.join().expect("joins");
            assert_eq!(a.load(Ordering::Relaxed), 2, "an update was lost");
        });
        assert!(
            outcome.violation.is_some(),
            "the lost update must be found: {outcome:?}"
        );
    }

    #[test]
    fn fetch_add_has_no_lost_update() {
        let outcome = Model::new().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = Arc::clone(&a);
            let t = thread::spawn(move || {
                a2.fetch_add(1, Ordering::Relaxed);
            });
            a.fetch_add(1, Ordering::Relaxed);
            t.join().expect("joins");
            assert_eq!(a.load(Ordering::Relaxed), 2);
        });
        outcome.assert_passed("fetch_add");
        assert!(outcome.complete);
    }

    #[test]
    fn self_deadlock_is_reported() {
        let outcome = Model::new().check(|| {
            let m = Mutex::new(());
            let _g1 = m.lock().expect("model lock");
            let _g2 = m.lock().expect("model lock"); // deadlock
        });
        let v = outcome.violation.expect("self-deadlock found");
        assert!(v.message.contains("deadlock"), "{}", v.message);
    }

    #[test]
    fn leaked_thread_is_reported() {
        let outcome = Model::new().with_max_schedules(16).check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = Arc::clone(&a);
            let handle = thread::spawn(move || {
                a2.store(1, Ordering::Relaxed);
            });
            // Forgetting the handle leaks the modeled thread.
            std::mem::forget(handle);
        });
        let v = outcome.violation.expect("leak found");
        assert!(v.message.contains("not joined"), "{}", v.message);
    }
}
