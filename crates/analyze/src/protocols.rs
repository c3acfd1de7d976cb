//! Model-checked replicas of the workspace's concurrency cores.
//!
//! Two protocols in the MobiCore workspace do real lock-free /
//! lock-based coordination: the sweep executor's work-stealing deque
//! pool (`crates/sweep`) and the serve daemons' connection-thread
//! drain with per-connection backpressure (`crates/serve`). Both are
//! replicated here, operation for operation, against the
//! [`model::sync`](crate::model::sync) primitives so the interleaving
//! explorer can drive them.
//!
//! Each `check_*` function returns the explorer's [`Outcome`]; the
//! `Seed` parameters inject the specific bugs the checker is expected
//! to catch (a steal that duplicates jobs, a drain decrement with the
//! wrong ordering, a backpressure flag shared across connections). Tier-1
//! tests assert that unseeded replicas verify and every seeded replica
//! is caught — see `crates/analyze/tests/protocols.rs`.
//!
//! **Bounding.** The litmus suite (`tests/model.rs`) and the isolated
//! drain-stats core below are explored exhaustively; the full replicas
//! are larger (20–40 operations across 2–3 threads), so they run under
//! a CHESS-style preemption bound of 2 — every schedule with at most
//! two involuntary context switches is explored, which is the regime
//! where the vast majority of real concurrency bugs live. Drain loops
//! that poll for the exit condition additionally rely on the step
//! budget to prune starved (unfair) schedules; those are counted in
//! [`Outcome::pruned`], never silently dropped.

use crate::model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::model::sync::{Arc, Mutex, MutexGuard};
use crate::model::{thread, Model, Outcome};
use std::collections::VecDeque;

/// Explorer configuration shared by the protocol replicas: preemption
/// bound 2 (CHESS regime), step budget sized to ~3x a fair run of the
/// largest replica so starved spins prune quickly.
pub fn protocol_model() -> Model {
    Model::new()
        .with_preemption_bound(2)
        .with_max_steps(300)
        .with_max_schedules(50_000)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Replica of the sweep executor's work-stealing deque pool.
pub mod sweep {
    use super::*;

    /// Bug seedings for [`check_exactly_once`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Seed {
        /// Faithful replica of `crates/sweep`.
        None,
        /// The steal copies the victim's jobs but forgets to remove
        /// them — the classic duplicated-work bug. Must be caught by
        /// the exactly-once assertion.
        DuplicateSteal,
    }

    /// Deals `jobs` job indices across `workers` deques with the same
    /// contiguous-chunk rule as `Executor::run_ordered`
    /// (`w = i * workers / jobs`).
    fn deal(jobs: usize, workers: usize) -> Vec<VecDeque<usize>> {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for i in 0..jobs {
            deques[i * workers / jobs].push_back(i);
        }
        deques
    }

    struct Pool {
        deques: Vec<Mutex<VecDeque<usize>>>,
        /// Per-job execution count; the exactly-once property.
        executed: Vec<AtomicUsize>,
        /// Submission-indexed result slots, like `run_ordered`.
        results: Vec<Mutex<Option<usize>>>,
    }

    /// One steal attempt: take the back half of the first non-empty
    /// victim deque, append it to our own (victim lock released
    /// first, same as `crates/sweep`), and report whether anything
    /// landed.
    fn steal(pool: &Pool, me: usize, seed: Seed) -> bool {
        for victim in 0..pool.deques.len() {
            if victim == me {
                continue;
            }
            let taken = {
                let mut dq = lock(&pool.deques[victim]);
                let len = dq.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2);
                let taken = dq.split_off(len - take);
                if seed == Seed::DuplicateSteal {
                    // Seeded bug: "forget" the removal.
                    for &j in &taken {
                        dq.push_back(j);
                    }
                }
                taken
            };
            let mut own = lock(&pool.deques[me]);
            own.extend(taken);
            return true;
        }
        false
    }

    fn worker_loop(pool: &Pool, me: usize, seed: Seed) {
        loop {
            let job = lock(&pool.deques[me]).pop_front();
            match job {
                Some(j) => {
                    pool.executed[j].fetch_add(1, Ordering::Relaxed);
                    *lock(&pool.results[j]) = Some(j);
                }
                None => {
                    if !steal(pool, me, seed) {
                        return;
                    }
                }
            }
        }
    }

    /// Checks the pool's core properties over every bounded schedule:
    /// each submitted job executes **exactly once**, and every
    /// submission-indexed result slot is filled when the pool drains.
    pub fn check_exactly_once(workers: usize, jobs: usize, seed: Seed) -> Outcome {
        protocol_model().check(move || {
            let pool = Arc::new(Pool {
                deques: deal(jobs, workers).into_iter().map(Mutex::new).collect(),
                executed: (0..jobs).map(|_| AtomicUsize::new(0)).collect(),
                results: (0..jobs).map(|_| Mutex::new(None)).collect(),
            });
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || worker_loop(&pool, w, seed))
                })
                .collect();
            worker_loop(&pool, 0, seed);
            for h in handles {
                h.join().expect("worker joins");
            }
            for (j, count) in pool.executed.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "job {j} must run exactly once"
                );
            }
            for (j, slot) in pool.results.iter().enumerate() {
                assert_eq!(*lock(slot), Some(j), "result slot {j} must be filled");
            }
        })
    }
}

/// Replica of the serve and router daemons' connection threads and
/// bounded drain (`crates/serve/src/conn.rs`): one thread per
/// connection, a drain flag, the live-connection count retired with a
/// Release decrement, and a join.
pub mod serve {
    use super::*;

    /// Bug seedings for the drain replicas.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Seed {
        /// Faithful replica of `crates/serve`.
        None,
        /// The live count is decremented with `Relaxed` instead of
        /// `Release` — the connection's counter updates are no longer
        /// published to whoever observes the drain completing.
        RelaxedDecrement,
        /// The retire step forgets the decrement entirely; drain can
        /// never complete before its deadline.
        MissingDecrement,
        /// The backpressure edge flag is shared across connections
        /// instead of per-connection state.
        SharedEdgeFlag,
    }

    /// The drain-stats synchronization core, isolated: two connection
    /// threads (the driver plays one) each bump the decisions counter
    /// with a `Relaxed` RMW and then retire with
    /// `live_conns.fetch_sub(1, Release)`, exactly as
    /// `Daemon::retire` in `crates/serve` does. An observer that sees
    /// `live_conns == 0` via an `Acquire` load must observe every
    /// decision: the Release decrement publishes the Relaxed counter
    /// bumps, and the second decrement's RMW continues the first
    /// one's release sequence.
    ///
    /// With [`Seed::RelaxedDecrement`] the chain is broken and the
    /// checker finds a schedule where the drain observer reads a
    /// stale decisions count.
    pub fn check_drain_stats_exact(seed: Seed) -> Outcome {
        let dec_ord = if seed == Seed::RelaxedDecrement {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        // Small enough to explore without a preemption bound.
        Model::new().with_max_schedules(50_000).check(move || {
            let live = Arc::new(AtomicUsize::new(2));
            let decisions = Arc::new(AtomicU64::new(0));
            let (live2, decisions2) = (Arc::clone(&live), Arc::clone(&decisions));
            let conn = thread::spawn(move || {
                decisions2.fetch_add(3, Ordering::Relaxed);
                live2.fetch_sub(1, dec_ord);
            });
            decisions.fetch_add(2, Ordering::Relaxed);
            live.fetch_sub(1, Ordering::Release);
            // The drain observation (`Daemon::drain`'s wait): no join
            // has happened yet, so only the Release/Acquire chain can
            // order the counter reads.
            if live.load(Ordering::Acquire) == 0 {
                assert_eq!(
                    decisions.load(Ordering::Relaxed),
                    5,
                    "drain stats must be exact once live_conns reads 0"
                );
            }
            conn.join().expect("connection thread joins");
        })
    }

    struct Conn {
        /// Times this connection's session was served.
        processed: AtomicUsize,
        /// Backpressure frames emitted on this connection.
        emitted: AtomicUsize,
        /// GoingAway notices sent on this connection.
        notified: AtomicUsize,
    }

    struct Daemon {
        conns: Vec<Conn>,
        live: AtomicUsize,
        draining: AtomicBool,
        decisions: AtomicU64,
        /// Seeded global edge flag (see [`Seed::SharedEdgeFlag`]).
        shared_edge: AtomicBool,
    }

    /// Queue-depth samples each connection observes while being
    /// served; with threshold 2 the rising edges are at indices 1 and
    /// 4, so a correct server emits exactly 2 backpressure frames.
    const DEPTHS: [usize; 5] = [1, 3, 3, 1, 3];
    const THRESHOLD: usize = 2;
    const EDGES: usize = 2;
    /// Decisions each connection serves.
    const DECISIONS: u64 = 3;

    /// One connection thread: serve the session, stay open until the
    /// drain flag shows up (an idle peer), say `GoingAway` once, let
    /// the peer close, retire.
    fn serve_conn(state: &Daemon, cid: usize, seed: Seed) {
        let conn = &state.conns[cid];
        // Rising-edge backpressure, as in serve's service pass: emit
        // only on the not-backpressured -> backpressured transition.
        let mut edge_flag = false;
        for depth in DEPTHS {
            let above = depth > THRESHOLD;
            let was = if seed == Seed::SharedEdgeFlag {
                state.shared_edge.swap(above, Ordering::Relaxed)
            } else {
                std::mem::replace(&mut edge_flag, above)
            };
            if above && !was {
                conn.emitted.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.decisions.fetch_add(DECISIONS, Ordering::Relaxed);
        conn.processed.fetch_add(1, Ordering::Relaxed);
        // The wake-period re-check of the drain flag.
        while !state.draining.load(Ordering::Acquire) {}
        conn.notified.fetch_add(1, Ordering::Relaxed);
        if seed != Seed::MissingDecrement {
            state.live.fetch_sub(1, Ordering::Release);
        }
    }

    /// Full drain replica: two admitted connections — one spawned
    /// thread, one played by the driver — with the daemon flipped into
    /// draining while the spawned one is in flight; the driver then
    /// waits for the live count to reach zero, reads the stats, and
    /// joins.
    ///
    /// Properties checked on every completed schedule: the stats the
    /// drain reads *before* the join are exact, each connection is
    /// served once, hears `GoingAway` once, emits exactly one
    /// backpressure frame per rising edge, and the drain terminates on
    /// every fair schedule ([`Seed::MissingDecrement`] turns *every*
    /// schedule into a starved wait, observable as `schedules == 0`
    /// with everything pruned — the real daemon would sit out its
    /// whole drain deadline).
    pub fn check_drain(seed: Seed) -> Outcome {
        check_drain_with(protocol_model(), seed)
    }

    /// [`check_drain`] under an explicit explorer configuration —
    /// used to cap exploration for seedings where every schedule
    /// spins (e.g. [`Seed::MissingDecrement`]).
    pub fn check_drain_with(model: Model, seed: Seed) -> Outcome {
        model.check(move || {
            let state = Arc::new(Daemon {
                conns: (0..2)
                    .map(|_| Conn {
                        processed: AtomicUsize::new(0),
                        emitted: AtomicUsize::new(0),
                        notified: AtomicUsize::new(0),
                    })
                    .collect(),
                live: AtomicUsize::new(2),
                draining: AtomicBool::new(false),
                decisions: AtomicU64::new(0),
                shared_edge: AtomicBool::new(false),
            });
            let state2 = Arc::clone(&state);
            let conn = thread::spawn(move || serve_conn(&state2, 1, seed));
            // Drain begins while connection 1 is still in flight; the
            // driver plays connection 0, then waits out the drain.
            state.draining.store(true, Ordering::Release);
            serve_conn(&state, 0, seed);
            while state.live.load(Ordering::Acquire) != 0 {}
            assert_eq!(
                state.decisions.load(Ordering::Relaxed),
                2 * DECISIONS,
                "drain stats must be exact once live_conns reads 0"
            );
            conn.join().expect("connection thread joins");
            for (cid, conn) in state.conns.iter().enumerate() {
                assert_eq!(
                    conn.processed.load(Ordering::Relaxed),
                    1,
                    "connection {cid} must be served exactly once"
                );
                assert_eq!(
                    conn.notified.load(Ordering::Relaxed),
                    1,
                    "connection {cid} must hear GoingAway exactly once"
                );
                assert_eq!(
                    conn.emitted.load(Ordering::Relaxed),
                    EDGES,
                    "connection {cid} must emit one backpressure frame per rising edge"
                );
            }
        })
    }
}
