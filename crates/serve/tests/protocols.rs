//! Model check of the daemons' drain, `src/drain.rs`, the same file
//! the library compiles.
//!
//! `drain.rs` names its lock, condvar and atomics only through
//! `super::sync`; here those are the `mobicore_analyze` explorer's
//! primitives, so every operation of `admit`, `begin`, `retire` and
//! `wait_until` is a scheduling point and every atomic load may read
//! any store the weak-memory model allows.
//!
//! The explorer does not explore timeouts: its `Condvar::wait_timeout`
//! ends only on a notify. The drain deadline here lies an hour away,
//! so the wait returns only once every connection has retired, and a
//! wait that only the deadline could end is reported as a deadlock.

mod sync {
    pub use mobicore_analyze::model::sync::{atomic, Condvar, Mutex};
}

#[path = "../src/drain.rs"]
mod drain;

use drain::Drain;
use mobicore_analyze::model::sync::Arc;
use mobicore_analyze::model::{thread, Model};
use std::time::{Duration, Instant};
use sync::atomic::{AtomicU64, Ordering};

/// Two admitted connections each bump a decisions counter (Relaxed, as
/// serve's are) and retire, while the driver begins the drain and
/// waits for it. Once the wait returns, and before any join, the count
/// must be exact: only the Release decrement in `retire` and the
/// Acquire load in `wait_until` order it.
#[test]
fn serve_drain_stats_exact_with_release_acquire() {
    let outcome = Model::new().with_preemption_bound(2).check(|| {
        let drain = Arc::new(Drain::new());
        let decisions = Arc::new(AtomicU64::new(0));
        assert!(drain.admit(2) && drain.admit(2), "both under the cap");
        assert!(!drain.admit(2), "a third is refused at the cap");
        let conns: Vec<_> = [2, 3]
            .into_iter()
            .map(|n| {
                let (drain, decisions) = (Arc::clone(&drain), Arc::clone(&decisions));
                thread::spawn(move || {
                    decisions.fetch_add(n, Ordering::Relaxed);
                    drain.retire();
                })
            })
            .collect();
        assert!(drain.begin().is_some(), "the first begin flips the flag");
        assert!(drain.draining() && drain.begin().is_none());
        drain.wait_until(Instant::now() + Duration::from_secs(3600));
        assert_eq!(
            decisions.load(Ordering::Relaxed),
            5,
            "drain stats must be exact once the drain wait returns"
        );
        for c in conns {
            c.join().expect("connection thread joins");
        }
        assert_eq!(drain.live(), 0);
    });
    outcome.assert_passed("drain");
    assert!(outcome.complete, "bounded space exhausted: {outcome:?}");
    assert!(
        outcome.schedules > 10,
        "interleavings explored: {outcome:?}"
    );
}

/// Three admitted connections are each served once (a per-connection
/// Relaxed counter) and retire while the driver drains. On every
/// schedule within the bound the drain wait returns (the run is
/// complete and nothing is pruned for want of progress), and once it
/// has, every connection reads as served exactly once.
#[test]
fn serve_drain_terminates_and_serves_each_connection_once() {
    let outcome = Model::new().with_preemption_bound(1).check(|| {
        let drain = Arc::new(Drain::new());
        let served: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        for _ in 0..3 {
            assert!(drain.admit(3), "under the cap");
        }
        let conns: Vec<_> = (0..3)
            .map(|i| {
                let (drain, served) = (Arc::clone(&drain), Arc::clone(&served));
                thread::spawn(move || {
                    served[i].fetch_add(1, Ordering::Relaxed);
                    drain.retire();
                })
            })
            .collect();
        let at_flip = drain.begin().expect("the first begin flips the flag");
        assert!(at_flip <= 3, "live count at the flip: {at_flip}");
        drain.wait_until(Instant::now() + Duration::from_secs(3600));
        for (i, s) in served.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::Relaxed),
                1,
                "connection {i} must be served exactly once when the drain wait returns"
            );
        }
        for c in conns {
            c.join().expect("connection thread joins");
        }
        assert_eq!(drain.live(), 0);
    });
    outcome.assert_passed("drain termination");
    assert!(outcome.complete, "bounded space exhausted: {outcome:?}");
    assert_eq!(
        outcome.pruned, 0,
        "every schedule ends the drain: {outcome:?}"
    );
    assert!(
        outcome.schedules > 10,
        "interleavings explored: {outcome:?}"
    );
}

/// The limit of the model, on the real drain: a connection that never
/// retires leaves a wait only the deadline could end, which the
/// explorer reports as a deadlock on the condvar.
#[test]
fn drain_wait_on_an_unretired_connection_is_reported_as_deadlock() {
    let outcome = Model::new().check(|| {
        let drain = Drain::new();
        assert!(drain.admit(1));
        drain.begin();
        drain.wait_until(Instant::now() + Duration::from_secs(3600));
    });
    let v = outcome
        .violation
        .expect("an endless drain wait is reported");
    assert!(
        v.message.contains("deadlock") && v.message.contains("BlockedOnCondvar"),
        "{}",
        v.message
    );
}
