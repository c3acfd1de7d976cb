//! Litmus tests for the model checker's weak-memory semantics.
//!
//! These are the calibration suite for the checker itself: each
//! correct idiom must verify cleanly (and exhaustively — `complete`
//! is asserted), and each seeded weakening must produce a violation.
//! If the message-passing tests here stop distinguishing Acquire from
//! Relaxed, the model checks of the sweep pool and the serve drain
//! (which include those crates' production files) mean nothing.

use mobicore_analyze::model::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use mobicore_analyze::model::sync::{Arc, Mutex};
use mobicore_analyze::model::{thread, Model};

/// Message passing, the canonical Release/Acquire litmus: writer
/// stores data then raises a flag with Release; reader that sees the
/// flag with Acquire must see the data.
#[test]
fn message_passing_release_acquire_verifies() {
    let outcome = Model::new().check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (data2, flag2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "flag observed but data stale"
            );
        }
        t.join().expect("writer joins");
    });
    outcome.assert_passed("message passing (Release/Acquire)");
    assert!(outcome.complete, "exploration must be exhaustive");
    assert!(
        outcome.schedules >= 3,
        "both flag outcomes and interleavings explored: {outcome:?}"
    );
}

/// The seeded bug: same shape, but the reader drops Acquire for
/// Relaxed. Without the release-clock join, the stale `data == 0`
/// store stays readable after the flag is observed — the checker must
/// find that read.
#[test]
fn message_passing_relaxed_load_is_caught() {
    let outcome = Model::new().check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (data2, flag2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Relaxed) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "flag observed but data stale"
            );
        }
        t.join().expect("writer joins");
    });
    let v = outcome
        .violation
        .expect("dropping the Acquire must be caught");
    assert!(v.message.contains("data stale"), "{}", v.message);
}

/// Symmetric seeding: the writer drops Release. An Acquire load of a
/// non-Release store synchronizes nothing, so the stale read must
/// again be found.
#[test]
fn message_passing_relaxed_store_is_caught() {
    let outcome = Model::new().check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (data2, flag2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(true, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(
                data.load(Ordering::Relaxed),
                42,
                "flag observed but data stale"
            );
        }
        t.join().expect("writer joins");
    });
    assert!(
        outcome.violation.is_some(),
        "dropping the Release must be caught: {outcome:?}"
    );
}

/// Release sequences: a Relaxed RMW between a Release store and an
/// Acquire load must not break synchronization (C11 release-sequence
/// rule, which `fetch_add` on counters relies on).
#[test]
fn release_sequence_through_rmw_verifies() {
    let outcome = Model::new().check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicUsize::new(0));
        let (data2, flag2) = (Arc::clone(&data), Arc::clone(&flag));
        let (data3, flag3) = (Arc::clone(&data), Arc::clone(&flag));
        let writer = thread::spawn(move || {
            data2.store(42, Ordering::Relaxed);
            flag2.store(1, Ordering::Release);
        });
        let bumper = thread::spawn(move || {
            // Relaxed RMW continues the release sequence headed by the
            // Release store (when it lands after it).
            flag3.fetch_add(1, Ordering::Relaxed);
            let _ = data3;
        });
        if flag.load(Ordering::Acquire) >= 2 {
            // Reading 2 means the RMW came after the Release store.
            assert_eq!(data.load(Ordering::Relaxed), 42, "release sequence broken");
        }
        writer.join().expect("writer joins");
        bumper.join().expect("bumper joins");
    });
    outcome.assert_passed("release sequence through RMW");
    assert!(outcome.complete);
}

/// The serve drain's counter publication, and why its decrement must
/// be Release: two connections bump a counter with Relaxed and retire
/// by decrementing a live count; an observer that reads the count at
/// zero with Acquire must see both bumps. With the Release decrement
/// this verifies; this test weakens the second connection's decrement
/// to Relaxed, and the stale read must be found. (The production drain
/// cannot be seeded, so the weakening is proven load-bearing here.)
#[test]
fn relaxed_decrement_does_not_publish_the_counter() {
    let check = |decrement: Ordering| {
        Model::new().check(move || {
            let live = Arc::new(AtomicUsize::new(2));
            let decisions = Arc::new(AtomicUsize::new(0));
            let (live2, decisions2) = (Arc::clone(&live), Arc::clone(&decisions));
            let conn = thread::spawn(move || {
                decisions2.fetch_add(3, Ordering::Relaxed);
                live2.fetch_sub(1, decrement);
            });
            decisions.fetch_add(2, Ordering::Relaxed);
            live.fetch_sub(1, Ordering::Release);
            if live.load(Ordering::Acquire) == 0 {
                assert_eq!(
                    decisions.load(Ordering::Relaxed),
                    5,
                    "drain stats must be exact once the live count reads 0"
                );
            }
            conn.join().expect("connection thread joins");
        })
    };
    let release = check(Ordering::Release);
    release.assert_passed("Release decrement");
    assert!(release.complete, "exploration must be exhaustive");
    let v = check(Ordering::Relaxed)
        .violation
        .expect("a Relaxed decrement must be caught");
    assert!(
        v.message.contains("drain stats must be exact"),
        "{}",
        v.message
    );
}

/// Store buffering (Dekker): with Relaxed ops both threads may read 0
/// — the checker's memory model must be weak enough to produce it.
#[test]
fn store_buffering_relaxed_exhibits_weak_behavior() {
    let outcome = Model::new().check(|| {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let saw_x = x.load(Ordering::Relaxed);
        let saw_y = t.join().expect("joins");
        // Both-zero IS allowed under relaxed memory; assert it occurs.
        assert!(!(saw_x == 0 && saw_y == 0), "weak outcome x=0,y=0 reached");
    });
    let v = outcome
        .violation
        .expect("store buffering must reach the both-zero outcome");
    assert!(v.message.contains("weak outcome"), "{}", v.message);
}

/// Mutexes synchronize: state mutated under a lock is visible to the
/// next lock holder with no atomics involved.
#[test]
fn mutex_publishes_writes() {
    let outcome = Model::new().check(|| {
        let cell = Arc::new(Mutex::new(0usize));
        let cell2 = Arc::clone(&cell);
        let t = thread::spawn(move || {
            *cell2.lock().expect("model lock") = 7;
        });
        t.join().expect("joins");
        assert_eq!(*cell.lock().expect("model lock"), 7);
    });
    outcome.assert_passed("mutex publication");
    assert!(outcome.complete);
}

/// Compare-exchange claim: two threads race to claim a slot; exactly
/// one may win.
#[test]
fn compare_exchange_claims_exactly_once() {
    let outcome = Model::new().check(|| {
        let slot = Arc::new(AtomicUsize::new(0));
        let wins = Arc::new(AtomicUsize::new(0));
        let (slot2, wins2) = (Arc::clone(&slot), Arc::clone(&wins));
        let t = thread::spawn(move || {
            if slot2
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                wins2.fetch_add(1, Ordering::Relaxed);
            }
        });
        if slot
            .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            wins.fetch_add(1, Ordering::Relaxed);
        }
        t.join().expect("joins");
        assert_eq!(wins.load(Ordering::Relaxed), 1, "claim must be exclusive");
    });
    outcome.assert_passed("compare-exchange claim");
    assert!(outcome.complete);
}
