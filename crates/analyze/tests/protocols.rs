//! Tier-1 model checks of the workspace's concurrency protocol
//! replicas, plus seeded-bug detection: every weakening the replicas
//! can express must produce a finding, or the clean verdicts above it
//! mean nothing.

use mobicore_analyze::model::Model;
use mobicore_analyze::protocols::{serve, sweep};

// ---- sweep: work-stealing deque pool --------------------------------

#[test]
fn sweep_pool_runs_every_job_exactly_once() {
    let outcome = sweep::check_exactly_once(2, 3, sweep::Seed::None);
    outcome.assert_passed("sweep exactly-once (2 workers, 3 jobs)");
    assert!(
        outcome.schedules > 10,
        "nontrivial interleaving coverage expected: {outcome:?}"
    );
}

#[test]
fn sweep_three_workers_small_batch_verifies() {
    let outcome = sweep::check_exactly_once(3, 3, sweep::Seed::None);
    outcome.assert_passed("sweep exactly-once (3 workers, 3 jobs)");
}

#[test]
fn sweep_duplicate_steal_is_caught() {
    let outcome = sweep::check_exactly_once(2, 3, sweep::Seed::DuplicateSteal);
    let v = outcome
        .violation
        .expect("a steal that duplicates jobs must be caught");
    assert!(v.message.contains("exactly once"), "{}", v.message);
}

// ---- serve: drain-stats synchronization core ------------------------

#[test]
fn serve_drain_stats_exact_with_release_acquire() {
    let outcome = serve::check_drain_stats_exact(serve::Seed::None);
    outcome.assert_passed("serve drain stats exactness");
    assert!(
        outcome.complete,
        "the isolated core must be explored exhaustively: {outcome:?}"
    );
}

#[test]
fn serve_relaxed_decrement_is_caught() {
    // The satellite-audit rationale, mechanized: downgrade
    // the live-count fetch_sub to Relaxed and the drain observer can
    // read a stale decisions counter.
    let outcome = serve::check_drain_stats_exact(serve::Seed::RelaxedDecrement);
    let v = outcome
        .violation
        .expect("a Relaxed live-count decrement must be caught");
    assert!(v.message.contains("exact"), "{}", v.message);
}

// ---- serve: connection threads, drain, backpressure ------------------

#[test]
fn serve_drain_terminates_and_serves_each_connection_once() {
    let outcome = serve::check_drain(serve::Seed::None);
    outcome.assert_passed("serve drain replica");
    assert!(
        outcome.schedules > 10,
        "fair schedules must complete the drain: {outcome:?}"
    );
}

#[test]
fn serve_missing_decrement_starves_every_schedule() {
    // Without the retire decrement the exit condition can never
    // hold: no schedule completes — the checker sees only starved
    // spins (pruned), proving drain termination depends on it.
    let model = Model::new()
        .with_preemption_bound(2)
        .with_max_steps(300)
        .with_max_schedules(50);
    let outcome = serve::check_drain_with(model, serve::Seed::MissingDecrement);
    assert!(outcome.violation.is_none(), "not a data bug: {outcome:?}");
    assert_eq!(
        outcome.schedules, 0,
        "no schedule may complete a drain that cannot end: {outcome:?}"
    );
    assert!(outcome.pruned > 0, "paths must have been explored");
}

#[test]
fn serve_shared_backpressure_flag_is_caught() {
    let outcome = serve::check_drain(serve::Seed::SharedEdgeFlag);
    let v = outcome
        .violation
        .expect("cross-connection edge state must corrupt rising-edge counts");
    assert!(v.message.contains("rising edge"), "{}", v.message);
}
