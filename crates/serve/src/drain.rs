//! The drain state shared by a daemon's acceptor, its connection
//! threads and its shutdown: the drain flag, the live-connection count,
//! and the condvar shutdown waits on for the count to reach zero.
//!
//! This file is compiled twice. The library builds it as its private
//! `drain` module, with `super::sync` bound to `std::sync`. The model
//! check `tests/protocols.rs` includes the same file with `#[path]`,
//! binding `super::sync` to the `mobicore_analyze` explorer's
//! primitives, and explores its interleavings. Locks, condvars and
//! atomics must therefore be named only through `super::sync`: a
//! `std::sync` primitive used directly in this file is invisible to
//! the explorer.

use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use super::sync::{Condvar, Mutex};
use std::sync::PoisonError;
use std::time::Instant;

/// Drain flag and live-connection accounting of one daemon.
pub(crate) struct Drain {
    draining: AtomicBool,
    live_conns: AtomicUsize,
    /// Paired with `exited`: a connection thread takes it after its
    /// `live_conns` decrement and notifies.
    exit_lock: Mutex<()>,
    exited: Condvar,
}

impl Drain {
    pub(crate) fn new() -> Self {
        Drain {
            draining: AtomicBool::new(false),
            live_conns: AtomicUsize::new(0),
            exit_lock: Mutex::new(()),
            exited: Condvar::new(),
        }
    }

    /// Counts one more connection live, unless `cap` already are.
    pub(crate) fn admit(&self, cap: usize) -> bool {
        if self.live() >= cap {
            return false;
        }
        self.live_conns.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Connections admitted and not yet retired.
    pub(crate) fn live(&self) -> usize {
        // relaxed: admission gate and advisory stats only; a stale read
        // over- or under-admits by one connection, which is benign.
        self.live_conns.load(Ordering::Relaxed)
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flips into drain. The first call returns the live count at the
    /// flip; later calls return `None`.
    pub(crate) fn begin(&self) -> Option<usize> {
        if self.draining.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(self.live_conns.load(Ordering::Acquire))
    }

    /// Retires one admitted connection. The Release decrement publishes
    /// every counter update the connection made to whoever observes
    /// `live_conns == 0` with Acquire — [`Drain::wait_until`].
    /// `tests/protocols.rs` checks that the stats read after the wait
    /// are exact; the litmus test
    /// `relaxed_decrement_does_not_publish_the_counter` in
    /// `mobicore-analyze` shows that a Relaxed decrement would not do.
    pub(crate) fn retire(&self) {
        self.live_conns.fetch_sub(1, Ordering::Release);
        let _guard = self
            .exit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.exited.notify_all();
    }

    /// Waits until every admitted connection has retired or `deadline`
    /// has passed, whichever comes first.
    pub(crate) fn wait_until(&self, deadline: Instant) {
        let mut guard = self
            .exit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while self.live_conns.load(Ordering::Acquire) != 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            guard = match self.exited.wait_timeout(guard, left) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}
