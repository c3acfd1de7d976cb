//! The executor's concurrency core: dealing jobs onto per-worker
//! deques, the worker loop, and back-half stealing.
//!
//! This file is compiled twice. The library builds it as its private
//! `pool` module, with `super::sync::Mutex` bound to
//! `std::sync::Mutex`. The model check `tests/model.rs` includes the
//! same file with `#[path]`, binding `super::sync::Mutex` to the
//! `mobicore_analyze` explorer's mutex, and explores its
//! interleavings. The lock must therefore be named only through
//! `super::sync`: a `std::sync` primitive used directly in this file
//! is invisible to the explorer.

use super::sync::Mutex;
use std::collections::VecDeque;
use std::sync::LockResult;

/// One worker's deque of `(submission index, item)` jobs.
pub(crate) type Deque<T> = Mutex<VecDeque<(usize, T)>>;

/// Deals `items` onto `workers` deques in contiguous chunks: worker `w`
/// owns indices `[w·n/workers, (w+1)·n/workers)`. Chunks keep the
/// owner's pops sequential in submission order; steals take from the
/// back. `items` must not be empty.
pub(crate) fn deal<T>(items: Vec<T>, workers: usize) -> Vec<Deque<T>> {
    let n = items.len();
    let mut deques: Vec<Deque<T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        lock_unpoisoned(deques[i * workers / n].get_mut()).push_back((i, item));
    }
    deques
}

/// Worker `me`'s loop: pops its own deque from the front, steals when
/// it runs dry, and returns once every deque is empty. `run` gets each
/// job's submission index and item.
pub(crate) fn work<T>(deques: &[Deque<T>], me: usize, run: impl Fn(usize, T)) {
    loop {
        let job = lock_unpoisoned(deques[me].lock()).pop_front();
        let (idx, item) = match job {
            Some(j) => j,
            None => match steal(deques, me) {
                Some(j) => j,
                None => return,
            },
        };
        run(idx, item);
    }
}

/// Steals the back half of the first non-empty victim deque, scanning
/// from `me + 1` round the ring: one job is returned to run
/// immediately, the rest land in `me`'s deque.
///
/// The victim's lock is released before `me`'s deque is locked, so no
/// thread ever holds two deque locks at once (no lock-ordering deadlock).
fn steal<T>(deques: &[Deque<T>], me: usize) -> Option<(usize, T)> {
    let n = deques.len();
    for k in 1..n {
        let v = (me + k) % n;
        let mut chunk = {
            let mut victim = lock_unpoisoned(deques[v].lock());
            let len = victim.len();
            if len == 0 {
                continue;
            }
            let take = len.div_ceil(2);
            victim.split_off(len - take)
        };
        let first = chunk.pop_front();
        if !chunk.is_empty() {
            lock_unpoisoned(deques[me].lock()).append(&mut chunk);
        }
        if first.is_some() {
            return first;
        }
    }
    None
}

/// The guard of a lock even if a job panicked holding it: a panicking
/// job is caught and reported, and the deques and result slots stay
/// structurally valid.
pub(crate) fn lock_unpoisoned<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}
