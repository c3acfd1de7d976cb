//! Model-checked drop-ins for the `std::sync` primitives the MobiCore
//! concurrency crates use: `Mutex`, `Condvar`, and the fixed-width
//! atomics. API-compatible with the `std` originals (lock returns a
//! `LockResult`, atomics take an `Ordering`), but every operation is a
//! scheduling point the explorer can branch on, and atomic loads may
//! return any store the C11-style happens-before model allows.
//!
//! These types only work inside [`Model::check`](super::Model::check);
//! constructing or using one outside a model run panics.

use super::ctx;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};
use std::time::Duration;

/// Plain `std::sync::Arc`: reference counting needs no modeling (the
/// checker does not chase leaks).
pub use std::sync::Arc;

/// A model-checked mutual-exclusion lock.
pub struct Mutex<T> {
    id: usize,
    data: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Registers a fresh mutex with the active model execution.
    pub fn new(value: T) -> Self {
        Mutex {
            id: ctx().exec.register_mutex(),
            data: StdMutex::new(value),
        }
    }

    /// Model-acquires the lock (a scheduling point; blocks the modeled
    /// thread if held). Never actually poisons.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let c = ctx();
        c.exec.mutex_lock(c.id, self.id);
        // Uncontended by construction: model ownership serializes
        // access to the real mutex underneath.
        let inner = self.data.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            mutex: self,
            inner: Some(inner),
            armed: true,
        })
    }

    /// Exclusive-borrow access, like `std::sync::Mutex::get_mut` — not
    /// a scheduling point (no other thread can hold a reference).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.data.get_mut().unwrap_or_else(|e| e.into_inner()))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("model::Mutex")
            .field("id", &self.id)
            .finish()
    }
}

/// RAII guard for [`Mutex`]; model-unlocks (a scheduling point) on
/// drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<StdGuard<'a, T>>,
    /// False once `Condvar::wait` has taken over the unlock.
    armed: bool,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the data lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the data lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real data lock before the model unlock: the
        // moment the model says "free", another modeled thread may
        // take both.
        self.inner = None;
        // During an unwind (assertion failure or execution abort) the
        // model operation is skipped: the execution is already failed
        // and finalize() reports held locks, while panicking from a
        // destructor mid-cleanup would abort the whole process.
        if self.armed && !std::thread::panicking() {
            let c = ctx();
            c.exec.mutex_unlock(c.id, self.mutex.id);
        }
    }
}

/// A model-checked condition variable.
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// Registers a fresh condvar with the active model execution.
    pub fn new() -> Self {
        Condvar {
            id: ctx().exec.register_condvar(),
        }
    }

    /// Atomically releases the guard's mutex and parks; re-acquires on
    /// wake-up. No spurious wake-ups: a wait with no matching notify is
    /// reported as a deadlock with the schedule that produced it.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        // Hand the unlock to the wait primitive: drop the data lock,
        // disarm the guard's model unlock.
        guard.inner = None;
        guard.armed = false;
        drop(guard);
        let c = ctx();
        c.exec.condvar_wait(c.id, self.id, mutex.id);
        let inner = mutex.data.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            mutex,
            inner: Some(inner),
            armed: true,
        })
    }

    /// `std`'s `wait_timeout`, with the timeout branch not explored:
    /// the wait ends only on a notify, and the result never reports a
    /// timeout. A wait that only its timeout could end is therefore
    /// reported as a deadlock, like a plain [`Condvar::wait`].
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let guard = self.wait(guard).unwrap_or_else(PoisonError::into_inner);
        Ok((guard, WaitTimeoutResult { timed_out: false }))
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        let c = ctx();
        c.exec.condvar_notify_all(c.id, self.id);
    }
}

/// The model's `std::sync::WaitTimeoutResult`: whether a
/// [`Condvar::wait_timeout`] returned because its timeout elapsed —
/// never, since the explorer does not explore timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait timed out (always `false` in the model).
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// The atomic types, in a module mirroring `std::sync::atomic` so code
/// written against the model reads like `std` code.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::super::ctx;

    macro_rules! model_atomic_int {
        ($name:ident, $t:ty, $doc:literal) => {
            #[doc = $doc]
            pub struct $name {
                id: usize,
            }

            impl $name {
                /// Registers the atomic (with its initial value) in the
                /// active model execution.
                pub fn new(v: $t) -> Self {
                    $name {
                        id: ctx().exec.register_atomic(v as u64),
                    }
                }

                /// Model load: may observe any store the happens-before
                /// model allows for the given ordering.
                pub fn load(&self, ord: Ordering) -> $t {
                    let c = ctx();
                    c.exec.atomic_load(c.id, self.id, ord) as $t
                }

                /// Model store.
                pub fn store(&self, v: $t, ord: Ordering) {
                    let c = ctx();
                    c.exec.atomic_store(c.id, self.id, v as u64, ord);
                }

                /// Model fetch-add (wrapping, like the `std` type).
                pub fn fetch_add(&self, v: $t, ord: Ordering) -> $t {
                    let c = ctx();
                    c.exec
                        .atomic_rmw(c.id, self.id, ord, |old| (old as $t).wrapping_add(v) as u64)
                        as $t
                }

                /// Model fetch-sub (wrapping, like the `std` type).
                pub fn fetch_sub(&self, v: $t, ord: Ordering) -> $t {
                    let c = ctx();
                    c.exec
                        .atomic_rmw(c.id, self.id, ord, |old| (old as $t).wrapping_sub(v) as u64)
                        as $t
                }

                /// Model swap.
                pub fn swap(&self, v: $t, ord: Ordering) -> $t {
                    let c = ctx();
                    c.exec.atomic_rmw(c.id, self.id, ord, |_| v as u64) as $t
                }

                /// Model compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    let c = ctx();
                    c.exec
                        .atomic_cas(c.id, self.id, current as u64, new as u64, success, failure)
                        .map(|v| v as $t)
                        .map_err(|v| v as $t)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_struct(stringify!($name))
                        .field("id", &self.id)
                        .finish()
                }
            }
        };
    }

    model_atomic_int!(AtomicUsize, usize, "Model-checked `AtomicUsize`.");
    model_atomic_int!(AtomicU64, u64, "Model-checked `AtomicU64`.");
    model_atomic_int!(AtomicU32, u32, "Model-checked `AtomicU32`.");
    model_atomic_int!(AtomicU8, u8, "Model-checked `AtomicU8`.");

    /// Model-checked `AtomicBool`.
    pub struct AtomicBool {
        id: usize,
    }

    impl AtomicBool {
        /// Registers the atomic flag in the active model execution.
        pub fn new(v: bool) -> Self {
            AtomicBool {
                id: ctx().exec.register_atomic(u64::from(v)),
            }
        }

        /// Model load.
        pub fn load(&self, ord: Ordering) -> bool {
            let c = ctx();
            c.exec.atomic_load(c.id, self.id, ord) != 0
        }

        /// Model store.
        pub fn store(&self, v: bool, ord: Ordering) {
            let c = ctx();
            c.exec.atomic_store(c.id, self.id, u64::from(v), ord);
        }

        /// Model swap.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            let c = ctx();
            c.exec.atomic_rmw(c.id, self.id, ord, |_| u64::from(v)) != 0
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("AtomicBool").field("id", &self.id).finish()
        }
    }
}
