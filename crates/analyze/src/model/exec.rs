//! The serialized-execution engine behind the model checker.
//!
//! One [`Execution`] is a single run of the program under test with a
//! fixed choice sequence. Modeled threads are real OS threads, but only
//! one ever runs at a time: a thread holds "the floor" and, before each
//! visible operation (atomic access, mutex lock/unlock, condvar op,
//! spawn, join, finish), offers a scheduling choice — which thread
//! performs the next operation. The choice is taken from a replayable
//! [`ChoiceStack`], which is what lets the explorer in `model/mod.rs`
//! enumerate interleavings by depth-first backtracking.
//!
//! Blocking is modeled, not real: a thread that cannot proceed marks
//! itself blocked and hands the floor on. If no thread is runnable and
//! some are blocked, the engine reports a deadlock with the schedule
//! that produced it.
//!
//! Weak memory is modeled per atomic location as a modification order
//! of stores, each stamped with the storing thread's vector clock and,
//! for Release stores, a release clock. A load may read any store that
//! is (a) not older than one the thread already observed and (b) not
//! superseded by a later store the thread knows happened. Which
//! candidate it reads is another explorer choice — so dropping an
//! Acquire widens the candidate set and the checker finds the stale
//! read.

use super::clock::{VClock, MAX_THREADS};
use std::sync::atomic::Ordering;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};

/// Sentinel panic payload used to unwind modeled threads when an
/// execution aborts (failure recorded or path pruned). The panic hook
/// installed by `Model::check` suppresses its report.
pub(crate) struct ModelAbort;

/// Why an execution ended without completing normally.
#[derive(Debug, Clone)]
pub(crate) enum Failure {
    /// A real property violation: deadlock, panic in a modeled thread,
    /// misuse of a primitive.
    Violation(String),
    /// The execution exceeded a search bound (step budget); the path is
    /// abandoned as an unfair schedule, not counted as a violation.
    Pruned(&'static str),
}

/// One recorded scheduling / read choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Choice {
    /// Index picked among the options (DFS increments this on
    /// backtracking).
    pub chosen: usize,
    /// How many options were available at this point.
    pub options: usize,
}

/// Replayable stack of choices: a recorded prefix is replayed verbatim,
/// then fresh choices default to option 0 and are recorded.
#[derive(Debug, Default)]
pub(crate) struct ChoiceStack {
    pub choices: Vec<Choice>,
    pos: usize,
}

impl ChoiceStack {
    pub(crate) fn with_prefix(prefix: Vec<Choice>) -> Self {
        ChoiceStack {
            choices: prefix,
            pos: 0,
        }
    }

    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 1, "choice needs at least one option");
        if self.pos < self.choices.len() {
            let c = self.choices[self.pos];
            debug_assert_eq!(
                c.options, options,
                "replay divergence: the program under test is nondeterministic"
            );
            self.pos += 1;
            c.chosen
        } else {
            self.choices.push(Choice { chosen: 0, options });
            self.pos += 1;
            0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    BlockedOnMutex(usize),
    BlockedOnCondvar(usize),
    BlockedOnJoin(usize),
    Finished,
}

struct StoreEv {
    val: u64,
    /// The storing thread's clock at the store (after its tick): used
    /// for the supersession check.
    clock: VClock,
    /// Release clock carried to Acquire readers (None for Relaxed
    /// stores that start no release sequence).
    release: Option<VClock>,
}

struct AtomicInfo {
    stores: Vec<StoreEv>,
    /// Per-thread index of the newest store this thread has observed
    /// (read coherence: a thread never reads backwards).
    last_read: [usize; MAX_THREADS],
}

struct MutexInfo {
    owner: Option<usize>,
    /// Clock transferred lock-to-lock (release at unlock, acquire at
    /// lock).
    clock: VClock,
}

struct CondvarInfo {
    waiters: Vec<usize>,
}

pub(crate) struct ExecState {
    threads: Vec<Status>,
    clocks: Vec<VClock>,
    /// Which thread holds the floor (None only while winding down).
    current: Option<usize>,
    /// True between a grant to another thread and that thread consuming
    /// it — distinguishes "just granted, perform the op" from "still
    /// holding the floor, offer a new choice".
    fresh_grant: bool,
    pub(crate) choices: ChoiceStack,
    mutexes: Vec<MutexInfo>,
    atomics: Vec<AtomicInfo>,
    condvars: Vec<CondvarInfo>,
    pub(crate) failure: Option<Failure>,
    steps: u64,
    preemptions: u32,
    stale_reads: u32,
}

impl ExecState {
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Search bounds for one execution (copied from the `Model` config).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    pub max_steps: u64,
    /// CHESS-style preemption bound: once this many involuntary
    /// context switches have been explored on a path, the running
    /// thread is forced to continue. `None` = exhaustive.
    pub preemption_bound: Option<u32>,
    /// Bound on stale (non-latest) atomic reads per execution; further
    /// loads read the newest visible store without branching.
    pub stale_read_bound: u32,
}

pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    cond: StdCondvar,
    bounds: Bounds,
}

type StateGuard<'a> = StdGuard<'a, ExecState>;

fn abort() -> ! {
    std::panic::panic_any(ModelAbort)
}

impl Execution {
    /// A fresh execution with thread 0 (the driver) registered and
    /// holding the floor.
    pub(crate) fn new(bounds: Bounds, prefix: Vec<Choice>) -> Self {
        Execution {
            state: StdMutex::new(ExecState {
                threads: vec![Status::Runnable],
                clocks: vec![VClock::new()],
                current: Some(0),
                fresh_grant: false,
                choices: ChoiceStack::with_prefix(prefix),
                mutexes: Vec::new(),
                atomics: Vec::new(),
                condvars: Vec::new(),
                failure: None,
                steps: 0,
                preemptions: 0,
                stale_reads: 0,
            }),
            cond: StdCondvar::new(),
            bounds,
        }
    }

    fn lock_state(&self) -> StateGuard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a failure (first one wins), wakes every parked thread,
    /// and unwinds the caller.
    fn fail_locked(&self, st: &mut StateGuard<'_>, failure: Failure) -> ! {
        if st.failure.is_none() {
            st.failure = Some(failure);
        }
        self.cond.notify_all();
        abort()
    }

    /// Records a modeled thread's real panic as a violation and wakes
    /// everyone so the execution can unwind.
    pub(crate) fn record_panic(&self, thread: usize, message: String) {
        let mut st = self.lock_state();
        if st.failure.is_none() {
            st.failure = Some(Failure::Violation(format!(
                "modeled thread {thread} panicked: {message}"
            )));
        }
        st.threads[thread] = Status::Finished;
        self.cond.notify_all();
    }

    /// Called by the explorer after the driver closure returns: leaks
    /// are violations, and parked threads are released.
    pub(crate) fn finalize(&self, driver_ok: bool, driver_panic: Option<String>) {
        let mut st = self.lock_state();
        if st.failure.is_none() {
            if let Some(msg) = driver_panic {
                st.failure = Some(Failure::Violation(format!("driver panicked: {msg}")));
            } else if driver_ok {
                if let Some(leaked) = st
                    .threads
                    .iter()
                    .skip(1)
                    .position(|s| !matches!(s, Status::Finished))
                {
                    st.failure = Some(Failure::Violation(format!(
                        "thread {} was not joined before the driver returned",
                        leaked + 1
                    )));
                } else if let Some(id) = st.mutexes.iter().position(|m| m.owner.is_some()) {
                    st.failure = Some(Failure::Violation(format!(
                        "mutex {id} still locked when the driver returned"
                    )));
                }
            }
        }
        self.cond.notify_all();
    }

    pub(crate) fn take_result(&self) -> (Vec<Choice>, Option<Failure>, u64) {
        let mut st = self.lock_state();
        let choices = std::mem::take(&mut st.choices.choices);
        (choices, st.failure.clone(), st.steps)
    }

    /// Picks the next thread among `cands` (sorted, non-empty). When
    /// the preemption budget is spent and the yielding thread is a
    /// candidate, it is forced to continue without branching.
    fn pick(&self, st: &mut StateGuard<'_>, cands: &[usize], yielder: Option<usize>) -> usize {
        if cands.len() == 1 {
            return cands[0];
        }
        if let (Some(bound), Some(me)) = (self.bounds.preemption_bound, yielder) {
            if st.preemptions >= bound && cands.contains(&me) {
                return me;
            }
        }
        let i = st.choices.choose(cands.len());
        let chosen = cands[i];
        if let Some(me) = yielder {
            if chosen != me {
                st.preemptions += 1;
            }
        }
        chosen
    }

    /// Parks until `me` is granted the floor, consuming the grant.
    fn wait_floor<'a>(&'a self, mut st: StateGuard<'a>, me: usize) -> StateGuard<'a> {
        loop {
            if st.failure.is_some() {
                self.cond.notify_all();
                abort()
            }
            if st.current == Some(me) && st.fresh_grant {
                st.fresh_grant = false;
                return st;
            }
            st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Accounts one operation attempt against the step budget.
    fn step<'a>(&'a self, mut st: StateGuard<'a>, _me: usize) -> StateGuard<'a> {
        st.steps += 1;
        if st.steps > self.bounds.max_steps {
            self.fail_locked(&mut st, Failure::Pruned("step budget exceeded"));
        }
        st
    }

    /// The prologue of every modeled operation: offer a scheduling
    /// choice (if holding the floor) or park until granted, then return
    /// the state guard under which the operation body runs.
    fn begin_op(&self, me: usize) -> StateGuard<'_> {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            self.cond.notify_all();
            abort()
        }
        if st.current == Some(me) && !st.fresh_grant {
            let cands = st.runnable();
            debug_assert!(cands.contains(&me), "a running thread must be runnable");
            let chosen = self.pick(&mut st, &cands, Some(me));
            st.current = Some(chosen);
            if chosen != me {
                st.fresh_grant = true;
                self.cond.notify_all();
                st = self.wait_floor(st, me);
            }
        } else {
            st = self.wait_floor(st, me);
        }
        self.step(st, me)
    }

    /// Marks `me` blocked (caller already set the status), hands the
    /// floor on, and parks until re-granted. Detects deadlock when
    /// nothing is runnable.
    fn block_and_wait<'a>(&'a self, mut st: StateGuard<'a>, me: usize) -> StateGuard<'a> {
        let cands = st.runnable();
        if cands.is_empty() {
            let snapshot: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, s)| format!("thread {i}: {s:?}"))
                .collect();
            self.fail_locked(
                &mut st,
                Failure::Violation(format!(
                    "deadlock — no runnable thread [{}]",
                    snapshot.join(", ")
                )),
            );
        }
        let chosen = self.pick(&mut st, &cands, None);
        st.current = Some(chosen);
        st.fresh_grant = true;
        self.cond.notify_all();
        let st = self.wait_floor(st, me);
        self.step(st, me)
    }

    // ---- thread lifecycle ----------------------------------------

    /// Registers a child thread (inherits the parent's clock) and
    /// returns its id. The spawn itself is a visible operation.
    pub(crate) fn spawn_thread(&self, me: usize) -> usize {
        let mut st = self.begin_op(me);
        if st.threads.len() >= MAX_THREADS {
            self.fail_locked(
                &mut st,
                Failure::Violation(format!("spawn exceeds MAX_THREADS={MAX_THREADS}")),
            );
        }
        let child = st.threads.len();
        st.threads.push(Status::Runnable);
        st.clocks[me].tick(me);
        let c = st.clocks[me];
        st.clocks.push(c);
        child
    }

    /// Marks `me` finished, wakes joiners, and hands the floor on (or
    /// lets the execution wind down when everyone is done).
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut st = self.begin_op(me);
        st.clocks[me].tick(me);
        st.threads[me] = Status::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedOnJoin(me) {
                st.threads[t] = Status::Runnable;
            }
        }
        let cands = st.runnable();
        if cands.is_empty() {
            if st.threads.iter().all(|s| matches!(s, Status::Finished)) {
                st.current = None;
                self.cond.notify_all();
                return;
            }
            // Someone is blocked and nobody can ever wake them.
            let snapshot: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, s)| format!("thread {i}: {s:?}"))
                .collect();
            self.fail_locked(
                &mut st,
                Failure::Violation(format!(
                    "deadlock at thread {me} exit [{}]",
                    snapshot.join(", ")
                )),
            );
        }
        let chosen = self.pick(&mut st, &cands, None);
        st.current = Some(chosen);
        st.fresh_grant = true;
        self.cond.notify_all();
    }

    /// Blocks until `target` finishes, then joins its final clock.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        let mut st = self.begin_op(me);
        loop {
            if matches!(st.threads[target], Status::Finished) {
                let tc = st.clocks[target];
                st.clocks[me].join(&tc);
                return;
            }
            st.threads[me] = Status::BlockedOnJoin(target);
            st = self.block_and_wait(st, me);
        }
    }

    // ---- mutexes --------------------------------------------------

    pub(crate) fn register_mutex(&self) -> usize {
        let mut st = self.lock_state();
        st.mutexes.push(MutexInfo {
            owner: None,
            clock: VClock::new(),
        });
        st.mutexes.len() - 1
    }

    fn lock_loop<'a>(&'a self, mut st: StateGuard<'a>, me: usize, id: usize) -> StateGuard<'a> {
        loop {
            match st.mutexes[id].owner {
                None => {
                    st.mutexes[id].owner = Some(me);
                    let c = st.mutexes[id].clock;
                    st.clocks[me].join(&c);
                    return st;
                }
                Some(o) if o == me => {
                    self.fail_locked(
                        &mut st,
                        Failure::Violation(format!("thread {me} deadlocked re-locking mutex {id}")),
                    );
                }
                Some(_) => {
                    st.threads[me] = Status::BlockedOnMutex(id);
                    st = self.block_and_wait(st, me);
                }
            }
        }
    }

    pub(crate) fn mutex_lock(&self, me: usize, id: usize) {
        let st = self.begin_op(me);
        let _st = self.lock_loop(st, me, id);
    }

    pub(crate) fn mutex_unlock(&self, me: usize, id: usize) {
        let mut st = self.begin_op(me);
        if st.mutexes[id].owner != Some(me) {
            self.fail_locked(
                &mut st,
                Failure::Violation(format!("thread {me} unlocked mutex {id} it does not own")),
            );
        }
        st.clocks[me].tick(me);
        let c = st.clocks[me];
        st.mutexes[id].clock = c;
        st.mutexes[id].owner = None;
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedOnMutex(id) {
                st.threads[t] = Status::Runnable;
            }
        }
    }

    // ---- condvars -------------------------------------------------

    pub(crate) fn register_condvar(&self) -> usize {
        let mut st = self.lock_state();
        st.condvars.push(CondvarInfo {
            waiters: Vec::new(),
        });
        st.condvars.len() - 1
    }

    /// Atomically releases the mutex and parks on the condvar; on
    /// wake-up, re-acquires the mutex before returning.
    pub(crate) fn condvar_wait(&self, me: usize, cv: usize, mutex: usize) {
        let mut st = self.begin_op(me);
        if st.mutexes[mutex].owner != Some(me) {
            self.fail_locked(
                &mut st,
                Failure::Violation(format!(
                    "thread {me} waited on condvar {cv} without owning mutex {mutex}"
                )),
            );
        }
        // Inline unlock.
        st.clocks[me].tick(me);
        let c = st.clocks[me];
        st.mutexes[mutex].clock = c;
        st.mutexes[mutex].owner = None;
        for t in 0..st.threads.len() {
            if st.threads[t] == Status::BlockedOnMutex(mutex) {
                st.threads[t] = Status::Runnable;
            }
        }
        st.condvars[cv].waiters.push(me);
        st.threads[me] = Status::BlockedOnCondvar(cv);
        let st = self.block_and_wait(st, me);
        // Woken by a notify: re-acquire the mutex (may block again).
        let _st = self.lock_loop(st, me, mutex);
    }

    pub(crate) fn condvar_notify_all(&self, me: usize, cv: usize) {
        let mut st = self.begin_op(me);
        let waiters = std::mem::take(&mut st.condvars[cv].waiters);
        for w in waiters {
            st.threads[w] = Status::Runnable;
        }
    }

    // ---- atomics --------------------------------------------------

    pub(crate) fn register_atomic(&self, init: u64) -> usize {
        let mut st = self.lock_state();
        st.atomics.push(AtomicInfo {
            stores: vec![StoreEv {
                val: init,
                clock: VClock::new(),
                release: None,
            }],
            last_read: [0; MAX_THREADS],
        });
        st.atomics.len() - 1
    }

    fn is_acquire(ord: Ordering) -> bool {
        matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn is_release(ord: Ordering) -> bool {
        matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    /// Indices of stores `me` may legally read: nothing older than what
    /// it already observed, nothing superseded by a store it knows
    /// happened.
    fn read_candidates(st: &ExecState, id: usize, me: usize) -> Vec<usize> {
        let a = &st.atomics[id];
        let n = a.stores.len();
        let clock = &st.clocks[me];
        (a.last_read[me]..n)
            .filter(|&i| {
                // A store is superseded when some LATER store is known
                // to have happened; the latest store never is.
                !(i + 1..n).any(|j| a.stores[j].clock.dominated_by(clock))
            })
            .collect()
    }

    pub(crate) fn atomic_load(&self, me: usize, id: usize, ord: Ordering) -> u64 {
        let mut st = self.begin_op(me);
        let cands = Self::read_candidates(&st, id, me);
        debug_assert!(!cands.is_empty(), "the newest store is always readable");
        let pick = if cands.len() == 1 {
            cands[0]
        } else if st.stale_reads >= self.bounds.stale_read_bound {
            // Stale-read budget spent: read the newest candidate
            // without branching.
            *cands.last().expect("candidates are non-empty")
        } else {
            let i = st.choices.choose(cands.len());
            let c = cands[i];
            if Some(&c) != cands.last() {
                st.stale_reads += 1;
            }
            c
        };
        st.atomics[id].last_read[me] = pick;
        let release = st.atomics[id].stores[pick].release;
        if Self::is_acquire(ord) {
            if let Some(rc) = release {
                st.clocks[me].join(&rc);
            }
        }
        st.atomics[id].stores[pick].val
    }

    pub(crate) fn atomic_store(&self, me: usize, id: usize, val: u64, ord: Ordering) {
        let mut st = self.begin_op(me);
        st.clocks[me].tick(me);
        let clock = st.clocks[me];
        let release = Self::is_release(ord).then_some(clock);
        let a = &mut st.atomics[id];
        a.stores.push(StoreEv {
            val,
            clock,
            release,
        });
        a.last_read[me] = a.stores.len() - 1;
    }

    /// Read-modify-write: reads the newest store (RMW atomicity), and
    /// its store continues the release sequence of the store it read.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        id: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let mut st = self.begin_op(me);
        let last = st.atomics[id].stores.len() - 1;
        let old = st.atomics[id].stores[last].val;
        let read_release = st.atomics[id].stores[last].release;
        if Self::is_acquire(ord) {
            if let Some(rc) = read_release {
                st.clocks[me].join(&rc);
            }
        }
        st.clocks[me].tick(me);
        let clock = st.clocks[me];
        let mut release = read_release;
        if Self::is_release(ord) {
            let mut rc = clock;
            if let Some(prev) = release {
                rc.join(&prev);
            }
            release = Some(rc);
        }
        let a = &mut st.atomics[id];
        a.stores.push(StoreEv {
            val: f(old),
            clock,
            release,
        });
        a.last_read[me] = a.stores.len() - 1;
        old
    }

    /// Compare-exchange: success behaves like an RMW, failure like a
    /// load of the newest store.
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        id: usize,
        expect: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let mut st = self.begin_op(me);
        let last = st.atomics[id].stores.len() - 1;
        let old = st.atomics[id].stores[last].val;
        let read_release = st.atomics[id].stores[last].release;
        if old == expect {
            if Self::is_acquire(success) {
                if let Some(rc) = read_release {
                    st.clocks[me].join(&rc);
                }
            }
            st.clocks[me].tick(me);
            let clock = st.clocks[me];
            let mut release = read_release;
            if Self::is_release(success) {
                let mut rc = clock;
                if let Some(prev) = release {
                    rc.join(&prev);
                }
                release = Some(rc);
            }
            let a = &mut st.atomics[id];
            a.stores.push(StoreEv {
                val: new,
                clock,
                release,
            });
            a.last_read[me] = a.stores.len() - 1;
            Ok(old)
        } else {
            if Self::is_acquire(failure) {
                if let Some(rc) = read_release {
                    st.clocks[me].join(&rc);
                }
            }
            st.atomics[id].last_read[me] = last;
            Err(old)
        }
    }
}
