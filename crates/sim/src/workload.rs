//! The interface between workloads and the simulated kernel.
//!
//! A [`Workload`] models an Android app: it owns logical threads, feeds
//! them work (in CPU cycles — the unit a busy loop with no memory
//! accesses is naturally measured in, §3.1) and observes completions.
//! Concrete workloads (busy-loop kernel app, GeekBench-like suite, games)
//! live in `mobicore-workloads`.

use crate::engine::Wake;
use std::collections::VecDeque;

/// Identifier of a simulated thread.
pub type ThreadId = usize;

/// A chunk of CPU work queued on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Caller-chosen tag reported back on completion (frame number,
    /// benchmark phase, ...).
    pub tag: u64,
    /// Remaining work, CPU cycles.
    pub cycles_left: u64,
}

/// A completion event: `tag` finished at `time_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The completed item's thread.
    pub thread: ThreadId,
    /// The completed item's tag.
    pub tag: u64,
    /// Completion timestamp, µs.
    pub time_us: u64,
}

/// One simulated thread: a FIFO of work items.
#[derive(Debug, Default)]
pub(crate) struct Thread {
    pub queue: VecDeque<WorkItem>,
    /// Total cycles ever executed on this thread.
    pub executed_cycles: u64,
    /// Core the thread last ran on (scheduling affinity hint).
    pub last_core: Option<usize>,
}

impl Thread {
    pub fn runnable(&self) -> bool {
        !self.queue.is_empty()
    }

    pub fn pending_cycles(&self) -> u64 {
        self.queue.iter().map(|w| w.cycles_left).sum()
    }
}

/// The runtime facade a workload drives threads through.
///
/// Obtained inside [`Workload::on_start`] / [`Workload::on_tick`];
/// completions from the *previous* tick are visible via
/// [`WorkloadRt::completions`].
#[derive(Debug, Default)]
pub struct WorkloadRt {
    pub(crate) threads: Vec<Thread>,
    pub(crate) completions: Vec<Completion>,
}

impl WorkloadRt {
    /// An empty runtime (the simulator builds one per run; exposed for
    /// scheduler-level tests and custom harnesses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new thread and returns its id.
    pub fn spawn_thread(&mut self) -> ThreadId {
        self.threads.push(Thread::default());
        self.threads.len() - 1
    }

    /// Queues `cycles` of work tagged `tag` on `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never spawned.
    pub fn push_work(&mut self, thread: ThreadId, cycles: u64, tag: u64) {
        if cycles == 0 {
            return;
        }
        self.threads[thread].queue.push_back(WorkItem {
            tag,
            cycles_left: cycles,
        });
    }

    /// Work still queued on `thread`, in cycles.
    pub fn pending_cycles(&self, thread: ThreadId) -> u64 {
        self.threads[thread].pending_cycles()
    }

    /// Completions recorded since the previous tick (drained after each
    /// workload tick).
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Total cycles executed across all threads so far.
    pub fn total_executed_cycles(&self) -> u64 {
        self.threads.iter().map(|t| t.executed_cycles).sum()
    }

    /// Number of threads with queued work right now (the scheduler's
    /// `nr_running` signal).
    pub fn runnable_count(&self) -> usize {
        self.threads.iter().filter(|t| t.runnable()).count()
    }

    pub(crate) fn clear_completions(&mut self) {
        self.completions.clear();
    }
}

/// A metric reported by a workload at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`"score"`, `"avg_fps"`, ...).
    pub name: String,
    /// Metric value.
    pub value: f64,
}

/// The end-of-run report of one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    /// The workload's name.
    pub name: String,
    /// Named metrics.
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    /// A report with no metrics.
    pub fn named(name: impl Into<String>) -> Self {
        WorkloadReport {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Adds a metric (builder style).
    #[must_use]
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value,
        });
        self
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// An application driving the simulated CPU.
pub trait Workload {
    /// Workload name for reports.
    fn name(&self) -> &str;

    /// Called once before the first tick; spawn threads and queue initial
    /// work here.
    fn on_start(&mut self, rt: &mut WorkloadRt);

    /// Called every simulation tick *before* scheduling; inspect
    /// completions and queue more work.
    fn on_tick(&mut self, now_us: u64, tick_us: u64, rt: &mut WorkloadRt);

    /// The workload's declared wake time for the event-driven engine —
    /// when it next needs a *full* simulation step.
    ///
    /// The contract: returning [`Wake::At`]`(t)` or [`Wake::Never`]
    /// promises that every [`Workload::on_tick`] call strictly before
    /// `t` (forever, for `Never`) with an empty completion list is an
    /// observable no-op — no work queued, no internal state the workload
    /// later reads. The engine may then skip those calls entirely. When
    /// in doubt return the default [`Wake::EveryTick`], which is always
    /// correct (the cyclic engine ignores this method).
    fn next_tick_us(&self, now_us: u64) -> Wake {
        let _ = now_us;
        Wake::EveryTick
    }

    /// Called once after the last tick; produce the final report.
    fn report(&self, now_us: u64, rt: &WorkloadRt) -> WorkloadReport;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_start(&mut self, rt: &mut WorkloadRt) {
        (**self).on_start(rt)
    }
    fn on_tick(&mut self, now_us: u64, tick_us: u64, rt: &mut WorkloadRt) {
        (**self).on_tick(now_us, tick_us, rt)
    }
    // Forwarded explicitly: the default body would hide the inner
    // workload's declared wake and pin every boxed workload to EveryTick.
    fn next_tick_us(&self, now_us: u64) -> Wake {
        (**self).next_tick_us(now_us)
    }
    fn report(&self, now_us: u64, rt: &WorkloadRt) -> WorkloadReport {
        (**self).report(now_us, rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_push() {
        let mut rt = WorkloadRt::new();
        let t0 = rt.spawn_thread();
        let t1 = rt.spawn_thread();
        assert_eq!((t0, t1), (0, 1));
        rt.push_work(t0, 1_000, 7);
        rt.push_work(t0, 500, 8);
        assert_eq!(rt.pending_cycles(t0), 1_500);
        assert_eq!(rt.pending_cycles(t1), 0);
        assert!(rt.threads[t0].runnable());
        assert!(!rt.threads[t1].runnable());
    }

    #[test]
    fn zero_cycle_work_is_dropped() {
        let mut rt = WorkloadRt::new();
        let t = rt.spawn_thread();
        rt.push_work(t, 0, 1);
        assert_eq!(rt.pending_cycles(t), 0);
    }

    #[test]
    #[should_panic]
    fn push_to_unknown_thread_panics() {
        let mut rt = WorkloadRt::new();
        rt.push_work(3, 10, 0);
    }

    #[test]
    fn report_metric_lookup() {
        let r = WorkloadReport::named("bench")
            .with_metric("score", 1234.0)
            .with_metric("avg_fps", 17.5);
        assert_eq!(r.metric("score"), Some(1234.0));
        assert_eq!(r.metric("avg_fps"), Some(17.5));
        assert_eq!(r.metric("missing"), None);
    }

    #[test]
    fn completions_clear() {
        let mut rt = WorkloadRt::new();
        rt.completions.push(Completion {
            thread: 0,
            tag: 1,
            time_us: 5,
        });
        assert_eq!(rt.completions().len(), 1);
        rt.clear_completions();
        assert!(rt.completions().is_empty());
    }
}
