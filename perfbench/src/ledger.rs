//! The traced run's span ledger: per-layer busy time and call counts,
//! kept in memory and aggregated per layer boundary, plus the wrappers
//! that time the policy and workload layers from outside the simulator.
//!
//! The wrappers forward every trait method unchanged, so a wrapped run
//! produces byte-identical reports (checked by every traced run).

use mobicore_sim::{
    CpuControl, CpuPolicy, PolicySnapshot, Wake, Workload, WorkloadReport, WorkloadRt,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Busy nanoseconds and calls of one layer boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    /// Adds one call of `ns`.
    pub fn add(&mut self, ns: u64) {
        self.add_n(ns, 1);
    }

    /// Adds `calls` calls taking `ns` in total.
    pub fn add_n(&mut self, ns: u64, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    /// Adds another accumulator.
    pub fn merge(&mut self, o: Acc) {
        self.ns += o.ns;
        self.calls += o.calls;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The simulator-side layers one thread traced. Plain data, so a sweep
/// job can hand its ledger back across threads.
#[derive(Debug, Default, Clone)]
pub struct SimLedger {
    /// `Simulation::step` (device-busy drives it directly).
    pub step: Acc,
    /// `FleetSim::advance_next`.
    pub advance: Acc,
    /// Simulated ticks covered by all advances.
    pub advance_ticks: u64,
    /// Advances that were quiet bursts (more than one tick).
    pub bursts: u64,
    /// `CpuPolicy::on_sample`, per policy index.
    pub policy: Vec<Acc>,
    /// `Workload::on_tick` (estimated from sampled calls).
    pub workload: Acc,
    /// Policy + scenario + `Simulation::with_paths` construction.
    pub build: Acc,
    /// The same, `learned` cells only.
    pub build_learned: Acc,
    /// `Simulation::report`.
    pub report: Acc,
    /// `MetricSet::merge` of a device's telemetry.
    pub merge: Acc,
}

impl SimLedger {
    /// An empty ledger for `n_policies` policies.
    pub fn new(n_policies: usize) -> Self {
        SimLedger {
            policy: vec![Acc::default(); n_policies],
            ..SimLedger::default()
        }
    }

    /// Folds another thread's ledger in.
    pub fn merge(&mut self, o: &SimLedger) {
        self.step.merge(o.step);
        self.advance.merge(o.advance);
        self.advance_ticks += o.advance_ticks;
        self.bursts += o.bursts;
        for (a, b) in self.policy.iter_mut().zip(&o.policy) {
            a.merge(*b);
        }
        self.workload.merge(o.workload);
        self.build.merge(o.build);
        self.build_learned.merge(o.build_learned);
        self.report.merge(o.report);
        self.merge.merge(o.merge);
    }

    /// Total policy time and calls over every policy.
    pub fn policy_total(&self) -> Acc {
        let mut t = Acc::default();
        for a in &self.policy {
            t.merge(*a);
        }
        t
    }
}

/// One in this many workload calls is timed: a workload tick costs
/// about as much as a clock read, so timing every one would double it.
const WORKLOAD_SAMPLE: u64 = 8;

/// Accumulators the wrappers inside one simulation thread write to.
#[derive(Debug)]
pub struct Probe {
    policy_ns: Cell<u64>,
    policy_calls: Cell<u64>,
    /// Time of the sampled workload calls only.
    workload_ns: Cell<u64>,
    workload_sampled: Cell<u64>,
    workload_calls: Cell<u64>,
    /// xorshift64 state choosing which workload calls to time.
    rng: Cell<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            policy_ns: Cell::new(0),
            policy_calls: Cell::new(0),
            workload_ns: Cell::new(0),
            workload_sampled: Cell::new(0),
            workload_calls: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl Probe {
    fn add_policy(&self, ns: u64) {
        self.policy_ns.set(self.policy_ns.get() + ns);
        self.policy_calls.set(self.policy_calls.get() + 1);
    }

    /// Counts a workload call; true when this one should be timed (a
    /// pseudo-random 1 in [`WORKLOAD_SAMPLE`], so periodic workloads
    /// cannot alias with the sampling).
    fn sample_workload(&self) -> bool {
        self.workload_calls.set(self.workload_calls.get() + 1);
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(WORKLOAD_SAMPLE)
    }

    fn add_workload(&self, ns: u64) {
        self.workload_ns.set(self.workload_ns.get() + ns);
        self.workload_sampled.set(self.workload_sampled.get() + 1);
    }

    /// Moves the policy time into `ledger.policy[idx]` and the workload
    /// time (scaled up from the sampled calls) into `ledger.workload`,
    /// resetting the probe.
    pub fn drain_into(&self, ledger: &mut SimLedger, idx: usize) {
        ledger.policy[idx].add_n(self.policy_ns.replace(0), self.policy_calls.replace(0));
        let sampled = self.workload_sampled.replace(0);
        let calls = self.workload_calls.replace(0);
        let ns = self.workload_ns.replace(0) as f64 * calls as f64 / sampled.max(1) as f64;
        ledger.workload.add_n(ns as u64, calls);
    }
}

/// A policy whose `on_sample` calls are timed into a [`Probe`].
pub struct TimedPolicy {
    inner: Box<dyn CpuPolicy + Send>,
    probe: Rc<Probe>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn CpuPolicy + Send>, probe: Rc<Probe>) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl CpuPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn sampling_period_us(&self) -> u64 {
        self.inner.sampling_period_us()
    }
    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        let t0 = Instant::now();
        self.inner.on_sample(snap, ctl);
        self.probe.add_policy(ns_since(t0));
    }
}

/// A workload whose `on_start`/`on_tick` calls are timed (sampled) into
/// a [`Probe`]; `next_tick_us` and `report` forward untimed.
pub struct TimedWorkload<W> {
    inner: W,
    probe: Rc<Probe>,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W, probe: Rc<Probe>) -> Self {
        TimedWorkload { inner, probe }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_start(&mut self, rt: &mut WorkloadRt) {
        self.inner.on_start(rt);
    }
    fn on_tick(&mut self, now_us: u64, tick_us: u64, rt: &mut WorkloadRt) {
        if self.probe.sample_workload() {
            let t0 = Instant::now();
            self.inner.on_tick(now_us, tick_us, rt);
            self.probe.add_workload(ns_since(t0));
        } else {
            self.inner.on_tick(now_us, tick_us, rt);
        }
    }
    fn next_tick_us(&self, now_us: u64) -> Wake {
        self.inner.next_tick_us(now_us)
    }
    fn report(&self, now_us: u64, rt: &WorkloadRt) -> WorkloadReport {
        self.inner.report(now_us, rt)
    }
}
