//! Trace-driven workloads: record a utilization trace once, replay it
//! under any policy. This is how the thesis' "historical information of
//! the hardware states" file (§3.1) becomes a reusable workload, and it
//! makes cross-policy comparisons perfectly fair — the offered load is
//! byte-identical.

use mobicore_model::{quantize_u64, Khz};
use mobicore_sim::{ThreadId, Workload, WorkloadReport, WorkloadRt};

/// One trace sample: hold a demand level for a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Duration of this segment, µs.
    pub duration_us: u64,
    /// Demand as a fraction of one reference core per thread, `[0, ..)`.
    pub load: f64,
}

/// A recorded utilization trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilTrace {
    points: Vec<TracePoint>,
}

impl UtilTrace {
    /// Builds a trace from points.
    pub fn new(points: Vec<TracePoint>) -> Self {
        UtilTrace { points }
    }

    /// Parses the two-column CSV `duration_us,load` (comments with `#`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut points = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split(',');
            let dur = cols
                .next()
                .and_then(|c| c.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: bad duration", i + 1))?;
            let load = cols
                .next()
                .and_then(|c| c.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("line {}: bad load", i + 1))?;
            if cols.next().is_some() {
                return Err(format!("line {}: too many columns", i + 1));
            }
            points.push(TracePoint {
                duration_us: dur,
                load,
            });
        }
        Ok(UtilTrace { points })
    }

    /// Serializes back to the CSV format accepted by
    /// [`UtilTrace::from_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::from("# duration_us,load\n");
        for p in &self.points {
            out.push_str(&format!("{},{}\n", p.duration_us, p.load));
        }
        out
    }

    /// Total trace duration, µs.
    pub fn duration_us(&self) -> u64 {
        self.points.iter().map(|p| p.duration_us).sum()
    }

    /// The points.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The load at trace offset `t_us`, looping past the end.
    pub fn load_at(&self, t_us: u64) -> f64 {
        let total = self.duration_us();
        if total == 0 {
            return 0.0;
        }
        let mut t = t_us % total;
        for p in &self.points {
            if t < p.duration_us {
                return p.load;
            }
            t -= p.duration_us;
        }
        0.0
    }
}

/// Replays a [`UtilTrace`] on `n_threads` threads against a reference
/// frequency (like [`RateLoad`](crate::RateLoad) but time-varying and
/// loopable).
#[derive(Debug)]
pub struct TraceWorkload {
    trace: UtilTrace,
    f_ref: Khz,
    n_threads: usize,
    threads: Vec<ThreadId>,
    carry: f64,
    next_tag: u64,
    started_at: Option<u64>,
}

impl TraceWorkload {
    /// A replay of `trace` with total demand `load · n_threads · f_ref`.
    pub fn new(trace: UtilTrace, n_threads: usize, f_ref: Khz) -> Self {
        TraceWorkload {
            trace,
            f_ref,
            n_threads: n_threads.max(1),
            threads: Vec::new(),
            carry: 0.0,
            next_tag: 0,
            started_at: None,
        }
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        "trace-replay"
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        for _ in 0..self.n_threads {
            self.threads.push(rt.spawn_thread());
        }
    }

    fn on_tick(&mut self, now_us: u64, tick_us: u64, rt: &mut WorkloadRt) {
        let t0 = *self.started_at.get_or_insert(now_us);
        let load = self.trace.load_at(now_us - t0);
        if load <= 0.0 {
            return;
        }
        let demand =
            load * self.n_threads as f64 * self.f_ref.cycles_in_us(tick_us) as f64 + self.carry;
        let whole = demand.floor();
        self.carry = demand - whole;
        let per_thread = quantize_u64(whole) / self.n_threads as u64;
        if per_thread == 0 {
            self.carry += whole;
            return;
        }
        for &t in &self.threads {
            if rt.pending_cycles(t) < 20 * per_thread {
                rt.push_work(t, per_thread, self.next_tag);
                self.next_tag += 1;
            }
        }
    }

    fn report(&self, _now_us: u64, rt: &WorkloadRt) -> WorkloadReport {
        WorkloadReport::named(self.name())
            .with_metric("executed_cycles", rt.total_executed_cycles() as f64)
            .with_metric("trace_duration_us", self.trace.duration_us() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::profiles;
    use mobicore_sim::builtin::PinnedPolicy;
    use mobicore_sim::{SimConfig, Simulation};

    fn simple_trace() -> UtilTrace {
        UtilTrace::new(vec![
            TracePoint {
                duration_us: 1_000_000,
                load: 0.2,
            },
            TracePoint {
                duration_us: 1_000_000,
                load: 0.8,
            },
        ])
    }

    #[test]
    fn csv_round_trip() {
        let t = simple_trace();
        let csv = t.to_csv();
        let back = UtilTrace::from_csv(&csv).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(UtilTrace::from_csv("abc,0.5").is_err());
        assert!(UtilTrace::from_csv("100,xyz").is_err());
        assert!(UtilTrace::from_csv("100,0.5,9").is_err());
        // comments and blanks are fine
        let t = UtilTrace::from_csv("# hello\n\n100,0.5\n").unwrap();
        assert_eq!(t.points().len(), 1);
    }

    #[test]
    fn load_at_loops() {
        let t = simple_trace();
        assert_eq!(t.load_at(0), 0.2);
        assert_eq!(t.load_at(999_999), 0.2);
        assert_eq!(t.load_at(1_000_000), 0.8);
        assert_eq!(t.load_at(2_000_000), 0.2, "wrapped");
        assert_eq!(t.load_at(3_500_000), 0.8);
    }

    #[test]
    fn empty_trace_is_idle() {
        let t = UtilTrace::default();
        assert_eq!(t.load_at(12345), 0.0);
        assert_eq!(t.duration_us(), 0);
    }

    #[test]
    fn replay_reproduces_average_load() {
        let profile = profiles::nexus5();
        let khz = profile.opps().max_khz();
        let cfg = SimConfig::new(profile)
            .with_duration_secs(4)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, khz))).unwrap();
        sim.add_workload(Box::new(TraceWorkload::new(simple_trace(), 1, khz)));
        let r = sim.run();
        let per_core = r.avg_overall_util * 4.0;
        // average of 0.2 and 0.8 over two loops
        assert!((per_core - 0.5).abs() < 0.06, "got {per_core}");
    }
}
