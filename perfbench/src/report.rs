//! Measurement plumbing shared by the workloads: latency distributions,
//! seed mixing, report digests, host metadata, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Bucket growth of [`Dist`]: 0.5 % wide log buckets.
const RATIO: f64 = 1.005;
/// Smallest value [`Dist`] resolves; anything below lands in bucket 0.
const FLOOR: f64 = 1e-3;
/// Up to this many samples [`Dist`] also keeps them exactly.
const EXACT: usize = 256;

/// A latency distribution: exact below [`EXACT`] samples, 0.5 % log
/// buckets with in-bucket interpolation above. Buckets are sparse, so
/// memory (and so peak RSS) does not grow with run length.
#[derive(Clone, Default)]
pub struct Dist {
    buckets: BTreeMap<u32, u64>,
    exact: Vec<f64>,
    n: u64,
}

impl Dist {
    fn bucket(v: f64) -> u32 {
        if v <= FLOOR {
            0
        } else {
            ((v / FLOOR).ln() / RATIO.ln()) as u32
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        *self.buckets.entry(Self::bucket(v)).or_insert(0) += 1;
        if self.exact.len() < EXACT {
            self.exact.push(v);
        }
        self.n += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Dist) {
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.n += other.n;
        if self.n as usize <= EXACT {
            self.exact.extend_from_slice(&other.exact);
        }
    }

    /// The `q` quantile (0..=1) at rank `q·(n-1)`: interpolated exactly
    /// while every sample is kept, geometrically inside its bucket
    /// after; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.n == 0 {
            return 0.0;
        }
        if self.n as usize == self.exact.len() {
            let mut v = self.exact.clone();
            v.sort_by(f64::total_cmp);
            let r = q * (v.len() - 1) as f64;
            let (lo, hi) = (r.floor() as usize, r.ceil() as usize);
            return v[lo] + (v[hi] - v[lo]) * (r - lo as f64);
        }
        let rank = (q * (self.n - 1) as f64).floor() as u64;
        let mut below = 0u64;
        for (&b, &c) in &self.buckets {
            if rank < below + c {
                let pos = (rank - below) as f64 + 0.5;
                return FLOOR * RATIO.powf(f64::from(b) + pos / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} < n {}", self.n)
    }
}

/// One measured repetition of an operation kind: the work done, its
/// host time, and the latency samples taken in it.
#[derive(Clone, Default)]
pub struct Window {
    /// Which operation kind this repeats (a cell, a tournament, a slice
    /// of service time).
    pub kind: usize,
    /// Simulated (or decided) device-seconds.
    pub device_s: f64,
    /// Policy decisions.
    pub decisions: f64,
    /// Host seconds.
    pub wall_s: f64,
    /// Fine-grained closed-loop latency samples, µs.
    pub lockstep: Dist,
    /// Coarse closed-loop latency samples, µs.
    pub session: Dist,
}

impl Window {
    fn rate(&self) -> f64 {
        self.decisions / self.wall_s.max(1e-12)
    }
}

/// Keeps the `k` fastest repetitions of each operation kind, by
/// decisions per host second, in fixed memory.
///
/// The shared hosts this runs on swing up to 2× in speed over episodes
/// of seconds (a busy neighbour on the sibling hyperthread); a run's
/// fastest repetitions read the program on a quiet core and repeat
/// across runs where a whole-run median does not.
pub struct Fastest {
    k: usize,
    kinds: Vec<Vec<Window>>,
    offered: u64,
}

impl Fastest {
    /// Keeps `k` repetitions of each of `kinds` operation kinds.
    pub fn new(kinds: usize, k: usize) -> Self {
        Fastest {
            k: k.max(1),
            kinds: vec![Vec::new(); kinds],
            offered: 0,
        }
    }

    /// Offers one repetition; it is kept while among its kind's fastest.
    pub fn offer(&mut self, w: Window) {
        self.offered += 1;
        let kept = &mut self.kinds[w.kind];
        kept.push(w);
        kept.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
        kept.truncate(self.k);
    }

    /// Host seconds of the fastest repetition of every kind, summed.
    pub fn best_wall_s(&self) -> f64 {
        self.kinds
            .iter()
            .filter_map(|k| k.first())
            .map(|w| w.wall_s)
            .sum()
    }

    /// The kept repetitions pooled, plus each kind's lockstep latencies.
    fn pooled(&self) -> (Window, Vec<Dist>) {
        let mut w = Window::default();
        let mut kind_lockstep = Vec::new();
        for kind in self.kinds.iter().filter(|k| !k.is_empty()) {
            let mut lockstep = Dist::default();
            for k in kind {
                w.device_s += k.device_s;
                w.decisions += k.decisions;
                w.wall_s += k.wall_s;
                lockstep.merge(&k.lockstep);
                w.session.merge(&k.session);
            }
            w.lockstep.merge(&lockstep);
            kind_lockstep.push(lockstep);
        }
        (w, kind_lockstep)
    }

    /// The `q` quantile of the lockstep and of the session latencies.
    ///
    /// Lockstep quantiles are taken per kind, then their median across
    /// kinds: a pooled tail over many kinds is set by whichever kind's
    /// kept run caught a host disturbance, the median kind's is not.
    /// Session latencies stay pooled: their spread across kinds is the
    /// point.
    pub fn latency(&self, q: f64) -> (f64, f64) {
        let (w, kinds) = self.pooled();
        let per_kind: Vec<f64> = kinds.iter().map(|d| d.quantile(q)).collect();
        (median(&per_kind), w.session.quantile(q))
    }

    /// Puts the end-to-end work and median-latency metrics of the kept
    /// repetitions, with sample counts.
    pub fn put(&self, out: &mut Outcome) {
        let (w, _) = self.pooled();
        let wall = w.wall_s.max(1e-9);
        let (lockstep, session) = self.latency(0.5);
        out.put("sim_s_per_wall_s", w.device_s / wall, "s/s");
        out.put("decisions_per_s", w.decisions / wall, "1/s");
        out.put("lockstep_rtt_p50_us", lockstep, "us");
        out.put("session_rtt_p50_us", session, "us");
        out.note("repetitions", self.offered);
        out.note(
            "repetitions_kept",
            self.kinds.iter().map(Vec::len).sum::<usize>(),
        );
        out.note("lockstep_samples", w.lockstep.count());
        out.note("session_samples", w.session.count());
    }
}

/// Median of `xs` (mean of the two middle values for even counts); 0
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`: the digest the checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Digest of a simulation report's full `Debug` rendering (every field,
/// floats printed round-trip exact).
pub fn report_digest(report: &mobicore_sim::SimReport) -> u64 {
    digest(format!("{report:?}").as_bytes())
}

/// A `/proc/self/status` field in kB (e.g. `VmHWM`).
fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU time of this process so far, µs
/// (`/proc/self/stat` fields 14 and 15, at the 100 Hz clock tick).
pub fn process_cpu_us() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields restart after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 10_000.0,
        _ => 0.0,
    }
}

/// Host and build facts recorded next to every result.
pub fn host_metadata() -> BTreeMap<&'static str, String> {
    let mut meta = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    meta.insert("nproc", nproc.to_string());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    meta.insert("cpu_model", model);
    meta.insert("git_describe", git_describe());
    meta
}

/// `git describe --always --dirty` of the working directory, kept from
/// searching above it (a plain source checkout reports `unknown`).
fn git_describe() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_deref()
        .and_then(std::path::Path::parent)
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cells, tournaments, decisions + sessions).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Sample counts behind percentiles and other run facts.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a run fact (sample counts, sizes).
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.insert(key.into(), value.to_string());
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values round-trip exact, non-finite become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The run-facts line printed before the result line.
pub fn notes_line(meta: &BTreeMap<&'static str, String>, out: &Outcome) -> String {
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .chain(out.notes.iter().map(|(k, v)| (k.clone(), v.clone())))
        .map(|(k, v)| format!("{}: {}", json_str(&k), json_str(&v)))
        .collect();
    format!("{{\"run\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_quantiles_track_exact_ones() {
        let mut d = Dist::default();
        for i in 1..=1000 {
            d.record(f64::from(i));
        }
        assert_eq!(d.count(), 1000);
        let p50 = d.quantile(0.5);
        let mut few = Dist::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            few.record(v);
        }
        assert_eq!(few.quantile(0.5), 2.5);
        assert_eq!(few.quantile(1.0), 4.0);
        assert!((p50 - 500.0).abs() / 500.0 < 0.01, "{p50}");
        let p99 = d.quantile(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.01, "{p99}");
        assert_eq!(Dist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mix_is_reproducible_and_spreads() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.put("setup_s", 0.25, "s");
        let line = result_line(&out);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
