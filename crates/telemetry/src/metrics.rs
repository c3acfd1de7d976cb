//! Counters, gauges and log-linear histograms.
//!
//! The histogram uses log-linear bucketing (4 linear sub-buckets per
//! power of two, like HdrHistogram's coarse mode): relative error is
//! bounded at ~25 % per bucket across the whole positive range with a
//! fixed 250-ish-slot footprint, so recording is one array increment —
//! cheap enough for the per-tick hot path.

use std::collections::BTreeMap;

/// Linear sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 4;
/// Octaves covered (values up to 2^62 land in a real bucket).
const OCTAVES: usize = 62;

/// A log-linear histogram of non-negative values.
///
/// Values below 1.0 (and negative values) land in bucket 0; the exact
/// `min`/`max`/`sum` are tracked alongside, so means and extremes are
/// not quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 1 + OCTAVES * SUB_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        // NaN lands in bucket 0 via the is_finite check.
        if v < 1.0 || !v.is_finite() {
            return 0;
        }
        // Octave = floor(log2 v); sub-bucket = position inside [2^e, 2^{e+1}).
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let e = (v.log2().floor() as usize).min(OCTAVES - 1);
        let lo = (2.0f64).powi(i32::try_from(e).unwrap_or(i32::MAX));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sub = (((v / lo) - 1.0) * SUB_BUCKETS as f64).floor() as usize;
        1 + e * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// The value range `[lo, hi)` of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (f64, f64) {
        if idx == 0 {
            return (0.0, 1.0);
        }
        let e = (idx - 1) / SUB_BUCKETS;
        let sub = (idx - 1) % SUB_BUCKETS;
        let lo2 = (2.0f64).powi(i32::try_from(e).unwrap_or(i32::MAX));
        let width = lo2 / SUB_BUCKETS as f64;
        let lo = lo2 + sub as f64 * width;
        (lo, lo + width)
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records the same value `n` times, bit-identically to `n`
    /// consecutive [`Histogram::record`] calls (the sum is accumulated
    /// by repeated addition, not `v * n`, so a batch produces the exact
    /// float the per-call path would) — how the event engine folds a
    /// quiet burst of constant-power ticks into one call.
    pub fn record_repeat(&mut self, v: f64, n: u64) {
        if n == 0 || !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_of(v)] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` into this histogram (bucket-wise sum, exact
    /// min/max/sum/count combined) — how per-thread histograms from a
    /// sweep or load run aggregate into one report.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Merges any number of histograms into a fresh one — the
    /// aggregation step a fleet run uses to fold per-shard RTT
    /// histograms into the overall distribution.
    pub fn merged<'a, I: IntoIterator<Item = &'a Histogram>>(parts: I) -> Histogram {
        let mut out = Histogram::new();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// containing bucket by rank position and clamped to the exact
    /// `[min, max]` range.
    ///
    /// Interpolation matters once many distinct quantiles are read off
    /// the same distribution: snapping to the bucket midpoint made every
    /// quantile falling in one bucket report the identical value (BENCH
    /// RTT p50/p99 landing exactly on 1152 µs / 2304 µs across all
    /// shards — the log-linear bucket midpoints). Rank interpolation
    /// spreads them across the bucket `[lo, hi)` instead; the error
    /// stays bounded by the bucket width (≤ 25 % relative), and the
    /// storage format is untouched, so [`Histogram::merge`] and
    /// serialized snapshots stay compatible.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max();
        }
        if q <= 0.0 {
            return self.min();
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(idx);
                // The bucket holds the values at ranks (seen-c, seen];
                // place `rank` linearly across the bucket's range. A
                // single-value bucket clamps back to the exact value via
                // [min, max].
                #[allow(clippy::cast_precision_loss)]
                let frac = (rank - (seen - c)) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
        }
        self.max()
    }
}

/// A named registry of counters, gauges and histograms.
///
/// Names are sorted (`BTreeMap`) so every serialization of the same
/// registry is byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // Each update looks the name up first and allocates the owned key
    // only when the metric is new: the `entry` API needs a `String` up
    // front, which the per-tick callers (the simulator's tick loop and
    // quiet bursts, every served decision) would otherwise pay on every
    // call.

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn record(&mut self, name: &str, value: f64) {
        self.update_histogram(name, |h| h.record(value));
    }

    /// Records `value` into histogram `name` `n` times (see
    /// [`Histogram::record_repeat`]); creates it empty even when `n`
    /// is 0.
    pub fn record_repeat(&mut self, name: &str, value: f64, n: u64) {
        self.update_histogram(name, |h| h.record_repeat(value, n));
    }

    fn update_histogram(&mut self, name: &str, f: impl FnOnce(&mut Histogram)) {
        match self.histograms.get_mut(name) {
            Some(h) => f(h),
            None => f(self.histograms.entry(name.to_string()).or_default()),
        }
    }

    /// Counter value, if the counter exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if the gauge exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Folds `other` into this registry: counters add, histograms merge
    /// bucket-wise ([`Histogram::merge`]), gauges take `other`'s value
    /// (last-writer-wins, as if `other`'s sets happened after ours).
    ///
    /// This is the fleet-chunk aggregation step (docs/simulator.md): a
    /// chunk of multiplexed devices batches telemetry through one sink
    /// by merging every device's `MetricSet` into a chunk-level one,
    /// while each device keeps its own set for per-device attribution
    /// (the per-device manifests stay byte-identical to independent
    /// runs).
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, &v) in &other.counters {
            self.inc(k, v);
        }
        for (k, &v) in &other.gauges {
            self.set_gauge(k, v);
        }
        for (k, h) in &other.histograms {
            self.update_histogram(k, |mine| mine.merge(h));
        }
    }

    /// Flattens everything into scalar rollups for a manifest: counters
    /// and gauges verbatim; each histogram as `name.count`, `name.mean`,
    /// `name.p50`, `name.p99` and `name.max`.
    pub fn rollups(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.counters {
            #[allow(clippy::cast_precision_loss)]
            out.insert(k.clone(), v as f64);
        }
        for (k, &v) in &self.gauges {
            out.insert(k.clone(), v);
        }
        for (k, h) in &self.histograms {
            #[allow(clippy::cast_precision_loss)]
            out.insert(format!("{k}.count"), h.count() as f64);
            out.insert(format!("{k}.mean"), h.mean());
            out.insert(format!("{k}.p50"), h.quantile(0.5));
            out.insert(format!("{k}.p99"), h.quantile(0.99));
            out.insert(format!("{k}.max"), h.max());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 5.0, 1000.0, 0.25] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.25);
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - 1008.25 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut h = Histogram::new();
        for i in 1..=10_000u32 {
            h.record(f64::from(i));
        }
        // Log-linear with 4 sub-buckets: ≤ 25 % relative error.
        let p50 = h.quantile(0.5);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.25, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.25, "{p99}");
        assert_eq!(h.quantile(1.0), 10_000.0);
    }

    #[test]
    fn sub_unit_and_negative_values_share_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0.001);
        h.record(-5.0);
        h.record(0.999);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert!(h.quantile(0.5) <= 0.999, "bucket-0 midpoint clamped to max");
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(1e300);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1e300);
    }

    #[test]
    fn bucket_bounds_invert_bucket_of() {
        for v in [1.0, 1.3, 2.0, 3.9, 4.0, 1000.0, 123_456.789] {
            let idx = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (bucket {idx})");
        }
    }

    #[test]
    fn record_repeat_is_bit_identical_to_repeated_record() {
        let mut one_by_one = Histogram::new();
        let mut batched = Histogram::new();
        // A value whose repeated addition accumulates rounding error, so
        // a `v * n` shortcut would diverge bit-wise.
        let v = 731.0483757;
        for _ in 0..1_000 {
            one_by_one.record(v);
        }
        batched.record_repeat(v, 1_000);
        assert_eq!(one_by_one, batched);
        batched.record_repeat(f64::NAN, 5); // ignored
        batched.record_repeat(1.0, 0); // no-op
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // 256 values filling exactly one bucket: [1024, 1280). Midpoint
        // snapping reported 1152.0 for every quantile in this bucket;
        // interpolation must spread them monotonically across the bucket
        // instead.
        let mut h = Histogram::new();
        for i in 0..256u32 {
            h.record(1024.0 + f64::from(i));
        }
        let p25 = h.quantile(0.25);
        let p50 = h.quantile(0.5);
        let p75 = h.quantile(0.75);
        assert!(p25 < p50 && p50 < p75, "{p25} {p50} {p75}");
        for (q, v) in [(0.25, p25), (0.5, p50), (0.75, p75)] {
            assert!(
                (1024.0..1280.0).contains(&v),
                "q={q}: {v} outside the containing bucket"
            );
        }
        // Rank interpolation across the whole bucket: p50 sits near the
        // bucket's middle, not at the data's median — the error stays
        // bounded by the bucket width.
        assert!((p50 - 1152.0).abs() <= 64.0, "{p50}");
    }

    #[test]
    fn quantile_of_constant_distribution_is_exact() {
        let mut h = Histogram::new();
        h.record_repeat(1100.0, 1_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(h.quantile(q), 1100.0, "q={q}");
        }
    }

    #[test]
    fn quantile_of_uniform_distribution_tracks_rank() {
        // Uniform 1..=8192 spans many buckets; interpolated quantiles
        // should track the true quantile well inside the 25 % bucket
        // bound, and be strictly monotone in q.
        let mut h = Histogram::new();
        for i in 1..=8192u32 {
            h.record(f64::from(i));
        }
        let mut prev = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let v = h.quantile(q);
            let truth = q * 8192.0;
            assert!((v - truth).abs() / truth < 0.25, "q={q}: {v} vs {truth}");
            assert!(v > prev, "quantiles must be monotone in q");
            prev = v;
        }
    }

    #[test]
    fn merged_histogram_quantiles_match_single_recording() {
        // Per-shard histograms merged must answer quantiles identically
        // to one histogram that saw every value — merge stays compatible
        // with interpolation because only bucket counts are combined.
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=1_000u32 {
            let v = f64::from(i) * 3.7;
            all.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        let merged = Histogram::merged([&a, &b]);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile(q), all.quantile(q), "q={q}");
        }
        assert_eq!(merged, all);
    }

    #[test]
    fn metric_set_merge_aggregates_like_sequential_recording() {
        // Recording everything into one set must equal recording into
        // two sets and merging — the fleet-chunk sink's invariant.
        let mut combined = MetricSet::new();
        let mut first = MetricSet::new();
        let mut second = MetricSet::new();

        for (m, dev) in [(&mut first, 0u64), (&mut second, 1u64)] {
            m.inc("fleet.devices", 1);
            m.inc("sim.ticks", 100 + dev);
            m.set_gauge("sim.temp_c", 30.0 + dev as f64);
            m.record("power_mw", 500.0 + dev as f64);
        }
        for dev in 0..2u64 {
            combined.inc("fleet.devices", 1);
            combined.inc("sim.ticks", 100 + dev);
            combined.set_gauge("sim.temp_c", 30.0 + dev as f64);
            combined.record("power_mw", 500.0 + dev as f64);
        }
        // second carries a name first doesn't have, and vice versa.
        first.inc("only.first", 3);
        combined.inc("only.first", 3);
        second.record("only.second", 9.0);
        combined.record("only.second", 9.0);

        let mut merged = MetricSet::new();
        merged.merge(&first);
        merged.merge(&second);
        assert_eq!(merged, combined);
        assert_eq!(merged.counter("fleet.devices"), Some(2));
        assert_eq!(merged.counter("sim.ticks"), Some(201));
        // Gauges are last-writer-wins: second's value survives.
        assert_eq!(merged.gauge("sim.temp_c"), Some(31.0));
        assert_eq!(merged.histogram("power_mw").unwrap().count(), 2);
    }

    #[test]
    fn metric_set_rollups() {
        let mut m = MetricSet::new();
        m.inc("sim.ticks", 100);
        m.inc("sim.ticks", 50);
        m.set_gauge("sim.temp_c", 31.5);
        m.record("power_mw", 500.0);
        m.record("power_mw", 700.0);
        assert_eq!(m.counter("sim.ticks"), Some(150));
        assert_eq!(m.gauge("sim.temp_c"), Some(31.5));
        assert_eq!(m.histogram("power_mw").unwrap().count(), 2);
        let roll = m.rollups();
        assert_eq!(roll.get("sim.ticks"), Some(&150.0));
        assert_eq!(roll.get("power_mw.count"), Some(&2.0));
        assert_eq!(roll.get("power_mw.max"), Some(&700.0));
        assert!((roll.get("power_mw.mean").unwrap() - 600.0).abs() < 1e-12);
        assert!(roll.contains_key("power_mw.p50") && roll.contains_key("power_mw.p99"));
    }

    #[test]
    fn updates_create_new_names_and_fold_into_existing_ones() {
        let mut m = MetricSet::new();
        // First use creates each metric: counters at zero (then add),
        // histograms empty (then record) — even for a zero-count
        // repeat or a zero increment.
        m.inc("sim.samples", 0);
        m.set_gauge("quota", 1.0);
        m.record_repeat("util", 9.0, 0);
        m.record("power_mw", 7.25);
        assert_eq!(m.counter("sim.samples"), Some(0));
        assert_eq!(m.gauge("quota"), Some(1.0));
        assert_eq!(m.histogram("util").map(Histogram::count), Some(0));
        assert_eq!(m.histogram("power_mw").map(Histogram::count), Some(1));
        // Later uses update in place.
        m.inc("sim.samples", 2);
        m.inc("sim.samples", 5);
        m.set_gauge("quota", 0.5);
        m.record_repeat("util", 9.0, 2);
        m.record_repeat("power_mw", 41.5, 19);
        assert_eq!(m.counter("sim.samples"), Some(7));
        assert_eq!(m.gauge("quota"), Some(0.5));
        assert_eq!(m.histogram("util").map(Histogram::count), Some(2));
        let mut power = Histogram::new();
        power.record(7.25);
        power.record_repeat(41.5, 19);
        assert_eq!(m.histogram("power_mw"), Some(&power));
        assert_eq!(m.counters().len(), 1);
        assert_eq!(m.gauges().len(), 1);
    }
}
