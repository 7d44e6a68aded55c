//! Lock-free metrics: counters, gauges, and log-bucketed histograms.
//!
//! Handles returned by [`Registry`] are `Arc`s over atomics — recording
//! never takes a lock, so instrumenting the preemption decision path
//! (whose whole budget is microseconds, §3.4) costs a few atomic adds.
//! Registration itself takes a write lock but happens once per metric.
//!
//! Histograms use 8 sub-buckets per power-of-two octave (≤ 12.5%
//! relative error per bucket), with exact tracking of count, sum, and
//! max. Quantiles are read from the bucket boundaries and clamped to
//! the exact max, so `p99 <= max` always holds.
//!
//! The lock-free paths are model-checked under weak memory by
//! `split-analyze` (DESIGN.md §14): the `telemetry.counter` and
//! `telemetry.histogram.record` machines certify linearizability of
//! the relaxed RMWs (SA201), `telemetry.snapshot` certifies a reader
//! never observes a counter move backwards (SA202), and
//! `telemetry.histogram.merge` certifies merge order-independence
//! (SA203) — all at the `Relaxed` orderings used here, where stale
//! reads are part of the explored state space rather than an accident
//! of the host's coherence.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, inflight requests, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Buckets 0..=7 hold exact values 0..=7; from 8 up, each power-of-two
/// octave is split into 8 sub-buckets. Index 8·63−16+7 = 495 is the top.
const BUCKETS: usize = 496;

/// Log-bucketed latency histogram over `u64` samples (nanoseconds by
/// convention, but unit-agnostic).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let log = 63 - v.leading_zeros() as u64; // >= 3
    let sub = (v >> (log - 3)) & 7;
    (8 * log - 16 + sub) as usize
}

/// Representative value (midpoint) of bucket `idx`.
fn bucket_value(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let log = (idx as u64 + 16) / 8;
    let sub = (idx as u64 + 16) % 8;
    let width = 1u64 << (log - 3);
    (1u64 << log) + sub * width + width / 2
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Exact largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.max.load(Ordering::Relaxed)
        }
    }

    /// Exact smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), read from bucket boundaries
    /// (≤ 12.5% relative error) and clamped to the exact min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_value(idx).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// `(p50, p95, p99)` — see [`Histogram::p50_p95_p99_p999`].
    pub fn p50_p95_p99(&self) -> (u64, u64, u64) {
        let (p50, p95, p99, _) = self.p50_p95_p99_p999();
        (p50, p95, p99)
    }

    /// `(p50, p95, p99, p999)` from a single pass over the buckets.
    ///
    /// Value-identical to four [`Histogram::quantile`] calls — the
    /// targets are monotone in `q`, so one cumulative scan resolves all
    /// four in order — but reads the 496 buckets once instead of four
    /// times. [`Registry::snapshot`] uses this per histogram.
    pub fn p50_p95_p99_p999(&self) -> (u64, u64, u64, u64) {
        let n = self.count();
        if n == 0 {
            return (0, 0, 0, 0);
        }
        let targets = [0.50f64, 0.95, 0.99, 0.999].map(|q| ((q * n as f64).ceil() as u64).max(1));
        // Pre-fill with `quantile`'s fallthrough value; any target the
        // scan satisfies gets overwritten with its bucket's value.
        let mut out = [self.max(); 4];
        let (min, max) = (self.min(), self.max());
        let mut cum = 0u64;
        let mut next = 0usize;
        'scan: for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            while cum >= targets[next] {
                out[next] = bucket_value(idx).clamp(min, max);
                next += 1;
                if next == 4 {
                    break 'scan;
                }
            }
        }
        (out[0], out[1], out[2], out[3])
    }

    /// Fold `other`'s samples into `self`.
    ///
    /// Every field update is a single commutative RMW (`fetch_add` for
    /// buckets/count/sum, `fetch_max`/`fetch_min` for the extrema), so the
    /// result is independent of merge order and of concurrent `record`
    /// calls — the property `split-analyze`'s interleaving checker
    /// verifies (`SA203`). Merging an empty histogram is a no-op: its
    /// `min` sentinel (`u64::MAX`) never wins `fetch_min` against a real
    /// sample, and its zero `max`/`sum`/counts are additive identities.
    pub fn merge(&self, other: &Histogram) {
        self.fold(
            other.buckets.iter().map(|b| b.load(Ordering::Relaxed)),
            || {
                [&other.count, &other.sum, &other.max, &other.min]
                    .map(|a| a.load(Ordering::Relaxed))
            },
        );
    }

    /// The bucket-wise fold behind [`Histogram::merge`]: add each nonzero
    /// bucket count, then the `[count, sum, max, min]` that `totals`
    /// reads after the buckets.
    fn fold(&self, buckets: impl Iterator<Item = u64>, totals: impl FnOnce() -> [u64; 4]) {
        for (dst, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        let [count, sum, max, min] = totals();
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
        self.min.fetch_min(min, Ordering::Relaxed);
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Cheap to share (`Arc<Registry>`);
/// handle lookup takes a read lock, recording through a handle is
/// lock-free.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let metric = self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let metric = self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let metric = self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::default())));
        match metric {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.inner.read().expect("registry lock").get(name) {
            return m.clone();
        }
        let mut map = self.inner.write().expect("registry lock");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Fold every metric of `other` into `self`, creating missing names.
    ///
    /// Kind-wise semantics: counters add, histograms fold via
    /// [`Histogram::merge`] (order-independent, SA203), and gauges take
    /// the **max** — every gauge the engine emits is a peak level
    /// (`queue.depth.peak`), and a cluster's peak is the max over its
    /// shards. Each per-kind fold is commutative and associative, so any
    /// merge tree over per-shard registries yields the same result — the
    /// property the fleet engine leans on to stay bit-identical at any
    /// `SPLIT_THREADS`.
    ///
    /// # Panics
    /// If a name is registered with different kinds in the two registries.
    pub fn merge(&self, other: &Registry) {
        let src = other.inner.read().expect("registry lock");
        for (name, metric) in src.iter() {
            match metric {
                Metric::Counter(c) => self.counter(name).add(c.get()),
                Metric::Gauge(g) => {
                    let dst = self.gauge(name);
                    dst.set(dst.get().max(g.get()));
                }
                Metric::Histogram(h) => self.histogram(name).merge(h),
            }
        }
    }

    /// Point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.read().expect("registry lock");
        let entries = map
            .iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => MetricEntry {
                    name: name.clone(),
                    kind: "counter".into(),
                    count: c.get(),
                    value: c.get() as i64,
                    mean: 0.0,
                    p50: 0,
                    p95: 0,
                    p99: 0,
                    p999: 0,
                    max: 0,
                },
                Metric::Gauge(g) => MetricEntry {
                    name: name.clone(),
                    kind: "gauge".into(),
                    count: 0,
                    value: g.get(),
                    mean: 0.0,
                    p50: 0,
                    p95: 0,
                    p99: 0,
                    p999: 0,
                    max: 0,
                },
                Metric::Histogram(h) => {
                    let (p50, p95, p99, p999) = h.p50_p95_p99_p999();
                    MetricEntry {
                        name: name.clone(),
                        kind: "histogram".into(),
                        count: h.count(),
                        value: 0,
                        mean: h.mean(),
                        p50,
                        p95,
                        p99,
                        p999,
                        max: h.max(),
                    }
                }
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// One metric's state inside a [`MetricsSnapshot`]. Fields that do not
/// apply to the metric's kind are zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Registered name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter value / histogram sample count.
    pub count: u64,
    /// Counter or gauge level.
    pub value: i64,
    /// Histogram mean.
    pub mean: f64,
    /// Histogram median.
    pub p50: u64,
    /// Histogram 95th percentile.
    pub p95: u64,
    /// Histogram 99th percentile.
    pub p99: u64,
    /// Histogram 99.9th percentile. Defaults to 0 when deserializing
    /// snapshots written before the field existed.
    #[serde(default)]
    pub p999: u64,
    /// Histogram exact max.
    pub max: u64,
}

/// Serializable point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Entries sorted by metric name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Look up one entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Derive a [`Registry`] from a lifecycle recording.
///
/// This is the bridge between the two telemetry halves: replaying the
/// recorder's events populates the standard metric names —
/// `sched.preempt.decision_ns` / `sched.preempt.comparisons` histograms,
/// `request.e2e_us` / `request.wait_us` latency histograms (microsecond
/// values), `requests.arrived` / `requests.completed` / `preempt.jumps`
/// / `elastic.downgrades` counters, and the `queue.depth.peak` gauge —
/// so snapshots from an offline simulation line up with ones recorded
/// live.
///
/// Per request, the last `Arrival`, the first `BlockStart` and the last
/// `Completion` in log order give `e2e = completion − arrival` and
/// `wait = first start − arrival`, each recorded (rounded to whole µs)
/// when finite and non-negative; a request whose arrival is not in the
/// log records nothing, and `Drop` events are ignored. The log is read
/// once: per-request times go to a flat id-keyed table, counters and
/// histograms to plain locals, and each histogram is published once
/// through [`Histogram::merge`]'s bucket-wise fold.
pub fn registry_from_events(rec: &crate::lifecycle::Recorder) -> Registry {
    use crate::lifecycle::Event;
    let (mut arrived, mut completed, mut jumps, mut downgrades) = (0u64, 0u64, 0u64, 0u64);
    let mut depth_peak = 0i64;
    let [mut decision_ns, mut comparisons, mut e2e, mut wait] =
        std::array::from_fn(|_| LocalHistogram::default());
    let mut times: HashMap<u64, ReqTimes, BuildHasherDefault<IdHasher>> = HashMap::default();
    for e in rec.events() {
        match e {
            Event::Arrival { req, t_us, .. } => {
                arrived += 1;
                times.entry(*req).or_default().arrival_us = *t_us;
            }
            Event::Completion { req, t_us } => {
                completed += 1;
                times.entry(*req).or_default().completion_us = *t_us;
            }
            Event::BlockStart { req, t_us, .. } => {
                let r = times.entry(*req).or_default();
                if r.first_start_us.is_nan() {
                    r.first_start_us = *t_us;
                }
            }
            Event::Enqueue { displaced, .. } if *displaced > 0 => jumps += 1,
            Event::Downgrade { .. } => downgrades += 1,
            Event::PreemptDecision {
                decision_ns: ns,
                comparisons: cmp,
                ..
            } => {
                decision_ns.record(*ns);
                comparisons.record(*cmp as u64);
            }
            Event::QueueDepth { depth, .. } => depth_peak = depth_peak.max(*depth as i64),
            _ => {}
        }
    }
    for r in times.values() {
        for (us, hist) in [
            (r.completion_us - r.arrival_us, &mut e2e),
            (r.first_start_us - r.arrival_us, &mut wait),
        ] {
            if us.is_finite() && us >= 0.0 {
                hist.record(us.round() as u64);
            }
        }
    }

    let reg = Registry::new();
    for (name, n) in [
        ("requests.arrived", arrived),
        ("requests.completed", completed),
        ("preempt.jumps", jumps),
        ("elastic.downgrades", downgrades),
    ] {
        reg.counter(name).add(n);
    }
    reg.gauge("queue.depth.peak").set(depth_peak);
    for (name, local) in [
        ("sched.preempt.decision_ns", &decision_ns),
        ("sched.preempt.comparisons", &comparisons),
        ("request.e2e_us", &e2e),
        ("request.wait_us", &wait),
    ] {
        reg.histogram(name)
            .fold(local.buckets.iter().copied(), || local.totals);
    }
    reg
}

/// One request's times as [`registry_from_events`] reads them (µs; NaN
/// until seen).
#[derive(Clone, Copy)]
struct ReqTimes {
    arrival_us: f64,
    first_start_us: f64,
    completion_us: f64,
}

impl Default for ReqTimes {
    fn default() -> Self {
        Self {
            arrival_us: f64::NAN,
            first_start_us: f64::NAN,
            completion_us: f64::NAN,
        }
    }
}

/// A [`Histogram`]'s fields as plain integers, filled by one thread and
/// then published through [`Histogram::fold`].
struct LocalHistogram {
    buckets: [u64; BUCKETS],
    /// `[count, sum, max, min]`, the order [`Histogram::fold`] takes.
    totals: [u64; 4],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            totals: [0, 0, 0, u64::MAX],
        }
    }
}

impl LocalHistogram {
    /// [`Histogram::record`] without the atomics (the sum wraps the same
    /// way `fetch_add` does).
    fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        let [count, sum, max, min] = &mut self.totals;
        *count += 1;
        *sum = sum.wrapping_add(v);
        *max = (*max).max(v);
        *min = (*min).min(v);
    }
}

/// Hashes a request id with one folded 64×64→128-bit multiply: ids are
/// dense or strided counters, so a keyed hash buys nothing, while a
/// plain multiply would leave a stride's low zero bits in the bucket
/// index.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let p = ((self.0 ^ id) as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut samples: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for off in [0u64, 1, 3] {
                samples.push((1u64 << exp).saturating_add(off << exp.saturating_sub(4)));
            }
        }
        samples.sort_unstable();
        let mut prev = 0usize;
        for v in samples {
            let idx = bucket_index(v);
            assert!(idx >= prev, "v={v} idx={idx} prev={prev}");
            assert!(idx < BUCKETS);
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_value_within_bucket() {
        for v in [0u64, 1, 7, 8, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            // Representative stays within 12.5% of the sample.
            if v >= 8 {
                let rel = (rep as f64 - v as f64).abs() / v as f64;
                assert!(rel <= 0.125, "v={v} rep={rep} rel={rel}");
            } else {
                assert_eq!(rep, v);
            }
        }
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::default();
        for i in 1..=10_000u64 {
            h.record(i * 100);
        }
        assert_eq!(h.count(), 10_000);
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        assert_eq!(h.max(), 1_000_000);
        // p50 of uniform 100..=1_000_000 is ~500_000; allow bucket error.
        let p50 = h.p50() as f64;
        assert!((437_500.0..=562_500.0).contains(&p50), "{p50}");
    }

    #[test]
    fn single_scan_quantiles_match_individual_calls() {
        // Uniform, skewed, tiny, and single-sample shapes: the fused scan
        // must agree with three independent `quantile` calls everywhere,
        // including the fallthrough-to-max and clamp-to-min paths.
        let shapes: Vec<Vec<u64>> = vec![
            (1..=10_000u64).map(|i| i * 100).collect(),
            vec![5; 1000],
            vec![1, 2, 3],
            vec![123_456],
            (0..100u64).map(|i| 1u64 << (i % 30)).collect(),
        ];
        for samples in shapes {
            let h = Histogram::default();
            for v in &samples {
                h.record(*v);
            }
            assert_eq!(
                h.p50_p95_p99_p999(),
                (
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.quantile(0.999)
                ),
                "samples len {}",
                samples.len()
            );
        }
        assert_eq!(Histogram::default().p50_p95_p99_p999(), (0, 0, 0, 0));
        assert_eq!(Histogram::default().p50_p95_p99(), (0, 0, 0));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [100u64, 250, 7_000] {
            a.record(v);
        }
        for v in [3u64, 900_000] {
            b.record(v);
        }
        // Merge in both orders into fresh accumulators.
        let ab = Histogram::default();
        ab.merge(&a);
        ab.merge(&b);
        let ba = Histogram::default();
        ba.merge(&b);
        ba.merge(&a);
        for h in [&ab, &ba] {
            assert_eq!(h.count(), 5);
            assert_eq!(h.sum(), 100 + 250 + 7_000 + 3 + 900_000);
            assert_eq!(h.max(), 900_000);
            assert_eq!(h.min(), 3);
        }
        assert_eq!(ab.p50(), ba.p50());
        assert_eq!(ab.p99(), ba.p99());
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let h = Histogram::default();
        h.record(42);
        h.merge(&Histogram::default());
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42, "empty min sentinel must not leak in");
        assert_eq!(h.max(), 42);
        // Merging into an empty accumulator adopts the source exactly.
        let acc = Histogram::default();
        acc.merge(&h);
        assert_eq!((acc.count(), acc.min(), acc.max()), (1, 42, 42));
    }

    #[test]
    fn registry_roundtrip_and_rendering() {
        let reg = Registry::new();
        reg.counter("sched.arrivals").add(3);
        reg.gauge("sched.queue_depth").set(-2);
        let h = reg.histogram("sched.decision_ns");
        h.record(1_000);
        h.record(2_000);
        // Same handle back on re-request.
        reg.counter("sched.arrivals").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.get("sched.arrivals").unwrap().count, 4);
        assert_eq!(snap.get("sched.queue_depth").unwrap().value, -2);
        assert_eq!(snap.get("sched.decision_ns").unwrap().count, 2);
        let md = snap.render_markdown();
        assert!(md.contains("sched.decision_ns"));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hits");
                    let h = reg.histogram("lat");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), 40_000);
        assert_eq!(reg.histogram("lat").count(), 40_000);
    }

    #[test]
    fn registry_from_events_populates_standard_names() {
        use crate::lifecycle::{Event, Recorder};
        let mut rec = Recorder::new();
        rec.record(Event::Arrival {
            req: 0,
            model: "m".into(),
            t_us: 0.0,
        });
        rec.record(Event::PreemptDecision {
            req: 0,
            position: 0,
            comparisons: 2,
            stop: "QueueHead".into(),
            decision_ns: 800,
            publish_ns: 800,
            t_us: 0.0,
        });
        rec.record(Event::Enqueue {
            req: 0,
            position: 0,
            displaced: 1,
            t_us: 0.0,
        });
        rec.record(Event::QueueDepth {
            depth: 3,
            t_us: 0.0,
        });
        rec.record(Event::BlockStart {
            req: 0,
            block: 0,
            stream: 0,
            t_us: 10.0,
        });
        rec.record(Event::BlockEnd {
            req: 0,
            block: 0,
            stream: 0,
            t_us: 25.0,
        });
        rec.record(Event::Completion { req: 0, t_us: 25.0 });

        let reg = registry_from_events(&rec);
        assert_eq!(reg.counter("requests.arrived").get(), 1);
        assert_eq!(reg.counter("requests.completed").get(), 1);
        assert_eq!(reg.counter("preempt.jumps").get(), 1);
        assert_eq!(reg.gauge("queue.depth.peak").get(), 3);
        let h = reg.histogram("sched.preempt.decision_ns");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 800);
        assert_eq!(reg.histogram("request.e2e_us").max(), 25);
        assert_eq!(reg.histogram("request.wait_us").max(), 10);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let make = |counts: u64, gauge: i64, samples: &[u64]| {
            let r = Registry::new();
            r.counter("requests.completed").add(counts);
            r.gauge("queue.depth.peak").set(gauge);
            let h = r.histogram("request.e2e_us");
            for &s in samples {
                h.record(s);
            }
            r
        };
        let a = make(3, 7, &[10, 20]);
        let b = make(5, 4, &[30]);

        let ab = Registry::new();
        ab.merge(&a);
        ab.merge(&b);
        let ba = Registry::new();
        ba.merge(&b);
        ba.merge(&a);

        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.counter("requests.completed").get(), 8);
        assert_eq!(ab.gauge("queue.depth.peak").get(), 7);
        assert_eq!(ab.histogram("request.e2e_us").count(), 3);
        assert_eq!(ab.histogram("request.e2e_us").max(), 30);
    }
}
