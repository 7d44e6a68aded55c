//! Mergeable relative-error quantile sketch (DDSketch-style).
//!
//! [`QuantileSketch`] buckets positive samples by `⌈ln(v)/ln(γ)⌉` with
//! `γ = (1+α)/(1−α)`, so bucket `i` covers `(γ^(i−1), γ^i]` and the
//! representative `2γ^i/(γ+1)` is within relative error `α` of every
//! value in the bucket — the classic DDSketch guarantee (Masson et al.,
//! VLDB 2019). Unlike [`crate::Histogram`]'s fixed 1/8-octave grid
//! (≤ 12.5% error), the sketch's accuracy is a constructor parameter
//! (default 1%), and it is a plain value type built for *aggregation*:
//!
//! * **Proven error bound** — `quantile(q)` returns an estimate `x̂`
//!   with `|x̂ − x_q| ≤ α·x_q` where `x_q` is the exact `q`-quantile of
//!   the recorded multiset under the same rank convention as
//!   [`crate::Histogram::quantile`] (`rank = max(1, ⌈q·n⌉)`). Clamping
//!   to the exact min/max can only shrink the error (the exact quantile
//!   always lies inside `[min, max]`). split-analyze's SA501 audit and
//!   the `sketch_props` proptests pin this bound against exact sorted
//!   data.
//! * **Commutative, associative `merge`** — buckets are integer counts
//!   keyed by index, so merging is a sorted merge-join of `+=`s; any
//!   merge tree over the same sketches yields bit-identical state
//!   (SA503). This is what lets per-window, per-model — and eventually
//!   per-device — sketches roll up into fleet quantiles.
//! * **Deterministic at any thread count** — the bucket index is a pure
//!   function of `(v, α)` and all state is integers plus the three
//!   constructor-derived floats, so a sketch's contents depend only on
//!   the multiset of recorded values, never on recording or merge
//!   order.
//!
//! Memory is bounded: with `α = 0.01`, the full `u64` range spans
//! ~2,220 buckets (`⌈ln(2⁶⁴)/ln(γ)⌉`), and only occupied buckets are
//! stored (sorted `Vec<(i32, u64)>`; insertion keeps it sorted, lookup
//! is binary search).

use serde::{Deserialize, Serialize};

/// Default relative-accuracy parameter `α` (1%).
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// Values below this (2^17, ~131 ms in µs) get their bucket index from
/// a table at the default `α` instead of a `ln` per sample: recording is
/// the per-request cost of the drift watch, and `ln` was most of it.
const SMALL_VALUES: u64 = 1 << 17;

/// `γ = (1+α)/(1−α)`.
fn gamma_of(alpha: f64) -> f64 {
    (1.0 + alpha) / (1.0 - alpha)
}

/// Bucket index of a positive value: `⌈ln(v)/ln(γ)⌉`. v = 1 maps to
/// index 0 (ln 1 = 0); u64::MAX to ~ln(2^64)/ln(γ).
fn ln_index(v: u64, ln_gamma: f64) -> i32 {
    ((v as f64).ln() / ln_gamma).ceil() as i32
}

/// The bucket index of every value below [`SMALL_VALUES`] at the default
/// `α`, computed once by the very expression a lookup replaces, so the
/// two can never disagree. 256 KiB, built by the first default
/// [`QuantileSketch::new`].
fn default_small_indices() -> &'static [i16] {
    static TABLE: std::sync::OnceLock<Box<[i16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let ln_gamma = gamma_of(DEFAULT_SKETCH_ALPHA).ln();
        // Index 0 stands in for the value 0, which is never looked up.
        (0..SMALL_VALUES)
            .map(|v| ln_index(v.max(1), ln_gamma) as i16)
            .collect()
    })
}

/// Mergeable quantile sketch with a relative-error guarantee.
///
/// See the [module docs](self) for the accuracy proof sketch and the
/// determinism contract. Values are `u64` and unit-agnostic
/// (microseconds by convention in split-watch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Relative-accuracy parameter `α`.
    alpha: f64,
    /// `γ = (1+α)/(1−α)`; bucket `i` covers `(γ^(i−1), γ^i]`.
    gamma: f64,
    /// Cached `ln(γ)`.
    ln_gamma: f64,
    /// Count of zero-valued samples (ln is undefined at 0, so zeros get
    /// their own exact bucket).
    zero: u64,
    /// Occupied buckets, sorted by index.
    buckets: Vec<(i32, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_SKETCH_ALPHA)
    }
}

impl QuantileSketch {
    /// Empty sketch with relative accuracy `alpha` (`0 < alpha < 1`).
    ///
    /// # Panics
    /// If `alpha` is not in `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch alpha must be in (0, 1), got {alpha}"
        );
        let gamma = gamma_of(alpha);
        if alpha.to_bits() == DEFAULT_SKETCH_ALPHA.to_bits() {
            // Build the table here rather than on a first `record`, which
            // may sit on a serving thread.
            default_small_indices();
        }
        Self {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            zero: 0,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The relative-accuracy parameter `α` this sketch was built with.
    pub fn relative_accuracy(&self) -> f64 {
        self.alpha
    }

    /// Bucket index for a positive value: [`ln_index`]. At the default
    /// `α`, values below [`SMALL_VALUES`] read it from a table that holds
    /// that same expression's result for each of them.
    fn index_of(&self, v: u64) -> i32 {
        debug_assert!(v > 0);
        if v < SMALL_VALUES && self.alpha.to_bits() == DEFAULT_SKETCH_ALPHA.to_bits() {
            return i32::from(default_small_indices()[v as usize]);
        }
        ln_index(v, self.ln_gamma)
    }

    /// Representative value of bucket `i`: `2γ^i/(γ+1)`, the point whose
    /// worst-case relative error over `(γ^(i−1), γ^i]` is exactly `α`.
    fn value_of(&self, i: i32) -> f64 {
        2.0 * self.gamma.powi(i) / (self.gamma + 1.0)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if v == 0 {
            self.zero += 1;
        } else {
            let idx = self.index_of(v);
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += 1,
                Err(pos) => self.buckets.insert(pos, (idx, 1)),
            }
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Number of occupied (non-zero) log buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The `q`-quantile estimate (`0.0..=1.0`), within relative error
    /// `α` of the exact quantile at rank `max(1, ⌈q·n⌉)`, clamped to
    /// the exact min/max. Returns 0.0 when empty — never NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = self.zero;
        if cum >= target {
            return 0.0;
        }
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return self.value_of(idx).clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Fold `other`'s samples into `self`.
    ///
    /// Pure integer adds on matching bucket indices (sorted merge-join),
    /// so merging is commutative and associative: any merge tree over
    /// the same set of sketches produces bit-identical state, which
    /// SA503 and the `sketch_props` proptests verify via `to_bits`.
    /// Merging an empty sketch is a no-op (its `min` sentinel never
    /// survives the `min()`).
    ///
    /// # Panics
    /// If the sketches were built with different `α` (their bucket
    /// grids are incompatible).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits(),
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => {
                        merged.push((ia, na));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((ib, nb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                },
                (Some(&&e), None) => {
                    merged.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    merged.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.zero += other.zero;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The small-value table is a cache of `ln_index`, never a second
    /// bucketing rule: every entry, and the first value past the table,
    /// agree with the formula.
    #[test]
    fn small_value_table_is_the_ln_formula() {
        let s = QuantileSketch::default();
        for v in 1..=SMALL_VALUES {
            assert_eq!(s.index_of(v), ln_index(v, s.ln_gamma), "v = {v}");
        }
    }

    /// Exact quantile under the sketch's rank convention.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as f64;
        let target = ((q * n).ceil() as usize).max(1);
        sorted[target - 1]
    }

    fn assert_within_bound(samples: &[u64], alpha: f64, what: &str) {
        let mut s = QuantileSketch::new(alpha);
        for &v in samples {
            s.record(v);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = s.quantile(q);
            // Tiny slack on top of α for the two f64 ops in the index
            // computation (ln + divide) at bucket boundaries.
            let tol = alpha * exact as f64 * (1.0 + 1e-9) + 1e-9;
            assert!(
                (est - exact as f64).abs() <= tol,
                "{what}: q={q} exact={exact} est={est}"
            );
        }
    }

    #[test]
    fn bound_holds_on_uniform_constant_and_powers() {
        assert_within_bound(&(1..=10_000u64).collect::<Vec<_>>(), 0.01, "uniform");
        assert_within_bound(&[42; 1000], 0.01, "constant");
        assert_within_bound(
            &(0..60u32).map(|e| 1u64 << e).collect::<Vec<_>>(),
            0.01,
            "powers of two",
        );
        assert_within_bound(&[0, 0, 0, 1, 2, 3], 0.01, "zeros mixed in");
        assert_within_bound(&[7], 0.02, "single sample");
    }

    #[test]
    fn empty_sketch_yields_zero_not_nan() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.p999(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert!(!s.quantile(0.5).is_nan());
    }

    #[test]
    fn zeros_get_an_exact_bucket() {
        let mut s = QuantileSketch::default();
        for _ in 0..90 {
            s.record(0);
        }
        for _ in 0..10 {
            s.record(1_000_000);
        }
        assert_eq!(s.quantile(0.5), 0.0);
        assert!((s.quantile(0.99) - 1_000_000.0).abs() <= 0.01 * 1_000_000.0 + 1e-6);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 1_000_000);
    }

    #[test]
    fn merge_is_commutative_and_associative_bitwise() {
        let mk = |vals: &[u64]| {
            let mut s = QuantileSketch::default();
            for &v in vals {
                s.record(v);
            }
            s
        };
        let a = mk(&[1, 5, 5, 900, 1_000_000]);
        let b = mk(&[0, 7, 7, 7, 123_456_789]);
        let c = mk(&(100..200u64).collect::<Vec<_>>());

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        let mut ca = c.clone();
        ca.merge(&a);
        ca.merge(&b);

        for other in [&a_bc, &ca] {
            assert_eq!(ab_c, *other);
            for q in [0.1, 0.5, 0.99, 0.999] {
                assert_eq!(ab_c.quantile(q).to_bits(), other.quantile(q).to_bits());
            }
        }
        assert_eq!(ab_c.count(), a.count() + b.count() + c.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::default();
        s.record(42);
        let before = s.clone();
        s.merge(&QuantileSketch::default());
        assert_eq!(s, before);
        assert_eq!(s.min(), 42, "empty min sentinel must not leak in");
        let mut acc = QuantileSketch::default();
        acc.merge(&s);
        assert_eq!((acc.count(), acc.min(), acc.max()), (1, 42, 42));
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn serde_roundtrip_is_exact() {
        let mut s = QuantileSketch::default();
        for v in [0u64, 1, 3, 999, 1 << 40] {
            s.record(v);
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.p999().to_bits(), s.p999().to_bits());
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut s = QuantileSketch::default();
        for i in 1..=1000u64 {
            s.record(i * 17);
        }
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.p999());
        assert!(s.p999() <= s.max() as f64);
        assert!(s.quantile(0.0) >= s.min() as f64);
    }
}
