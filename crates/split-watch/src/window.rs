//! Sliding time-window engine: a ring of per-window, per-model
//! [`QuantileSketch`]es plus QoS-violation / drop / arrival counters.
//!
//! Simulated time is tiled into half-open windows
//! `[k·w, (k+1)·w)` starting at `t = 0`. Exactly one window is *open*
//! at a time; observations land in the open window, and advancing time
//! past a window's end **closes** it — the closed frame is handed to
//! the caller (split-watch's detectors) and pushed onto a bounded ring
//! of recent frames. Rotation is O(1) per closed window (close, push,
//! pop-front — no re-aggregation of retained windows), and each window
//! closes exactly once over the run, so the total rotation work is
//! O(elapsed windows) regardless of how events cluster.
//!
//! Two invariants the SA502 analyzer and the unit tests pin:
//!
//! * **Exact sample conservation** — every completion fed to the ring
//!   lands in exactly one window: the half-open tiling has no gaps or
//!   overlaps, a sample at the exact rotation instant `t = (k+1)·w`
//!   belongs to window `k+1`, and [`WindowRing::finalize`] closes the
//!   trailing partial window so nothing is left in flight. Lifetime
//!   feed counters cross-check the sum over closed frames.
//! * **Empty windows yield 0, not NaN** — an idle stretch closes empty
//!   frames whose rates and quantiles all read 0 (the sketch's empty
//!   behavior), so downstream series never see NaN.

use serde::{Deserialize, Serialize};
use split_telemetry::QuantileSketch;
use std::collections::{BTreeMap, VecDeque};

/// Per-window, per-model accumulator: a latency sketch plus the three
/// flow counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// End-to-end latency sketch over completions in this window (µs).
    pub sketch: QuantileSketch,
    /// Completions observed in this window.
    pub completions: u64,
    /// Completions that violated QoS (e2e > α × compute).
    pub violations: u64,
    /// Arrivals observed in this window.
    pub arrivals: u64,
    /// Drops (elastic downgrades / sheds) observed in this window.
    pub drops: u64,
}

impl WindowStats {
    fn new(sketch_alpha: f64) -> Self {
        WindowStats {
            sketch: QuantileSketch::new(sketch_alpha),
            completions: 0,
            violations: 0,
            arrivals: 0,
            drops: 0,
        }
    }

    /// Violation rate over this window's completions; 0 when empty
    /// (never NaN).
    pub fn violation_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.violations as f64 / self.completions as f64
        }
    }
}

/// One closed window: its time span plus the aggregate and per-model
/// accumulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowFrame {
    /// Window index `k` (the window covered `[k·w, (k+1)·w)`).
    pub index: u64,
    /// Inclusive start of the span, µs.
    pub start_us: f64,
    /// Exclusive end of the span, µs.
    pub end_us: f64,
    /// All-models aggregate.
    pub total: WindowStats,
    /// Per-model accumulators, sorted by model name.
    pub models: BTreeMap<String, WindowStats>,
}

/// Lifetime feed totals, for conservation cross-checks (SA502).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedTotals {
    /// Completions ever fed.
    pub completions: u64,
    /// Violations ever fed.
    pub violations: u64,
    /// Arrivals ever fed.
    pub arrivals: u64,
    /// Drops ever fed.
    pub drops: u64,
}

/// The sliding-window ring. See the [module docs](self) for semantics.
///
/// The open window's per-model accumulators live in a small `Vec` with
/// a last-hit index cache (the server's arrival/completion stream has
/// strong model locality), and the aggregate sketch is assembled by
/// merging the per-model sketches once at rotation — merge is exact
/// (identical bucket state to per-sample double-recording), so the
/// per-observation cost stays at one map probe and one sketch insert.
/// This is the path every served request pays; perfbench's
/// `drift/record` entry gates it.
#[derive(Debug, Clone)]
pub struct WindowRing {
    window_us: f64,
    sketch_alpha: f64,
    capacity: usize,
    /// Index of the open window.
    index: u64,
    /// Exclusive end of the open window, µs: `(index + 1) · window_us`.
    open_end_us: f64,
    /// Open window's per-model accumulators (sorted into a `BTreeMap`
    /// only at rotation).
    models: Vec<(String, WindowStats)>,
    /// Index of the most recently touched `models` slot.
    last_model: usize,
    open_dirty: bool,
    closed: VecDeque<WindowFrame>,
    closed_count: u64,
    fed: FeedTotals,
    finalized: bool,
}

impl WindowRing {
    /// New ring with `window_us`-wide windows, retaining the most
    /// recent `capacity` closed frames, sketching at `sketch_alpha`
    /// relative accuracy.
    ///
    /// # Panics
    /// If `window_us` is not positive and finite, or `capacity` is 0.
    pub fn new(window_us: f64, capacity: usize, sketch_alpha: f64) -> Self {
        assert!(
            window_us.is_finite() && window_us > 0.0,
            "window width must be positive, got {window_us}"
        );
        assert!(capacity > 0, "ring capacity must be positive");
        WindowRing {
            window_us,
            sketch_alpha,
            capacity,
            index: 0,
            open_end_us: window_us,
            models: Vec::new(),
            last_model: 0,
            open_dirty: false,
            closed: VecDeque::new(),
            closed_count: 0,
            fed: FeedTotals::default(),
            finalized: false,
        }
    }

    /// Window width, µs.
    pub fn window_us(&self) -> f64 {
        self.window_us
    }

    /// Number of windows closed so far.
    pub fn closed_count(&self) -> u64 {
        self.closed_count
    }

    /// The most recently closed frame, if any.
    pub fn latest(&self) -> Option<&WindowFrame> {
        self.closed.back()
    }

    /// Retained closed frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &WindowFrame> {
        self.closed.iter()
    }

    /// Lifetime feed totals (for conservation checks).
    pub fn fed(&self) -> FeedTotals {
        self.fed
    }

    /// Close every window whose end is ≤ `t_us`, returning the closed
    /// frames oldest-first. A sample arriving at exactly `(k+1)·w`
    /// therefore rotates window `k` out *before* it is recorded, landing
    /// it in window `k+1` (half-open `[start, end)` semantics).
    #[inline]
    pub fn advance(&mut self, t_us: f64) -> Vec<WindowFrame> {
        assert!(!self.finalized, "ring already finalized");
        if t_us < self.open_end_us {
            return Vec::new();
        }
        self.rotate_through(t_us)
    }

    /// The rare half of [`WindowRing::advance`], kept out of line so the
    /// per-observation check stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn rotate_through(&mut self, t_us: f64) -> Vec<WindowFrame> {
        let mut out = Vec::new();
        while t_us >= self.open_end_us {
            out.push(self.rotate());
        }
        out
    }

    /// Close the open window regardless of time (trailing partial
    /// window at end of run). Returns the frame if it held any
    /// observations; an untouched open window is discarded silently so
    /// a run that ends exactly on a boundary does not emit a bogus
    /// empty frame. Further observations panic.
    pub fn finalize(&mut self) -> Option<WindowFrame> {
        assert!(!self.finalized, "ring already finalized");
        self.finalized = true;
        if self.open_dirty {
            Some(self.rotate())
        } else {
            None
        }
    }

    fn rotate(&mut self) -> WindowFrame {
        // The aggregate is assembled here, once per window, rather than
        // on every observation: summing the per-model counters and
        // merging their sketches yields state bit-identical to
        // per-sample double-recording (buckets are integer counts keyed
        // by index).
        let mut total = WindowStats::new(self.sketch_alpha);
        let models: BTreeMap<String, WindowStats> = self.models.drain(..).collect();
        self.last_model = 0;
        for s in models.values() {
            total.sketch.merge(&s.sketch);
            total.completions += s.completions;
            total.violations += s.violations;
            total.arrivals += s.arrivals;
            total.drops += s.drops;
        }
        let frame = WindowFrame {
            index: self.index,
            start_us: self.index as f64 * self.window_us,
            end_us: self.open_end_us,
            total,
            models,
        };
        self.index += 1;
        self.open_end_us = (self.index + 1) as f64 * self.window_us;
        self.open_dirty = false;
        self.closed_count += 1;
        if self.closed.len() == self.capacity {
            self.closed.pop_front();
        }
        self.closed.push_back(frame.clone());
        frame
    }

    fn model_stats(&mut self, model: &str) -> &mut WindowStats {
        let idx = if self
            .models
            .get(self.last_model)
            .is_some_and(|(n, _)| n == model)
        {
            self.last_model
        } else {
            match self.models.iter().position(|(n, _)| n == model) {
                Some(i) => i,
                None => self.add_model(model),
            }
        };
        self.last_model = idx;
        &mut self.models[idx].1
    }

    /// A model's first observation in the open window: out of line, like
    /// [`WindowRing::rotate_through`], so the lookup above stays small.
    #[cold]
    #[inline(never)]
    fn add_model(&mut self, model: &str) -> usize {
        self.models
            .push((model.to_string(), WindowStats::new(self.sketch_alpha)));
        self.models.len() - 1
    }

    /// Record an arrival at `t_us`. Returns any frames the implied
    /// [`WindowRing::advance`] closed.
    #[inline]
    pub fn observe_arrival(&mut self, t_us: f64, model: &str) -> Vec<WindowFrame> {
        let closed = self.advance(t_us);
        self.fed.arrivals += 1;
        self.model_stats(model).arrivals += 1;
        self.open_dirty = true;
        closed
    }

    /// Record a completion at `t_us` with its end-to-end latency and
    /// QoS verdict. Returns any frames the implied advance closed.
    #[inline]
    pub fn observe_completion(
        &mut self,
        t_us: f64,
        model: &str,
        e2e_us: f64,
        violated: bool,
    ) -> Vec<WindowFrame> {
        let closed = self.advance(t_us);
        let sample = round_to_u64(e2e_us);
        self.fed.completions += 1;
        self.fed.violations += u64::from(violated);
        let m = self.model_stats(model);
        m.completions += 1;
        m.violations += u64::from(violated);
        m.sketch.record(sample);
        self.open_dirty = true;
        closed
    }

    /// Record a drop (elastic downgrade / shed) at `t_us`. Returns any
    /// frames the implied advance closed.
    pub fn observe_drop(&mut self, t_us: f64, model: &str) -> Vec<WindowFrame> {
        let closed = self.advance(t_us);
        self.fed.drops += 1;
        self.model_stats(model).drops += 1;
        self.open_dirty = true;
        closed
    }
}

/// `x.max(0.0).round() as u64`, bit for bit, without `f64::round`: the
/// baseline x86-64 target has no rounding instruction, and the software
/// rounding it falls back to was a large share of recording a sample.
/// Truncate, then round half away from zero on the exact remainder
/// (`x − ⌊x⌋` is exact for every non-negative double).
fn round_to_u64(x: f64) -> u64 {
    let x = x.max(0.0);
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_to_u64_matches_round() {
        let edges = [
            0.0,
            -0.0,
            -3.5,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            2_000.499_9,
            2_000.5,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_993.0,
            9.3e18,
            18_446_744_073_709_549_568.0,
            18_446_744_073_709_551_616.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut x = 0.37f64;
        let spread = (0..10_000).map(|_| {
            x = (x * 7_919.0 + 0.123).fract();
            x * 10f64.powi((x * 22.0) as i32)
        });
        for v in edges.into_iter().chain(spread) {
            assert_eq!(round_to_u64(v), v.max(0.0).round() as u64, "{v:e}");
        }
    }

    fn ring() -> WindowRing {
        WindowRing::new(100.0, 8, 0.01)
    }

    #[test]
    fn sample_at_exact_rotation_instant_lands_in_next_window() {
        let mut r = ring();
        r.observe_completion(0.0, "m", 10.0, false);
        // t = 100.0 is the open edge of window 0 and the closed edge of
        // window 1: the rotation happens first, then the sample lands
        // in window 1.
        let closed = r.observe_completion(100.0, "m", 20.0, false);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].total.completions, 1);
        let last = r.finalize().expect("window 1 holds the second sample");
        assert_eq!(last.index, 1);
        assert_eq!(last.total.completions, 1);
    }

    #[test]
    fn empty_windows_yield_zero_not_nan() {
        let mut r = ring();
        r.observe_completion(50.0, "m", 10.0, true);
        // Jump 5 windows ahead: windows 0..=4 close, 1..=4 empty.
        let closed = r.advance(500.0);
        assert_eq!(closed.len(), 5);
        for f in &closed[1..] {
            assert_eq!(f.total.completions, 0);
            assert_eq!(f.total.violation_rate(), 0.0);
            assert_eq!(f.total.sketch.p99(), 0.0);
            assert!(!f.total.sketch.quantile(0.5).is_nan());
            assert!(f.models.is_empty());
        }
        assert_eq!(closed[0].total.violation_rate(), 1.0);
    }

    #[test]
    fn conservation_every_completion_in_exactly_one_window() {
        let mut r = ring();
        let mut frames = Vec::new();
        // Completions scattered across windows, including boundary hits.
        for (i, t) in [0.0, 99.0, 100.0, 199.9, 200.0, 200.0, 750.0]
            .iter()
            .enumerate()
        {
            let model = if i % 2 == 0 { "a" } else { "b" };
            frames.extend(r.observe_completion(*t, model, 5.0, i % 3 == 0));
        }
        frames.extend(r.finalize());
        let total: u64 = frames.iter().map(|f| f.total.completions).sum();
        let per_model: u64 = frames
            .iter()
            .flat_map(|f| f.models.values())
            .map(|s| s.completions)
            .sum();
        let sketched: u64 = frames.iter().map(|f| f.total.sketch.count()).sum();
        assert_eq!(total, 7);
        assert_eq!(per_model, 7);
        assert_eq!(sketched, 7);
        assert_eq!(r.fed().completions, 7);
        // Window indices strictly increase: no window closes twice.
        for w in frames.windows(2) {
            assert!(w[0].index < w[1].index);
        }
    }

    #[test]
    fn ring_is_bounded_but_closed_count_is_lifetime() {
        let mut r = ring();
        for k in 0..20 {
            r.observe_completion(k as f64 * 100.0 + 1.0, "m", 1.0, false);
        }
        assert_eq!(r.closed_count(), 19, "window 19 is still open");
        assert_eq!(r.frames().count(), 8, "ring keeps only `capacity`");
        assert_eq!(r.latest().unwrap().index, 18);
    }

    #[test]
    fn finalize_on_boundary_emits_no_empty_frame() {
        let mut r = ring();
        r.observe_completion(10.0, "m", 1.0, false);
        // Advance to exactly the boundary: window 0 closes, window 1
        // opens untouched; finalize must not emit it.
        let closed = r.advance(100.0);
        assert_eq!(closed.len(), 1);
        assert!(r.finalize().is_none());
    }
}
