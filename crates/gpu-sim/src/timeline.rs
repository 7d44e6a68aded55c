//! Sequential device timeline.
//!
//! The sequential policies (SPLIT, ClockWork, PREMA) never co-run kernels:
//! the device executes one block at a time. A [`Timeline`] is the single
//! shared lane — callers ask to run a span of known duration no earlier
//! than some time, and get back the realized `(start, end)`.

use crate::trace::{SpanLabel, Trace};
use std::sync::Arc;

/// A single-lane device timeline with an attached [`Trace`].
#[derive(Debug, Default)]
pub struct Timeline {
    busy_until_us: f64,
    trace: Trace,
}

impl Timeline {
    /// Fresh timeline starting at t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The earliest time new work could start.
    #[inline]
    pub fn busy_until_us(&self) -> f64 {
        self.busy_until_us
    }

    /// Execute a span of `duration_us` starting no earlier than
    /// `earliest_us`; returns the realized `(start, end)`.
    pub fn execute(
        &mut self,
        label: impl Into<String>,
        earliest_us: f64,
        duration_us: f64,
    ) -> (f64, f64) {
        self.run(SpanLabel::Text(label.into()), earliest_us, duration_us)
    }

    /// [`Timeline::execute`] for one run of request `req` of `model`,
    /// recorded as a typed span (see [`Trace::record_block`]); `block` is
    /// `None` for an unsplit run.
    pub fn execute_block(
        &mut self,
        model: Arc<str>,
        req: u64,
        block: Option<usize>,
        earliest_us: f64,
        duration_us: f64,
    ) -> (f64, f64) {
        let label = SpanLabel::Block { model, req, block };
        self.run(label, earliest_us, duration_us)
    }

    fn run(&mut self, label: SpanLabel, earliest_us: f64, duration_us: f64) -> (f64, f64) {
        debug_assert!(duration_us >= 0.0);
        let start = self.busy_until_us.max(earliest_us);
        let end = start + duration_us;
        self.trace.push(label, 0, start, end);
        self.busy_until_us = end;
        (start, end)
    }

    /// Whether the device is idle at `t`.
    #[inline]
    pub fn idle_at(&self, t_us: f64) -> bool {
        t_us >= self.busy_until_us
    }

    /// Read the trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the trace out (consumes the timeline).
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Export executed spans as telemetry block events
    /// (see [`Trace::lifecycle_events`]).
    pub fn lifecycle_events(&self) -> Vec<split_telemetry::Event> {
        self.trace.lifecycle_events()
    }

    /// Sample device busy-fraction over `bucket_us` windows
    /// (see [`Trace::utilization_series`]).
    pub fn utilization_series(&self, bucket_us: f64) -> Vec<split_telemetry::Event> {
        self.trace.utilization_series(bucket_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_back_to_back() {
        let mut tl = Timeline::new();
        let (s1, e1) = tl.execute("a", 0.0, 10.0);
        let (s2, e2) = tl.execute("b", 0.0, 5.0);
        assert_eq!((s1, e1), (0.0, 10.0));
        assert_eq!((s2, e2), (10.0, 15.0));
        assert!(tl.trace().first_overlap().is_none());
    }

    #[test]
    fn earliest_respected_when_idle() {
        let mut tl = Timeline::new();
        tl.execute("a", 0.0, 10.0);
        let (s, e) = tl.execute("b", 50.0, 5.0);
        assert_eq!((s, e), (50.0, 55.0));
        assert!(tl.idle_at(55.0));
        assert!(!tl.idle_at(54.0));
    }

    #[test]
    fn zero_duration_span_allowed() {
        let mut tl = Timeline::new();
        let (s, e) = tl.execute("noop", 3.0, 0.0);
        assert_eq!(s, e);
    }
}
