//! Unified observability for the SPLIT reproduction.
//!
//! Three layers, usable together or independently:
//!
//! * [`metrics`] — a lock-free registry of named counters, gauges, and
//!   log-bucketed latency histograms (p50/p95/p99/p999/max). Handles are
//!   `Arc`-shared and update with atomic operations, so the scheduler's
//!   microsecond-scale hot path ([§3.4] preemption decisions) can record
//!   without taking locks.
//! * [`sketch`] — a mergeable DDSketch-style quantile sketch with a
//!   proven γ-relative-error bound and a commutative/associative
//!   `merge`, the aggregation substrate for split-watch's sliding
//!   windows and (eventually) fleet-level quantile roll-ups.
//! * [`lifecycle`] — a structured per-request event recorder covering the
//!   whole serving pipeline: arrival → enqueue (with preemption
//!   displacement) → block execution → completion, plus queue-depth and
//!   device-utilization time series. Supports a bounded ring mode for
//!   long-running servers.
//! * [`perfetto`] — exports a lifecycle recording as Chrome/Perfetto
//!   `trace_events` JSON (one track per GPU stream plus a scheduler
//!   track), loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The simulator (`gpu-sim`), the policy engine (`sched`), and the
//! serving runtime (`split-runtime`) all feed the same event model, so
//! a trace taken from any layer renders and validates identically.
//!
//! [§3.4]: https://doi.org/10.1145/3605573.3605627

#![warn(missing_docs)]

mod exposition;
pub mod lifecycle;
pub mod metrics;
pub mod perfetto;
pub mod sketch;

pub use lifecycle::{Event, Recorder, RecorderMode};
pub use metrics::{
    registry_from_events, Counter, Gauge, Histogram, MetricEntry, MetricsSnapshot, Registry,
};
pub use perfetto::{
    read_chrome_trace, recorder_from_trace_events, trace_events, write_chrome_trace,
};
pub use sketch::QuantileSketch;
