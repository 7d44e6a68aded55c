#![warn(missing_docs)]
//! # split-forensics — tail-latency forensics for the SPLIT stack
//!
//! The observability layer (`split-obs`) can say *that* the p99 blew up;
//! this crate answers *why this specific request* did, mechanically:
//!
//! * [`ring`] — the **flight recorder**: compact per-request causal
//!   records (decisions, preemptions, block boundaries, transfers, queue
//!   transitions, drops) projected from a lifecycle log, cheap enough to
//!   stay on in production, plus the bounded, lock-free ring that can
//!   hold them. Safe Rust throughout — the seqlock slots are plain
//!   atomics.
//! * [`sampling`] — **tail sampling**: full causal traces are retained
//!   only for outliers (QoS-violating, dropped, or top-k slowest per
//!   window); everything else collapses to head counters. Invariant:
//!   *every* violating request is retained — enforced by `SA402`.
//! * [`mod@classify`] — **root-cause classification**: each outlier is
//!   labeled queue-dominated / preemption-stall / transfer-bound /
//!   compute-bound / cross-model-interference directly from its exact
//!   e2e attribution decomposition plus span-overlap analysis against
//!   the other models' device time.
//! * [`bundle`] — **incident bundles**: when an
//!   [`split_obs::SloMonitor`] burn-rate alert fires, the ring, queue
//!   depths, device utilization, and the offending requests' full span
//!   trees are snapshotted into one self-contained JSON (+ Perfetto)
//!   document with an aggregated verdict, e.g. *"p99 regression: 78%
//!   preemption-stall on gpt2 behind resnet50 bursts"*.
//! * [`mod@investigate`] — the driver tying the above together over a
//!   lifecycle recording: replay the SLO monitor, scope one bundle per
//!   fired alert, sample, classify, aggregate.
//!
//! `split-analyze` verifies bundles with the `SA4xx` codes and
//! `perfbench` gates the recorder's overhead (on vs off) at ≤ 5% p50 on
//! the full `simulate/SPLIT` path.

pub mod bundle;
pub mod classify;
pub mod investigate;
pub mod ring;
pub mod sampling;

pub use bundle::{
    CauseShare, DepthSample, IncidentBundle, ModelStat, OutlierReport, PhaseKind, SampleReason,
    SpanRecord, Verdict, BUNDLE_SCHEMA,
};
pub use classify::{classify, Classification, RootCause};
pub use investigate::{bundles_for_alerts, investigate, ForensicsCfg, Investigation};
pub use ring::{FlightKind, FlightRecord, FlightRing, FlightSnapshot, DEFAULT_CAPACITY, NO_REQ};
pub use sampling::{TailSampler, DEFAULT_TOP_K, DEFAULT_WINDOW_US};

use std::cell::Cell;

thread_local! {
    /// Per-thread override for [`flight_enabled`] (used by perfbench to
    /// pair on/off measurements without touching the environment).
    static FLIGHT_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the flight recorder should run. Always on by default — the
/// whole point is that forensics data exists *before* the incident. A
/// thread-scoped [`with_flight`] override wins; otherwise the
/// `SPLIT_FLIGHT` environment variable (`0` / `off` / `false` disables).
pub fn flight_enabled() -> bool {
    if let Some(forced) = FLIGHT_OVERRIDE.with(Cell::get) {
        return forced;
    }
    !matches!(
        std::env::var("SPLIT_FLIGHT").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    )
}

/// Run `f` with the flight recorder forced on or off for the current
/// thread. Restores the previous override on exit (including panic
/// unwinding is not required here: measurement helpers only).
pub fn with_flight<T>(enabled: bool, f: impl FnOnce() -> T) -> T {
    let prev = FLIGHT_OVERRIDE.with(|o| o.replace(Some(enabled)));
    let out = f();
    FLIGHT_OVERRIDE.with(|o| o.set(prev));
    out
}

/// Ring capacity to use, from `SPLIT_FLIGHT_CAP` (entries; rounded up
/// to a power of two by the ring) or [`DEFAULT_CAPACITY`].
pub fn flight_capacity() -> usize {
    std::env::var("SPLIT_FLIGHT_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAPACITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_defaults_on_and_override_scopes() {
        // Default (no env override in the test environment): on.
        assert!(flight_enabled());
        let inside = with_flight(false, flight_enabled);
        assert!(!inside);
        assert!(flight_enabled(), "override must not leak");
        assert!(!with_flight(true, || with_flight(false, flight_enabled)));
    }
}
