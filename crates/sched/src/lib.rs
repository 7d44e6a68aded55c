#![warn(missing_docs)]
//! # sched — serving policies over the simulated shared GPU
//!
//! The deterministic evaluation path behind the paper's Figures 6 and 7:
//! a request trace (from `workload`) is served by one of four policies and
//! the completions are scored by `qos-metrics`.
//!
//! * [`policy::split`](mod@policy::split) — **SPLIT** (§3): block-granular sequential
//!   execution, greedy response-ratio preemption on every arrival, elastic
//!   splitting under floods;
//! * [`policy::clockwork`](mod@policy::clockwork) — **ClockWork**: non-preemptive sequential FCFS
//!   (§5.3);
//! * [`policy::prema`](mod@policy::prema) — **PREMA**: token-based preemptive multi-tasking
//!   at checkpoint granularity (§5.3);
//! * [`policy::rta`](mod@policy::rta) — **Runtime-Aware (RT-A)**: concurrent multi-stream
//!   execution with operator alignment (§5.3), modeled by the
//!   processor-sharing engine plus alignment-barrier admission.
//!
//! All four consume the same [`request::ModelTable`] built from offline
//! split plans, so comparisons are apples-to-apples.

pub mod engine;
pub mod policy;
pub mod request;

pub use engine::{attach_lifecycle, completions_digest, fnv1a, simulate, Policy, SimResult};
pub use request::{Completion, ModelRuntime, ModelTable};
