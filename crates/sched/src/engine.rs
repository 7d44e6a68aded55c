//! Uniform entry point over the four policies.

use crate::policy::{
    clockwork, prema, rta, sjf, split, stream_parallel, PremaCfg, RtaCfg, SplitCfg,
    StreamParallelCfg,
};
use crate::request::{Completion, ModelTable};
use gpu_sim::Trace;
use workload::Arrival;

/// A policy choice with its configuration.
#[derive(Debug, Clone)]
pub enum Policy {
    /// SPLIT (§3).
    Split(SplitCfg),
    /// ClockWork baseline (§5.3).
    ClockWork,
    /// PREMA baseline (§5.3).
    Prema(PremaCfg),
    /// Runtime-Aware baseline (§5.3).
    Rta(RtaCfg),
    /// Native multi-stream concurrency (Figure 1's first lane; not part of
    /// the Figure 6/7 comparison set).
    StreamParallel(StreamParallelCfg),
    /// Shortest-Job-First (classical reference, not a paper comparator).
    Sjf,
}

impl Policy {
    /// Display name used in figures/tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Split(_) => "SPLIT",
            Policy::ClockWork => "ClockWork",
            Policy::Prema(_) => "PREMA",
            Policy::Rta(_) => "RT-A",
            Policy::StreamParallel(_) => "Stream-Parallel",
            Policy::Sjf => "SJF",
        }
    }

    /// The paper's Figure 6/7 comparison set (SPLIT + three baselines)
    /// with default configurations.
    pub fn all_default() -> Vec<Policy> {
        vec![
            Policy::Split(SplitCfg::default()),
            Policy::ClockWork,
            Policy::Prema(PremaCfg::default()),
            Policy::Rta(RtaCfg::default()),
        ]
    }
}

/// The result of serving a trace: completions, the device trace, and a
/// per-request lifecycle recording.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completed requests in completion order.
    pub completions: Vec<Completion>,
    /// Device execution trace.
    pub trace: Trace,
    /// Lifecycle telemetry. Policies contribute their decision-level
    /// events (preemption decisions, elastic downgrades); [`simulate`]
    /// merges in the uniform events every policy shares — arrivals,
    /// block spans, completions, queue depth, utilization.
    pub recorder: split_telemetry::Recorder,
    /// Flight-recorder snapshot, projected lazily from the lifecycle on
    /// first access — read it through [`SimResult::flight`]. Whether
    /// recording is enabled is still decided at simulate time
    /// ([`attach_lifecycle`] pins the disabled snapshot when
    /// [`split_forensics::flight_enabled`] is off, e.g. under
    /// `SPLIT_FLIGHT=0` or a perfbench off-measurement).
    pub flight: std::sync::OnceLock<split_forensics::FlightSnapshot>,
}

impl SimResult {
    /// Convert completions into metric outcomes.
    pub fn outcomes(&self) -> Vec<qos_metrics::RequestOutcome> {
        self.completions
            .iter()
            .map(Completion::to_outcome)
            .collect()
    }

    /// Derive a metrics registry (decision latency, jump counts, e2e and
    /// wait histograms, …) from the lifecycle recording.
    pub fn metrics(&self) -> split_telemetry::Registry {
        split_telemetry::registry_from_events(&self.recorder)
    }

    /// Rebuild every request's causal span tree (arrival → queue →
    /// blocks → transfers → stalls → completion) from the lifecycle
    /// recording.
    pub fn spans(&self) -> Vec<split_obs::Span> {
        split_obs::build_spans(&self.recorder)
    }

    /// Critical-path attribution for every completed request: e2e
    /// latency decomposed into queue / compute / transfer / stall /
    /// sched components (sum = e2e within 1 ns; linted as `SA301`).
    pub fn attribution(&self) -> Vec<split_obs::Attribution> {
        split_obs::attribute(&self.recorder)
    }

    /// Flight-recorder view of this run: a projection of
    /// [`SimResult::recorder`], computed on first access, so the
    /// always-on recorder adds no work to the serving path itself (the
    /// perfbench on/off pair gates that at ≤ 5% p50). The live server
    /// projects its own lifecycle log the same way.
    pub fn flight(&self) -> &split_forensics::FlightSnapshot {
        self.flight.get_or_init(|| {
            split_forensics::FlightSnapshot::from_recorder(
                &self.recorder,
                split_forensics::flight_capacity(),
            )
        })
    }

    /// Run the tail-latency forensics pipeline over this result: replay
    /// the SLO monitor, and build one incident bundle per fired
    /// burn-rate alert (outliers sampled, classified, and aggregated
    /// into a verdict).
    pub fn investigate(
        &self,
        cfg: &split_forensics::ForensicsCfg,
    ) -> split_forensics::Investigation {
        split_forensics::investigate(&self.recorder, self.flight(), Some(&self.trace), cfg)
    }

    /// FNV-1a fingerprint of the schedule: every completion's id and
    /// exact start/end bits, in completion order. Two runs produced the
    /// same schedule iff the digests match — the cheap equality the
    /// cluster determinism tests and SA601 compare across thread counts.
    pub fn schedule_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for c in &self.completions {
            eat(c.id);
            eat(c.start_us.to_bits());
            eat(c.end_us.to_bits());
        }
        h
    }

    /// Drift-watch view of this run: replay the lifecycle through a
    /// [`split_watch::DriftWatch`] (windowed sketches + change-point
    /// detectors) and return the finalized report. Like
    /// [`SimResult::flight`], the projection is computed on demand from
    /// the retained recorder, so simulation itself pays nothing for it.
    pub fn drift(&self, cfg: split_watch::WatchCfg) -> split_watch::DriftReport {
        let mut watch = split_watch::DriftWatch::new(cfg);
        for e in self.recorder.events() {
            watch.feed(e);
        }
        watch.finalize();
        watch.report()
    }
}

/// Number of utilization samples synthesized over a trace's span.
const UTILIZATION_BUCKETS: usize = 64;

/// Rebuild `result.recorder` as the full lifecycle recording: the
/// policy's own decision events plus the uniform events derived from
/// arrivals, the device trace, and completions. Every policy goes
/// through [`simulate`], so recordings from SPLIT and the baselines
/// validate and export identically. Public so harnesses that call a
/// policy function directly (e.g. the Figure 3 round-robin ablation)
/// can still produce a full recording.
pub fn attach_lifecycle(arrivals: &[Arrival], mut result: SimResult) -> SimResult {
    // Compute the derived pieces first so the merged vector can be
    // allocated exactly once, then fill it in the same source order as
    // always: arrivals, trace lifecycle, completions, queue depth,
    // utilization, policy recorder. The stable sort below is what
    // actually orders the recording, but the concatenation order is the
    // tie-break *input* order, so it must not change.
    let trace_events = result.trace.lifecycle_events();
    let utilization = {
        let span = result
            .trace
            .events()
            .iter()
            .map(|e| e.end_us)
            .fold(None::<f64>, |m, e| Some(m.map_or(e, |m| m.max(e))));
        match span {
            Some(span) => {
                let t0 = result
                    .trace
                    .events()
                    .iter()
                    .map(|e| e.start_us)
                    .fold(f64::INFINITY, f64::min);
                let bucket = ((span - t0) / UTILIZATION_BUCKETS as f64).max(1.0);
                result.trace.utilization_series(bucket)
            }
            None => Vec::new(),
        }
    };
    // Move the policy's decision events out instead of cloning each one.
    let policy_events = std::mem::take(&mut result.recorder).into_events();

    // In-system request count: +1 on arrival, -1 on completion
    // (completions first on ties so an instant never over-counts).
    let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(arrivals.len() + result.completions.len());
    deltas.extend(arrivals.iter().map(|a| (a.arrival_us, 1)));
    deltas.extend(result.completions.iter().map(|c| (c.end_us, -1)));
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut events: Vec<split_telemetry::Event> = Vec::with_capacity(
        arrivals.len()
            + trace_events.len()
            + result.completions.len()
            + deltas.len()
            + utilization.len()
            + policy_events.len(),
    );
    events.extend(arrivals.iter().map(|a| split_telemetry::Event::Arrival {
        req: a.id,
        model: a.model.clone(),
        t_us: a.arrival_us,
    }));
    events.extend(trace_events);
    events.extend(
        result
            .completions
            .iter()
            .map(|c| split_telemetry::Event::Completion {
                req: c.id,
                t_us: c.end_us,
            }),
    );
    let mut depth = 0i64;
    events.extend(deltas.into_iter().map(|(t_us, d)| {
        depth += d;
        split_telemetry::Event::QueueDepth {
            depth: depth.max(0) as usize,
            t_us,
        }
    }));
    events.extend(utilization);
    events.extend(policy_events);
    events.sort_by(|a, b| a.t_us().total_cmp(&b.t_us()).then(a.rank().cmp(&b.rank())));

    // Pin the recording decision now (scoped `with_flight` overrides
    // end with the caller): off pins the disabled snapshot; on leaves
    // the cell empty for `SimResult::flight` to project lazily.
    if !split_forensics::flight_enabled() {
        let _ = result
            .flight
            .set(split_forensics::FlightSnapshot::disabled());
    }

    result.recorder = split_telemetry::Recorder::from_events(events);
    result
}

/// Serve `arrivals` over `models` with the chosen policy.
pub fn simulate(policy: &Policy, arrivals: &[Arrival], models: &ModelTable) -> SimResult {
    let result = match policy {
        Policy::Split(cfg) => split(arrivals, models, cfg),
        Policy::ClockWork => clockwork(arrivals, models),
        Policy::Prema(cfg) => prema(arrivals, models, cfg),
        Policy::Rta(cfg) => rta(arrivals, models, cfg),
        Policy::StreamParallel(cfg) => stream_parallel(arrivals, models, cfg),
        Policy::Sjf => sjf(arrivals, models),
    };
    attach_lifecycle(arrivals, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelRuntime;

    fn table() -> ModelTable {
        let mut t = ModelTable::new();
        t.insert(ModelRuntime::vanilla("short", 0, 10_000.0));
        t.insert(ModelRuntime::split("long", 1, 60_000.0, vec![21_000.0; 3]));
        t
    }

    fn arrivals(n: u64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: i,
                model: (if i % 3 == 0 { "long" } else { "short" }).into(),
                arrival_us: i as f64 * 12_000.0,
            })
            .collect()
    }

    #[test]
    fn every_policy_serves_every_request() {
        let a = arrivals(40);
        let t = table();
        for p in Policy::all_default() {
            let r = simulate(&p, &a, &t);
            assert_eq!(r.completions.len(), 40, "{}", p.name());
            let mut ids: Vec<u64> = r.completions.iter().map(|c| c.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..40).collect::<Vec<_>>(), "{}", p.name());
        }
    }

    #[test]
    fn names_are_the_paper_names() {
        let names: Vec<&str> = Policy::all_default().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["SPLIT", "ClockWork", "PREMA", "RT-A"]);
    }

    #[test]
    fn outcomes_match_completions() {
        let a = arrivals(10);
        let r = simulate(&Policy::ClockWork, &a, &table());
        let o = r.outcomes();
        assert_eq!(o.len(), r.completions.len());
        for (c, o) in r.completions.iter().zip(&o) {
            assert_eq!(c.id, o.id);
            assert!((c.response_ratio() - o.response_ratio()).abs() < 1e-12);
        }
    }

    /// The headline qualitative claim of Figure 1: with a short request
    /// arriving behind a long one, SPLIT's short-request latency beats all
    /// three baselines.
    #[test]
    fn split_wins_the_figure1_scenario() {
        let t = table();
        let a = vec![
            Arrival {
                id: 0,
                model: "long".into(),
                arrival_us: 0.0,
            },
            Arrival {
                id: 1,
                model: "short".into(),
                arrival_us: 2_000.0,
            },
        ];
        let e2e = |p: &Policy| {
            simulate(p, &a, &t)
                .completions
                .iter()
                .find(|c| c.id == 1)
                .unwrap()
                .e2e_us()
        };
        let split = e2e(&Policy::Split(crate::policy::SplitCfg { elastic: None }));
        for p in [
            Policy::ClockWork,
            Policy::Prema(Default::default()),
            Policy::Rta(Default::default()),
        ] {
            assert!(
                split < e2e(&p),
                "SPLIT {} must beat {} {}",
                split,
                p.name(),
                e2e(&p)
            );
        }
    }
}
