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
    /// wait histograms, …) from the lifecycle recording, in one pass over
    /// it: see [`split_telemetry::registry_from_events`] for the exact
    /// per-request definition. Every fleet shard calls this once, so its
    /// cost is per request on the fleet path.
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
        completions_digest(&self.completions)
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

/// FNV-1a over the little-endian bytes of `words`: the one fold behind
/// [`SimResult::schedule_digest`] and the fleet's shard and cluster
/// digests.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325, |mut h, w| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    })
}

/// [`fnv1a`] over every completion's id and exact start/end bits, in
/// the given order.
pub fn completions_digest(completions: &[Completion]) -> u64 {
    fnv1a(
        completions
            .iter()
            .flat_map(|c| [c.id, c.start_us.to_bits(), c.end_us.to_bits()]),
    )
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
///
/// The recording is ordered by `(t_us, rank)`, ties kept in source
/// order: arrivals, block spans, transfers, completions, queue depth,
/// utilization, policy events. Each source is already a time-ordered
/// run (a run that is not is stably sorted on its own), so one k-way
/// merge yields exactly what a stable sort of their concatenation
/// would — without building that concatenation or sorting it.
pub fn attach_lifecycle(arrivals: &[Arrival], mut result: SimResult) -> SimResult {
    use split_telemetry::Event;
    let trace = &result.trace;
    let completions = &result.completions;

    let arrival_run = run(
        arrivals.iter().map(|a| Event::Arrival {
            req: a.id,
            model: a.model.clone(),
            t_us: a.arrival_us,
        }),
        ordered(arrivals.iter().map(|a| (a.arrival_us, 0))),
    );
    let block_run = run(
        trace.block_events(),
        ordered(trace.block_events().map(|e| (e.t_us(), e.rank()))),
    );
    let transfer_run = run(
        trace.transfer_events(),
        ordered(trace.transfers().iter().map(|t| (t.start_us, 0))),
    );
    let completion_run = run(
        completions.iter().map(|c| Event::Completion {
            req: c.id,
            t_us: c.end_us,
        }),
        ordered(completions.iter().map(|c| (c.end_us, 0))),
    );

    // In-system request count: +1 on arrival, -1 on completion
    // (completions first on ties so an instant never over-counts).
    let ups = arrivals.iter().map(|a| (a.arrival_us, 1i64));
    let downs = completions.iter().map(|c| (c.end_us, -1i64));
    let deltas: Box<dyn Iterator<Item = (f64, i64)> + '_> =
        if ordered(ups.clone().map(|u| (u.0, 0))) && ordered(downs.clone().map(|d| (d.0, 0))) {
            let (mut ups, mut downs) = (ups.peekable(), downs.peekable());
            Box::new(std::iter::from_fn(move || {
                match (downs.peek(), ups.peek()) {
                    (Some(d), Some(u)) if u.0.total_cmp(&d.0).is_lt() => ups.next(),
                    (Some(_), _) => downs.next(),
                    (None, _) => ups.next(),
                }
            }))
        } else {
            let mut all: Vec<(f64, i64)> = ups.chain(downs).collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            Box::new(all.into_iter())
        };
    let mut depth = 0i64;
    let queue_depth = deltas.map(move |(t_us, d)| {
        depth += d;
        Event::QueueDepth {
            depth: depth.max(0) as usize,
            t_us,
        }
    });

    let utilization = match trace.events().iter().map(|e| e.end_us).reduce(f64::max) {
        Some(span) => {
            let t0 = trace
                .events()
                .iter()
                .map(|e| e.start_us)
                .fold(f64::INFINITY, f64::min);
            let bucket = ((span - t0) / UTILIZATION_BUCKETS as f64).max(1.0);
            trace.utilization_series(bucket)
        }
        None => Vec::new(),
    };

    // Move the policy's decision events out instead of cloning each one.
    let policy = std::mem::take(&mut result.recorder).into_events();
    let policy_len = policy.len();
    let policy_ordered = ordered(policy.iter().map(|e| (e.t_us(), e.rank())));
    let policy_run = run(policy.into_iter(), policy_ordered);

    let len = arrivals.len() * 2
        + trace.events().len() * 2
        + trace.transfers().len()
        + completions.len() * 2
        + utilization.len()
        + policy_len;
    let events = merge(
        vec![
            arrival_run,
            block_run,
            transfer_run,
            completion_run,
            Box::new(queue_depth),
            Box::new(utilization.into_iter()),
            policy_run,
        ],
        len,
    );

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

/// One time-ordered source of lifecycle events.
type Run<'a> = Box<dyn Iterator<Item = split_telemetry::Event> + 'a>;

/// Whether `(t_us, rank)` keys are already in recording order.
fn ordered(keys: impl Iterator<Item = (f64, u8)>) -> bool {
    keys.is_sorted_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_le())
}

/// `events` as a merge run: as they come when `ordered`, else stably
/// sorted by `(t_us, rank)` on their own.
fn run<'a>(events: impl Iterator<Item = split_telemetry::Event> + 'a, ordered: bool) -> Run<'a> {
    if ordered {
        return Box::new(events);
    }
    let mut events: Vec<_> = events.collect();
    events.sort_by(|a, b| a.t_us().total_cmp(&b.t_us()).then(a.rank().cmp(&b.rank())));
    Box::new(events.into_iter())
}

/// Merge runs, each ordered by `(t_us, rank)`, into one recording of
/// capacity `len`. The smallest head wins and equal keys go to the
/// earlier run, which is what a stable sort of the runs' concatenation
/// produces.
fn merge(runs: Vec<Run<'_>>, len: usize) -> Vec<split_telemetry::Event> {
    let mut out = Vec::with_capacity(len);
    // Each live run's head event and its key, in run order; a run leaves
    // the list (keeping the others' order) when it runs dry.
    let mut heads: Vec<(split_telemetry::Event, Run<'_>)> = runs
        .into_iter()
        .filter_map(|mut run| run.next().map(|e| (e, run)))
        .collect();
    let mut keys: Vec<(f64, u8)> = heads.iter().map(|(e, _)| (e.t_us(), e.rank())).collect();
    while !heads.is_empty() {
        let mut i = 0;
        for (j, k) in keys.iter().enumerate().skip(1) {
            if k.0.total_cmp(&keys[i].0).then(k.1.cmp(&keys[i].1)).is_lt() {
                i = j;
            }
        }
        match heads[i].1.next() {
            Some(e) => {
                keys[i] = (e.t_us(), e.rank());
                out.push(std::mem::replace(&mut heads[i].0, e));
            }
            None => {
                keys.remove(i);
                out.push(heads.remove(i).0);
            }
        }
    }
    out
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
