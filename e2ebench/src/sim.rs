//! Shared handling of one `sched` simulation: its QoS, the counts its
//! lifecycle recording carries, and the traced form of `sched::simulate`.

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{self, Qos};
use sched::policy::SplitCfg;
use sched::{ModelTable, Policy, SimResult};
use split_telemetry::Event;
use workload::Arrival;

/// SPLIT with the paper's defaults (α = 4, elastic splitting on).
pub fn split_policy() -> Policy {
    Policy::Split(SplitCfg::default())
}

/// Check that every completion is a distinct one of the `attempted`
/// arrivals, so completed + failed == attempted with the rest failed.
pub fn check_conservation(out: &mut Outcome, r: &SimResult, attempted: usize, what: &str) {
    let mut ids: Vec<u64> = r.completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    out.check(
        ids.len() == r.completions.len() && ids.last().is_none_or(|&id| id < attempted as u64),
        || {
            format!(
                "{what}: {} completions of {attempted} arrivals are not distinct arrivals",
                r.completions.len()
            )
        },
    );
}

/// QoS of a simulation over `attempted` arrivals; arrivals without a
/// completion count as failed.
pub fn qos(r: &SimResult, attempted: usize) -> Qos {
    let ratios: Vec<f64> = r.completions.iter().map(|c| c.response_ratio()).collect();
    let failed = attempted.saturating_sub(ratios.len());
    Qos::new(ratios, failed)
}

/// Bit pattern of a QoS summary, for exact run-to-run comparison.
pub fn qos_bits(q: &Qos) -> [u64; 4] {
    [
        q.viol_rate.to_bits(),
        q.rr_p50.to_bits(),
        q.rr_p999.map_or(u64::MAX, f64::to_bits),
        (q.completed as u64) << 32 | q.failed as u64,
    ]
}

/// Counts the lifecycle recording carries about the scheduler's work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Preemption decisions.
    pub decisions: u64,
    /// Queue entries examined over all decisions.
    pub comparisons: u64,
    /// Deepest in-system queue.
    pub queue_peak: u64,
    /// Events in the recording.
    pub events: u64,
    /// Elastic downgrades to vanilla execution.
    pub downgrades: u64,
}

impl Counts {
    /// Read the counts off a simulation's recording.
    pub fn of(r: &SimResult) -> Self {
        let mut c = Counts {
            events: r.recorder.len() as u64,
            ..Counts::default()
        };
        for e in r.recorder.events() {
            match e {
                Event::PreemptDecision { comparisons, .. } => {
                    c.decisions += 1;
                    c.comparisons += *comparisons as u64;
                }
                Event::QueueDepth { depth, .. } => c.queue_peak = c.queue_peak.max(*depth as u64),
                Event::Downgrade { .. } => c.downgrades += 1,
                _ => {}
            }
        }
        c
    }

    /// Sum two lanes' counts (the peak takes the max).
    pub fn add(self, o: Counts) -> Counts {
        Counts {
            decisions: self.decisions + o.decisions,
            comparisons: self.comparisons + o.comparisons,
            queue_peak: self.queue_peak.max(o.queue_peak),
            events: self.events + o.events,
            downgrades: self.downgrades + o.downgrades,
        }
    }

    /// Write the count metrics for `requests` served requests.
    pub fn report(
        &self,
        requests: usize,
        layers: &mut std::collections::BTreeMap<&'static str, f64>,
    ) {
        let n = requests.max(1) as f64;
        layers.insert(
            "split-core.preempt.cmp_per_decision",
            self.comparisons as f64 / self.decisions.max(1) as f64,
        );
        layers.insert("split-core.preempt.queue_peak", self.queue_peak as f64);
        layers.insert("split-telemetry.events_per_req", self.events as f64 / n);
        layers.insert(
            "split-core.elastic.downgrade_share",
            self.downgrades as f64 / n,
        );
    }
}

/// Wall time of each admission decision the simulator applied, µs (the
/// simulator has no publish step, so publish-to-applied is the decision).
pub fn admit_us(r: &SimResult) -> Vec<f64> {
    let mut v: Vec<f64> = r
        .recorder
        .events()
        .filter_map(|e| match e {
            Event::PreemptDecision { publish_ns, .. } => Some(*publish_ns as f64 / 1e3),
            _ => None,
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// p50 and p99 of sorted admission samples.
pub fn admit_p50_p99(sorted: &[f64]) -> (f64, f64) {
    (
        stats::quantile_sorted(sorted, 0.5),
        stats::quantile_sorted(sorted, 0.99),
    )
}

/// `sched::simulate` for SPLIT, taken apart into its two layer calls —
/// the policy, then the shared lifecycle recording — each in its span.
pub fn traced_simulate(t: &mut Tracer, arrivals: &[Arrival], table: &ModelTable) -> SimResult {
    let raw = t.span("sched.policy.split", |_| {
        sched::policy::split(arrivals, table, &SplitCfg::default())
    });
    t.span("sched.attach_lifecycle", |_| {
        sched::attach_lifecycle(arrivals, raw)
    })
}

/// The two observers the serving stack feeds from a recording, each in its
/// span: the metrics registry and the drift watch.
pub fn traced_observers(t: &mut Tracer, r: &SimResult) {
    t.span("split-telemetry.metrics", |_| drop(r.metrics()));
    t.span("split-watch.drift", |_| {
        drop(r.drift(split_watch::WatchCfg::default()))
    });
}

/// Per-layer metrics of a traced single-device simulation: the policy and
/// lifecycle layers that make up `sched::simulate`, the observers, and how
/// much of the untraced `host_ns` the layers account for.
pub fn sim_layers(out: &mut Outcome, t: &Tracer, n: usize, host_ns: f64) {
    let per_req = |name: &str| crate::run::median_span_ns(t, name) / n as f64;
    let policy = per_req("sched.policy.split");
    let lifecycle = per_req("sched.attach_lifecycle");
    let traced = per_req("sched.simulate");
    out.layers.insert("sched.policy_ns_per_req", policy);
    out.layers.insert("sched.lifecycle_ns_per_req", lifecycle);
    out.layers.insert(
        "split-telemetry.registry_ns_per_req",
        per_req("split-telemetry.metrics"),
    );
    out.layers
        .insert("split-watch.drift_ns_per_req", per_req("split-watch.drift"));
    out.layers
        .insert("trace.layers_ns_per_req", policy + lifecycle);
    out.layers.insert(
        "trace.unattributed_share",
        1.0 - (policy + lifecycle) / host_ns,
    );
    out.layers
        .insert("trace.overhead_share", traced / host_ns - 1.0);
}
