//! The two-pass `registry_from_events` that the one-pass version
//! replaced, kept verbatim as the reference it must equal: counters,
//! the decision histograms and the depth gauge from the event log, then
//! the e2e and wait histograms from [`Recorder::summary`].

use split_telemetry::{Event, Recorder, Registry};

pub fn reference_registry(rec: &Recorder) -> Registry {
    let reg = Registry::new();
    let arrived = reg.counter("requests.arrived");
    let completed = reg.counter("requests.completed");
    let jumps = reg.counter("preempt.jumps");
    let downgrades = reg.counter("elastic.downgrades");
    let decision_ns = reg.histogram("sched.preempt.decision_ns");
    let comparisons = reg.histogram("sched.preempt.comparisons");
    let depth_peak = reg.gauge("queue.depth.peak");

    for e in rec.events() {
        match e {
            Event::Arrival { .. } => arrived.inc(),
            Event::Completion { .. } => completed.inc(),
            Event::Enqueue { displaced, .. } if *displaced > 0 => jumps.inc(),
            Event::Downgrade { .. } => downgrades.inc(),
            Event::PreemptDecision {
                decision_ns: ns,
                comparisons: cmp,
                ..
            } => {
                decision_ns.record(*ns);
                comparisons.record(*cmp as u64);
            }
            Event::QueueDepth { depth, .. } if *depth as i64 > depth_peak.get() => {
                depth_peak.set(*depth as i64);
            }
            _ => {}
        }
    }

    let e2e = reg.histogram("request.e2e_us");
    let wait = reg.histogram("request.wait_us");
    for r in rec.summary().requests {
        if r.e2e_us().is_finite() && r.e2e_us() >= 0.0 {
            e2e.record(r.e2e_us().round() as u64);
        }
        if r.wait_us().is_finite() && r.wait_us() >= 0.0 {
            wait.record(r.wait_us().round() as u64);
        }
    }
    reg
}

/// A snapshot rendered with every float's exact bits, so equality is
/// bit-identity (`-0.0` and `0.0` differ).
pub fn snapshot_bits(reg: &Registry) -> Vec<String> {
    reg.snapshot()
        .entries
        .iter()
        .map(|e| format!("{e:?} mean_bits={:#x}", e.mean.to_bits()))
        .collect()
}
