//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue, so one JSON shape
//! serves all of them. A per-layer metric of a layer the workload does not
//! run reads 0.

use crate::stats::Qos;
use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Printed and gated in untraced runs.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_ns_per_req", "ns"),
    ("peak_rss_mb", "MiB"),
    ("viol_rate", "ratio"),
    ("rr_p50", "ratio"),
    ("rr_p999", "ratio"),
    ("served_share", "ratio"),
];

/// Per-layer metrics: (name, unit). Reported by traced runs.
pub const LAYERS: [(&str, &str); 35] = [
    ("model-zoo.build_ms", "ms"),
    ("split-core.plan_ms", "ms"),
    ("split-runtime.deploy_ms", "ms"),
    ("sched.policy_ns_per_req", "ns"),
    ("sched.lifecycle_ns_per_req", "ns"),
    ("split-core.preempt.cmp_per_decision", "count"),
    ("split-core.preempt.queue_peak", "count"),
    ("split-telemetry.events_per_req", "count"),
    ("split-core.elastic.downgrade_share", "ratio"),
    ("split-telemetry.registry_ns_per_req", "ns"),
    ("split-watch.drift_ns_per_req", "ns"),
    ("split-cluster.route_ns_per_req", "ns"),
    ("split-cluster.lane_ms_max", "ms"),
    ("split-cluster.lane_ms_sum", "ms"),
    ("split-cluster.route_imbalance", "ratio"),
    ("split-cluster.merge_ms", "ms"),
    ("rayon.speedup", "ratio"),
    ("rayon.efficiency", "ratio"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("split-runtime.decision_p50_us", "us"),
    ("split-runtime.decision_p99_us", "us"),
    ("split-runtime.clock_spin_share", "ratio"),
    ("split-runtime.recorder_events_per_req", "count"),
    ("split-runtime.shutdown_ms", "ms"),
    ("split-runtime.live_viol_rate", "ratio"),
    ("split-runtime.live_rr_p50", "ratio"),
    ("split-runtime.ideal_viol_rate", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("gen.late_share", "ratio"),
    ("trace.layers_ns_per_req", "ns"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("machine.par2_ratio", "ratio"),
    ("machine.unit_ms", "ms"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted (summed over every iteration that served them).
    pub attempted: u64,
    /// Requests failed, dropped or refused.
    pub failed: u64,
    /// End-to-end values by catalogue name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by catalogue name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed output checks; empty when every check passed.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record the QoS end-to-end metrics; too few samples for p99.9 is a
    /// failed check.
    pub fn insert_qos(&mut self, q: &Qos) {
        self.e2e.insert("viol_rate", q.viol_rate);
        self.e2e.insert("rr_p50", q.rr_p50);
        match q.rr_p999 {
            Some(v) => {
                self.e2e.insert("rr_p999", v);
            }
            None => self.errors.push(format!(
                "rr_p999 needs ten samples beyond it; {} requests are too few",
                q.attempted
            )),
        }
        self.e2e.insert("served_share", 1.0 - q.fail_share());
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Print `metrics` as one `name value unit` line each.
pub fn print_lines(title: &str, catalogue: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for (name, unit) in catalogue {
        match values.get(name) {
            Some(v) => println!("  {name:40} {v:>16.6} {unit}"),
            None => println!("  {name:40} {:>16} {unit}", "not run"),
        }
    }
}

/// The result line: the catalogue's metrics for this mode, the request
/// counts, and whether every check passed. Missing per-layer values read
/// 0; a missing or non-finite end-to-end value is itself a failed check.
pub fn result_line(out: &Outcome, traced: bool) -> (String, bool) {
    let mut errors = out.errors.clone();
    let (catalogue, values): (&[(&str, &str)], _) = if traced {
        (&LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                errors.push(format!("{name} is not finite ({v})"));
                0.0
            }
            None if traced => 0.0,
            None => {
                errors.push(format!("{name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = errors.is_empty() && out.attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), E2E.len() + LAYERS.len());
    }

    #[test]
    fn result_line_fails_on_missing_or_non_finite_e2e() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in E2E {
            out.e2e.insert(name, 1.5);
        }
        let (line, ok) = result_line(&out, false);
        assert!(ok, "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Layers default to 0 in the traced line.
        let (line, ok) = result_line(&out, true);
        assert!(ok);
        assert!(line.contains("\"rayon.speedup\": {\"value\": 0, \"unit\": \"ratio\"}"));
        out.e2e.insert("rr_p999", f64::INFINITY);
        assert!(!result_line(&out, false).1);
        out.e2e.remove("rr_p999");
        assert!(!result_line(&out, false).1);
    }

    #[test]
    fn a_failed_check_fails_the_line() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.check(true, || unreachable!());
        out.check(false, || "broken".into());
        assert_eq!(out.errors, vec!["broken".to_string()]);
        assert!(!result_line(&out, true).1);
    }
}
