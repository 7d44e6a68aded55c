//! Jitter: per-model standard deviation of execution latency (Figure 7).

use crate::violation::RequestOutcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Jitter statistics for one model under one policy/scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JitterRow {
    /// Model name.
    pub model: String,
    /// Requests observed.
    pub count: usize,
    /// Mean end-to-end latency, µs.
    pub mean_us: f64,
    /// Standard deviation of end-to-end latency, µs — the Figure 7 bar.
    pub std_us: f64,
}

/// Per-model latency dispersion, sorted by model name for stable output.
pub fn per_model_std(outcomes: &[RequestOutcome]) -> Vec<JitterRow> {
    let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in outcomes {
        groups.entry(&*o.model).or_default().push(o.e2e_us);
    }
    groups
        .into_iter()
        .map(|(model, xs)| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            JitterRow {
                model: model.to_string(),
                count: xs.len(),
                mean_us: mean,
                std_us: var.sqrt(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(model: &str, e2e: f64) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            model: model.into(),
            exec_us: 1.0,
            e2e_us: e2e,
        }
    }

    #[test]
    fn groups_by_model() {
        let os = vec![
            outcome("a", 10.0),
            outcome("b", 100.0),
            outcome("a", 14.0),
            outcome("b", 100.0),
        ];
        let rows = per_model_std(&os);
        assert_eq!(rows.len(), 2);
        let a = &rows[0];
        assert_eq!(a.model, "a");
        assert_eq!(a.count, 2);
        assert!((a.mean_us - 12.0).abs() < 1e-12);
        assert!((a.std_us - 2.0).abs() < 1e-12);
        let b = &rows[1];
        assert_eq!(b.std_us, 0.0, "identical latencies → zero jitter");
    }

    #[test]
    fn empty_input() {
        assert!(per_model_std(&[]).is_empty());
    }

    #[test]
    fn stable_order() {
        let os = vec![outcome("z", 1.0), outcome("a", 1.0), outcome("m", 1.0)];
        let rows = per_model_std(&os);
        let names: Vec<&str> = rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
