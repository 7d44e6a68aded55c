//! Latency violation rate versus the latency-target multiplier α.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of one served request, as the metrics see it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Model name, shared with the deployment's interned name.
    pub model: Arc<str>,
    /// Isolated (uninterrupted) execution time `Ext`, µs — the basis of
    /// the latency target (§2.1).
    pub exec_us: f64,
    /// End-to-end latency (arrival → completion), µs.
    pub e2e_us: f64,
}

impl RequestOutcome {
    /// Response ratio (Eq. 3): end-to-end latency over isolated execution.
    #[inline]
    pub fn response_ratio(&self) -> f64 {
        self.e2e_us / self.exec_us
    }

    /// Whether the request violates the target `α · exec`.
    #[inline]
    pub fn violates(&self, alpha: f64) -> bool {
        self.response_ratio() > alpha
    }
}

/// Fraction of requests violating the latency target at multiplier
/// `alpha`. Empty input yields 0.
pub fn violation_rate(outcomes: &[RequestOutcome], alpha: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let v = outcomes.iter().filter(|o| o.violates(alpha)).count();
    v as f64 / outcomes.len() as f64
}

/// Figure 6 series: `(α, violation rate)` for α swept over
/// `alpha_from..=alpha_to` in unit steps (the paper sweeps 2..=20).
///
/// ```
/// use qos_metrics::{violation_curve, RequestOutcome};
///
/// let outcomes = vec![
///     RequestOutcome { id: 0, model: "m".into(), exec_us: 10.0, e2e_us: 30.0 },
///     RequestOutcome { id: 1, model: "m".into(), exec_us: 10.0, e2e_us: 80.0 },
/// ];
/// let curve = violation_curve(&outcomes, 2, 4);
/// assert_eq!(curve, vec![(2.0, 1.0), (3.0, 0.5), (4.0, 0.5)]);
/// ```
pub fn violation_curve(
    outcomes: &[RequestOutcome],
    alpha_from: u32,
    alpha_to: u32,
) -> Vec<(f64, f64)> {
    (alpha_from..=alpha_to)
        .map(|a| (a as f64, violation_rate(outcomes, a as f64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(exec: f64, e2e: f64) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            model: "m".into(),
            exec_us: exec,
            e2e_us: e2e,
        }
    }

    #[test]
    fn response_ratio_and_violation() {
        let o = outcome(10_000.0, 35_000.0); // RR = 3.5
        assert!((o.response_ratio() - 3.5).abs() < 1e-12);
        assert!(o.violates(3.0));
        assert!(!o.violates(4.0));
        assert!(!o.violates(3.5), "boundary is non-violating (strict >)");
    }

    #[test]
    fn rate_counts_fraction() {
        let os = vec![
            outcome(10.0, 15.0), // RR 1.5
            outcome(10.0, 45.0), // RR 4.5
            outcome(10.0, 95.0), // RR 9.5
            outcome(10.0, 11.0), // RR 1.1
        ];
        assert!((violation_rate(&os, 4.0) - 0.5).abs() < 1e-12);
        assert!((violation_rate(&os, 2.0) - 0.5).abs() < 1e-12);
        assert!((violation_rate(&os, 10.0) - 0.0).abs() < 1e-12);
        assert_eq!(violation_rate(&[], 4.0), 0.0);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let os: Vec<RequestOutcome> = (1..50).map(|i| outcome(10.0, 10.0 * i as f64)).collect();
        let curve = violation_curve(&os, 2, 20);
        assert_eq!(curve.len(), 19);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert_eq!(curve[0].0, 2.0);
        assert_eq!(curve.last().unwrap().0, 20.0);
    }
}
