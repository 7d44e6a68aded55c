//! Summary statistics shared by every workload: exact percentiles with the
//! "ten samples beyond" rule, QoS with failures counted as violations, and
//! the due-time arithmetic of the open-loop pacer.

/// The paper's QoS threshold (§5): a request violates when its response
/// ratio (e2e ÷ isolated execution) exceeds α.
pub const ALPHA: f64 = 4.0;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentile ladder the tail is chosen from.
const LADDER: [f64; 4] = [0.5, 0.99, 0.999, 0.9999];

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of the `q`-quantile of `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples support the `q`-quantile.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The highest ladder percentile `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| supported(n, q))
}

/// "n samples, p99.9 has k beyond, highest supported p…" for a report.
pub fn sample_note(n: usize) -> String {
    format!(
        "rr sample count {n}, p99.9 has {} beyond, highest supported percentile {}",
        beyond(n, 0.999),
        highest_supported(n).map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    )
}

/// Nearest-rank quantile of already sorted samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of unsorted samples (nearest rank, so it is always a sample).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Smallest value (infinite for no values; NaN values are skipped).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean (NaN for no values).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Response-ratio QoS over the requests a workload attempted.
#[derive(Debug, Clone, PartialEq)]
pub struct Qos {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests failed, dropped or refused.
    pub failed: usize,
    /// Violations (completed with ratio > α, plus every failure) ÷ attempted.
    pub viol_rate: f64,
    /// Median response ratio; a failure ranks above every completion.
    pub rr_p50: f64,
    /// p99.9 response ratio, `None` when fewer than ten samples lie beyond.
    pub rr_p999: Option<f64>,
}

impl Qos {
    /// Summarize the completed requests' response ratios plus `failed`
    /// requests that never completed. A failure counts as an infinite
    /// ratio: it violates, and it ranks above every completion.
    /// The ratios are sorted in place, not copied.
    pub fn new(mut rr: Vec<f64>, failed: usize) -> Self {
        let completed = rr.len();
        rr.extend(std::iter::repeat_n(f64::INFINITY, failed));
        rr.sort_by(f64::total_cmp);
        let attempted = rr.len();
        let violating = rr.iter().filter(|&&r| r > ALPHA).count();
        Qos {
            attempted,
            completed,
            failed,
            viol_rate: if attempted == 0 {
                0.0
            } else {
                violating as f64 / attempted as f64
            },
            rr_p50: if attempted == 0 {
                f64::NAN
            } else {
                quantile_sorted(&rr, 0.5)
            },
            rr_p999: supported(attempted, 0.999).then(|| quantile_sorted(&rr, 0.999)),
        }
    }

    /// Failed share of attempted requests.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// End-to-end latency of an open-loop request, timed from when it was due
/// to be sent, not from when the server stamped it: a stalled sender
/// delays every later request, and that delay is the user's.
pub fn due_e2e_us(due_us: f64, end_us: f64) -> f64 {
    end_us - due_us
}

/// Response ratio of a request served `end_us` after it was due.
pub fn due_ratio(due_us: f64, end_us: f64, exec_us: f64) -> f64 {
    due_e2e_us(due_us, end_us) / exec_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 10,000 samples: p99.9 leaves exactly 10 beyond, p99.99 only 1.
        assert_eq!(beyond(10_000, 0.999), 10);
        assert!(supported(10_000, 0.999));
        assert!(!supported(10_000, 0.9999));
        assert_eq!(highest_supported(10_000), Some(0.999));
        // One sample short, p99.9 has only 9 beyond.
        assert!(!supported(9_999, 0.999));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
    }

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500.0);
        assert_eq!(quantile_sorted(&v, 0.99), 990.0);
        assert_eq!(quantile_sorted(&v, 0.999), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_count_as_violations() {
        // Four completions, one violating; two failures.
        let q = Qos::new(vec![1.0, 2.0, 3.0, 5.0], 2);
        assert_eq!(q.attempted, 6);
        assert_eq!(q.completed, 4);
        assert_eq!(q.failed, 2);
        assert_eq!(q.viol_rate, 3.0 / 6.0);
        assert_eq!(q.fail_share(), 2.0 / 6.0);
        // Failures rank above every completion.
        assert_eq!(q.rr_p50, 3.0);
        assert_eq!(Qos::new(vec![1.0], 3).rr_p50, f64::INFINITY);
        // A ratio of exactly α is not a violation.
        assert_eq!(Qos::new(vec![ALPHA, ALPHA], 0).viol_rate, 0.0);
    }

    #[test]
    fn tail_ratio_only_when_supported() {
        let ok: Vec<f64> = (0..10_000).map(|i| 1.0 + i as f64 * 1e-3).collect();
        assert_eq!(Qos::new(ok.clone(), 0).rr_p999, Some(ok[9_989]));
        assert_eq!(Qos::new(ok[..9_999].to_vec(), 0).rr_p999, None);
        // A failed tail shows up as an infinite p99.9.
        assert_eq!(
            Qos::new(ok[..9_980].to_vec(), 20).rr_p999,
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn e2e_is_timed_from_the_due_time() {
        // Due at 1,000 µs, stamped late by the server at 1,300 µs, done at
        // 5,000 µs: the user waited 4,000 µs, not 3,700.
        assert_eq!(due_e2e_us(1_000.0, 5_000.0), 4_000.0);
        assert_eq!(due_ratio(1_000.0, 5_000.0, 1_000.0), 4.0);
        assert!(due_ratio(1_000.0, 5_001.0, 1_000.0) > ALPHA);
    }
}
