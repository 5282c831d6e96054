//! Order statistics over the benchmark's own raw samples.
//!
//! Percentiles here are nearest-rank over every sample taken — never the
//! 19 %-wide log buckets of `figret_telemetry::Histogram` — so a p99 moves
//! when one tick moves.

/// Nearest-rank percentile of unsorted samples: the smallest sample with at
/// least `q` of the samples at or below it.  `None` when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean; `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here agrees with
/// the one the benchmark driver computes.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    Some((at(1), at(3)))
}

/// A span's self time: its duration minus the part its child spans cover.
/// Children are disjoint sub-intervals of the parent, so the part they cover
/// is the sum of their durations; timer jitter can push that sum a hair past
/// the parent, hence the clamp at zero.
pub fn self_time(span_seconds: f64, child_seconds: &[f64]) -> f64 {
    (span_seconds - child_seconds.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_telemetry::Histogram;

    #[test]
    fn nearest_rank_matches_a_hand_computed_vector() {
        // Sorted: 1 2 3 4 5 6 7 8 9 10.
        let v = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
        assert_eq!(percentile(&v, 0.5), Some(5.0)); // rank ceil(5.0) = 5
        assert_eq!(percentile(&v, 0.51), Some(6.0)); // rank ceil(5.1) = 6
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.99), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn nearest_rank_differs_from_the_log_bucket_histogram() {
        // 1.03 µs and 1.20 µs share the bucket [1024 ns, 1218 ns); the
        // histogram answers with the bucket's upper bound clamped to the
        // maximum, the raw samples answer with the sample itself.
        let v = [1.03e-6, 1.20e-6, 1.20e-6];
        let exact = percentile(&v, 0.3).unwrap();
        let bucketed = Histogram::from_samples(&v).quantile(0.3);
        assert_eq!(exact, 1.03e-6);
        assert!(bucketed > exact, "histogram {bucketed} vs exact {exact}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        assert_eq!(self_time(10.0, &[3.0, 2.5]), 4.5);
        assert_eq!(self_time(10.0, &[]), 10.0);
        assert_eq!(self_time(1.0, &[0.7, 0.4]), 0.0);
    }
}
