//! Traffic statistics used throughout the paper's analysis.
//!
//! * per-pair variance (Figure 2, and the σ² weights of the FIGRET loss),
//! * windowed cosine-similarity analysis (Figure 4 and Figure 18),
//! * percentile summaries for candlestick plots,
//! * Spearman rank correlation (Table 5's train/test variance-ranking check).

use crate::matrix::TrafficTrace;
use crate::ops;

/// Per-SD-pair variance of the demands over the whole trace, in the
/// `flatten_pairs` ordering.
pub fn per_pair_variance(trace: &TrafficTrace) -> Vec<f64> {
    per_pair_variance_range(trace, 0..trace.len())
}

/// Per-SD-pair variance over a sub-range of snapshots (e.g. the training split,
/// which is what the FIGRET loss uses: `σ²_{D_sd, [1-T]}`).
///
/// Folds the dense `n × n` stores through the shared kernel and drops the
/// (all-zero) diagonal slots, leaving the `flatten_pairs` ordering.
pub fn per_pair_variance_range(trace: &TrafficTrace, range: std::ops::Range<usize>) -> Vec<f64> {
    let n = trace.num_nodes();
    let stores = trace.matrices()[range].iter().map(|m| m.as_slice());
    let (_, var) = ops::mean_variance(n * n, stores);
    var.into_iter().enumerate().filter(|(i, _)| i / n != i % n).map(|(_, v)| v).collect()
}

/// Per-SD-pair standard deviation over a sub-range of snapshots.
pub fn per_pair_std_range(trace: &TrafficTrace, range: std::ops::Range<usize>) -> Vec<f64> {
    per_pair_variance_range(trace, range).into_iter().map(f64::sqrt).collect()
}

/// Summary statistics of a sample (used for the candlestick plots of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionSummary {
    /// Minimum value.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum value.
    pub max: f64,
    /// Mean value.
    pub mean: f64,
    /// Number of samples.
    pub count: usize,
}

impl DistributionSummary {
    /// Computes the summary of a sample.  Returns an all-zero summary for an
    /// empty sample.
    pub fn from_samples(samples: &[f64]) -> DistributionSummary {
        if samples.is_empty() {
            return DistributionSummary {
                min: 0.0,
                p25: 0.0,
                median: 0.0,
                p75: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
                mean: 0.0,
                count: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        DistributionSummary {
            min: sorted[0],
            p25: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            p75: percentile(&sorted, 0.75),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
            mean,
            count: sorted.len(),
        }
    }
}

/// Percentile of a **sorted** sample with linear interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Windowed cosine-similarity analysis (Figure 4): for every snapshot `t >= window`,
/// compute the **maximum** cosine similarity between `D_t` and each of the
/// `window` preceding matrices ("find the TMs that most closely resemble this
/// currently-seen TM"), and summarize the distribution of those maxima.
pub fn cosine_similarity_analysis(trace: &TrafficTrace, window: usize) -> DistributionSummary {
    DistributionSummary::from_samples(&cosine_similarity_samples(trace, window))
}

/// The raw per-snapshot maximum cosine similarities used by
/// [`cosine_similarity_analysis`].
pub fn cosine_similarity_samples(trace: &TrafficTrace, window: usize) -> Vec<f64> {
    let mut samples = Vec::new();
    if trace.len() <= window || window == 0 {
        return samples;
    }
    for t in window..trace.len() {
        let current = trace.matrix(t);
        let best = (t - window..t)
            .map(|h| current.cosine_similarity(trace.matrix(h)))
            .fold(f64::NEG_INFINITY, f64::max);
        samples.push(best);
    }
    samples
}

/// Spearman rank correlation coefficient between two samples of equal length.
///
/// Used in §5.4 to check how consistent the per-pair variance ranking is
/// between the training and test portions of a trace.
pub fn spearman_rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "samples must have equal length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    // Pearson correlation of the ranks (handles ties via average ranks).
    let mean_a = ra.iter().sum::<f64>() / n as f64;
    let mean_b = rb.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for i in 0..n {
        let da = ra[i] - mean_a;
        let db = rb[i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

/// Average ranks (1-based) with ties receiving the mean of their positions.
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("values must not contain NaN"));
    let mut out = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = avg_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{DemandMatrix, TrafficTrace};

    fn small_trace() -> TrafficTrace {
        let m = |a: f64, b: f64| DemandMatrix::from_pairs(2, &[a, b]).unwrap();
        TrafficTrace::new("t", 1.0, vec![m(1.0, 10.0), m(1.0, 20.0), m(1.0, 30.0), m(1.0, 40.0)])
    }

    #[test]
    fn variance_identifies_the_bursty_pair() {
        let t = small_trace();
        let var = per_pair_variance(&t);
        assert_eq!(var.len(), 2);
        assert!(var[0] < 1e-12, "pair 0 is constant");
        assert!(var[1] > 100.0, "pair 1 varies a lot");
        let std = per_pair_std_range(&t, 0..t.len());
        assert!((std[1] - var[1].sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_range_respects_bounds() {
        let t = small_trace();
        let var01 = per_pair_variance_range(&t, 0..2);
        assert!((var01[1] - 25.0).abs() < 1e-9); // values 10, 20 -> var 25
        let empty = per_pair_variance_range(&t, 0..0);
        assert!(empty.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert!((percentile(&sorted, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn summary_of_empty_is_zero() {
        let s = DistributionSummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn cosine_analysis_high_for_constant_traffic() {
        let m = DemandMatrix::from_pairs(2, &[3.0, 4.0]).unwrap();
        let t = TrafficTrace::new("const", 1.0, vec![m.clone(); 20]);
        let s = cosine_similarity_analysis(&t, 5);
        assert_eq!(s.count, 15);
        assert!((s.median - 1.0).abs() < 1e-12);
        assert!(cosine_similarity_samples(&t, 0).is_empty());
        assert!(cosine_similarity_samples(&t, 25).is_empty());
    }

    #[test]
    fn sparse_stats_match_dense_on_active_slots() {
        // A shard's σ² weights come from its own pair columns
        // (`WindowDataset::per_slot_variance`); on every active slot they
        // are the trace's per-pair variance, bit for bit.
        let active = crate::sparse::ActivePairs::from_pairs(3, &[(0, 2), (2, 1)]);
        let matrices: Vec<DemandMatrix> = (0..6)
            .map(|t| {
                let mut m = DemandMatrix::zeros(3);
                m.set(0, 2, 1.5 + (t % 3) as f64);
                m.set(2, 1, 10.0 / (1 + t) as f64);
                m
            })
            .collect();
        let columns = matrices.iter().map(|m| vec![m.get(0, 2), m.get(2, 1)]).collect();
        let trace = TrafficTrace::new("t", 1.0, matrices);
        let dense = per_pair_variance(&trace);
        let sparse = crate::split::WindowDataset::from_columns(2, columns).per_slot_variance();
        assert_eq!(sparse.len(), active.len());
        for (slot, flat) in active.flat_pair_ids().enumerate() {
            assert_eq!(sparse[slot].to_bits(), dense[flat].to_bits());
        }
    }

    #[test]
    fn spearman_correlation_properties() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let rev: Vec<f64> = b.iter().rev().cloned().collect();
        assert!((spearman_rank_correlation(&a, &b) - 1.0).abs() < 1e-12);
        assert!((spearman_rank_correlation(&a, &rev) + 1.0).abs() < 1e-12);
        let constant = vec![1.0; 5];
        assert_eq!(spearman_rank_correlation(&a, &constant), 0.0);
        assert_eq!(spearman_rank_correlation(&[1.0], &[2.0]), 1.0);
        // Ties get average ranks and keep the coefficient within [-1, 1].
        let with_ties = vec![1.0, 1.0, 2.0, 3.0, 3.0];
        let r = spearman_rank_correlation(&with_ties, &a);
        assert!(r > 0.8 && r <= 1.0);
    }
}
