//! Fixed-log-bucket latency histogram.
//!
//! Buckets are geometric with ratio [`GROWTH`] = 2^(1/4) (four buckets per
//! octave), spanning 1 ns to ~780 s, plus an underflow bucket at index 0
//! and an unbounded overflow bucket at the top.  The layout is *fixed* —
//! every histogram in the process shares it — so merging two histograms is
//! a bucket-wise add and never re-bins, and a quantile read is exact to
//! one bucket width (≲19% relative error) regardless of how many shards
//! contributed.

/// Number of buckets (underflow + 158 log-spaced + overflow).
pub const BUCKETS: usize = 160;

/// Geometric growth factor between consecutive bucket bounds: 2^(1/4).
pub const GROWTH: f64 = 1.189_207_115_002_721;

/// Lower bound of the first log-spaced bucket (1 ns, in seconds).
const FIRST_BOUND: f64 = 1e-9;

/// A latency/size histogram over the fixed log-bucket layout.
///
/// Records are O(1) with no allocation (the bucket array is allocated at
/// construction), quantiles are read by cumulative walk and returned as
/// the containing bucket's upper bound clamped to the observed `[min,
/// max]` range — monotone in `q` and within one bucket width of the exact
/// sample quantile.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over the fixed bucket layout.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a histogram from a sample slice.
    pub fn from_samples(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// The bucket index a value lands in.  Non-finite and non-positive
    /// values land in the underflow bucket.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value < FIRST_BOUND {
            return 0;
        }
        if value.is_infinite() {
            return BUCKETS - 1;
        }
        let octaves = (value / FIRST_BOUND).log2();
        let idx = 1 + (octaves * 4.0).floor() as usize;
        idx.min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i` (`+inf` for the overflow bucket).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i >= BUCKETS - 1 {
            return f64::INFINITY;
        }
        FIRST_BOUND * GROWTH.powi(i as i32)
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 { value } else { 0.0 };
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The quantile `q ∈ [0, 1]` of the recorded distribution, to bucket
    /// resolution: the upper bound of the bucket containing the
    /// nearest-rank sample, clamped to the observed `[min, max]`.
    /// Monotone non-decreasing in `q`; 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                return Self::bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Bucket-wise merge of another histogram into this one.  Equivalent
    /// (to bucket resolution) to having recorded all of `other`'s samples
    /// here: counts, min, max and every quantile match exactly; `sum`
    /// matches up to floating-point summation order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn single_value_quantiles_return_the_value() {
        let mut h = Histogram::new();
        h.record(1.5e-5);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            // One sample: every quantile clamps to the observed max.
            assert_eq!(h.quantile(q), 1.5e-5);
        }
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 1.5e-5).abs() < 1e-18);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0;
        let mut v = 1e-10;
        while v < 1e4 {
            let i = Histogram::bucket_index(v);
            assert!(i >= last, "bucket index decreased at {v}");
            assert!(i < BUCKETS);
            last = i;
            v *= 1.07;
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn quantile_tracks_exact_to_one_bucket() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-6).collect();
        let h = Histogram::from_samples(&samples);
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let exact = samples[((q * 999.0).ceil() as usize).min(999)];
            let approx = h.quantile(q);
            let eb = Histogram::bucket_index(exact);
            let ab = Histogram::bucket_index(approx);
            assert!(
                ab.abs_diff(eb) <= 1,
                "q={q}: approx {approx} (bucket {ab}) vs exact {exact} (bucket {eb})"
            );
        }
    }

    #[test]
    fn negative_and_nan_values_clamp_to_underflow() {
        let mut h = Histogram::new();
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.sum(), 0.0);
    }
}
