//! Traffic perturbations used in §5.4 ("Robustness to demand changes").
//!
//! * [`gaussian_fluctuation`] reproduces the "Temporal changes in traffic"
//!   experiment (Table 3): every demand receives additive noise
//!   `α · N(0, σ²_sd)` where `σ_sd` is the per-pair standard deviation measured
//!   on the original trace.
//! * [`worst_case_fluctuation`] reproduces Table 5: the per-pair σ used for the
//!   noise is taken from the pair with the *opposite* variance rank, so
//!   historically stable pairs receive the largest fluctuations.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::sparse::TrafficTrace;
use crate::stats::per_pair_std_range;

/// Standard normal sample via Box-Muller.
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Adds `α · N(0, σ²_sd)` noise to every demand of every snapshot in `range`,
/// where `σ_sd` is measured over the full trace.  Demands are clamped at zero.
pub fn gaussian_fluctuation(
    trace: &TrafficTrace,
    range: std::ops::Range<usize>,
    alpha: f64,
    seed: u64,
) -> TrafficTrace {
    let sigma = per_pair_std_range(trace, 0..trace.len());
    apply_noise(trace, range, alpha, &sigma, seed)
}

/// Table 5's adversarial variant: the σ used for pair `i` is the σ of the pair
/// with the opposite variance rank (most stable pair gets the σ of the most
/// bursty pair, and so on).
pub fn worst_case_fluctuation(
    trace: &TrafficTrace,
    range: std::ops::Range<usize>,
    alpha: f64,
    seed: u64,
) -> TrafficTrace {
    let sigma = per_pair_std_range(trace, 0..trace.len());
    let reversed = reverse_by_rank(&sigma);
    apply_noise(trace, range, alpha, &reversed, seed)
}

/// Reassigns values so that the element with the smallest value receives the
/// largest one, the second smallest receives the second largest, etc.
pub fn reverse_by_rank(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("values must not contain NaN"));
    let mut out = vec![0.0; n];
    for (rank, &i) in idx.iter().enumerate() {
        // Element with ascending rank `rank` receives the value of descending rank `rank`.
        out[i] = values[idx[n - 1 - rank]];
    }
    out
}

fn apply_noise(
    trace: &TrafficTrace,
    range: std::ops::Range<usize>,
    alpha: f64,
    sigma: &[f64],
    seed: u64,
) -> TrafficTrace {
    assert!(alpha >= 0.0, "fluctuation amplitude must be non-negative");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf1c_0f1c);
    let columns = trace
        .snapshots()
        .iter()
        .enumerate()
        .map(|(t, column)| {
            let mut out = column.clone();
            if range.contains(&t) && alpha != 0.0 {
                for (slot, (&value, &sigma)) in column.values().iter().zip(sigma).enumerate() {
                    out.set_slot(slot, value + alpha * sigma * standard_normal(&mut rng));
                }
            }
            out
        })
        .collect();
    TrafficTrace::from_columns(
        trace.name(),
        trace.interval_seconds(),
        Arc::clone(trace.active()),
        columns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DemandMatrix;
    use crate::stats::per_pair_variance;

    fn trace() -> TrafficTrace {
        // Pair 0 stable at 10, pair 1 oscillates 0..20 (high variance).
        let ms = (0..40)
            .map(|t| {
                DemandMatrix::from_pairs(2, &[10.0, if t % 2 == 0 { 0.0 } else { 20.0 }]).unwrap()
            })
            .collect();
        TrafficTrace::new("t", 1.0, ms)
    }

    #[test]
    fn zero_alpha_is_identity() {
        let t = trace();
        let p = gaussian_fluctuation(&t, 0..t.len(), 0.0, 1);
        assert_eq!(p, t);
    }

    #[test]
    fn noise_scales_with_pair_sigma() {
        let t = trace();
        let p = gaussian_fluctuation(&t, 0..t.len(), 1.0, 2);
        // Pair 0 had zero variance -> remains exactly 10.
        for c in p.snapshots() {
            assert!((c.get(0, 1) - 10.0).abs() < 1e-9);
        }
        // Pair 1 must have changed somewhere.
        let changed = p
            .snapshots()
            .iter()
            .zip(t.snapshots())
            .any(|(a, b)| (a.get(1, 0) - b.get(1, 0)).abs() > 1e-6);
        assert!(changed);
        // Demands stay non-negative.
        assert!(p.snapshots().iter().all(|c| c.values().iter().all(|v| *v >= 0.0)));
    }

    #[test]
    fn range_restricts_perturbation() {
        let t = trace();
        let p = gaussian_fluctuation(&t, 30..t.len(), 2.0, 3);
        for i in 0..30 {
            assert_eq!(p.snapshot(i), t.snapshot(i));
        }
    }

    #[test]
    fn restricted_traces_are_perturbed_on_their_own_pairs() {
        use crate::sparse::{ActivePairs, SparseDemand};
        let active = Arc::new(ActivePairs::from_pairs(4, &[(0, 3), (2, 1)]));
        let columns = (0..20)
            .map(|t| {
                let values = vec![5.0, if t % 2 == 0 { 1.0 } else { 9.0 }];
                SparseDemand::from_values(Arc::clone(&active), values).unwrap()
            })
            .collect();
        let t = TrafficTrace::from_columns("restricted", 1.0, Arc::clone(&active), columns);
        let p = gaussian_fluctuation(&t, 10..20, 1.0, 5);
        assert!(Arc::ptr_eq(p.active(), &active));
        for i in 0..20 {
            // The constant pair keeps its value; the bursty one moves only
            // inside the range.
            assert_eq!(p.snapshot(i).values()[0], 5.0);
            let moved = p.snapshot(i).values()[1] != t.snapshot(i).values()[1];
            assert_eq!(moved, i >= 10, "snapshot {i}");
        }
    }

    #[test]
    fn reverse_by_rank_swaps_extremes() {
        let v = vec![1.0, 5.0, 3.0];
        let r = reverse_by_rank(&v);
        assert_eq!(r, vec![5.0, 1.0, 3.0]);
        // An already-symmetric vector maps onto itself as a multiset.
        let mut sorted_r = r.clone();
        sorted_r.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted_r, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn worst_case_perturbs_the_stable_pair() {
        let t = trace();
        let p = worst_case_fluctuation(&t, 0..t.len(), 1.0, 4);
        // Now the historically stable pair 0 receives the large sigma.
        let var = per_pair_variance(&p);
        assert!(var[0] > 1.0, "stable pair should now fluctuate, var = {}", var[0]);
    }
}
