//! pFabric-style traffic generation (Poisson arrivals, web-search flow sizes).
//!
//! The paper describes the pFabric trace as "a Poisson arrival process.  When a
//! flow arrives, the source and destination nodes are chosen uniformly at
//! random from the different ToR switches.  The size of each flow is determined
//! randomly, adhering to the distribution outlined in the 'web search workload'
//! scenario" (§5.1).  We reproduce exactly that process and aggregate the flows
//! that arrive within each snapshot interval into a demand matrix.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::sparse::{ActivePairs, SparseDemand, TrafficTrace};

/// The web-search flow-size distribution from the pFabric/DCTCP measurement
/// studies, expressed as CDF breakpoints `(flow size in MB, cumulative prob)`.
///
/// The distribution is heavy-tailed: ~50% of flows are below 100 KB but more
/// than 95% of the bytes come from flows above 1 MB.
const WEB_SEARCH_CDF: [(f64, f64); 9] = [
    (0.006, 0.15),
    (0.013, 0.30),
    (0.019, 0.40),
    (0.033, 0.53),
    (0.133, 0.60),
    (0.667, 0.70),
    (1.333, 0.80),
    (3.333, 0.90),
    (20.0, 1.00),
];

/// Samples one flow size (in MB) from the web-search CDF by inverse transform
/// with linear interpolation between breakpoints.
pub fn sample_web_search_flow_size(rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen();
    let mut prev_size = 0.0;
    let mut prev_cum = 0.0;
    for &(size, cum) in WEB_SEARCH_CDF.iter() {
        if u <= cum {
            let frac = if cum > prev_cum { (u - prev_cum) / (cum - prev_cum) } else { 1.0 };
            return prev_size + frac * (size - prev_size);
        }
        prev_size = size;
        prev_cum = cum;
    }
    WEB_SEARCH_CDF.last().expect("CDF is non-empty").0
}

/// Parameters of the pFabric generator.
#[derive(Debug, Clone)]
pub struct PFabricConfig {
    /// Number of ToR switches.
    pub num_tors: usize,
    /// Number of snapshots.
    pub num_snapshots: usize,
    /// Aggregation interval in seconds.
    pub interval_seconds: f64,
    /// Mean flow arrival rate (flows per second across the whole fabric).
    pub arrival_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PFabricConfig {
    fn default() -> Self {
        PFabricConfig {
            num_tors: 9,
            num_snapshots: 800,
            interval_seconds: 60.0,
            arrival_rate: 40.0,
            seed: 55,
        }
    }
}

/// Samples a Poisson random variate with the given mean (Knuth's algorithm for
/// small means, normal approximation for large means).
fn sample_poisson(rng: &mut impl Rng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation.
        let z: f64 = {
            // Box-Muller
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        return (mean + z * mean.sqrt()).round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Generates a pFabric trace: Poisson flow arrivals with web-search sizes,
/// uniformly random (source, destination) ToR pairs, aggregated per snapshot.
///
/// Demands are expressed as average rate over the snapshot (MB / interval).
/// Flows are scatter-added into one column per snapshot over the all-pairs
/// index, densified at the end.
pub fn pfabric_trace(config: &PFabricConfig) -> TrafficTrace {
    assert!(config.num_tors >= 2, "need at least two ToRs");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xfab_0003);
    let n = config.num_tors;
    let active = Arc::new(ActivePairs::all(n));
    let mean_flows_per_snapshot = config.arrival_rate * config.interval_seconds;
    let mut columns = Vec::with_capacity(config.num_snapshots);
    for _t in 0..config.num_snapshots {
        let mut col = SparseDemand::zeros(Arc::clone(&active));
        let flows = sample_poisson(&mut rng, mean_flows_per_snapshot);
        for _ in 0..flows {
            let s = rng.gen_range(0..n);
            let mut d = rng.gen_range(0..n - 1);
            if d >= s {
                d += 1;
            }
            let size_mb = sample_web_search_flow_size(&mut rng);
            // Average rate contributed over the snapshot (MB per second * 8 -> Mb/s);
            // we keep MB/interval as the demand unit, consistent across snapshots.
            let slot = active.slot(s, d).expect("uniform pair selection is off-diagonal");
            col.add_slot(slot, size_mb);
        }
        columns.push(col);
    }
    TrafficTrace::from_columns("pFabric-websearch", config.interval_seconds, active, columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_sizes_follow_cdf_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let samples: Vec<f64> =
            (0..20_000).map(|_| sample_web_search_flow_size(&mut rng)).collect();
        let below_100kb =
            samples.iter().filter(|s| **s <= 0.1).count() as f64 / samples.len() as f64;
        // CDF says ~57% of flows are below ~100 KB.
        assert!((0.45..0.70).contains(&below_100kb), "fraction below 100KB = {below_100kb}");
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max <= 20.0 + 1e-9);
        assert!(samples.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn poisson_mean_is_roughly_right() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 3000;
        let mean = 12.0;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, mean)).sum();
        let empirical = total as f64 / n as f64;
        assert!((empirical - mean).abs() < 0.5, "poisson mean off: {empirical}");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        let big = sample_poisson(&mut rng, 1000.0);
        assert!((800..1200).contains(&big));
    }

    #[test]
    fn trace_has_uniform_pair_usage() {
        let t = pfabric_trace(&PFabricConfig { num_snapshots: 200, ..Default::default() });
        assert_eq!(t.len(), 200);
        assert_eq!(t.num_nodes(), 9);
        // Sum traffic per pair over the trace; uniform selection means no pair
        // should dominate by more than ~3x the median.
        let mut per_pair = vec![0.0f64; t.nnz()];
        for c in t.snapshots() {
            crate::ops::accumulate_clamped(&mut per_pair, c.values());
        }
        per_pair.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = per_pair[per_pair.len() / 2];
        let max = *per_pair.last().unwrap();
        assert!(
            max < 3.0 * median,
            "pair usage should be roughly uniform (max {max}, median {median})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PFabricConfig { num_snapshots: 10, ..Default::default() };
        assert_eq!(pfabric_trace(&cfg), pfabric_trace(&cfg));
    }
}
