//! GEANT-like WAN traffic generation.
//!
//! The public GEANT traces (15-minute aggregation over four months) are not
//! available offline, so this module generates synthetic WAN traffic with the
//! qualitative properties the paper measures on GEANT (Figures 2 and 4):
//!
//! * most source-destination pairs are very stable over time (cosine similarity
//!   with the recent history close to 1),
//! * a minority of pairs occasionally burst to several times their mean, which
//!   produces the low-similarity outliers visible in Figure 4, and
//! * per-pair variance is strongly heterogeneous (Figure 2a).
//!
//! The generator combines a gravity-model base matrix, a smooth diurnal
//! modulation, per-pair multiplicative noise, and per-pair Bernoulli bursts
//! whose probability and magnitude are drawn from heavy-tailed distributions so
//! that a few pairs dominate the burstiness.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use figret_topology::Graph;

use crate::gravity::gravity_matrix;
use crate::sparse::{ActivePairs, SparseDemand, TrafficTrace};

/// Parameters of the WAN trace generator.
#[derive(Debug, Clone)]
pub struct WanTrafficConfig {
    /// Number of snapshots (the paper uses 500 demands for the motivation
    /// figures and several thousand for training).
    pub num_snapshots: usize,
    /// Aggregation interval in seconds (GEANT: 900 s).
    pub interval_seconds: f64,
    /// Fraction of the network capacity offered as average load.
    pub load_factor: f64,
    /// Amplitude of the diurnal modulation.
    pub diurnal_amplitude: f64,
    /// Per-snapshot relative noise applied to every pair.
    pub noise: f64,
    /// Fraction of SD pairs that are burst-prone.
    pub bursty_fraction: f64,
    /// Per-snapshot probability that a burst-prone pair bursts.
    pub burst_probability: f64,
    /// Multiplicative burst magnitude range `[low, high]`.
    pub burst_magnitude: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for WanTrafficConfig {
    fn default() -> Self {
        WanTrafficConfig {
            num_snapshots: 600,
            interval_seconds: 900.0,
            load_factor: 0.25,
            diurnal_amplitude: 0.25,
            noise: 0.08,
            bursty_fraction: 0.12,
            burst_probability: 0.02,
            burst_magnitude: (2.5, 6.0),
            seed: 21,
        }
    }
}

/// Per-pair traffic profile: mean scale, noise level and burst behaviour.
#[derive(Debug, Clone)]
struct PairProfile {
    mean: f64,
    noise: f64,
    burst_prob: f64,
    burst_low: f64,
    burst_high: f64,
}

/// Generates a GEANT-like WAN trace over `graph`.
///
/// WAN demand is full, so the columns run over the all-pairs index.
pub fn wan_trace(graph: &Graph, config: &WanTrafficConfig) -> TrafficTrace {
    let n = graph.num_nodes();
    let active = Arc::new(ActivePairs::all(n));
    let base = gravity_matrix(graph, config.load_factor);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x0007_ea57);

    // Assign per-pair profiles.  Burst-prone pairs are selected at random;
    // their mean traffic is also skewed so variance heterogeneity is large.
    let mut profiles: Vec<PairProfile> = Vec::with_capacity(active.len());
    for (_, s, d) in active.iter() {
        let bursty = rng.gen::<f64>() < config.bursty_fraction;
        // Log-normal-ish skew of the mean around the gravity value.
        let skew = (rng.gen::<f64>() * 2.0 - 1.0) * 0.6;
        let mean = base.get(s, d) * (1.0 + skew).max(0.1);
        profiles.push(PairProfile {
            mean,
            noise: config.noise * rng.gen_range(0.5..1.5),
            burst_prob: if bursty {
                config.burst_probability * rng.gen_range(0.5..2.0)
            } else {
                0.0
            },
            burst_low: config.burst_magnitude.0,
            burst_high: config.burst_magnitude.1,
        });
    }

    let period = 96.0f64; // one synthetic day at 15-minute snapshots
    let mut columns = Vec::with_capacity(config.num_snapshots);
    for t in 0..config.num_snapshots {
        let phase = 2.0 * std::f64::consts::PI * (t as f64) / period;
        let season = 1.0 + config.diurnal_amplitude * phase.sin();
        let mut col = SparseDemand::zeros(Arc::clone(&active));
        for (slot, p) in profiles.iter().enumerate() {
            let noise = 1.0 + p.noise * rng.gen_range(-1.0..1.0);
            let mut value = p.mean * season * noise;
            if p.burst_prob > 0.0 && rng.gen::<f64>() < p.burst_prob {
                value *= rng.gen_range(p.burst_low..p.burst_high);
            }
            col.set_slot(slot, value);
        }
        columns.push(col);
    }
    TrafficTrace::from_columns(
        format!("{}-wan", graph.name()),
        config.interval_seconds,
        active,
        columns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::per_pair_variance;
    use figret_topology::{Topology, TopologySpec};

    fn geant_trace(snapshots: usize) -> TrafficTrace {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        wan_trace(&g, &WanTrafficConfig { num_snapshots: snapshots, ..Default::default() })
    }

    #[test]
    fn trace_has_requested_shape() {
        let t = geant_trace(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.num_nodes(), 23);
        assert!(t.snapshots().iter().all(|c| c.total() > 0.0));
    }

    #[test]
    fn most_snapshots_are_stable_but_bursts_exist() {
        let t = geant_trace(400);
        let mut sims = Vec::new();
        for i in 1..t.len() {
            sims.push(t.snapshot(i).cosine_similarity(t.snapshot(i - 1)));
        }
        sims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sims[sims.len() / 2];
        assert!(median > 0.95, "WAN traffic should be mostly stable (median similarity {median})");
        // Max over the trace should exceed the mean noticeably => bursts present.
        let totals: Vec<f64> = t.snapshots().iter().map(|c| c.max_entry()).collect();
        let mean: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        let max = totals.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.8 * mean, "bursts should create clear peaks (max {max}, mean {mean})");
    }

    #[test]
    fn variance_is_heterogeneous_across_pairs() {
        let t = geant_trace(300);
        let var = per_pair_variance(&t);
        let max = var.iter().cloned().fold(0.0, f64::max);
        let min_nonzero = var.iter().cloned().filter(|v| *v > 0.0).fold(f64::INFINITY, f64::min);
        assert!(
            max / min_nonzero > 10.0,
            "per-pair variance should span at least an order of magnitude"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(geant_trace(20), geant_trace(20));
    }
}
