//! Gravity-model traffic generation (§5.1 of the paper).
//!
//! For the UsCarrier and Cogentco topologies the paper has no public traces and
//! generates synthetic traffic with a gravity model [Roughan et al.]: the
//! demand between `s` and `d` is proportional to the product of the two nodes'
//! "masses".  We use each node's total adjacent capacity as its mass, which is
//! the standard choice, and add a small amount of temporally smooth noise so
//! the trace is not perfectly constant (the paper notes gravity traffic is very
//! stable and has no bursts, which is exactly the property we preserve).

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use figret_topology::Graph;

use crate::matrix::{DemandMatrix, TrafficTrace};
use crate::sparse::{ActivePairs, SparseDemand, SparseTrace};

/// Parameters for the gravity-model generator.
#[derive(Debug, Clone)]
pub struct GravityConfig {
    /// Number of snapshots to generate.
    pub num_snapshots: usize,
    /// Aggregation interval in seconds (metadata only).
    pub interval_seconds: f64,
    /// Fraction of total network capacity offered as traffic (0..1).  The
    /// paper's WAN traces keep links moderately loaded; 0.2 is a sensible
    /// default that keeps the optimal MLU well below 1.
    pub load_factor: f64,
    /// Relative amplitude of the smooth temporal modulation (diurnal-style).
    pub modulation: f64,
    /// Relative standard deviation of per-snapshot multiplicative noise.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GravityConfig {
    fn default() -> Self {
        GravityConfig {
            num_snapshots: 400,
            interval_seconds: 900.0,
            load_factor: 0.2,
            modulation: 0.15,
            noise: 0.03,
            seed: 11,
        }
    }
}

/// The static gravity demand matrix for a graph: `D_sd ∝ mass(s) * mass(d)`,
/// scaled so the total demand equals `load_factor * total_capacity / 2`.
pub fn gravity_matrix(graph: &Graph, load_factor: f64) -> DemandMatrix {
    let n = graph.num_nodes();
    let mut mass = vec![0.0f64; n];
    for (_, e) in graph.edges() {
        mass[e.src.index()] += e.capacity;
    }
    let total_mass: f64 = mass.iter().sum();
    let mut m = DemandMatrix::zeros(n);
    if total_mass <= 0.0 {
        return m;
    }
    // Unnormalized gravity weights.
    let mut weight_sum = 0.0;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                weight_sum += mass[s] * mass[d];
            }
        }
    }
    // Offered load: a fraction of the total (directed) capacity.
    let offered = load_factor * graph.total_capacity() / 2.0;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                m.set(s, d, offered * mass[s] * mass[d] / weight_sum);
            }
        }
    }
    m
}

/// Generates a gravity-model trace over the given graph.
///
/// The snapshots are assembled as columns over the all-pairs index (gravity
/// demand is full by construction) and densified at the end.
pub fn gravity_trace(graph: &Graph, config: &GravityConfig) -> TrafficTrace {
    let base = gravity_matrix(graph, config.load_factor);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9a1_717);
    let active = Arc::new(ActivePairs::all(graph.num_nodes()));
    let base_slots = base.flatten_pairs();
    let mut columns = Vec::with_capacity(config.num_snapshots);
    // Period of the smooth modulation: one "day" spans 96 snapshots at a
    // 15-minute interval; reuse that shape regardless of the interval.
    let period = 96.0f64;
    for t in 0..config.num_snapshots {
        let phase = 2.0 * std::f64::consts::PI * (t as f64) / period;
        let season = 1.0 + config.modulation * phase.sin();
        let mut col = SparseDemand::zeros(Arc::clone(&active));
        for (slot, b) in base_slots.iter().enumerate() {
            let noise = 1.0 + config.noise * rng.gen_range(-1.0..1.0);
            col.set_slot(slot, b * season * noise);
        }
        columns.push(col);
    }
    SparseTrace::new(format!("{}-gravity", graph.name()), config.interval_seconds, active, columns)
        .to_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};

    #[test]
    fn gravity_matrix_is_proportional_to_masses() {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let m = gravity_matrix(&g, 0.2);
        assert!(m.total() > 0.0);
        // Total offered load equals load_factor * total_capacity / 2.
        let expected = 0.2 * g.total_capacity() / 2.0;
        assert!((m.total() - expected).abs() / expected < 1e-9);
        // Symmetric masses => roughly symmetric demands.
        assert!((m.get(0, 1) - m.get(1, 0)).abs() < 1e-6 * m.total());
    }

    #[test]
    fn gravity_trace_is_stable() {
        let g = TopologySpec::reduced(Topology::UsCarrier).build();
        let trace = gravity_trace(&g, &GravityConfig { num_snapshots: 50, ..Default::default() });
        assert_eq!(trace.len(), 50);
        // Successive snapshots must be extremely similar (no bursts).
        for t in 1..trace.len() {
            let sim = trace.matrix(t).cosine_similarity(trace.matrix(t - 1));
            assert!(sim > 0.99, "gravity traffic must be stable, got similarity {sim}");
        }
    }

    #[test]
    fn gravity_trace_is_deterministic() {
        let g = TopologySpec::reduced(Topology::Cogentco).build();
        let cfg = GravityConfig { num_snapshots: 5, ..Default::default() };
        assert_eq!(gravity_trace(&g, &cfg), gravity_trace(&g, &cfg));
    }
}
