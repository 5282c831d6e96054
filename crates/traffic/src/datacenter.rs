//! Meta-like data-center traffic generation (PoD level and ToR level).
//!
//! The paper uses one day of Meta traffic [Roy et al., SIGCOMM'15] aggregated
//! into 1-second inter-PoD matrices and 10-second inter-ToR matrices.  Those
//! traces are not available offline; this module generates synthetic traffic
//! reproducing the properties the paper relies on:
//!
//! * **PoD level** (4 or 8 PoDs): heavily aggregated traffic, moderately bursty,
//!   high temporal similarity with occasional excursions (Figure 4 shows cosine
//!   similarities tightly packed near 1 with a slightly wider box than WAN
//!   gravity traffic).
//! * **ToR level** (dozens to hundreds of ToRs): sparse, highly dynamic traffic.
//!   Most pairs exchange little traffic most of the time; individual pairs
//!   switch on and off abruptly (on/off Markov modulation) and their bursts are
//!   heavy-tailed.  This produces the wide cosine-similarity distribution of
//!   Figure 4 and the strong variance heterogeneity of Figure 2(c).
//!
//! Both generators expose the cluster "flavour" (DB vs WEB): the WEB cluster is
//! busier and slightly more uniform, the DB cluster has a few dominant pairs,
//! mirroring the qualitative description in §5.1.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use figret_topology::Graph;

use crate::matrix::TrafficTrace;
use crate::sparse::{ActivePairs, SparseDemand, SparseTrace};

/// Which Meta cluster flavour to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFlavor {
    /// MySQL database cluster: a few dominant, bursty pairs.
    Db,
    /// Web-serving cluster: busier, more uniform.
    Web,
}

/// Parameters of the PoD-level generator.
#[derive(Debug, Clone)]
pub struct PodTrafficConfig {
    /// Number of snapshots (1-second aggregation in the paper).
    pub num_snapshots: usize,
    /// Aggregation interval in seconds.
    pub interval_seconds: f64,
    /// Average per-pair utilization of a direct link (0..1).
    pub base_load: f64,
    /// Relative per-snapshot noise.
    pub noise: f64,
    /// Per-snapshot probability of a moderate burst on a pair.
    pub burst_probability: f64,
    /// Burst magnitude range.
    pub burst_magnitude: (f64, f64),
    /// Cluster flavour.
    pub flavor: ClusterFlavor,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PodTrafficConfig {
    fn default() -> Self {
        PodTrafficConfig {
            num_snapshots: 800,
            interval_seconds: 1.0,
            base_load: 0.35,
            noise: 0.12,
            burst_probability: 0.03,
            burst_magnitude: (1.5, 3.0),
            flavor: ClusterFlavor::Db,
            seed: 33,
        }
    }
}

/// Generates a PoD-level trace over a (small, usually full-mesh) graph.
///
/// The snapshots are assembled as columns over the all-pairs index and
/// densified at the end.
pub fn pod_trace(graph: &Graph, config: &PodTrafficConfig) -> TrafficTrace {
    let n = graph.num_nodes();
    assert!(n >= 2, "need at least two PoDs");
    let active = Arc::new(ActivePairs::all(n));
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x0d0d_0001);
    let min_cap = graph.min_capacity().unwrap_or(1.0);

    // Per-pair mean rates: heavy-tailed for DB (some dominant pairs), more
    // uniform for WEB.
    let nnz = active.len();
    let mut means = vec![0.0f64; nnz];
    let mut noise_level = vec![0.0f64; nnz];
    let mut burst_prob = vec![0.0f64; nnz];
    for slot in 0..nnz {
        let skew: f64 = match config.flavor {
            ClusterFlavor::Db => {
                // A few pairs carry several times the average.
                let u: f64 = rng.gen();
                if u < 0.2 {
                    rng.gen_range(1.5..3.0)
                } else {
                    rng.gen_range(0.4..1.2)
                }
            }
            ClusterFlavor::Web => rng.gen_range(0.8..1.3),
        };
        means[slot] = config.base_load * min_cap * skew;
        noise_level[slot] = config.noise * rng.gen_range(0.5..1.8);
        // Heterogeneous burstiness: roughly half the pairs never burst.
        burst_prob[slot] = if rng.gen::<f64>() < 0.5 {
            config.burst_probability * rng.gen_range(0.5..2.5)
        } else {
            0.0
        };
    }

    let mut columns = Vec::with_capacity(config.num_snapshots);
    // Slowly varying AR(1) state per pair for temporal correlation.
    let mut state = vec![1.0f64; nnz];
    for _t in 0..config.num_snapshots {
        let mut col = SparseDemand::zeros(Arc::clone(&active));
        for slot in 0..nnz {
            // AR(1): state drifts slowly around 1.
            state[slot] = 0.95 * state[slot] + 0.05 * (1.0 + rng.gen_range(-0.5..0.5));
            let noise = 1.0 + noise_level[slot] * rng.gen_range(-1.0..1.0);
            let mut v = means[slot] * state[slot] * noise;
            if burst_prob[slot] > 0.0 && rng.gen::<f64>() < burst_prob[slot] {
                v *= rng.gen_range(config.burst_magnitude.0..config.burst_magnitude.1);
            }
            col.set_slot(slot, v);
        }
        columns.push(col);
    }
    let flavor = match config.flavor {
        ClusterFlavor::Db => "db",
        ClusterFlavor::Web => "web",
    };
    SparseTrace::new(
        format!("{}-pod-{flavor}", graph.name()),
        config.interval_seconds,
        active,
        columns,
    )
    .to_trace()
}

/// Parameters of the ToR-level generator.
#[derive(Debug, Clone)]
pub struct TorTrafficConfig {
    /// Number of snapshots (10-second aggregation in the paper).
    pub num_snapshots: usize,
    /// Aggregation interval in seconds.
    pub interval_seconds: f64,
    /// Fraction of pairs that are active "mice" at any time.
    pub sparsity: f64,
    /// Average utilization contributed by a stable (elephant) pair relative to
    /// the minimum link capacity.
    pub elephant_load: f64,
    /// Fraction of pairs that are stable elephants.
    pub elephant_fraction: f64,
    /// Probability per snapshot that an off pair switches on.
    pub on_probability: f64,
    /// Probability per snapshot that an on pair switches off.
    pub off_probability: f64,
    /// Burst magnitude range relative to the elephant load for on-pairs.
    pub burst_magnitude: (f64, f64),
    /// Cluster flavour.
    pub flavor: ClusterFlavor,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TorTrafficConfig {
    fn default() -> Self {
        TorTrafficConfig {
            num_snapshots: 800,
            interval_seconds: 10.0,
            sparsity: 0.25,
            elephant_load: 0.08,
            elephant_fraction: 0.15,
            on_probability: 0.08,
            off_probability: 0.25,
            burst_magnitude: (2.0, 8.0),
            flavor: ClusterFlavor::Db,
            seed: 44,
        }
    }
}

/// Generates a ToR-level trace over a (random-regular) graph.
pub fn tor_trace(graph: &Graph, config: &TorTrafficConfig) -> TrafficTrace {
    let active = Arc::new(ActivePairs::all(graph.num_nodes()));
    tor_trace_sparse(graph, &active, config).to_trace()
}

/// Columnar ToR-level generator over an explicit pair set — the native form
/// for 512–4096-ToR fabrics, where only the sampled communication pattern
/// (a few percent of all pairs) ever carries traffic and storage is
/// `O(nnz · T)` instead of `O(N² · T)`.  [`tor_trace`] is the all-pairs
/// dense adapter (bit-identical to the pre-sparse implementation).
pub fn tor_trace_sparse(
    graph: &Graph,
    active: &Arc<ActivePairs>,
    config: &TorTrafficConfig,
) -> SparseTrace {
    let n = graph.num_nodes();
    assert!(n >= 2, "need at least two ToRs");
    assert_eq!(active.num_nodes(), n, "pair index must match the graph");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x70b_0002);
    let min_cap = graph.min_capacity().unwrap_or(1.0);

    let nnz = active.len();
    let mut elephant = vec![false; nnz];
    let mut mean = vec![0.0f64; nnz];
    let mut on = vec![false; nnz];
    for slot in 0..nnz {
        if rng.gen::<f64>() < config.elephant_fraction {
            elephant[slot] = true;
            let flavor_scale = match config.flavor {
                ClusterFlavor::Db => rng.gen_range(0.8..2.0),
                ClusterFlavor::Web => rng.gen_range(0.9..1.4),
            };
            mean[slot] = config.elephant_load * min_cap * flavor_scale;
            on[slot] = true;
        } else {
            mean[slot] = config.elephant_load * min_cap * rng.gen_range(0.05..0.4);
            on[slot] = rng.gen::<f64>() < config.sparsity;
        }
    }

    let mut columns = Vec::with_capacity(config.num_snapshots);
    for _t in 0..config.num_snapshots {
        let mut col = SparseDemand::zeros(Arc::clone(active));
        for slot in 0..nnz {
            if elephant[slot] {
                // Stable with mild noise.
                let noise = 1.0 + 0.1 * rng.gen_range(-1.0..1.0);
                col.set_slot(slot, mean[slot] * noise);
            } else {
                // On/off Markov modulation with heavy-tailed bursts when on.
                if on[slot] {
                    if rng.gen::<f64>() < config.off_probability {
                        on[slot] = false;
                    }
                } else if rng.gen::<f64>() < config.on_probability {
                    on[slot] = true;
                }
                if on[slot] {
                    let burst = rng.gen_range(config.burst_magnitude.0..config.burst_magnitude.1);
                    let noise = 1.0 + 0.3 * rng.gen_range(-1.0..1.0);
                    col.set_slot(slot, mean[slot] * burst * noise);
                }
            }
        }
        columns.push(col);
    }
    let flavor = match config.flavor {
        ClusterFlavor::Db => "db",
        ClusterFlavor::Web => "web",
    };
    SparseTrace::new(
        format!("{}-tor-{flavor}", graph.name()),
        config.interval_seconds,
        Arc::clone(active),
        columns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cosine_similarity_analysis, per_pair_variance};
    use figret_topology::{Topology, TopologySpec};

    #[test]
    fn pod_trace_is_moderately_stable() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let t = pod_trace(&g, &PodTrafficConfig { num_snapshots: 300, ..Default::default() });
        assert_eq!(t.len(), 300);
        let stats = cosine_similarity_analysis(&t, 12);
        assert!(
            stats.median > 0.9,
            "PoD traffic should be fairly stable (median {})",
            stats.median
        );
    }

    #[test]
    fn tor_trace_is_more_bursty_than_pod() {
        let g_pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let g_tor = TopologySpec::reduced(Topology::MetaDbTor).build();
        let pod = pod_trace(&g_pod, &PodTrafficConfig { num_snapshots: 300, ..Default::default() });
        let tor = tor_trace(&g_tor, &TorTrafficConfig { num_snapshots: 300, ..Default::default() });
        let pod_stats = cosine_similarity_analysis(&pod, 12);
        let tor_stats = cosine_similarity_analysis(&tor, 12);
        assert!(
            tor_stats.p25 < pod_stats.p25,
            "ToR traffic must be less similar to its history than PoD traffic ({} vs {})",
            tor_stats.p25,
            pod_stats.p25
        );
    }

    #[test]
    fn tor_variance_is_heterogeneous() {
        let g = TopologySpec::reduced(Topology::MetaDbTor).build();
        let t = tor_trace(&g, &TorTrafficConfig { num_snapshots: 200, ..Default::default() });
        let var = per_pair_variance(&t);
        let nonzero: Vec<f64> = var.iter().cloned().filter(|v| *v > 0.0).collect();
        assert!(!nonzero.is_empty());
        let max = nonzero.iter().cloned().fold(0.0, f64::max);
        let min = nonzero.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 50.0, "ToR variance heterogeneity too small: {max} / {min}");
    }

    #[test]
    fn sparse_tor_generator_stays_on_its_pattern() {
        let g = TopologySpec::reduced(Topology::MetaDbTor).build();
        let active = Arc::new(ActivePairs::sample_per_source(g.num_nodes(), 6, 17));
        let cfg = TorTrafficConfig { num_snapshots: 50, ..Default::default() };
        let t = tor_trace_sparse(&g, &active, &cfg);
        assert_eq!(t.len(), 50);
        assert_eq!(t.nnz(), g.num_nodes() * 6);
        assert_eq!(t, tor_trace_sparse(&g, &active, &cfg));
        // Densifying never places traffic outside the sampled pattern.
        let dense = t.to_trace();
        for m in dense.matrices() {
            for s in 0..g.num_nodes() {
                for d in 0..g.num_nodes() {
                    if s != d && m.get(s, d) > 0.0 {
                        assert!(active.slot(s, d).is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn flavors_and_seeds_change_traces() {
        let g = TopologySpec::full_scale(Topology::MetaWebPod).build();
        let db = pod_trace(&g, &PodTrafficConfig { num_snapshots: 10, ..Default::default() });
        let web = pod_trace(
            &g,
            &PodTrafficConfig {
                num_snapshots: 10,
                flavor: ClusterFlavor::Web,
                ..Default::default()
            },
        );
        assert_ne!(db, web);
        let other_seed =
            pod_trace(&g, &PodTrafficConfig { num_snapshots: 10, seed: 99, ..Default::default() });
        assert_ne!(db, other_seed);
        assert!(db.name().contains("db"));
        assert!(web.name().contains("web"));
    }
}
