//! Maximum-link-utilization (MLU) evaluation.
//!
//! Given a demand `D` and a TE configuration `R`, the flow on an edge is
//! `f_e = Σ_{s,d} Σ_{p ∈ P_sd, e ∈ p} D_sd · r_p` and the MLU is
//! `max_e f_e / c(e)` (§3, denoted `M(R, D)` in the paper).  This module
//! implements that computation with the sparse incidence structures of
//! [`crate::pathset::PathSet`], which is exactly Function 1 of Appendix D.1.
//!
//! There is one evaluator, [`max_link_utilization_pairs_scratch`]: the demand
//! is a pair column (one value per SD pair of the path set — `flatten_pairs`
//! order on a dense universe, the slot order of a sparse column's
//! `ActivePairs` on a restricted one) and the edge loads go to a caller-owned
//! buffer.  [`max_link_utilization_pairs`] is the same call with a fresh
//! buffer, and [`max_utilization_of_loads`] folds load buffers that shards
//! summed.

use crate::config::TeConfig;
use crate::pathset::PathSet;

/// Maximum link utilization `M(R, D)` for a pair column: the scratch
/// evaluator with a buffer of its own.
pub fn max_link_utilization_pairs(paths: &PathSet, config: &TeConfig, demand_pairs: &[f64]) -> f64 {
    max_link_utilization_pairs_scratch(paths, config, demand_pairs, &mut Vec::new())
}

/// Maximum link utilization `M(R, D)` for a pair column, with a
/// caller-provided edge-load buffer (resized as needed, so one buffer serves
/// any path set).  Flows are accumulated in path order and utilizations
/// folded in edge order; a path that carries no flow is skipped.  This is
/// the serving hot path's MLU evaluator and every figure's.
pub fn max_link_utilization_pairs_scratch(
    paths: &PathSet,
    config: &TeConfig,
    demand_pairs: &[f64],
    loads: &mut Vec<f64>,
) -> f64 {
    assert_eq!(demand_pairs.len(), paths.num_pairs(), "one demand per SD pair is required");
    loads.clear();
    loads.resize(paths.num_edges(), 0.0);
    for pi in 0..paths.num_paths() {
        let f = demand_pairs[paths.pair_of_path(pi)] * config.ratio(pi);
        if f == 0.0 {
            continue;
        }
        for &e in paths.path_edges(pi) {
            loads[e] += f;
        }
    }
    loads.iter().zip(paths.edge_capacities()).map(|(l, c)| l / c).fold(0.0, f64::max)
}

/// Maximum utilization of an explicit edge-load vector: `max_e loads[e] /
/// capacities[e]`, folded in edge order like [`max_link_utilization_pairs_scratch`].
///
/// The sharded serving fleet uses this to recover the *global* realized MLU
/// from per-shard work: each shard's restricted path set keeps the full edge
/// universe (`PathSet::restrict_to` preserves `num_edges` and capacities), so
/// summing the shards' [`max_link_utilization_pairs_scratch`] load buffers in
/// stable shard order and folding once is exact — and bit-deterministic —
/// without ever evaluating the merged configuration on the merged demand.
pub fn max_utilization_of_loads(loads: &[f64], capacities: &[f64]) -> f64 {
    assert_eq!(loads.len(), capacities.len(), "one load per edge is required");
    loads.iter().zip(capacities).map(|(l, c)| l / c).fold(0.0, f64::max)
}

/// The test oracle: walks every pair's paths and every path's edges
/// explicitly, independent of the incidence caches the evaluator reads.
#[cfg(test)]
pub(crate) fn max_link_utilization_naive(
    paths: &PathSet,
    config: &TeConfig,
    demand_pairs: &[f64],
) -> f64 {
    let mut loads = vec![0.0f64; paths.num_edges()];
    for pair in 0..paths.num_pairs() {
        for pi in paths.paths_of_pair(pair) {
            let flow = demand_pairs[pair] * config.ratio(pi);
            for e in paths.path(pi).edges() {
                loads[e.index()] += flow;
            }
        }
    }
    loads.into_iter().zip(paths.edge_capacities()).map(|(l, c)| l / c).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Graph, NodeId, Topology, TopologySpec};
    use figret_traffic::wan::{wan_trace, WanTrafficConfig};
    use figret_traffic::{DemandMatrix, SparseDemand, TrafficTrace};

    fn matrix_mlu(paths: &PathSet, config: &TeConfig, demand: &DemandMatrix) -> f64 {
        max_link_utilization_pairs(paths, config, &demand.flatten_pairs())
    }

    /// The 3-node example of Figure 3 of the paper: A=0, B=1, C=2, all links
    /// capacity 2, demands A->B, A->C, B->C.
    fn figure3() -> (Graph, PathSet) {
        let mut g = Graph::named("figure3", 3);
        g.add_bidirectional(NodeId(0), NodeId(1), 2.0).unwrap();
        g.add_bidirectional(NodeId(0), NodeId(2), 2.0).unwrap();
        g.add_bidirectional(NodeId(1), NodeId(2), 2.0).unwrap();
        let ps = PathSet::k_shortest(&g, 2);
        (g, ps)
    }

    fn figure3_demand(ab: f64, ac: f64, bc: f64) -> DemandMatrix {
        let mut d = DemandMatrix::zeros(3);
        d.set(0, 1, ab);
        d.set(0, 2, ac);
        d.set(1, 2, bc);
        d
    }

    /// TE scheme 1 of Figure 3: all traffic on direct (shortest) paths.
    #[test]
    fn figure3_scheme1_normal_and_burst() {
        let (_g, ps) = figure3();
        let cfg = TeConfig::shortest_path(&ps);
        let normal = figure3_demand(1.0, 1.0, 1.0);
        assert!((matrix_mlu(&ps, &cfg, &normal) - 0.5).abs() < 1e-9);
        let burst = figure3_demand(4.0, 1.0, 1.0);
        assert!((matrix_mlu(&ps, &cfg, &burst) - 2.0).abs() < 1e-9);
    }

    /// TE scheme 2 of Figure 3: every demand split 50/50 over its two paths.
    #[test]
    fn figure3_scheme2_normal_and_burst() {
        let (_g, ps) = figure3();
        let cfg = TeConfig::uniform(&ps);
        let normal = figure3_demand(1.0, 1.0, 1.0);
        assert!((matrix_mlu(&ps, &cfg, &normal) - 0.75).abs() < 1e-9);
        for burst in [
            figure3_demand(4.0, 1.0, 1.0),
            figure3_demand(1.0, 4.0, 1.0),
            figure3_demand(1.0, 1.0, 4.0),
        ] {
            assert!((matrix_mlu(&ps, &cfg, &burst) - 1.5).abs() < 1e-9);
        }
    }

    /// TE scheme 3 of Figure 3: direct paths for A->B and A->C, 62.5%/37.5%
    /// split for B->C.  MLU values quoted in §2.3 of the paper.
    #[test]
    fn figure3_scheme3_matches_paper() {
        let (_g, ps) = figure3();
        let mut raw = vec![0.0; ps.num_paths()];
        // Identify pairs: pairs are ordered (0,1), (0,2), (1,0), (1,2), (2,0), (2,1).
        for pair in 0..ps.num_pairs() {
            let (s, d) = ps.pairs()[pair];
            let range: Vec<usize> = ps.paths_of_pair(pair).collect();
            if s == NodeId(1) && d == NodeId(2) {
                // B->C: 62.5% on the direct path (1 hop), 37.5% on the detour.
                for &pi in &range {
                    raw[pi] = if ps.path(pi).len() == 1 { 0.625 } else { 0.375 };
                }
            } else {
                // Everything else: direct path only.
                for &pi in &range {
                    raw[pi] = if ps.path(pi).len() == 1 { 1.0 } else { 0.0 };
                }
            }
        }
        let cfg = TeConfig::from_raw(&ps, &raw);
        let normal = figure3_demand(1.0, 1.0, 1.0);
        assert!((matrix_mlu(&ps, &cfg, &normal) - 0.6875).abs() < 1e-9);
        // The paper quotes 2.1875 for burst 1/2 because it accounts links as
        // undirected (the A<->B link carries the A->B burst plus the B->A leg
        // of the B->C detour).  Our model uses one capacity per direction, so
        // the burst lands on the A->B direction alone and the MLU is 4/2 = 2.
        // The qualitative ordering of the three schemes is unchanged: scheme 3
        // is worse than scheme 2 under bursts 1/2 and better under normal
        // traffic and burst 3.
        let burst1 = figure3_demand(4.0, 1.0, 1.0);
        assert!((matrix_mlu(&ps, &cfg, &burst1) - 2.0).abs() < 1e-9);
        let burst3 = figure3_demand(1.0, 1.0, 4.0);
        assert!((matrix_mlu(&ps, &cfg, &burst3) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn fast_and_naive_mlu_agree_on_geant() {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace = wan_trace(&g, &WanTrafficConfig { num_snapshots: 5, ..Default::default() });
        let cfg = TeConfig::uniform(&ps);
        for column in trace.snapshots() {
            let pairs = column.values();
            let fast = max_link_utilization_pairs(&ps, &cfg, pairs);
            let naive = max_link_utilization_naive(&ps, &cfg, pairs);
            assert!((fast - naive).abs() < 1e-9, "fast {fast} vs naive {naive}");
            assert!(fast > 0.0);
        }
    }

    #[test]
    fn scratch_mlu_is_bit_identical_to_the_allocating_pipeline() {
        // One buffer reused across snapshots and across path sets of
        // different edge counts: no load of an earlier call may leak.
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let ps = PathSet::k_shortest(&g, 3);
        let (_g, small) = figure3();
        let trace = wan_trace(&g, &WanTrafficConfig { num_snapshots: 5, ..Default::default() });
        let cfg = TeConfig::uniform(&ps);
        let small_cfg = TeConfig::shortest_path(&small);
        let burst = figure3_demand(4.0, 1.0, 1.0).flatten_pairs();
        let mut loads = Vec::new();
        for column in trace.snapshots() {
            let pairs = column.values();
            let reference = max_link_utilization_pairs(&ps, &cfg, pairs);
            let scratch = max_link_utilization_pairs_scratch(&ps, &cfg, pairs, &mut loads);
            assert_eq!(reference.to_bits(), scratch.to_bits());
            let small_mlu =
                max_link_utilization_pairs_scratch(&small, &small_cfg, &burst, &mut loads);
            assert_eq!(small_mlu.to_bits(), 2.0f64.to_bits());
        }
    }

    #[test]
    fn sparse_mlu_is_bit_identical_to_dense_on_a_restricted_universe() {
        use figret_traffic::ActivePairs;
        use std::sync::Arc;

        let g = TopologySpec::full_scale(Topology::Geant).build();
        let n = g.num_nodes();
        let active = Arc::new(ActivePairs::sample_per_source(n, 4, 13));
        let restricted = PathSet::k_shortest_for_pairs(&g, &active, 3);
        let dense = PathSet::k_shortest(&g, 3);

        // A demand supported only on the active pairs: on the restricted
        // path set its value column *is* the pair column.
        let mut demand = SparseDemand::zeros(Arc::clone(&active));
        for (slot, s, d) in active.iter() {
            demand.set_slot(slot, 1.0 + ((s * 31 + d * 7) % 17) as f64);
        }
        let full = TrafficTrace::from_columns("restricted", 1.0, active, vec![demand.clone()]);

        for (cfg_r, cfg_d) in [
            (TeConfig::uniform(&restricted), TeConfig::uniform(&dense)),
            (TeConfig::shortest_path(&restricted), TeConfig::shortest_path(&dense)),
        ] {
            let sparse_mlu = max_link_utilization_pairs(&restricted, &cfg_r, demand.values());
            let dense_mlu = matrix_mlu(&dense, &cfg_d, &full.matrix(0));
            assert_eq!(sparse_mlu.to_bits(), dense_mlu.to_bits());
            assert!(sparse_mlu > 0.0);
        }
    }

    #[test]
    fn zero_demand_gives_zero_mlu() {
        let (_g, ps) = figure3();
        let cfg = TeConfig::uniform(&ps);
        let zero = DemandMatrix::zeros(3);
        assert_eq!(matrix_mlu(&ps, &cfg, &zero), 0.0);
        let mut loads = vec![7.0; 2];
        let pairs = zero.flatten_pairs();
        assert_eq!(max_link_utilization_pairs_scratch(&ps, &cfg, &pairs, &mut loads), 0.0);
        assert!(loads.iter().all(|l| *l == 0.0));
    }
}
