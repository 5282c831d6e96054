//! # figret-te
//!
//! Traffic-engineering model primitives shared by FIGRET and every baseline:
//!
//! * [`pathset::PathSet`] — candidate paths per SD pair with the SD→path and
//!   path→edge incidence structures of Function 1 (Appendix D.1);
//! * [`config::TeConfig`] — split ratios (`Σ_{p ∈ P_sd} r_p = 1`);
//! * [`mlu`] — maximum-link-utilization evaluation `M(R, D)` (§3): one
//!   evaluator over pair columns with caller-owned scratch;
//! * [`sensitivity`] — path sensitivity `S_p = r_p / C_p` and the fine-grained
//!   robustness penalty of Equation 8;
//! * [`failures`] — proportional rerouting around failed links (§4.5);
//! * [`objective`] — normalized-MLU metrics and congestion-event counting;
//! * [`churn`] — routing churn of a reconfiguration (L1 distance between
//!   consecutive split-ratio vectors), the update cost the online serving
//!   subsystem budgets against (DESIGN.md §6).
//!
//! # Example
//!
//! ```
//! use figret_topology::{Topology, TopologySpec};
//! use figret_traffic::DemandMatrix;
//! use figret_te::{PathSet, TeConfig, max_link_utilization_pairs};
//!
//! let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
//! let paths = PathSet::k_shortest(&pod, 3);
//! let config = TeConfig::uniform(&paths);
//! let mut demand = DemandMatrix::zeros(4);
//! demand.set(0, 1, 50.0);
//! let mlu = max_link_utilization_pairs(&paths, &config, &demand.flatten_pairs());
//! assert!(mlu > 0.0);
//! ```

#![warn(missing_docs)]

pub mod churn;
pub mod config;
pub mod diff;
pub mod failures;
pub mod mlu;
pub mod objective;
pub mod pathset;
pub mod sensitivity;

pub use churn::{mean_series_churn, split_ratio_churn};
pub use config::{TeConfig, RATIO_TOLERANCE};
pub use diff::{DiffTe, MluAggregation};
pub use failures::{available_paths, reroute_around_failures, reroute_with_mask};
pub use mlu::{
    max_link_utilization_pairs, max_link_utilization_pairs_scratch, max_utilization_of_loads,
};
pub use objective::{
    congestion_event_count, congestion_event_rate, mean, normalize_by, relative_change,
    SchemeQuality, CONGESTION_THRESHOLD,
};
pub use pathset::{PairIndex, PathIndex, PathSet};
pub use sensitivity::{
    max_sensitivity, max_sensitivity_per_pair, path_sensitivities, robustness_penalty,
    satisfies_sensitivity_bounds,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::mlu::max_link_utilization_naive;
    use figret_topology::{FailureScenario, Graph, NodeId};
    use proptest::prelude::*;

    /// A small ring+chords graph and a random raw-ratio vector.
    fn arbitrary_case() -> impl Strategy<Value = (Graph, Vec<f64>, Vec<f64>)> {
        (4usize..8).prop_flat_map(|n| {
            let graph = {
                let mut g = Graph::new(n);
                for i in 0..n {
                    g.add_bidirectional(NodeId(i), NodeId((i + 1) % n), 10.0).unwrap();
                }
                for i in 0..n {
                    let j = (i + 2) % n;
                    if !g.has_edge(NodeId(i), NodeId(j)) {
                        g.add_bidirectional(NodeId(i), NodeId(j), 25.0).unwrap();
                    }
                }
                g
            };
            let num_paths = PathSet::k_shortest(&graph, 3).num_paths();
            let num_pairs = n * (n - 1);
            (
                Just(graph),
                proptest::collection::vec(0.0f64..1.0, num_paths),
                proptest::collection::vec(0.0f64..100.0, num_pairs),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn from_raw_always_yields_valid_configs((g, raw, _d) in arbitrary_case()) {
            let ps = PathSet::k_shortest(&g, 3);
            let cfg = TeConfig::from_raw(&ps, &raw);
            prop_assert!(cfg.is_valid(&ps));
        }

        #[test]
        fn mlu_fast_matches_naive_and_is_monotone((g, raw, demand) in arbitrary_case()) {
            let ps = PathSet::k_shortest(&g, 3);
            let cfg = TeConfig::from_raw(&ps, &raw);
            let fast = max_link_utilization_pairs(&ps, &cfg, &demand);
            let naive = max_link_utilization_naive(&ps, &cfg, &demand);
            prop_assert!((fast - naive).abs() < 1e-9);
            // Scaling demands scales the MLU.
            let doubled: Vec<f64> = demand.iter().map(|d| 2.0 * d).collect();
            let fast2 = max_link_utilization_pairs(&ps, &cfg, &doubled);
            prop_assert!((fast2 - 2.0 * fast).abs() < 1e-9);
        }

        #[test]
        fn rerouting_preserves_per_pair_mass((g, raw, _d) in arbitrary_case()) {
            let ps = PathSet::k_shortest(&g, 3);
            let cfg = TeConfig::from_raw(&ps, &raw);
            // Fail the first physical link (edges 0 and 1 are its two directions).
            let scenario = FailureScenario::from_edges(vec![
                figret_topology::EdgeId(0),
                figret_topology::EdgeId(1),
            ]);
            let rerouted = reroute_around_failures(&ps, &cfg, &scenario);
            for pair in 0..ps.num_pairs() {
                let alive_exists = ps
                    .paths_of_pair(pair)
                    .any(|pi| !ps.path_edges(pi).iter().any(|&e| e == 0 || e == 1));
                let sum: f64 = ps.paths_of_pair(pair).map(|pi| rerouted.ratio(pi)).sum();
                if alive_exists {
                    prop_assert!((sum - 1.0).abs() < 1e-6, "pair {} sums to {}", pair, sum);
                }
                // Failed paths must carry nothing.
                for pi in ps.paths_of_pair(pair) {
                    if ps.path_edges(pi).iter().any(|&e| e == 0 || e == 1) && alive_exists {
                        prop_assert!(rerouted.ratio(pi).abs() < 1e-12);
                    }
                }
            }
        }

        #[test]
        fn sensitivity_penalty_is_nonnegative_and_scales((g, raw, demand) in arbitrary_case()) {
            let ps = PathSet::k_shortest(&g, 3);
            let cfg = TeConfig::from_raw(&ps, &raw);
            let var: Vec<f64> = demand.iter().map(|d| d * d).collect();
            let p1 = robustness_penalty(&ps, &cfg, &var);
            prop_assert!(p1 >= 0.0);
            let var2: Vec<f64> = var.iter().map(|v| v * 3.0).collect();
            let p3 = robustness_penalty(&ps, &cfg, &var2);
            prop_assert!((p3 - 3.0 * p1).abs() < 1e-9 * (1.0 + p1.abs()));
        }
    }
}
