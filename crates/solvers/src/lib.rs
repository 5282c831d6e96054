//! # figret-solvers
//!
//! The LP/gradient-based TE baselines the paper compares FIGRET against
//! (§5.1), all built on the `figret-lp` simplex and the differentiable TE
//! expressions of `figret-te`:
//!
//! * [`schemes::omniscient_config`] — the normalizer of every quality figure;
//! * the forecast-driven LP schemes — prediction-based TE, Google Jupiter's
//!   hedging (Des TE), its fault-aware variant and the heuristic
//!   fine-grained variant of Appendix C — are one [`MluProblem`] (or one
//!   [`MluTemplate`] over a series) each: a forecast demand, solved under
//!   [`schemes::desensitization_bounds`] or
//!   [`schemes::heuristic_absolute_bounds`] and an optional availability
//!   mask.  The forecast comes from the caller; the evaluation runner takes
//!   it from the serving predictors over pair columns;
//! * [`oblivious::oblivious_config`] / [`oblivious::cope_config`] — worst-case
//!   schemes over a hose uncertainty set (substitution documented in
//!   DESIGN.md §5);
//! * [`engine`] — the shared min-MLU engines (exact LP and iterative) and the
//!   size rule that picks one ([`engine::solves_exactly`]).
//!
//! # Example
//!
//! ```
//! use figret_topology::{Topology, TopologySpec};
//! use figret_traffic::ActivePairs;
//! use figret_te::{max_link_utilization_pairs, PathSet};
//! use figret_solvers::omniscient_config;
//!
//! let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
//! let paths = PathSet::k_shortest(&pod, 3);
//! let pairs = ActivePairs::all(4);
//! let mut demand = vec![0.0; pairs.len()];
//! demand[pairs.slot(0, 1).unwrap()] = 80.0;
//! demand[pairs.slot(2, 3).unwrap()] = 40.0;
//! let config = omniscient_config(&paths, &demand).unwrap();
//! assert!(max_link_utilization_pairs(&paths, &config, &demand) <= 0.81);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod oblivious;
pub mod schemes;
pub mod template;

pub use engine::{
    normalized_bound_to_absolute, solve_iterative, solve_lp, solves_exactly, IterativeSettings,
    MluProblem, SolveError, LP_PATH_LIMIT,
};
pub use oblivious::{
    cope_config, oblivious_config, worst_case_demand, CopeSettings, CuttingPlaneSettings,
    HoseModel, ObliviousResult,
};
pub use schemes::{
    desensitization_bounds, heuristic_absolute_bounds, heuristic_bounds, omniscient_config,
    DesensitizationSettings, HeuristicBound,
};
pub use template::{clean_demand, MluTemplate, SeriesStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};
    use figret_topology::{Graph, NodeId};
    use proptest::prelude::*;

    fn ring_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_bidirectional(NodeId(i), NodeId((i + 1) % n), 10.0).unwrap();
            let j = (i + 2) % n;
            if !g.has_edge(NodeId(i), NodeId(j)) {
                g.add_bidirectional(NodeId(i), NodeId(j), 20.0).unwrap();
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The omniscient LP must never be beaten by any ad-hoc configuration.
        #[test]
        fn omniscient_lp_is_a_lower_bound(
            n in 4usize..6,
            demand_scale in 1.0f64..50.0,
            raw in proptest::collection::vec(0.0f64..1.0, 200),
        ) {
            let g = ring_graph(n);
            let ps = PathSet::k_shortest(&g, 3);
            let demand: Vec<f64> = (0..ps.num_pairs()).map(|i| demand_scale * ((i % 5) as f64 + 1.0)).collect();
            let omni = omniscient_config(&ps, &demand).unwrap();
            let omni_mlu = max_link_utilization_pairs(&ps, &omni, &demand);
            // Compare against an arbitrary valid configuration.
            let mut padded = raw.clone();
            padded.resize(ps.num_paths(), 0.5);
            let other = TeConfig::from_raw(&ps, &padded);
            let other_mlu = max_link_utilization_pairs(&ps, &other, &demand);
            prop_assert!(omni_mlu <= other_mlu + 1e-6,
                "omniscient {} beaten by arbitrary config {}", omni_mlu, other_mlu);
            // And against uniform / shortest-path.
            for cfg in [TeConfig::uniform(&ps), TeConfig::shortest_path(&ps)] {
                prop_assert!(omni_mlu <= max_link_utilization_pairs(&ps, &cfg, &demand) + 1e-6);
            }
        }
    }
}
