//! # figret-topology
//!
//! Network-topology substrate for the FIGRET reproduction.
//!
//! The crate provides:
//!
//! * [`graph::Graph`] — directed, capacitated graphs (`G = (V, E, c)` of §3 of
//!   the paper);
//! * [`paths::Path`] — simple directed paths with path capacity
//!   `C_p = min_{e in p} c(e)`;
//! * [`shortest`] — Yen's k-shortest-paths over hop count on a breadth-first
//!   search (the paper's candidate path selection, §5.1), and a Dijkstra with
//!   node and edge bans for the capacity-aware costs of [`racke`];
//! * [`racke`] — Räcke-style diverse path selection (the SMORE path set,
//!   Figure 6);
//! * [`generators`] — deterministic constructors for every topology of Table 1;
//! * [`failures`] — random link-failure scenarios (Figures 7, 14, 15).
//!
//! # Example
//!
//! ```
//! use figret_topology::generators::{Topology, TopologySpec};
//! use figret_topology::shortest::k_shortest_paths;
//! use figret_topology::graph::NodeId;
//!
//! let geant = TopologySpec::full_scale(Topology::Geant).build();
//! assert_eq!(geant.num_nodes(), 23);
//! let paths = k_shortest_paths(&geant, NodeId(0), NodeId(5), 3);
//! assert!(!paths.is_empty());
//! ```

#![warn(missing_docs)]

pub mod fabric;
pub mod failures;
pub mod generators;
pub mod graph;
pub mod paths;
pub mod racke;
pub mod shortest;

pub use fabric::{two_tier_pod_size, Fabric, FabricFlavor, FabricSpec};
pub use failures::{random_link_failures, FailureScenario};
pub use generators::{build_topology, Scale, Topology, TopologySpec};
pub use graph::{Edge, EdgeId, Graph, GraphError, NodeId};
pub use paths::Path;
pub use racke::{racke_paths, RackeConfig};
pub use shortest::{dijkstra_with_bans, k_shortest_paths, shortest_path, EdgeWeight, HopYen};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_connected_graph() -> impl Strategy<Value = Graph> {
        // Ring of n nodes plus some random chords, random capacities.
        (3usize..10, proptest::collection::vec((0usize..10, 0usize..10, 1u32..100), 0..12))
            .prop_map(|(n, chords)| {
                let mut g = Graph::new(n);
                for i in 0..n {
                    g.add_bidirectional(NodeId(i), NodeId((i + 1) % n), 10.0).unwrap();
                }
                for (a, b, c) in chords {
                    let (a, b) = (a % n, b % n);
                    if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                        g.add_bidirectional(NodeId(a), NodeId(b), c as f64).unwrap();
                    }
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn yen_paths_are_simple_sorted_and_distinct(g in arbitrary_connected_graph(), k in 1usize..5) {
            let src = NodeId(0);
            let dst = NodeId(g.num_nodes() - 1);
            let paths = k_shortest_paths(&g, src, dst, k);
            prop_assert!(paths.len() <= k);
            prop_assert!(!paths.is_empty());
            for w in paths.windows(2) {
                prop_assert!(w[0].len() <= w[1].len(), "paths must be sorted by hop count");
                prop_assert_ne!(&w[0], &w[1]);
            }
            for p in &paths {
                prop_assert_eq!(p.source(), src);
                prop_assert_eq!(p.destination(), dst);
                // Simplicity: node list has no duplicates.
                let mut nodes: Vec<_> = p.nodes().to_vec();
                nodes.sort();
                nodes.dedup();
                prop_assert_eq!(nodes.len(), p.nodes().len());
            }
        }

        #[test]
        fn racke_paths_have_valid_endpoints(g in arbitrary_connected_graph()) {
            let cfg = RackeConfig::default();
            let src = NodeId(1 % g.num_nodes());
            let dst = NodeId(g.num_nodes() - 1);
            if src != dst {
                let paths = racke_paths(&g, src, dst, &cfg);
                prop_assert!(!paths.is_empty());
                for p in &paths {
                    prop_assert_eq!(p.source(), src);
                    prop_assert_eq!(p.destination(), dst);
                    prop_assert!(p.capacity(&g) > 0.0);
                }
            }
        }

        #[test]
        fn ring_graphs_are_strongly_connected(g in arbitrary_connected_graph()) {
            prop_assert!(g.is_strongly_connected());
        }
    }
}
