//! Large-fabric generators: 512–4096-ToR topologies beyond Table 1.
//!
//! The paper's largest evaluated fabric is the 324-ToR Meta WEB cluster; the
//! sparse demand–path core (DESIGN.md) exists to push past that.  This module
//! provides the two standard shapes used at that scale:
//!
//! * **Random-regular** (Jellyfish-style): every node is a ToR, uniform
//!   degree — the same construction the Table 1 ToR fabrics use, at 512+
//!   nodes ([`FabricFlavor::RandomRegular`]).
//! * **Two-tier pod fabric**: ToRs partitioned into pods, each ToR wired to
//!   every aggregation switch of its pod, and aggregation switches of
//!   different pods fully meshed with fatter uplinks
//!   ([`FabricFlavor::TwoTierPod`]).  Traffic originates and terminates only
//!   at ToRs — the node-id prefix `0..num_tors` — so the demand universe is
//!   a sparse subset of the node pairs by construction.
//!
//! At these sizes the dense `N×N` demand universe is 0.26M–16.8M pairs;
//! nothing here materializes it.  Fabric experiments pair these graphs with
//! `ActivePairs`-restricted traffic and path sets.

use crate::generators::random_regular;
use crate::graph::{Graph, NodeId};

/// Uniform ToR-link capacity (Gbps), matching the Table 1 DC generators.
const TOR_CAPACITY: f64 = 100.0;

/// Capacity multiplier for aggregation-layer links of a two-tier fabric.
const UPLINK_FACTOR: f64 = 4.0;

/// The wiring shape of a large fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFlavor {
    /// Jellyfish-style random-regular graph; every node is a ToR.
    RandomRegular {
        /// Uniform node degree (undirected).
        degree: usize,
    },
    /// ToRs in pods behind pod-local aggregation switches; aggregation
    /// switches of distinct pods are fully meshed.
    TwoTierPod {
        /// Number of pods (`tors` must be divisible by it).
        pods: usize,
        /// Aggregation switches per pod (also the intra-pod path diversity).
        aggs_per_pod: usize,
    },
}

/// A concrete request for a large fabric instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Number of traffic-bearing ToR switches.
    pub tors: usize,
    /// Wiring shape.
    pub flavor: FabricFlavor,
    /// Seed for the deterministic pseudo-random construction (random-regular
    /// wiring; the two-tier shape is fully deterministic).
    pub seed: u64,
}

/// Pod size used by the two-tier preset at a given ToR count: 64-ToR pods
/// at production scale (multiples of 64, at least 128 ToRs), 8-ToR pods for
/// small fabrics (multiples of 8, at least 16 ToRs).
///
/// # Panics
///
/// Panics when `tors` fits neither sizing rule.
pub fn two_tier_pod_size(tors: usize) -> usize {
    if tors >= 128 && tors.is_multiple_of(64) {
        64
    } else {
        assert!(
            tors >= 16 && tors.is_multiple_of(8),
            "the two-tier preset needs 8- or 64-ToR pods ({tors} ToRs fits neither)"
        );
        8
    }
}

/// A built fabric: the graph plus the ToR/forwarding split.
///
/// ToRs are the node-id prefix `0..num_tors`; any remaining nodes are
/// aggregation switches that only forward (no demand originates or
/// terminates there).
#[derive(Debug, Clone)]
pub struct Fabric {
    /// The physical topology.
    pub graph: Graph,
    /// Number of traffic-bearing ToRs (node ids `0..num_tors`).
    pub num_tors: usize,
}

impl FabricSpec {
    /// The standard Jellyfish preset at a given ToR count: degree-16
    /// random-regular (diameter ≤ 4 up to 4096 nodes), default seed.
    pub fn jellyfish(tors: usize) -> FabricSpec {
        FabricSpec { tors, flavor: FabricFlavor::RandomRegular { degree: 16 }, seed: 7 }
    }

    /// The standard two-tier preset at a given ToR count: pods of
    /// [`two_tier_pod_size`] ToRs with 4 aggregation switches each, default
    /// seed.  Production-scale fabrics (multiples of 64, at least 128 ToRs)
    /// get 64-ToR pods; small test fabrics (multiples of 8, at least 16
    /// ToRs) get 8-ToR pods so CI-sized pod topologies exist.
    pub fn two_tier(tors: usize) -> FabricSpec {
        let pod = two_tier_pod_size(tors);
        FabricSpec {
            tors,
            flavor: FabricFlavor::TwoTierPod { pods: tors / pod, aggs_per_pod: 4 },
            seed: 7,
        }
    }

    /// Builds the fabric described by this spec.
    pub fn build(&self) -> Fabric {
        match self.flavor {
            FabricFlavor::RandomRegular { degree } => {
                assert!(self.tors > degree, "degree must be smaller than the ToR count");
                let graph =
                    random_regular("ToR fabric", self.tors, degree, TOR_CAPACITY, self.seed);
                Fabric { graph, num_tors: self.tors }
            }
            FabricFlavor::TwoTierPod { pods, aggs_per_pod } => {
                assert!(pods >= 2, "a two-tier fabric needs at least two pods");
                assert!(aggs_per_pod >= 1, "each pod needs an aggregation switch");
                assert!(
                    self.tors.is_multiple_of(pods),
                    "ToR count must be divisible by the pod count"
                );
                let tors_per_pod = self.tors / pods;
                assert!(tors_per_pod >= 1, "each pod needs a ToR");
                let num_aggs = pods * aggs_per_pod;
                let mut graph = Graph::named("pod fabric", self.tors + num_aggs);
                // ToR i lives in pod i / tors_per_pod and uplinks to every
                // aggregation switch of that pod.
                for tor in 0..self.tors {
                    let pod = tor / tors_per_pod;
                    for a in 0..aggs_per_pod {
                        let agg = self.tors + pod * aggs_per_pod + a;
                        graph
                            .add_bidirectional(NodeId(tor), NodeId(agg), TOR_CAPACITY)
                            .expect("uplink edge is valid");
                    }
                }
                // Aggregation switches of distinct pods are fully meshed with
                // fatter links (intra-pod ToRs already meet at their own aggs).
                for x in 0..num_aggs {
                    for y in (x + 1)..num_aggs {
                        if x / aggs_per_pod == y / aggs_per_pod {
                            continue;
                        }
                        graph
                            .add_bidirectional(
                                NodeId(self.tors + x),
                                NodeId(self.tors + y),
                                TOR_CAPACITY * UPLINK_FACTOR,
                            )
                            .expect("mesh edge is valid");
                    }
                }
                debug_assert!(graph.is_strongly_connected());
                Fabric { graph, num_tors: self.tors }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jellyfish_is_regular_and_connected() {
        let fabric = FabricSpec::jellyfish(128).build();
        assert_eq!(fabric.graph.num_nodes(), 128);
        assert_eq!(fabric.num_tors, 128);
        assert!(fabric.graph.is_strongly_connected());
        for n in fabric.graph.nodes() {
            assert_eq!(fabric.graph.out_degree(n), 16);
        }
    }

    #[test]
    fn two_tier_shape_and_reachability() {
        let fabric = FabricSpec::two_tier(128).build();
        let (pods, app, tpp) = (2, 4, 64);
        assert_eq!(fabric.num_tors, 128);
        assert_eq!(fabric.graph.num_nodes(), 128 + pods * app);
        assert!(fabric.graph.is_strongly_connected());
        // Every ToR uplinks to exactly its pod's aggs.
        for tor in 0..fabric.num_tors {
            assert_eq!(fabric.graph.out_degree(NodeId(tor)), app);
        }
        // Aggs carry tors_per_pod downlinks plus the cross-pod mesh.
        for a in 0..pods * app {
            assert_eq!(
                fabric.graph.out_degree(NodeId(fabric.num_tors + a)),
                tpp + (pods - 1) * app
            );
        }
        // Cross-pod ToR pairs are 3 hops (tor→agg→agg→tor), intra-pod 2.
        let cross = crate::shortest::shortest_path(
            &fabric.graph,
            NodeId(0),
            NodeId(tpp),
            crate::shortest::EdgeWeight::HopCount,
        )
        .expect("cross-pod path exists");
        assert_eq!(cross.len(), 3);
        let intra = crate::shortest::shortest_path(
            &fabric.graph,
            NodeId(0),
            NodeId(1),
            crate::shortest::EdgeWeight::HopCount,
        )
        .expect("intra-pod path exists");
        assert_eq!(intra.len(), 2);
    }

    #[test]
    fn fabric_builds_are_deterministic() {
        let a = FabricSpec::jellyfish(64).build();
        let b = FabricSpec::jellyfish(64).build();
        assert_eq!(a.graph, b.graph);
        let c = FabricSpec { seed: 11, ..FabricSpec::jellyfish(64) }.build();
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    #[should_panic(expected = "fits neither")]
    fn two_tier_preset_rejects_ragged_sizes() {
        FabricSpec::two_tier(100);
    }

    #[test]
    fn two_tier_pod_sizes_cover_small_and_large_fabrics() {
        assert_eq!(two_tier_pod_size(16), 8);
        assert_eq!(two_tier_pod_size(64), 8); // below 128: small pods
        assert_eq!(two_tier_pod_size(128), 64);
        assert_eq!(two_tier_pod_size(512), 64);
        let small = FabricSpec::two_tier(16).build();
        assert_eq!(small.num_tors, 16);
        // 2 pods of 8 ToRs, 4 aggs each.
        assert_eq!(small.graph.num_nodes(), 16 + 2 * 4);
        assert!(small.graph.is_strongly_connected());
    }
}
