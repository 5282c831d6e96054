//! Candidate path sets and their incidence structures.
//!
//! A [`PathSet`] holds, for every ordered source-destination pair of a graph,
//! the candidate paths over which that pair's traffic may be split.  It also
//! pre-computes the two incidence relations of Function 1 (Appendix D.1 of the
//! paper): which paths serve which SD pair (`SDtoPath`) and which edges each
//! path traverses (`PathtoEdge`), so that MLU evaluation reduces to sparse
//! matrix products.

use figret_topology::{racke_paths, Graph, HopYen, NodeId, Path, RackeConfig};
use figret_traffic::ActivePairs;
use rayon::prelude::*;

/// Index of an ordered source-destination pair within a [`PathSet`].
pub type PairIndex = usize;

/// Index of a path within a [`PathSet`] (global, across all pairs).
pub type PathIndex = usize;

/// Pairs one parallel task of [`PathSet::k_shortest_for_pairs`] runs Yen for:
/// enough to amortize the task and its search scratch, few enough that a
/// 12-pair PoD set stays on the calling thread and larger sets still balance.
const YEN_CHUNK: usize = 64;

/// The candidate paths of every SD pair plus cached incidence structures.
#[derive(Debug, Clone)]
pub struct PathSet {
    num_nodes: usize,
    num_edges: usize,
    /// Ordered SD pairs, matching [`Graph::sd_pairs`] / `DemandMatrix::flatten_pairs`.
    pairs: Vec<(NodeId, NodeId)>,
    /// `pair_offsets[i]..pair_offsets[i+1]` indexes the paths of pair `i`.
    pair_offsets: Vec<usize>,
    /// All paths, grouped by pair.
    paths: Vec<Path>,
    /// Pair index of each path.
    pair_of_path: Vec<PairIndex>,
    /// Edge indices traversed by each path.
    path_edges: Vec<Vec<usize>>,
    /// Path capacities (`C_p = min edge capacity`).
    path_capacities: Vec<f64>,
    /// Edge capacities indexed by edge id.
    edge_capacities: Vec<f64>,
    /// For each edge, the list of paths that traverse it (reverse incidence).
    paths_on_edge: Vec<Vec<PathIndex>>,
}

impl PathSet {
    /// Builds a path set from explicit per-pair path lists.
    ///
    /// `per_pair[i]` must contain the candidate paths of the `i`-th pair of
    /// [`Graph::sd_pairs`]; pairs with no path are allowed (their demand simply
    /// cannot be routed and is ignored by the MLU computation).
    pub fn from_paths(graph: &Graph, per_pair: Vec<Vec<Path>>) -> PathSet {
        let pairs = graph.sd_pairs();
        assert_eq!(per_pair.len(), pairs.len(), "one path list per SD pair is required");
        PathSet::assemble(graph, pairs, per_pair)
    }

    /// [`PathSet::from_paths`] over an arbitrary pair universe: `per_pair[i]`
    /// holds the candidate paths of the `i`-th *active* pair (slot order of
    /// `active`).  This is how large fabrics avoid the `O(N²)` pair universe:
    /// the path set, the TE configuration, MLU evaluation, churn and the LP
    /// all key off `num_pairs()`, so a restricted universe flows through the
    /// whole stack unchanged.  Over [`ActivePairs::all`] the result is
    /// identical to [`PathSet::from_paths`].
    pub fn from_paths_for_pairs(
        graph: &Graph,
        active: &ActivePairs,
        per_pair: Vec<Vec<Path>>,
    ) -> PathSet {
        assert_eq!(active.num_nodes(), graph.num_nodes(), "pair index must match the graph");
        assert_eq!(per_pair.len(), active.len(), "one path list per active pair is required");
        let pairs = active.iter().map(|(_, s, d)| (NodeId(s), NodeId(d))).collect::<Vec<_>>();
        PathSet::assemble(graph, pairs, per_pair)
    }

    fn assemble(graph: &Graph, pairs: Vec<(NodeId, NodeId)>, per_pair: Vec<Vec<Path>>) -> PathSet {
        let mut pair_offsets = Vec::with_capacity(pairs.len() + 1);
        let mut paths = Vec::new();
        let mut pair_of_path = Vec::new();
        pair_offsets.push(0);
        for (i, ((s, d), pair_paths)) in pairs.iter().zip(per_pair).enumerate() {
            for p in pair_paths {
                assert_eq!(p.source(), *s, "path source must match the pair");
                assert_eq!(p.destination(), *d, "path destination must match the pair");
                paths.push(p);
                pair_of_path.push(i);
            }
            pair_offsets.push(paths.len());
        }
        let path_edges: Vec<Vec<usize>> =
            paths.iter().map(|p| p.edges().iter().map(|e| e.index()).collect()).collect();
        let path_capacities: Vec<f64> = paths.iter().map(|p| p.capacity(graph)).collect();
        let edge_capacities = graph.capacities();
        let mut paths_on_edge = vec![Vec::new(); graph.num_edges()];
        for (pi, edges) in path_edges.iter().enumerate() {
            for &e in edges {
                paths_on_edge[e].push(pi);
            }
        }
        PathSet {
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges(),
            pairs,
            pair_offsets,
            paths,
            pair_of_path,
            path_edges,
            path_capacities,
            edge_capacities,
            paths_on_edge,
        }
    }

    /// The paper's default path selection: the `k` shortest (hop-count) paths
    /// per SD pair, computed with Yen's algorithm (§5.1, k = 3).  This is
    /// [`PathSet::k_shortest_for_pairs`] over [`ActivePairs::all`].
    pub fn k_shortest(graph: &Graph, k: usize) -> PathSet {
        PathSet::k_shortest_for_pairs(graph, &ActivePairs::all(graph.num_nodes()), k)
    }

    /// [`PathSet::k_shortest`] restricted to the active pairs of a sparse
    /// demand universe.  Yen's algorithm runs only for the `nnz` active pairs,
    /// so path selection on a 1024-ToR fabric with ~1% density does ~1% of
    /// the dense work.  Per-pair results are independent and deterministic,
    /// so chunks of 64 pairs run in parallel, each on one
    /// [`HopYen`]'s scratch.
    pub fn k_shortest_for_pairs(graph: &Graph, active: &ActivePairs, k: usize) -> PathSet {
        assert_eq!(active.num_nodes(), graph.num_nodes(), "pair index must match the graph");
        let per_pair: Vec<Vec<Path>> = active
            .node_pairs()
            .par_chunks(YEN_CHUNK)
            .flat_map(|chunk| {
                let mut yen = HopYen::new(graph);
                chunk.iter().map(|&(s, d)| yen.paths(NodeId(s), NodeId(d), k)).collect::<Vec<_>>()
            })
            .collect();
        PathSet::from_paths_for_pairs(graph, active, per_pair)
    }

    /// SMORE-style path selection: Räcke-inspired diverse, capacity-aware
    /// paths, one independent selection per pair, run in parallel.
    pub fn racke(graph: &Graph, config: &RackeConfig) -> PathSet {
        let per_pair = graph
            .sd_pairs()
            .into_par_iter()
            .map(|(s, d)| racke_paths(graph, s, d, config))
            .collect();
        PathSet::from_paths(graph, per_pair)
    }

    /// Extracts the sub-path-set covering only the active pairs, together
    /// with the map from restricted global path index to this set's global
    /// path index.  Candidate paths, their order and their capacities are
    /// preserved, so a configuration solved on the restricted set can be
    /// scattered back onto this one.  Every active pair must be present in
    /// this set's pair universe.
    pub fn restrict_to(&self, active: &ActivePairs) -> (PathSet, Vec<PathIndex>) {
        assert_eq!(active.num_nodes(), self.num_nodes, "pair index must match the path set");
        let mut index_of = std::collections::HashMap::with_capacity(self.pairs.len());
        for (i, &(s, d)) in self.pairs.iter().enumerate() {
            index_of.insert((s.index(), d.index()), i);
        }
        let mut pairs = Vec::with_capacity(active.len());
        let mut pair_offsets = Vec::with_capacity(active.len() + 1);
        let mut paths = Vec::new();
        let mut pair_of_path = Vec::new();
        let mut path_edges = Vec::new();
        let mut path_capacities = Vec::new();
        let mut path_map = Vec::new();
        pair_offsets.push(0);
        for (slot, s, d) in active.iter() {
            let src_pair = *index_of.get(&(s, d)).expect("active pair must exist in the path set");
            pairs.push((NodeId(s), NodeId(d)));
            for pi in self.paths_of_pair(src_pair) {
                paths.push(self.paths[pi].clone());
                pair_of_path.push(slot);
                path_edges.push(self.path_edges[pi].clone());
                path_capacities.push(self.path_capacities[pi]);
                path_map.push(pi);
            }
            pair_offsets.push(paths.len());
        }
        let mut paths_on_edge = vec![Vec::new(); self.num_edges];
        for (pi, edges) in path_edges.iter().enumerate() {
            for &e in edges {
                paths_on_edge[e].push(pi);
            }
        }
        let restricted = PathSet {
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            pairs,
            pair_offsets,
            paths,
            pair_of_path,
            path_edges,
            path_capacities,
            edge_capacities: self.edge_capacities.clone(),
            paths_on_edge,
        };
        (restricted, path_map)
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges of the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of ordered SD pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Total number of candidate paths across all pairs.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// The ordered SD pairs.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Global path indices belonging to pair `i`.
    pub fn paths_of_pair(&self, pair: PairIndex) -> std::ops::Range<PathIndex> {
        self.pair_offsets[pair]..self.pair_offsets[pair + 1]
    }

    /// Number of candidate paths of pair `i`.
    pub fn num_paths_of_pair(&self, pair: PairIndex) -> usize {
        self.pair_offsets[pair + 1] - self.pair_offsets[pair]
    }

    /// The pair served by a path.
    pub fn pair_of_path(&self, path: PathIndex) -> PairIndex {
        self.pair_of_path[path]
    }

    /// The path object at a global path index.
    pub fn path(&self, path: PathIndex) -> &Path {
        &self.paths[path]
    }

    /// Edge indices traversed by a path.
    pub fn path_edges(&self, path: PathIndex) -> &[usize] {
        &self.path_edges[path]
    }

    /// Capacity of a path (`C_p`).
    pub fn path_capacity(&self, path: PathIndex) -> f64 {
        self.path_capacities[path]
    }

    /// All path capacities, indexed by global path index.
    pub fn path_capacities(&self) -> &[f64] {
        &self.path_capacities
    }

    /// Edge capacities, indexed by edge id.
    pub fn edge_capacities(&self) -> &[f64] {
        &self.edge_capacities
    }

    /// Paths traversing a given edge.
    pub fn paths_on_edge(&self, edge: usize) -> &[PathIndex] {
        &self.paths_on_edge[edge]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};

    fn geant_paths() -> PathSet {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        PathSet::k_shortest(&g, 3)
    }

    #[test]
    fn k_shortest_builds_paths_for_every_pair() {
        let ps = geant_paths();
        assert_eq!(ps.num_pairs(), 23 * 22);
        assert_eq!(ps.num_nodes(), 23);
        assert_eq!(ps.num_edges(), 74);
        for pair in 0..ps.num_pairs() {
            let n = ps.num_paths_of_pair(pair);
            assert!((1..=3).contains(&n), "pair {pair} has {n} paths");
            for pi in ps.paths_of_pair(pair) {
                assert_eq!(ps.pair_of_path(pi), pair);
                assert!(ps.path_capacity(pi) > 0.0);
                assert!(!ps.path_edges(pi).is_empty());
            }
        }
        assert!(ps.num_paths() > 2 * ps.num_pairs());
    }

    #[test]
    fn incidence_matrices_are_consistent() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        // Every path has exactly one pair, whose path range holds it.
        for pi in 0..ps.num_paths() {
            assert!(ps.paths_of_pair(ps.pair_of_path(pi)).contains(&pi));
        }
        // Reverse incidence agrees.
        for e in 0..ps.num_edges() {
            for &pi in ps.paths_on_edge(e) {
                assert!(ps.path_edges(pi).contains(&e));
            }
        }
        for pi in 0..ps.num_paths() {
            for &e in ps.path_edges(pi) {
                assert!(ps.paths_on_edge(e).contains(&pi));
            }
        }
    }

    #[test]
    fn racke_pathset_builds() {
        let g = TopologySpec::full_scale(Topology::PFabric).build();
        let ps = PathSet::racke(&g, &RackeConfig::default());
        assert_eq!(ps.num_pairs(), 72);
        assert!(ps.num_paths() >= ps.num_pairs());
    }

    #[test]
    fn racke_pathset_follows_sd_ordering() {
        let g = TopologySpec::full_scale(Topology::PFabric).build();
        let config = RackeConfig::default();
        let ps = PathSet::racke(&g, &config);
        assert_eq!(ps.pairs(), g.sd_pairs().as_slice());
        for (pair, &(s, d)) in ps.pairs().iter().enumerate() {
            let paths: Vec<&Path> = ps.paths_of_pair(pair).map(|pi| ps.path(pi)).collect();
            let reference = racke_paths(&g, s, d, &config);
            assert_eq!(paths, reference.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "one path list per SD pair")]
    fn from_paths_checks_length() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        PathSet::from_paths(&g, vec![Vec::new()]);
    }

    #[test]
    fn all_pairs_universe_matches_dense_constructor() {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let dense = PathSet::k_shortest(&g, 3);
        let all = ActivePairs::all(g.num_nodes());
        let sparse = PathSet::k_shortest_for_pairs(&g, &all, 3);
        assert_eq!(sparse.pairs(), dense.pairs());
        assert_eq!(sparse.num_paths(), dense.num_paths());
        for pi in 0..dense.num_paths() {
            assert_eq!(sparse.path(pi).nodes(), dense.path(pi).nodes());
            assert_eq!(sparse.pair_of_path(pi), dense.pair_of_path(pi));
            assert_eq!(sparse.path_capacity(pi), dense.path_capacity(pi));
        }
    }

    #[test]
    fn restricted_universe_is_the_active_subsequence() {
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let active = ActivePairs::sample_per_source(g.num_nodes(), 4, 7);
        let ps = PathSet::k_shortest_for_pairs(&g, &active, 3);
        assert_eq!(ps.num_pairs(), active.len());
        let dense = PathSet::k_shortest(&g, 3);
        // Every restricted pair's candidate paths equal the dense pair's.
        for (slot, s, d) in active.iter() {
            let (ns, nd) = ps.pairs()[slot];
            assert_eq!((ns.index(), nd.index()), (s, d));
            let dense_pair =
                dense.pairs().iter().position(|&(a, b)| a.index() == s && b.index() == d).unwrap();
            let restricted: Vec<_> =
                ps.paths_of_pair(slot).map(|pi| ps.path(pi).nodes().to_vec()).collect();
            let reference: Vec<_> =
                dense.paths_of_pair(dense_pair).map(|pi| dense.path(pi).nodes().to_vec()).collect();
            assert_eq!(restricted, reference);
        }
    }

    #[test]
    #[should_panic(expected = "one path list per active pair")]
    fn from_paths_for_pairs_checks_length() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let active = ActivePairs::all(g.num_nodes());
        PathSet::from_paths_for_pairs(&g, &active, vec![Vec::new()]);
    }
}
