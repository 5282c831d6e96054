//! Räcke-style oblivious path selection (the path set used by SMORE).
//!
//! SMORE [Kumar et al., NSDI'18] selects paths with Räcke's oblivious-routing
//! decomposition, which spreads each source-destination pair over several
//! capacity-aware, mutually diverse paths.  The full Räcke decomposition builds
//! a distribution over hierarchical cut trees; reproducing it exactly is out of
//! scope, so we implement the widely used practical approximation that captures
//! the two properties the FIGRET evaluation relies on (Figure 6):
//!
//! 1. paths are chosen with capacity-aware costs (fat links preferred), and
//! 2. successive paths for the same pair avoid each other by multiplicatively
//!    penalizing edges already used (so path sets are diverse, not just the
//!    k shortest).
//!
//! This is the classic iterative penalization heuristic for oblivious-style
//! path selection; the substitution is documented in DESIGN.md §5.

use crate::graph::{Graph, NodeId};
use crate::paths::Path;
use crate::shortest::dijkstra_with_bans;

/// Configuration of the Räcke-style path selector.
#[derive(Debug, Clone, Copy)]
pub struct RackeConfig {
    /// Number of paths to select per source-destination pair.
    pub paths_per_pair: usize,
    /// Multiplicative penalty applied to an edge each time a selected path
    /// uses it.  Must be > 1; larger values force more diversity.
    pub penalty: f64,
}

impl Default for RackeConfig {
    fn default() -> Self {
        RackeConfig { paths_per_pair: 3, penalty: 4.0 }
    }
}

/// Selects up to `config.paths_per_pair` diverse, capacity-aware paths from
/// `src` to `dst`.
///
/// Returns fewer paths if the graph does not contain enough distinct simple
/// paths; returns an empty vector if `dst` is unreachable.
pub fn racke_paths(graph: &Graph, src: NodeId, dst: NodeId, config: &RackeConfig) -> Vec<Path> {
    assert!(config.penalty > 1.0, "penalty must be > 1");
    let mut multiplier = vec![1.0f64; graph.num_edges()];
    let banned_nodes = vec![false; graph.num_nodes()];
    let banned_edges = vec![false; graph.num_edges()];
    let mut result: Vec<Path> = Vec::new();

    for _ in 0..config.paths_per_pair {
        let cost = |e: crate::graph::EdgeId| multiplier[e.index()] / graph.capacity(e);
        let path = dijkstra_with_bans(graph, src, dst, cost, &banned_nodes, &banned_edges);
        let path = match path {
            Some(p) => p,
            None => break,
        };
        // Penalize the edges of the chosen path so the next iteration avoids them.
        for &e in path.edges() {
            multiplier[e.index()] *= config.penalty;
        }
        if !result.contains(&path) {
            result.push(path);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Two disjoint routes 0->1->3 and 0->2->3 plus a direct thin edge 0->3.
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 10.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 10.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 10.0).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 1.0).unwrap();
        g
    }

    #[test]
    fn produces_diverse_paths() {
        let g = diamond();
        let paths = racke_paths(&g, NodeId(0), NodeId(3), &RackeConfig::default());
        assert!(paths.len() >= 2, "expected at least two diverse paths, got {}", paths.len());
        // The first two must be the edge-disjoint fat routes, not the thin direct edge.
        assert_eq!(paths[0].len(), 2);
        assert_eq!(paths[1].len(), 2);
        let shared: Vec<_> = paths[0].edges().iter().filter(|e| paths[1].uses_edge(**e)).collect();
        assert!(shared.is_empty(), "first two Räcke paths should be edge-disjoint");
    }

    #[test]
    fn dedupes_when_graph_has_single_route() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let paths = racke_paths(&g, NodeId(0), NodeId(2), &RackeConfig::default());
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn unreachable_gives_empty() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(racke_paths(&g, NodeId(0), NodeId(2), &RackeConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "penalty must be > 1")]
    fn rejects_bad_penalty() {
        let g = diamond();
        racke_paths(&g, NodeId(0), NodeId(3), &RackeConfig { paths_per_pair: 2, penalty: 1.0 });
    }
}
