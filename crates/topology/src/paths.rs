//! Network paths and path-level quantities.
//!
//! A path is an ordered sequence of directed edges between a source and a
//! destination.  Its capacity is the minimum capacity over the edges it
//! traverses (`C_p = min_{e in p} c(e)` in the paper, §3).

use crate::graph::{EdgeId, Graph, NodeId};

/// A simple directed path through a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// Builds a path from the sequence of edge ids it traverses.
    ///
    /// Returns `None` if the edges do not form a contiguous simple path (each
    /// edge must start where the previous one ended, and no node may repeat).
    pub fn from_edges(graph: &Graph, edges: Vec<EdgeId>) -> Option<Path> {
        if edges.is_empty() {
            return None;
        }
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(graph.edge(edges[0]).src);
        for (i, &eid) in edges.iter().enumerate() {
            let e = graph.edge(eid);
            if e.src != *nodes.last().expect("nodes is non-empty") {
                return None;
            }
            // Simplicity check: the destination must not already appear,
            // except that we have not pushed it yet so any duplicate is a cycle.
            if nodes.contains(&e.dst) {
                return None;
            }
            nodes.push(e.dst);
            let _ = i;
        }
        Some(Path { nodes, edges })
    }

    /// Builds a path from the sequence of nodes it visits, looking up an edge
    /// between each consecutive pair.  Returns `None` if some hop has no edge.
    pub fn from_nodes(graph: &Graph, nodes: &[NodeId]) -> Option<Path> {
        if nodes.len() < 2 {
            return None;
        }
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for w in nodes.windows(2) {
            edges.push(graph.find_edge(w[0], w[1])?);
        }
        Path::from_edges(graph, edges)
    }

    /// Source node of the path.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node of the path.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("a path has at least two nodes")
    }

    /// Nodes visited by the path, in order (including source and destination).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges traversed by the path, in order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the path has no edges.  Never true for a constructed `Path`,
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Path capacity: the minimum capacity over the traversed edges.
    pub fn capacity(&self, graph: &Graph) -> f64 {
        self.edges.iter().map(|&e| graph.capacity(e)).fold(f64::INFINITY, f64::min)
    }

    /// Sum of `weight(edge)` over the path's edges.
    pub fn weight<F: Fn(EdgeId) -> f64>(&self, weight: F) -> f64 {
        self.edges.iter().map(|&e| weight(e)).sum()
    }

    /// `true` if the path traverses the given edge.
    pub fn uses_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn line() -> Graph {
        // 0 -> 1 -> 2 -> 3 with increasing capacities, plus a shortcut 0 -> 2.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 3.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 5.0).unwrap();
        g
    }

    #[test]
    fn from_edges_builds_contiguous_path() {
        let g = line();
        let p = Path::from_edges(&g, vec![EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(3));
        assert_eq!(p.len(), 3);
        assert_eq!(p.capacity(&g), 1.0);
        assert!(p.uses_edge(EdgeId(1)));
        assert!(!p.uses_edge(EdgeId(3)));
    }

    #[test]
    fn from_edges_rejects_gaps() {
        let g = line();
        // EdgeId(0) is 0->1, EdgeId(2) is 2->3: not contiguous.
        assert!(Path::from_edges(&g, vec![EdgeId(0), EdgeId(2)]).is_none());
        assert!(Path::from_edges(&g, vec![]).is_none());
    }

    #[test]
    fn from_nodes_looks_up_edges() {
        let g = line();
        let p = Path::from_nodes(&g, &[NodeId(0), NodeId(2), NodeId(3)]).unwrap();
        assert_eq!(p.edges(), &[EdgeId(3), EdgeId(2)]);
        assert_eq!(p.capacity(&g), 3.0);
        assert!(Path::from_nodes(&g, &[NodeId(3), NodeId(0)]).is_none());
        assert!(Path::from_nodes(&g, &[NodeId(0)]).is_none());
    }

    #[test]
    fn rejects_cycles() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap(); // parallel edge
                                                        // 0 -> 1 -> 2 -> 0 revisits node 0.
        assert!(Path::from_edges(&g, vec![EdgeId(0), EdgeId(1), EdgeId(2)]).is_none());
    }

    #[test]
    fn weight_and_node_queries() {
        let g = line();
        let p = Path::from_nodes(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(p.weight(|_| 1.0), 2.0);
        assert!((p.weight(|e| g.capacity(e)) - 3.0).abs() < 1e-12);
    }
}
