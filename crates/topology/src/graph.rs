//! Directed capacitated graphs used as the network model.
//!
//! The paper models the network as `G = (V, E, c)` where `c : E -> R+` assigns
//! capacities to edges (§3 of the paper).  All topologies in the evaluation are
//! symmetric (every physical link carries traffic in both directions), so the
//! generators in [`crate::generators`] insert one directed edge per direction.

use std::fmt;

/// Index of a node in a [`Graph`].
///
/// Nodes are dense integers in `0..graph.num_nodes()`; we use a newtype so that
/// node indices, edge indices and path indices cannot be confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a directed edge in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl NodeId {
    /// Raw index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Raw index of the edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node of the edge.
    pub src: NodeId,
    /// Destination node of the edge.
    pub dst: NodeId,
    /// Capacity of the edge (same unit as traffic demands, e.g. Gbps).
    pub capacity: f64,
}

/// Errors returned when constructing or mutating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node index that does not exist.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge had a non-positive or non-finite capacity.
    InvalidCapacity,
    /// A self loop (src == dst) was inserted; the TE model never uses them.
    SelfLoop {
        /// The node on which the self loop was attempted.
        node: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node index {node} out of range (graph has {num_nodes} nodes)")
            }
            GraphError::InvalidCapacity => write!(f, "edge capacity must be positive and finite"),
            GraphError::SelfLoop { node } => write!(f, "self loop on node {node} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed, capacitated multigraph.
///
/// The graph is append-only: nodes are created up front and edges are added
/// with [`Graph::add_edge`] / [`Graph::add_bidirectional`].  Adjacency lists are
/// maintained incrementally so that shortest-path computations are cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// Outgoing edges per node.
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edges per node.
    in_edges: Vec<Vec<EdgeId>>,
    /// Optional human-readable name (e.g. "GEANT").
    name: String,
}

impl Graph {
    /// Creates a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        Graph {
            num_nodes,
            edges: Vec::new(),
            out_edges: vec![Vec::new(); num_nodes],
            in_edges: vec![Vec::new(); num_nodes],
            name: String::new(),
        }
    }

    /// Creates a named graph with `num_nodes` nodes and no edges.
    pub fn named(name: impl Into<String>, num_nodes: usize) -> Self {
        let mut g = Graph::new(num_nodes);
        g.name = name.into();
        g
    }

    /// Human-readable name of the topology ("" if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Iterator over `(EdgeId, &Edge)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// The edge with the given id.
    ///
    /// # Panics
    /// Panics if the edge id is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Capacity of the edge with the given id.
    #[inline]
    pub fn capacity(&self, id: EdgeId) -> f64 {
        self.edges[id.0].capacity
    }

    /// Vector of all edge capacities, indexed by `EdgeId`.
    pub fn capacities(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.capacity).collect()
    }

    /// Smallest edge capacity in the graph, or `None` if the graph has no edges.
    pub fn min_capacity(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.capacity)
            .min_by(|a, b| a.partial_cmp(b).expect("capacities are finite"))
    }

    /// Outgoing edges of a node.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.0]
    }

    /// Incoming edges of a node.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.0]
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.0].len()
    }

    /// Adds a directed edge and returns its id.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
    ) -> Result<EdgeId, GraphError> {
        if src.0 >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange { node: src.0, num_nodes: self.num_nodes });
        }
        if dst.0 >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange { node: dst.0, num_nodes: self.num_nodes });
        }
        if src == dst {
            return Err(GraphError::SelfLoop { node: src.0 });
        }
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(GraphError::InvalidCapacity);
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, capacity });
        self.out_edges[src.0].push(id);
        self.in_edges[dst.0].push(id);
        Ok(id)
    }

    /// Adds two directed edges, one in each direction, both with `capacity`.
    ///
    /// Returns the ids of the `(src -> dst, dst -> src)` edges.
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let fwd = self.add_edge(a, b, capacity)?;
        let bwd = self.add_edge(b, a, capacity)?;
        Ok((fwd, bwd))
    }

    /// Finds the id of a directed edge between two nodes, if one exists.
    ///
    /// If several parallel edges exist, the first inserted one is returned.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges[src.0].iter().copied().find(|&e| self.edges[e.0].dst == dst)
    }

    /// Returns `true` if there is at least one directed edge `src -> dst`.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Multiplies every capacity by `factor` (used to normalize capacities so
    /// the smallest link is `1.0`, as in Figure 8 of the paper).
    pub fn scale_capacities(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive");
        for e in &mut self.edges {
            e.capacity *= factor;
        }
    }

    /// All ordered source-destination pairs `(s, d)` with `s != d`.
    pub fn sd_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::with_capacity(self.num_nodes * self.num_nodes.saturating_sub(1));
        for s in 0..self.num_nodes {
            for d in 0..self.num_nodes {
                if s != d {
                    pairs.push((NodeId(s), NodeId(d)));
                }
            }
        }
        pairs
    }

    /// Checks that every ordered pair of distinct nodes is connected by a
    /// directed path.  Useful as a sanity check for generated topologies.
    pub fn is_strongly_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        // Strong connectivity <=> every node reachable from node 0 in G and in
        // the reverse graph.
        self.reachable_from(NodeId(0), false) == self.num_nodes
            && self.reachable_from(NodeId(0), true) == self.num_nodes
    }

    fn reachable_from(&self, start: NodeId, reverse: bool) -> usize {
        let mut seen = vec![false; self.num_nodes];
        let mut stack = vec![start];
        seen[start.0] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            let edges = if reverse { &self.in_edges[n.0] } else { &self.out_edges[n.0] };
            for &eid in edges {
                let e = &self.edges[eid.0];
                let next = if reverse { e.src } else { e.dst };
                if !seen[next.0] {
                    seen[next.0] = true;
                    stack.push(next);
                }
            }
        }
        count
    }

    /// Sum of all edge capacities (useful for normalizing gravity-model traffic).
    pub fn total_capacity(&self) -> f64 {
        self.edges.iter().map(|e| e.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::named("triangle", 3);
        g.add_bidirectional(NodeId(0), NodeId(1), 2.0).unwrap();
        g.add_bidirectional(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_bidirectional(NodeId(0), NodeId(2), 2.0).unwrap();
        g
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_strongly_connected());
        assert_eq!(g.name(), "triangle");
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(g.add_edge(NodeId(0), NodeId(0), 1.0), Err(GraphError::SelfLoop { .. })));
        assert_eq!(g.add_edge(NodeId(0), NodeId(1), 0.0), Err(GraphError::InvalidCapacity));
        assert_eq!(g.add_edge(NodeId(0), NodeId(1), f64::NAN), Err(GraphError::InvalidCapacity));
        assert_eq!(g.add_edge(NodeId(0), NodeId(1), -3.0), Err(GraphError::InvalidCapacity));
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = triangle();
        for (id, e) in g.edges() {
            assert!(g.out_edges(e.src).contains(&id));
            assert!(g.in_edges(e.dst).contains(&id));
        }
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn find_edge_works() {
        let g = triangle();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.edge(e).src, NodeId(0));
        assert_eq!(g.edge(e).dst, NodeId(1));
        // A pair with no edge must return None.
        let g2 = Graph::new(3);
        assert!(g2.find_edge(NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn capacity_normalization() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 40.0).unwrap();
        let mut n = g.clone();
        n.scale_capacities(1.0 / g.min_capacity().unwrap());
        assert_eq!(n.min_capacity(), Some(1.0));
        assert!((n.capacity(EdgeId(1)) - 4.0).abs() < 1e-12);
        // Original graph untouched.
        assert_eq!(g.min_capacity(), Some(10.0));
    }

    #[test]
    fn sd_pairs_count() {
        let g = triangle();
        assert_eq!(g.sd_pairs().len(), 6);
        assert!(g.sd_pairs().iter().all(|(s, d)| s != d));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::new(4);
        g.add_bidirectional(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_bidirectional(NodeId(2), NodeId(3), 1.0).unwrap();
        assert!(!g.is_strongly_connected());
    }
}
