//! Shortest-path primitives (Dijkstra) and Yen's k-shortest simple paths.
//!
//! The paper (§5.1) pre-computes the three shortest paths between every pair of
//! nodes with Yen's algorithm and uses them as the candidate paths for flow
//! allocation.  [`k_shortest_paths`] implements Yen's algorithm over hop count
//! on a breadth-first search ([`HopYen`]); the Dijkstra that supports masking
//! out nodes and edges serves the capacity-aware costs of Räcke-style path
//! selection.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::Path;

/// Edge weight function used by the shortest-path routines.
///
/// The paper uses hop count ("three shortest paths"); inverse-capacity weights
/// are also provided because the Räcke-style path selection penalizes
/// low-capacity links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWeight {
    /// Every edge costs 1 (hop count).
    HopCount,
    /// Every edge costs `1 / capacity`.
    InverseCapacity,
}

impl EdgeWeight {
    /// The cost of the given edge under this weight function.
    pub fn cost(self, graph: &Graph, edge: EdgeId) -> f64 {
        match self {
            EdgeWeight::HopCount => 1.0,
            EdgeWeight::InverseCapacity => 1.0 / graph.capacity(edge),
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the minimum distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path from `src` to `dst` using a custom per-edge cost.
///
/// `banned_nodes[i] == true` removes node `i` (it can still be the source),
/// `banned_edges[e] == true` removes edge `e`.  Returns `None` if `dst` is
/// unreachable under those restrictions.
pub fn dijkstra_with_bans<F>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    cost: F,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Option<Path>
where
    F: Fn(EdgeId) -> f64,
{
    assert_eq!(banned_nodes.len(), graph.num_nodes(), "banned_nodes length mismatch");
    assert_eq!(banned_edges.len(), graph.num_edges(), "banned_edges length mismatch");
    if src == dst {
        return None;
    }
    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: src });

    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > dist[node.index()] {
            continue;
        }
        if node == dst {
            break;
        }
        for &eid in graph.out_edges(node) {
            if banned_edges[eid.index()] {
                continue;
            }
            let edge = graph.edge(eid);
            if banned_nodes[edge.dst.index()] {
                continue;
            }
            let c = cost(eid);
            debug_assert!(c >= 0.0, "edge costs must be non-negative");
            let nd = d + c;
            if nd < dist[edge.dst.index()] {
                dist[edge.dst.index()] = nd;
                prev_edge[edge.dst.index()] = Some(eid);
                heap.push(HeapEntry { dist: nd, node: edge.dst });
            }
        }
    }

    if dist[dst.index()].is_infinite() {
        return None;
    }
    // Reconstruct edge sequence backwards.
    let mut edges_rev = Vec::new();
    let mut cur = dst;
    while cur != src {
        let eid = prev_edge[cur.index()].expect("predecessor exists for reached node");
        edges_rev.push(eid);
        cur = graph.edge(eid).src;
    }
    edges_rev.reverse();
    Path::from_edges(graph, edges_rev)
}

/// Dijkstra shortest path without restrictions.
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId, weight: EdgeWeight) -> Option<Path> {
    let banned_nodes = vec![false; graph.num_nodes()];
    let banned_edges = vec![false; graph.num_edges()];
    dijkstra_with_bans(graph, src, dst, |e| weight.cost(graph, e), &banned_nodes, &banned_edges)
}

/// Yen's algorithm over hop count: up to `k` loop-free shortest paths from
/// `src` to `dst`, ordered by increasing hop count.  This is the paper's
/// candidate path selection (§5.1, k = 3).
///
/// Two deterministic rules fix every tie, so the result is stable across runs
/// (which matters for reproducible experiments):
///
/// * each shortest (and spur) path is the one a search that settles nodes in
///   (hop distance, node index) order finds: a node's predecessor is the first
///   of its in-edges, in the `out_edges` order of the lowest-indexed node one
///   hop closer, so that of parallel edges the first stored one wins;
/// * among the candidate paths of equal hop count, the one with the smallest
///   node sequence is promoted, and of candidates with equal node sequences
///   (parallel edges) the one found first.
///
/// Building a [`HopYen`] once and reusing it for many pairs avoids the
/// per-call scratch allocation.
pub fn k_shortest_paths(graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    HopYen::new(graph).paths(src, dst, k)
}

/// Reusable state for hop-count Yen ([`k_shortest_paths`]) on one graph.
///
/// Each spur search is a level-by-level breadth-first search that reproduces
/// the settle order of a Dijkstra with unit costs and a (distance, node index)
/// heap: each level is expanded in ascending node index, out-edges are walked
/// in stored order, a node's predecessor is fixed when it is first discovered,
/// and the search stops as soon as the destination is discovered (its
/// predecessor chain is final by then).  Visited and banned nodes share one
/// stamped array, so a search clears nothing; the few edges a spur bans are a
/// short list.
#[derive(Debug)]
pub struct HopYen<'g> {
    graph: &'g Graph,
    /// `seen[v] == stamp`: `v` was discovered, or is banned, in this search.
    seen: Vec<u32>,
    stamp: u32,
    /// Edge a discovered node was first reached by.
    prev: Vec<EdgeId>,
    level: Vec<NodeId>,
    next: Vec<NodeId>,
    banned_edges: Vec<EdgeId>,
}

impl<'g> HopYen<'g> {
    /// Scratch sized for `graph`.
    pub fn new(graph: &'g Graph) -> HopYen<'g> {
        let n = graph.num_nodes();
        HopYen {
            graph,
            seen: vec![0; n],
            stamp: 0,
            prev: vec![EdgeId(0); n],
            level: Vec::new(),
            next: Vec::new(),
            banned_edges: Vec::new(),
        }
    }

    /// Up to `k` shortest simple paths from `src` to `dst`; see
    /// [`k_shortest_paths`].
    pub fn paths(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        if k == 0 || src == dst {
            return Vec::new();
        }
        let graph = self.graph;
        self.banned_edges.clear();
        let mut first = Vec::new();
        if !self.search(src, dst, &[], &mut first) {
            return Vec::new();
        }
        let mut result =
            vec![Path::from_edges(graph, first).expect("a breadth-first path is simple")];
        let mut candidates: Vec<Path> = Vec::new();
        let mut edges = Vec::new();

        while result.len() < k {
            let last = &result[result.len() - 1];
            // Spur node ranges over every node of the previous path except the destination.
            for i in 0..last.nodes().len() - 1 {
                let root_nodes = &last.nodes()[..=i];
                // Ban the edge leaving the spur node on every found path that
                // shares this root, so the spur cannot recreate it.
                self.banned_edges.clear();
                for p in &result {
                    if p.nodes().len() > i + 1 && p.nodes()[..=i] == *root_nodes {
                        self.banned_edges.push(p.edges()[i]);
                    }
                }
                // Total path = root edges + spur edges; the root nodes other
                // than the spur node are banned to keep it simple.
                edges.clear();
                edges.extend_from_slice(&last.edges()[..i]);
                let found = self.search(root_nodes[i], dst, &root_nodes[..i], &mut edges);
                if found
                    && !result.iter().any(|p| p.edges() == edges.as_slice())
                    && !candidates.iter().any(|p| p.edges() == edges.as_slice())
                {
                    let total = Path::from_edges(graph, edges.clone());
                    candidates.push(total.expect("a spur avoids the root nodes"));
                }
            }
            // Promote the shortest candidate; ties go to the smaller node
            // sequence, then to the candidate found first.
            let best = (0..candidates.len()).min_by(|&a, &b| {
                let (a, b) = (&candidates[a], &candidates[b]);
                a.len().cmp(&b.len()).then_with(|| a.nodes().cmp(b.nodes()))
            });
            match best {
                Some(best) => result.push(candidates.remove(best)),
                None => break,
            }
        }
        result
    }

    /// Breadth-first search from `src` to `dst` that enters no node of
    /// `banned_nodes` and takes no edge of `self.banned_edges`.  On success
    /// appends the path's edges to `out` and returns `true`.
    fn search(
        &mut self,
        src: NodeId,
        dst: NodeId,
        banned_nodes: &[NodeId],
        out: &mut Vec<EdgeId>,
    ) -> bool {
        let graph = self.graph;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.seen[src.index()] = stamp;
        for node in banned_nodes {
            self.seen[node.index()] = stamp;
        }
        self.level.clear();
        self.level.push(src);
        let mut found = false;
        'levels: while !self.level.is_empty() {
            self.next.clear();
            for &node in &self.level {
                // Every banned edge leaves the spur node, the search's source.
                let banned: &[EdgeId] = if node == src { &self.banned_edges } else { &[] };
                for &eid in graph.out_edges(node) {
                    if banned.contains(&eid) {
                        continue;
                    }
                    let to = graph.edge(eid).dst;
                    if self.seen[to.index()] == stamp {
                        continue;
                    }
                    self.seen[to.index()] = stamp;
                    self.prev[to.index()] = eid;
                    if to == dst {
                        found = true;
                        break 'levels;
                    }
                    self.next.push(to);
                }
            }
            self.next.sort_unstable();
            std::mem::swap(&mut self.level, &mut self.next);
        }
        if found {
            let start = out.len();
            let mut cur = dst;
            while cur != src {
                let eid = self.prev[cur.index()];
                out.push(eid);
                cur = graph.edge(eid).src;
            }
            out[start..].reverse();
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricSpec;
    use crate::failures::random_link_failures;
    use crate::generators::{random_regular, Topology, TopologySpec};
    use proptest::prelude::*;

    /// Diamond: 0 -> 1 -> 3 (short), 0 -> 2 -> 3 (short), 0 -> 3 via 1 and 2 (long).
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 10.0).unwrap(); // e0
        g.add_edge(NodeId(1), NodeId(3), 10.0).unwrap(); // e1
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap(); // e2
        g.add_edge(NodeId(2), NodeId(3), 10.0).unwrap(); // e3
        g.add_edge(NodeId(1), NodeId(2), 10.0).unwrap(); // e4
        g
    }

    /// Yen's algorithm on [`dijkstra_with_bans`] with unit costs: the
    /// implementation [`HopYen`] replaced, kept as its oracle.
    fn dijkstra_yen(graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        if k == 0 || src == dst {
            return Vec::new();
        }
        let cost = |_: EdgeId| 1.0;
        let banned_nodes_none = vec![false; graph.num_nodes()];
        let banned_edges_none = vec![false; graph.num_edges()];
        let first =
            match dijkstra_with_bans(graph, src, dst, cost, &banned_nodes_none, &banned_edges_none)
            {
                Some(p) => p,
                None => return Vec::new(),
            };
        let mut result: Vec<Path> = vec![first];
        let mut candidates: Vec<(f64, Path)> = Vec::new();
        while result.len() < k {
            let last = result.last().expect("result has at least one path").clone();
            let last_nodes = last.nodes().to_vec();
            for i in 0..last_nodes.len() - 1 {
                let spur_node = last_nodes[i];
                let root_nodes = &last_nodes[..=i];
                let mut banned_edges = vec![false; graph.num_edges()];
                let mut banned_nodes = vec![false; graph.num_nodes()];
                for p in result.iter().map(|p| p.nodes()) {
                    if p.len() > i && p[..=i] == *root_nodes {
                        if let Some(next) = p.get(i + 1) {
                            for res in &result {
                                if res.nodes().len() > i + 1
                                    && res.nodes()[..=i] == *root_nodes
                                    && res.nodes()[i + 1] == *next
                                {
                                    banned_edges[res.edges()[i].index()] = true;
                                }
                            }
                        }
                    }
                }
                for node in &root_nodes[..i] {
                    banned_nodes[node.index()] = true;
                }
                let spur =
                    dijkstra_with_bans(graph, spur_node, dst, cost, &banned_nodes, &banned_edges);
                if let Some(spur_path) = spur {
                    let mut edges: Vec<EdgeId> = last.edges()[..i].to_vec();
                    edges.extend_from_slice(spur_path.edges());
                    if let Some(total) = Path::from_edges(graph, edges) {
                        let c = total.weight(cost);
                        let duplicate = result.iter().any(|p| p == &total)
                            || candidates.iter().any(|(_, p)| p == &total);
                        if !duplicate {
                            candidates.push((c, total));
                        }
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.1.nodes().cmp(b.1.nodes()))
            });
            let (_, best) = candidates.remove(0);
            result.push(best);
        }
        result
    }

    #[test]
    fn dijkstra_finds_shortest() {
        let g = diamond();
        let p = shortest_path(&g, NodeId(0), NodeId(3), EdgeWeight::HopCount).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.destination(), NodeId(3));
    }

    #[test]
    fn dijkstra_unreachable_returns_none() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(shortest_path(&g, NodeId(0), NodeId(2), EdgeWeight::HopCount).is_none());
        assert!(shortest_path(&g, NodeId(0), NodeId(0), EdgeWeight::HopCount).is_none());
    }

    #[test]
    fn dijkstra_respects_bans() {
        let g = diamond();
        let mut banned_edges = vec![false; g.num_edges()];
        banned_edges[1] = true; // forbid 1 -> 3
        let banned_nodes = vec![false; g.num_nodes()];
        let p = dijkstra_with_bans(&g, NodeId(0), NodeId(3), |_| 1.0, &banned_nodes, &banned_edges)
            .unwrap();
        assert!(!p.uses_edge(EdgeId(1)));
    }

    #[test]
    fn yen_returns_k_distinct_sorted_paths() {
        let g = diamond();
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(3), 3);
        assert_eq!(paths.len(), 3);
        // Sorted by length.
        assert!(paths[0].len() <= paths[1].len());
        assert!(paths[1].len() <= paths[2].len());
        // Distinct.
        assert_ne!(paths[0], paths[1]);
        assert_ne!(paths[1], paths[2]);
        // Third path must be 0 -> 1 -> 2 -> 3.
        assert_eq!(paths[2].nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // All simple with correct endpoints.
        for p in &paths {
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.destination(), NodeId(3));
        }
    }

    #[test]
    fn yen_handles_fewer_than_k_paths() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let paths = k_shortest_paths(&g, NodeId(0), NodeId(2), 5);
        assert_eq!(paths.len(), 1);
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(2), 0).is_empty());
        assert!(k_shortest_paths(&g, NodeId(2), NodeId(0), 3).is_empty());
    }

    #[test]
    fn inverse_capacity_prefers_fat_links() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(2), 1.0).unwrap(); // direct but thin
        g.add_edge(NodeId(0), NodeId(1), 100.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 100.0).unwrap();
        let hop = shortest_path(&g, NodeId(0), NodeId(2), EdgeWeight::HopCount).unwrap();
        assert_eq!(hop.len(), 1);
        let cap = shortest_path(&g, NodeId(0), NodeId(2), EdgeWeight::InverseCapacity).unwrap();
        assert_eq!(cap.len(), 2);
    }

    /// A copy of `graph` without the given edges; the others keep their order.
    fn without_edges(graph: &Graph, failed: &[EdgeId]) -> Graph {
        let mut g = Graph::new(graph.num_nodes());
        for (id, e) in graph.edges() {
            if !failed.contains(&id) {
                g.add_edge(e.src, e.dst, e.capacity).unwrap();
            }
        }
        g
    }

    /// A bidirectional ring of `n` nodes plus chords, some one-way and some
    /// parallel to an existing edge, and sometimes an isolated node (pairs
    /// with no path).
    fn ring_with_chords(n: usize, chords: &[(usize, usize, usize)], isolated: bool) -> Graph {
        let mut g = Graph::new(n + usize::from(isolated));
        for i in 0..n {
            g.add_bidirectional(NodeId(i), NodeId((i + 1) % n), 10.0).unwrap();
        }
        for &(a, b, one_way) in chords {
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            if a == b {
                continue;
            }
            if one_way == 1 {
                g.add_edge(a, b, 10.0).unwrap();
            } else {
                g.add_bidirectional(a, b, 10.0).unwrap();
            }
        }
        g
    }

    /// Every graph family Yen runs on: rings with chords, random-regular
    /// (Jellyfish) fabrics, two-tier pod fabrics, and reduced Table 1
    /// topologies with a few links failed (some pairs have fewer than k paths).
    fn yen_graph() -> impl Strategy<Value = Graph> {
        let chords = proptest::collection::vec((0usize..12, 0usize..12, 0usize..2), 0..16);
        (0usize..5, 3usize..40, chords, 3usize..6, 0u64..u64::MAX).prop_map(
            |(family, n, chords, degree, seed)| match family {
                0 | 1 => ring_with_chords(n % 12 + 3, &chords, family == 1),
                2 => random_regular("rr", n.max(6), degree, 1.0, seed),
                3 => FabricSpec::two_tier(8 * (2 + n % 3)).build().graph,
                _ => {
                    let g = TopologySpec::reduced(Topology::all()[n % 8]).build();
                    match random_link_failures(&g, 1 + degree % 3, seed) {
                        Some(failed) => without_edges(&g, failed.failed_edges()),
                        None => g,
                    }
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every pair of a small graph and a sample of a large one's, through
        /// one reused [`HopYen`].
        #[test]
        fn hop_yen_matches_the_dijkstra_oracle(
            g in yen_graph(),
            k in 1usize..7,
            picks in proptest::collection::vec((0usize..1000, 0usize..1000), 12),
        ) {
            let n = g.num_nodes();
            let pairs: Vec<(usize, usize)> = if n <= 16 {
                (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect()
            } else {
                picks.into_iter().map(|(s, d)| (s % n, d % n)).collect()
            };
            let mut yen = HopYen::new(&g);
            for (s, d) in pairs {
                let (src, dst) = (NodeId(s), NodeId(d));
                prop_assert_eq!(yen.paths(src, dst, k), dijkstra_yen(&g, src, dst, k));
            }
        }
    }

    #[test]
    fn search_stamps_survive_wraparound() {
        let g = TopologySpec::reduced(Topology::Geant).build();
        let mut yen = HopYen::new(&g);
        yen.stamp = u32::MAX - 3;
        for d in 1..g.num_nodes() {
            assert_eq!(
                yen.paths(NodeId(0), NodeId(d), 3),
                dijkstra_yen(&g, NodeId(0), NodeId(d), 3)
            );
        }
        assert!(yen.stamp < u32::MAX - 3, "the stamp wrapped");
    }
}
