//! Fixtures shared by the series-LP integration tests.

use std::sync::Arc;

use figret_te::PathSet;
use figret_topology::FabricSpec;
use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
use figret_traffic::ActivePairs;

/// The `lp_monolith` scenario at test size: an 80-ToR jellyfish fabric, a
/// sampled pair universe and its bursty sparse trace, one demand column per
/// snapshot (`m` = 1845 rows per program).
pub fn bursty_fabric(snapshots: usize) -> (PathSet, Vec<Vec<f64>>) {
    let fabric = FabricSpec::jellyfish(80).build();
    let nodes = fabric.graph.num_nodes();
    let active = Arc::new(ActivePairs::sample_among(nodes, fabric.num_tors, 8, 7));
    let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
    let config = TorTrafficConfig { num_snapshots: snapshots, seed: 7, ..Default::default() };
    let trace = tor_trace_sparse(&fabric.graph, &active, &config);
    let columns = trace.snapshots().iter().map(|c| c.values().to_vec()).collect();
    (paths, columns)
}
