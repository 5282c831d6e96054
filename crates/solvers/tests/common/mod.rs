//! Fixtures shared by the series-LP integration tests.

use std::sync::Arc;

use figret_te::PathSet;
use figret_topology::FabricSpec;
use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
use figret_traffic::{ActivePairs, ShardPlan};

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

/// Shard 0 of the `dc_fleet_lp` scenario: the 512-ToR jellyfish fabric's
/// sampled pair universe cut into eight source blocks, the path set
/// restricted to the first block, and that block's sub-column of each
/// snapshot of the bursty sparse trace.  Consecutive snapshots move few
/// rows, so warm bases are accepted and dual-repaired.
pub fn fleet_shard(snapshots: usize) -> (PathSet, Vec<Vec<f64>>) {
    let fabric = FabricSpec::jellyfish(512).build();
    let nodes = fabric.graph.num_nodes();
    let active = Arc::new(ActivePairs::sample_among(nodes, fabric.num_tors, 8, 7));
    let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
    let plan = ShardPlan::source_blocks(&active, fabric.num_tors, 8);
    let shard = plan.shard(0);
    let (restricted, _) = paths.restrict_to(shard.active());
    let config = TorTrafficConfig { num_snapshots: snapshots, seed: 7, ..Default::default() };
    let trace = tor_trace_sparse(&fabric.graph, &active, &config);
    let columns = trace
        .snapshots()
        .iter()
        .map(|c| {
            let mut column = Vec::with_capacity(shard.len());
            shard.gather_into(c.values(), &mut column);
            column
        })
        .collect();
    (restricted, columns)
}
