//! Golden bits of the k-shortest path sets, recorded before hop-count Yen
//! moved from a Dijkstra to a breadth-first search and held fixed since.
//!
//! Every candidate path feeds the LP columns, the model's output layer and
//! every MLU, so a changed tie-break anywhere in Yen's algorithm (which of
//! two equal-length spur paths is found, which parallel edge is taken, which
//! equal-cost candidate is promoted) moves bits far downstream.  Each digest
//! is an FNV-1a over, per pair, its path count and, per path, its hop count
//! and edge ids.  The three sets cover a WAN over all pairs, a small
//! random-regular ToR fabric over all pairs, and the `dc_fleet_lp`-shaped
//! 512-ToR Jellyfish sample (8 destinations per source, seed 7).

use figret_te::PathSet;
use figret_topology::{FabricSpec, Topology, TopologySpec};
use figret_traffic::ActivePairs;

/// FNV-1a over the little-endian bytes of each value.
fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(pairs, paths, digest)` of a path set.
fn digest(paths: &PathSet) -> (usize, usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for pair in 0..paths.num_pairs() {
        fnv(&mut hash, paths.num_paths_of_pair(pair) as u64);
        for pi in paths.paths_of_pair(pair) {
            let edges = paths.path(pi).edges();
            fnv(&mut hash, edges.len() as u64);
            for e in edges {
                fnv(&mut hash, e.index() as u64);
            }
        }
    }
    (paths.num_pairs(), paths.num_paths(), hash)
}

#[test]
fn reduced_geant_all_pairs() {
    let g = TopologySpec::reduced(Topology::Geant).build();
    assert_eq!(digest(&PathSet::k_shortest(&g, 3)), (506, 1518, 0xeec9_e899_941e_591b));
}

#[test]
fn reduced_tor_db_all_pairs() {
    let g = TopologySpec::reduced(Topology::MetaDbTor).build();
    assert_eq!(digest(&PathSet::k_shortest(&g, 3)), (552, 1656, 0x2794_e2b0_9246_214c));
}

#[test]
fn jellyfish_512_fleet_sample() {
    let fabric = FabricSpec::jellyfish(512).build();
    let active = ActivePairs::sample_among(fabric.graph.num_nodes(), fabric.num_tors, 8, 7);
    let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
    assert_eq!(digest(&paths), (4096, 12288, 0xf1d2_c3b3_a41d_53f4));
}
