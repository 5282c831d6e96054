//! Golden bits of every synthetic generator: the FNV-1a hash of every f64
//! bit each generator produces for a fixed configuration, recorded once and
//! held fixed.  A refactor of a generator's body (its columnar assembly, its
//! pair index, its densification) must leave these hashes unchanged.
//!
//! ```sh
//! cargo test --release -p figret_traffic --test generator_golden_bits
//! ```

use figret_topology::{Topology, TopologySpec};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};
use figret_traffic::{
    gravity_trace, pfabric_trace, pod_trace, tor_trace, ClusterFlavor, GravityConfig, OnlineStream,
    OnlineStreamConfig, PFabricConfig, PodTrafficConfig, SparseDemandStream, TorTrafficConfig,
    TrafficTrace,
};

const SNAPSHOTS: usize = 40;

fn fnv(hash: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every entry of every snapshot matrix, diagonal included.
fn trace_bits(trace: &TrafficTrace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for t in 0..trace.len() {
        let m = trace.matrix(t);
        for s in 0..m.num_nodes() {
            let row: Vec<f64> = (0..m.num_nodes()).map(|d| m.get(s, d)).collect();
            fnv(&mut hash, &row);
        }
    }
    hash
}

#[test]
fn generators_reproduce_the_recorded_bits() {
    let geant = TopologySpec::full_scale(Topology::Geant).build();
    let wan =
        wan_trace(&geant, &WanTrafficConfig { num_snapshots: SNAPSHOTS, ..Default::default() });
    let wan = trace_bits(&wan);

    let pod_db = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let db = pod_trace(
        &pod_db,
        &PodTrafficConfig {
            num_snapshots: SNAPSHOTS,
            flavor: ClusterFlavor::Db,
            ..Default::default()
        },
    );
    let db = trace_bits(&db);

    let pod_web = TopologySpec::full_scale(Topology::MetaWebPod).build();
    let web = pod_trace(
        &pod_web,
        &PodTrafficConfig {
            num_snapshots: SNAPSHOTS,
            flavor: ClusterFlavor::Web,
            seed: 5,
            ..Default::default()
        },
    );
    let web = trace_bits(&web);

    let tor_db = TopologySpec::reduced(Topology::MetaDbTor).build();
    let tor =
        tor_trace(&tor_db, &TorTrafficConfig { num_snapshots: SNAPSHOTS, ..Default::default() });
    let tor = trace_bits(&tor);

    let us_carrier = TopologySpec::reduced(Topology::UsCarrier).build();
    let gravity = gravity_trace(
        &us_carrier,
        &GravityConfig { num_snapshots: SNAPSHOTS, ..Default::default() },
    );
    let gravity = trace_bits(&gravity);

    let pfabric = pfabric_trace(&PFabricConfig { num_snapshots: SNAPSHOTS, ..Default::default() });
    let pfabric = trace_bits(&pfabric);

    let mut stream = OnlineStream::from_graph(&geant, 0.25, OnlineStreamConfig::default());
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..50 {
        let column = stream.next_column().expect("an online stream is unbounded");
        fnv(&mut hash, column.values());
    }
    let got = [wan, db, web, tor, gravity, pfabric, hash];
    let expected = [
        0xfb0a_a97d_1eeb_3754, // wan
        0x930d_73f5_afaf_e261, // pod DB
        0x5ea3_a59e_56f9_515a, // pod WEB
        0xc925_c822_7ef5_311e, // ToR DB
        0x8585_c4fd_9859_3d4a, // gravity
        0x1f25_75f7_8007_2883, // pFabric
        0x2859_e2cd_f2fe_06a1, // online stream
    ];
    assert_eq!(got, expected);
}
