//! Golden bits of the series LP, recorded before the eta file became one flat
//! arena and held fixed since; the fleet-shard series was recorded before
//! BTRAN, pricing and the dual ratio row started running over the support of
//! the multipliers.
//!
//! Both rewrites argued that no pivot, reinversion or floating-point result
//! of the simplex changes — only what a pivot costs.  These constants are the
//! proof: for every solve of three series they pin the pivot counts of both
//! phases, the reinversion count, whether the warm basis was accepted, and an
//! FNV hash over the bits of the returned split ratios.  The 80-ToR bursty
//! fabric is the `lp_monolith` program (all phase 2, dense update etas,
//! rejected bases falling to the seeded crash).  Shard 0 of the 512-ToR
//! `dc_fleet_lp` fleet accepts its warm basis on almost every solve and
//! dual-repairs it to the optimum in 50–130 pivots.  GEANT under
//! desensitization bounds has a warm basis accepted on nearly every solve and
//! carries sensitivity rows.

mod common;

use figret_solvers::{desensitization_bounds, DesensitizationSettings, MluTemplate};
use figret_te::PathSet;
use figret_topology::{Topology, TopologySpec};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv_bits(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One solve: `(phase1_iterations, phase2_iterations, refactorizations,
/// warm_started, FNV of the ratios)`.
type Golden = (usize, usize, usize, bool, u64);

fn replay(mut template: MluTemplate, paths: &PathSet, series: &[Vec<f64>]) -> Vec<Golden> {
    series
        .iter()
        .map(|demand| {
            let (config, stats) = template.solve(paths, demand).expect("series LP must solve");
            (
                stats.phase1_iterations,
                stats.phase2_iterations,
                stats.refactorizations,
                stats.warm_started,
                fnv_bits(config.ratios()),
            )
        })
        .collect()
}

/// Compares solve by solve; a failure prints the whole run as table rows.
fn assert_golden(name: &str, got: &[Golden], golden: &[Golden]) {
    let rows: String = got
        .iter()
        .map(|(p1, p2, refactors, warm, hash)| {
            format!("\n    ({p1}, {p2}, {refactors}, {warm}, {hash:#018x}),")
        })
        .collect();
    for (t, (g, want)) in got.iter().zip(golden).enumerate() {
        assert_eq!(g, want, "{name}, solve {t}; the run:{rows}");
    }
    assert_eq!(got.len(), golden.len(), "{name}; the run:{rows}");
}

const BURSTY_FABRIC: [Golden; 60] = [
    (1, 342, 14, false, 0xe3a3e6864b0128e2),
    (1, 148, 7, false, 0x6066f533e62fa2ef),
    (1, 92, 5, false, 0x20870275ee83bf70),
    (1, 316, 14, false, 0x56248e7ebc4758bc),
    (1, 42, 3, false, 0x7ec0d46038c25646),
    (1, 44, 3, false, 0xdc47b3904ffc09f8),
    (1, 181, 9, false, 0x6341455585f0b998),
    (1, 182, 9, false, 0x8537f8d6fc96df46),
    (1, 157, 8, false, 0x4c95b3af8f11870d),
    (1, 30, 3, false, 0x717682ababa80f22),
    (1, 175, 8, false, 0xd9906931dc7d0aa1),
    (1, 90, 5, false, 0xa4e0a92a93e707c6),
    (1, 181, 9, false, 0x7e90686b405c6ad9),
    (1, 46, 3, false, 0x3c451e8c206087d0),
    (1, 74, 4, false, 0x0f612e09f5e054a2),
    (1, 201, 9, false, 0x20bc7ca4b24e67b1),
    (1, 194, 9, false, 0x2f301fb387af943c),
    (1, 172, 8, false, 0x4d202083a5a8ca40),
    (1, 150, 7, false, 0x3472b84761efa9cf),
    (1, 126, 6, false, 0x566cd3f40f09eab3),
    (1, 25, 3, false, 0x17613a2855f3b1e7),
    (1, 112, 6, false, 0x6ffa2dca01f70a0e),
    (1, 174, 8, false, 0x142435835f7dd30b),
    (1, 62, 4, false, 0x6dd8ee17819d6c9e),
    (1, 200, 9, false, 0x84c96f184690964c),
    (1, 145, 7, false, 0x827d02ca122c93f7),
    (1, 60, 4, false, 0x045dac0eee430a45),
    (1, 187, 9, false, 0xf223e0f06b3ad1c3),
    (1, 168, 8, false, 0x9412bcd07fb28278),
    (1, 174, 8, false, 0xb871888bc33f3cba),
    (1, 186, 9, false, 0xbff2426d2b98a73f),
    (1, 149, 7, false, 0x37f0234638e68c87),
    (1, 144, 7, false, 0x00532fd7c2366a10),
    (1, 105, 6, false, 0x32aab2515f5235a2),
    (1, 212, 10, false, 0x1d9b97052c603c82),
    (1, 198, 9, false, 0x88589981006b2920),
    (1, 209, 10, false, 0x0ac98eec052ec772),
    (1, 84, 5, false, 0x65041b95c4bb1cab),
    (1, 152, 7, false, 0x3ccb91b057c30cb6),
    (1, 164, 8, false, 0x5401e6954d0b0c29),
    (1, 231, 11, false, 0xcec639ad68042164),
    (1, 95, 5, false, 0x4f841cffc0b20bd7),
    (1, 204, 10, false, 0x2099dfcc309b0c4f),
    (1, 158, 8, false, 0x8c676a41dde97222),
    (1, 189, 9, false, 0x204d8ccef9a1d5d6),
    (1, 160, 8, false, 0xc22505e62537e7ec),
    (1, 211, 10, false, 0x95c8a4bde409c67a),
    (1, 206, 10, false, 0xba6cb8f8984f0cf3),
    (1, 144, 7, false, 0xac9cccb9cc1d9f23),
    (1, 48, 3, false, 0x6e29456ee55087a9),
    (1, 208, 10, false, 0x1b8a07446ffb9ebe),
    (1, 152, 7, false, 0x4ee2b3891bda176f),
    (1, 231, 11, false, 0x1f855fd363a7370f),
    (1, 107, 6, false, 0x79309cf6f2c46958),
    (1, 92, 5, false, 0xd127e605a2bb0ad7),
    (1, 142, 7, false, 0xfc5204c3d566d928),
    (1, 209, 10, false, 0x66e62975645f2713),
    (1, 87, 5, false, 0x7e4468ce28d43502),
    (1, 193, 9, false, 0x9128b57fcf198f6f),
    (1, 167, 8, false, 0x25b3a2e035fad582),
];

const GEANT_DESENSITIZATION: [Golden; 24] = [
    (1477, 349, 15, false, 0x9068de8a87dde5ad),
    (4, 0, 1, true, 0x42c91f2bfbdb9e1e),
    (20, 0, 1, true, 0xa8a58f9e0dde134c),
    (13, 0, 1, true, 0x4246845e312cbf6e),
    (28, 0, 1, true, 0xc051bbe94c2afbf4),
    (9, 0, 1, true, 0x75fc705ffe50fad0),
    (38, 0, 1, true, 0x85e6006a256736dd),
    (27, 0, 1, true, 0x1949eaf6e93395d7),
    (9, 0, 1, true, 0x3f54c3a685ef6f27),
    (5, 0, 1, true, 0x8cb45d54ef47535b),
    (7, 0, 1, true, 0x6b83dade096849d3),
    (9, 0, 1, true, 0x7c23773096894e35),
    (17, 0, 1, true, 0x2287976417b69a13),
    (21, 0, 1, true, 0xc306997af6852e48),
    (16, 0, 1, true, 0x614d069456094e69),
    (16, 0, 1, true, 0xd78d04068ba99058),
    (17, 0, 1, true, 0x577c1915006bdf2f),
    (5, 0, 1, true, 0xb41af6ce2fb818b9),
    (7, 0, 1, true, 0x6a0e16f71b098b8b),
    (6, 0, 1, true, 0x0653601e7cb50985),
    (17, 0, 1, true, 0x1f32df0b1b219dab),
    (9, 0, 1, true, 0x23eb7d211f02ecae),
    (5, 0, 1, true, 0xff469dc3367c126a),
    (24, 0, 1, true, 0x7601da82cf6d9ec2),
];

#[test]
fn bursty_fabric_series_reproduces_the_recorded_bits() {
    let (paths, columns) = common::bursty_fabric(60);
    let got = replay(MluTemplate::new(&paths), &paths, &columns);
    assert_golden("bursty fabric", &got, &BURSTY_FABRIC);
}

const FLEET_SHARD: [Golden; 30] = [
    (1, 84, 5, false, 0xed3d26fff84c8d4e),
    (90, 0, 1, true, 0x54e02d2b4f17c284),
    (84, 0, 1, true, 0xe4ff97cbc0a042a6),
    (85, 0, 1, true, 0x233b3fe9c15b7335),
    (102, 0, 1, true, 0x7feb5c5f03c79902),
    (125, 0, 1, true, 0x15ab657ad96635f5),
    (103, 0, 1, true, 0x8158a9224cb8ccda),
    (1, 62, 5, false, 0x30891f5f74942941),
    (66, 0, 1, true, 0x6f2d137e32a9cf52),
    (89, 0, 1, true, 0x7855dfb31e914dac),
    (58, 0, 1, true, 0x35f5b618ffeb6e5d),
    (79, 0, 1, true, 0x230847a6c47fb0ca),
    (88, 0, 1, true, 0xad3022ff49033c8e),
    (109, 0, 1, true, 0x5facf2b3e3f55b28),
    (98, 0, 1, true, 0x388c80ded99d5230),
    (65, 0, 1, true, 0x7f04b79473bbe6f7),
    (82, 0, 1, true, 0x2bbbf9baabc905ea),
    (75, 0, 1, true, 0x0d7be5a1f125abac),
    (92, 0, 1, true, 0xe151873dc8defcec),
    (71, 0, 1, true, 0xa6655d960cd2ee6f),
    (111, 0, 1, true, 0xacb59c92d21eec38),
    (68, 0, 1, true, 0x0cfcd250106bc7b6),
    (81, 0, 1, true, 0x3976dcc447e789a8),
    (84, 0, 1, true, 0x029f65e74f53ad83),
    (122, 0, 1, true, 0x02ff2110f918b695),
    (71, 0, 1, true, 0xf79adc9a9f49350d),
    (56, 0, 1, true, 0xfc9aa1bc49b572de),
    (79, 0, 1, true, 0x45faa92e7f0a4e91),
    (91, 0, 1, true, 0x44aa9f2218f0d755),
    (112, 0, 1, true, 0xf6e172be15f43b0a),
];

#[test]
fn fleet_shard_series_reproduces_the_recorded_bits() {
    let (paths, columns) = common::fleet_shard(30);
    let got = replay(MluTemplate::new(&paths), &paths, &columns);
    assert_golden("fleet shard", &got, &FLEET_SHARD);
}

#[test]
fn geant_desensitization_series_reproduces_the_recorded_bits() {
    let geant = TopologySpec::full_scale(Topology::Geant).build();
    let paths = PathSet::k_shortest(&geant, 3);
    let trace = wan_trace(&geant, &WanTrafficConfig { num_snapshots: 24, ..Default::default() });
    let series: Vec<Vec<f64>> = trace.matrices().iter().map(|d| d.flatten_pairs()).collect();
    let bounds = desensitization_bounds(&paths, &DesensitizationSettings::default());
    let template = MluTemplate::with_options(&paths, Some(bounds), None);
    let got = replay(template, &paths, &series);
    assert_golden("GEANT desensitization", &got, &GEANT_DESENSITIZATION);
}
