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
//! dual-repairs it to the optimum in 40–95 pivots.  GEANT under
//! desensitization bounds has a warm basis accepted on nearly every solve and
//! carries sensitivity rows.
//!
//! The bursty-fabric and fleet-shard tables were re-recorded once, when the
//! simplex stopped admitting the columns of forcing rows: a pair with zero
//! demand no longer has its flows enter the basis, so the pivot path moves
//! and, on a degenerate optimal face, so does the vertex returned.  GEANT's
//! demand has no zero pair, and its table held.

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
    (1, 230, 10, false, 0xef7f14cbf28d6c1b),
    (1, 96, 5, false, 0x43ffa78d0b7d4a51),
    (1, 64, 4, false, 0xc5ddc0f230a04f5f),
    (1, 202, 10, false, 0xa68e63c06ff460b1),
    (1, 26, 3, false, 0x7bcb8af2f07d4d2e),
    (1, 27, 3, false, 0x1d49a47a5457b13c),
    (1, 134, 7, false, 0x1f8887968c08aa05),
    (1, 140, 7, false, 0x7cc038ad84969d8d),
    (1, 125, 6, false, 0x37c18222210051d6),
    (1, 21, 2, false, 0x5d6c53e60349d232),
    (1, 145, 7, false, 0x7270ced6a36e3b61),
    (1, 69, 4, false, 0x68101bd0670b2526),
    (1, 137, 7, false, 0x7f43187136188100),
    (1, 36, 3, false, 0xefb641a3964c450e),
    (1, 59, 4, false, 0xf7f859a24cdd9ba2),
    (1, 139, 7, false, 0x5c6ab4d8bc649c9a),
    (1, 133, 7, false, 0x28229002b828f853),
    (1, 121, 6, false, 0x2218786d35031ffb),
    (1, 116, 6, false, 0x53fbe7b77dae9af8),
    (1, 97, 5, false, 0xec743330983955b2),
    (1, 26, 3, false, 0x2904cc0cdddcd473),
    (1, 94, 5, false, 0x0deec02eed514460),
    (1, 144, 7, false, 0xca1c15b032ab7369),
    (1, 65, 4, false, 0x4c7b510ceee80f96),
    (1, 158, 8, false, 0x3b51ed9462907dd7),
    (1, 105, 6, false, 0x7e84d8e0b7dc63bc),
    (1, 48, 3, false, 0xa674a55fdc015029),
    (1, 137, 7, false, 0x09abee01e9b742ed),
    (1, 125, 6, false, 0x7060392df859c2ab),
    (1, 128, 7, false, 0x9bae168c932e6e25),
    (1, 140, 7, false, 0xe122ecdececfae47),
    (1, 106, 6, false, 0x9c8ef88d014eb01c),
    (1, 108, 6, false, 0x179db479b7b367cb),
    (1, 74, 4, false, 0x5acd5f1ca397b0a0),
    (1, 157, 8, false, 0x0afd922afdd53350),
    (1, 117, 6, false, 0xaff5707bb5f1d114),
    (1, 139, 7, false, 0x331b22820880be6f),
    (1, 76, 4, false, 0xb4f69911a8d3f369),
    (1, 125, 6, false, 0x346a6c794c0f4ae4),
    (1, 127, 7, false, 0x7516ba50845fbaf8),
    (1, 174, 8, false, 0xf83b571b05242989),
    (1, 97, 5, false, 0x4ab34226bc8946b3),
    (1, 150, 7, false, 0x75666149e60b6259),
    (1, 120, 6, false, 0x7175a315817f256a),
    (1, 144, 7, false, 0x70860f3a69c43f94),
    (1, 108, 6, false, 0xa1f9a511a3815e4e),
    (1, 145, 7, false, 0xc2b0783a884b7600),
    (1, 178, 9, false, 0x99aac2e15913f1fe),
    (1, 142, 7, false, 0xdd601736cc43db47),
    (1, 44, 3, false, 0xdf2a6e0f5949b283),
    (1, 161, 8, false, 0x6d83957edd873fd7),
    (1, 129, 7, false, 0x3b9dec9a8c0e0c8f),
    (1, 180, 9, false, 0x2f4aeb63d0bb22de),
    (1, 77, 5, false, 0x5bef3192c44bd563),
    (1, 72, 4, false, 0x3d42d4b92b77e2fa),
    (1, 115, 6, false, 0xfb6a4b1abb3d7f9f),
    (1, 142, 7, false, 0x1c64982b250c07c9),
    (1, 60, 4, false, 0xdf53a564944f0cab),
    (1, 138, 7, false, 0x376fd32b66426fc7),
    (1, 126, 6, false, 0xd9483577c5a257fd),
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
    (1, 75, 4, false, 0x4b044168a97441cf),
    (64, 0, 1, true, 0x28a8305f9fadf088),
    (60, 0, 1, true, 0x14bbfe4018290f8b),
    (59, 0, 1, true, 0x136ab07862154481),
    (76, 0, 1, true, 0x9f17cb838dcfc41a),
    (91, 0, 1, true, 0x8370e47ccca0b6fd),
    (60, 0, 1, true, 0x5b1a3c000c767a49),
    (1, 52, 4, false, 0xfb7a0bcbb26f7eba),
    (49, 0, 1, true, 0xc3fc25b68f7dd0c6),
    (58, 0, 1, true, 0x7f455e1df939e18b),
    (45, 0, 1, true, 0x30631ddec5dc2f48),
    (53, 0, 1, true, 0x50aaa987b85e5f40),
    (68, 0, 1, true, 0x6288364d70635419),
    (66, 0, 1, true, 0x079ce5d1668db08a),
    (73, 0, 1, true, 0xf48b5e2e2a086ab2),
    (48, 0, 1, true, 0x15a2af4511c2afe2),
    (53, 0, 1, true, 0xeaf3c98f29e6f9f7),
    (44, 0, 1, true, 0xf877c20a270f6aa8),
    (48, 0, 1, true, 0x1e21b609db39f2e5),
    (56, 0, 1, true, 0xff643ef281ee3fff),
    (61, 0, 1, true, 0xd79a12ef2c3022cb),
    (47, 0, 1, true, 0xc2b1a3bd39419a32),
    (61, 0, 1, true, 0xe93e5fb02cae955d),
    (56, 0, 1, true, 0x26ed1ed2afa23312),
    (57, 0, 1, true, 0x1b73958ae89c8a78),
    (49, 0, 1, true, 0x6533e8f587a60a1b),
    (42, 0, 1, true, 0xf93e881aad0bc105),
    (55, 0, 1, true, 0x81951ac58169a3bf),
    (63, 0, 1, true, 0x1c6d474f475bf782),
    (61, 0, 1, true, 0x947b5f5b5f9e8ac5),
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
    let series: Vec<Vec<f64>> = trace.snapshots().iter().map(|c| c.values().to_vec()).collect();
    let bounds = desensitization_bounds(&paths, &DesensitizationSettings::default());
    let template = MluTemplate::with_options(&paths, Some(bounds), None);
    let got = replay(template, &paths, &series);
    assert_golden("GEANT desensitization", &got, &GEANT_DESENSITIZATION);
}
