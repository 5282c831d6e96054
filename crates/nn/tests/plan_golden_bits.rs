//! Golden bits of the compiled inference plan, recorded before its two
//! serving kernels started interleaving their sums and held fixed since.
//!
//! The rewrite argued that every output of `affine_dot` and `affine` is the
//! same IEEE sum in the same order as before — only how many sums are in
//! flight at once changed.  These constants are the proof at the two shapes
//! the benchmark serves: for each plan they pin an FNV hash over the bits of
//! the whole output row and the exact bits of a few outputs.
//!
//! - GEANT's plan, 6072 → 128×5 → 1518 with 506 three-path segments, as
//!   `wan_learned` serves it: its first layer is transposed and splits its
//!   outputs across `rayon::join` (the dot kernel), and its other five layers
//!   run the axpy kernel on ReLU outputs, a share of them exact zeros.
//! - The recovery drill's plan, 48 → 32 → 32 → 36 with 12 three-path
//!   segments: every layer runs inline, below both kernels' block widths in
//!   places.
//!
//! The input is a fixed ramp in which every third value is an exact zero and
//! one is `-0.0`, as a demand column with silent pairs.  CI runs this file at
//! 1, 2 and 4 threads, so GEANT's split runs inline and on the pool.

use std::ops::Range;

use figret_nn::{Graph, InferencePlan, Mlp, MlpConfig, OutputActivation};

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

/// A plan with seeded weights, a sigmoid head normalized over three-path
/// segments and a feature scale of 3.
fn plan(input_dim: usize, hidden: Vec<usize>, output_dim: usize, seed: u64) -> InferencePlan {
    let mut g = Graph::new();
    let mlp = Mlp::new(
        &mut g,
        MlpConfig {
            input_dim,
            hidden,
            output_dim,
            output_activation: OutputActivation::Sigmoid,
            seed,
        },
    );
    g.seal();
    let segments: Vec<Range<usize>> = (0..output_dim / 3).map(|p| 3 * p..3 * p + 3).collect();
    InferencePlan::compile(&g, &mlp, segments, 3.0)
}

/// Every third value an exact zero, value 1 a `-0.0`, the rest a ramp over
/// `[0, 4)`.
fn features(input_dim: usize) -> Vec<f64> {
    (0..input_dim)
        .map(|i| match i {
            1 => -0.0,
            _ if i % 3 == 0 => 0.0,
            _ => ((i * 7919) % 1000) as f64 / 250.0,
        })
        .collect()
}

/// The plan's output row for `features`.
fn forward(plan: &mut InferencePlan, features: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; plan.output_dim()];
    plan.forward(features, &mut out);
    out
}

/// Compares a row to its recorded hash and probes; a failure prints the
/// values to record.
fn assert_golden(name: &str, out: &[f64], hash: u64, probes: &[(usize, u64)]) {
    let got: Vec<(usize, u64)> = probes.iter().map(|&(i, _)| (i, out[i].to_bits())).collect();
    let report = got.iter().map(|(i, b)| format!("({i}, {b:#018x})")).collect::<Vec<_>>();
    assert!(
        fnv_bits(out) == hash && got == probes,
        "{name}: hash {:#018x}, probes [{}]",
        fnv_bits(out),
        report.join(", ")
    );
}

#[test]
fn the_geant_plan_reproduces_the_recorded_bits() {
    let mut plan = plan(6072, vec![128; 5], 1518, 17);
    let out = forward(&mut plan, &features(6072));
    assert_golden(
        "geant",
        &out,
        0x1d96_e2b2_da3d_7108,
        &[(0, 0x3fd5_2694_2000_0000), (757, 0x3fd5_0b69_0000_0000), (1517, 0x3fd5_b042_6000_0000)],
    );
}

#[test]
fn the_drill_plan_reproduces_the_recorded_bits() {
    let mut plan = plan(48, vec![32, 32], 36, 29);
    let out = forward(&mut plan, &features(48));
    assert_golden(
        "drill",
        &out,
        0xfd07_e50a_db94_6f44,
        &[(0, 0x3fd5_cbf6_e000_0000), (17, 0x3fd0_f249_2000_0000), (35, 0x3fd5_e3b7_c000_0000)],
    );
}
