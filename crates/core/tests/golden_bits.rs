//! Golden bits of the trainer, recorded at the commit *before* the
//! tape-reuse rewrite (PR 18) and held fixed since.
//!
//! The trainer's contract is that a seed determines every trained weight to
//! the last bit, and PR 18 rebuilt everything underneath it — worker tapes,
//! the backward pass, the dense kernels, the batch reduction, the Adam step —
//! on the argument that no floating-point operation or its order changed.
//! These constants are the proof: for the PoD-DB fixture they pin the bit
//! pattern of every epoch's `(mean_loss, mean_mlu, mean_penalty)` and an FNV
//! hash over the bits of the trained model's predicted ratios, at batch sizes
//! 1, 8 and 20 (a batch that is not a multiple of the microbatch), with and
//! without the robustness term, through both `WindowDataset` constructors
//! (`from_trace` and `from_columns`, each followed by `predict_flat`).  Any
//! reordered sum, fused multiply-add, dropped `+ 0.0` or thread-dependent
//! reduction fails them.

use figret::{FigretConfig, FigretModel, TealLikeModel};
use figret_te::PathSet;
use figret_topology::{Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{per_pair_variance_range, DemandMatrix, TrainTestSplit, WindowDataset};

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

/// `(batch_size, robustness_weight, per-epoch (loss, mlu, penalty) bits,
/// FNV of the predicted ratios)`, `fast_test()` otherwise (4 epochs).
type Golden = (usize, f64, [[u64; 3]; 4], u64);

const GOLDEN: [Golden; 6] = [
    (
        1,
        0.0,
        [
            [0x3fe7162d3c41c95e, 0x3fe7162d3c41c95e, 0x0],
            [0x3fe53353feb1b97d, 0x3fe53353feb1b97d, 0x0],
            [0x3fe42f6b7d10cf16, 0x3fe42f6b7d10cf16, 0x0],
            [0x3fe356a3e4c964bc, 0x3fe356a3e4c964bc, 0x0],
        ],
        0x5d4b37888a2a01a5,
    ),
    (
        1,
        1.0,
        [
            [0x3fe77708e3942544, 0x3fe711d823290b1b, 0x3f894c301ac68a87],
            [0x3fe59b0f8a0f7e8f, 0x3fe5251aec22ff53, 0x3f8d7d277b1fce3d],
            [0x3fe4bf619c6b92a0, 0x3fe437990e65d1fa, 0x3f90f911c0b814cd],
            [0x3fe42313c056e477, 0x3fe3856cb07b5170, 0x3f93b4e1fb726067],
        ],
        0xe4c07f21af132f1f,
    ),
    (
        8,
        0.0,
        [
            [0x3fe8365d088fcf77, 0x3fe8365d088fcf77, 0x0],
            [0x3fe74cf73a880d58, 0x3fe74cf73a880d58, 0x0],
            [0x3fe6fc00a2231ebb, 0x3fe6fc00a2231ebb, 0x0],
            [0x3fe6ad9c37a65b59, 0x3fe6ad9c37a65b59, 0x0],
        ],
        0x90c91649a01ce686,
    ),
    (
        8,
        1.0,
        [
            [0x3fe897391f878e7a, 0x3fe83595e0721b7a, 0x3f8868cfc55cc03f],
            [0x3fe7a5eea338fe33, 0x3fe742d5ab40f4e9, 0x3f88c63dfe025247],
            [0x3fe759d8eaca64df, 0x3fe6f6064f17c4c1, 0x3f88f4a6eca8074c],
            [0x3fe708fdddb47944, 0x3fe6a25b8f054a0a, 0x3f89a893abcbce6b],
        ],
        0x9d60054e12905be4,
    ),
    (
        20,
        0.0,
        [
            [0x3fe8e02559385cd6, 0x3fe8e02559385cd6, 0x0],
            [0x3fe7b05dd661b419, 0x3fe7b05dd661b419, 0x0],
            [0x3fe7565a709bd528, 0x3fe7565a709bd528, 0x0],
            [0x3fe7398ae1b77893, 0x3fe7398ae1b77893, 0x0],
        ],
        0xdd828a87a80f0546,
    ),
    (
        20,
        1.0,
        [
            [0x3fe941c0eaa1eeab, 0x3fe8dfde07b16eea, 0x3f8878b8bc1ff058],
            [0x3fe811538c1b4e7d, 0x3fe7aff9d79f7db3, 0x3f88566d1ef432f0],
            [0x3fe7b96f02500b57, 0x3fe7564cb1f89d9e, 0x3f88c89415db6e52],
            [0x3fe79dfff3cdbc41, 0x3fe73ada53aeefde, 0x3f88c96807b31928],
        ],
        0x793a41e191a2d1a6,
    ),
];

fn flatten(matrices: &[DemandMatrix]) -> Vec<Vec<f64>> {
    matrices.iter().map(DemandMatrix::flatten_pairs).collect()
}

fn run(batch_size: usize, robustness_weight: f64, columns: bool) -> ([[u64; 3]; 4], u64) {
    let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let paths = PathSet::k_shortest(&pod, 3);
    let trace = pod_trace(&pod, &PodTrafficConfig { num_snapshots: 120, ..Default::default() });
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let variances = per_pair_variance_range(&trace, split.train.clone());
    let config = FigretConfig { batch_size, robustness_weight, ..FigretConfig::fast_test() };
    let h = config.history_window;
    let mut model = FigretModel::new(&paths, &variances, config);

    let t = trace.len() - 1;
    let report = if columns {
        let train = flatten(&trace.matrices()[split.train.clone()]);
        model.train(&WindowDataset::from_columns(h, train))
    } else {
        model.train(&WindowDataset::from_trace(&trace, h, split.train.clone()))
    };
    let predicted = model.predict_flat(&paths, &flatten(&trace.matrices()[t - h..t]));
    let mut epochs = [[0u64; 3]; 4];
    assert_eq!(report.epochs.len(), epochs.len());
    for (bits, e) in epochs.iter_mut().zip(&report.epochs) {
        *bits = [e.mean_loss.to_bits(), e.mean_mlu.to_bits(), e.mean_penalty.to_bits()];
    }
    (epochs, fnv_bits(predicted.ratios()))
}

/// `TealLikeModel::train` on the same fixture (3 epochs, `fast_test()`
/// otherwise): per-epoch `(mean_loss, mean_mlu)` bits and the FNV of one
/// prediction's ratios, recorded at the commit before the columnar
/// `WindowDataset` (PR 20) re-indexed TEAL's "history := target" samples.
const TEAL_GOLDEN: ([[u64; 2]; 3], u64) = (
    [
        [0x3fe7aa0df75dfcdc, 0x3fe7aa0df75dfcdc],
        [0x3fe74984923e1139, 0x3fe74984923e1139],
        [0x3fe72bca092d7b38, 0x3fe72bca092d7b38],
    ],
    0xc27a8759069be3c2,
);

#[test]
fn teal_trainer_reproduces_the_recorded_bits() {
    let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let paths = PathSet::k_shortest(&pod, 3);
    let trace = pod_trace(&pod, &PodTrafficConfig { num_snapshots: 120, ..Default::default() });
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let config = FigretConfig { epochs: 3, ..FigretConfig::fast_test() };
    let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
    let mut teal = TealLikeModel::new(&paths, config);
    let report = teal.train(&dataset);
    let epochs: Vec<[u64; 2]> =
        report.epochs.iter().map(|e| [e.mean_loss.to_bits(), e.mean_mlu.to_bits()]).collect();
    let predicted = teal
        .into_model()
        .predict_flat(&paths, &flatten(&trace.matrices()[trace.len() - 2..trace.len() - 1]));
    let got = (epochs, fnv_bits(predicted.ratios()));
    assert_eq!(got, (TEAL_GOLDEN.0.to_vec(), TEAL_GOLDEN.1), "{got:#x?}");
}

#[test]
fn trainer_reproduces_the_recorded_bits() {
    for (batch_size, robustness_weight, epochs, ratios_hash) in GOLDEN {
        for columns in [false, true] {
            let (got_epochs, got_hash) = run(batch_size, robustness_weight, columns);
            assert_eq!(
                (got_epochs, got_hash),
                (epochs, ratios_hash),
                "batch_size {batch_size}, robustness_weight {robustness_weight}, columns {columns}: \
                 ({batch_size}, {robustness_weight:?}, {got_epochs:#x?}, {got_hash:#x})"
            );
        }
    }
}
