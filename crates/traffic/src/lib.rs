//! # figret-traffic
//!
//! Traffic-matrix substrate for the FIGRET reproduction: demand matrices,
//! traces, synthetic generators for every traffic class of the paper's
//! evaluation (§5.1), traffic statistics, dataset splits and the perturbation
//! models of §5.4.
//!
//! The real GEANT / Meta / pFabric traces are not redistributable; the
//! generators in [`wan`], [`datacenter`], [`pfabric`] and [`gravity`] are
//! calibrated to reproduce the qualitative traffic characteristics the paper
//! reports (per-pair variance heterogeneity, burstiness ordering
//! WAN < PoD < ToR, cosine-similarity bands of Figure 4).  See DESIGN.md §5.
//!
//! # Example
//!
//! ```
//! use figret_topology::{Topology, TopologySpec};
//! use figret_traffic::wan::{wan_trace, WanTrafficConfig};
//! use figret_traffic::stats::cosine_similarity_analysis;
//!
//! let geant = TopologySpec::full_scale(Topology::Geant).build();
//! let trace = wan_trace(&geant, &WanTrafficConfig { num_snapshots: 64, ..Default::default() });
//! let summary = cosine_similarity_analysis(&trace, 12);
//! assert!(summary.median > 0.8);
//! ```

#![warn(missing_docs)]

pub mod datacenter;
pub mod gravity;
pub mod matrix;
pub mod ops;
pub mod perturb;
pub mod pfabric;
pub mod shard;
pub mod sparse;
pub mod split;
pub mod stats;
pub mod stream;
pub mod wan;

pub use datacenter::{
    pod_trace, tor_trace, tor_trace_sparse, ClusterFlavor, PodTrafficConfig, TorTrafficConfig,
};
pub use gravity::{gravity_matrix, gravity_trace, GravityConfig};
pub use matrix::{DemandMatrix, MatrixError, TrafficTrace};
pub use perturb::{gaussian_fluctuation, reverse_by_rank, worst_case_fluctuation};
pub use pfabric::{pfabric_trace, sample_web_search_flow_size, PFabricConfig};
pub use shard::{ShardPlan, ShardUniverse};
pub use sparse::{ActivePairs, SparseDemand, SparseTrace};
pub use split::{TrainTestSplit, WindowDataset};
pub use stats::{
    cosine_similarity_analysis, cosine_similarity_samples, per_pair_std_range, per_pair_variance,
    per_pair_variance_range, percentile, spearman_rank_correlation, DistributionSummary,
};
pub use stream::{
    DriftConfig, FailureStormConfig, FlashCrowdConfig, OnlineStream, OnlineStreamConfig,
    SparseDemandStream, StepShiftConfig, StreamAnnotation,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_matrix() -> impl Strategy<Value = DemandMatrix> {
        (2usize..6).prop_flat_map(|n| {
            proptest::collection::vec(0.0f64..100.0, n * (n - 1))
                .prop_map(move |pairs| DemandMatrix::from_pairs(n, &pairs).unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flatten_roundtrip(m in arbitrary_matrix()) {
            let flat = m.flatten_pairs();
            let back = DemandMatrix::from_pairs(m.num_nodes(), &flat).unwrap();
            prop_assert_eq!(back, m);
        }

        #[test]
        fn cosine_similarity_is_bounded_and_symmetric(a in arbitrary_matrix()) {
            let b = a.scaled(0.5);
            let s = a.cosine_similarity(&b);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s));
            // A positively scaled copy has similarity 1 (unless the matrix is all-zero).
            if a.total() > 0.0 {
                prop_assert!((s - 1.0).abs() < 1e-9);
            }
            prop_assert!((a.cosine_similarity(&b) - b.cosine_similarity(&a)).abs() < 1e-12);
        }

        #[test]
        fn element_max_dominates_both(a in arbitrary_matrix()) {
            let (x, y) = (a.flatten_pairs(), a.scaled(1.7).flatten_pairs());
            let mut m = x.clone();
            ops::max_assign(&mut m, &y);
            for ((x, y), z) in x.into_iter().zip(y).zip(m) {
                prop_assert!(z >= x - 1e-12 && z >= y - 1e-12);
            }
        }

        #[test]
        fn reverse_by_rank_is_a_permutation(v in proptest::collection::vec(0.0f64..1000.0, 1..40)) {
            let r = perturb::reverse_by_rank(&v);
            let mut a = v.clone();
            let mut b = r.clone();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(a, b);
        }

        #[test]
        fn spearman_is_bounded(v in proptest::collection::vec(0.0f64..100.0, 2..30)) {
            let w: Vec<f64> = v.iter().map(|x| x * 2.0 + 1.0).collect();
            let r = stats::spearman_rank_correlation(&v, &w);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }

        #[test]
        fn sparse_dense_roundtrip_is_exact(m in arbitrary_matrix()) {
            let active = std::sync::Arc::new(ActivePairs::from_matrix_support(&m));
            let s = SparseDemand::from_matrix(&m, &active);
            prop_assert_eq!(s.to_matrix(), m);
        }

        #[test]
        fn sparse_ops_match_dense_ops(a in arbitrary_matrix()) {
            // Derive a second matrix deterministically so both operands share
            // sparsity structure challenges (scaled keeps support identical).
            let b = a.scaled(1.15);
            let all = std::sync::Arc::new(ActivePairs::all(a.num_nodes()));
            let sa = SparseDemand::from_matrix(&a, &all);
            let sb = SparseDemand::from_matrix(&b, &all);

            prop_assert!((sa.total() - a.total()).abs() <= 1e-12 * (1.0 + a.total().abs()));
            prop_assert!((sa.max_entry() - a.max_entry()).abs() <= 1e-12);
            prop_assert!(
                (sa.cosine_similarity(&sb) - a.cosine_similarity(&b)).abs() <= 1e-12
            );

            prop_assert_eq!(sb.scaled(0.7).to_matrix(), b.scaled(0.7));
        }

        #[test]
        fn sparse_restricted_support_ops_match_dense(m in arbitrary_matrix()) {
            // On the *support* index (zeros dropped), the reductions must still
            // agree with the dense matrix: interleaved exact zeros do not
            // change sums, maxima or cosines.
            let active = std::sync::Arc::new(ActivePairs::from_matrix_support(&m));
            let s = SparseDemand::from_matrix(&m, &active);
            prop_assert!((s.total() - m.total()).abs() <= 1e-12 * (1.0 + m.total().abs()));
            prop_assert!((s.max_entry() - m.max_entry()).abs() <= 1e-12);
            let m2 = m.scaled(1.3);
            let s2 = SparseDemand::from_matrix(&m2, &active);
            prop_assert!((s.cosine_similarity(&s2) - m.cosine_similarity(&m2)).abs() <= 1e-12);
        }
    }
}
