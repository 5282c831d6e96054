//! # figret-traffic
//!
//! Demand substrate for the FIGRET reproduction: pair-column traces,
//! synthetic generators for every traffic class of the paper's evaluation
//! (§5.1), traffic statistics, dataset splits and the perturbation models of
//! §5.4.
//!
//! Demand has one currency, the pair column: a [`TrafficTrace`] is one
//! [`SparseDemand`] per snapshot over a shared [`ActivePairs`] index
//! ([`ActivePairs::all`] for the Table 1 networks, a sampled index for
//! generated fabrics), which is what every generator returns and every
//! consumer — datasets, statistics, predictors, the MLU evaluator — reads.
//! [`DemandMatrix`] is the `N×N` I/O edge: [`TrafficTrace::new`] gathers
//! hand-built matrices and [`TrafficTrace::matrix`] densifies one snapshot.
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
pub use matrix::{DemandMatrix, MatrixError};
pub use perturb::{gaussian_fluctuation, reverse_by_rank, worst_case_fluctuation};
pub use pfabric::{pfabric_trace, sample_web_search_flow_size, PFabricConfig};
pub use shard::{ShardPlan, ShardUniverse};
pub use sparse::{ActivePairs, SparseDemand, SparseTrace, TrafficTrace};
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
    use std::sync::Arc;

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
            // Gather onto the all-pairs index, densify back.
            let trace = TrafficTrace::new("p", 1.0, vec![m.clone()]);
            prop_assert_eq!(trace.snapshot(0).values(), m.flatten_pairs());
            prop_assert_eq!(trace.matrix(0), m.clone());
            // Columns over the matrix's support densify to the same matrix.
            let (support, column) = support_column(&m);
            let restricted = TrafficTrace::from_columns("p", 1.0, support, vec![column]);
            prop_assert_eq!(restricted.matrix(0), m);
        }

        #[test]
        fn sparse_ops_match_dense_ops(a in arbitrary_matrix()) {
            // Derive a second matrix deterministically so both operands share
            // sparsity structure challenges (scaled keeps support identical).
            let b = a.scaled(1.15);
            let trace = TrafficTrace::new("p", 1.0, vec![a.clone(), b.clone()]);
            let (sa, sb) = (trace.snapshot(0), trace.snapshot(1));

            // The diagonal zeros of the dense store change no reduction.
            prop_assert_eq!(sa.total().to_bits(), a.total().to_bits());
            prop_assert_eq!(sa.max_entry().to_bits(), a.max_entry().to_bits());
            prop_assert_eq!(sa.cosine_similarity(sb).to_bits(), a.cosine_similarity(&b).to_bits());

            let scaled = TrafficTrace::new("p", 1.0, vec![b.scaled(0.7)]);
            prop_assert_eq!(&sb.scaled(0.7), scaled.snapshot(0));
        }

        #[test]
        fn sparse_restricted_support_ops_match_dense(m in arbitrary_matrix()) {
            // On the *support* index (zeros dropped), the reductions must still
            // agree with the dense matrix: interleaved exact zeros do not
            // change sums, maxima or cosines.
            let (support, s) = support_column(&m);
            prop_assert_eq!(s.total().to_bits(), m.total().to_bits());
            prop_assert_eq!(s.max_entry().to_bits(), m.max_entry().to_bits());
            let m2 = m.scaled(1.3);
            let s2 = s.scaled(1.3);
            prop_assert_eq!(s.cosine_similarity(&s2).to_bits(), m.cosine_similarity(&m2).to_bits());
            let trace = TrafficTrace::from_columns("p", 1.0, support, vec![s, s2]);
            prop_assert_eq!(trace.matrix(1), m2);
        }
    }

    /// The column of `m` over its support: every pair with a nonzero demand.
    fn support_column(m: &DemandMatrix) -> (Arc<ActivePairs>, SparseDemand) {
        let n = m.num_nodes();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && m.get(s, d) > 0.0)
            .collect();
        let support = Arc::new(ActivePairs::from_pairs(n, &pairs));
        let values = pairs.iter().map(|&(s, d)| m.get(s, d)).collect();
        let column = SparseDemand::from_values(Arc::clone(&support), values).unwrap();
        (support, column)
    }
}
