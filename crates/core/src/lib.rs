//! # figret
//!
//! The paper's primary contribution: **FIGRET**, fine-grained
//! robustness-enhanced traffic engineering.  A fully connected network maps a
//! window of recent demand matrices directly to split ratios; the training
//! loss combines the maximum link utilization with a per-SD-pair sensitivity
//! penalty weighted by each pair's historical traffic variance, so bursty
//! pairs are hedged and stable pairs keep their best paths.
//!
//! The crate also provides the two learning-based baselines derived from the
//! same machinery: DOTE ([`FigretConfig::dote`], robustness weight `α = 0`) and
//! a TEAL-like per-demand amortized optimizer ([`TealLikeModel`]).
//!
//! # Example
//!
//! ```
//! use figret::{FigretConfig, FigretModel};
//! use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};
//! use figret_topology::{Topology, TopologySpec};
//! use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
//! use figret_traffic::{per_pair_variance_range, TrainTestSplit, WindowDataset};
//!
//! let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
//! let paths = PathSet::k_shortest(&pod, 3);
//! let trace = pod_trace(&pod, &PodTrafficConfig { num_snapshots: 60, ..Default::default() });
//! let split = TrainTestSplit::chronological(trace.len(), 0.75);
//! let variances = per_pair_variance_range(&trace, split.train.clone());
//!
//! let config = FigretConfig { epochs: 2, ..FigretConfig::fast_test() };
//! let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
//! let mut model = FigretModel::new(&paths, &variances, config);
//! model.train(&dataset);
//!
//! // Serve through the compiled f32 plan: it reads the window's pair columns
//! // laid end to end, oldest first, and emits one ratio per path.
//! let mut plan = model.compile_plan();
//! let features: Vec<f64> = trace.snapshots()[trace.len() - 5..trace.len() - 1]
//!     .iter()
//!     .flat_map(|c| c.values().iter().copied())
//!     .collect();
//! let mut raw = vec![0.0; paths.num_paths()];
//! plan.forward(&features, &mut raw);
//! let te_config = TeConfig::from_raw(&paths, &raw);
//! assert!(te_config.is_valid(&paths));
//! let realized = trace.snapshot(trace.len() - 1).values();
//! let mlu = max_link_utilization_pairs(&paths, &te_config, realized);
//! assert!(mlu.is_finite());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod model;

pub use config::FigretConfig;
pub use figret_nn::InferencePlan;
pub use model::{EpochStats, FigretModel, TealLikeModel, TrainingReport};
