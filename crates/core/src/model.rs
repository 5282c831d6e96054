//! The FIGRET model: a history-window MLP trained with the burst-aware loss.
//!
//! FIGRET maps the flattened history window `{D_{t-H}, …, D_{t-1}}` to split
//! ratios `R_t` (§4.3 / §4.4 of the paper).  Training minimizes
//!
//! ```text
//! L(R_t, D_t) = M(R_t, D_t) + α · Σ_sd σ²_sd · Sᵐᵃˣ_sd(R_t)
//! ```
//!
//! where `σ²_sd` is the per-pair demand variance measured on the training
//! prefix and normalized to `[0, 1]` (the paper normalizes the variances when
//! analysing them; the normalization also keeps the two loss terms on
//! comparable scales).  Setting `α = 0` recovers DOTE.
//!
//! Pair columns are the one history currency of this layer: training reads a
//! [`WindowDataset`], and a trained model serves through the f32
//! [`InferencePlan`] it compiles ([`FigretModel::compile_plan`]), which reads
//! a flattened window of columns.  The f64 graph's own forward pass
//! ([`FigretModel::predict_flat`]) is the reference the plan is checked
//! against.

use std::sync::Arc;

use figret_nn::{
    Adam, AdamConfig, Graph, InferencePlan, Mlp, MlpConfig, OutputActivation, Var, WorkerTape,
};
use figret_te::{DiffTe, MluAggregation, PathSet, TeConfig};
use figret_traffic::WindowDataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::config::FigretConfig;

/// Fixed number of samples per data-parallel gradient task.  Chunk boundaries
/// depend only on this constant (never on the worker-thread count), and the
/// per-chunk gradients are summed in chunk order, so training is bit-for-bit
/// deterministic for a given seed on any machine.
const MICROBATCH: usize = 8;

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Mean total loss over the epoch.
    pub mean_loss: f64,
    /// Mean MLU term over the epoch.
    pub mean_mlu: f64,
    /// Mean robustness penalty (already weighted by α).
    pub mean_penalty: f64,
}

/// Summary of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
    /// Wall-clock training time in seconds.
    pub wall_seconds: f64,
    /// Number of samples per epoch.
    pub samples_per_epoch: usize,
}

impl TrainingReport {
    /// Loss of the final epoch (`None` if no epochs ran).
    pub fn final_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.mean_loss)
    }
}

/// The one copy of the feature arithmetic: the `H` pair columns of a history
/// window laid end to end, oldest first, every demand divided by the feature
/// scale.
#[derive(Debug, Clone, Copy)]
struct FeatureLayout {
    num_pairs: usize,
    /// The largest demand seen in training, so that inputs are O(1).
    scale: f64,
}

impl FeatureLayout {
    /// Writes the features of `history` into `row` (`H · num_pairs` values).
    fn write(&self, history: &[Vec<f64>], row: &mut [f64]) {
        let slots = row.chunks_exact_mut(self.num_pairs);
        assert_eq!(history.len(), slots.len(), "history must contain exactly H demand columns");
        for (column, slot) in history.iter().zip(slots) {
            assert_eq!(column.len(), self.num_pairs, "one demand value per pair is required");
            slot.copy_from_slice(column);
        }
        for f in row {
            *f /= self.scale;
        }
    }
}

/// A trained (or trainable) FIGRET model bound to a specific path set.
pub struct FigretModel {
    config: FigretConfig,
    graph: Graph,
    mlp: Mlp,
    diff: DiffTe,
    features: FeatureLayout,
    /// Normalized per-pair variance weights used by the robustness term,
    /// shared with every microbatch's tape.
    variance_weights: Arc<Vec<f64>>,
}

impl std::fmt::Debug for FigretModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigretModel")
            .field("config", &self.config)
            .field("num_pairs", &self.features.num_pairs)
            .field("feature_scale", &self.features.scale)
            .finish()
    }
}

impl FigretModel {
    /// Creates an untrained model for the given path set.
    ///
    /// `variances` are the per-SD-pair demand variances over the training
    /// prefix (Equation 8); they are normalized internally.  Pass all zeros
    /// (or use [`FigretConfig::dote`]) for the DOTE baseline.
    pub fn new(paths: &PathSet, variances: &[f64], config: FigretConfig) -> FigretModel {
        assert_eq!(variances.len(), paths.num_pairs(), "one variance per SD pair is required");
        let num_pairs = paths.num_pairs();
        let mut graph = Graph::new();
        let mlp = Mlp::new(
            &mut graph,
            MlpConfig {
                input_dim: config.history_window * num_pairs,
                hidden: config.hidden.clone(),
                output_dim: paths.num_paths(),
                output_activation: OutputActivation::Sigmoid,
                seed: config.seed,
            },
        );
        graph.seal();
        let diff = DiffTe::new(paths);
        let max_var = variances.iter().cloned().fold(0.0, f64::max);
        let variance_weights = Arc::new(if max_var > 0.0 {
            variances.iter().map(|v| v / max_var).collect()
        } else {
            vec![0.0; num_pairs]
        });
        let features = FeatureLayout { num_pairs, scale: 1.0 };
        FigretModel { config, graph, mlp, diff, features, variance_weights }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &FigretConfig {
        &self.config
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.mlp.num_parameters(&self.graph)
    }

    /// Trains the model on a window dataset — [`WindowDataset::from_trace`]
    /// over the training split, or [`WindowDataset::from_columns`] over the
    /// columns a serving controller observed (any pair universe, restricted
    /// shard universes included) — with shuffled mini-batch Adam steps.
    ///
    /// Each mini-batch of [`FigretConfig::batch_size`] samples is split into
    /// fixed-size microbatches whose gradients are computed in parallel
    /// (rayon), each on a worker tape that lives for the whole call and reads
    /// the one copy of the weights; the gradients are summed in stable chunk
    /// order, averaged, and applied with one Adam step.  `batch_size = 1`
    /// recovers the original per-sample update rule exactly.
    pub fn train(&mut self, dataset: &WindowDataset) -> TrainingReport {
        assert!(!dataset.is_empty(), "the training dataset is empty");
        assert_eq!(
            dataset.window(),
            self.config.history_window,
            "dataset window must match the configured history window"
        );
        assert_eq!(
            dataset.num_pairs(),
            self.features.num_pairs,
            "one demand value per pair is required"
        );
        let start = std::time::Instant::now();
        let max_demand = dataset.max_history_entry();
        self.features.scale = if max_demand > 0.0 { max_demand } else { 1.0 };

        let params = self.mlp.parameters();
        let mut adam = Adam::new(
            &self.graph,
            params.clone(),
            AdamConfig { learning_rate: self.config.learning_rate, ..Default::default() },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x7a11_5eed);
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let mut report = TrainingReport { samples_per_epoch: dataset.len(), ..Default::default() };
        let batch_size = self.config.batch_size.max(1);
        // Microbatch `m` of every batch runs on tape `m`, so the reduction
        // below reads the gradient sums in chunk order straight off the tapes.
        let mut tapes: Vec<WorkerTape> = (0..batch_size.min(dataset.len()).div_ceil(MICROBATCH))
            .map(|_| self.graph.worker_tape())
            .collect();

        for _epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut sums = [0.0; 3];
            for batch in order.chunks(batch_size) {
                // The merged gradients must be the only writes to the main
                // tape's gradients.
                self.graph.reset();
                let work: Vec<(&mut WorkerTape, &[usize])> =
                    tapes.iter_mut().zip(batch.chunks(MICROBATCH)).collect();
                let microbatches = work.len();
                let partials: Vec<[f64; 3]> = work
                    .into_par_iter()
                    .map(|(tape, chunk)| self.microbatch_gradients(tape, dataset, chunk))
                    .collect();
                // Chunk order into a batch subtotal, subtotals into the
                // epoch's sums: the association the loss curve is pinned to.
                let mut batch_sums = [0.0; 3];
                for partial in partials {
                    for (sum, term) in batch_sums.iter_mut().zip(partial) {
                        *sum += term;
                    }
                }
                for (sum, term) in sums.iter_mut().zip(batch_sums) {
                    *sum += term;
                }
                let mean = 1.0 / batch.len() as f64;
                self.graph.add_scaled_grad_sum(&params, &tapes[..microbatches], mean);
                adam.step(&mut self.graph);
            }
            let n = dataset.len() as f64;
            let [loss, mlu, penalty] = sums;
            report.epochs.push(EpochStats {
                mean_loss: loss / n,
                mean_mlu: mlu / n,
                mean_penalty: penalty / n,
            });
        }
        report.wall_seconds = start.elapsed().as_secs_f64();
        report
    }

    /// Features → MLP → per-pair normalization for a batch of history windows
    /// on `graph`, which may be the model's own tape: the model's other parts
    /// come in one by one.
    fn ratios<'h>(
        features: FeatureLayout,
        mlp: &Mlp,
        diff: &DiffTe,
        graph: &mut Graph,
        histories: impl ExactSizeIterator<Item = &'h [Vec<f64>]>,
    ) -> Var {
        let input_dim = mlp.config().input_dim;
        let input = graph.constant(histories.len(), input_dim, |rows| {
            for (history, row) in histories.zip(rows.chunks_exact_mut(input_dim)) {
                features.write(history, row);
            }
        });
        let raw = mlp.forward(graph, input);
        diff.normalize(graph, raw)
    }

    /// Runs one batched forward/backward pass over the samples of `chunk` on
    /// a worker tape.  The *sums* (not means) of the parameter gradients over
    /// the chunk stay on the tape for the batch reduction — a weight's as the
    /// operands of its product, which the reduction multiplies out; the sums
    /// of the (loss, MLU, penalty) terms are returned.
    fn microbatch_gradients(
        &self,
        tape: &mut WorkerTape,
        dataset: &WindowDataset,
        chunk: &[usize],
    ) -> [f64; 3] {
        let num_pairs = self.features.num_pairs;
        let mut demand_rows = vec![0.0; chunk.len() * num_pairs];
        for (&i, row) in chunk.iter().zip(demand_rows.chunks_exact_mut(num_pairs)) {
            row.copy_from_slice(dataset.target(i));
        }
        tape.run(&self.graph, |graph| {
            let histories = chunk.iter().map(|&i| dataset.history(i));
            let ratios = Self::ratios(self.features, &self.mlp, &self.diff, graph, histories);
            let mlu_col = self.diff.mlu_batch(graph, ratios, &demand_rows, MluAggregation::Max);
            let mlu_sum: f64 = graph.value(mlu_col).data().iter().sum();
            let (loss_col, penalty_sum) = if self.config.robustness_weight > 0.0 {
                let penalty = self.diff.sensitivity_penalty(graph, ratios, &self.variance_weights);
                let weighted = graph.scale(penalty, self.config.robustness_weight);
                let penalty_sum: f64 = graph.value(weighted).data().iter().sum();
                (graph.add(mlu_col, weighted), penalty_sum)
            } else {
                (mlu_col, 0.0)
            };
            let loss = graph.sum(loss_col);
            graph.backward(loss);
            [graph.value(loss).as_scalar(), mlu_sum, penalty_sum]
        })
    }

    /// Compiles the trained weights into an allocation-free f32
    /// [`InferencePlan`] for the serving hot path (see `figret_nn::plan`).
    ///
    /// The plan folds the feature scale into its input load and performs the
    /// per-pair normalization itself, so callers feed it *raw* flattened
    /// history features and obtain normalized split ratios.  Compile once
    /// after training; the plan snapshots the weights and does not track
    /// later updates.
    pub fn compile_plan(&self) -> InferencePlan {
        InferencePlan::compile(
            &self.graph,
            &self.mlp,
            self.diff.segments().to_vec(),
            self.features.scale,
        )
    }

    /// The f64 graph's configuration for one history window of `H` pair
    /// columns (most recent last, one value per pair in slot order).  This
    /// is the reference the compiled plan is tested against, not a serving
    /// path: every deployed or evaluated configuration comes from
    /// [`FigretModel::compile_plan`].  It stays public because
    /// `perf_ledger`'s `nn.graph_forward_us` probe times it.
    pub fn predict_flat(&mut self, paths: &PathSet, history: &[Vec<f64>]) -> TeConfig {
        self.graph.reset();
        let window = std::iter::once(history);
        let ratios = Self::ratios(self.features, &self.mlp, &self.diff, &mut self.graph, window);
        TeConfig::from_raw(paths, self.graph.value(ratios).row_slice(0))
    }
}

/// A TEAL-like baseline: the same architecture, but it receives only the most
/// recent demand matrix and is trained to optimize the MLU of *that same*
/// matrix (an amortized per-demand optimizer).  At evaluation time the
/// configuration computed from `D_{t-1}` is applied to `D_t`, exactly as the
/// paper does ("we apply the TE solution computed from the traffic demand of
/// the preceding time snapshot to the next time snapshot", §5.1).  See
/// DESIGN.md §5 for the substitution rationale (no GNN/RL).
#[derive(Debug)]
pub struct TealLikeModel {
    inner: FigretModel,
}

impl TealLikeModel {
    /// Creates an untrained TEAL-like model.
    pub fn new(paths: &PathSet, config: FigretConfig) -> TealLikeModel {
        let cfg = FigretConfig { history_window: 1, robustness_weight: 0.0, ..config };
        TealLikeModel { inner: FigretModel::new(paths, &vec![0.0; paths.num_pairs()], cfg) }
    }

    /// Trains the model to minimize the MLU of the snapshot it receives:
    /// every sample of `dataset` re-targeted so that its "history" is the
    /// target snapshot itself.
    pub fn train(&mut self, dataset: &WindowDataset) -> TrainingReport {
        self.inner.train(&dataset.targets_as_history())
    }

    /// The trained window-1 model, to compile and serve: its configuration
    /// for a demand column is the one to apply to the following snapshot
    /// (the paper's evaluation protocol).
    pub fn into_model(self) -> FigretModel {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_te::max_link_utilization_pairs;
    use figret_topology::{Topology, TopologySpec};
    use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
    use figret_traffic::{per_pair_variance_range, DemandMatrix, TrainTestSplit};

    fn setup() -> (PathSet, figret_traffic::TrafficTrace) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace = pod_trace(&g, &PodTrafficConfig { num_snapshots: 120, ..Default::default() });
        (ps, trace)
    }

    #[test]
    fn training_reduces_the_loss() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 6, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        assert!(model.num_parameters() > 0);
        let report = model.train(&dataset);
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.final_loss().unwrap();
        assert!(last < first, "training must reduce the loss ({first} -> {last})");
        assert!(report.wall_seconds > 0.0);
        assert_eq!(report.samples_per_epoch, dataset.len());
    }

    #[test]
    fn trained_model_beats_uniform_splitting() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig::fast_test();
        let h = config.history_window;
        let train = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        model.train(&train);
        let uniform = TeConfig::uniform(&ps);
        let mut model_total = 0.0;
        let mut uniform_total = 0.0;
        let test = WindowDataset::from_targets(&trace, h, split.test.clone());
        for (i, history) in test.histories().enumerate() {
            let cfg = model.predict_flat(&ps, history);
            assert!(cfg.is_valid(&ps));
            model_total += max_link_utilization_pairs(&ps, &cfg, test.target(i));
            uniform_total += max_link_utilization_pairs(&ps, &uniform, test.target(i));
        }
        assert!(
            model_total < uniform_total,
            "trained FIGRET ({model_total:.3}) should beat uniform splitting ({uniform_total:.3})"
        );
    }

    #[test]
    fn dote_is_figret_without_penalty() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config =
            FigretConfig { robustness_weight: 0.0, epochs: 2, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut dote = FigretModel::new(&ps, &variances, config);
        let report = dote.train(&dataset);
        for e in &report.epochs {
            assert_eq!(e.mean_penalty, 0.0, "DOTE must not accumulate a robustness penalty");
            assert!((e.mean_loss - e.mean_mlu).abs() < 1e-12);
        }
    }

    #[test]
    fn figret_penalizes_sensitive_configs_more_than_dote() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let figret_cfg =
            FigretConfig { robustness_weight: 2.0, epochs: 3, ..FigretConfig::fast_test() };
        let h = figret_cfg.history_window;
        let dataset = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut figret = FigretModel::new(&ps, &variances, figret_cfg);
        let report = figret.train(&dataset);
        // The penalty term must be active (non-zero) for FIGRET.
        assert!(report.epochs.iter().any(|e| e.mean_penalty > 0.0));
    }

    #[test]
    fn teal_like_model_trains_and_predicts() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let config = FigretConfig { epochs: 3, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let mut teal = TealLikeModel::new(&ps, config);
        let report = teal.train(&dataset);
        assert!(!report.epochs.is_empty());
        let mut model = teal.into_model();
        assert_eq!(model.config().history_window, 1);
        let cfg = model.predict_flat(&ps, &[trace.matrix(trace.len() - 2).flatten_pairs()]);
        assert!(cfg.is_valid(&ps));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 2, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
        let run = |cfg: FigretConfig| {
            let mut model = FigretModel::new(&ps, &variances, cfg);
            let report = model.train(&dataset);
            report.epochs.iter().map(|e| e.mean_loss).collect::<Vec<_>>()
        };
        // Identical loss trajectories regardless of when/where the parallel
        // microbatch gradients were computed.
        assert_eq!(run(config.clone()), run(config));
    }

    #[test]
    fn both_constructors_train_to_identical_bits() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 3, ..FigretConfig::fast_test() };
        let h = config.history_window;
        let from_trace = WindowDataset::from_trace(&trace, h, split.train.clone());
        // The same training range handed over as columns: matrices 0..cut
        // flattened in slot order, so sample `i` is sample `i` exactly.
        let columns: Vec<Vec<f64>> =
            trace.matrices()[split.train.clone()].iter().map(|m| m.flatten_pairs()).collect();
        let from_columns = WindowDataset::from_columns(h, columns);
        assert_eq!(from_columns.len(), from_trace.len());

        let mut trace_model = FigretModel::new(&ps, &variances, config.clone());
        let trace_report = trace_model.train(&from_trace);
        let mut column_model = FigretModel::new(&ps, &variances, config);
        let column_report = column_model.train(&from_columns);

        // Same shuffle, same chunking, same arithmetic: per-epoch stats are
        // bit-equal, not merely close.
        assert_eq!(trace_report.epochs, column_report.epochs);
        // And so are the trained predictors.
        let t = trace.len() - 1;
        let history: Vec<Vec<f64>> =
            trace.matrices()[t - h..t].iter().map(|m| m.flatten_pairs()).collect();
        let trace_cfg = trace_model.predict_flat(&ps, &history);
        let column_cfg = column_model.predict_flat(&ps, &history);
        assert_eq!(trace_cfg.ratios(), column_cfg.ratios());
    }

    #[test]
    #[should_panic(expected = "one demand value per pair")]
    fn train_checks_the_pair_count_up_front() {
        let (ps, _) = setup();
        // A five-node trace against the four-PoD model.
        let matrix = DemandMatrix::from_pairs(5, &[1.0; 20]).unwrap();
        let other = figret_traffic::TrafficTrace::new("five", 1.0, vec![matrix; 12]);
        let config = FigretConfig::fast_test();
        let dataset = WindowDataset::from_trace(&other, config.history_window, 0..12);
        FigretModel::new(&ps, &vec![0.0; ps.num_pairs()], config).train(&dataset);
    }

    #[test]
    fn mini_batch_training_tracks_single_sample_training() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let base = FigretConfig { epochs: 6, ..FigretConfig::fast_test() };
        let dataset = WindowDataset::from_trace(&trace, base.history_window, split.train.clone());

        let final_loss = |batch_size: usize| {
            let cfg = FigretConfig { batch_size, ..base.clone() };
            let mut model = FigretModel::new(&ps, &variances, cfg);
            model.train(&dataset).final_loss().unwrap()
        };
        let single = final_loss(1);
        let batched = final_loss(8);
        // Both settings optimize the same objective from the same
        // initialization; the final mean losses must agree within a loose
        // tolerance even though the update trajectories differ.
        let gap = (single - batched).abs() / single.max(1e-9);
        assert!(
            gap < 0.35,
            "batch=8 final loss {batched} strays too far from batch=1 final loss {single}"
        );
    }

    #[test]
    fn compiled_plan_matches_graph_prediction() {
        let (ps, trace) = setup();
        let split = TrainTestSplit::chronological(trace.len(), 0.75);
        let variances = per_pair_variance_range(&trace, split.train.clone());
        let config = FigretConfig { epochs: 2, ..FigretConfig::fast_test() };
        let h = config.history_window;
        let dataset = WindowDataset::from_trace(&trace, h, split.train.clone());
        let mut model = FigretModel::new(&ps, &variances, config);
        model.train(&dataset);
        let mut plan = model.compile_plan();
        assert_eq!(plan.input_dim(), h * ps.num_pairs());
        assert_eq!(plan.output_dim(), ps.num_paths());

        let mut raw = vec![0.0; ps.num_paths()];
        for history in WindowDataset::from_targets(&trace, h, h..h + 4).histories() {
            // The plan takes *raw* features; scaling happens inside.
            plan.forward(&history.concat(), &mut raw);
            let plan_cfg = TeConfig::from_raw(&ps, &raw);
            let graph_cfg = model.predict_flat(&ps, history);
            assert!(plan_cfg.is_valid(&ps));
            for p in 0..ps.num_paths() {
                let (a, b) = (plan_cfg.ratio(p), graph_cfg.ratio(p));
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "path {p}: plan ratio {a} vs graph ratio {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly H demand columns")]
    fn predict_checks_history_length() {
        let (ps, _) = setup();
        let mut model =
            FigretModel::new(&ps, &vec![0.0; ps.num_pairs()], FigretConfig::fast_test());
        let _ = model.predict_flat(&ps, &vec![vec![1.0; ps.num_pairs()]; 2]);
    }
}
