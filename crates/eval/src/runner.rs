//! Scheme runners: evaluate every TE scheme over the test split of a scenario
//! and collect per-snapshot MLUs plus timing, the raw material of every table
//! and figure.
//!
//! Every run reads one [`WindowDataset`] over the evaluated snapshots: its
//! history columns feed the forecasts and the learned models, and every
//! scheme is scored on its target columns by the one MLU evaluator.  Each
//! LP-based scheme (omniscient, Pred, Des, FA-Des and Heuristic FG TE) is
//! stated once, as its series-static data — sensitivity bounds, availability
//! mask — plus the demand it solves for at each snapshot: the target itself
//! (omniscient) or the forecast a serving predictor makes from the history
//! window ([`LastValue`] for Pred TE, the [`SlidingMax`] peak for the
//! desensitization schemes).
//! `lp_series` solves each of them as one warm-started [`MluTemplate`],
//! built once, where each snapshot moves its right-hand side and seeds from
//! the previous snapshots' optima.  The series is solved sequentially —
//! warm starting is inherently order-dependent — which also makes it
//! deterministic by construction.  Path sets too large for the LP
//! ([`solves_exactly`]) run a per-snapshot rayon fan-out of the iterative
//! engine ([`solve_iterative`]) instead.  Learned
//! schemes compile the trained model once and compute each configuration
//! through the serving controller's forward pass
//! ([`ServedModel::candidate_into`]: the f32 plan, then ratio
//! normalization), so their rows score the model as it is deployed.
//! Timing fields report summed per-snapshot compute time.  Accumulated LP
//! solver work (pivots per phase, reinversions, warm-start acceptance) is
//! threaded into [`SchemeRun::lp_stats`] for the reports.

use std::time::Instant;

use rayon::prelude::*;

use figret::{FigretConfig, FigretModel, TealLikeModel};
use figret_serve::{LastValue, OnlinePredictor, ServedModel, SlidingMax};
use figret_solvers::{
    cope_config, desensitization_bounds, heuristic_absolute_bounds, solve_iterative,
    solves_exactly, CopeSettings, CuttingPlaneSettings, DesensitizationSettings, HeuristicBound,
    HoseModel, IterativeSettings, MluProblem, MluTemplate, SeriesStats,
};
use figret_te::{
    available_paths, max_link_utilization_pairs, mean_series_churn, normalize_by,
    reroute_around_failures, SchemeQuality, TeConfig,
};
use figret_topology::FailureScenario;
use figret_traffic::{per_pair_variance_range, WindowDataset};

use crate::scenario::Scenario;

/// The TE schemes of the paper's evaluation (§5.1).
#[derive(Debug, Clone)]
pub enum Scheme {
    /// FIGRET (the paper's contribution).
    Figret(FigretConfig),
    /// DOTE: FIGRET's architecture without the robustness term.
    Dote(FigretConfig),
    /// TEAL-like amortized per-demand optimizer.
    TealLike(FigretConfig),
    /// Desensitization-based TE (Google Jupiter hedging).
    Desensitization(DesensitizationSettings),
    /// Fault-aware Desensitization-based TE (knows future failures).
    FaultAwareDesensitization(DesensitizationSettings),
    /// Demand-prediction-based TE: solves for the last snapshot.
    Prediction,
    /// Demand-oblivious TE over a hose uncertainty set.
    Oblivious,
    /// COPE over a hose uncertainty set.
    Cope,
    /// Appendix C heuristic fine-grained desensitization.
    HeuristicFineGrained(HeuristicBound),
}

impl Scheme {
    /// Display name used in tables and figures.
    pub fn name(&self) -> String {
        match self {
            Scheme::Figret(_) => "FIGRET".to_string(),
            Scheme::Dote(_) => "DOTE".to_string(),
            Scheme::TealLike(_) => "TEAL-like".to_string(),
            Scheme::Desensitization(_) => "Des TE".to_string(),
            Scheme::FaultAwareDesensitization(_) => "FA Des TE".to_string(),
            Scheme::Prediction => "Pred TE".to_string(),
            Scheme::Oblivious => "Oblivious".to_string(),
            Scheme::Cope => "COPE".to_string(),
            Scheme::HeuristicFineGrained(_) => "Heuristic FG".to_string(),
        }
    }

    /// The default comparison set of Figure 5 for small topologies.
    pub fn default_suite(fast: bool) -> Vec<Scheme> {
        let learn = if fast { FigretConfig::fast_test() } else { FigretConfig::default() };
        vec![
            Scheme::Figret(learn.clone()),
            Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..learn.clone() }),
            Scheme::Desensitization(DesensitizationSettings::default()),
            Scheme::Prediction,
            Scheme::TealLike(learn),
        ]
    }
}

/// Evaluation options shared by all runners.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// History window `H` used for learning-based schemes and for the peak /
    /// prediction windows of the LP-based schemes.
    pub window: usize,
    /// Evaluate at most this many test snapshots (uniformly subsampled); keeps
    /// the LP-heavy schemes tractable on larger topologies.
    pub max_eval_snapshots: Option<usize>,
    /// Optional link-failure scenario (Figures 7, 14, 15): configurations are
    /// rerouted around the failed links before evaluation.
    pub failure: Option<FailureScenario>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { window: 12, max_eval_snapshots: Some(60), failure: None }
    }
}

impl EvalOptions {
    /// The evaluated snapshots as one dataset: sample `i` pairs snapshot
    /// `indices[i]` (its target) with the history window before it.
    pub(crate) fn evaluated(&self, scenario: &Scenario, indices: &[usize]) -> WindowDataset {
        WindowDataset::from_targets(&scenario.trace, self.window, indices.iter().copied())
    }

    /// The snapshot indices actually evaluated for a scenario.
    pub fn eval_indices(&self, scenario: &Scenario) -> Vec<usize> {
        let all = scenario.test_indices(self.window);
        match self.max_eval_snapshots {
            Some(limit) if all.len() > limit && limit > 0 => {
                let stride = all.len() as f64 / limit as f64;
                (0..limit).map(|i| all[(i as f64 * stride) as usize]).collect()
            }
            _ => all,
        }
    }
}

/// The result of running one scheme over one scenario.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Scheme display name.
    pub scheme: String,
    /// Snapshot indices evaluated.
    pub indices: Vec<usize>,
    /// Absolute MLU per evaluated snapshot.
    pub mlus: Vec<f64>,
    /// One-off precomputation time (training / cutting plane), seconds.
    pub precompute_seconds: f64,
    /// Mean per-snapshot solution time (NN forward pass or LP solve), seconds.
    pub mean_solve_seconds: f64,
    /// Mean routing churn between consecutive *evaluated* configurations
    /// ([`figret_te::split_ratio_churn`] L1 distance, averaged over the
    /// series) — how much reconfiguration the scheme asks of the network
    /// per evaluated step.  0.0 for static schemes.  Note: when
    /// [`EvalOptions::max_eval_snapshots`] subsamples the test range,
    /// adjacent evaluated snapshots can be several trace snapshots apart,
    /// so churn values are only comparable across runs with the same
    /// evaluation stride (rows within one table always are).
    pub mean_churn: f64,
    /// Accumulated LP solver work over the series (all-zero for learned and
    /// iterative-engine schemes, which perform no simplex pivots).
    pub lp_stats: SeriesStats,
}

impl SchemeRun {
    /// Normalizes the MLUs by a baseline series (usually the omniscient one)
    /// and summarizes them.
    pub fn quality(&self, baseline: &[f64]) -> SchemeQuality {
        let normalized = normalize_by(&self.mlus, baseline);
        SchemeQuality::from_normalized(&self.scheme, &normalized)
    }
}

/// The configuration the network deploys: `config` rerouted around the
/// optional failure.
fn apply_failure(
    scenario: &Scenario,
    config: TeConfig,
    failure: &Option<FailureScenario>,
) -> TeConfig {
    match failure {
        Some(f) => reroute_around_failures(&scenario.paths, &config, f),
        None => config,
    }
}

/// The omniscient (oracle) MLU series over the evaluated snapshots.  With a
/// failure scenario, the oracle also knows the failures and optimizes only
/// over the surviving paths.  The series is returned in snapshot order.
pub fn omniscient_series(scenario: &Scenario, options: &EvalOptions) -> Vec<f64> {
    omniscient_series_with_stats(scenario, options).0
}

/// [`omniscient_series`] plus the accumulated LP solver work (all-zero on a
/// path set solved by the iterative engine); see `lp_series`.
pub fn omniscient_series_with_stats(
    scenario: &Scenario,
    options: &EvalOptions,
) -> (Vec<f64>, SeriesStats) {
    let evaluated = options.evaluated(scenario, &options.eval_indices(scenario));
    let availability = options.failure.as_ref().map(|f| available_paths(&scenario.paths, f));
    let (configs, _, _, stats) = lp_series(
        scenario,
        evaluated.len(),
        &None, // the oracle's availability mask already encodes the failure
        None,
        availability,
        |i| evaluated.target(i).to_vec(),
    );
    (mlu_series(scenario, &evaluated, &configs), stats)
}

/// The forecast `predictor` makes after observing a history window (oldest
/// column first): the demand a forecast-driven LP scheme solves for.
pub(crate) fn forecast(mut predictor: impl OnlinePredictor, history: &[Vec<f64>]) -> Vec<f64> {
    for column in history {
        predictor.observe_pairs(column);
    }
    let mut demand = vec![0.0; history.first().map_or(0, Vec::len)];
    assert!(predictor.predict_pairs_into(&mut demand), "the history window must not be empty");
    demand
}

/// One LP-based scheme over the `samples` evaluated snapshots, stated once:
/// the series-static `sensitivity_bounds` (absolute units) and `available`
/// mask, and `demand_of`, the demand solved for at a sample (a pair
/// column).
///
/// On path sets the LP solves ([`solves_exactly`]) the scheme is one
/// [`MluTemplate::with_options`] series, solved sequentially — each solve
/// seeds from the previous samples' optima, which also makes the series
/// deterministic by construction.  A path set too large for the LP runs a
/// rayon fan-out of [`solve_iterative`] problems instead, one per sample.
/// Each solve is timed with its demand assembly, and the optional failure
/// rerouting is applied to its configuration.
///
/// Returns `(deployed config series, summed per-snapshot solve seconds,
/// one-off template-construction seconds, accumulated solver work)` —
/// construction is precomputation, not per-snapshot work.
fn lp_series<F>(
    scenario: &Scenario,
    samples: usize,
    failure: &Option<FailureScenario>,
    sensitivity_bounds: Option<Vec<f64>>,
    available: Option<Vec<bool>>,
    demand_of: F,
) -> (Vec<TeConfig>, f64, f64, SeriesStats)
where
    F: Fn(usize) -> Vec<f64> + Sync,
{
    let paths = &scenario.paths;
    if !solves_exactly(paths.num_paths()) {
        let timed: Vec<(f64, TeConfig)> = (0..samples)
            .into_par_iter()
            .map(|i| {
                let start = Instant::now();
                let mut problem = MluProblem::new(paths, demand_of(i));
                problem.sensitivity_bounds = sensitivity_bounds.clone();
                problem.available = available.clone();
                let config = solve_iterative(&problem, IterativeSettings::default());
                (start.elapsed().as_secs_f64(), apply_failure(scenario, config, failure))
            })
            .collect();
        let solve_seconds = timed.iter().map(|(s, _)| s).sum();
        let configs = timed.into_iter().map(|(_, c)| c).collect();
        return (configs, solve_seconds, 0.0, SeriesStats::default());
    }
    let start = Instant::now();
    let mut template = MluTemplate::with_options(paths, sensitivity_bounds, available);
    let precompute_seconds = start.elapsed().as_secs_f64();
    let mut stats = SeriesStats::default();
    let mut solve_seconds = 0.0;
    let mut configs = Vec::with_capacity(samples);
    for i in 0..samples {
        let start = Instant::now();
        let (config, solve_stats) =
            template.solve(paths, &demand_of(i)).expect("templated min-MLU LP must be solvable");
        solve_seconds += start.elapsed().as_secs_f64();
        stats.record(&solve_stats);
        configs.push(apply_failure(scenario, config, failure));
    }
    (configs, solve_seconds, precompute_seconds, stats)
}

/// Evaluates deployed configurations (one per evaluated sample, in order)
/// against the samples' realized target columns in parallel, returning the
/// MLU series in snapshot order.
fn mlu_series(scenario: &Scenario, evaluated: &WindowDataset, configs: &[TeConfig]) -> Vec<f64> {
    assert_eq!(evaluated.len(), configs.len(), "one configuration per snapshot is required");
    (0..configs.len())
        .into_par_iter()
        .map(|i| max_link_utilization_pairs(&scenario.paths, &configs[i], evaluated.target(i)))
        .collect()
}

/// A scheme's deployed configuration series over the `evaluated` samples
/// (failure rerouting already applied), its summed solve and one-off
/// precomputation seconds, and its LP work: what [`run_scheme`] scores, and
/// what Figure 8 reads the path sensitivities of.
pub(crate) fn deployed_series(
    scenario: &Scenario,
    scheme: &Scheme,
    options: &EvalOptions,
    evaluated: &WindowDataset,
) -> (Vec<TeConfig>, f64, f64, SeriesStats) {
    let (window, samples, paths) = (options.window, evaluated.len(), &scenario.paths);
    let train_variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    // The forecasts of the LP arms, from sample `i`'s history window.
    let last_value = |i: usize| forecast(LastValue::new(), evaluated.history(i));
    let window_peak = |i: usize| forecast(SlidingMax::new(window), evaluated.history(i));
    match scheme {
        Scheme::Figret(cfg) | Scheme::Dote(cfg) | Scheme::TealLike(cfg) => {
            let mut cfg = FigretConfig { history_window: window, ..cfg.clone() };
            if matches!(scheme, Scheme::Dote(_)) {
                cfg.robustness_weight = 0.0;
            }
            let teal = matches!(scheme, Scheme::TealLike(_));
            let dataset =
                WindowDataset::from_trace(&scenario.trace, window, scenario.split.train.clone());
            // Training and the compile are precomputation; each window's
            // forward pass through the serving controller's own
            // `candidate_into` is its timed solve.
            let start = Instant::now();
            let model = if teal {
                let mut model = TealLikeModel::new(&scenario.paths, cfg);
                model.train(&dataset);
                model.into_model()
            } else {
                let mut model = FigretModel::new(&scenario.paths, &train_variances, cfg);
                model.train(&dataset);
                model
            };
            let mut served = ServedModel::new(model);
            let precompute_seconds = start.elapsed().as_secs_f64();
            // The TEAL-like `D_{t-1}` protocol: each window's newest column.
            let first = if teal { window - 1 } else { 0 };
            let (mut features, mut raw, mut solve_seconds) = (Vec::new(), Vec::new(), 0.0);
            let configs = evaluated
                .histories()
                .map(|history| {
                    let start = Instant::now();
                    let mut config = TeConfig::default();
                    let history = &history[first..];
                    served.candidate_into(paths, history, &mut features, &mut raw, &mut config);
                    solve_seconds += start.elapsed().as_secs_f64();
                    apply_failure(scenario, config, &options.failure)
                })
                .collect();
            (configs, solve_seconds, precompute_seconds, SeriesStats::default())
        }
        Scheme::Desensitization(settings) => lp_series(
            scenario,
            samples,
            &options.failure,
            Some(desensitization_bounds(&scenario.paths, settings)),
            None,
            window_peak,
        ),
        Scheme::FaultAwareDesensitization(settings) => {
            let failure = options.failure.clone().unwrap_or_else(FailureScenario::none);
            // The fault-aware LP already routes around the failures, so no
            // post-hoc rerouting is applied.
            lp_series(
                scenario,
                samples,
                &None,
                Some(desensitization_bounds(&scenario.paths, settings)),
                Some(available_paths(&scenario.paths, &failure)),
                window_peak,
            )
        }
        Scheme::Prediction => {
            lp_series(scenario, samples, &options.failure, None, None, last_value)
        }
        Scheme::Oblivious | Scheme::Cope => {
            let hose = HoseModel::fit(&scenario.trace, scenario.split.train.clone(), 1.0);
            let start = Instant::now();
            let config = if matches!(scheme, Scheme::Oblivious) {
                oblivious_or_fallback(scenario, &hose)
            } else {
                let predicted: Vec<Vec<f64>> = scenario
                    .split
                    .train
                    .clone()
                    .rev()
                    .take(5)
                    .map(|t| scenario.trace.snapshot(t).values().to_vec())
                    .collect();
                cope_config(&scenario.paths, &predicted, &hose, CopeSettings::default())
                    .map(|r| r.config)
                    .unwrap_or_else(|_| TeConfig::uniform(&scenario.paths))
            };
            let precompute_seconds = start.elapsed().as_secs_f64();
            let configs = vec![apply_failure(scenario, config, &options.failure); samples];
            (configs, 0.0, precompute_seconds, SeriesStats::default())
        }
        Scheme::HeuristicFineGrained(bound) => lp_series(
            scenario,
            samples,
            &options.failure,
            Some(heuristic_absolute_bounds(&scenario.paths, &train_variances, *bound)),
            None,
            window_peak,
        ),
    }
}

/// Runs a scheme over the evaluated snapshots of a scenario: its deployed
/// series (`deployed_series`), scored by the one MLU evaluator.
///
/// LP-based schemes solve one warm-started series (`lp_series`), learned
/// schemes serve each window through the compiled plan, and the MLUs are
/// evaluated in parallel on the rayon pool.  The reported series is always
/// in snapshot order.
pub fn run_scheme(scenario: &Scenario, scheme: &Scheme, options: &EvalOptions) -> SchemeRun {
    let indices = options.eval_indices(scenario);
    let evaluated = options.evaluated(scenario, &indices);
    let (configs, solve_seconds, precompute_seconds, lp_stats) =
        deployed_series(scenario, scheme, options, &evaluated);
    let mlus = mlu_series(scenario, &evaluated, &configs);
    let mean_churn = mean_series_churn(&configs);
    let mean_solve = if indices.is_empty() { 0.0 } else { solve_seconds / indices.len() as f64 };
    SchemeRun {
        scheme: scheme.name(),
        indices,
        mlus,
        precompute_seconds,
        mean_solve_seconds: mean_solve,
        mean_churn,
        lp_stats,
    }
}

fn oblivious_or_fallback(scenario: &Scenario, hose: &HoseModel) -> TeConfig {
    figret_solvers::oblivious_config(&scenario.paths, hose, CuttingPlaneSettings::default())
        .map(|r| r.config)
        .unwrap_or_else(|_| TeConfig::uniform(&scenario.paths))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOptions;
    use figret_te::max_link_utilization_pairs;
    use figret_topology::{random_link_failures, Topology};

    fn small_scenario() -> Scenario {
        Scenario::build(
            Topology::MetaDbPod,
            &ScenarioOptions { num_snapshots: 80, ..Default::default() },
        )
    }

    fn fast_options() -> EvalOptions {
        EvalOptions { window: 4, max_eval_snapshots: Some(8), ..Default::default() }
    }

    #[test]
    fn omniscient_is_a_lower_bound_for_every_scheme() {
        let scenario = small_scenario();
        let options = fast_options();
        let baseline = omniscient_series(&scenario, &options);
        assert!(!baseline.is_empty());
        for scheme in
            [Scheme::Prediction, Scheme::Desensitization(DesensitizationSettings::default())]
        {
            let run = run_scheme(&scenario, &scheme, &options);
            assert_eq!(run.mlus.len(), baseline.len());
            for (m, b) in run.mlus.iter().zip(&baseline) {
                assert!(m + 1e-6 >= *b, "{}: scheme MLU {m} below omniscient {b}", run.scheme);
            }
            let q = run.quality(&baseline);
            assert!(q.normalized_mlu.min >= 1.0 - 1e-6);
        }
    }

    #[test]
    fn learned_schemes_produce_finite_results() {
        let scenario = small_scenario();
        let options = fast_options();
        let baseline = omniscient_series(&scenario, &options);
        for scheme in [
            Scheme::Figret(FigretConfig::fast_test()),
            Scheme::Dote(FigretConfig::fast_test()),
            Scheme::TealLike(FigretConfig::fast_test()),
        ] {
            let run = run_scheme(&scenario, &scheme, &options);
            assert!(run.precompute_seconds > 0.0, "{} must report training time", run.scheme);
            assert!(run.mlus.iter().all(|m| m.is_finite() && *m > 0.0));
            let q = run.quality(&baseline);
            assert!(q.normalized_mlu.mean >= 1.0 - 1e-6);
            assert!(q.normalized_mlu.mean < 20.0, "{} unreasonably bad", run.scheme);
        }
    }

    /// FNV-1a over the little-endian bytes of each value's bit pattern.
    fn fnv_bits(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The learned arms' MLU series, bit for bit: CI runs no figure binary,
    /// so this is what pins them.  Re-recorded when the arms moved from the
    /// f64 graph's batch forward pass onto the compiled f32 plan the serving
    /// controller deploys (the ratios are now the plan's f32 outputs,
    /// normalized in f64).
    #[test]
    fn learned_arms_reproduce_the_recorded_mlu_bits() {
        let scenario = small_scenario();
        let options = fast_options();
        let got = [
            Scheme::Figret(FigretConfig::fast_test()),
            Scheme::Dote(FigretConfig::fast_test()),
            Scheme::TealLike(FigretConfig::fast_test()),
        ]
        .map(|scheme| fnv_bits(&run_scheme(&scenario, &scheme, &options).mlus));
        let golden = [0xb6dd65afc8cbb8b0, 0x37d44adce006d399, 0x63ba0da8dafd24ac];
        assert_eq!(got, golden, "FIGRET, DOTE, TEAL-like: {got:#x?}");
    }

    /// The LP arms' MLU series, bit for bit, recorded at the commit before
    /// their forecasts moved from the matrix predictor onto the serving
    /// predictors over pair columns: omniscient, Pred TE, Des TE and
    /// Heuristic FG (linear, piecewise), then Pred TE and FA-Des TE under a
    /// link failure.
    #[test]
    fn lp_arms_reproduce_the_recorded_mlu_bits() {
        let scenario = small_scenario();
        let options = fast_options();
        let failure = random_link_failures(&scenario.graph, 1, 11).unwrap();
        let failed = EvalOptions { failure: Some(failure), ..fast_options() };
        let linear = HeuristicBound::Linear { min: 1.0 / 3.0, max: 5.0 / 6.0 };
        let piecewise = HeuristicBound::Piecewise { min: 0.5, max: 2.0 / 3.0, breakpoint: 0.65 };
        let runs = [
            (Scheme::Prediction, &options),
            (Scheme::Desensitization(DesensitizationSettings::default()), &options),
            (Scheme::HeuristicFineGrained(linear), &options),
            (Scheme::HeuristicFineGrained(piecewise), &options),
            (Scheme::Prediction, &failed),
            (Scheme::FaultAwareDesensitization(DesensitizationSettings::default()), &failed),
        ];
        let mut got = vec![fnv_bits(&omniscient_series(&scenario, &options))];
        got.extend(
            runs.iter().map(|(scheme, opts)| fnv_bits(&run_scheme(&scenario, scheme, opts).mlus)),
        );
        let golden = [
            0xacff637969460fec,
            0x857449908b0b4307,
            0x7227d23552425464,
            0x8666e2597dc1ef06,
            0x0df52735ba2c2560,
            0xdcd5acd9158e1910,
            0x458fcf988b67000f,
        ];
        assert_eq!(
            got, golden,
            "omniscient, Pred, Des, HFG linear, HFG piecewise, failed Pred, FA-Des: {got:#x?}"
        );
    }

    #[test]
    fn oblivious_and_cope_precompute_static_configs() {
        let scenario = small_scenario();
        let options = fast_options();
        for scheme in [Scheme::Oblivious, Scheme::Cope] {
            let run = run_scheme(&scenario, &scheme, &options);
            assert!(run.precompute_seconds > 0.0);
            assert_eq!(run.mean_solve_seconds, 0.0, "static schemes have no per-snapshot solve");
            assert!(run.mlus.iter().all(|m| m.is_finite()));
        }
    }

    #[test]
    fn failure_scenarios_are_applied() {
        let scenario = small_scenario();
        let failure = random_link_failures(&scenario.graph, 1, 11).unwrap();
        let options = EvalOptions { failure: Some(failure), ..fast_options() };
        let baseline = omniscient_series(&scenario, &options);
        let pred = run_scheme(&scenario, &Scheme::Prediction, &options);
        let fa = run_scheme(
            &scenario,
            &Scheme::FaultAwareDesensitization(DesensitizationSettings::default()),
            &options,
        );
        assert_eq!(pred.mlus.len(), baseline.len());
        assert_eq!(fa.mlus.len(), baseline.len());
        // Everything must stay at or above the fault-aware oracle.
        for (m, b) in pred.mlus.iter().chain(fa.mlus.iter()).zip(baseline.iter().cycle()) {
            assert!(m + 1e-6 >= *b);
        }
    }

    #[test]
    fn parallel_series_are_deterministic() {
        // Snapshot fan-out must not perturb result order or values: two runs
        // of the same parallel evaluation yield identical series.
        let scenario = small_scenario();
        let options = fast_options();
        let a = omniscient_series(&scenario, &options);
        let b = omniscient_series(&scenario, &options);
        assert_eq!(a, b);
        let p1 = run_scheme(&scenario, &Scheme::Prediction, &options);
        let p2 = run_scheme(&scenario, &Scheme::Prediction, &options);
        assert_eq!(p1.mlus, p2.mlus);
        assert_eq!(p1.indices, p2.indices);
    }

    #[test]
    fn lp_schemes_report_solver_work_and_warm_start() {
        let scenario = small_scenario();
        let options = fast_options();
        for scheme in
            [Scheme::Prediction, Scheme::Desensitization(DesensitizationSettings::default())]
        {
            let run = run_scheme(&scenario, &scheme, &options);
            assert_eq!(run.lp_stats.solves, run.indices.len(), "{}", run.scheme);
            assert!(run.lp_stats.totals.iterations > 0, "{} must report pivots", run.scheme);
            assert!(
                run.lp_stats.warm_solves >= run.lp_stats.solves / 2,
                "{}: warm starts must dominate the series ({:?})",
                run.scheme,
                run.lp_stats
            );
            assert_eq!(
                run.lp_stats.totals.iterations,
                run.lp_stats.totals.phase1_iterations + run.lp_stats.totals.phase2_iterations
            );
        }
        // The omniscient series reports its solver work too.
        let (series, stats) = omniscient_series_with_stats(&scenario, &options);
        assert_eq!(stats.solves, series.len());
        assert!(stats.totals.iterations > 0);
        // Static precomputed schemes perform no per-snapshot LP solves.
        let oblivious = run_scheme(&scenario, &Scheme::Oblivious, &options);
        assert_eq!(oblivious.lp_stats, figret_solvers::SeriesStats::default());
    }

    /// Every default-scale path set is solved exactly, so every quality
    /// figure is normalized by the true optimum.  Reduced Cogentco is the
    /// largest (6 768 paths): its omniscient series must equal the one-shot
    /// LP optimum of each snapshot, which the iterative engine misses by
    /// ≈ 0.5 %.
    #[test]
    fn every_reduced_scenario_is_normalized_by_the_exact_optimum() {
        let options = ScenarioOptions { num_snapshots: 40, ..Default::default() };
        for scenario in Scenario::quality_suite(&options) {
            let paths = scenario.paths.num_paths();
            assert!(solves_exactly(paths), "{}: {paths} paths", scenario.name);
        }
        let scenario = Scenario::build(Topology::Cogentco, &options);
        let eval = EvalOptions { window: 4, max_eval_snapshots: Some(3), failure: None };
        let series = omniscient_series(&scenario, &eval);
        let indices = eval.eval_indices(&scenario);
        assert_eq!(series.len(), 3);
        for (&t, mlu) in indices.iter().zip(&series) {
            let demand = scenario.trace.snapshot(t).values();
            let exact =
                figret_solvers::solve_lp(&MluProblem::new(&scenario.paths, demand.to_vec()))
                    .expect("the omniscient LP is solvable");
            let optimum = max_link_utilization_pairs(&scenario.paths, &exact, demand);
            assert!((mlu - optimum).abs() < 1e-7, "snapshot {t}: series {mlu} vs LP {optimum}");
        }
    }

    #[test]
    fn eval_indices_subsampling() {
        let scenario = small_scenario();
        let options = EvalOptions { window: 4, max_eval_snapshots: Some(5), ..Default::default() };
        let idx = options.eval_indices(&scenario);
        assert_eq!(idx.len(), 5);
        let unlimited = EvalOptions { window: 4, max_eval_snapshots: None, ..Default::default() };
        assert!(unlimited.eval_indices(&scenario).len() >= idx.len());
    }

    #[test]
    fn scheme_names_are_stable() {
        assert_eq!(Scheme::Oblivious.name(), "Oblivious");
        assert_eq!(Scheme::Figret(FigretConfig::fast_test()).name(), "FIGRET");
        assert_eq!(Scheme::default_suite(true).len(), 5);
    }
}
