//! One function per table / figure of the paper's evaluation.
//!
//! Every function prints the same rows or series the paper reports (CSV for
//! time series / scatter data, aligned tables for summary statistics).  The
//! corresponding binaries in `src/bin/` are thin wrappers that parse a few
//! command-line flags and call these functions; EXPERIMENTS.md records the
//! measured outputs next to the paper's numbers.

use figret::FigretConfig;
use figret_serve::SlidingMax;
use figret_solvers::{DesensitizationSettings, HeuristicBound};
use figret_te::{max_sensitivity_per_pair, mean, normalize_by, relative_change, SchemeQuality};
use figret_topology::{random_link_failures, Topology};
use figret_traffic::{
    cosine_similarity_analysis, gaussian_fluctuation, per_pair_variance_range, percentile,
    spearman_rank_correlation, worst_case_fluctuation, TrainTestSplit,
};
use rayon::prelude::*;

use crate::args::{FlagSet, FlagValues};
use crate::report::{
    ascii_box, lp_work_columns, lp_work_header, print_csv_series, print_quality_panel, print_table,
};
use crate::runner::{
    deployed_series, forecast, omniscient_series, omniscient_series_with_stats, run_scheme,
    EvalOptions, Scheme,
};
use crate::scenario::{Scenario, ScenarioOptions};

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Use the paper's full Table 1 topology sizes (default: reduced).
    pub full_scale: bool,
    /// Use small learning configurations and few snapshots (for CI / smoke runs).
    pub fast: bool,
    /// Number of trace snapshots.
    pub snapshots: usize,
    /// History window `H`.
    pub window: usize,
    /// Evaluate at most this many test snapshots per scheme.
    pub max_eval: usize,
    /// Evaluate all failure topologies in the failure experiment (Figures 14/15).
    pub all_topologies: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            full_scale: false,
            fast: false,
            snapshots: 400,
            window: 12,
            max_eval: 60,
            all_topologies: false,
        }
    }
}

impl ExperimentOptions {
    /// The [`FlagSet`] declaring the common flags every experiment binary
    /// accepts.  Binaries with extra flags (e.g. `serve_sim`) extend this
    /// set before parsing, so the whole suite shares one implementation.
    pub fn flag_set(program: &str, about: &str) -> FlagSet {
        let d = ExperimentOptions::default();
        FlagSet::new(program, about)
            .switch("full-scale", "use the paper's full Table 1 topology sizes")
            .switch("fast", "small learning configs and short traces (CI / smoke runs)")
            .number("snapshots", d.snapshots, "number of trace snapshots")
            .number("window", d.window, "history window H")
            .number("max-eval", d.max_eval, "evaluate at most this many test snapshots")
            .switch("all-topologies", "evaluate every failure topology (Figures 14/15)")
    }

    /// Extracts the common options from parsed [`FlagValues`] (shared with
    /// binaries that extend the flag set).  `--fast` lowers the *default*
    /// trace length and evaluation budget; explicit `--snapshots` /
    /// `--max-eval` always win.  A value no run can use — a window of 0, or
    /// a trace whose training split holds no full window — is an error
    /// naming the flag.
    pub fn from_flag_values(values: &FlagValues) -> Result<ExperimentOptions, String> {
        let fast = values.switch("fast");
        let mut snapshots = values.number("snapshots");
        if fast && !values.provided("snapshots") {
            snapshots = snapshots.min(160);
        }
        let mut max_eval = values.number("max-eval");
        if fast && !values.provided("max-eval") {
            max_eval = max_eval.min(20);
        }
        let options = ExperimentOptions {
            full_scale: values.switch("full-scale"),
            fast,
            snapshots,
            window: values.number("window"),
            max_eval,
            all_topologies: values.switch("all-topologies"),
        };
        options.check()?;
        Ok(options)
    }

    /// The window must span a snapshot, and the scenarios' chronological
    /// split must leave a training sample: a target snapshot inside the
    /// training range with a full window before it.
    fn check(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("--window must be at least 1".to_string());
        }
        let fraction = self.scenario_options().train_fraction;
        let trains = |n: usize| TrainTestSplit::chronological(n, fraction).train.end > self.window;
        if trains(self.snapshots) {
            return Ok(());
        }
        let from = self.snapshots.max((self.window as f64 / fraction) as usize);
        let least = (from..=usize::MAX)
            .find(|&n| trains(n))
            .map_or(String::new(), |n| format!("; use --snapshots {n} or more"));
        Err(format!(
            "--snapshots {} leaves no training sample for --window {}: the first {}% of the \
             trace trains, and a sample needs {} earlier snapshots{least}",
            self.snapshots,
            self.window,
            fraction * 100.0,
            self.window
        ))
    }

    /// Parses the common command-line flags (`--full-scale`, `--fast`,
    /// `--snapshots N`, `--window N`, `--max-eval N`, `--all-topologies`).
    /// On a user error (unknown flag, malformed number, unusable value)
    /// prints the error and a usage message and exits with status 2.
    pub fn from_args<I: Iterator<Item = String>>(args: I) -> ExperimentOptions {
        let flags = ExperimentOptions::flag_set("experiment", "regenerate a paper table/figure");
        ExperimentOptions::from_flag_values(&flags.parse_or_exit(args))
            .unwrap_or_else(|message| flags.usage_error(&message))
    }

    /// Fallible counterpart of [`ExperimentOptions::from_args`] for tests
    /// and embedding.
    pub fn try_from_args<I: Iterator<Item = String>>(args: I) -> Result<ExperimentOptions, String> {
        let flags = ExperimentOptions::flag_set("experiment", "regenerate a paper table/figure");
        ExperimentOptions::from_flag_values(&flags.parse(args)?)
    }

    /// Scenario construction options implied by the flags.
    pub fn scenario_options(&self) -> ScenarioOptions {
        ScenarioOptions {
            full_scale: self.full_scale,
            num_snapshots: self.snapshots,
            ..Default::default()
        }
    }

    /// Evaluation options implied by the flags.
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions { window: self.window, max_eval_snapshots: Some(self.max_eval), failure: None }
    }

    /// The FIGRET learning configuration implied by the flags (small
    /// networks/epochs under `--fast`).
    pub fn learning_config(&self) -> FigretConfig {
        if self.fast {
            FigretConfig { history_window: self.window, ..FigretConfig::fast_test() }
        } else {
            FigretConfig { history_window: self.window, ..FigretConfig::default() }
        }
    }
}

/// Figure 1: MLU over time with and without Google's hedging mechanism on
/// GEANT, PoD-level and ToR-level traffic.
pub fn fig1_hedging(options: &ExperimentOptions) {
    let eval = options.eval_options();
    for scenario in Scenario::motivation_suite(&options.scenario_options()) {
        let no_hedging = run_scheme(&scenario, &Scheme::Prediction, &eval);
        let hedging = run_scheme(
            &scenario,
            &Scheme::Desensitization(DesensitizationSettings::default()),
            &eval,
        );
        let max =
            no_hedging.mlus.iter().chain(&hedging.mlus).cloned().fold(0.0f64, f64::max).max(1e-12);
        println!("\n# Figure 1 — {} (MLU normalized to the maximum observed)", scenario.name);
        let norm = |v: &[f64]| v.iter().map(|m| m / max).collect::<Vec<_>>();
        print_csv_series("no_hedging", &norm(&no_hedging.mlus));
        print_csv_series("hedging", &norm(&hedging.mlus));
        let trough = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "summary: no-hedging peak=1.000 trough={:.3}; hedging peak={:.3} trough={:.3}",
            trough(&norm(&no_hedging.mlus)),
            norm(&hedging.mlus).iter().cloned().fold(0.0, f64::max),
            trough(&norm(&hedging.mlus)),
        );
    }
}

/// Figure 2: normalized per-SD-pair demand variance for the three motivation
/// networks (printed as CSV matrices).
pub fn fig2_variance(options: &ExperimentOptions) {
    for scenario in Scenario::motivation_suite(&options.scenario_options()) {
        let var = per_pair_variance_range(&scenario.trace, 0..scenario.trace.len());
        let max = var.iter().cloned().fold(0.0, f64::max).max(1e-12);
        let n = scenario.graph.num_nodes();
        println!("\n# Figure 2 — {} normalized per-pair variance ({} x {})", scenario.name, n, n);
        let mut it = var.iter();
        for s in 0..n {
            let mut row = Vec::with_capacity(n);
            for d in 0..n {
                if s == d {
                    row.push(0.0);
                } else {
                    row.push(*it.next().expect("variance vector length matches") / max);
                }
            }
            print_csv_series(&format!("src{s}"), &row);
        }
    }
}

/// Figure 3: the three-node illustrative example with TE schemes 1/2/3.
pub fn fig3_toy() {
    use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};
    use figret_topology::{Graph, NodeId};
    use figret_traffic::DemandMatrix;

    let mut g = Graph::named("figure3", 3);
    g.add_bidirectional(NodeId(0), NodeId(1), 2.0).unwrap();
    g.add_bidirectional(NodeId(0), NodeId(2), 2.0).unwrap();
    g.add_bidirectional(NodeId(1), NodeId(2), 2.0).unwrap();
    let ps = PathSet::k_shortest(&g, 2);
    let demand = |ab: f64, ac: f64, bc: f64| {
        let mut d = DemandMatrix::zeros(3);
        d.set(0, 1, ab);
        d.set(0, 2, ac);
        d.set(1, 2, bc);
        d
    };
    let scheme1 = TeConfig::shortest_path(&ps);
    let scheme2 = TeConfig::uniform(&ps);
    let mut raw = vec![0.0; ps.num_paths()];
    for pair in 0..ps.num_pairs() {
        let (s, d) = ps.pairs()[pair];
        for pi in ps.paths_of_pair(pair) {
            let direct = ps.path(pi).len() == 1;
            raw[pi] = if s == NodeId(1) && d == NodeId(2) {
                if direct {
                    0.625
                } else {
                    0.375
                }
            } else if direct {
                1.0
            } else {
                0.0
            };
        }
    }
    let scheme3 = TeConfig::from_raw(&ps, &raw);
    let situations = [
        ("normal", demand(1.0, 1.0, 1.0)),
        ("burst 1 (A->B = 4)", demand(4.0, 1.0, 1.0)),
        ("burst 2 (A->C = 4)", demand(1.0, 4.0, 1.0)),
        ("burst 3 (B->C = 4)", demand(1.0, 1.0, 4.0)),
    ];
    let mut rows = Vec::new();
    for (name, d) in &situations {
        let d = d.flatten_pairs();
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", max_link_utilization_pairs(&ps, &scheme1, &d)),
            format!("{:.4}", max_link_utilization_pairs(&ps, &scheme2, &d)),
            format!("{:.4}", max_link_utilization_pairs(&ps, &scheme3, &d)),
        ]);
    }
    print_table(
        "Figure 3 — illustrative example",
        &["situation", "scheme 1", "scheme 2", "scheme 3"],
        &rows,
    );
}

/// Figure 4 (and Figure 18 with `window = 64`): cosine-similarity candlesticks
/// of every topology's traffic.
pub fn fig4_cosine(options: &ExperimentOptions) {
    let scenarios = Scenario::quality_suite(&options.scenario_options());
    let mut rows = Vec::new();
    println!("\n# Figure 4 — cosine similarity vs. the previous {} TMs", options.window);
    for s in &scenarios {
        let summary = cosine_similarity_analysis(&s.trace, options.window);
        rows.push(vec![
            s.name.clone(),
            format!("{:.3}", summary.p25),
            format!("{:.3}", summary.median),
            format!("{:.3}", summary.p75),
            format!("{:.3}", summary.min),
            format!("{:.3}", summary.max),
            ascii_box(&summary, 0.0, 1.0, 40),
        ]);
    }
    print_table(
        "Figure 4 — cosine similarity distribution",
        &["topology", "p25", "median", "p75", "min", "max", "0 .. 1"],
        &rows,
    );
}

fn quality_schemes(options: &ExperimentOptions, include_worst_case: bool) -> Vec<Scheme> {
    let mut schemes = Scheme::default_suite(options.fast);
    // The learning configs in the default suite must use the requested window.
    for s in &mut schemes {
        if let Scheme::Figret(c) | Scheme::Dote(c) | Scheme::TealLike(c) = s {
            c.history_window = options.window;
        }
    }
    if include_worst_case {
        schemes.push(Scheme::Oblivious);
        schemes.push(Scheme::Cope);
    }
    schemes
}

fn run_quality_panel(
    scenario: &Scenario,
    schemes: &[Scheme],
    eval: &EvalOptions,
) -> Vec<SchemeQuality> {
    let baseline = omniscient_series(scenario, eval);
    // The scheme suite is independent per scheme: evaluate it in parallel and
    // keep the reported rows in suite order.
    schemes.par_iter().map(|scheme| run_scheme(scenario, scheme, eval).quality(&baseline)).collect()
}

/// Figure 5: normalized-MLU distributions of every scheme on every topology.
/// Oblivious and COPE are only evaluated on the small topologies (GEANT,
/// pFabric, PoD level), as in the paper.
pub fn fig5_quality(options: &ExperimentOptions) {
    let eval = options.eval_options();
    for scenario in Scenario::quality_suite(&options.scenario_options()) {
        let small = matches!(
            scenario.topology,
            Topology::Geant | Topology::PFabric | Topology::MetaDbPod | Topology::MetaWebPod
        );
        let schemes = quality_schemes(options, small);
        let qualities = run_quality_panel(&scenario, &schemes, &eval);
        print_quality_panel(
            &format!("Figure 5 — {} (MLU normalized by the omniscient optimum)", scenario.name),
            &qualities,
        );
    }
}

/// Figure 6: the GEANT and pFabric panels of Figure 5 re-run with SMORE's
/// Räcke-style path selection ("Pred TE" then coincides with SMORE).
pub fn fig6_smore(options: &ExperimentOptions) {
    let eval = options.eval_options();
    for topology in [Topology::Geant, Topology::PFabric] {
        let scenario = Scenario::build(topology, &options.scenario_options()).with_racke_paths();
        let schemes = quality_schemes(options, true);
        let qualities = run_quality_panel(&scenario, &schemes, &eval);
        print_quality_panel(&format!("Figure 6 — {}", scenario.name), &qualities);
    }
}

/// Figures 7 / 14 / 15: random link failures.  Normalization is against an
/// oracle that knows both the demands and the failures.
pub fn fig7_failures(options: &ExperimentOptions) {
    let topologies: Vec<Topology> = if options.all_topologies {
        vec![Topology::Geant, Topology::PFabric, Topology::MetaDbTor]
    } else {
        vec![Topology::Geant]
    };
    for topology in topologies {
        let scenario = Scenario::build(topology, &options.scenario_options());
        println!("\n# Figure 7 — link failures on {}", scenario.name);
        let mut rows = Vec::new();
        for failures in 1..=3usize {
            let scenario_failure = match random_link_failures(&scenario.graph, failures, 97) {
                Some(f) => f,
                None => {
                    println!("  (cannot fail {failures} links while staying connected; skipping)");
                    continue;
                }
            };
            let eval = EvalOptions { failure: Some(scenario_failure), ..options.eval_options() };
            let baseline = omniscient_series(&scenario, &eval);
            let schemes = vec![
                Scheme::Figret(options.learning_config()),
                Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..options.learning_config() }),
                Scheme::Desensitization(DesensitizationSettings::default()),
                Scheme::FaultAwareDesensitization(DesensitizationSettings::default()),
            ];
            for scheme in schemes {
                let run = run_scheme(&scenario, &scheme, &eval);
                let q = run.quality(&baseline);
                rows.push(vec![
                    format!("{failures}"),
                    q.scheme.clone(),
                    format!("{:.3}", q.normalized_mlu.mean),
                    format!("{:.3}", q.normalized_mlu.p99),
                    format!("{:.3}", q.normalized_mlu.max),
                ]);
            }
        }
        print_table(
            &format!("Figure 7 — {} (normalized vs. failure-aware oracle)", scenario.name),
            &["#failures", "scheme", "mean", "p99", "max"],
            &rows,
        );
    }
}

/// Figure 8: per-pair traffic variance vs. the path sensitivity each scheme
/// assigns (Des TE vs FIGRET), printed as CSV scatter data plus a summary.
/// Each scheme's sensitivities are averaged over the configurations it
/// deploys on the evaluated snapshots — the series Figure 5 scores.
pub fn fig8_sensitivity(options: &ExperimentOptions) {
    let eval = options.eval_options();
    for topology in [Topology::MetaDbPod, Topology::MetaDbTor] {
        let scenario = Scenario::build(topology, &options.scenario_options());
        let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
        let max_var = variances.iter().cloned().fold(0.0, f64::max).max(1e-12);
        let evaluated = eval.evaluated(&scenario, &eval.eval_indices(&scenario));
        println!("\n# Figure 8 — {} (variance vs. mean max path sensitivity)", scenario.name);
        for (label, scheme) in [
            ("des_te", Scheme::Desensitization(DesensitizationSettings::default())),
            ("figret", Scheme::Figret(options.learning_config())),
        ] {
            let (configs, ..) = deployed_series(&scenario, &scheme, &eval, &evaluated);
            let mut sums = vec![0.0f64; scenario.paths.num_pairs()];
            for cfg in &configs {
                let sensitivities = max_sensitivity_per_pair(&scenario.paths, cfg);
                for (sum, s) in sums.iter_mut().zip(sensitivities) {
                    *sum += s;
                }
            }
            // Mean max sensitivity per pair, in units of the smallest capacity.
            let min_cap =
                scenario.paths.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
            let count = configs.len().max(1) as f64;
            let sensitivity: Vec<f64> = sums.iter().map(|s| s / count * min_cap).collect();
            let scatter: Vec<f64> =
                variances.iter().zip(&sensitivity).flat_map(|(v, s)| [v / max_var, *s]).collect();
            print_csv_series(&format!("{label}_scatter_varnorm_sens"), &scatter);
            // Correlation summary: FIGRET should assign lower sensitivity to
            // high-variance pairs than to low-variance pairs.
            let rho = spearman_rank_correlation(&variances, &sensitivity);
            println!("{label}: spearman(variance, sensitivity) = {rho:.3}");
        }
    }
}

/// Table 2: per-snapshot calculation time and precomputation time.
/// Per-snapshot times print in µs: FIGRET's plan forward pass takes tens of
/// µs, which a seconds column rounds to zero.
pub fn table2_time(options: &ExperimentOptions) {
    let micros = |seconds: f64| format!("{:.1} µs", 1e6 * seconds);
    let eval = options.eval_options();
    let topologies = vec![Topology::Geant, Topology::MetaDbTor, Topology::MetaWebTor];
    let mut rows = Vec::new();
    let mut work_rows = Vec::new();
    for topology in topologies {
        let scenario = Scenario::build(topology, &options.scenario_options());
        let figret_run = run_scheme(&scenario, &Scheme::Figret(options.learning_config()), &eval);
        let pred_run = run_scheme(&scenario, &Scheme::Prediction, &eval);
        let des_run = run_scheme(
            &scenario,
            &Scheme::Desensitization(DesensitizationSettings::default()),
            &eval,
        );
        let (_, omni_stats) = omniscient_series_with_stats(&scenario, &eval);
        let mut omni_row = vec![scenario.name.clone(), "Omniscient".to_string()];
        omni_row.extend(lp_work_columns(&omni_stats));
        work_rows.push(omni_row);
        for run in [&pred_run, &des_run] {
            let mut row = vec![scenario.name.clone(), run.scheme.clone()];
            row.extend(lp_work_columns(&run.lp_stats));
            work_rows.push(row);
        }
        let oblivious_feasible = scenario.paths.num_pairs() <= 600;
        rows.push(vec![
            format!(
                "{} (n={}, e={})",
                scenario.name,
                scenario.graph.num_nodes(),
                scenario.graph.num_edges()
            ),
            micros(figret_run.mean_solve_seconds),
            micros(pred_run.mean_solve_seconds),
            micros(des_run.mean_solve_seconds),
            if oblivious_feasible { "feasible".into() } else { "infeasible".into() },
            format!("{:.1}s", figret_run.precompute_seconds),
            format!(
                "{:.0}x",
                (des_run.mean_solve_seconds / figret_run.mean_solve_seconds.max(1e-9)).max(1.0)
            ),
        ]);
    }
    print_table(
        "Table 2 — calculation and precomputation time",
        &[
            "network",
            "FIGRET",
            "LP (pred)",
            "Des TE",
            "Oblivious&COPE",
            "FIGRET precomp",
            "Des/FIGRET speedup",
        ],
        &rows,
    );
    let mut work_header = vec!["network", "scheme"];
    work_header.extend(lp_work_header());
    print_table(
        "Table 2 — LP solver work (warm-started template series)",
        &work_header,
        &work_rows,
    );
}

fn decline_table(
    title: &str,
    options: &ExperimentOptions,
    perturb: impl Fn(&Scenario, f64) -> figret_traffic::TrafficTrace,
) {
    let eval = options.eval_options();
    let alphas = [0.2, 0.5, 1.0, 2.0];
    let mut rows = Vec::new();
    for topology in [Topology::MetaDbPod, Topology::PFabric, Topology::MetaDbTor] {
        let scenario = Scenario::build(topology, &options.scenario_options());
        let baseline_run = run_scheme(&scenario, &Scheme::Figret(options.learning_config()), &eval);
        let baseline_omni = omniscient_series(&scenario, &eval);
        let base_norm = normalize_by(&baseline_run.mlus, &baseline_omni);
        let base_mean = mean(&base_norm);
        let mut sorted = base_norm.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let base_p90 = percentile(&sorted, 0.9);
        let mut avg_row = vec![scenario.name.clone(), "average".to_string()];
        let mut p90_row = vec![String::new(), "90th Pct.".to_string()];
        for &alpha in &alphas {
            let perturbed_trace = perturb(&scenario, alpha);
            let perturbed = Scenario { trace: perturbed_trace, ..scenario.clone() };
            let run = run_scheme(&perturbed, &Scheme::Figret(options.learning_config()), &eval);
            let omni = omniscient_series(&perturbed, &eval);
            let norm = normalize_by(&run.mlus, &omni);
            let mut s = norm.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            avg_row.push(format!("{:+.1}%", 100.0 * relative_change(mean(&norm), base_mean)));
            p90_row
                .push(format!("{:+.1}%", 100.0 * relative_change(percentile(&s, 0.9), base_p90)));
        }
        rows.push(avg_row);
        rows.push(p90_row);
    }
    print_table(title, &["network", "metric", "α=0.2", "α=0.5", "α=1.0", "α=2.0"], &rows);
}

/// Table 3: FIGRET's performance decline under added Gaussian fluctuations.
pub fn table3_fluctuation(options: &ExperimentOptions) {
    decline_table(
        "Table 3 — performance decline with increased traffic fluctuation",
        options,
        |s, alpha| gaussian_fluctuation(&s.trace, s.split.test.clone(), alpha, 1234),
    );
}

/// Table 5: the adversarial variant (fluctuations follow the reversed variance
/// ranking), plus the train/test Spearman consistency check.
pub fn table5_worstcase(options: &ExperimentOptions) {
    decline_table(
        "Table 5 — performance decline under worst-case conditions",
        options,
        |s, alpha| worst_case_fluctuation(&s.trace, s.split.test.clone(), alpha, 1234),
    );
    // Spearman rank correlation between train and test variance rankings.
    let mut rows = Vec::new();
    for topology in [Topology::MetaDbPod, Topology::PFabric, Topology::MetaDbTor] {
        let scenario = Scenario::build(topology, &options.scenario_options());
        let train_var = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
        let test_var = per_pair_variance_range(&scenario.trace, scenario.split.test.clone());
        let rho = spearman_rank_correlation(&train_var, &test_var);
        rows.push(vec![scenario.name.clone(), format!("{rho:.2}")]);
    }
    print_table(
        "Table 5 — train/test variance-rank consistency",
        &["network", "Spearman ρ"],
        &rows,
    );
}

/// Table 4: natural drift — train on earlier segments, test on the final
/// 25%.  Next to the paper's quality-decline rows, a churn row shows how
/// much routing reconfiguration each drifted model asks for per snapshot
/// ([`crate::runner::SchemeRun::mean_churn`]) — drift robustness and
/// routing stability side by side.
pub fn table4_drift(options: &ExperimentOptions) {
    let eval = options.eval_options();
    let segments = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75)];
    let mut rows = Vec::new();
    for topology in [Topology::MetaDbPod, Topology::PFabric, Topology::MetaDbTor] {
        let scenario = Scenario::build(topology, &options.scenario_options());
        let omni = omniscient_series(&scenario, &eval);
        // Reference: trained on the full first 75%.
        let reference = run_scheme(&scenario, &Scheme::Figret(options.learning_config()), &eval);
        let ref_norm = normalize_by(&reference.mlus, &omni);
        let ref_mean = mean(&ref_norm);
        let mut sorted_ref = ref_norm.clone();
        sorted_ref.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ref_p90 = percentile(&sorted_ref, 0.9);
        let mut avg_row = vec![scenario.name.clone(), "average".to_string()];
        let mut p90_row = vec![String::new(), "90th Pct.".to_string()];
        let mut churn_row =
            vec![String::new(), format!("churn L1 (ref {:.3})", reference.mean_churn)];
        for (start, end) in segments {
            let mut segment_scenario = scenario.clone();
            segment_scenario.split =
                TrainTestSplit::segment(scenario.trace.len(), start, end, 0.75);
            let run =
                run_scheme(&segment_scenario, &Scheme::Figret(options.learning_config()), &eval);
            let norm = normalize_by(&run.mlus, &omni);
            let mut sorted = norm.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            avg_row.push(format!("{:+.1}%", 100.0 * relative_change(mean(&norm), ref_mean)));
            p90_row.push(format!(
                "{:+.1}%",
                100.0 * relative_change(percentile(&sorted, 0.9), ref_p90)
            ));
            churn_row.push(format!("{:.3}", run.mean_churn));
        }
        rows.push(avg_row);
        rows.push(p90_row);
        rows.push(churn_row);
    }
    print_table(
        "Table 4 — performance decline with natural drift in traffic (+ routing churn)",
        &["network", "metric", "0%-25%", "25%-50%", "50%-75%"],
        &rows,
    );
}

/// Appendix C (Figures 10 and 12): heuristic fine-grained sensitivity bounds
/// retrofitted onto desensitization-based TE, on the PoD-level DB cluster.
pub fn appendix_c(options: &ExperimentOptions) {
    let eval = options.eval_options();
    let scenario = Scenario::build(Topology::MetaDbPod, &options.scenario_options());
    let baseline = omniscient_series(&scenario, &eval);

    // Table 7 parameter sets (linear function).
    let linear_sets: Vec<(&str, HeuristicBound)> = vec![
        ("1: strict (min 1/3, max 1/2)", HeuristicBound::Linear { min: 1.0 / 3.0, max: 0.5 }),
        ("2: strict (min 1/3, max 2/3)", HeuristicBound::Linear { min: 1.0 / 3.0, max: 2.0 / 3.0 }),
        ("3: original (2/3, 2/3)", HeuristicBound::Linear { min: 2.0 / 3.0, max: 2.0 / 3.0 }),
        (
            "4: relaxed (min 2/3, max 5/6)",
            HeuristicBound::Linear { min: 2.0 / 3.0, max: 5.0 / 6.0 },
        ),
        ("5: both (min 1/3, max 5/6)", HeuristicBound::Linear { min: 1.0 / 3.0, max: 5.0 / 6.0 }),
    ];
    let mut qualities = Vec::new();
    for (label, bound) in &linear_sets {
        let run = run_scheme(&scenario, &Scheme::HeuristicFineGrained(*bound), &eval);
        let mut q = run.quality(&baseline);
        q.scheme = format!("linear {label}");
        qualities.push(q);
    }
    print_quality_panel("Figure 10 — linear heuristic F on PoD DB", &qualities);

    // Table 8 parameter sets (piecewise function).
    let piecewise_sets: Vec<(&str, HeuristicBound)> = vec![
        (
            "1: min 1/2, bp 0.5",
            HeuristicBound::Piecewise { min: 0.5, max: 2.0 / 3.0, breakpoint: 0.5 },
        ),
        (
            "2: min 1/2, bp 0.65",
            HeuristicBound::Piecewise { min: 0.5, max: 2.0 / 3.0, breakpoint: 0.65 },
        ),
        (
            "3: min 1/2, bp 0.8",
            HeuristicBound::Piecewise { min: 0.5, max: 2.0 / 3.0, breakpoint: 0.8 },
        ),
        (
            "4: original",
            HeuristicBound::Piecewise { min: 2.0 / 3.0, max: 2.0 / 3.0, breakpoint: 0.5 },
        ),
        (
            "5: max 5/6, bp 0.5",
            HeuristicBound::Piecewise { min: 2.0 / 3.0, max: 5.0 / 6.0, breakpoint: 0.5 },
        ),
        (
            "6: max 5/6, bp 0.65",
            HeuristicBound::Piecewise { min: 2.0 / 3.0, max: 5.0 / 6.0, breakpoint: 0.65 },
        ),
        (
            "7: max 5/6, bp 0.8",
            HeuristicBound::Piecewise { min: 2.0 / 3.0, max: 5.0 / 6.0, breakpoint: 0.8 },
        ),
    ];
    let mut qualities = Vec::new();
    for (label, bound) in &piecewise_sets {
        let run = run_scheme(&scenario, &Scheme::HeuristicFineGrained(*bound), &eval);
        let mut q = run.quality(&baseline);
        q.scheme = format!("piecewise {label}");
        qualities.push(q);
    }
    print_quality_panel("Figure 12 — piecewise heuristic F on PoD DB", &qualities);
}

/// Figure 20: DOTE's failure mode — find the test snapshot where DOTE's
/// normalized MLU is worst and show the responsible pair's recent history and
/// the sensitivity DOTE vs FIGRET assigned to its paths.
pub fn fig20_dote_limit(options: &ExperimentOptions) {
    let eval = options.eval_options();
    let scenario = Scenario::build(Topology::MetaDbTor, &options.scenario_options());
    let baseline = omniscient_series(&scenario, &eval);
    let dote = run_scheme(
        &scenario,
        &Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..options.learning_config() }),
        &eval,
    );
    let norm = normalize_by(&dote.mlus, &baseline);
    let (worst_pos, worst_value) = norm
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, v)| (i, *v))
        .unwrap_or((0, 1.0));
    let t = dote.indices[worst_pos];
    println!("\n# Figure 20 — DOTE's worst normalized MLU is {worst_value:.2} at snapshot {t}");
    // Show the pair whose demand grew the most relative to its window's peak.
    let window = eval.window;
    let evaluated = eval.evaluated(&scenario, &dote.indices);
    let current = evaluated.target(worst_pos);
    let window_max = forecast(SlidingMax::new(window), evaluated.history(worst_pos));
    let (best_pair, _) = current
        .iter()
        .zip(&window_max)
        .map(|(c, w)| c - w)
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap_or((0, 0.0));
    let series: Vec<f64> =
        (t - window..=t).map(|h| scenario.trace.snapshot(h).values()[best_pair]).collect();
    print_csv_series("bursting_pair_window_then_upcoming", &series);
    println!(
        "pair {} burst from a window maximum of {:.3} to {:.3}",
        best_pair,
        series[..window].iter().cloned().fold(0.0, f64::max),
        series[window]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            fast: true,
            snapshots: 60,
            window: 4,
            max_eval: 4,
            ..Default::default()
        }
    }

    #[test]
    fn args_parsing() {
        let o = ExperimentOptions::from_args(
            ["--fast", "--window", "6", "--snapshots", "90", "--all-topologies"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(o.fast);
        assert_eq!(o.window, 6);
        assert_eq!(o.snapshots, 90);
        assert!(o.all_topologies);
        assert!(!o.full_scale);
        // --fast lowers the *defaults* when the flags are not explicit...
        assert_eq!(o.max_eval, 20);
        // ...but explicit values always win, in any order.
        let explicit = ExperimentOptions::try_from_args(
            ["--max-eval", "45", "--fast"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(explicit.max_eval, 45);
        assert_eq!(explicit.snapshots, 160);
    }

    #[test]
    fn malformed_args_are_errors_not_panics() {
        let err =
            ExperimentOptions::try_from_args(["--snapshots", "lots"].iter().map(|s| s.to_string()))
                .unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
        let err = ExperimentOptions::try_from_args(["--window"].iter().map(|s| s.to_string()))
            .unwrap_err();
        assert!(err.contains("requires an argument"), "{err}");
        let err = ExperimentOptions::try_from_args(["--bogus"].iter().map(|s| s.to_string()))
            .unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn unusable_values_are_errors_naming_the_flag() {
        let parse =
            |args: &[&str]| ExperimentOptions::try_from_args(args.iter().map(|s| s.to_string()));
        let err = parse(&["--fast", "--window", "0"]).unwrap_err();
        assert!(err.contains("--window"), "{err}");
        // 75% of 17 snapshots is 12.75: twelve train, none with a full
        // window of 12 before it; 18 leave the thirteenth.
        let err = parse(&["--fast", "--snapshots", "17"]).unwrap_err();
        assert!(err.contains("--snapshots 17") && err.contains("--snapshots 18 or more"), "{err}");
        assert_eq!(parse(&["--fast", "--snapshots", "18"]).unwrap().snapshots, 18);
        let err = parse(&["--snapshots", "5", "--window", "4"]).unwrap_err();
        assert!(err.contains("--snapshots 7 or more"), "{err}");
        assert!(parse(&["--snapshots", "7", "--window", "4"]).is_ok());
    }

    #[test]
    fn fig3_toy_prints() {
        fig3_toy();
    }

    #[test]
    fn fig4_cosine_smoke() {
        fig4_cosine(&ExperimentOptions { snapshots: 40, window: 6, ..tiny_options() });
    }

    #[test]
    fn fig1_hedging_smoke() {
        fig1_hedging(&tiny_options());
    }

    #[test]
    fn table2_smoke() {
        table2_time(&tiny_options());
    }
}
