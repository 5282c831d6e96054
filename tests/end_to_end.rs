//! End-to-end integration tests spanning every crate of the workspace:
//! topology generation → traffic synthesis → path selection → training →
//! evaluation against the LP-based baselines.

use figret::{FigretConfig, FigretModel};
use figret_eval::{omniscient_series, run_scheme, EvalOptions, Scenario, ScenarioOptions, Scheme};
use figret_solvers::DesensitizationSettings;
use figret_te::{max_link_utilization_pairs, robustness_penalty, TeConfig};
use figret_topology::Topology;
use figret_traffic::{per_pair_variance_range, WindowDataset};

fn small_scenario(topology: Topology) -> Scenario {
    Scenario::build(topology, &ScenarioOptions { num_snapshots: 100, ..Default::default() })
}

fn fast_eval() -> EvalOptions {
    EvalOptions { window: 4, max_eval_snapshots: Some(6), ..Default::default() }
}

#[test]
fn full_pipeline_on_the_pod_fabric() {
    let scenario = small_scenario(Topology::MetaDbPod);
    let eval = fast_eval();
    let baseline = omniscient_series(&scenario, &eval);
    assert!(!baseline.is_empty());
    assert!(baseline.iter().all(|m| m.is_finite() && *m > 0.0));

    let schemes = vec![
        Scheme::Figret(FigretConfig::fast_test()),
        Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..FigretConfig::fast_test() }),
        Scheme::Desensitization(DesensitizationSettings::default()),
        Scheme::Prediction,
    ];
    for scheme in schemes {
        let run = run_scheme(&scenario, &scheme, &eval);
        let quality = run.quality(&baseline);
        assert!(
            quality.normalized_mlu.min >= 1.0 - 1e-6,
            "{}: no scheme may beat the omniscient optimum (min {})",
            quality.scheme,
            quality.normalized_mlu.min
        );
        assert!(
            quality.normalized_mlu.mean < 25.0,
            "{}: unreasonably poor normalized MLU {}",
            quality.scheme,
            quality.normalized_mlu.mean
        );
    }
}

#[test]
fn figret_configs_are_valid_and_less_sensitive_than_dote_on_bursty_pairs() {
    let scenario = small_scenario(Topology::MetaDbPod);
    let window = 4;
    let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    let dataset = WindowDataset::from_trace(&scenario.trace, window, scenario.split.train.clone());

    let mut figret = FigretModel::new(
        &scenario.paths,
        &variances,
        FigretConfig { robustness_weight: 3.0, ..FigretConfig::fast_test() },
    );
    figret.train(&dataset);
    let mut dote = FigretModel::new(
        &scenario.paths,
        &variances,
        FigretConfig { robustness_weight: 0.0, ..FigretConfig::fast_test() },
    );
    dote.train(&dataset);

    // Average the variance-weighted sensitivity penalty over test snapshots:
    // FIGRET explicitly optimizes it, DOTE ignores it.
    let mut figret_penalty = 0.0;
    let mut dote_penalty = 0.0;
    let mut count = 0;
    for t in scenario.test_indices(window).into_iter().take(6) {
        let history = &scenario.trace.matrices()[t - window..t];
        let f_cfg = figret.predict(&scenario.paths, history);
        let d_cfg = dote.predict(&scenario.paths, history);
        assert!(f_cfg.is_valid(&scenario.paths));
        assert!(d_cfg.is_valid(&scenario.paths));
        figret_penalty += robustness_penalty(&scenario.paths, &f_cfg, &variances);
        dote_penalty += robustness_penalty(&scenario.paths, &d_cfg, &variances);
        count += 1;
    }
    assert!(count > 0);
    assert!(
        figret_penalty <= dote_penalty * 1.05,
        "FIGRET's variance-weighted sensitivity ({figret_penalty:.4}) should not exceed DOTE's ({dote_penalty:.4})"
    );
}

#[test]
fn trained_model_is_no_worse_than_uniform_on_wan_traffic() {
    let scenario = small_scenario(Topology::Geant);
    let window = 4;
    let variances = per_pair_variance_range(&scenario.trace, scenario.split.train.clone());
    let dataset = WindowDataset::from_trace(&scenario.trace, window, scenario.split.train.clone());
    let mut model = FigretModel::new(&scenario.paths, &variances, FigretConfig::fast_test());
    model.train(&dataset);

    let uniform = TeConfig::uniform(&scenario.paths);
    let mut model_total = 0.0;
    let mut uniform_total = 0.0;
    for t in scenario.test_indices(window).into_iter().take(8) {
        let history = &scenario.trace.matrices()[t - window..t];
        let cfg = model.predict(&scenario.paths, history);
        let demand = scenario.trace.matrix(t).flatten_pairs();
        model_total += max_link_utilization_pairs(&scenario.paths, &cfg, &demand);
        uniform_total += max_link_utilization_pairs(&scenario.paths, &uniform, &demand);
    }
    assert!(
        model_total <= uniform_total * 1.10,
        "trained FIGRET ({model_total:.3}) should not be much worse than uniform ({uniform_total:.3})"
    );
}
