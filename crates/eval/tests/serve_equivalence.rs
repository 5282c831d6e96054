//! Acceptance contract of the serving subsystem: with the update budget set
//! to "unlimited", the online serving loop replaying a Table 1 scenario must
//! reproduce the per-snapshot MLUs of the batch `run_scheme` path within
//! 1e-9 on the same seed — for the LP engine with the last-value predictor
//! (Pred TE) and for the learned engine (FIGRET).  The streaming controller
//! is the batch evaluator plus time, not a different optimizer.

use figret_eval::experiments::ExperimentOptions;
use figret_eval::runner::{omniscient_series, run_scheme, EvalOptions, Scheme, SchemeRun};
use figret_eval::scenario::{Scenario, ScenarioOptions};
use figret_eval::serving::{serve, ServeEngine, ServeRun, ServeSimOptions, ServeTopology};
use figret_serve::{PredictorKind, ReconfigPolicy};
use figret_topology::Topology;

const WINDOW: usize = 4;

/// Both paths evaluate the same snapshots, the unlimited budget deploys every
/// tick, and the per-snapshot MLUs agree within 1e-9.
fn assert_serving_matches_batch(serve: &ServeRun, batch: &SchemeRun) {
    assert_eq!(serve.indices, batch.indices, "both paths must evaluate the same snapshots");
    assert_eq!(serve.fleet.update_count(), serve.ticks(), "unlimited budget deploys every tick");
    assert_eq!(serve.realized_mlus.len(), batch.mlus.len());
    for ((a, b), t) in serve.realized_mlus.iter().zip(&batch.mlus).zip(&batch.indices) {
        assert!(
            (a - b).abs() <= 1e-9,
            "snapshot {t}: serving MLU {a} vs batch MLU {b} (|Δ| = {})",
            (a - b).abs()
        );
    }
}

fn geant_scenario() -> Scenario {
    Scenario::build(Topology::Geant, &ScenarioOptions { num_snapshots: 80, ..Default::default() })
}

fn serve_options() -> ServeSimOptions {
    ServeSimOptions {
        experiment: ExperimentOptions { window: WINDOW, snapshots: 80, ..Default::default() },
        topology: ServeTopology::Table1(Topology::Geant),
        engine: ServeEngine::Lp,
        predictor: PredictorKind::LastValue,
        policy: ReconfigPolicy::always_update(),
        online_ticks: 0,
        max_ticks: None,
        ..ServeSimOptions::new(ExperimentOptions::default())
    }
}

#[test]
fn serving_loop_matches_batch_prediction_on_geant() {
    let scenario = geant_scenario();
    let eval = EvalOptions { window: WINDOW, max_eval_snapshots: None, failure: None };
    let batch = run_scheme(&scenario, &Scheme::Prediction, &eval);
    // `serve` builds the same scenario from the options' snapshot count.
    let serve = serve(&serve_options());
    assert_serving_matches_batch(&serve, &batch);
    // Total churn equals the sum over the deployed-config series, and the
    // batch run reports the matching mean churn over the same configs.
    let expected_total = batch.mean_churn * (batch.mlus.len() - 1) as f64;
    let first_update_churn = serve.fleet.logs()[0].records[0].churn;
    let serve_total = serve.fleet.logs()[0].total_churn() - first_update_churn;
    assert!(
        (serve_total - expected_total).abs() <= 1e-6,
        "churn after the initial deployment must match the batch series \
         (serve {serve_total} vs batch {expected_total})"
    );
}

#[test]
fn serving_omniscient_normalizer_matches_batch_oracle() {
    let scenario = geant_scenario();
    let eval = EvalOptions { window: WINDOW, max_eval_snapshots: None, failure: None };
    let batch_oracle = omniscient_series(&scenario, &eval);
    let serve = serve(&serve_options());
    let omniscient = serve.omniscient.as_ref().expect("unsharded runs solve the oracle");
    assert_eq!(omniscient.len(), batch_oracle.len());
    for ((a, b), t) in omniscient.iter().zip(&batch_oracle).zip(&serve.indices) {
        assert!((a - b).abs() <= 1e-9, "snapshot {t}: serving oracle {a} vs batch oracle {b}");
    }
    // Regret is therefore well-defined and at least 1 everywhere.
    let regret = serve.regret().expect("unsharded runs report regret");
    assert!(regret.normalized_mlu.min >= 1.0 - 1e-6, "{:?}", regret.normalized_mlu);
}

/// The learned engine against the batch FIGRET arm on PoD DB: both train
/// on the trace's train-split columns (the batch arm through `from_trace`,
/// serving through `from_columns` over the same copied columns, with
/// `per_slot_variance` ≡ `per_pair_variance` over one fold) and serve every
/// window through the compiled plan
/// (`ServedModel::candidate_into`).  With no audits every tick deploys the
/// plan's candidate, so the realized MLUs are the batch arm's bit for bit.
#[test]
fn serving_loop_matches_batch_figret() {
    let experiment =
        ExperimentOptions { fast: true, window: WINDOW, snapshots: 80, ..Default::default() };
    let scenario = Scenario::build(Topology::MetaDbPod, &experiment.scenario_options());
    let eval = EvalOptions { window: WINDOW, max_eval_snapshots: None, failure: None };
    let batch = run_scheme(&scenario, &Scheme::Figret(experiment.learning_config()), &eval);
    let serve = serve(&ServeSimOptions {
        experiment,
        topology: ServeTopology::Table1(Topology::MetaDbPod),
        engine: ServeEngine::Learned,
        ..serve_options()
    });
    assert_serving_matches_batch(&serve, &batch);
    let bits = |mlus: &[f64]| mlus.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&serve.realized_mlus), bits(&batch.mlus), "the two paths agree bit for bit");
}
