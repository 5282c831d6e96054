//! Determinism contract of the serving loop (PR 1 contract, DESIGN.md §4):
//! the same seed and scenario produce a bit-identical event/decision log —
//! every action, MLU and churn value — independent of rayon thread count.
//! The loop is sequential by construction and the vendored rayon reduces in
//! item order, so two in-process runs must agree exactly; CI additionally
//! replays `serve_sim` under different `RAYON_NUM_THREADS` settings and
//! diffs the printed log digests across processes.

use figret::{FigretConfig, FigretModel};
use figret_serve::{
    FallbackPolicy, OnlinePredictor, PredictorKind, ReconfigPolicy, ServeController, ServeLog,
    UpdateBudget,
};
use figret_te::PathSet;
use figret_topology::{Graph, Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{
    per_pair_variance_range, OnlineStream, OnlineStreamConfig, SparseDemandStream, WindowDataset,
};
use proptest::prelude::*;

fn pod() -> (Graph, PathSet) {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let ps = PathSet::k_shortest(&g, 3);
    (g, ps)
}

fn predictor_of(kind: usize, window: usize) -> Box<dyn OnlinePredictor> {
    match kind % 4 {
        0 => PredictorKind::LastValue,
        1 => PredictorKind::Ewma(0.3),
        2 => PredictorKind::SlidingMean(window),
        _ => PredictorKind::SlidingMax(window),
    }
    .build()
}

/// One full serving run over the online generator: LP engine, `ticks`
/// decisions after a 2-observation warmup.
fn run_lp_loop(
    seed: u64,
    hysteresis: f64,
    budget: (usize, usize),
    predictor_kind: usize,
    ticks: usize,
) -> ServeLog {
    let (g, ps) = pod();
    let policy = ReconfigPolicy {
        hysteresis,
        budget: Some(UpdateBudget::per_window(budget.0, budget.1)),
        fallback: FallbackPolicy::disabled(),
    };
    let mut controller = ServeController::lp(&ps, 2, predictor_of(predictor_kind, 2), policy);
    let mut stream =
        OnlineStream::from_graph(&g, 0.25, OnlineStreamConfig { seed, ..Default::default() });
    let mut log = ServeLog::new();
    for _ in 0..2 {
        let column = stream.next_column().expect("online streams never end");
        controller.observe_pairs(column.values());
    }
    for _ in 0..ticks {
        let column = stream.next_column().expect("online streams never end");
        let outcome = controller.step_pairs(column.values());
        log.push(outcome.record, outcome.decision_seconds);
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same (seed, scenario, policy) ⇒ identical decision log, down to the
    /// float bits — across runs, predictors, budgets and event injection.
    #[test]
    fn serving_loop_is_bit_deterministic(
        seed in 0u64..10_000,
        hysteresis in 0.0f64..0.4,
        max_updates in 1usize..4,
        budget_window in 2usize..8,
        predictor_kind in 0usize..4,
    ) {
        let a = run_lp_loop(seed, hysteresis, (max_updates, budget_window), predictor_kind, 10);
        let b = run_lp_loop(seed, hysteresis, (max_updates, budget_window), predictor_kind, 10);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(a.digest(), b.digest());
        // The log is complete and every recorded value is finite.
        prop_assert_eq!(a.records.len(), 10);
        prop_assert!(a.records.iter().all(|r| r.realized_mlu.is_finite() && r.churn >= 0.0));
    }
}

/// The learned path exercises the rayon-parallel training reduction too:
/// two independently trained models (same seed) must drive byte-identical
/// serving decisions — the end-to-end extension of the PR 1 contract.
#[test]
fn learned_serving_is_deterministic_including_training() {
    let (g, ps) = pod();
    let trace = pod_trace(&g, &PodTrafficConfig { num_snapshots: 40, ..Default::default() });
    let run = || {
        let cfg = FigretConfig { history_window: 2, epochs: 2, ..FigretConfig::fast_test() };
        let variances = per_pair_variance_range(&trace, 0..30);
        let dataset = WindowDataset::from_trace(&trace, 2, 0..30);
        let mut model = FigretModel::new(&ps, &variances, cfg);
        model.train(&dataset);
        let policy = ReconfigPolicy {
            hysteresis: 0.0,
            budget: None,
            fallback: FallbackPolicy { degradation: 1.1, patience: 2, audit_every: 2 },
        };
        let mut controller =
            ServeController::learned(&ps, model, PredictorKind::LastValue.build(), policy);
        let mut log = ServeLog::new();
        for t in 28..30 {
            controller.observe_pairs(&trace.matrix(t).flatten_pairs());
        }
        for t in 30..40 {
            let outcome = controller.step_pairs(&trace.matrix(t).flatten_pairs());
            log.push(outcome.record, outcome.decision_seconds);
        }
        log
    };
    let a = run();
    let b = run();
    assert_eq!(a.records, b.records);
    assert_eq!(a.digest(), b.digest());
}
