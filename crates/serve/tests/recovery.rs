//! End-to-end self-healing contract (ISSUE 9, DESIGN.md §9): on a seeded
//! online stream with a sustained step shift, a learned controller must
//! trip its fallback, retrain a challenger on the observed post-shift
//! window, promote it after consecutive shadow-audit wins, and re-enter
//! learned serving with post-promotion regret comparable to the pre-drift
//! window.  A proptest additionally pins the whole loop — detection,
//! retraining (rayon-parallel gradients included) and promotion — to
//! bit-identical logs across runs; CI replays the same scenario through
//! `serve_sim` under different `RAYON_NUM_THREADS` settings and diffs the
//! printed digests across processes.

use std::sync::Arc;

use figret::{FigretConfig, FigretModel};
use figret_serve::{
    CusumConfig, DecisionSource, FallbackPolicy, FleetController, PredictorKind, ReconfigPolicy,
    RecoveryConfig, ServeController, ServeLog, Transition, UpdateBudget,
};
use figret_solvers::MluTemplate;
use figret_te::{max_link_utilization_pairs, PathSet};
use figret_topology::{Graph, Topology, TopologySpec};
use figret_traffic::{
    ActivePairs, OnlineStream, OnlineStreamConfig, ShardPlan, SparseDemandStream, StepShiftConfig,
    WindowDataset,
};
use proptest::prelude::*;

fn pod() -> (Graph, PathSet) {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let ps = PathSet::k_shortest(&g, 3);
    (g, ps)
}

/// A low-noise stream whose only event is a permanent step shift at
/// `shift_tick`: even slots scale by `factor`, odd slots by `1/factor`,
/// so the *shape* of the matrix changes while the total stays comparable —
/// exactly the sustained distribution shift recovery exists for.
fn quiet_shifted_stream(g: &Graph, seed: u64, shift_tick: usize, factor: f64) -> OnlineStream {
    OnlineStream::from_graph(
        g,
        0.25,
        OnlineStreamConfig {
            diurnal_amplitude: 0.05,
            noise: 0.02,
            drift: None,
            flash_crowds: None,
            failure_storms: None,
            shift: Some(StepShiftConfig { at_tick: shift_tick, factor }),
            seed,
            ..Default::default()
        },
    )
}

#[test]
fn controller_recovers_from_a_step_shift() {
    let (g, ps) = pod();
    let h = 2;
    let shift_tick = 60;
    let total_ticks = 220;
    // The stream is near-static, so enough epochs push the model within a
    // few percent of the per-tick LP optimum (~1.02x measured) — the regime
    // the audit margins below assume.
    let config = FigretConfig { history_window: h, epochs: 150, ..FigretConfig::fast_test() };

    // Train the incumbent on pre-shift columns (the way the online
    // retrainer does).
    let mut stream = quiet_shifted_stream(&g, 97, shift_tick, 4.0);
    let train_columns: Vec<Vec<f64>> =
        (0..40).map(|_| stream.next_column().expect("endless").values().to_vec()).collect();
    let dataset = WindowDataset::from_columns(h, train_columns);
    let variances = dataset.per_slot_variance();
    let mut model = FigretModel::new(&ps, &variances, config);
    let report = model.train(&dataset);
    assert!(report.final_loss().is_some());

    // Serve the *same* stream from the start: a fresh instance replays the
    // training window bit for bit, then shifts at `shift_tick`.
    let mut stream = quiet_shifted_stream(&g, 97, shift_tick, 4.0);
    let policy = ReconfigPolicy {
        hysteresis: 0.0,
        budget: None,
        fallback: FallbackPolicy { degradation: 1.2, patience: 2, audit_every: 1 },
    };
    let mut controller =
        ServeController::learned(&ps, model, PredictorKind::LastValue.build(), policy);
    controller.enable_recovery(RecoveryConfig {
        retrain_window: 24,
        retrain_every: 4,
        promotion_patience: 2,
        promotion_margin: 1.1,
        retrain_epochs: 150,
        ..Default::default()
    });

    let mut log = ServeLog::new();
    let mut realized_columns: Vec<Vec<f64>> = Vec::new();
    for t in 0..total_ticks {
        let column = stream.next_column().expect("endless");
        if t < h {
            controller.observe_pairs(column.values());
            continue;
        }
        let outcome = controller.step_pairs(column.values());
        log.record_outcome(&outcome);
        log.annotate(outcome.record.tick, stream.annotation());
        realized_columns.push(column.values().to_vec());
    }

    // The ladder ran end to end: degraded, retrained, promoted.
    assert!(log.transition_count(Transition::Degraded) >= 1, "the shift must trip the fallback");
    assert!(log.transition_count(Transition::RetrainStarted) >= 1, "degradation must retrain");
    assert!(log.transition_count(Transition::Promoted) >= 1, "a challenger must promote");
    let degraded_at = log.transitions[0].tick;
    let recovered_at = log.recovery_tick().expect("the run must recover");
    assert!(degraded_at >= shift_tick - h - 2, "no degradation before the shift");
    assert!(recovered_at > degraded_at);
    assert!(controller.model_generation() > 0, "a promoted challenger must be live");
    assert!(!controller.fell_back(), "the controller must have exited fallback");
    let stats = controller.recovery_stats();
    assert_eq!(stats.promotions, log.transition_count(Transition::Promoted));
    assert!(stats.retrains >= 1 && stats.retrain_seconds > 0.0);
    // The shift is visible as an annotation from the moment it lands.
    assert!(log.annotations.iter().any(|(_, a)| a.shifted));

    // Post-promotion the model serves again...
    let post: Vec<_> = log.records.iter().filter(|r| r.tick > recovered_at).collect();
    assert!(post.len() >= 20, "need a window after recovery to judge regret");
    assert!(
        post.iter().filter(|r| r.source == Some(DecisionSource::Model)).count() * 2 > post.len(),
        "most post-recovery decisions must come from the model"
    );

    // ...and its regret vs the omniscient per-tick optimum is within 10%
    // of the pre-drift window's (the acceptance bound of ISSUE 9).
    let mut template = MluTemplate::new(&ps);
    let mut regret = |records: &[&figret_serve::TickRecord]| -> f64 {
        let mut total = 0.0;
        for r in records {
            let column = &realized_columns[r.tick];
            let (cfg, _) = template.solve(&ps, column).expect("omniscient LP solvable");
            let omni = max_link_utilization_pairs(&ps, &cfg, column);
            total += r.realized_mlu / omni.max(1e-12);
        }
        total / records.len() as f64
    };
    let pre: Vec<_> = log.records.iter().filter(|r| r.tick + h < shift_tick).collect();
    let pre_regret = regret(&pre);
    let post_regret = regret(&post);
    assert!(
        post_regret <= 1.1 * pre_regret,
        "post-recovery regret {post_regret:.4} must be within 10% of pre-drift {pre_regret:.4}"
    );
}

/// Per-shard self-healing under one global admission budget: every shard
/// trains its incumbent *and* its challengers on its own restricted pair
/// universe (a dataset over columns — no dense matrices exist there),
/// degrades when the shift lands, and promotes its way back independently.
#[test]
fn fleet_shards_recover_independently_under_the_joint_budget() {
    let (g, ps) = pod();
    let h = 2;
    let shift_tick = 40;
    let total_ticks = 170;
    let active = Arc::new(ActivePairs::all(g.num_nodes()));
    let plan = ShardPlan::source_blocks(&active, g.num_nodes(), 2);
    assert_eq!(plan.num_shards(), 2);
    let policy = ReconfigPolicy {
        hysteresis: 0.0,
        budget: Some(UpdateBudget::per_window(2, 2)),
        fallback: FallbackPolicy { degradation: 1.2, patience: 2, audit_every: 1 },
    };

    // Pre-shift parent columns for incumbent training.
    let mut stream = quiet_shifted_stream(&g, 131, shift_tick, 4.0);
    let parent_columns: Vec<Vec<f64>> =
        (0..30).map(|_| stream.next_column().expect("endless").values().to_vec()).collect();

    let run = || {
        let controllers: Vec<ServeController> = plan
            .shards()
            .iter()
            .map(|shard| {
                let (restricted, _) = ps.restrict_to(shard.active());
                let mut column = Vec::new();
                let shard_columns: Vec<Vec<f64>> = parent_columns
                    .iter()
                    .map(|parent| {
                        shard.gather_into(parent, &mut column);
                        column.clone()
                    })
                    .collect();
                let dataset = WindowDataset::from_columns(h, shard_columns);
                let variances = dataset.per_slot_variance();
                let config =
                    FigretConfig { history_window: h, epochs: 150, ..FigretConfig::fast_test() };
                let mut model = FigretModel::new(&restricted, &variances, config);
                model.train(&dataset);
                let mut c = ServeController::learned(
                    &restricted,
                    model,
                    PredictorKind::LastValue.build(),
                    ReconfigPolicy { budget: None, ..policy.clone() },
                );
                c.enable_recovery(RecoveryConfig {
                    retrain_window: 24,
                    retrain_every: 4,
                    promotion_patience: 2,
                    promotion_margin: 1.1,
                    retrain_epochs: 150,
                    ..Default::default()
                });
                c
            })
            .collect();
        let mut fleet = FleetController::from_controllers(&plan, controllers, &policy);
        let mut stream = quiet_shifted_stream(&g, 131, shift_tick, 4.0);
        for t in 0..total_ticks {
            let column = stream.next_column().expect("endless");
            if t < h {
                fleet.observe_column(column.values());
            } else {
                fleet.step_column(column.values());
            }
        }
        fleet
    };

    let fleet = run();
    assert_eq!(fleet.promoted_shards(), 2, "every shard must promote a challenger");
    assert_eq!(fleet.fell_back_shards(), 0, "every shard must exit fallback");
    let stats = fleet.recovery_stats();
    assert!(stats.promotions >= 2 && stats.retrains >= 2);
    for log in fleet.logs() {
        assert!(log.transition_count(Transition::Degraded) >= 1);
        assert!(log.transition_count(Transition::Promoted) >= 1);
        assert!(log.recovery_tick().is_some(), "each shard log must show its own recovery");
    }
    // The whole ladder — training, degradation, retraining, promotion —
    // replays bit-identically.
    let again = run();
    assert_eq!(fleet.digest(), again.digest());
    assert_eq!(fleet.decision_digest(), again.decision_digest());
}

/// One full recovery loop for the determinism proptest: an *untrained*
/// incumbent degrades within a few audits, then the (detector, cadence,
/// patience) parameters drive retraining and possibly promotion.
fn run_recovery_loop(
    seed: u64,
    slack: f64,
    threshold: f64,
    retrain_every: usize,
    promotion_patience: usize,
    ticks: usize,
) -> ServeLog {
    let (g, ps) = pod();
    let config = FigretConfig { history_window: 2, ..FigretConfig::fast_test() };
    let model = FigretModel::new(&ps, &vec![0.0; ps.num_pairs()], config);
    let policy = ReconfigPolicy {
        hysteresis: 0.0,
        budget: None,
        fallback: FallbackPolicy { degradation: 1.05, patience: 1, audit_every: 1 },
    };
    let mut controller =
        ServeController::learned(&ps, model, PredictorKind::LastValue.build(), policy);
    controller.enable_recovery(RecoveryConfig {
        retrain_window: 12,
        retrain_every,
        promotion_patience,
        promotion_margin: 1.15,
        retrain_epochs: 2,
        detector: CusumConfig { slack, threshold },
    });
    let mut stream = quiet_shifted_stream(&g, seed, ticks / 2, 3.0);
    let mut log = ServeLog::new();
    for t in 0..ticks {
        let column = stream.next_column().expect("endless");
        if t < 2 {
            controller.observe_pairs(column.values());
        } else {
            let outcome = controller.step_pairs(column.values());
            log.record_outcome(&outcome);
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random (seed, detector, retrain cadence, patience) recovery loops —
    /// including the rayon-parallel retraining — replay bit-identically:
    /// same records, same transitions, same digest.  CI repeats the check
    /// across `RAYON_NUM_THREADS=1` and `4` as separate processes.
    #[test]
    fn recovery_loop_is_bit_deterministic(
        seed in 0u64..10_000,
        slack in 0.01f64..0.2,
        threshold in 0.1f64..1.0,
        retrain_every in 2usize..6,
        promotion_patience in 1usize..4,
    ) {
        let a = run_recovery_loop(seed, slack, threshold, retrain_every, promotion_patience, 30);
        let b = run_recovery_loop(seed, slack, threshold, retrain_every, promotion_patience, 30);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(&a.transitions, &b.transitions);
        prop_assert_eq!(a.digest(), b.digest());
        // The untrained incumbent must degrade and start retraining.
        prop_assert!(a.transition_count(Transition::Degraded) >= 1);
        prop_assert!(a.transition_count(Transition::RetrainStarted) >= 1);
    }
}
