//! Fleet determinism and global-budget contracts (DESIGN.md §8).
//!
//! * **Serial-oracle equivalence**: the data-parallel fleet tick must equal
//!   a strictly sequential re-implementation of the same protocol (gather →
//!   ask for open grants → propose per shard in order → admit → finish per
//!   shard in order).  The
//!   parallel phases only move independent shards onto threads and collect
//!   them back in stable order, so the logs must be bit-identical — this is
//!   the in-process form of the `RAYON_NUM_THREADS=1` vs `=4` CI diff (the
//!   vendored rayon caches its thread count per process, so CI varies it
//!   across processes while this test pins the semantics).
//! * **Proptest determinism**: over random (traffic seed, shard count,
//!   joint budget, hysteresis), replaying the same fleet twice is
//!   bit-identical, a one-shard fleet reproduces the unsharded
//!   [`ServeController`] exactly, and the merged logs never exceed the
//!   joint budget in any sliding window.
//! * **Ask admission first**: an LP fleet solves only on ticks with an open
//!   grant — at most `shards` solves on each of those, none on the others,
//!   and every LP bid of an open tick either solved or was outranked — and
//!   a closed tick's records say so.
//! * **Solve only what can win**: every bid the two solve waves leave
//!   outranked carries a regret bound its shard's one-shot optimum
//!   respects, and either fails hysteresis or ranks below every regret
//!   granted at its tick.

use std::sync::Arc;

use figret_serve::{
    Action, FleetController, GlobalAdmission, HoldReason, LastValue, PredictorKind, Proposal,
    ReconfigPolicy, ServeController, ServeLog, ShardBid, UpdateBudget,
};
use figret_solvers::{solve_lp, MluProblem};
use figret_te::{max_link_utilization_pairs, PathSet};
use figret_topology::{Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{ActivePairs, ShardPlan, TrafficTrace};
use proptest::prelude::*;

const WINDOW: usize = 2;

fn setup(snapshots: usize, seed: u64) -> (PathSet, TrafficTrace, Arc<ActivePairs>) {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let paths = PathSet::k_shortest(&g, 3);
    let trace =
        pod_trace(&g, &PodTrafficConfig { num_snapshots: snapshots, seed, ..Default::default() });
    let active = Arc::clone(trace.active());
    (paths, trace, active)
}

fn drive_fleet(fleet: &mut FleetController, trace: &TrafficTrace) {
    for t in 0..trace.len() {
        let column = trace.snapshot(t).values();
        if t < WINDOW {
            fleet.observe_column(column);
        } else {
            fleet.step_column(column);
        }
    }
}

/// A strictly sequential re-implementation of the fleet tick protocol:
/// the oracle the parallel [`FleetController`] must match bit for bit.
fn serial_oracle(
    plan: &ShardPlan,
    paths: &PathSet,
    policy: &ReconfigPolicy,
    trace: &TrafficTrace,
) -> Vec<ServeLog> {
    let mut controllers: Vec<ServeController> = plan
        .shards()
        .iter()
        .map(|shard| {
            let (restricted, _) = paths.restrict_to(shard.active());
            ServeController::lp(
                &restricted,
                WINDOW,
                Box::new(LastValue::new()),
                ReconfigPolicy { budget: None, ..policy.clone() },
            )
        })
        .collect();
    let mut admission = GlobalAdmission::from_policy(policy);
    let mut logs = vec![ServeLog::new(); controllers.len()];
    let mut column = Vec::new();
    let mut tick = 0;
    for t in 0..trace.len() {
        let parent = trace.snapshot(t).values();
        if t < WINDOW {
            for (shard, c) in plan.shards().iter().zip(&mut controllers) {
                shard.gather_into(parent, &mut column);
                c.observe_pairs(&column);
            }
            continue;
        }
        let open_grants = admission.open_grants(tick);
        // Past the warmup every shard bids on the LP engine.
        let lp_bids = controllers.len();
        let mut proposals: Vec<Option<Proposal>> =
            controllers.iter_mut().map(|c| c.propose(open_grants, lp_bids)).collect();
        if open_grants > 0 && lp_bids > open_grants {
            solve_in_waves(&mut controllers, &mut proposals, open_grants, policy.hysteresis);
        }
        let bids: Vec<ShardBid> = proposals
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some(ShardBid::from_proposal(i, p.as_ref()?)))
            .collect();
        let mut actions = vec![Action::Warmup; controllers.len()];
        admission.admit(tick, &bids, &mut actions);
        for (i, (shard, c)) in plan.shards().iter().zip(&mut controllers).enumerate() {
            shard.gather_into(parent, &mut column);
            let outcome = c.finish_pairs(&column, actions[i]);
            logs[i].push(outcome.record, outcome.decision_seconds);
        }
        tick += 1;
    }
    logs
}

/// The fleet's two solve waves, restated over bound-only proposals.  A
/// contender is a proposal whose bound does not already fail hysteresis
/// (`deployed > (1 + h) · (deployed − bound)`); the waves solve the `open`
/// contenders with the largest bounds (ties to the lower shard), then every
/// contender whose bound is not below the `open`-th largest wanting regret
/// among the solved proposals.
fn solve_in_waves(
    controllers: &mut [ServeController],
    proposals: &mut [Option<Proposal>],
    open: usize,
    hysteresis: f64,
) {
    let contender = |p: &Option<Proposal>| -> Option<f64> {
        let p = p.filter(|p| p.predicted_mlu_candidate.is_none())?;
        let bound = p.regret_bound.expect("a bounded bid");
        let deployed = p.predicted_mlu_deployed;
        let quiet = hysteresis > 0.0 && deployed <= (1.0 + hysteresis) * (deployed - bound);
        (!quiet).then_some(bound)
    };
    let mut first: Vec<(f64, usize)> =
        (0..proposals.len()).filter_map(|i| Some((contender(&proposals[i])?, i))).collect();
    first.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in first.iter().take(open) {
        proposals[i] = Some(controllers[i].solve_candidate());
    }
    let mut regrets: Vec<f64> = proposals
        .iter()
        .flatten()
        .filter_map(|p| {
            let (deployed, candidate) = (p.predicted_mlu_deployed, p.predicted_mlu_candidate?);
            let wants = hysteresis <= 0.0 || deployed > (1.0 + hysteresis) * candidate;
            wants.then_some(deployed - candidate)
        })
        .collect();
    regrets.sort_by(|a, b| b.total_cmp(a));
    let cutoff = regrets.get(open - 1).copied().unwrap_or(f64::NEG_INFINITY);
    for (c, p) in controllers.iter_mut().zip(proposals.iter_mut()) {
        if contender(p).is_some_and(|bound| bound >= cutoff || bound.is_nan()) {
            *p = Some(c.solve_candidate());
        }
    }
}

#[test]
fn parallel_fleet_matches_the_serial_oracle() {
    let (paths, trace, active) = setup(18, 7);
    let policy = ReconfigPolicy {
        hysteresis: 0.02,
        budget: Some(UpdateBudget::per_window(2, 5)),
        ..ReconfigPolicy::always_update()
    };
    for shards in [1, 2, 3] {
        let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), shards);
        let mut fleet =
            FleetController::lp(&plan, &paths, WINDOW, PredictorKind::LastValue, &policy);
        drive_fleet(&mut fleet, &trace);
        let oracle = serial_oracle(&plan, &paths, &policy, &trace);
        assert_eq!(fleet.logs().len(), oracle.len());
        for (parallel, serial) in fleet.logs().iter().zip(&oracle) {
            assert_eq!(parallel.records, serial.records, "{shards}-shard fleet diverged");
        }
        assert!(fleet.update_count() > 0, "the comparison must exercise real updates");
    }
}

/// Whether each tick had a grant open when it began, re-derived from the
/// logged updates alone: a tick is closed when the `window - 1` ticks before
/// it already hold `max_updates` updates.
fn open_ticks(logs: &[ServeLog], budget: UpdateBudget, ticks: usize) -> Vec<bool> {
    (0..ticks)
        .map(|tick| {
            let recent = logs
                .iter()
                .flat_map(|log| &log.records)
                .filter(|r| {
                    r.action == Action::Update && r.tick < tick && r.tick + budget.window > tick
                })
                .count();
            recent < budget.max_updates
        })
        .collect()
}

/// The ask-first contract on an LP fleet: on every open tick each shard
/// either solves or is outranked, none solves on a closed tick, and the
/// records say which.
fn assert_lp_fleet_solves_only_open_ticks(fleet: &FleetController, budget: UpdateBudget) {
    let open = open_ticks(fleet.logs(), budget, fleet.ticks());
    let open_count = open.iter().filter(|&&o| o).count();
    let stats = fleet.admission_stats();
    let solves = fleet.lp_stats().solves;
    assert!(solves <= fleet.num_shards() * open_count);
    assert_eq!(solves + stats.holds_outranked, fleet.num_shards() * open_count);
    assert_eq!(stats.bids, fleet.num_shards() * fleet.ticks());
    assert_eq!(stats.holds_closed, fleet.num_shards() * (fleet.ticks() - open_count));
    assert_eq!(
        stats.bids,
        stats.wants + stats.holds_hysteresis + stats.holds_closed + stats.holds_outranked
    );
    let mut outranked = 0;
    for r in fleet.logs().iter().flat_map(|log| &log.records) {
        assert!(r.predicted_mlu_deployed.is_some(), "tick {}", r.tick);
        if open[r.tick] && r.predicted_mlu_candidate.is_some() {
            continue;
        }
        assert_eq!(r.action, Action::Hold(HoldReason::BudgetExhausted), "tick {}", r.tick);
        assert_eq!(r.predicted_mlu_candidate, None, "tick {}", r.tick);
        assert_eq!(r.churn, 0.0, "tick {}", r.tick);
        // Open ticks hold a candidate-less bid only when a bound outranked it.
        assert_eq!(r.regret_bound.is_some(), open[r.tick], "tick {}", r.tick);
        outranked += usize::from(open[r.tick]);
    }
    assert_eq!(outranked, stats.holds_outranked);
}

#[test]
fn lp_fleet_under_a_binding_budget_solves_only_when_a_grant_is_open() {
    let (paths, trace, active) = setup(26, 11);
    let budget = UpdateBudget::per_window(2, 6);
    let policy = ReconfigPolicy {
        hysteresis: 0.01,
        budget: Some(budget),
        ..ReconfigPolicy::always_update()
    };
    let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), 3);
    let mut fleet = FleetController::lp(&plan, &paths, WINDOW, PredictorKind::LastValue, &policy);
    drive_fleet(&mut fleet, &trace);
    assert_lp_fleet_solves_only_open_ticks(&fleet, budget);
    let stats = fleet.admission_stats();
    assert!(stats.holds_closed > 0, "the budget must bind");
    assert!(fleet.lp_stats().solves < stats.bids, "closed ticks must not solve");
    assert!(fleet.update_count() > 0, "open ticks must still deploy");
}

/// Every outranked bid could not have won: its shard's one-shot optimum on
/// the forecast (`LastValue`: the previous column) respects the recorded
/// bound, and solving would have shown a candidate the hysteresis gate
/// holds or a regret below every regret granted at that tick.
#[test]
fn outranked_shards_could_not_have_won_a_grant() {
    let (paths, trace, active) = setup(40, 5);
    let budget = UpdateBudget::per_window(2, 3);
    let policy = ReconfigPolicy {
        hysteresis: 0.01,
        budget: Some(budget),
        ..ReconfigPolicy::always_update()
    };
    let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), 3);
    let mut fleet = FleetController::lp(&plan, &paths, WINDOW, PredictorKind::LastValue, &policy);
    drive_fleet(&mut fleet, &trace);
    assert_lp_fleet_solves_only_open_ticks(&fleet, budget);
    let restricted: Vec<PathSet> =
        plan.shards().iter().map(|shard| paths.restrict_to(shard.active()).0).collect();
    let mut column = Vec::new();
    let mut checked = 0;
    for tick in 0..fleet.ticks() {
        let records: Vec<_> = fleet.logs().iter().map(|log| &log.records[tick]).collect();
        let lowest_granted = records
            .iter()
            .filter(|r| r.action == Action::Update)
            .map(|r| r.predicted_mlu_deployed.unwrap() - r.predicted_mlu_candidate.unwrap())
            .fold(f64::INFINITY, f64::min);
        let forecast = trace.snapshot(tick + WINDOW - 1).values();
        for (shard, r) in records.iter().enumerate() {
            let Some(bound) = r.regret_bound.filter(|_| r.predicted_mlu_candidate.is_none()) else {
                continue;
            };
            plan.shards()[shard].gather_into(forecast, &mut column);
            let ps = &restricted[shard];
            let optimum = max_link_utilization_pairs(
                ps,
                &solve_lp(&MluProblem::new(ps, column.clone())).unwrap(),
                &column,
            );
            let deployed = r.predicted_mlu_deployed.unwrap();
            assert!(
                optimum >= deployed - bound - 1e-9,
                "tick {tick}, shard {shard}: optimum {optimum} below the bound {}",
                deployed - bound
            );
            // Hysteresis would have held it anyway, or it ranks below every
            // grant.
            let wants = deployed > (1.0 + policy.hysteresis) * optimum;
            assert!(
                !wants || deployed - optimum < lowest_granted,
                "tick {tick}, shard {shard}: regret {} could have won (lowest granted {lowest_granted})",
                deployed - optimum
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the budget must outrank some shard");
    assert_eq!(checked, fleet.admission_stats().holds_outranked);
}

fn window_update_counts(logs: &[ServeLog], window: usize, ticks: usize) -> Vec<usize> {
    (0..ticks)
        .map(|start| {
            logs.iter()
                .flat_map(|log| &log.records)
                .filter(|r| {
                    r.action == Action::Update && r.tick >= start && r.tick < start + window
                })
                .count()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fleet_digests_are_deterministic_and_budget_bounded(
        seed in 0u64..1000,
        shards in 1usize..5,
        max_updates in 1usize..3,
        budget_window in 3usize..7,
        hyst_step in 0usize..2,
    ) {
        let hysteresis = 0.05 * hyst_step as f64;
        let (paths, trace, active) = setup(12, seed);
        let policy = ReconfigPolicy {
            hysteresis,
            budget: Some(UpdateBudget::per_window(max_updates, budget_window)),
            ..ReconfigPolicy::always_update()
        };
        let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), shards);
        let run = || {
            let mut fleet =
                FleetController::lp(&plan, &paths, WINDOW, PredictorKind::LastValue, &policy);
            drive_fleet(&mut fleet, &trace);
            fleet
        };
        let fleet = run();
        let again = run();
        // Bit-identical replay: digests, admission counters, merged records.
        prop_assert_eq!(fleet.digest(), again.digest());
        prop_assert_eq!(fleet.decision_digest(), again.decision_digest());
        prop_assert_eq!(fleet.admission_stats(), again.admission_stats());
        // Joint budget: no sliding window across ALL shards exceeds it.
        let ticks = fleet.ticks();
        for (start, count) in
            window_update_counts(fleet.logs(), budget_window, ticks).iter().enumerate()
        {
            prop_assert!(
                *count <= max_updates,
                "window [{}, {}) holds {} updates (budget {})",
                start, start + budget_window, count, max_updates
            );
        }
        assert_lp_fleet_solves_only_open_ticks(
            &fleet,
            UpdateBudget::per_window(max_updates, budget_window),
        );
        // A one-shard fleet is the unsharded controller, record for record.
        if shards == 1 {
            let mut solo = ServeController::lp(
                &paths,
                WINDOW,
                Box::new(LastValue::new()),
                policy.clone(),
            );
            let mut log = ServeLog::new();
            for t in 0..trace.len() {
                let column = trace.snapshot(t).values();
                if t < WINDOW {
                    solo.observe_pairs(column);
                } else {
                    let out = solo.step_pairs(column);
                    log.push(out.record, out.decision_seconds);
                }
            }
            prop_assert_eq!(&fleet.logs()[0].records, &log.records);
            prop_assert_eq!(fleet.digest(), log.digest());
            prop_assert_eq!(fleet.decision_digest(), log.decision_digest());
            prop_assert_eq!(fleet.lp_stats().solves, solo.lp_stats().solves);
        }
    }
}
