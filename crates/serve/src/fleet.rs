//! The sharded serving fleet: pod-partitioned controllers under one global
//! budget (DESIGN.md §8).
//!
//! A [`FleetController`] owns one [`ServeController`] per shard of a
//! [`figret_traffic::ShardPlan`].  Each fleet tick:
//!
//! 1. **Scatter**: the parent demand column is gathered into per-shard
//!    sub-columns along each shard's `parent_slots` map, and the fleet asks
//!    [`GlobalAdmission::open_grants`] how many updates the joint budget
//!    can still grant this tick.
//! 2. **Propose** (data-parallel): every shard forecasts its sub-demand and
//!    computes a candidate configuration ([`ServeController::propose`]),
//!    returning a predicted-MLU bid — except that an LP shard told that no
//!    grant is open scores its deployed configuration and solves nothing.
//!    When more LP shards bid than grants are open, each LP shard instead
//!    bounds its regret without solving, and the fleet solves in two waves
//!    ([`ServeController::solve_candidate`] on the shards
//!    [`GlobalAdmission::first_wave`] and then
//!    [`GlobalAdmission::second_wave`] pick): the `open_grants` largest
//!    bounds, then every bound that could still beat the solved bids.  The
//!    rest are outranked — they could not have been granted — and bid
//!    without a candidate.  Both waves are timed as part of this phase.
//!    Shards are moved through an owning `into_par_iter`, so each runs on
//!    one thread of the pool with its own scratch — steady-state
//!    allocation-free, no shared mutable state.
//! 3. **Admit** (sequential): the [`GlobalAdmission`] layer ranks the bids
//!    and grants updates under the *joint* hysteresis + sliding-window
//!    budget (shard controllers run with `budget: None`; the fleet owns the
//!    update history).
//! 4. **Finish** (data-parallel): every shard applies its granted or held
//!    action and ingests its realized sub-demand
//!    ([`ServeController::finish_pairs`]).
//! 5. **Merge** (sequential, stable shard order): per-shard records append
//!    to per-shard logs, and the per-shard edge-load vectors — every
//!    restricted path set preserves the full edge universe — are summed in
//!    shard order and folded once into the exact global realized MLU.
//!
//! A tick on which no shard computes a candidate in its first pass runs
//! phases 2 and 4 on the calling thread: eight forecasts and MLU
//! evaluations cost less than handing them to workers (measured when a
//! parallel call still spawned its threads; DESIGN §8).  On a
//! tick that solves in waves only the waves go to workers; its bounding
//! pass and its finish phase run inline.
//!
//! Determinism: shards are independent and individually deterministic, the
//! propose and finish phases preserve order whether they run on workers or
//! on the calling thread, the waves are fixed by `open_grants` and the
//! bids (never by the thread count), admission is invariant to bid order,
//! and the merge walks shards in stable plan order — so fleet logs and
//! digests are bit-identical at any `RAYON_NUM_THREADS`.  A single-shard
//! fleet replays the unsharded [`ServeController`] record for record: one
//! LP bid never outnumbers an open grant, so it never bounds.

use rayon::prelude::*;

use figret_solvers::SeriesStats;
use figret_te::{max_utilization_of_loads, PathSet};
use figret_telemetry::{Registry, Stopwatch};
use figret_traffic::{ShardPlan, ShardUniverse};

use crate::admission::{AdmissionStats, GlobalAdmission, ShardBid};
use crate::controller::{AuditStats, CandidatePlan, Proposal, ServeController, StepOutcome};
use crate::log::{Action, ServeLog};
use crate::policy::ReconfigPolicy;
use crate::predictor::PredictorKind;
use crate::telemetry::FleetTelemetry;

/// One shard of the fleet: a controller over a restricted pair universe plus
/// the gather scratch for its sub-columns.
#[derive(Debug)]
struct FleetShard {
    controller: ServeController,
    universe: ShardUniverse,
    /// Gathered sub-column (one value per shard pair), reused every tick.
    column: Vec<f64>,
}

/// The merged result of one fleet tick.
#[derive(Debug, Clone)]
pub struct FleetTickOutcome {
    /// Fleet tick index (every shard ticks once per fleet tick).
    pub tick: usize,
    /// Exact global realized MLU: per-shard edge loads summed in stable
    /// shard order over the shared edge universe, folded once.
    pub global_mlu: f64,
    /// Action taken by each shard, in stable shard order.
    pub actions: Vec<Action>,
    /// Decision-phase wall-clock seconds of each shard (propose + apply),
    /// in stable shard order.
    pub decision_seconds: Vec<f64>,
}

/// Solves the bound-only proposals of the shards in `wave` (ascending shard
/// indices) on worker threads.
fn solve_wave(proposed: &mut [(FleetShard, Option<Proposal>)], wave: &[usize]) {
    let picked: Vec<&mut (FleetShard, Option<Proposal>)> = proposed
        .iter_mut()
        .enumerate()
        .filter(|(shard, _)| wave.binary_search(shard).is_ok())
        .map(|(_, entry)| entry)
        .collect();
    picked.into_par_iter().for_each(|(s, proposal)| {
        *proposal = Some(s.controller.solve_candidate());
    });
}

/// A pod-partitioned serving fleet under one global admission policy; see
/// the module docs.
pub struct FleetController {
    shards: Vec<FleetShard>,
    /// Per-shard decision logs, parallel to `shards`.
    logs: Vec<ServeLog>,
    admission: GlobalAdmission,
    edge_capacities: Vec<f64>,
    /// Summed per-shard edge loads, reused every tick.
    global_loads: Vec<f64>,
    parent_pairs: usize,
    tick: usize,
    /// Fleet-level phase spans (DESIGN.md §10); `None` records nothing.
    /// Shard controllers carry their own registries — a snapshot merges
    /// them in stable shard order.
    telemetry: Option<FleetTelemetry>,
}

impl std::fmt::Debug for FleetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("shards", &self.shards.len())
            .field("parent_pairs", &self.parent_pairs)
            .field("tick", &self.tick)
            .finish()
    }
}

impl FleetController {
    /// A fleet of warm-started-LP controllers, one per shard of `plan`.
    /// Each shard gets the restriction of `paths` to its pair universe (its
    /// own LP template and basis), a fresh `predictor` instance, and a copy
    /// of `policy` with the budget stripped — the hysteresis and budget of
    /// `policy` move into the shared [`GlobalAdmission`] layer.
    pub fn lp(
        plan: &ShardPlan,
        paths: &PathSet,
        window: usize,
        predictor: PredictorKind,
        policy: &ReconfigPolicy,
    ) -> FleetController {
        let controllers = plan
            .shards()
            .iter()
            .map(|shard| {
                let (restricted, _) = paths.restrict_to(shard.active());
                ServeController::lp(
                    &restricted,
                    window,
                    predictor.build(),
                    ReconfigPolicy { budget: None, ..policy.clone() },
                )
            })
            .collect();
        FleetController::from_controllers(plan, controllers, policy)
    }

    /// A fleet over pre-built shard controllers (learned shards, custom
    /// predictors), in plan order.  Each controller must cover exactly its
    /// shard's pair universe and must carry no local update budget — the
    /// joint budget and hysteresis of `policy` live in the admission layer.
    pub fn from_controllers(
        plan: &ShardPlan,
        controllers: Vec<ServeController>,
        policy: &ReconfigPolicy,
    ) -> FleetController {
        assert_eq!(
            controllers.len(),
            plan.num_shards(),
            "one controller per plan shard is required"
        );
        assert!(!controllers.is_empty(), "a fleet needs at least one shard");
        let mut shards = Vec::with_capacity(controllers.len());
        let mut edge_capacities: Vec<f64> = Vec::new();
        for (controller, universe) in controllers.into_iter().zip(plan.shards()) {
            assert_eq!(
                controller.num_pairs(),
                universe.len(),
                "shard '{}': controller must cover its pair universe",
                universe.label()
            );
            assert!(
                controller.policy().budget.is_none(),
                "shard '{}': fleet shards must not carry a local update budget",
                universe.label()
            );
            let capacities = controller.paths().edge_capacities();
            if edge_capacities.is_empty() {
                edge_capacities = capacities.to_vec();
            } else {
                assert_eq!(
                    edge_capacities,
                    capacities,
                    "shard '{}': every shard must share the edge universe",
                    universe.label()
                );
            }
            let column = Vec::with_capacity(universe.len());
            shards.push(FleetShard { controller, universe: universe.clone(), column });
        }
        let num_edges = edge_capacities.len();
        FleetController {
            logs: vec![ServeLog::new(); shards.len()],
            shards,
            admission: GlobalAdmission::from_policy(policy),
            edge_capacities,
            global_loads: vec![0.0; num_edges],
            parent_pairs: plan.parent().len(),
            tick: 0,
            telemetry: None,
        }
    }

    /// Arms out-of-band telemetry on the fleet *and* on every shard
    /// controller: the fleet records its five tick-phase spans, shards
    /// record the full serving taxonomy.  Metrics are never folded into the
    /// fleet digests — an armed run digests identically to a disarmed one.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(FleetTelemetry::new());
        }
        for s in &mut self.shards {
            s.controller.enable_telemetry();
        }
    }

    /// A merged snapshot of the fleet registry plus every shard registry,
    /// merged in stable shard order (bit-identical at any thread count),
    /// when telemetry is armed.
    pub fn telemetry_snapshot(&self) -> Option<Registry> {
        let mut merged = self.telemetry.as_ref()?.registry().clone();
        for s in &self.shards {
            let shard = s.controller.telemetry_registry().expect("arming covers every shard");
            merged.merge_from(shard);
        }
        Some(merged)
    }

    /// Ingests a parent demand column (one value per parent pair, slot
    /// order) into every shard without a decision tick — fleet warmup.
    pub fn observe_column(&mut self, parent_column: &[f64]) {
        assert_eq!(
            parent_column.len(),
            self.parent_pairs,
            "one demand value per parent pair is required"
        );
        for s in &mut self.shards {
            let mut column = std::mem::take(&mut s.column);
            s.universe.gather_into(parent_column, &mut column);
            s.controller.observe_pairs(&column);
            s.column = column;
        }
    }

    /// Advances every shard by one tick; see the module docs.  `parent_column`
    /// is the realized demand over the parent universe, arriving *after* the
    /// decisions, exactly as in [`ServeController::step_pairs`].
    pub fn step_column(&mut self, parent_column: &[f64]) -> FleetTickOutcome {
        assert_eq!(
            parent_column.len(),
            self.parent_pairs,
            "one demand value per parent pair is required"
        );
        let tick = self.tick;
        // Armed-only phase spans, indexing FLEET_PHASES in execution order;
        // a disarmed fleet takes no stopwatch reads at all.
        let mut phase_watch = self.telemetry.is_some().then(Stopwatch::start);
        let mut phase = 0;
        let mut lap = |tel: &mut Option<FleetTelemetry>, watch: &mut Option<Stopwatch>| {
            if let Some(watch) = watch.as_mut() {
                let seconds = watch.lap();
                tel.as_mut().expect("a live stopwatch implies telemetry").on_phase(phase, seconds);
            }
            phase += 1;
        };
        // Scatter: gather each shard's sub-column from the parent column.
        for s in &mut self.shards {
            let mut column = std::mem::take(&mut s.column);
            s.universe.gather_into(parent_column, &mut column);
            s.column = column;
        }
        // Ask admission first: shards that cannot be granted an update do
        // not compute one, LP shards that outnumber the open grants bound
        // their regret before anyone solves, and a tick on which nobody
        // computes a candidate is not worth a thread.
        let open_grants = self.admission.open_grants(tick);
        let lp_bids = self.shards.iter().filter(|s| s.controller.bids_on_lp()).count();
        let planned = |wanted: CandidatePlan| {
            self.shards.iter().any(|s| s.controller.candidate_plan(open_grants, lp_bids) == wanted)
        };
        let (on_workers, bounding) =
            (planned(CandidatePlan::Compute), planned(CandidatePlan::Bound));
        lap(&mut self.telemetry, &mut phase_watch);
        // Propose (data-parallel where a shard computes a candidate): shards
        // move onto worker threads and come back in stable order with their
        // bids.
        let shards = std::mem::take(&mut self.shards);
        let propose = |mut s: FleetShard| {
            let proposal = s.controller.propose(open_grants, lp_bids);
            (s, proposal)
        };
        let mut proposed: Vec<(FleetShard, Option<Proposal>)> = if on_workers {
            shards.into_par_iter().map(propose).collect()
        } else {
            shards.into_iter().map(propose).collect()
        };
        let bids_of = |proposed: &[(FleetShard, Option<Proposal>)]| -> Vec<ShardBid> {
            let bids = proposed.iter().enumerate();
            bids.filter_map(|(shard, (_, p))| Some(ShardBid::from_proposal(shard, p.as_ref()?)))
                .collect()
        };
        let mut bids = bids_of(&proposed);
        // Bounded LP bids solve in two waves, still inside the propose span:
        // the `open_grants` largest bounds, then every bound that reaches
        // the cut-off the solved bids set.
        if bounding {
            let mut wave = Vec::with_capacity(proposed.len());
            self.admission.first_wave(open_grants, &bids, &mut wave);
            solve_wave(&mut proposed, &wave);
            bids = bids_of(&proposed);
            self.admission.second_wave(open_grants, &bids, &mut wave);
            solve_wave(&mut proposed, &wave);
            bids = bids_of(&proposed);
        }
        lap(&mut self.telemetry, &mut phase_watch);
        // Admit (sequential): rank the bids under the joint policy.
        let mut actions = vec![Action::Warmup; proposed.len()];
        self.admission.admit(tick, &bids, &mut actions);
        lap(&mut self.telemetry, &mut phase_watch);
        // Finish (data-parallel): apply the granted/held actions and ingest
        // the realized sub-demands.
        let work = proposed.into_iter().zip(&actions).map(|((s, _), &action)| (s, action));
        let finish = |(mut s, action): (FleetShard, Action)| {
            let outcome = s.controller.finish_pairs(&s.column, action);
            (s, outcome)
        };
        let finished: Vec<(FleetShard, StepOutcome)> = if on_workers {
            work.collect::<Vec<_>>().into_par_iter().map(finish).collect()
        } else {
            work.map(finish).collect()
        };
        lap(&mut self.telemetry, &mut phase_watch);
        // Merge in stable shard order: logs, latencies, and the global MLU
        // from summed per-shard edge loads.
        self.global_loads.clear();
        self.global_loads.resize(self.edge_capacities.len(), 0.0);
        let mut decision_seconds = Vec::with_capacity(finished.len());
        for ((s, outcome), log) in finished.into_iter().zip(&mut self.logs) {
            for (g, l) in self.global_loads.iter_mut().zip(s.controller.last_realized_loads()) {
                *g += l;
            }
            decision_seconds.push(outcome.decision_seconds);
            log.record_outcome(&outcome);
            self.shards.push(s);
        }
        let global_mlu = max_utilization_of_loads(&self.global_loads, &self.edge_capacities);
        lap(&mut self.telemetry, &mut phase_watch);
        if let Some(tel) = self.telemetry.as_mut() {
            tel.on_tick();
        }
        self.tick += 1;
        FleetTickOutcome { tick, global_mlu, actions, decision_seconds }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of pairs in the parent universe (the per-tick decision count).
    pub fn total_pairs(&self) -> usize {
        self.parent_pairs
    }

    /// Pairs owned by each shard, in stable shard order.
    pub fn shard_pairs(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.universe.len()).collect()
    }

    /// Shard labels, in stable shard order.
    pub fn shard_labels(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.universe.label()).collect()
    }

    /// Fleet ticks taken so far.
    pub fn ticks(&self) -> usize {
        self.tick
    }

    /// Per-shard decision logs, in stable shard order.
    pub fn logs(&self) -> &[ServeLog] {
        &self.logs
    }

    /// Aggregate admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// The shared admission layer.
    pub fn admission(&self) -> &GlobalAdmission {
        &self.admission
    }

    /// LP solver work summed over every shard.
    pub fn lp_stats(&self) -> SeriesStats {
        let mut merged = SeriesStats::default();
        for s in &self.shards {
            merged.merge(s.controller.lp_stats());
        }
        merged
    }

    /// Learned audit outcomes summed over every shard.
    pub fn audit_stats(&self) -> AuditStats {
        let mut merged = AuditStats::default();
        for s in &self.shards {
            merged.merge(&s.controller.audit_stats());
        }
        merged
    }

    /// How many shards are currently fallen back to the LP (terminal
    /// without recovery; shards with recovery armed can promote their way
    /// back out).
    pub fn fell_back_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.controller.fell_back()).count()
    }

    /// How many shards serve a promoted challenger (model generation > 0).
    pub fn promoted_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.controller.model_generation() > 0).count()
    }

    /// Recovery counters summed over every shard.
    pub fn recovery_stats(&self) -> crate::recovery::RecoveryStats {
        let mut total = crate::recovery::RecoveryStats::default();
        for s in &self.shards {
            let stats = s.controller.recovery_stats();
            total.retrains += stats.retrains;
            total.retrain_seconds += stats.retrain_seconds;
            total.retrain_samples += stats.retrain_samples;
            total.promotions += stats.promotions;
            total.demotions += stats.demotions;
            total.detector_trips += stats.detector_trips;
        }
        total
    }

    /// Deployed updates summed over every shard log.
    pub fn update_count(&self) -> usize {
        self.logs.iter().map(ServeLog::update_count).sum()
    }

    /// Fleet digest: for a single shard, exactly the shard log's digest (a
    /// one-shard fleet *is* the unsharded controller, and CI compares the
    /// two directly); for several shards, an FNV-1a fold of the per-shard
    /// digests in stable shard order.
    pub fn digest(&self) -> u64 {
        FleetController::fold(self.logs.iter().map(ServeLog::digest))
    }

    /// Decision-only fleet digest (same structure as
    /// [`FleetController::digest`] over [`ServeLog::decision_digest`]).
    pub fn decision_digest(&self) -> u64 {
        FleetController::fold(self.logs.iter().map(ServeLog::decision_digest))
    }

    fn fold(mut parts: impl ExactSizeIterator<Item = u64>) -> u64 {
        if parts.len() == 1 {
            return parts.next().expect("length checked above");
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in parts {
            for b in part.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{drill_recovery, shifted_pod_columns, untrained};
    use crate::log::{DecisionSource, HoldReason, Transition};
    use crate::policy::{FallbackPolicy, UpdateBudget};
    use crate::predictor::LastValue;
    use figret_topology::{Topology, TopologySpec};
    use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
    use figret_traffic::{ActivePairs, TrafficTrace};
    use std::sync::Arc;

    fn pod_setup(snapshots: usize) -> (PathSet, TrafficTrace, Arc<ActivePairs>) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace =
            pod_trace(&g, &PodTrafficConfig { num_snapshots: snapshots, ..Default::default() });
        let active = Arc::clone(trace.active());
        (ps, trace, active)
    }

    fn policy() -> ReconfigPolicy {
        ReconfigPolicy {
            hysteresis: 0.05,
            budget: Some(UpdateBudget::per_window(2, 6)),
            fallback: FallbackPolicy::disabled(),
        }
    }

    /// Drives `build(paths, policy)` through `step_pairs`, and the same
    /// controller (budget moved into the admission layer, paths restricted
    /// to the single shard exactly as a harness would) through a one-shard
    /// fleet, over the same columns: records, transitions and both digests
    /// must agree, and so must the LP work behind them.  Returns the solo log
    /// and its solve count so callers can assert the case exercised what it
    /// claims to.
    fn assert_single_shard_replays(
        ps: &PathSet,
        active: &Arc<ActivePairs>,
        policy: &ReconfigPolicy,
        build: impl Fn(&PathSet, ReconfigPolicy) -> ServeController,
        columns: &[Vec<f64>],
        warmup: usize,
    ) -> (ServeLog, usize) {
        let plan = ShardPlan::single(active);
        let (restricted, _) = ps.restrict_to(plan.shard(0).active());
        let shard = build(&restricted, ReconfigPolicy { budget: None, ..policy.clone() });
        let mut fleet = FleetController::from_controllers(&plan, vec![shard], policy);
        let mut solo = build(ps, policy.clone());
        let mut solo_log = ServeLog::new();
        for (t, column) in columns.iter().enumerate() {
            if t < warmup {
                fleet.observe_column(column);
                solo.observe_pairs(column);
            } else {
                let out = fleet.step_column(column);
                let solo_out = solo.step_pairs(column);
                assert_eq!(out.global_mlu.to_bits(), solo_out.record.realized_mlu.to_bits());
                solo_log.record_outcome(&solo_out);
            }
        }
        assert_eq!(fleet.logs()[0].records, solo_log.records);
        assert_eq!(fleet.logs()[0].transitions, solo_log.transitions);
        assert_eq!(fleet.digest(), solo_log.digest());
        assert_eq!(fleet.decision_digest(), solo_log.decision_digest());
        assert_eq!(fleet.lp_stats().solves, solo.lp_stats().solves);
        (solo_log, solo.lp_stats().solves)
    }

    /// The contract every harness leans on (DESIGN.md §8): a
    /// `ShardPlan::single` fleet *is* the unsharded controller, for every
    /// engine and policy the harness can build.
    #[test]
    fn single_shard_fleet_replays_the_unsharded_controller() {
        let (ps, trace, active) = pod_setup(30);
        let columns: Vec<Vec<f64>> =
            trace.snapshots().iter().map(|c| c.values().to_vec()).collect();
        let lp = |paths: &PathSet, policy: ReconfigPolicy| {
            ServeController::lp(paths, 2, Box::new(LastValue::new()), policy)
        };

        // LP under real gates: hysteresis holds and a budget that exhausts.
        let (log, solves) = assert_single_shard_replays(&ps, &active, &policy(), lp, &columns, 2);
        assert!(log.update_count() > 0, "the comparison must exercise real updates");
        assert!(log.hold_count(HoldReason::BudgetExhausted) > 0, "the budget must bind");
        assert!(solves < log.len(), "closed ticks must skip the solve on both paths");

        // LP with every gate off.
        let always = ReconfigPolicy::always_update();
        let (log, solves) = assert_single_shard_replays(&ps, &active, &always, lp, &columns, 2);
        assert_eq!(log.update_count(), log.len());
        assert_eq!(solves, log.len(), "without a budget every tick is open");

        // Learned under the default policy: audits every 4th decision and a
        // terminal fallback once the untrained model has failed three.
        let learned = |paths: &PathSet, policy: ReconfigPolicy| {
            ServeController::learned(paths, untrained(paths), Box::new(LastValue::new()), policy)
        };
        let default = ReconfigPolicy::default();
        let (log, _) = assert_single_shard_replays(&ps, &active, &default, learned, &columns, 2);
        assert_eq!(log.transition_count(Transition::Degraded), 1, "the audit must trip");
        assert!(log.fallback_tick().is_some());

        // Learned with the recovery ladder armed, across a step shift: the
        // model degrades, challengers retrain and promote.
        let shifted = shifted_pod_columns(60);
        let recovering = |paths: &PathSet, policy: ReconfigPolicy| {
            let mut c = learned(paths, policy);
            c.enable_recovery(drill_recovery());
            c
        };
        let audited = ReconfigPolicy {
            fallback: FallbackPolicy { degradation: 1.2, patience: 2, audit_every: 1 },
            ..policy()
        };
        let (log, _) = assert_single_shard_replays(&ps, &active, &audited, recovering, &shifted, 2);
        for kind in [Transition::Degraded, Transition::RetrainStarted] {
            assert!(log.transition_count(kind) >= 1, "the drill must log {kind:?}");
        }
        assert!(log.transition_count(Transition::Promoted) >= 1, "a challenger must promote");
    }

    #[test]
    fn fleet_respects_the_joint_budget_and_merges_deterministically() {
        let (ps, trace, active) = pod_setup(24);
        let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), 2);
        assert_eq!(plan.num_shards(), 2);
        let run = || {
            let mut fleet = FleetController::lp(&plan, &ps, 2, PredictorKind::LastValue, &policy());
            for t in 0..trace.len() {
                let column = trace.snapshot(t).values();
                if t < 2 {
                    fleet.observe_column(column);
                } else {
                    let out = fleet.step_column(column);
                    assert!(out.global_mlu.is_finite() && out.global_mlu > 0.0);
                    assert_eq!(out.actions.len(), 2);
                }
            }
            fleet
        };
        let fleet = run();
        assert!(fleet.update_count() > 0, "the run must exercise real updates");
        // Joint budget: across both shards, every 6-tick window holds at
        // most 2 updates.
        let budget = policy().budget.unwrap();
        let ticks = fleet.ticks();
        for start in 0..ticks {
            let in_window: usize = fleet
                .logs()
                .iter()
                .flat_map(|log| &log.records)
                .filter(|r| {
                    r.action == Action::Update && r.tick >= start && r.tick < start + budget.window
                })
                .count();
            assert!(
                in_window <= budget.max_updates,
                "window [{start}, {}) holds {in_window} updates",
                start + budget.window
            );
        }
        // Bit-identical replay.
        let again = run();
        assert_eq!(fleet.digest(), again.digest());
        assert_eq!(fleet.admission_stats(), again.admission_stats());
    }

    /// Only the LP engine skips: in a mixed fleet the learned shard computes
    /// its candidate on every tick (its audit cadence lives there), the LP
    /// shard only while a grant is open.
    #[test]
    fn learned_shards_propose_on_closed_ticks_and_lp_shards_do_not() {
        let (ps, trace, active) = pod_setup(24);
        let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), 2);
        let policy = ReconfigPolicy {
            hysteresis: 0.0,
            budget: Some(UpdateBudget::per_window(1, 4)),
            fallback: FallbackPolicy::disabled(),
        };
        let shard_policy = ReconfigPolicy { budget: None, ..policy.clone() };
        let (learned_paths, _) = ps.restrict_to(plan.shard(0).active());
        let (lp_paths, _) = ps.restrict_to(plan.shard(1).active());
        let controllers = vec![
            ServeController::learned(
                &learned_paths,
                untrained(&learned_paths),
                Box::new(LastValue::new()),
                shard_policy.clone(),
            ),
            ServeController::lp(&lp_paths, 2, Box::new(LastValue::new()), shard_policy),
        ];
        let mut fleet = FleetController::from_controllers(&plan, controllers, &policy);
        for t in 0..trace.len() {
            let column = trace.snapshot(t).values();
            if t < 2 {
                fleet.observe_column(column);
            } else {
                fleet.step_column(column);
            }
        }
        // Hysteresis off, one grant per four ticks: ticks 0, 4, 8, … are open.
        let ticks = fleet.ticks();
        for r in &fleet.logs()[0].records {
            assert_eq!(r.source, Some(DecisionSource::Model));
            assert!(r.predicted_mlu_candidate.is_some(), "learned shard, tick {}", r.tick);
        }
        for r in &fleet.logs()[1].records {
            assert_eq!(r.predicted_mlu_candidate.is_some(), r.tick % 4 == 0, "tick {}", r.tick);
        }
        assert_eq!(fleet.lp_stats().solves, ticks.div_ceil(4));
        assert_eq!(fleet.admission_stats().holds_closed, ticks - ticks.div_ceil(4));
        assert_eq!(fleet.update_count(), ticks.div_ceil(4));
    }

    #[test]
    fn global_mlu_merges_shard_loads_exactly() {
        let (ps, trace, active) = pod_setup(16);
        let plan = ShardPlan::source_blocks(&active, trace.num_nodes(), 3);
        let always = ReconfigPolicy::always_update();
        let mut fleet = FleetController::lp(&plan, &ps, 2, PredictorKind::LastValue, &always);
        let single = ShardPlan::single(&active);
        let mut solo = FleetController::lp(&single, &ps, 2, PredictorKind::LastValue, &always);
        for t in 0..trace.len() {
            let column = trace.snapshot(t).values();
            if t < 2 {
                fleet.observe_column(column);
                solo.observe_column(column);
            } else {
                let out = fleet.step_column(column);
                assert!(out.global_mlu.is_finite() && out.global_mlu > 0.0);
                // One shard: the merged global MLU is the realized MLU of
                // the single controller, bit for bit (same loads, same fold).
                let s = solo.step_column(column);
                let record_mlu = solo.logs()[0].records.last().unwrap().realized_mlu;
                assert_eq!(s.global_mlu.to_bits(), record_mlu.to_bits());
                // Per-shard LPs can beat or trail the joint LP on individual
                // links, but both serve the same total demand on the same
                // edge universe — only sanity bounds relate the two.
                assert!(out.global_mlu <= 10.0 * s.global_mlu + 1.0);
            }
        }
    }
}
