//! The online TE controller: the event-driven serving loop.
//!
//! A [`ServeController`] owns the deployed configuration and advances one
//! tick per demand arrival ([`ServeController::step_pairs`]):
//!
//! 1. **Decide** (timed; this is the serving-latency hot path): ask the
//!    admission layer whether the sliding-window update budget has a grant
//!    open, forecast the next demand with the online predictor, compute a
//!    candidate configuration — one forward pass of the model's compiled
//!    f32 [`InferencePlan`] when a model is installed (the f64 graph only
//!    trains), a warm-started LP re-solve through [`MluTemplate`]
//!    otherwise, and *nothing* when the engine is the LP and no grant is
//!    open (the solve could not be deployed) or only an upper bound on its
//!    regret when a fleet's LP shards outnumber the open grants (the solve
//!    follows if the fleet's solve waves pick it) — and run the remaining
//!    [`ReconfigPolicy`] gates (hysteresis on predicted-MLU regret, then the
//!    grant).  Deploying pays the split-ratio churn
//!    ([`figret_te::split_ratio_churn`]).
//! 2. **Ingest**: the realized demand is fed to the predictor and the
//!    history window, and the realized MLU of the (possibly just updated)
//!    deployed configuration is recorded.
//!
//! While serving learned configurations the controller periodically audits
//! them against the LP re-solve (solving only when the template's lower
//! bound on the LP optimum cannot already clear the model) and falls back
//! to the LP once the model has degraded for `patience` consecutive audits
//! — the safety valve for traffic that drifted away from the training
//! distribution (§5.4 of the paper measures exactly this failure mode).
//! Without recovery the fallback is terminal; with
//! [`ServeController::enable_recovery`] it is one state of the self-healing
//! ladder (DESIGN.md §9): a CUSUM drift detector can trip the fallback
//! early, a [`crate::RecoveryManager`] retrains challenger models on the
//! observed-demand window while degraded, and a challenger that beats the
//! LP for `promotion_patience` consecutive shadow audits is promoted back
//! to live serving (with demotion and re-entry on regression).  Every
//! transition is typed, tick-stamped and folded into the log digests.
//!
//! The loop is strictly sequential and every number it consumes is
//! deterministic, so the decision log is bit-identical across runs and
//! thread counts (DESIGN.md §4); only the measured latencies vary.
//!
//! The tick is split into two phases so a fleet coordinator can interpose
//! between them: [`ServeController::propose`] computes the candidate and its
//! predicted MLUs (parking the candidate in scratch), and
//! [`ServeController::finish_pairs`] applies an externally decided
//! [`Action`] and ingests the realized demand.  [`ServeController::step_pairs`]
//! composes the two around the controller's own [`GlobalAdmission`] — the
//! same `open_grants` → `propose` → `admit` → finish sequence a one-shard
//! fleet runs, so the two agree record for record.

use std::collections::VecDeque;
use std::time::Instant;

use figret::{FigretModel, InferencePlan};
use figret_solvers::{clean_demand, MluTemplate, SeriesStats};
use figret_te::{max_link_utilization_pairs_scratch, split_ratio_churn, PathSet, TeConfig};
use figret_telemetry::{Registry, Stopwatch};

use crate::admission::{GlobalAdmission, ShardBid};
use crate::log::{Action, DecisionSource, TickRecord, Transition};
use crate::policy::ReconfigPolicy;
use crate::predictor::OnlinePredictor;
use crate::recovery::{RecoveryConfig, RecoveryManager, RecoveryStats};
use crate::telemetry::ServeTelemetry;

/// The result of one controller tick: the deterministic record plus the
/// measured decision latency.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The deterministic tick record (see [`crate::log`]).
    pub record: TickRecord,
    /// Wall-clock seconds spent in the decision phase (candidate
    /// computation + policy gates; ingestion and bookkeeping excluded).
    pub decision_seconds: f64,
    /// Recovery-ladder transitions this tick produced (empty on almost
    /// every tick).  [`crate::ServeLog::record_outcome`] stamps them with
    /// the record's tick and folds them into the digests.
    pub transitions: Vec<Transition>,
}

/// One controller's decision bid, produced by [`ServeController::propose`]:
/// the candidate configuration itself stays parked inside the controller;
/// these are the numbers an admission layer needs to rank the bid against
/// other shards (the predicted-MLU regret is `predicted_mlu_deployed -
/// predicted_mlu_candidate`).
#[derive(Debug, Clone, Copy)]
pub struct Proposal {
    /// Engine that produced the parked candidate (or would have, had a
    /// grant been open).
    pub source: DecisionSource,
    /// Predicted MLU of the currently deployed configuration on the
    /// forecast demand.
    pub predicted_mlu_deployed: f64,
    /// Predicted MLU of the parked candidate on the forecast demand; `None`
    /// when no candidate was computed (see [`ServeController::propose`]).
    pub predicted_mlu_candidate: Option<f64>,
    /// Upper bound on the candidate's regret, computed instead of the
    /// candidate when more LP controllers bid than grants are open (see
    /// [`ServeController::propose`]); the candidate may follow through
    /// [`ServeController::solve_candidate`].
    pub regret_bound: Option<f64>,
}

/// How one audit of a live model against the LP ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditResult {
    /// The template's lower bound on the LP optimum cleared the model
    /// without a solve: `model_mlu ≤ degradation · bound`.
    Certified,
    /// The bound could not decide; the LP was solved and the model passed.
    SolvedPass,
    /// The bound could not decide; the LP was solved and the model was
    /// degraded.
    SolvedFail,
}

/// Audit outcome counts of a controller (or, summed, of a fleet); outside
/// every digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Audits the bound certified.
    pub certified: usize,
    /// Audits that solved the LP and passed.
    pub solved_pass: usize,
    /// Audits that solved the LP and failed.
    pub solved_fail: usize,
}

impl AuditStats {
    /// Audits that solved the LP, passed or failed.
    pub fn solved(&self) -> usize {
        self.solved_pass + self.solved_fail
    }

    /// Adds another controller's counts (fleet shards).
    pub fn merge(&mut self, other: &AuditStats) {
        self.certified += other.certified;
        self.solved_pass += other.solved_pass;
        self.solved_fail += other.solved_fail;
    }

    fn record(&mut self, result: AuditResult) {
        match result {
            AuditResult::Certified => self.certified += 1,
            AuditResult::SolvedPass => self.solved_pass += 1,
            AuditResult::SolvedFail => self.solved_fail += 1,
        }
    }
}

/// Internal mirror of [`Proposal`] plus the measured propose-phase latency,
/// held between `propose` and `finish_pairs`.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    source: DecisionSource,
    deployed_mlu: f64,
    candidate_mlu: Option<f64>,
    regret_bound: Option<f64>,
    seconds: f64,
}

impl PendingDecision {
    fn proposal(&self) -> Proposal {
        Proposal {
            source: self.source,
            predicted_mlu_deployed: self.deployed_mlu,
            predicted_mlu_candidate: self.candidate_mlu,
            regret_bound: self.regret_bound,
        }
    }
}

/// What [`ServeController::propose`] computes besides the forecast and the
/// deployed configuration's predicted MLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CandidatePlan {
    /// The candidate configuration and its predicted MLU.
    Compute,
    /// An upper bound on the candidate's regret, without solving.
    Bound,
    /// Nothing: no grant is open.
    Skip,
}

/// A model together with the compiled f32 [`InferencePlan`] that serves it,
/// so a learned controller or challenger cannot exist without its plan.  The
/// plan is the only forward pass that decides anything — in the controller
/// and in every learned figure row alike; the model's f64 graph trains (and
/// is the test reference).
#[derive(Debug)]
pub struct ServedModel {
    model: FigretModel,
    plan: InferencePlan,
}

impl ServedModel {
    /// Compiles `model`'s plan.
    pub fn new(model: FigretModel) -> ServedModel {
        let plan = model.compile_plan();
        ServedModel { model, plan }
    }

    /// The one serving forward pass, for the live model and shadow
    /// challengers alike: flattens the history window (`H` pair columns,
    /// most recent last) into `features`, runs the plan into `raw` and
    /// normalizes it into `out`.  Allocates nothing once the caller-owned
    /// buffers have grown to size.
    pub fn candidate_into<'h>(
        &mut self,
        paths: &PathSet,
        history: impl IntoIterator<Item = &'h Vec<f64>>,
        features: &mut Vec<f64>,
        raw: &mut Vec<f64>,
        out: &mut TeConfig,
    ) {
        features.clear();
        for column in history {
            features.extend_from_slice(column);
        }
        raw.resize(paths.num_paths(), 0.0);
        self.plan.forward(features, raw);
        out.assign_from_raw(paths, raw);
    }
}

/// Reusable per-step buffers: the steady-state decision loop allocates
/// nothing — predictions, MLU edge loads, plan features/outputs and the
/// candidate configuration all live here across ticks.
#[derive(Debug, Default)]
struct StepScratch {
    /// Forecast demands, one per active SD pair (slot order).
    predicted_pairs: Vec<f64>,
    /// Edge-load buffer for the scratch MLU evaluator.
    loads: Vec<f64>,
    /// Flattened history window fed to the inference plan.
    features: Vec<f64>,
    /// Raw plan outputs (one per path) before ratio normalization.
    raw: Vec<f64>,
    /// Candidate configuration buffer; swapped with `deployed` on update.
    candidate: TeConfig,
}

/// The online TE controller; see the module docs.
pub struct ServeController {
    paths: PathSet,
    window: usize,
    predictor: Box<dyn OnlinePredictor>,
    /// The live (or, while fallen back, the degraded) model and its plan;
    /// `None` for an LP controller.
    learned: Option<ServedModel>,
    template: MluTemplate,
    policy: ReconfigPolicy,
    /// The policy's hysteresis and budget gates, as [`ServeController::step_pairs`]
    /// applies them.  A fleet shard never consults its own (the fleet's
    /// joint admission decides, and shard policies carry no budget).
    admission: GlobalAdmission,
    /// Set between [`ServeController::propose`] and
    /// [`ServeController::finish_pairs`].
    pending: Option<PendingDecision>,
    deployed: TeConfig,
    /// Observed demand columns (one `f64` per active pair, slot order),
    /// oldest first.  Columnar on purpose: `O(window · num_pairs)` regardless
    /// of the node count, so a restricted fabric universe costs `O(nnz)`.
    history: VecDeque<Vec<f64>>,
    degraded_streak: usize,
    fell_back: bool,
    decisions: usize,
    tick: usize,
    lp_stats: SeriesStats,
    audit_stats: AuditStats,
    scratch: StepScratch,
    /// The self-healing state machine; `None` keeps PR 5's terminal
    /// fallback.  See [`ServeController::enable_recovery`].
    recovery: Option<RecoveryManager>,
    /// Transitions produced since the last finished tick; drained into the
    /// tick's [`StepOutcome`].
    pending_transitions: Vec<Transition>,
    /// 0 for the originally installed model; the challenger generation
    /// after each promotion.
    model_generation: u64,
    /// Out-of-band metrics (DESIGN.md §10); `None` records nothing and
    /// takes no extra `Instant::now()` on the hot path.  Boxed: the handle
    /// table is cold data, and keeping the controller small matters for
    /// the fleet's shard moves.
    telemetry: Option<Box<ServeTelemetry>>,
}

impl std::fmt::Debug for ServeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeController")
            .field("window", &self.window)
            .field("predictor", &self.predictor.name())
            .field("learned", &self.learned.is_some())
            .field("fell_back", &self.fell_back)
            .field("tick", &self.tick)
            .finish()
    }
}

impl ServeController {
    /// A controller that serves warm-started LP re-solves (no model).
    /// `window` is the number of observed demands required before the first
    /// decision (give the sliding-window predictors a full window).
    pub fn lp(
        paths: &PathSet,
        window: usize,
        predictor: Box<dyn OnlinePredictor>,
        policy: ReconfigPolicy,
    ) -> ServeController {
        ServeController::build(paths, window, predictor, None, policy)
    }

    /// A controller that serves learned configurations (with the LP as the
    /// audit reference and fallback) through the model's compiled
    /// [`InferencePlan`], compiled here.  The warmup window is the model's
    /// history window `H`.
    pub fn learned(
        paths: &PathSet,
        model: FigretModel,
        predictor: Box<dyn OnlinePredictor>,
        policy: ReconfigPolicy,
    ) -> ServeController {
        let window = model.config().history_window;
        ServeController::build(paths, window, predictor, Some(ServedModel::new(model)), policy)
    }

    fn build(
        paths: &PathSet,
        window: usize,
        predictor: Box<dyn OnlinePredictor>,
        learned: Option<ServedModel>,
        policy: ReconfigPolicy,
    ) -> ServeController {
        assert!(window >= 1, "the controller needs at least one observed demand to decide");
        ServeController {
            paths: paths.clone(),
            window,
            predictor,
            learned,
            template: MluTemplate::new(paths),
            admission: GlobalAdmission::from_policy(&policy),
            policy,
            pending: None,
            deployed: TeConfig::uniform(paths),
            history: VecDeque::with_capacity(window + 1),
            degraded_streak: 0,
            fell_back: false,
            decisions: 0,
            tick: 0,
            lp_stats: SeriesStats::default(),
            audit_stats: AuditStats::default(),
            scratch: StepScratch::default(),
            recovery: None,
            pending_transitions: Vec::new(),
            model_generation: 0,
            telemetry: None,
        }
    }

    /// Arms out-of-band telemetry (DESIGN.md §10): decision/predict/
    /// candidate span histograms, action and LP-work counters, and
    /// recovery-ladder metrics.  Metrics are never folded into the
    /// decision digests — a run digests identically armed or disarmed.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(ServeTelemetry::new()));
        }
    }

    /// The telemetry registry, when armed.
    pub fn telemetry_registry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| t.registry())
    }

    /// A snapshot (clone) of the telemetry registry, when armed.
    pub fn telemetry_snapshot(&self) -> Option<Registry> {
        self.telemetry_registry().cloned()
    }

    /// Recompiles the model's [`InferencePlan`] from its weights.  A learned
    /// controller already serves the plan compiled at construction (or taken
    /// from a promoted challenger); the weights have not changed since, so
    /// the recompiled plan has the same bits and this changes no decision —
    /// it only pays one more compile.
    ///
    /// # Panics
    ///
    /// Panics on an LP-only controller (nothing to compile).
    pub fn enable_inference_plan(&mut self) {
        let learned =
            self.learned.as_mut().expect("the inference plan requires a learned controller");
        learned.plan = learned.model.compile_plan();
    }

    /// Arms the self-healing state machine (DESIGN.md §9): drift detection
    /// on predicted-vs-realized MLU, online challenger retraining while
    /// degraded, and shadow promotion back to learned serving.  Columns
    /// already in the history window seed the retraining buffer.
    ///
    /// # Panics
    ///
    /// Panics on an LP-only controller (there is no model to heal).
    pub fn enable_recovery(&mut self, config: RecoveryConfig) {
        assert!(self.learned.is_some(), "recovery requires a learned controller");
        let mut manager = RecoveryManager::new(config);
        for column in &self.history {
            manager.ingest(column);
        }
        self.recovery = Some(manager);
    }

    /// Whether the self-healing state machine is armed.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Recovery counters (zeroes when recovery is disabled).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.as_ref().map(|r| r.stats()).unwrap_or_default()
    }

    /// Ingests a demand column without a decision tick (controller warmup:
    /// feed the history prefix before serving starts).  One value per active
    /// pair, in the slot order of the controller's path-set universe.
    pub fn observe_pairs(&mut self, demand: &[f64]) {
        assert_eq!(demand.len(), self.paths.num_pairs(), "one demand value per pair is required");
        assert!(self.pending.is_none(), "cannot observe between propose and finish");
        self.ingest(demand);
    }

    /// Advances the serving loop by one tick; see the module docs.
    /// `realized` is the demand column (one value per active pair, slot
    /// order) that arrives *after* the decision — the controller never sees
    /// it before committing, exactly like a production control loop
    /// operating on stale telemetry.
    ///
    /// This is the one-shard fleet tick on the controller's own admission
    /// layer: ask for open grants, `propose`, `admit` the single bid,
    /// `finish`.
    pub fn step_pairs(&mut self, realized: &[f64]) -> StepOutcome {
        assert_eq!(realized.len(), self.paths.num_pairs(), "one demand value per pair is required");
        let open_grants = self.admission.open_grants(self.tick);
        let bid = self.propose(open_grants, 1).map(|p| ShardBid::from_proposal(0, &p));
        let mut action = [Action::Warmup];
        self.admission.admit(self.tick, bid.as_slice(), &mut action);
        self.finish_inner(realized, action[0])
    }

    /// What [`ServeController::propose`] computes when told `open_grants`
    /// and `lp_bids`: always the candidate with a model installed; for the
    /// LP engine nothing while no grant is open, a regret bound while more
    /// LP controllers bid than grants are open, the candidate otherwise.
    ///
    /// Skipping is sound because at zero open grants
    /// [`GlobalAdmission::admit`] grants nothing for *any* bid set, so the
    /// tick's set of updates is what it would have been.  What the skip does
    /// change: the held record reads `BudgetExhausted` even where the
    /// hysteresis gate would have held it first, its
    /// `predicted_mlu_candidate` is `None`, and the next solve warm-starts
    /// from an older basis, which can land on a different optimal vertex.
    /// Bounding instead of solving has the same consequences for the bids
    /// the two solve waves leave outranked (see [`crate::admission`]).
    ///
    /// A learned controller keeps proposing: its audit cadence, degraded
    /// streak, drift flag and shadow audits advance inside the candidate
    /// computation, and its candidate is a forward pass, not a solve.
    pub(crate) fn candidate_plan(&self, open_grants: usize, lp_bids: usize) -> CandidatePlan {
        if self.learned.is_some() || (open_grants > 0 && lp_bids <= open_grants) {
            CandidatePlan::Compute
        } else if open_grants == 0 {
            CandidatePlan::Skip
        } else {
            CandidatePlan::Bound
        }
    }

    /// Whether the next [`ServeController::propose`] bids on the LP engine:
    /// the history window is full and no model is installed.
    pub(crate) fn bids_on_lp(&self) -> bool {
        self.learned.is_none() && self.history.len() >= self.window
    }

    /// Phase 1 of a two-phase tick (timed; the decision hot path): forecast
    /// the next demand, compute the candidate configuration (parked in
    /// scratch until the finish phase) and evaluate the predicted MLUs of
    /// the deployed and candidate configurations.  Returns `None` while the
    /// history window is still filling (the tick must then finish as
    /// [`Action::Warmup`]).
    ///
    /// `open_grants` is the admission layer's answer for this tick
    /// ([`GlobalAdmission::open_grants`]) and `lp_bids` the number of
    /// controllers bidding on the LP engine for those grants, this one
    /// included when it is one (1 for a lone controller).  At zero open
    /// grants, a controller without a model still forecasts and scores the
    /// deployed configuration but computes and parks no candidate (it could
    /// not be deployed), and the tick must finish as a hold.  With more LP
    /// bids than open grants it bounds the candidate's regret from the
    /// template's lower bound on the optimum
    /// ([`MluTemplate::mlu_lower_bound`]) instead of solving, and the
    /// candidate follows only if [`ServeController::solve_candidate`] is
    /// called.  A learned controller proposes regardless.
    ///
    /// A fleet coordinator calls this on every shard, ranks the returned
    /// bids under the shared admission policy, and finishes each shard with
    /// the granted or held action.
    ///
    /// # Panics
    ///
    /// Panics when called again before the pending tick was finished.
    pub fn propose(&mut self, open_grants: usize, lp_bids: usize) -> Option<Proposal> {
        assert!(self.pending.is_none(), "propose called twice without a finish");
        if self.history.len() < self.window {
            return None;
        }
        let start = Instant::now();
        // Armed-only sub-spans: a disarmed controller takes no stopwatch
        // reads beyond the one `start` above.
        let mut spans = self.telemetry.is_some().then(Stopwatch::start);
        // Detach the scratch arena from `self` for the duration of the
        // phase so its buffers can be borrowed alongside the other fields.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.predicted_pairs.resize(self.paths.num_pairs(), 0.0);
        let have = self.predictor.predict_pairs_into(&mut scratch.predicted_pairs);
        assert!(have, "a filled history window implies at least one observation");
        // Every score, bound and solve of the tick reads the column the
        // template solves: negative and non-finite forecasts count as zero.
        for demand in &mut scratch.predicted_pairs {
            *demand = clean_demand(*demand);
        }
        if let Some(spans) = spans.as_mut() {
            let lap = spans.lap();
            self.telemetry.as_mut().expect("a live stopwatch implies telemetry").on_predict(lap);
        }
        let plan = self.candidate_plan(open_grants, lp_bids);
        let (source, scored) = match plan {
            CandidatePlan::Compute => self.timed_candidate_into(&mut scratch, &mut spans),
            CandidatePlan::Bound => (DecisionSource::LpWarm, None),
            CandidatePlan::Skip => {
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.on_candidate_skipped();
                }
                (DecisionSource::LpWarm, None)
            }
        };
        let deployed_mlu = max_link_utilization_pairs_scratch(
            &self.paths,
            &self.deployed,
            &scratch.predicted_pairs,
            &mut scratch.loads,
        );
        let regret_bound = (plan == CandidatePlan::Bound)
            .then(|| deployed_mlu - self.template.mlu_lower_bound(&scratch.predicted_pairs));
        let candidate_mlu = (plan == CandidatePlan::Compute).then(|| {
            scored.unwrap_or_else(|| {
                max_link_utilization_pairs_scratch(
                    &self.paths,
                    &scratch.candidate,
                    &scratch.predicted_pairs,
                    &mut scratch.loads,
                )
            })
        });
        if let Some(spans) = spans.as_mut() {
            let lap = spans.lap();
            self.telemetry.as_mut().expect("a live stopwatch implies telemetry").on_mlu_eval(lap);
        }
        self.scratch = scratch;
        self.decisions += 1;
        let seconds = start.elapsed().as_secs_f64();
        let pending =
            PendingDecision { source, deployed_mlu, candidate_mlu, regret_bound, seconds };
        self.pending = Some(pending);
        Some(pending.proposal())
    }

    /// Completes a bound-only proposal (timed, added to the tick's decision
    /// latency): solves the LP candidate for the pending forecast, parks it,
    /// and returns the proposal with its predicted MLU filled in.  A fleet
    /// calls this on the shards its solve waves pick.
    ///
    /// # Panics
    ///
    /// Panics unless the pending proposal carries a regret bound and no
    /// candidate.
    pub fn solve_candidate(&mut self) -> Proposal {
        let mut pending = self.pending.expect("solve_candidate requires a pending proposal");
        assert!(
            pending.regret_bound.is_some() && pending.candidate_mlu.is_none(),
            "solve_candidate requires a bound-only proposal"
        );
        let start = Instant::now();
        let mut spans = self.telemetry.is_some().then(Stopwatch::start);
        let mut scratch = std::mem::take(&mut self.scratch);
        // Only an LP controller bounds, and its candidate comes unscored.
        (pending.source, _) = self.timed_candidate_into(&mut scratch, &mut spans);
        pending.candidate_mlu = Some(max_link_utilization_pairs_scratch(
            &self.paths,
            &scratch.candidate,
            &scratch.predicted_pairs,
            &mut scratch.loads,
        ));
        if let Some(spans) = spans.as_mut() {
            let lap = spans.lap();
            self.telemetry.as_mut().expect("a live stopwatch implies telemetry").on_mlu_eval(lap);
        }
        self.scratch = scratch;
        pending.seconds += start.elapsed().as_secs_f64();
        self.pending = Some(pending);
        pending.proposal()
    }

    /// [`Self::candidate_into`] under the candidate span of an armed
    /// stopwatch.
    fn timed_candidate_into(
        &mut self,
        scratch: &mut StepScratch,
        spans: &mut Option<Stopwatch>,
    ) -> (DecisionSource, Option<f64>) {
        let (source, scored) = self.candidate_into(scratch);
        if let Some(spans) = spans.as_mut() {
            let lap = spans.lap();
            self.telemetry
                .as_mut()
                .expect("a live stopwatch implies telemetry")
                .on_candidate(source, lap);
        }
        (source, scored)
    }

    /// Phase 2 of a two-phase tick: applies an externally decided `action`
    /// (deploying the parked candidate on [`Action::Update`]), ingests the
    /// realized demand and records the realized MLU.  The action must be
    /// [`Action::Warmup`] exactly when the preceding [`ServeController::propose`]
    /// returned `None`.
    pub fn finish_pairs(&mut self, realized: &[f64], action: Action) -> StepOutcome {
        assert_eq!(realized.len(), self.paths.num_pairs(), "one demand value per pair is required");
        self.finish_inner(realized, action)
    }

    fn finish_inner(&mut self, realized: &[f64], action: Action) -> StepOutcome {
        let pending = self.pending.take();
        assert_eq!(
            pending.is_none(),
            action == Action::Warmup,
            "Action::Warmup is required exactly when propose returned None"
        );
        let tick = self.tick;
        let start = Instant::now();
        let finish_watch = self.telemetry.is_some().then(Stopwatch::start);
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut churn = 0.0;
        if action == Action::Update {
            assert!(
                pending.is_some_and(|p| p.candidate_mlu.is_some()),
                "Action::Update requires a parked candidate"
            );
            churn = split_ratio_churn(&self.deployed, &scratch.candidate);
            // Deploy by swapping buffers: the old deployed config becomes
            // the next tick's candidate scratch.
            std::mem::swap(&mut self.deployed, &mut scratch.candidate);
        }
        let decision_seconds = pending.map_or(0.0, |p| p.seconds) + start.elapsed().as_secs_f64();

        self.ingest(realized);
        let realized_mlu = max_link_utilization_pairs_scratch(
            &self.paths,
            &self.deployed,
            realized,
            &mut scratch.loads,
        );
        self.scratch = scratch;
        self.recovery_after_ingest(tick, realized_mlu, action, pending);
        if let Some(tel) = self.telemetry.as_mut() {
            // Transitions are counted here, *before* the StepOutcome drains
            // them, so the counters cover every ladder move of the tick
            // (including RetrainStarted pushed by recovery above).
            if pending.is_some_and(|p| p.regret_bound.is_some() && p.candidate_mlu.is_none()) {
                tel.on_candidate_outranked();
            }
            tel.on_tick(action, decision_seconds, pending.is_some(), &self.pending_transitions);
            if let Some(watch) = finish_watch {
                tel.on_finish(watch.peek());
            }
        }
        self.tick += 1;
        StepOutcome {
            record: TickRecord {
                tick,
                action,
                source: pending.map(|p| p.source),
                predicted_mlu_deployed: pending.map(|p| p.deployed_mlu),
                predicted_mlu_candidate: pending.and_then(|p| p.candidate_mlu),
                regret_bound: pending.and_then(|p| p.regret_bound),
                realized_mlu,
                churn,
            },
            decision_seconds,
            transitions: std::mem::take(&mut self.pending_transitions),
        }
    }

    /// Recovery bookkeeping of the ingest phase: feed the drift detector
    /// with this tick's relative forecast error (only while the model is
    /// live — degraded ticks serve the LP, whose forecast error is the
    /// predictor's problem, not the model's), and run the tick-scheduled
    /// challenger retraining while degraded.
    fn recovery_after_ingest(
        &mut self,
        tick: usize,
        realized_mlu: f64,
        action: Action,
        pending: Option<PendingDecision>,
    ) {
        if self.recovery.is_none() {
            return;
        }
        if !self.fell_back {
            if let Some(p) = pending {
                let predicted = match p.candidate_mlu {
                    Some(candidate_mlu) if action == Action::Update => candidate_mlu,
                    _ => p.deployed_mlu,
                };
                let error = (realized_mlu - predicted).abs() / realized_mlu.max(1e-9);
                let recovery = self.recovery.as_mut().expect("checked above");
                recovery.observe_error(error);
                let level = recovery.detector_level();
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.set_cusum_level(level);
                }
            }
            return;
        }
        let recovery = self.recovery.as_mut().expect("checked above");
        if recovery.should_retrain(tick) {
            let incumbent = self
                .learned
                .as_ref()
                .expect("recovery requires a learned controller")
                .model
                .config()
                .clone();
            let seconds_before = recovery.stats().retrain_seconds;
            if recovery.retrain(&self.paths, &incumbent) {
                self.pending_transitions.push(Transition::RetrainStarted);
                let round_seconds = recovery.stats().retrain_seconds - seconds_before;
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.on_retrain(round_seconds);
                }
            }
        }
    }

    /// Computes the candidate configuration for the forecast demand in
    /// `scratch.predicted_pairs`, leaves it in `scratch.candidate` and
    /// applies the learned-mode audit/fallback/recovery logic.  Returns the
    /// candidate's source and, when an audit already scored the candidate on
    /// the forecast, that predicted MLU (the one [`Self::propose`] would
    /// compute).
    ///
    /// An audit first asks the template's lower bound on the LP optimum
    /// ([`MluTemplate::mlu_lower_bound`]): `bound ≤ θ* ≤ lp_mlu`, so
    /// `model_mlu ≤ degradation · bound` already implies the solved
    /// comparison would pass, and the audit passes without a solve.  Only an
    /// audit the bound cannot decide solves the LP and compares.
    fn candidate_into(&mut self, scratch: &mut StepScratch) -> (DecisionSource, Option<f64>) {
        if self.learned.is_none() {
            scratch.candidate = self.lp_candidate(&scratch.predicted_pairs);
            return (DecisionSource::LpWarm, None);
        }
        if self.fell_back {
            return self.fallback_candidate_into(scratch);
        }
        let learned = self.learned.as_mut().expect("learned mode checked above");
        learned.candidate_into(
            &self.paths,
            &self.history,
            &mut scratch.features,
            &mut scratch.raw,
            &mut scratch.candidate,
        );
        let fb = self.policy.fallback;
        let audit = fb.audit_every > 0 && self.decisions.is_multiple_of(fb.audit_every);
        let mut model_mlu = None;
        let mut lp_candidate = None;
        if audit {
            let mlu = max_link_utilization_pairs_scratch(
                &self.paths,
                &scratch.candidate,
                &scratch.predicted_pairs,
                &mut scratch.loads,
            );
            model_mlu = Some(mlu);
            let result = if mlu
                <= fb.degradation * self.template.mlu_lower_bound(&scratch.predicted_pairs)
            {
                AuditResult::Certified
            } else {
                let lp = self.lp_candidate(&scratch.predicted_pairs);
                let lp_mlu = max_link_utilization_pairs_scratch(
                    &self.paths,
                    &lp,
                    &scratch.predicted_pairs,
                    &mut scratch.loads,
                );
                lp_candidate = Some((lp, lp_mlu));
                if mlu > fb.degradation * lp_mlu {
                    AuditResult::SolvedFail
                } else {
                    AuditResult::SolvedPass
                }
            };
            if result == AuditResult::SolvedFail {
                self.degraded_streak += 1;
            } else {
                self.degraded_streak = 0;
            }
            self.audit_stats.record(result);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_audit(result);
            }
        }
        let audit_tripped = audit && self.degraded_streak >= fb.patience;
        let drift_tripped = self.recovery.as_mut().is_some_and(|r| r.take_drift_flag());
        if audit_tripped || drift_tripped {
            return self.degrade(scratch, lp_candidate);
        }
        (DecisionSource::Model, model_mlu)
    }

    /// Falls back to the warm LP after an audit or drift trip.  With
    /// recovery armed the fallback is a state (retraining begins); without
    /// it the fallback is terminal.  `lp_candidate` is the audit's solved
    /// candidate and its predicted MLU, when the audit solved.
    fn degrade(
        &mut self,
        scratch: &mut StepScratch,
        lp_candidate: Option<(TeConfig, f64)>,
    ) -> (DecisionSource, Option<f64>) {
        self.degraded_streak = 0;
        self.fell_back = true;
        let demoted = self.model_generation > 0;
        self.pending_transitions.push(if demoted {
            Transition::Demoted
        } else {
            Transition::Degraded
        });
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.reset_detector();
            if demoted {
                recovery.note_demotion();
            }
        }
        // An audit that solved and tripped already has the better LP
        // candidate in hand; a drift trip, or one on a certified or
        // unaudited tick, computes it now.
        let Some((lp, lp_mlu)) = lp_candidate else {
            scratch.candidate = self.lp_candidate(&scratch.predicted_pairs);
            return (DecisionSource::LpWarm, None);
        };
        scratch.candidate = lp;
        (DecisionSource::LpWarm, Some(lp_mlu))
    }

    /// Fallback-mode decision: serve the warm LP re-solve and — with
    /// recovery armed and a challenger in shadow — audit the challenger
    /// against the LP on the same forecast.  `promotion_patience`
    /// consecutive wins promote the challenger to the live model, ending
    /// the fallback; its winning candidate is served immediately, and its
    /// already-compiled plan serves from then on.
    fn fallback_candidate_into(
        &mut self,
        scratch: &mut StepScratch,
    ) -> (DecisionSource, Option<f64>) {
        let lp = self.lp_candidate(&scratch.predicted_pairs);
        let Some(recovery) = self.recovery.as_mut().filter(|r| r.shadow().is_some()) else {
            scratch.candidate = lp;
            return (DecisionSource::LpWarm, None);
        };
        let lp_mlu = max_link_utilization_pairs_scratch(
            &self.paths,
            &lp,
            &scratch.predicted_pairs,
            &mut scratch.loads,
        );
        let audit_watch = self.telemetry.is_some().then(Stopwatch::start);
        let margin = recovery.config().promotion_margin;
        let patience = recovery.config().promotion_patience;
        let shadow = recovery.shadow_mut().expect("shadow presence checked above");
        shadow.served_mut().candidate_into(
            &self.paths,
            &self.history,
            &mut scratch.features,
            &mut scratch.raw,
            &mut scratch.candidate,
        );
        let challenger_mlu = max_link_utilization_pairs_scratch(
            &self.paths,
            &scratch.candidate,
            &scratch.predicted_pairs,
            &mut scratch.loads,
        );
        let won = challenger_mlu <= margin * lp_mlu;
        let wins = shadow.record_audit(won);
        if let Some(watch) = audit_watch {
            self.telemetry
                .as_mut()
                .expect("a live stopwatch implies telemetry")
                .on_shadow_audit(won, watch.peek());
        }
        if wins >= patience {
            let shadow = recovery.take_shadow().expect("shadow presence checked above");
            recovery.note_promotion();
            recovery.reset_detector();
            self.model_generation = shadow.generation();
            self.learned = Some(shadow.into_served());
            self.fell_back = false;
            self.pending_transitions.push(Transition::Promoted);
            // The winning challenger candidate in scratch serves this very
            // tick.
            return (DecisionSource::Model, Some(challenger_mlu));
        }
        scratch.candidate = lp;
        (DecisionSource::LpWarm, Some(lp_mlu))
    }

    fn lp_candidate(&mut self, predicted_pairs: &[f64]) -> TeConfig {
        let watch = self.telemetry.is_some().then(Stopwatch::start);
        let (config, stats) = self
            .template
            .solve(&self.paths, predicted_pairs)
            .expect("the serving min-MLU LP must be solvable");
        self.lp_stats.record(&stats);
        if let Some(watch) = watch {
            self.telemetry
                .as_mut()
                .expect("a live stopwatch implies telemetry")
                .on_lp_solve(&stats, watch.peek());
        }
        config
    }

    fn ingest(&mut self, demand: &[f64]) {
        self.predictor.observe_pairs(demand);
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.ingest(demand);
        }
        if self.history.len() >= self.window {
            // Steady state: recycle the evicted column's allocation instead
            // of cloning the arrival.
            let mut recycled = self.history.pop_front().expect("window length checked above");
            recycled.copy_from_slice(demand);
            self.history.push_back(recycled);
        } else {
            self.history.push_back(demand.to_vec());
        }
    }

    /// The currently deployed configuration.
    pub fn deployed(&self) -> &TeConfig {
        &self.deployed
    }

    /// Edge-load vector of the most recent realized-MLU evaluation (one
    /// entry per edge of the path set's edge universe, which
    /// `PathSet::restrict_to` preserves in full).  A fleet sums these across
    /// shards in stable shard order and folds once
    /// ([`figret_te::max_utilization_of_loads`]) to recover the exact global
    /// MLU.  Valid until the next propose/step call.
    pub fn last_realized_loads(&self) -> &[f64] {
        &self.scratch.loads
    }

    /// Number of SD pairs in the controller's pair universe.
    pub fn num_pairs(&self) -> usize {
        self.paths.num_pairs()
    }

    /// The controller's path set (a fleet checks shards share one edge
    /// universe through this).
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// The controller's reconfiguration policy.
    pub fn policy(&self) -> &ReconfigPolicy {
        &self.policy
    }

    /// Decision ticks taken so far.
    pub fn ticks(&self) -> usize {
        self.tick
    }

    /// Whether the controller is *currently* fallen back to the LP.
    /// Terminal without recovery; with recovery armed a later promotion
    /// clears it.
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// 0 while the originally installed model serves; the promoted
    /// challenger's generation afterwards.
    pub fn model_generation(&self) -> u64 {
        self.model_generation
    }

    /// Accumulated LP solver work (warm-start acceptance, pivots) over every
    /// template re-solve the controller ran.
    pub fn lp_stats(&self) -> &SeriesStats {
        &self.lp_stats
    }

    /// How the learned audits ended so far: certified by the bound, or
    /// solved and passed or failed (all zero for an LP controller).
    pub fn audit_stats(&self) -> AuditStats {
        self.audit_stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::log::{HoldReason, ServeLog};
    use crate::policy::{FallbackPolicy, UpdateBudget};
    use crate::predictor::{LastValue, PredictorKind};
    use crate::recovery::RecoveryConfig;
    use figret::FigretConfig;
    use figret_solvers::omniscient_config;
    use figret_te::max_link_utilization_pairs;
    use figret_topology::{Topology, TopologySpec};
    use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
    use figret_traffic::{
        OnlineStream, OnlineStreamConfig, SparseDemandStream, StepShiftConfig, TrafficTrace,
        WindowDataset,
    };

    fn pod_setup(snapshots: usize) -> (PathSet, TrafficTrace) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace =
            pod_trace(&g, &PodTrafficConfig { num_snapshots: snapshots, ..Default::default() });
        (ps, trace)
    }

    /// A model at initialisation weights with a two-column window.
    pub(crate) fn untrained(paths: &PathSet) -> FigretModel {
        let config = FigretConfig { history_window: 2, ..FigretConfig::fast_test() };
        FigretModel::new(paths, &vec![0.0; paths.num_pairs()], config)
    }

    /// `ticks` PoD-DB demand columns, quiet apart from a ×4 step shift at
    /// tick 12: enough to trip an untrained model and promote a challenger
    /// under [`drill_recovery`].
    pub(crate) fn shifted_pod_columns(ticks: usize) -> Vec<Vec<f64>> {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let config = OnlineStreamConfig {
            diurnal_amplitude: 0.05,
            noise: 0.02,
            drift: None,
            flash_crowds: None,
            failure_storms: None,
            shift: Some(StepShiftConfig { at_tick: 12, factor: 4.0 }),
            seed: 97,
            ..Default::default()
        };
        let mut stream = OnlineStream::from_graph(&g, 0.25, config);
        (0..ticks).map(|_| stream.next_column().expect("endless").values().to_vec()).collect()
    }

    /// A recovery ladder that retrains fast enough to promote within
    /// [`shifted_pod_columns`]`(60)`.
    pub(crate) fn drill_recovery() -> RecoveryConfig {
        RecoveryConfig {
            retrain_window: 16,
            retrain_every: 4,
            promotion_patience: 2,
            promotion_margin: 1.1,
            retrain_epochs: 60,
            ..Default::default()
        }
    }

    fn run(controller: &mut ServeController, trace: &TrafficTrace, warmup: usize) -> ServeLog {
        let mut log = ServeLog::new();
        for (t, column) in trace.snapshots().iter().enumerate() {
            if t < warmup {
                controller.observe_pairs(column.values());
            } else {
                let out = controller.step_pairs(column.values());
                log.push(out.record, out.decision_seconds);
            }
        }
        log
    }

    #[test]
    fn always_update_deploys_every_tick_and_stays_above_omniscient() {
        let (ps, trace) = pod_setup(24);
        let mut c = ServeController::lp(
            &ps,
            2,
            Box::new(LastValue::new()),
            ReconfigPolicy::always_update(),
        );
        let log = run(&mut c, &trace, 2);
        assert_eq!(log.update_count(), log.len());
        assert_eq!(log.fallback_tick(), None);
        // Realized MLU is bounded below by the omniscient optimum per tick.
        for (i, r) in log.records.iter().enumerate() {
            let t = 2 + i;
            let demand = trace.snapshot(t).values();
            let omni = omniscient_config(&ps, demand).unwrap();
            let bound = max_link_utilization_pairs(&ps, &omni, demand);
            assert!(r.realized_mlu + 1e-9 >= bound, "tick {i}: {} < {bound}", r.realized_mlu);
        }
        // The warm template must actually warm start on a stable trace.
        assert!(c.lp_stats().warm_solves > 0);
        assert_eq!(c.lp_stats().solves, log.len());
    }

    #[test]
    fn hysteresis_holds_when_the_deployed_config_stays_good() {
        let (ps, trace) = pod_setup(24);
        // A huge hysteresis threshold: after the first deployment nothing is
        // ever predicted to be 10x better, so everything else holds.
        let policy =
            ReconfigPolicy { hysteresis: 9.0, budget: None, fallback: FallbackPolicy::disabled() };
        let mut c = ServeController::lp(&ps, 2, Box::new(LastValue::new()), policy);
        let log = run(&mut c, &trace, 2);
        // The initial uniform config may be bad enough to trigger the first
        // update, but after that the gate must hold.
        assert!(log.update_count() <= 1);
        assert!(log.hold_count(HoldReason::BelowHysteresis) >= log.len() - 1);
        assert_eq!(log.hold_count(HoldReason::BudgetExhausted), 0);
    }

    #[test]
    fn update_budget_is_enforced_over_a_sliding_window() {
        let (ps, trace) = pod_setup(30);
        let policy = ReconfigPolicy {
            hysteresis: 0.0, // always wants to update
            budget: Some(UpdateBudget::per_window(1, 4)),
            fallback: FallbackPolicy::disabled(),
        };
        let mut c = ServeController::lp(&ps, 2, Box::new(LastValue::new()), policy);
        let log = run(&mut c, &trace, 2);
        // Exactly one update per 4-tick window: ticks 0, 4, 8, ...
        for r in &log.records {
            assert_eq!(r.source, Some(DecisionSource::LpWarm));
            assert!(r.predicted_mlu_deployed.is_some());
            if r.tick % 4 == 0 {
                assert_eq!(r.action, Action::Update, "tick {}", r.tick);
                assert!(r.predicted_mlu_candidate.is_some());
                assert!(r.churn >= 0.0);
            } else {
                // No grant open: the LP engine is not even asked.
                assert_eq!(r.action, Action::Hold(HoldReason::BudgetExhausted), "tick {}", r.tick);
                assert_eq!(r.predicted_mlu_candidate, None);
                assert_eq!(r.churn, 0.0);
            }
        }
        assert_eq!(log.update_count(), log.len().div_ceil(4));
        assert_eq!(c.lp_stats().solves, log.update_count(), "one solve per open tick");
    }

    #[test]
    fn untrained_model_degrades_and_falls_back_to_the_lp() {
        let (ps, trace) = pod_setup(30);
        // An untrained model emits near-arbitrary configurations; with a
        // tight degradation bound and per-tick audits the controller must
        // abandon it quickly.
        let policy = ReconfigPolicy {
            hysteresis: 0.0,
            budget: None,
            fallback: FallbackPolicy { degradation: 1.01, patience: 2, audit_every: 1 },
        };
        let mut c =
            ServeController::learned(&ps, untrained(&ps), Box::new(LastValue::new()), policy);
        let log = run(&mut c, &trace, 2);
        assert!(c.fell_back(), "an untrained model must trip the degradation fallback");
        let fb = log.fallback_tick().expect("fallback transition must appear in the log");
        // Before the transition: model candidates; from it on: LP candidates.
        for r in &log.records {
            match r.source {
                Some(DecisionSource::Model) => assert!(r.tick < fb),
                Some(DecisionSource::LpWarm) => assert!(r.tick >= fb),
                None => panic!("no warmup records expected"),
            }
        }
    }

    /// A trained model audited on every tick: the template's lower bound
    /// clears the audits, so the LP is solved at most once — for the first
    /// audit, before the pool holds an optimum's multipliers.
    #[test]
    fn a_trained_model_clears_its_audits_on_the_bound() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let config = OnlineStreamConfig {
            diurnal_amplitude: 0.05,
            noise: 0.02,
            drift: None,
            flash_crowds: None,
            failure_storms: None,
            seed: 97,
            ..Default::default()
        };
        let mut stream = OnlineStream::from_graph(&g, 0.25, config);
        let columns: Vec<Vec<f64>> =
            (0..120).map(|_| stream.next_column().expect("endless").values().to_vec()).collect();
        let dataset = WindowDataset::from_columns(2, columns[..80].to_vec());
        // Trained to within ≈ 1.25x of the LP optimum on this stream.
        let config = FigretConfig { history_window: 2, epochs: 60, ..FigretConfig::fast_test() };
        let mut model = FigretModel::new(&ps, &dataset.per_slot_variance(), config);
        model.train(&dataset);
        let policy = ReconfigPolicy {
            hysteresis: 0.0,
            budget: None,
            fallback: FallbackPolicy { degradation: 1.5, patience: 1, audit_every: 1 },
        };
        let mut c = ServeController::learned(&ps, model, Box::new(LastValue::new()), policy);
        for column in &columns[78..80] {
            c.observe_pairs(column);
        }
        for (t, column) in columns.iter().enumerate().skip(80) {
            let out = c.step_pairs(column);
            assert_eq!(out.record.source, Some(DecisionSource::Model), "tick {t}");
        }
        let audits = c.audit_stats();
        assert_eq!(audits.certified + audits.solved(), 40, "{audits:?}");
        assert_eq!(audits.solved_fail, 0, "{audits:?}");
        assert!(c.lp_stats().solves <= 1, "{audits:?}, {:?}", c.lp_stats());
    }

    /// The serving contract: every model-sourced decision is
    /// `TeConfig::from_raw` of the serving model's own compiled plan on the
    /// decision's history window, bit for bit — for the installed model and
    /// for a promoted challenger from its first decision on.
    #[test]
    fn model_decisions_are_the_served_models_plan_outputs() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        // Hysteresis 0 and no budget: every decision deploys its candidate.
        let policy = ReconfigPolicy {
            hysteresis: 0.0,
            budget: None,
            fallback: FallbackPolicy { degradation: 1.2, patience: 2, audit_every: 1 },
        };
        let mut c =
            ServeController::learned(&ps, untrained(&ps), Box::new(LastValue::new()), policy);
        c.enable_recovery(drill_recovery());
        let bits = |cfg: &TeConfig| cfg.ratios().iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let columns = shifted_pod_columns(60);
        let (mut live, mut promoted) = (0, 0);
        for (t, column) in columns.iter().enumerate() {
            if t < 2 {
                c.observe_pairs(column);
                continue;
            }
            let out = c.step_pairs(column);
            if out.record.source != Some(DecisionSource::Model) {
                continue;
            }
            assert_eq!(out.record.action, Action::Update, "tick {t}");
            let mut raw = vec![0.0; ps.num_paths()];
            let served = c.learned.as_ref().expect("a model decided");
            served.model.compile_plan().forward(&columns[t - 2..t].concat(), &mut raw);
            assert_eq!(bits(c.deployed()), bits(&TeConfig::from_raw(&ps, &raw)), "tick {t}");
            if out.transitions.contains(&Transition::Promoted) {
                promoted += 1;
            } else {
                live += 1;
            }
        }
        assert!(live > 0, "the installed model must serve");
        assert!(promoted > 0, "a challenger must promote");
    }

    #[test]
    fn warmup_ticks_are_logged_until_the_window_fills() {
        let (ps, trace) = pod_setup(8);
        let mut c = ServeController::lp(
            &ps,
            3,
            Box::new(LastValue::new()),
            ReconfigPolicy::always_update(),
        );
        // No warmup observations: the first 3 steps cannot decide.
        let log = run(&mut c, &trace, 0);
        assert_eq!(log.records[0].action, Action::Warmup);
        assert_eq!(log.records[2].action, Action::Warmup);
        assert_eq!(log.records[3].action, Action::Update);
        assert!(log.records[0].predicted_mlu_candidate.is_none());
        assert!(log.records[3].predicted_mlu_candidate.is_some());
    }

    #[test]
    fn sparse_columns_reproduce_dense_decisions_bit_for_bit() {
        let (ps, trace) = pod_setup(20);
        let policy = ReconfigPolicy {
            hysteresis: 0.05,
            budget: Some(UpdateBudget::per_window(3, 8)),
            fallback: FallbackPolicy::disabled(),
        };
        let mut dense = ServeController::lp(&ps, 2, Box::new(LastValue::new()), policy.clone());
        let mut sparse = ServeController::lp(&ps, 2, Box::new(LastValue::new()), policy);
        // ActivePairs::all slot order == flatten_pairs order, so the values
        // of an all-pairs column must replay its densified matrix's exact
        // decision sequence: same LP pivots, same MLUs, same churn bits.
        let mut dense_log = ServeLog::new();
        let mut sparse_log = ServeLog::new();
        for t in 0..trace.len() {
            let flat = trace.matrix(t).flatten_pairs();
            let column = trace.snapshot(t);
            if t < 2 {
                dense.observe_pairs(&flat);
                sparse.observe_pairs(column.values());
            } else {
                let d = dense.step_pairs(&flat);
                let s = sparse.step_pairs(column.values());
                assert_eq!(d.record.realized_mlu.to_bits(), s.record.realized_mlu.to_bits());
                assert_eq!(d.record.churn.to_bits(), s.record.churn.to_bits());
                dense_log.push(d.record, d.decision_seconds);
                sparse_log.push(s.record, s.decision_seconds);
            }
        }
        assert!(dense_log.update_count() > 0, "the comparison must exercise real updates");
        assert_eq!(dense_log.decision_digest(), sparse_log.decision_digest());
        assert_eq!(dense.deployed(), sparse.deployed());
    }

    #[test]
    fn predictor_kind_drives_the_controller() {
        let (ps, trace) = pod_setup(16);
        for kind in [
            PredictorKind::LastValue,
            PredictorKind::Ewma(0.4),
            PredictorKind::SlidingMean(3),
            PredictorKind::SlidingMax(3),
        ] {
            let mut c = ServeController::lp(&ps, 3, kind.build(), ReconfigPolicy::always_update());
            let log = run(&mut c, &trace, 3);
            assert_eq!(log.update_count(), log.len());
            assert!(log.records.iter().all(|r| r.realized_mlu.is_finite()));
        }
    }
}
