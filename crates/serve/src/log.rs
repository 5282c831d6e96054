//! The event/decision log of a serving run.
//!
//! Every controller tick appends one [`TickRecord`].  Records carry only
//! deterministic quantities (actions, MLUs, churn) and derive `PartialEq`,
//! so two runs with the same seed and scenario can be compared field by
//! field — the determinism contract of DESIGN.md §4 extended to serving.
//! Wall-clock decision latencies are collected *next to* the records (they
//! are real measurements, not reproducible values) and summarized as
//! percentiles.

use figret_traffic::StreamAnnotation;

/// Which engine produced the candidate configuration of a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// Learned inference (one forward pass of the FIGRET model).
    Model,
    /// Warm-started LP re-solve through the min-MLU template.
    LpWarm,
}

/// Why a decision tick did not deploy its candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldReason {
    /// The predicted regret of keeping the deployed configuration was below
    /// the hysteresis threshold.
    BelowHysteresis,
    /// The sliding-window update budget was exhausted.
    BudgetExhausted,
}

/// What the controller did at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Not enough history yet to form a candidate; the initial
    /// configuration stays deployed.
    Warmup,
    /// A candidate was computed but not deployed.
    Hold(HoldReason),
    /// The candidate was deployed.
    Update,
}

/// A state transition of the degradation-and-recovery ladder
/// (DESIGN.md §9).  Transitions are deterministic events: they are folded
/// into both digests, so a run that degrades, retrains or promotes at a
/// different tick produces a different digest.  Each kind digests as a
/// fixed code (2–5); code 1 belonged to a retired kind and is not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The model failed `patience` consecutive audits; the controller now
    /// serves warm LP re-solves.
    Degraded,
    /// A retraining round produced a fresh challenger (now in shadow mode).
    RetrainStarted,
    /// A challenger won `promotion_patience` consecutive shadow audits and
    /// became the live model.
    Promoted,
    /// A previously promoted model regressed and the controller returned
    /// to the LP.
    Demoted,
}

/// One recovery-ladder transition, stamped with the decision tick it
/// happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Tick index of the decision that caused the transition.
    pub tick: usize,
    /// What happened.
    pub transition: Transition,
}

/// One tick of the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Tick index (0-based, counting decision ticks).
    pub tick: usize,
    /// What the controller did.
    pub action: Action,
    /// Engine that produced the candidate (`None` during warmup).
    pub source: Option<DecisionSource>,
    /// Predicted MLU of the previously deployed configuration on the
    /// forecast demand (`None` during warmup).
    pub predicted_mlu_deployed: Option<f64>,
    /// Predicted MLU of the candidate configuration (`None` during warmup
    /// and whenever no candidate was computed).
    pub predicted_mlu_candidate: Option<f64>,
    /// Upper bound on the candidate's regret, when the controller bounded
    /// it before (or instead of) solving: a fleet tick with more LP bids
    /// than open grants.  A record with a bound and no candidate was
    /// outranked.
    pub regret_bound: Option<f64>,
    /// Realized MLU of the configuration deployed *after* the decision,
    /// evaluated on the demand that actually arrived.
    pub realized_mlu: f64,
    /// Split-ratio churn paid by this tick (0.0 unless the action was
    /// [`Action::Update`]).
    pub churn: f64,
}

/// The full log of a serving run: deterministic records plus measured
/// per-decision latencies.
#[derive(Debug, Clone, Default)]
pub struct ServeLog {
    /// One record per tick, in tick order.
    pub records: Vec<TickRecord>,
    /// Wall-clock seconds spent in the decision phase of each tick
    /// (parallel array to `records`; excluded from determinism checks).
    pub latencies_seconds: Vec<f64>,
    /// Recovery-ladder transitions in tick order (typically sparse).
    /// Deterministic: folded into both digests.
    pub transitions: Vec<TransitionRecord>,
    /// Active stream episodes (storms, flash crowds, step shifts) per tick,
    /// as reported by the demand generator.  Pure scenario description —
    /// what the *environment* did, not what the controller decided — so
    /// annotations are excluded from the digests: a run must digest
    /// identically whether or not its driver recorded them.
    pub annotations: Vec<(usize, StreamAnnotation)>,
}

impl ServeLog {
    /// An empty log.
    pub fn new() -> ServeLog {
        ServeLog::default()
    }

    /// Appends one tick.
    pub fn push(&mut self, record: TickRecord, latency_seconds: f64) {
        self.records.push(record);
        self.latencies_seconds.push(latency_seconds);
    }

    /// Appends one controller tick outcome: the record, its decision
    /// latency, and any recovery transitions the tick produced (stamped
    /// with the record's tick index).
    pub fn record_outcome(&mut self, outcome: &crate::controller::StepOutcome) {
        let tick = outcome.record.tick;
        for &transition in &outcome.transitions {
            self.transitions.push(TransitionRecord { tick, transition });
        }
        self.push(outcome.record.clone(), outcome.decision_seconds);
    }

    /// Attaches a stream annotation to a tick.  Quiet annotations (no
    /// active episode) are dropped, so the vector stays proportional to
    /// the scenario's event count rather than its length.
    pub fn annotate(&mut self, tick: usize, annotation: StreamAnnotation) {
        if !annotation.is_quiet() {
            self.annotations.push((tick, annotation));
        }
    }

    /// Number of logged transitions of a given kind.
    pub fn transition_count(&self, transition: Transition) -> usize {
        self.transitions.iter().filter(|t| t.transition == transition).count()
    }

    /// Number of ticks logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of deployed updates.
    pub fn update_count(&self) -> usize {
        self.records.iter().filter(|r| r.action == Action::Update).count()
    }

    /// Number of holds for a specific reason.
    pub fn hold_count(&self, reason: HoldReason) -> usize {
        self.records.iter().filter(|r| r.action == Action::Hold(reason)).count()
    }

    /// Total split-ratio churn paid over the run.
    pub fn total_churn(&self) -> f64 {
        self.records.iter().map(|r| r.churn).sum()
    }

    /// Realized MLU series in tick order.
    pub fn realized_mlus(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.realized_mlu).collect()
    }

    /// The first tick at which the controller served an LP candidate after
    /// previously serving model candidates (the fallback transition), if any.
    pub fn fallback_tick(&self) -> Option<usize> {
        let mut seen_model = false;
        for r in &self.records {
            match r.source {
                Some(DecisionSource::Model) => seen_model = true,
                Some(DecisionSource::LpWarm) if seen_model => return Some(r.tick),
                _ => {}
            }
        }
        None
    }

    /// The tick of the first [`Transition::Promoted`] at or after the first
    /// degradation ([`Transition::Degraded`] or [`Transition::Demoted`]) —
    /// i.e. when the controller *recovered* learned serving, if it ever
    /// did.  `None` when the run never degraded or never recovered.
    pub fn recovery_tick(&self) -> Option<usize> {
        let degraded_at = self
            .transitions
            .iter()
            .find(|t| matches!(t.transition, Transition::Degraded | Transition::Demoted))?
            .tick;
        self.transitions
            .iter()
            .find(|t| t.transition == Transition::Promoted && t.tick >= degraded_at)
            .map(|t| t.tick)
    }

    /// FNV-1a digest of the deterministic record fields.  Two runs of the
    /// same (seed, scenario, policy) must produce identical digests on any
    /// machine and thread count; CI compares digests across
    /// `RAYON_NUM_THREADS` settings.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.records {
            eat(r.tick as u64);
            eat(Self::action_code(r.action));
            eat(Self::source_code(r.source));
            eat(r.predicted_mlu_deployed.map(f64::to_bits).unwrap_or(0));
            eat(r.predicted_mlu_candidate.map(f64::to_bits).unwrap_or(0));
            // Folded only where present, so a run that never bounds a
            // regret digests as if the field did not exist.
            if let Some(bound) = r.regret_bound {
                eat(bound.to_bits());
            }
            eat(r.realized_mlu.to_bits());
            eat(r.churn.to_bits());
        }
        for t in &self.transitions {
            eat(t.tick as u64);
            eat(Self::transition_code(t.transition));
        }
        h
    }

    /// FNV-1a digest of the controller's *behavior* only: per tick, the
    /// (tick, action, source) triple — which candidates were deployed, held
    /// or audited into fallback, but no floating-point values.
    ///
    /// Policy decisions compare f64 MLU evaluations of whole configurations,
    /// so they are robust to sub-1e-4 perturbations of a model's outputs
    /// (such as the f32 inference plan against the f64 graph it was compiled
    /// from): such a change keeps this digest while the full
    /// [`ServeLog::digest`] moves with the MLU low bits.
    pub fn decision_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.records {
            eat(r.tick as u64);
            eat(Self::action_code(r.action));
            eat(Self::source_code(r.source));
        }
        for t in &self.transitions {
            eat(t.tick as u64);
            eat(Self::transition_code(t.transition));
        }
        h
    }

    fn transition_code(transition: Transition) -> u64 {
        match transition {
            Transition::Degraded => 2,
            Transition::RetrainStarted => 3,
            Transition::Promoted => 4,
            Transition::Demoted => 5,
        }
    }

    fn action_code(action: Action) -> u64 {
        match action {
            Action::Warmup => 0,
            Action::Hold(HoldReason::BelowHysteresis) => 1,
            Action::Hold(HoldReason::BudgetExhausted) => 2,
            Action::Update => 3,
        }
    }

    fn source_code(source: Option<DecisionSource>) -> u64 {
        match source {
            None => 0,
            Some(DecisionSource::Model) => 1,
            Some(DecisionSource::LpWarm) => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tick: usize, action: Action, churn: f64) -> TickRecord {
        TickRecord {
            tick,
            action,
            source: Some(DecisionSource::LpWarm),
            predicted_mlu_deployed: Some(0.5),
            predicted_mlu_candidate: Some(0.4),
            regret_bound: None,
            realized_mlu: 0.45,
            churn,
        }
    }

    #[test]
    fn counters_and_churn() {
        let mut log = ServeLog::new();
        log.push(record(0, Action::Update, 1.5), 1e-4);
        log.push(record(1, Action::Hold(HoldReason::BelowHysteresis), 0.0), 2e-4);
        log.push(record(2, Action::Hold(HoldReason::BudgetExhausted), 0.0), 3e-4);
        log.push(record(3, Action::Update, 0.5), 4e-4);
        assert_eq!(log.len(), 4);
        assert_eq!(log.update_count(), 2);
        assert_eq!(log.hold_count(HoldReason::BudgetExhausted), 1);
        assert!((log.total_churn() - 2.0).abs() < 1e-12);
        assert_eq!(log.realized_mlus().len(), 4);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut a = ServeLog::new();
        a.push(record(0, Action::Update, 1.0), 0.1);
        let mut b = ServeLog::new();
        b.push(record(0, Action::Update, 1.0), 0.9); // latency differs: same digest
        assert_eq!(a.digest(), b.digest());
        let mut c = ServeLog::new();
        c.push(record(0, Action::Update, 1.0 + 1e-15), 0.1);
        assert_ne!(a.digest(), c.digest());
        assert!(ServeLog::new().is_empty());
    }

    #[test]
    fn decision_digest_ignores_floats_but_tracks_actions() {
        let mut a = ServeLog::new();
        a.push(record(0, Action::Update, 1.0), 0.1);
        // Same action/source, different MLU/churn values: same decision
        // digest, different full digest.
        let mut b = ServeLog::new();
        let mut r = record(0, Action::Update, 2.0);
        r.realized_mlu = 0.9;
        b.push(r, 0.1);
        assert_eq!(a.decision_digest(), b.decision_digest());
        assert_ne!(a.digest(), b.digest());
        // A flipped decision changes the decision digest.
        let mut c = ServeLog::new();
        c.push(record(0, Action::Hold(HoldReason::BelowHysteresis), 0.0), 0.1);
        assert_ne!(a.decision_digest(), c.decision_digest());
    }

    #[test]
    fn transitions_change_both_digests_and_locate_recovery() {
        let mut a = ServeLog::new();
        a.push(record(0, Action::Update, 1.0), 0.1);
        let mut b = a.clone();
        assert_eq!(a.recovery_tick(), None);
        b.transitions.push(TransitionRecord { tick: 0, transition: Transition::Degraded });
        b.transitions.push(TransitionRecord { tick: 2, transition: Transition::RetrainStarted });
        b.transitions.push(TransitionRecord { tick: 5, transition: Transition::Promoted });
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.decision_digest(), b.decision_digest());
        assert_eq!(b.transition_count(Transition::RetrainStarted), 1);
        assert_eq!(b.recovery_tick(), Some(5));
        // A promotion *before* any degradation is not a recovery.
        let mut c = ServeLog::new();
        c.transitions.push(TransitionRecord { tick: 1, transition: Transition::Promoted });
        assert_eq!(c.recovery_tick(), None);
        // Demotion re-arms: the next promotion at/after it counts.
        c.transitions.push(TransitionRecord { tick: 3, transition: Transition::Demoted });
        assert_eq!(c.recovery_tick(), None);
        c.transitions.push(TransitionRecord { tick: 8, transition: Transition::Promoted });
        assert_eq!(c.recovery_tick(), Some(8));
    }

    #[test]
    fn annotations_skip_quiet_ticks_and_leave_digests_alone() {
        let mut log = ServeLog::new();
        log.push(record(0, Action::Update, 1.0), 0.1);
        let before = log.digest();
        log.annotate(0, StreamAnnotation::default());
        assert!(log.annotations.is_empty(), "quiet annotations are dropped");
        log.annotate(1, StreamAnnotation { storm_victim: Some(3), ..Default::default() });
        assert_eq!(log.annotations.len(), 1);
        assert_eq!(log.digest(), before, "annotations are scenario description, not behavior");
    }

    #[test]
    fn fallback_tick_finds_the_transition() {
        let mut log = ServeLog::new();
        let mut m = record(0, Action::Update, 0.0);
        m.source = Some(DecisionSource::Model);
        log.push(m.clone(), 0.0);
        assert_eq!(log.fallback_tick(), None);
        let mut lp = record(1, Action::Update, 0.0);
        lp.source = Some(DecisionSource::LpWarm);
        log.push(lp, 0.0);
        assert_eq!(log.fallback_tick(), Some(1));
    }
}
