//! Serving-side telemetry wiring (DESIGN.md §10): pre-registered metric
//! handles for the controller and fleet hot paths.
//!
//! All names are registered once when telemetry is armed
//! ([`crate::ServeController::enable_telemetry`]); every per-tick
//! recording is an index operation on the [`Registry`] — no hashing, no
//! allocation, in keeping with the decision loop's zero-alloc steady
//! state.  Telemetry is strictly out-of-band: nothing recorded here is
//! folded into the decision digests, and a disarmed controller takes no
//! extra `Instant::now()` call on the hot path.

use figret_lp::SolveStats;
use figret_telemetry::{CounterId, GaugeId, HistogramId, Registry};

use crate::log::{Action, HoldReason, Transition};

/// The fleet's five tick phases, in execution order (DESIGN.md §8).
pub const FLEET_PHASES: [&str; 5] = ["scatter", "propose", "admission", "finish", "merge"];

/// Pre-registered metric handles for one [`crate::ServeController`].
#[derive(Debug)]
pub struct ServeTelemetry {
    registry: Registry,
    // Tick outcome counters.
    ticks: CounterId,
    updates: CounterId,
    holds_hysteresis: CounterId,
    holds_budget: CounterId,
    warmups: CounterId,
    candidates_skipped: CounterId,
    candidates_outranked: CounterId,
    // Decision-phase spans.
    decision_seconds: HistogramId,
    predict_seconds: HistogramId,
    candidate_model_seconds: HistogramId,
    candidate_lp_seconds: HistogramId,
    mlu_eval_seconds: HistogramId,
    finish_seconds: HistogramId,
    // LP solver work (per template re-solve).
    lp_solves: CounterId,
    lp_warm_solves: CounterId,
    lp_phase1_pivots: CounterId,
    lp_phase2_pivots: CounterId,
    lp_reinversions: CounterId,
    lp_solve_seconds: HistogramId,
    lp_phase1_seconds: HistogramId,
    lp_phase2_seconds: HistogramId,
    lp_factor_seconds: HistogramId,
    // Recovery ladder.
    transition_degraded: CounterId,
    transition_retrain_started: CounterId,
    transition_promoted: CounterId,
    transition_demoted: CounterId,
    retrains: CounterId,
    retrain_seconds: HistogramId,
    shadow_wins: CounterId,
    shadow_losses: CounterId,
    shadow_audit_seconds: HistogramId,
    cusum_level: GaugeId,
}

impl ServeTelemetry {
    /// Registers the full serving metric taxonomy.
    pub fn new() -> ServeTelemetry {
        let mut r = Registry::new();
        ServeTelemetry {
            ticks: r.counter("figret_serve_ticks_total"),
            updates: r.counter("figret_serve_updates_total"),
            holds_hysteresis: r.counter("figret_serve_holds_total{reason=\"hysteresis\"}"),
            holds_budget: r.counter("figret_serve_holds_total{reason=\"budget\"}"),
            warmups: r.counter("figret_serve_warmup_ticks_total"),
            candidates_skipped: r.counter("figret_serve_candidates_skipped_total"),
            candidates_outranked: r.counter("figret_serve_candidates_outranked_total"),
            decision_seconds: r.histogram("figret_serve_decision_seconds"),
            predict_seconds: r.histogram("figret_serve_predict_seconds"),
            candidate_model_seconds: r
                .histogram("figret_serve_candidate_seconds{engine=\"model\"}"),
            candidate_lp_seconds: r.histogram("figret_serve_candidate_seconds{engine=\"lp\"}"),
            mlu_eval_seconds: r.histogram("figret_serve_mlu_eval_seconds"),
            finish_seconds: r.histogram("figret_serve_finish_seconds"),
            lp_solves: r.counter("figret_lp_solves_total"),
            lp_warm_solves: r.counter("figret_lp_warm_solves_total"),
            lp_phase1_pivots: r.counter("figret_lp_phase1_pivots_total"),
            lp_phase2_pivots: r.counter("figret_lp_phase2_pivots_total"),
            lp_reinversions: r.counter("figret_lp_reinversions_total"),
            lp_solve_seconds: r.histogram("figret_lp_solve_seconds"),
            lp_phase1_seconds: r.histogram("figret_lp_phase1_seconds"),
            lp_phase2_seconds: r.histogram("figret_lp_phase2_seconds"),
            lp_factor_seconds: r.histogram("figret_lp_factor_seconds"),
            transition_degraded: r.counter("figret_recovery_transitions_total{kind=\"degraded\"}"),
            transition_retrain_started: r
                .counter("figret_recovery_transitions_total{kind=\"retrain_started\"}"),
            transition_promoted: r.counter("figret_recovery_transitions_total{kind=\"promoted\"}"),
            transition_demoted: r.counter("figret_recovery_transitions_total{kind=\"demoted\"}"),
            retrains: r.counter("figret_recovery_retrains_total"),
            retrain_seconds: r.histogram("figret_recovery_retrain_seconds"),
            shadow_wins: r.counter("figret_recovery_shadow_audits_total{result=\"win\"}"),
            shadow_losses: r.counter("figret_recovery_shadow_audits_total{result=\"loss\"}"),
            shadow_audit_seconds: r.histogram("figret_recovery_shadow_audit_seconds"),
            cusum_level: r.gauge("figret_recovery_cusum_level"),
            registry: r,
        }
    }

    /// The backing registry (for snapshots, sinks and merging).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records the predictor span of a propose phase.
    pub fn on_predict(&mut self, seconds: f64) {
        self.registry.observe(self.predict_seconds, seconds);
    }

    /// Records the candidate-computation span, attributed to the engine
    /// that produced it (the LP sub-span is additionally broken out by
    /// [`ServeTelemetry::on_lp_solve`]).
    pub fn on_candidate(&mut self, source: crate::log::DecisionSource, seconds: f64) {
        let id = match source {
            crate::log::DecisionSource::Model => self.candidate_model_seconds,
            crate::log::DecisionSource::LpWarm => self.candidate_lp_seconds,
        };
        self.registry.observe(id, seconds);
    }

    /// Counts a propose phase that computed no candidate because no grant
    /// was open (it records no candidate and no LP-solve span).
    pub fn on_candidate_skipped(&mut self) {
        self.registry.inc(self.candidates_skipped);
    }

    /// Counts a tick whose LP candidate was bounded but never solved: the
    /// fleet's solve waves left the bid outranked.
    pub fn on_candidate_outranked(&mut self) {
        self.registry.inc(self.candidates_outranked);
    }

    /// Records the predicted-MLU evaluation span of a propose phase.
    pub fn on_mlu_eval(&mut self, seconds: f64) {
        self.registry.observe(self.mlu_eval_seconds, seconds);
    }

    /// Records one finished tick: the action outcome, the measured decision
    /// latency (decided ticks only) and any ladder transitions it produced.
    pub fn on_tick(
        &mut self,
        action: Action,
        decision_seconds: f64,
        decided: bool,
        transitions: &[Transition],
    ) {
        self.registry.inc(self.ticks);
        let counter = match action {
            Action::Warmup => self.warmups,
            Action::Hold(HoldReason::BelowHysteresis) => self.holds_hysteresis,
            Action::Hold(HoldReason::BudgetExhausted) => self.holds_budget,
            Action::Update => self.updates,
        };
        self.registry.inc(counter);
        if decided {
            self.registry.observe(self.decision_seconds, decision_seconds);
        }
        for &t in transitions {
            let counter = match t {
                Transition::Degraded => self.transition_degraded,
                Transition::RetrainStarted => self.transition_retrain_started,
                Transition::Promoted => self.transition_promoted,
                Transition::Demoted => self.transition_demoted,
            };
            self.registry.inc(counter);
        }
    }

    /// Records the apply/ingest span of a finish phase.
    pub fn on_finish(&mut self, seconds: f64) {
        self.registry.observe(self.finish_seconds, seconds);
    }

    /// Records one LP template re-solve: the measured wall time plus the
    /// solver's own counters and phase spans.
    pub fn on_lp_solve(&mut self, stats: &SolveStats, seconds: f64) {
        self.registry.inc(self.lp_solves);
        if stats.warm_started {
            self.registry.inc(self.lp_warm_solves);
        }
        self.registry.add(self.lp_phase1_pivots, stats.phase1_iterations as u64);
        self.registry.add(self.lp_phase2_pivots, stats.phase2_iterations as u64);
        self.registry.add(self.lp_reinversions, stats.refactorizations as u64);
        self.registry.observe(self.lp_solve_seconds, seconds);
        self.registry.observe(self.lp_phase1_seconds, stats.phase1_seconds);
        self.registry.observe(self.lp_phase2_seconds, stats.phase2_seconds);
        self.registry.observe(self.lp_factor_seconds, stats.factor_seconds);
    }

    /// Records one challenger retraining round.
    pub fn on_retrain(&mut self, seconds: f64) {
        self.registry.inc(self.retrains);
        self.registry.observe(self.retrain_seconds, seconds);
    }

    /// Records one shadow audit (challenger vs. warm LP).
    pub fn on_shadow_audit(&mut self, won: bool, seconds: f64) {
        self.registry.inc(if won { self.shadow_wins } else { self.shadow_losses });
        self.registry.observe(self.shadow_audit_seconds, seconds);
    }

    /// Publishes the CUSUM drift statistic after an error observation.
    pub fn set_cusum_level(&mut self, level: f64) {
        self.registry.set(self.cusum_level, level);
    }
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        ServeTelemetry::new()
    }
}

/// Pre-registered metric handles for one [`crate::FleetController`]: the
/// five tick-phase spans plus the fleet tick counter.  Shard controllers
/// carry their own [`ServeTelemetry`]; a snapshot merges them in stable
/// shard order.
#[derive(Debug)]
pub struct FleetTelemetry {
    registry: Registry,
    ticks: CounterId,
    phases: [HistogramId; 5],
}

impl FleetTelemetry {
    /// Registers the fleet metric taxonomy.
    pub fn new() -> FleetTelemetry {
        let mut r = Registry::new();
        let ticks = r.counter("figret_fleet_ticks_total");
        let phases = FLEET_PHASES
            .map(|phase| r.histogram(&format!("figret_fleet_phase_seconds{{phase=\"{phase}\"}}")));
        FleetTelemetry { registry: r, ticks, phases }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one phase span; `phase` indexes [`FLEET_PHASES`].
    pub fn on_phase(&mut self, phase: usize, seconds: f64) {
        self.registry.observe(self.phases[phase], seconds);
    }

    /// Counts one fleet tick.
    pub fn on_tick(&mut self) {
        self.registry.inc(self.ticks);
    }
}

impl Default for FleetTelemetry {
    fn default() -> Self {
        FleetTelemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_taxonomy_registers_and_records() {
        let mut t = ServeTelemetry::new();
        t.on_predict(1e-6);
        t.on_candidate(crate::log::DecisionSource::Model, 2e-6);
        t.on_candidate(crate::log::DecisionSource::LpWarm, 4e-5);
        t.on_candidate_skipped();
        t.on_mlu_eval(3e-6);
        t.on_tick(Action::Update, 1e-5, true, &[Transition::Degraded]);
        t.on_tick(Action::Warmup, 0.0, false, &[]);
        t.on_lp_solve(&SolveStats { warm_started: true, ..Default::default() }, 5e-5);
        t.on_retrain(0.2);
        t.on_shadow_audit(true, 1e-4);
        t.set_cusum_level(0.125);
        let r = t.registry();
        assert_eq!(r.counter_by_name("figret_serve_ticks_total"), Some(2));
        assert_eq!(r.counter_by_name("figret_serve_updates_total"), Some(1));
        assert_eq!(r.counter_by_name("figret_serve_warmup_ticks_total"), Some(1));
        assert_eq!(r.counter_by_name("figret_serve_candidates_skipped_total"), Some(1));
        assert_eq!(r.counter_by_name("figret_lp_warm_solves_total"), Some(1));
        assert_eq!(
            r.counter_by_name("figret_recovery_transitions_total{kind=\"degraded\"}"),
            Some(1)
        );
        assert_eq!(r.gauge_by_name("figret_recovery_cusum_level"), Some(0.125));
        assert_eq!(r.histogram_by_name("figret_serve_decision_seconds").unwrap().count(), 1);
        // Warmup ticks do not pollute the decision latency histogram.
        let text = figret_telemetry::exposition(r);
        figret_telemetry::lint_exposition(&text).expect("serve taxonomy lints clean");
    }

    #[test]
    fn fleet_taxonomy_covers_every_phase() {
        let mut t = FleetTelemetry::new();
        t.on_tick();
        for phase in 0..FLEET_PHASES.len() {
            t.on_phase(phase, 1e-4);
        }
        for phase in FLEET_PHASES {
            let name = format!("figret_fleet_phase_seconds{{phase=\"{phase}\"}}");
            assert_eq!(t.registry().histogram_by_name(&name).unwrap().count(), 1, "{phase}");
        }
        let text = figret_telemetry::exposition(t.registry());
        figret_telemetry::lint_exposition(&text).expect("fleet taxonomy lints clean");
    }
}
