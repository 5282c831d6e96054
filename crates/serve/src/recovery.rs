//! Drift detection and online retraining: the self-healing half of the
//! serving loop (DESIGN.md §9).
//!
//! PR 5's safety valve made degradation *terminal*: once the audit tripped,
//! the controller served warm LP re-solves forever, forfeiting the
//! 100–1000× model-vs-LP decision speedup after a single drift episode.
//! The recovery subsystem closes the loop with three deterministic pieces:
//!
//! 1. **[`CusumDetector`]** — a one-sided CUSUM on the relative
//!    predicted-vs-realized MLU error.  Transient bursts add little to the
//!    cumulative sum (the per-tick `slack` absorbs them and hysteresis rides
//!    them out); a sustained distribution shift accumulates past
//!    `threshold` and flags drift *before* the model-vs-LP audit would.
//! 2. **[`RecoveryManager`]** — owns a sliding window of observed demand
//!    columns (the same columnar shape the controller's history buffer
//!    uses) and, while the controller is degraded, periodically trains a
//!    *challenger* model on it via [`figret::FigretModel::train`].
//!    Retraining is keyed to the tick counter, never wall clock, so the
//!    whole ladder is bit-deterministic per seed at any thread count.
//! 3. **[`crate::ShadowModel`]** — the challenger serves in shadow mode:
//!    audited tick-by-tick against the warm LP reference and promoted only
//!    after `promotion_patience` consecutive wins (see
//!    [`crate::ServeController`]).
//!
//! The degradation ladder is model → warm LP → (retrain, shadow-audit,
//! promote) → model, with demotion and re-entry on regression; every model
//! on it serves through its compiled inference plan.

use std::collections::VecDeque;
use std::time::Instant;

use figret::{FigretConfig, FigretModel};
use figret_te::PathSet;
use figret_traffic::WindowDataset;

use crate::shadow::ShadowModel;

/// Parameters of the one-sided CUSUM drift detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumConfig {
    /// Per-tick allowance subtracted from the relative forecast error
    /// before accumulation: errors below `slack` are treated as in-band
    /// noise and drain the statistic back toward zero.
    pub slack: f64,
    /// Cumulative excess error at which the detector fires.
    pub threshold: f64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        // ~6 consecutive ticks of 16% relative error (or fewer, larger
        // excursions) trip the detector; isolated bursts drain away.
        CusumConfig { slack: 0.08, threshold: 0.5 }
    }
}

/// One-sided CUSUM statistic: `s ← max(0, s + (error − slack))`, firing
/// when `s` exceeds the configured threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CusumDetector {
    sum: f64,
}

impl CusumDetector {
    /// Feeds one relative forecast error; returns `true` when the
    /// accumulated excess crosses the threshold (the caller decides whether
    /// to reset or keep accumulating).
    pub fn observe(&mut self, config: &CusumConfig, error: f64) -> bool {
        self.sum = (self.sum + (error - config.slack)).max(0.0);
        self.sum > config.threshold
    }

    /// Resets the statistic to zero (after acting on a trip).
    pub fn reset(&mut self) {
        self.sum = 0.0;
    }

    /// The current cumulative excess error.
    pub fn level(&self) -> f64 {
        self.sum
    }
}

/// Configuration of the degradation-and-recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Observed demand columns kept for retraining (the challenger's
    /// training set is the most recent `retrain_window` columns).
    pub retrain_window: usize,
    /// While degraded, (re)train a challenger every `retrain_every` ticks
    /// (keyed to the controller's tick counter, so the schedule is
    /// deterministic).  Must be ≥ 1.
    pub retrain_every: usize,
    /// Consecutive shadow-audit wins required before a challenger is
    /// promoted back to live serving.
    pub promotion_patience: usize,
    /// A shadow audit counts as a win when the challenger's predicted MLU
    /// is at most `promotion_margin ×` the warm LP candidate's.
    pub promotion_margin: f64,
    /// Epochs of mini-batch SGD per retraining round (the challenger's
    /// `FigretConfig::epochs` override).
    pub retrain_epochs: usize,
    /// Drift detector parameters.
    pub detector: CusumConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retrain_window: 32,
            retrain_every: 8,
            promotion_patience: 3,
            promotion_margin: 1.05,
            retrain_epochs: 6,
            detector: CusumConfig::default(),
        }
    }
}

/// Deterministic counters plus measured retraining cost over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Challenger training rounds completed.
    pub retrains: usize,
    /// Wall-clock seconds spent retraining (a measurement, like decision
    /// latencies — excluded from determinism checks).
    pub retrain_seconds: f64,
    /// Training samples consumed across all rounds.
    pub retrain_samples: usize,
    /// Challengers promoted to live serving.
    pub promotions: usize,
    /// Live models demoted back to the LP (regressions after a promotion).
    pub demotions: usize,
    /// CUSUM detector trips observed.
    pub detector_trips: usize,
}

/// The controller-side recovery state: the sliding training window, the
/// drift detector, and the current challenger (if any).  Owned by a
/// [`crate::ServeController`] when recovery is enabled; see the module docs
/// for the state machine.
#[derive(Debug)]
pub struct RecoveryManager {
    config: RecoveryConfig,
    /// Most recent observed demand columns, oldest first, capped at
    /// `retrain_window`.
    buffer: VecDeque<Vec<f64>>,
    detector: CusumDetector,
    /// Set when the detector fires; consumed by the controller's next
    /// decision via [`RecoveryManager::take_drift_flag`].
    drift_flagged: bool,
    shadow: Option<ShadowModel>,
    /// Challenger generations spawned so far (seeds each retraining round
    /// distinctly and deterministically).
    generation: u64,
    stats: RecoveryStats,
}

impl RecoveryManager {
    /// A recovery manager with an empty training window.
    pub fn new(config: RecoveryConfig) -> RecoveryManager {
        assert!(config.retrain_every >= 1, "the retrain cadence must be at least one tick");
        assert!(config.promotion_patience >= 1, "promotion requires at least one audit win");
        RecoveryManager {
            config,
            buffer: VecDeque::with_capacity(config.retrain_window + 1),
            detector: CusumDetector::default(),
            drift_flagged: false,
            shadow: None,
            generation: 0,
            stats: RecoveryStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Appends one observed demand column to the sliding training window.
    pub fn ingest(&mut self, demand: &[f64]) {
        if self.buffer.len() >= self.config.retrain_window {
            let mut recycled = self.buffer.pop_front().expect("capacity checked above");
            recycled.clear();
            recycled.extend_from_slice(demand);
            self.buffer.push_back(recycled);
        } else {
            self.buffer.push_back(demand.to_vec());
        }
    }

    /// Feeds one relative forecast error to the drift detector; latches the
    /// drift flag (and counts the trip) when it fires, then resets the
    /// statistic so the next episode accumulates from zero.
    pub fn observe_error(&mut self, error: f64) {
        if self.detector.observe(&self.config.detector, error) {
            self.detector.reset();
            self.stats.detector_trips += 1;
            self.drift_flagged = true;
        }
    }

    /// The drift detector's current CUSUM statistic (0 right after a trip
    /// or reset) — exported as a telemetry gauge.
    pub fn detector_level(&self) -> f64 {
        self.detector.level()
    }

    /// Consumes the latched drift flag.
    pub fn take_drift_flag(&mut self) -> bool {
        std::mem::take(&mut self.drift_flagged)
    }

    /// Resets the drift detector (on a state transition, so stale
    /// accumulation cannot carry across regimes).
    pub fn reset_detector(&mut self) {
        self.detector.reset();
        self.drift_flagged = false;
    }

    /// Whether tick `tick` is a scheduled retraining tick.  Keyed to the
    /// deterministic tick counter — never wall clock.
    pub fn should_retrain(&self, tick: usize) -> bool {
        tick.is_multiple_of(self.config.retrain_every)
    }

    /// Trains a fresh challenger on the buffered window and installs it as
    /// the shadow model.  Returns `false` without training when the window
    /// has no full (history, target) sample yet, or when the current
    /// challenger is mid-streak (wins > 0): replacing a winning challenger
    /// would restart its promotion count and could starve promotion forever
    /// when `retrain_every < promotion_patience`.
    ///
    /// The challenger's seed mixes the incumbent seed with the generation
    /// counter, so every round trains a distinct but reproducible model.
    pub fn retrain(&mut self, paths: &PathSet, incumbent: &FigretConfig) -> bool {
        if self.shadow.as_ref().is_some_and(|s| s.wins() > 0) {
            return false;
        }
        let columns: Vec<Vec<f64>> = self.buffer.iter().cloned().collect();
        let dataset = WindowDataset::from_columns(incumbent.history_window, columns);
        if dataset.is_empty() {
            return false;
        }
        let start = Instant::now();
        self.generation += 1;
        let config = FigretConfig {
            epochs: self.config.retrain_epochs,
            seed: incumbent.seed
                ^ 0xc4a1_1e4e
                ^ self.generation.wrapping_mul(0x9e37_79b9_97f4_a7c5),
            ..incumbent.clone()
        };
        let variances = dataset.per_slot_variance();
        let mut challenger = FigretModel::new(paths, &variances, config);
        let report = challenger.train(&dataset);
        self.stats.retrains += 1;
        self.stats.retrain_samples += report.samples_per_epoch * report.epochs.len();
        self.stats.retrain_seconds += start.elapsed().as_secs_f64();
        self.shadow = Some(ShadowModel::new(challenger, self.generation));
        true
    }

    /// The current challenger, if any.
    pub fn shadow(&self) -> Option<&ShadowModel> {
        self.shadow.as_ref()
    }

    /// Mutable access to the current challenger (shadow audits mutate its
    /// win streak and run its forward pass).
    pub fn shadow_mut(&mut self) -> Option<&mut ShadowModel> {
        self.shadow.as_mut()
    }

    /// Removes and returns the challenger (for promotion).
    pub fn take_shadow(&mut self) -> Option<ShadowModel> {
        self.shadow.take()
    }

    /// Records a promotion.
    pub fn note_promotion(&mut self) {
        self.stats.promotions += 1;
    }

    /// Records a demotion.
    pub fn note_demotion(&mut self) {
        self.stats.demotions += 1;
    }

    /// Columns currently buffered for retraining.
    pub fn buffered_columns(&self) -> usize {
        self.buffer.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};

    #[test]
    fn cusum_rides_out_bursts_but_fires_on_sustained_shift() {
        let config = CusumConfig::default();
        let mut d = CusumDetector::default();
        // A single large burst followed by quiet ticks drains away.
        assert!(!d.observe(&config, 0.4));
        for _ in 0..8 {
            assert!(!d.observe(&config, 0.01));
        }
        assert_eq!(d.level(), 0.0);
        // A sustained 18% error accumulates 0.1 excess per tick and fires
        // on the 6th.
        let mut fired_at = None;
        for t in 0..10 {
            if d.observe(&config, 0.18) {
                fired_at = Some(t);
                break;
            }
        }
        assert_eq!(fired_at, Some(5));
        d.reset();
        assert_eq!(d.level(), 0.0);
    }

    #[test]
    fn manager_latches_trips_and_schedules_deterministically() {
        let mut m = RecoveryManager::new(RecoveryConfig {
            retrain_every: 4,
            detector: CusumConfig { slack: 0.0, threshold: 0.1 },
            ..Default::default()
        });
        assert!(!m.take_drift_flag());
        m.observe_error(0.2);
        assert_eq!(m.stats().detector_trips, 1);
        assert!(m.take_drift_flag(), "the trip must latch until consumed");
        assert!(!m.take_drift_flag(), "take consumes the flag");
        assert!(m.should_retrain(0));
        assert!(!m.should_retrain(3));
        assert!(m.should_retrain(8));
    }

    #[test]
    fn buffer_is_capped_at_the_retrain_window() {
        let mut m =
            RecoveryManager::new(RecoveryConfig { retrain_window: 3, ..Default::default() });
        for i in 0..5 {
            m.ingest(&[i as f64]);
        }
        assert_eq!(m.buffered_columns(), 3);
    }

    #[test]
    fn retrain_needs_a_full_sample_and_trains_distinct_generations() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let incumbent =
            figret::FigretConfig { history_window: 2, ..figret::FigretConfig::fast_test() };
        let mut m =
            RecoveryManager::new(RecoveryConfig { retrain_epochs: 1, ..Default::default() });
        // Too few columns: 2 columns with H=2 yields zero samples.
        m.ingest(&vec![1.0; ps.num_pairs()]);
        m.ingest(&vec![2.0; ps.num_pairs()]);
        assert!(!m.retrain(&ps, &incumbent));
        assert!(m.shadow().is_none());
        m.ingest(&vec![3.0; ps.num_pairs()]);
        assert!(m.retrain(&ps, &incumbent));
        let first_gen = m.shadow().unwrap().generation();
        assert_eq!(first_gen, 1);
        assert_eq!(m.stats().retrains, 1);
        assert!(m.stats().retrain_seconds > 0.0);
        // A challenger with no wins is replaced by the next round...
        assert!(m.retrain(&ps, &incumbent));
        assert_eq!(m.shadow().unwrap().generation(), 2);
        // ...but a winning challenger is left to finish its streak.
        m.shadow_mut().unwrap().record_audit(true);
        assert!(!m.retrain(&ps, &incumbent));
        assert_eq!(m.shadow().unwrap().generation(), 2);
    }
}
