//! Streaming demand sources: demands as they arrive, not fixed-length arrays.
//!
//! The batch evaluation pipeline materializes a whole trace up front; the
//! online serving subsystem (DESIGN.md §6) instead *pulls* one demand column
//! per tick from a [`SparseDemandStream`] — one value per active pair, the
//! only demand currency of the serving loop.  [`OnlineStream`] is an
//! unbounded seeded generator layering diurnal modulation, slow random-walk
//! drift, flash-crowd episodes and failure-storm episodes (traffic draining
//! away from an ailing node) on top of a gravity base matrix.  Scenarios are
//! not bounded by a pre-generated array length: the stream produces demands
//! for as long as the controller keeps asking.
//!
//! The generator draws from a seeded ChaCha8 stream and consumes randomness
//! in a fixed order, so a (seed, config) pair fully determines the stream —
//! the serving loop's determinism contract (DESIGN.md §4) extends to
//! unbounded scenarios.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use figret_topology::Graph;

use crate::gravity::gravity_matrix;
use crate::sparse::{ActivePairs, SparseDemand};

/// A source of sparse demand columns, one per tick, all aligned to one
/// shared [`ActivePairs`] index — the native interface of the serving loop
/// on ToR-scale fabrics, where a dense matrix per tick would cost `N²`.
pub trait SparseDemandStream {
    /// The pair index every yielded column is aligned to.
    fn active(&self) -> &Arc<ActivePairs>;

    /// The next demand column, or `None` if the stream is exhausted.
    fn next_column(&mut self) -> Option<SparseDemand>;
}

/// Slow per-pair drift: every pair's mean performs a clamped random walk.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Per-tick relative step size of the random walk.
    pub step: f64,
    /// The walk multiplier is clamped to `[1/limit, limit]`.
    pub limit: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { step: 0.004, limit: 3.0 }
    }
}

/// Flash crowds: short episodes during which a few pairs burst far above
/// their mean (the "fine-grained fluctuation" FIGRET hedges against, §3).
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdConfig {
    /// Per-tick probability that a new episode starts.
    pub probability: f64,
    /// Multiplicative magnitude range `[low, high)` of an episode.
    pub magnitude: (f64, f64),
    /// Episode duration range `[low, high)` in ticks.
    pub duration: (usize, usize),
    /// Number of SD pairs recruited per episode.
    pub pairs: usize,
}

impl Default for FlashCrowdConfig {
    fn default() -> Self {
        FlashCrowdConfig { probability: 0.03, magnitude: (2.5, 6.0), duration: (2, 8), pairs: 3 }
    }
}

/// Failure storms: episodes during which the traffic touching one node
/// collapses (a draining service or an upstream device failure), shifting
/// the load distribution abruptly — the demand-side signature of the
/// failure scenarios of §4.5.
#[derive(Debug, Clone, Copy)]
pub struct FailureStormConfig {
    /// Per-tick probability that a storm starts (at most one is active).
    pub probability: f64,
    /// Storm duration range `[low, high)` in ticks.
    pub duration: (usize, usize),
    /// Fraction of the victim node's traffic that drains away (0..=1).
    pub drain: f64,
}

impl Default for FailureStormConfig {
    fn default() -> Self {
        FailureStormConfig { probability: 0.01, duration: (4, 12), drain: 0.85 }
    }
}

/// A deterministic, permanent step change in the demand *distribution* at a
/// known tick: from `at_tick` on, even slots scale by `factor` and odd slots
/// by `1 / factor`.  Total volume stays roughly constant while the shape of
/// the matrix changes abruptly — the sustained distribution shift a model
/// trained on the old shape cannot follow (ISSUE 9's recovery trigger).
/// Applying the shift consumes no randomness, so adding one to a config
/// leaves every other draw of the stream bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepShiftConfig {
    /// First tick (0-based, counting generated columns) the shift applies to.
    pub at_tick: usize,
    /// Multiplicative magnitude of the shift (> 0); even slots scale by
    /// `factor`, odd slots by `1 / factor`.
    pub factor: f64,
}

/// The event state behind one generated column: which episodes were active
/// when it was produced.  Obtained from [`OnlineStream::annotation`] right
/// after pulling a column, and attached to serving logs so recovery
/// behaviour can be correlated with its cause (storms and flash crowds are
/// otherwise invisible in serving output).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamAnnotation {
    /// Node whose traffic is being drained by an active failure storm.
    pub storm_victim: Option<usize>,
    /// Number of flash-crowd episodes active on this column.
    pub active_flashes: usize,
    /// Spread of the random-walk drift multipliers (max/min; 1.0 = no
    /// drift accumulated yet or drift disabled).
    pub drift_spread: f64,
    /// Whether the permanent [`StepShiftConfig`] step change is in effect.
    pub shifted: bool,
}

impl StreamAnnotation {
    /// `true` when nothing noteworthy was active (no storm, no flash
    /// crowds, no step shift) — quiet ticks are usually not worth logging.
    pub fn is_quiet(&self) -> bool {
        self.storm_victim.is_none() && self.active_flashes == 0 && !self.shifted
    }
}

/// Parameters of the unbounded online generator.
#[derive(Debug, Clone)]
pub struct OnlineStreamConfig {
    /// Aggregation interval in seconds (metadata only).
    pub interval_seconds: f64,
    /// Amplitude of the diurnal modulation.
    pub diurnal_amplitude: f64,
    /// Diurnal period in ticks.
    pub diurnal_period: f64,
    /// Per-tick multiplicative noise applied to every pair.
    pub noise: f64,
    /// Slow random-walk drift of per-pair means (`None` disables).
    pub drift: Option<DriftConfig>,
    /// Flash-crowd episode injection (`None` disables).
    pub flash_crowds: Option<FlashCrowdConfig>,
    /// Failure-storm episode injection (`None` disables).
    pub failure_storms: Option<FailureStormConfig>,
    /// Permanent distribution step change (`None` disables).  Consumes no
    /// randomness: configs that differ only here draw identical noise.
    pub shift: Option<StepShiftConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OnlineStreamConfig {
    fn default() -> Self {
        OnlineStreamConfig {
            interval_seconds: 900.0,
            diurnal_amplitude: 0.25,
            diurnal_period: 96.0,
            noise: 0.06,
            drift: Some(DriftConfig::default()),
            flash_crowds: Some(FlashCrowdConfig::default()),
            failure_storms: Some(FailureStormConfig::default()),
            shift: None,
            seed: 31,
        }
    }
}

/// One active flash-crowd episode.
#[derive(Debug, Clone, Copy)]
struct FlashEpisode {
    pair: usize,
    magnitude: f64,
    remaining: usize,
}

/// An unbounded, seeded demand generator; see the module docs.
///
/// Natively columnar: the per-slot base rates live over the all-pairs
/// [`ActivePairs`] index, whose slot order equals the dense row-major pair
/// order (`DemandMatrix::flatten_pairs`), and each tick produces one
/// [`SparseDemand`] column.
#[derive(Debug, Clone)]
pub struct OnlineStream {
    config: OnlineStreamConfig,
    active: Arc<ActivePairs>,
    /// Per-slot base rate, aligned to `active`.
    base: Vec<f64>,
    rng: ChaCha8Rng,
    tick: usize,
    /// Random-walk drift multiplier per slot (all 1.0 when drift is off).
    drift_mult: Vec<f64>,
    flashes: Vec<FlashEpisode>,
    storm: Option<(usize, usize)>, // (victim node, remaining ticks)
}

impl OnlineStream {
    /// Builds a stream whose base matrix is the gravity model of `graph` at
    /// `load_factor` of capacity (the same base the WAN generator uses), over
    /// the all-pairs index.
    pub fn from_graph(graph: &Graph, load_factor: f64, config: OnlineStreamConfig) -> OnlineStream {
        let base = gravity_matrix(graph, load_factor).flatten_pairs();
        let active = Arc::new(ActivePairs::all(graph.num_nodes()));
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5e7e_a11f);
        let num_slots = base.len();
        OnlineStream {
            config,
            active,
            base,
            rng,
            tick: 0,
            drift_mult: vec![1.0; num_slots],
            flashes: Vec::new(),
            storm: None,
        }
    }

    /// Ticks generated so far.
    pub fn ticks(&self) -> usize {
        self.tick
    }

    /// The event state behind the most recently generated column (call right
    /// after [`SparseDemandStream::next_column`]).  Before the first column
    /// it describes the initial quiet state.
    pub fn annotation(&self) -> StreamAnnotation {
        let spread = match self.config.drift {
            None => 1.0,
            Some(_) => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &m in &self.drift_mult {
                    lo = lo.min(m);
                    hi = hi.max(m);
                }
                if lo.is_finite() && lo > 0.0 {
                    hi / lo
                } else {
                    1.0
                }
            }
        };
        StreamAnnotation {
            storm_victim: self.storm.map(|(node, _)| node),
            active_flashes: self.flashes.len(),
            drift_spread: spread,
            // `tick` was already advanced past the generated column, so the
            // column at tick `t = self.tick - 1` was shifted iff
            // `t >= at_tick`.
            shifted: self.config.shift.is_some_and(|s| self.tick > s.at_tick),
        }
    }

    /// Advances the event state one tick.  Randomness is consumed in a fixed
    /// order (drift, then flash crowds, then storms) so the stream is fully
    /// determined by (config, seed).
    fn advance_events(&mut self) {
        if let Some(drift) = self.config.drift {
            for m in &mut self.drift_mult {
                let step = 1.0 + drift.step * self.rng.gen_range(-1.0..1.0);
                *m = (*m * step).clamp(1.0 / drift.limit, drift.limit);
            }
        }
        if let Some(fc) = self.config.flash_crowds {
            self.flashes.retain_mut(|f| {
                f.remaining -= 1;
                f.remaining > 0
            });
            if self.rng.gen::<f64>() < fc.probability {
                for _ in 0..fc.pairs {
                    let pair = self.rng.gen_range(0..self.base.len());
                    let magnitude = self.rng.gen_range(fc.magnitude.0..fc.magnitude.1);
                    let remaining = self.rng.gen_range(fc.duration.0..fc.duration.1).max(1);
                    self.flashes.push(FlashEpisode { pair, magnitude, remaining });
                }
            }
        }
        if let Some(fs) = self.config.failure_storms {
            if let Some((node, remaining)) = self.storm {
                self.storm = if remaining > 1 { Some((node, remaining - 1)) } else { None };
            }
            if self.storm.is_none() && self.rng.gen::<f64>() < fs.probability {
                let node = self.rng.gen_range(0..self.active.num_nodes());
                let duration = self.rng.gen_range(fs.duration.0..fs.duration.1).max(1);
                self.storm = Some((node, duration));
            }
        }
    }
}

impl SparseDemandStream for OnlineStream {
    fn active(&self) -> &Arc<ActivePairs> {
        &self.active
    }

    fn next_column(&mut self) -> Option<SparseDemand> {
        self.advance_events();
        let phase = 2.0 * std::f64::consts::PI * (self.tick as f64) / self.config.diurnal_period;
        let season = 1.0 + self.config.diurnal_amplitude * phase.sin();
        let drain = self.config.failure_storms.map(|fs| fs.drain).unwrap_or(0.0);
        let shift = self.config.shift.filter(|s| self.tick >= s.at_tick);
        let active = Arc::clone(&self.active);
        let mut column = SparseDemand::zeros(Arc::clone(&active));
        for (slot, s, d) in active.iter() {
            let noise = 1.0 + self.config.noise * self.rng.gen_range(-1.0..1.0);
            let mut value = self.base[slot] * season * self.drift_mult[slot] * noise;
            if let Some(sh) = shift {
                value *= if slot % 2 == 0 { sh.factor } else { 1.0 / sh.factor };
            }
            for f in &self.flashes {
                if f.pair == slot {
                    value *= f.magnitude;
                }
            }
            if let Some((victim, _)) = self.storm {
                if s == victim || d == victim {
                    value *= 1.0 - drain;
                }
            }
            column.set_slot(slot, value);
        }
        self.tick += 1;
        Some(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};

    fn geant() -> Graph {
        TopologySpec::full_scale(Topology::Geant).build()
    }

    #[test]
    fn online_stream_is_unbounded_and_deterministic() {
        let g = geant();
        let config = OnlineStreamConfig { seed: 77, ..Default::default() };
        let mut a = OnlineStream::from_graph(&g, 0.25, config.clone());
        let mut b = OnlineStream::from_graph(&g, 0.25, config);
        for _ in 0..40 {
            let ca = a.next_column().unwrap();
            let cb = b.next_column().unwrap();
            assert_eq!(ca, cb);
            assert!(ca.total() > 0.0);
        }
        assert_eq!(a.ticks(), 40);
    }

    #[test]
    fn different_seeds_diverge() {
        let g = geant();
        let mut a = OnlineStream::from_graph(
            &g,
            0.25,
            OnlineStreamConfig { seed: 1, ..Default::default() },
        );
        let mut b = OnlineStream::from_graph(
            &g,
            0.25,
            OnlineStreamConfig { seed: 2, ..Default::default() },
        );
        assert_ne!(a.next_column(), b.next_column());
    }

    #[test]
    fn flash_crowds_create_bursts() {
        let g = geant();
        let config = OnlineStreamConfig {
            noise: 0.0,
            drift: None,
            failure_storms: None,
            flash_crowds: Some(FlashCrowdConfig {
                probability: 0.5,
                magnitude: (4.0, 5.0),
                duration: (1, 3),
                pairs: 2,
            }),
            seed: 5,
            ..Default::default()
        };
        let mut s = OnlineStream::from_graph(&g, 0.25, config);
        let base = gravity_matrix(&g, 0.25).flatten_pairs();
        let mut burst_seen = false;
        for _ in 0..50 {
            let c = s.next_column().unwrap();
            // diurnal swing is at most 1.25x; a 4x burst sticks out.
            burst_seen |= c.values().iter().zip(&base).any(|(v, b)| *b > 0.0 && *v > 3.0 * b);
        }
        assert!(burst_seen, "flash crowds must produce visible bursts");
    }

    #[test]
    fn failure_storms_drain_a_node() {
        let g = geant();
        let config = OnlineStreamConfig {
            noise: 0.0,
            drift: None,
            flash_crowds: None,
            diurnal_amplitude: 0.0,
            failure_storms: Some(FailureStormConfig {
                probability: 1.0,
                duration: (3, 4),
                drain: 1.0,
            }),
            seed: 9,
            ..Default::default()
        };
        let mut s = OnlineStream::from_graph(&g, 0.25, config);
        let c = s.next_column().unwrap();
        // Some node's row and column must be fully drained.
        let n = c.num_nodes();
        let drained =
            (0..n).any(|v| (0..n).all(|o| o == v || (c.get(v, o) == 0.0 && c.get(o, v) == 0.0)));
        assert!(drained, "a storm with drain=1.0 must zero out one node's traffic");
    }

    #[test]
    fn sparse_and_dense_online_streams_agree_bitwise() {
        // The stream runs over the all-pairs index, whose slot order is the
        // dense `flatten_pairs` order: a column and its dense view agree.
        let g = geant();
        let config = OnlineStreamConfig { seed: 123, ..Default::default() };
        let mut stream = OnlineStream::from_graph(&g, 0.25, config);
        assert!(stream.active().is_all());
        for _ in 0..25 {
            let c = stream.next_column().unwrap();
            assert_eq!(c.values(), c.to_matrix().flatten_pairs());
        }
    }

    #[test]
    fn step_shift_changes_the_shape_without_consuming_randomness() {
        let g = geant();
        let base = OnlineStreamConfig { seed: 44, ..Default::default() };
        let shifted = OnlineStreamConfig {
            shift: Some(StepShiftConfig { at_tick: 3, factor: 4.0 }),
            ..base.clone()
        };
        let mut a = OnlineStream::from_graph(&g, 0.25, base);
        let mut b = OnlineStream::from_graph(&g, 0.25, shifted);
        for t in 0..8 {
            let ca = a.next_column().unwrap();
            let cb = b.next_column().unwrap();
            if t < 3 {
                // The shift consumes no RNG: pre-shift columns are
                // bit-identical to the unshifted stream's.
                assert_eq!(ca, cb, "tick {t} must be untouched before the shift");
                assert!(!b.annotation().shifted);
            } else {
                assert_ne!(ca, cb, "tick {t} must be reshaped by the shift");
                assert!(b.annotation().shifted);
                // Even slots scale by 4, odd by 1/4: totals stay comparable
                // while the shape changes (paired slots swap magnitudes).
                let (ta, tb) = (ca.total(), cb.total());
                assert!(tb > 0.5 * ta && tb < 5.0 * ta, "tick {t}: {ta} vs {tb}");
            }
        }
    }

    #[test]
    fn annotation_reports_active_episodes() {
        let g = geant();
        let config = OnlineStreamConfig {
            noise: 0.0,
            drift: None,
            flash_crowds: None,
            failure_storms: Some(FailureStormConfig {
                probability: 1.0,
                duration: (3, 4),
                drain: 0.5,
            }),
            seed: 9,
            ..Default::default()
        };
        let mut s = OnlineStream::from_graph(&g, 0.25, config);
        assert!(s.annotation().is_quiet(), "no episodes before the first column");
        s.next_column().unwrap();
        let ann = s.annotation();
        assert!(ann.storm_victim.is_some(), "a p=1.0 storm must be active");
        assert_eq!(ann.active_flashes, 0);
        assert_eq!(ann.drift_spread, 1.0);
        assert!(!ann.is_quiet());
    }
}
