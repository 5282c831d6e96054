//! Online demand predictors — the one forecast family of the workspace.
//!
//! A predictor *ingests* demands one at a time
//! ([`OnlinePredictor::observe_pairs`]) and can be asked for a forecast at
//! any tick ([`OnlinePredictor::predict_pairs_into`]).  The serving
//! controllers run them tick by tick; the evaluation's LP baselines feed each
//! one a snapshot's history window and take its forecast (Pred TE the
//! [`LastValue`], the desensitization schemes the [`SlidingMax`] peak), so a
//! figure and a served tick forecast with the same code.
//!
//! Predictors operate on **pair columns**: flat `f64` vectors with one slot
//! per active SD pair, in the shared slot order of the serving universe
//! (for a dense universe that is `DemandMatrix::flatten_pairs` order; for a
//! fabric it is the slot order of the stream's
//! [`figret_traffic::ActivePairs`] index).  State is `O(window · nnz)` —
//! predictors never materialize an `N×N` matrix, which is what lets the
//! serving loop scale to multi-thousand-ToR fabrics.  The element-wise
//! update rules are the [`figret_traffic::ops`] kernels.

use std::collections::VecDeque;

use figret_traffic::ops;

/// A stateful one-step-ahead demand forecaster over pair columns.
pub trait OnlinePredictor: Send {
    /// Ingests the demand column realized at the current tick (one value
    /// per active pair, slot order).  Every observation of a predictor's
    /// lifetime must have the same length.
    fn observe_pairs(&mut self, demand: &[f64]);

    /// Writes the forecast column into `out` (same length and slot order as
    /// the observations) and returns `true`, or returns `false` before the
    /// first observation.  The controller's hot path; implementations do
    /// not allocate.
    fn predict_pairs_into(&self, out: &mut [f64]) -> bool;

    /// Display name used in reports.
    fn name(&self) -> &'static str;
}

/// Predicts the last observed demand (the paper's choice for prediction TE).
#[derive(Debug, Default)]
pub struct LastValue {
    last: Option<Vec<f64>>,
}

impl LastValue {
    /// A predictor with no observations yet.
    pub fn new() -> LastValue {
        LastValue { last: None }
    }
}

impl OnlinePredictor for LastValue {
    fn observe_pairs(&mut self, demand: &[f64]) {
        match &mut self.last {
            Some(v) => v.copy_from_slice(demand),
            None => self.last = Some(demand.to_vec()),
        }
    }

    fn predict_pairs_into(&self, out: &mut [f64]) -> bool {
        match &self.last {
            Some(v) => {
                out.copy_from_slice(v);
                true
            }
            None => false,
        }
    }

    fn name(&self) -> &'static str {
        "last-value"
    }
}

/// Exponentially weighted moving average:
/// `state ← (1 − α)·state + α·demand`.
#[derive(Debug)]
pub struct Ewma {
    alpha: f64,
    state: Option<Vec<f64>>,
}

impl Ewma {
    /// An EWMA predictor with smoothing factor `alpha ∈ (0, 1]` (1.0
    /// degenerates to [`LastValue`]).
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA smoothing factor must be in (0, 1]");
        Ewma { alpha, state: None }
    }
}

impl OnlinePredictor for Ewma {
    fn observe_pairs(&mut self, demand: &[f64]) {
        match &mut self.state {
            None => self.state = Some(demand.to_vec()),
            Some(s) => ops::ewma_blend(s, self.alpha, demand),
        }
    }

    fn predict_pairs_into(&self, out: &mut [f64]) -> bool {
        match &self.state {
            Some(s) => {
                out.copy_from_slice(s);
                true
            }
            None => false,
        }
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

/// Element-wise mean of the last `window` observations.
#[derive(Debug)]
pub struct SlidingMean {
    window: usize,
    buffer: VecDeque<Vec<f64>>,
}

impl SlidingMean {
    /// A sliding-mean predictor over `window ≥ 1` observations.
    pub fn new(window: usize) -> SlidingMean {
        assert!(window >= 1, "sliding window must hold at least one observation");
        SlidingMean { window, buffer: VecDeque::new() }
    }
}

impl OnlinePredictor for SlidingMean {
    fn observe_pairs(&mut self, demand: &[f64]) {
        observe_window(&mut self.buffer, self.window, demand);
    }

    fn predict_pairs_into(&self, out: &mut [f64]) -> bool {
        if self.buffer.is_empty() {
            return false;
        }
        // Sum clamped at zero per element, then the scale clamped at zero.
        out.fill(0.0);
        for row in &self.buffer {
            ops::accumulate_clamped(out, row);
        }
        let inv = 1.0 / self.buffer.len() as f64;
        ops::scale_clamped_in_place(out, inv);
        true
    }

    fn name(&self) -> &'static str {
        "sliding-mean"
    }
}

/// Element-wise maximum of the last `window` observations (the peak matrix
/// desensitization-based TE hedges against, formulated online).
#[derive(Debug)]
pub struct SlidingMax {
    window: usize,
    buffer: VecDeque<Vec<f64>>,
}

impl SlidingMax {
    /// A sliding-peak predictor over `window ≥ 1` observations.
    pub fn new(window: usize) -> SlidingMax {
        assert!(window >= 1, "sliding window must hold at least one observation");
        SlidingMax { window, buffer: VecDeque::new() }
    }
}

impl OnlinePredictor for SlidingMax {
    fn observe_pairs(&mut self, demand: &[f64]) {
        observe_window(&mut self.buffer, self.window, demand);
    }

    fn predict_pairs_into(&self, out: &mut [f64]) -> bool {
        let mut it = self.buffer.iter();
        let Some(first) = it.next() else {
            return false;
        };
        out.copy_from_slice(first);
        for row in it {
            ops::max_assign(out, row);
        }
        true
    }

    fn name(&self) -> &'static str {
        "sliding-max"
    }
}

/// Pushes `demand` into a bounded sliding window, recycling the evicted
/// column's allocation once the window is full (the steady state allocates
/// nothing).
fn observe_window(buffer: &mut VecDeque<Vec<f64>>, window: usize, demand: &[f64]) {
    if buffer.len() >= window {
        let mut recycled = buffer.pop_front().expect("window length checked above");
        recycled.copy_from_slice(demand);
        buffer.push_back(recycled);
    } else {
        buffer.push_back(demand.to_vec());
    }
}

/// Predictor selection, buildable from CLI flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// [`LastValue`].
    LastValue,
    /// [`Ewma`] with the given smoothing factor.
    Ewma(f64),
    /// [`SlidingMean`] over the given window.
    SlidingMean(usize),
    /// [`SlidingMax`] over the given window.
    SlidingMax(usize),
}

impl PredictorKind {
    /// Instantiates the predictor.
    pub fn build(&self) -> Box<dyn OnlinePredictor> {
        match *self {
            PredictorKind::LastValue => Box::new(LastValue::new()),
            PredictorKind::Ewma(alpha) => Box::new(Ewma::new(alpha)),
            PredictorKind::SlidingMean(w) => Box::new(SlidingMean::new(w)),
            PredictorKind::SlidingMax(w) => Box::new(SlidingMax::new(w)),
        }
    }

    /// Parses a CLI spelling: `last`, `ewma` / `ewma:0.3`, `mean` /
    /// `mean:8`, `max` / `max:8` (window defaults to `default_window`).
    /// Out-of-range values are errors, not panics in [`Self::build`]: the
    /// EWMA factor must lie in (0, 1] and a window must be at least 1.
    pub fn parse(spec: &str, default_window: usize) -> Result<PredictorKind, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        let window = || {
            let w = match arg {
                Some(a) => a.parse::<usize>().map_err(|_| format!("invalid window '{a}'"))?,
                None => default_window,
            };
            if w == 0 {
                return Err(format!("predictor '{spec}' needs a window of at least 1, got 0"));
            }
            Ok(w)
        };
        match head {
            "last" | "last-value" => Ok(PredictorKind::LastValue),
            "ewma" => {
                let alpha = match arg {
                    Some(a) => {
                        a.parse::<f64>().map_err(|_| format!("invalid EWMA factor '{a}'"))?
                    }
                    None => 0.3,
                };
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(format!("EWMA factor must lie in (0, 1], got {alpha}"));
                }
                Ok(PredictorKind::Ewma(alpha))
            }
            "mean" | "sliding-mean" => Ok(PredictorKind::SlidingMean(window()?)),
            "max" | "sliding-max" | "peak" => Ok(PredictorKind::SlidingMax(window()?)),
            other => Err(format!(
                "unknown predictor '{other}' (expected last | ewma[:a] | mean[:w] | max[:w])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast(p: &dyn OnlinePredictor, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        assert!(p.predict_pairs_into(&mut out));
        out
    }

    #[test]
    fn last_value_tracks_the_latest_observation() {
        let mut p = LastValue::new();
        assert!(!p.predict_pairs_into(&mut [0.0, 0.0]));
        p.observe_pairs(&[1.0, 2.0]);
        p.observe_pairs(&[3.0, 4.0]);
        assert_eq!(forecast(&p, 2), vec![3.0, 4.0]);
    }

    #[test]
    fn ewma_blends_geometrically() {
        let mut p = Ewma::new(0.5);
        p.observe_pairs(&[4.0, 0.0]);
        p.observe_pairs(&[0.0, 8.0]);
        // state = 0.5*[4,0] + 0.5*[0,8] = [2,4]
        assert_eq!(forecast(&p, 2), vec![2.0, 4.0]);
        let mut one = Ewma::new(1.0);
        one.observe_pairs(&[4.0, 0.0]);
        one.observe_pairs(&[0.0, 8.0]);
        assert_eq!(forecast(&one, 2), vec![0.0, 8.0]);
    }

    #[test]
    fn predictors_behave_as_documented() {
        // Six snapshots of a 4-node network's 12 pairs: the last value is
        // the newest column, and the window peak dominates both it and the
        // window mean.
        let history: Vec<Vec<f64>> =
            (0..6).map(|t| (0..12).map(|i| 20.0 + 5.0 * ((t + i) % 3) as f64).collect()).collect();
        let (mut last, mut mean, mut peak) =
            (LastValue::new(), SlidingMean::new(6), SlidingMax::new(6));
        for column in &history {
            last.observe_pairs(column);
            mean.observe_pairs(column);
            peak.observe_pairs(column);
        }
        let (last, mean, peak) = (forecast(&last, 12), forecast(&mean, 12), forecast(&peak, 12));
        assert_eq!(&last, history.last().unwrap());
        for i in 0..12 {
            assert!(peak[i] >= mean[i] - 1e-9);
            assert!(peak[i] >= last[i] - 1e-9);
        }
    }

    #[test]
    fn window_eviction_forgets_old_observations() {
        let mut p = SlidingMax::new(2);
        p.observe_pairs(&[9.0, 0.0]);
        p.observe_pairs(&[1.0, 1.0]);
        p.observe_pairs(&[1.0, 2.0]);
        assert_eq!(forecast(&p, 2), vec![1.0, 2.0]);
    }

    /// The forecast of `kind` after `observed`, written per pair as a plain
    /// loop over the observations (the window of 3 covers the newest three):
    /// the last value, the clamped EWMA blend, the window sum's mean and the
    /// window peak.
    fn plain_loop_forecast(kind: PredictorKind, observed: &[[f64; 2]]) -> Vec<f64> {
        let window = &observed[observed.len().saturating_sub(3)..];
        (0..2)
            .map(|i| match kind {
                PredictorKind::LastValue => observed[observed.len() - 1][i],
                PredictorKind::Ewma(alpha) => {
                    let mut state = observed[0][i];
                    for column in &observed[1..] {
                        state = ((state * (1.0 - alpha)).max(0.0) + alpha * column[i]).max(0.0);
                    }
                    state
                }
                PredictorKind::SlidingMean(_) => {
                    let mut sum = 0.0f64;
                    for column in window {
                        sum = (sum + column[i]).max(0.0);
                    }
                    (sum * (1.0 / window.len() as f64)).max(0.0)
                }
                PredictorKind::SlidingMax(_) => {
                    let mut peak = window[0][i];
                    for column in &window[1..] {
                        peak = peak.max(column[i]);
                    }
                    peak
                }
            })
            .collect()
    }

    #[test]
    fn column_forecasts_are_bit_identical_to_plain_loops() {
        // Each forecast, after every observation, against the plain per-pair
        // loops: the window of 3 evicts the first column from the fourth
        // observation on.
        let history = [[1.0, 10.0], [3.0, 6.0], [2.0, 8.0], [4.0, 2.0], [0.5, 9.0]];
        let kinds = [
            PredictorKind::LastValue,
            PredictorKind::Ewma(0.3),
            PredictorKind::SlidingMean(3),
            PredictorKind::SlidingMax(3),
        ];
        for kind in kinds {
            let mut p = kind.build();
            let mut out = vec![0.0; 2];
            assert!(!p.predict_pairs_into(&mut out), "{}: empty predictor must refuse", p.name());
            for seen in 1..=history.len() {
                p.observe_pairs(&history[seen - 1]);
                assert!(p.predict_pairs_into(&mut out));
                let reference = plain_loop_forecast(kind, &history[..seen]);
                for (a, b) in out.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} after {seen}", p.name());
                }
                // Fed four columns, the window of 3 has evicted the first:
                // the mean and peak of the last three alone.
                if seen == 4 {
                    match kind {
                        PredictorKind::SlidingMean(_) => assert_eq!(out, [3.0, 16.0 / 3.0]),
                        PredictorKind::SlidingMax(_) => assert_eq!(out, [4.0, 8.0]),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn kind_parse_round_trips() {
        assert_eq!(PredictorKind::parse("last", 8).unwrap(), PredictorKind::LastValue);
        assert_eq!(PredictorKind::parse("ewma:0.25", 8).unwrap(), PredictorKind::Ewma(0.25));
        assert_eq!(PredictorKind::parse("mean", 8).unwrap(), PredictorKind::SlidingMean(8));
        assert_eq!(PredictorKind::parse("max:4", 8).unwrap(), PredictorKind::SlidingMax(4));
        assert!(PredictorKind::parse("oracle", 8).is_err());
        assert!(PredictorKind::parse("ewma:x", 8).is_err());
        // Out-of-range values are errors naming the valid range, never a
        // panic in `build`.
        for spec in ["ewma:0", "ewma:1.5", "ewma:nan", "ewma:-0.5"] {
            let err = PredictorKind::parse(spec, 8).unwrap_err();
            assert!(err.contains("(0, 1]"), "{spec}: {err}");
        }
        assert_eq!(PredictorKind::parse("ewma:1", 8).unwrap(), PredictorKind::Ewma(1.0));
        for (spec, default_window) in [("mean:0", 8), ("max:0", 8), ("mean", 0), ("max", 0)] {
            let err = PredictorKind::parse(spec, default_window).unwrap_err();
            assert!(err.contains("at least 1"), "{spec} (default {default_window}): {err}");
        }
        assert_eq!(PredictorKind::parse("last", 0).unwrap(), PredictorKind::LastValue);
        assert_eq!(PredictorKind::Ewma(0.25).build().name(), "ewma");
    }
}
