//! Online demand predictors.
//!
//! A batch predictor ([`figret_solvers::Predictor`]) is handed a complete
//! history window per call; an online predictor instead *ingests* demands
//! one at a time ([`OnlinePredictor::observe_pairs`]) and can be asked for
//! a forecast at any tick ([`OnlinePredictor::predict_pairs_into`]).
//!
//! Predictors operate on **pair columns**: flat `f64` vectors with one slot
//! per active SD pair, in the shared slot order of the serving universe
//! (for a dense universe that is `DemandMatrix::flatten_pairs` order; for a
//! fabric it is the slot order of the stream's
//! [`figret_traffic::ActivePairs`] index).  State is `O(window · nnz)` —
//! predictors never materialize an `N×N` matrix, which is what lets the
//! serving loop scale to multi-thousand-ToR fabrics.  The element-wise
//! update rules go through the same [`figret_traffic::ops`] kernels the
//! dense [`figret_traffic::DemandMatrix`] uses, so forecasts are
//! bit-identical to the historical matrix-based formulation on a dense
//! universe.  The sliding-window variants reproduce the batch predictors
//! exactly over the same window; EWMA has no batch counterpart (its state
//! is unbounded history with geometric decay — only an online formulation
//! makes sense).

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
            // The same kernel `DemandMatrix::ewma_blend` uses — bit-identical
            // to the historical matrix-based state.
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

/// Element-wise mean of the last `window` observations (the batch
/// [`figret_solvers::Predictor::WindowMean`], formulated online).
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
        // Sum clamped at zero per element, then the scale clamped at zero —
        // the fold `axpy(1.0, ·)` + `scaled(1/len)` performs.
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
    pub fn parse(spec: &str, default_window: usize) -> Result<PredictorKind, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
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
                Ok(PredictorKind::Ewma(alpha))
            }
            "mean" | "sliding-mean" => {
                let w = match arg {
                    Some(a) => a.parse::<usize>().map_err(|_| format!("invalid window '{a}'"))?,
                    None => default_window,
                };
                Ok(PredictorKind::SlidingMean(w))
            }
            "max" | "sliding-max" | "peak" => {
                let w = match arg {
                    Some(a) => a.parse::<usize>().map_err(|_| format!("invalid window '{a}'"))?,
                    None => default_window,
                };
                Ok(PredictorKind::SlidingMax(w))
            }
            other => Err(format!(
                "unknown predictor '{other}' (expected last | ewma[:a] | mean[:w] | max[:w])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_traffic::DemandMatrix;

    fn dm(pairs: &[f64]) -> DemandMatrix {
        DemandMatrix::from_pairs(2, pairs).unwrap()
    }

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
    fn sliding_predictors_match_their_batch_counterparts() {
        use figret_solvers::{predict, Predictor};
        let history = vec![dm(&[1.0, 10.0]), dm(&[3.0, 6.0]), dm(&[2.0, 8.0]), dm(&[4.0, 2.0])];
        let mut mean = SlidingMean::new(3);
        let mut max = SlidingMax::new(3);
        for m in &history {
            mean.observe_pairs(&m.flatten_pairs());
            max.observe_pairs(&m.flatten_pairs());
        }
        let tail = &history[1..];
        assert_eq!(forecast(&mean, 2), predict(tail, Predictor::WindowMean).flatten_pairs());
        assert_eq!(forecast(&max, 2), predict(tail, Predictor::WindowPeak).flatten_pairs());
    }

    #[test]
    fn window_eviction_forgets_old_observations() {
        let mut p = SlidingMax::new(2);
        p.observe_pairs(&[9.0, 0.0]);
        p.observe_pairs(&[1.0, 1.0]);
        p.observe_pairs(&[1.0, 2.0]);
        assert_eq!(forecast(&p, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn column_forecasts_are_bit_identical_to_the_matrix_formulation() {
        // The historical predictors held DemandMatrix state and flattened on
        // prediction; the columnar reimplementation must reproduce those
        // forecasts bit for bit on a dense universe.
        let history = vec![dm(&[1.0, 10.0]), dm(&[3.0, 6.0]), dm(&[2.0, 8.0]), dm(&[4.0, 2.0])];
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
            // Matrix-state reference: fold with DemandMatrix ops, flatten last.
            let mut ewma_state: Option<DemandMatrix> = None;
            let mut window: VecDeque<DemandMatrix> = VecDeque::new();
            for m in &history {
                p.observe_pairs(&m.flatten_pairs());
                assert!(p.predict_pairs_into(&mut out));
                match &mut ewma_state {
                    Some(s) => s.ewma_blend(0.3, m),
                    None => ewma_state = Some(m.clone()),
                }
                window.push_back(m.clone());
                if window.len() > 3 {
                    window.pop_front();
                }
                let reference = match kind {
                    PredictorKind::LastValue => m.flatten_pairs(),
                    PredictorKind::Ewma(_) => {
                        ewma_state.as_ref().expect("state set above").flatten_pairs()
                    }
                    PredictorKind::SlidingMean(_) => {
                        let mut acc = DemandMatrix::zeros(2);
                        for w in &window {
                            acc = acc.axpy(1.0, w);
                        }
                        acc.scaled(1.0 / window.len() as f64).flatten_pairs()
                    }
                    PredictorKind::SlidingMax(_) => {
                        let mut it = window.iter();
                        let mut acc = it.next().expect("window is non-empty").clone();
                        for w in it {
                            acc = acc.element_max(w);
                        }
                        acc.flatten_pairs()
                    }
                };
                for (a, b) in out.iter().zip(&reference) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}: column forecast must be bit-identical",
                        p.name()
                    );
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
        assert_eq!(PredictorKind::Ewma(0.25).build().name(), "ewma");
    }
}
