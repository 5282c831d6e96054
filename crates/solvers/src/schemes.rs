//! LP/iterative-based TE baselines of §5.1:
//!
//! * **Omniscient TE** — optimal MLU with perfect knowledge of the upcoming
//!   demand (the normalizer of every quality figure);
//! * **Demand-prediction-based TE** — predict the next demand from the history
//!   window (last snapshot or window mean) and optimize for the prediction;
//! * **Desensitization-based TE** — Google Jupiter's hedging: optimize for the
//!   element-wise *peak* matrix of the window under a uniform path-sensitivity
//!   cap; the fault-aware variant additionally knows which links will fail;
//! * **Heuristic fine-grained TE** (Appendix C) — the same scheme but with a
//!   per-pair sensitivity bound derived from the traffic-variance ordering via
//!   a linear or piecewise function.

use figret_te::{available_paths, PathSet, TeConfig};
use figret_topology::FailureScenario;
use figret_traffic::DemandMatrix;

use crate::engine::{normalized_bound_to_absolute, solve_min_mlu, MluProblem, SolveError};

/// How demand-prediction-based TE forecasts the next demand matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// Use the most recent snapshot unchanged (the paper's choice for TEAL and
    /// the default for prediction-based TE).
    LastSnapshot,
    /// Use the element-wise mean of the history window.
    WindowMean,
    /// Use the element-wise maximum of the history window (the "anticipated
    /// matrix composed of peak values" used by desensitization-based TE).
    WindowPeak,
}

/// Applies a predictor to a history window (most recent matrix last).
pub fn predict(history: &[DemandMatrix], predictor: Predictor) -> DemandMatrix {
    assert!(!history.is_empty(), "the history window must not be empty");
    match predictor {
        Predictor::LastSnapshot => history.last().expect("non-empty").clone(),
        Predictor::WindowMean => {
            let n = history[0].num_nodes();
            let mut acc = DemandMatrix::zeros(n);
            for m in history {
                acc = acc.axpy(1.0, m);
            }
            acc.scaled(1.0 / history.len() as f64)
        }
        Predictor::WindowPeak => {
            let mut acc = history[0].clone();
            for m in &history[1..] {
                acc = acc.element_max(m);
            }
            acc
        }
    }
}

/// Omniscient TE: optimize directly for the realized demand.
pub fn omniscient_config(paths: &PathSet, demand: &DemandMatrix) -> Result<TeConfig, SolveError> {
    solve_min_mlu(&MluProblem::new(paths, demand.flatten_pairs()))
}

/// Demand-prediction-based TE: optimize for the predicted demand.
pub fn prediction_config(
    paths: &PathSet,
    history: &[DemandMatrix],
    predictor: Predictor,
) -> Result<TeConfig, SolveError> {
    let predicted = predict(history, predictor);
    solve_min_mlu(&MluProblem::new(paths, predicted.flatten_pairs()))
}

/// Parameters of desensitization-based TE.
#[derive(Debug, Clone)]
pub struct DesensitizationSettings {
    /// Uniform path-sensitivity cap, expressed against normalized capacities
    /// (the smallest link counts as 1); the paper's "Original" setting in
    /// Appendix C is 2/3.
    pub sensitivity_bound: f64,
    /// Which prediction to optimize for (the paper uses the window peak).
    pub predictor: Predictor,
}

impl Default for DesensitizationSettings {
    fn default() -> Self {
        DesensitizationSettings { sensitivity_bound: 2.0 / 3.0, predictor: Predictor::WindowPeak }
    }
}

/// The per-pair sensitivity bounds desensitization-based TE applies, in
/// absolute units — the single source of the scheme's bound policy, shared by
/// the one-shot configs here and the series templates
/// ([`crate::template::MluTemplate::with_options`]).
pub fn desensitization_bounds(paths: &PathSet, settings: &DesensitizationSettings) -> Vec<f64> {
    let min_cap = paths.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
    let bound_abs = normalized_bound_to_absolute(settings.sensitivity_bound, min_cap);
    vec![bound_abs; paths.num_pairs()]
}

/// Desensitization-based TE (Google Jupiter's hedging mechanism).
pub fn desensitization_config(
    paths: &PathSet,
    history: &[DemandMatrix],
    settings: &DesensitizationSettings,
) -> Result<TeConfig, SolveError> {
    let predicted = predict(history, settings.predictor);
    let problem = MluProblem::new(paths, predicted.flatten_pairs())
        .with_sensitivity_bounds(desensitization_bounds(paths, settings));
    solve_min_mlu(&problem)
}

/// Fault-aware desensitization-based TE: the scheme additionally knows which
/// links will fail and optimizes only over the surviving paths (the "FA Des
/// TE" baseline of Figure 7).
pub fn fault_aware_desensitization_config(
    paths: &PathSet,
    history: &[DemandMatrix],
    settings: &DesensitizationSettings,
    scenario: &FailureScenario,
) -> Result<TeConfig, SolveError> {
    let predicted = predict(history, settings.predictor);
    let problem = MluProblem::new(paths, predicted.flatten_pairs())
        .with_sensitivity_bounds(desensitization_bounds(paths, settings))
        .with_available(available_paths(paths, scenario));
    solve_min_mlu(&problem)
}

/// The heuristic per-pair sensitivity-constraint functions of Appendix C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeuristicBound {
    /// Linear interpolation from `max` (most stable pair) down to `min` (most
    /// bursty pair) along the variance ordering (Figure 9).
    Linear {
        /// Bound applied to the most bursty pair.
        min: f64,
        /// Bound applied to the most stable pair.
        max: f64,
    },
    /// Piecewise: pairs below the breakpoint (fraction of the variance
    /// ordering) get `max`, pairs above it get `min` (Figure 11).
    Piecewise {
        /// Bound applied to bursty pairs (above the breakpoint).
        min: f64,
        /// Bound applied to stable pairs (below the breakpoint).
        max: f64,
        /// Fraction of pairs counted as stable (0..1).
        breakpoint: f64,
    },
}

/// Computes per-pair sensitivity bounds (normalized units) from the per-pair
/// traffic variances using one of the Appendix C heuristics.
pub fn heuristic_bounds(variances: &[f64], heuristic: HeuristicBound) -> Vec<f64> {
    let n = variances.len();
    if n == 0 {
        return Vec::new();
    }
    // Rank pairs by ascending variance.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| variances[a].partial_cmp(&variances[b]).expect("variances are finite"));
    let mut bounds = vec![0.0; n];
    for (rank, &pair) in order.iter().enumerate() {
        let frac = if n > 1 { rank as f64 / (n - 1) as f64 } else { 0.0 };
        bounds[pair] = match heuristic {
            HeuristicBound::Linear { min, max } => max - frac * (max - min),
            HeuristicBound::Piecewise { min, max, breakpoint } => {
                if frac <= breakpoint {
                    max
                } else {
                    min
                }
            }
        };
    }
    bounds
}

/// The predictor heuristic fine-grained TE optimizes for (the same window
/// peak the plain desensitization scheme hedges against).
pub const HEURISTIC_PREDICTOR: Predictor = Predictor::WindowPeak;

/// The per-pair heuristic bounds in absolute units — the single source of the
/// Appendix C bound policy, shared by [`heuristic_fine_grained_config`] and
/// the series templates ([`crate::template::MluTemplate::with_options`]).
pub fn heuristic_absolute_bounds(
    paths: &PathSet,
    variances: &[f64],
    heuristic: HeuristicBound,
) -> Vec<f64> {
    assert_eq!(variances.len(), paths.num_pairs(), "one variance per SD pair is required");
    let min_cap = paths.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
    heuristic_bounds(variances, heuristic)
        .into_iter()
        .map(|b| normalized_bound_to_absolute(b, min_cap))
        .collect()
}

/// Desensitization-based TE with fine-grained (per-pair) heuristic bounds —
/// the Appendix C variant that retrofits FIGRET's idea onto Google's scheme.
pub fn heuristic_fine_grained_config(
    paths: &PathSet,
    history: &[DemandMatrix],
    variances: &[f64],
    heuristic: HeuristicBound,
) -> Result<TeConfig, SolveError> {
    let bounds = heuristic_absolute_bounds(paths, variances, heuristic);
    let predicted = predict(history, HEURISTIC_PREDICTOR);
    let problem = MluProblem::new(paths, predicted.flatten_pairs()).with_sensitivity_bounds(bounds);
    solve_min_mlu(&problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_te::{max_link_utilization, max_link_utilization_pairs, max_sensitivity};
    use figret_topology::{random_link_failures, Topology, TopologySpec};

    fn pod_setup() -> (PathSet, Vec<DemandMatrix>) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let history: Vec<DemandMatrix> = (0..6)
            .map(|t| {
                let mut d = DemandMatrix::zeros(4);
                for s in 0..4 {
                    for dd in 0..4 {
                        if s != dd {
                            d.set(s, dd, 20.0 + 5.0 * ((t + s + dd) % 3) as f64);
                        }
                    }
                }
                d
            })
            .collect();
        (ps, history)
    }

    #[test]
    fn predictors_behave_as_documented() {
        let (_ps, history) = pod_setup();
        let last = predict(&history, Predictor::LastSnapshot);
        assert_eq!(&last, history.last().unwrap());
        let mean = predict(&history, Predictor::WindowMean);
        let peak = predict(&history, Predictor::WindowPeak);
        for s in 0..4 {
            for d in 0..4 {
                if s != d {
                    assert!(peak.get(s, d) >= mean.get(s, d) - 1e-9);
                    assert!(peak.get(s, d) >= last.get(s, d) - 1e-9);
                }
            }
        }
    }

    #[test]
    fn omniscient_beats_or_matches_prediction() {
        let (ps, history) = pod_setup();
        let realized = history.last().unwrap().scaled(1.4);
        let omni = omniscient_config(&ps, &realized).unwrap();
        let pred =
            prediction_config(&ps, &history[..history.len() - 1], Predictor::LastSnapshot).unwrap();
        let omni_mlu = max_link_utilization(&ps, &omni, &realized);
        let pred_mlu = max_link_utilization(&ps, &pred, &realized);
        assert!(omni_mlu <= pred_mlu + 1e-9, "omniscient {omni_mlu} vs prediction {pred_mlu}");
    }

    #[test]
    fn desensitization_respects_the_uniform_cap() {
        let (ps, history) = pod_setup();
        let settings = DesensitizationSettings::default();
        let cfg = desensitization_config(&ps, &history, &settings).unwrap();
        let min_cap = ps.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
        let bound_abs = normalized_bound_to_absolute(settings.sensitivity_bound, min_cap);
        assert!(max_sensitivity(&ps, &cfg) <= bound_abs + 1e-6);
        // The hedged config spreads traffic, so its normal-case MLU is at
        // least the omniscient one for the same matrix.
        let realized = history.last().unwrap().clone();
        let omni = omniscient_config(&ps, &realized).unwrap();
        assert!(
            max_link_utilization(&ps, &cfg, &realized)
                >= max_link_utilization(&ps, &omni, &realized) - 1e-9
        );
    }

    #[test]
    fn fault_aware_variant_avoids_failed_paths() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let (_, history) = pod_setup();
        let scenario = random_link_failures(&g, 1, 3).unwrap();
        let cfg = fault_aware_desensitization_config(
            &ps,
            &history,
            &DesensitizationSettings::default(),
            &scenario,
        )
        .unwrap();
        let alive = available_paths(&ps, &scenario);
        for p in 0..ps.num_paths() {
            if !alive[p] {
                assert_eq!(cfg.ratio(p), 0.0);
            }
        }
    }

    #[test]
    fn heuristic_bounds_follow_the_variance_ordering() {
        let variances = vec![5.0, 1.0, 3.0, 10.0];
        let linear = heuristic_bounds(&variances, HeuristicBound::Linear { min: 0.4, max: 1.0 });
        // Most stable pair (index 1) gets the loosest bound, most bursty
        // (index 3) the tightest.
        assert!((linear[1] - 1.0).abs() < 1e-12);
        assert!((linear[3] - 0.4).abs() < 1e-12);
        assert!(linear[0] > linear[3] && linear[0] < linear[1]);
        let piecewise = heuristic_bounds(
            &variances,
            HeuristicBound::Piecewise { min: 0.5, max: 0.9, breakpoint: 0.5 },
        );
        assert_eq!(piecewise[1], 0.9);
        assert_eq!(piecewise[3], 0.5);
        assert!(heuristic_bounds(&[], HeuristicBound::Linear { min: 0.1, max: 1.0 }).is_empty());
    }

    #[test]
    fn fine_grained_heuristic_improves_normal_case_over_uniform_cap() {
        let (ps, history) = pod_setup();
        // Make one pair clearly bursty and the rest stable.
        let mut variances = vec![1.0; ps.num_pairs()];
        variances[0] = 100.0;
        let uniform = desensitization_config(
            &ps,
            &history,
            &DesensitizationSettings { sensitivity_bound: 0.5, predictor: Predictor::WindowPeak },
        )
        .unwrap();
        let fine = heuristic_fine_grained_config(
            &ps,
            &history,
            &variances,
            HeuristicBound::Piecewise { min: 0.5, max: 1.0, breakpoint: 0.9 },
        )
        .unwrap();
        let realized = history.last().unwrap().clone();
        let d = realized.flatten_pairs();
        let mlu_uniform = max_link_utilization_pairs(&ps, &uniform, &d);
        let mlu_fine = max_link_utilization_pairs(&ps, &fine, &d);
        assert!(
            mlu_fine <= mlu_uniform + 1e-9,
            "relaxing stable pairs must not hurt the normal case ({mlu_fine} vs {mlu_uniform})"
        );
    }
}
