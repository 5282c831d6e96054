//! LP/iterative-based TE baselines of §5.1:
//!
//! * **Omniscient TE** — optimal MLU with perfect knowledge of the upcoming
//!   demand (the normalizer of every quality figure);
//! * **Demand-prediction-based TE** — optimize for a forecast of the next
//!   demand (the last snapshot);
//! * **Desensitization-based TE** — Google Jupiter's hedging: optimize for the
//!   element-wise *peak* of the history window under a uniform
//!   path-sensitivity cap; the fault-aware variant additionally knows which
//!   links will fail;
//! * **Heuristic fine-grained TE** (Appendix C) — the same scheme but with a
//!   per-pair sensitivity bound derived from the traffic-variance ordering via
//!   a linear or piecewise function.
//!
//! The schemes differ only in the demand they solve for and the bounds and
//! mask they solve under.  The forecast is the caller's: the evaluation runner
//! takes it from the online predictors that serve (`figret_serve::{LastValue,
//! SlidingMax}`) over pair columns.  This module holds the bound policies
//! ([`desensitization_bounds`], [`heuristic_absolute_bounds`]), which a
//! [`MluProblem`] or a [`crate::template::MluTemplate`] then solves under.

use figret_te::{PathSet, TeConfig};

use crate::engine::{normalized_bound_to_absolute, solve_lp, MluProblem, SolveError};

/// Omniscient TE: optimize directly for the realized demand (one value per
/// SD pair of `paths`) with the exact one-shot LP ([`solve_lp`]).
pub fn omniscient_config(paths: &PathSet, demand: &[f64]) -> Result<TeConfig, SolveError> {
    solve_lp(&MluProblem::new(paths, demand.to_vec()))
}

/// Parameters of desensitization-based TE.
#[derive(Debug, Clone)]
pub struct DesensitizationSettings {
    /// Uniform path-sensitivity cap, expressed against normalized capacities
    /// (the smallest link counts as 1); the paper's "Original" setting in
    /// Appendix C is 2/3.
    pub sensitivity_bound: f64,
}

impl Default for DesensitizationSettings {
    fn default() -> Self {
        DesensitizationSettings { sensitivity_bound: 2.0 / 3.0 }
    }
}

/// The per-pair sensitivity bounds desensitization-based TE applies, in
/// absolute units — the single source of the scheme's bound policy, shared by
/// one-shot problems ([`MluProblem::with_sensitivity_bounds`]) and the series
/// templates ([`crate::template::MluTemplate::with_options`]).
pub fn desensitization_bounds(paths: &PathSet, settings: &DesensitizationSettings) -> Vec<f64> {
    let min_cap = paths.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
    let bound_abs = normalized_bound_to_absolute(settings.sensitivity_bound, min_cap);
    vec![bound_abs; paths.num_pairs()]
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

/// The per-pair heuristic bounds in absolute units — the single source of the
/// Appendix C bound policy, shared by one-shot problems
/// ([`MluProblem::with_sensitivity_bounds`]) and the series templates
/// ([`crate::template::MluTemplate::with_options`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use figret_te::{available_paths, max_link_utilization_pairs, max_sensitivity};
    use figret_topology::{random_link_failures, Topology, TopologySpec};
    use figret_traffic::{ops, ActivePairs};

    /// A PoD path set and six pair columns of demand history.
    fn pod_setup() -> (PathSet, Vec<Vec<f64>>) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let pairs = ActivePairs::all(4);
        let history = (0..6)
            .map(|t| pairs.iter().map(|(_, s, d)| 20.0 + 5.0 * ((t + s + d) % 3) as f64).collect())
            .collect();
        (ps, history)
    }

    /// The window's element-wise peak, the demand the desensitization schemes
    /// solve for.
    fn window_peak(history: &[Vec<f64>]) -> Vec<f64> {
        let mut peak = history[0].clone();
        for column in &history[1..] {
            ops::max_assign(&mut peak, column);
        }
        peak
    }

    fn mlu(ps: &PathSet, config: &TeConfig, demand: &[f64]) -> f64 {
        max_link_utilization_pairs(ps, config, demand)
    }

    #[test]
    fn omniscient_beats_or_matches_prediction() {
        let (ps, history) = pod_setup();
        let realized = ops::scale_clamped(history.last().unwrap(), 1.4);
        let omni = omniscient_config(&ps, &realized).unwrap();
        let last = history[history.len() - 2].clone();
        let pred = solve_lp(&MluProblem::new(&ps, last)).unwrap();
        let omni_mlu = mlu(&ps, &omni, &realized);
        let pred_mlu = mlu(&ps, &pred, &realized);
        assert!(omni_mlu <= pred_mlu + 1e-9, "omniscient {omni_mlu} vs prediction {pred_mlu}");
    }

    #[test]
    fn desensitization_respects_the_uniform_cap() {
        let (ps, history) = pod_setup();
        let settings = DesensitizationSettings::default();
        let problem = MluProblem::new(&ps, window_peak(&history))
            .with_sensitivity_bounds(desensitization_bounds(&ps, &settings));
        let cfg = solve_lp(&problem).unwrap();
        let min_cap = ps.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
        let bound_abs = normalized_bound_to_absolute(settings.sensitivity_bound, min_cap);
        assert!(max_sensitivity(&ps, &cfg) <= bound_abs + 1e-6);
        // The hedged config spreads traffic, so its normal-case MLU is at
        // least the omniscient one for the same matrix.
        let realized = history.last().unwrap().clone();
        let omni = omniscient_config(&ps, &realized).unwrap();
        assert!(mlu(&ps, &cfg, &realized) >= mlu(&ps, &omni, &realized) - 1e-9);
    }

    #[test]
    fn fault_aware_variant_avoids_failed_paths() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let (_, history) = pod_setup();
        let scenario = random_link_failures(&g, 1, 3).unwrap();
        let alive = available_paths(&ps, &scenario);
        let problem = MluProblem::new(&ps, window_peak(&history))
            .with_sensitivity_bounds(desensitization_bounds(
                &ps,
                &DesensitizationSettings::default(),
            ))
            .with_available(alive.clone());
        let cfg = solve_lp(&problem).unwrap();
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
        let peak = window_peak(&history);
        let uniform = solve_lp(&MluProblem::new(&ps, peak.clone()).with_sensitivity_bounds(
            desensitization_bounds(&ps, &DesensitizationSettings { sensitivity_bound: 0.5 }),
        ))
        .unwrap();
        let heuristic = HeuristicBound::Piecewise { min: 0.5, max: 1.0, breakpoint: 0.9 };
        let fine = solve_lp(
            &MluProblem::new(&ps, peak)
                .with_sensitivity_bounds(heuristic_absolute_bounds(&ps, &variances, heuristic)),
        )
        .unwrap();
        let realized = history.last().unwrap();
        let mlu_uniform = mlu(&ps, &uniform, realized);
        let mlu_fine = mlu(&ps, &fine, realized);
        assert!(
            mlu_fine <= mlu_uniform + 1e-9,
            "relaxing stable pairs must not hurt the normal case ({mlu_fine} vs {mlu_uniform})"
        );
    }
}
