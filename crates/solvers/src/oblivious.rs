//! Demand-oblivious TE and COPE.
//!
//! The paper's oblivious baseline [Applegate & Cohen] optimizes the worst-case
//! MLU over *all* traffic demands, and COPE [Wang et al.] optimizes over a set
//! of predicted demands while retaining a worst-case guarantee.  With a fixed
//! candidate-path set and a completely unbounded demand space the worst case
//! is degenerate, so — as is standard practice and documented in DESIGN.md §5 —
//! we bound demands with a **hose model** fitted from the training trace
//! (per-node ingress/egress totals) and solve both schemes with a
//! cutting-plane loop:
//!
//! 1. solve the routing LP for the current finite set of adversarial demands;
//! 2. for the resulting routing, find the hose-feasible demand that maximizes
//!    the utilization of each edge (a small transportation LP per edge) and add
//!    the worst one to the set;
//! 3. repeat until the adversary can no longer raise the MLU (or an iteration
//!    cap is hit).
//!
//! Both schemes pre-compute a single static configuration, exactly like in the
//! paper ("Oblivious & COPE ... precompute TE solutions but do not update them
//! thereafter", Table 2).

use figret_lp::{Direction, LinearProgram, Relation};
use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};
use figret_traffic::TrafficTrace;

use crate::engine::{solve_lp, MluProblem, SolveError};

/// A hose uncertainty set: per-node egress and ingress caps.
#[derive(Debug, Clone, PartialEq)]
pub struct HoseModel {
    /// Maximum total traffic each node may send.
    pub egress: Vec<f64>,
    /// Maximum total traffic each node may receive.
    pub ingress: Vec<f64>,
}

impl HoseModel {
    /// Fits the hose caps from a trace range: the caps are the observed maxima
    /// of each node's row/column sums, scaled by `headroom` (≥ 1) to leave
    /// room for unseen bursts.
    pub fn fit(trace: &TrafficTrace, range: std::ops::Range<usize>, headroom: f64) -> HoseModel {
        assert!(headroom >= 1.0, "headroom must be at least 1");
        let n = trace.num_nodes();
        let active = trace.active();
        let mut egress = vec![0.0f64; n];
        let mut ingress = vec![0.0f64; n];
        let mut col = vec![0.0f64; n];
        for column in &trace.snapshots()[range] {
            let values = column.values();
            for (s, cap) in egress.iter_mut().enumerate() {
                let row: f64 = values[active.source_range(s)].iter().sum();
                *cap = cap.max(row);
            }
            // Slots run source-major, so each destination sums its sources
            // in ascending order.
            col.fill(0.0);
            for (slot, _, d) in active.iter() {
                col[d] += values[slot];
            }
            for (cap, &sum) in ingress.iter_mut().zip(&col) {
                *cap = cap.max(sum);
            }
        }
        for v in egress.iter_mut().chain(ingress.iter_mut()) {
            *v *= headroom;
        }
        HoseModel { egress, ingress }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.egress.len()
    }

    /// A uniform hose-feasible demand matrix (each pair gets an equal share of
    /// the tighter of its endpoints' caps); used to seed the cutting plane.
    pub fn seed_demand(&self, paths: &PathSet) -> Vec<f64> {
        let n = self.num_nodes();
        let mut demand = vec![0.0; paths.num_pairs()];
        for (i, &(s, d)) in paths.pairs().iter().enumerate() {
            let share = (self.egress[s.index()] / (n - 1) as f64)
                .min(self.ingress[d.index()] / (n - 1) as f64);
            demand[i] = share;
        }
        demand
    }
}

/// For a fixed routing, the hose-feasible demand that maximizes the MLU, and
/// that maximum.  Returns `None` when the hose caps are all zero.
pub fn worst_case_demand(
    paths: &PathSet,
    config: &TeConfig,
    hose: &HoseModel,
) -> Option<(f64, Vec<f64>)> {
    let n = hose.num_nodes();
    let mut best: Option<(f64, Vec<f64>)> = None;
    for e in 0..paths.num_edges() {
        // Coefficient of each pair's demand in this edge's utilization.
        let mut coeff = vec![0.0f64; paths.num_pairs()];
        for &p in paths.paths_on_edge(e) {
            coeff[paths.pair_of_path(p)] += config.ratio(p);
        }
        let capacity = paths.edge_capacities()[e];
        if coeff.iter().all(|c| *c == 0.0) {
            continue;
        }
        // max  (1/capacity) Σ coeff_i d_i  s.t. hose constraints.
        let mut lp = LinearProgram::new(Direction::Maximize);
        let vars: Vec<usize> =
            (0..paths.num_pairs()).map(|i| lp.add_variable(coeff[i] / capacity)).collect();
        for node in 0..n {
            let egress_coeffs: Vec<(usize, f64)> = paths
                .pairs()
                .iter()
                .enumerate()
                .filter(|(_, (s, _))| s.index() == node)
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            if !egress_coeffs.is_empty() {
                lp.add_constraint(egress_coeffs, Relation::LessEq, hose.egress[node]);
            }
            let ingress_coeffs: Vec<(usize, f64)> = paths
                .pairs()
                .iter()
                .enumerate()
                .filter(|(_, (_, d))| d.index() == node)
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            if !ingress_coeffs.is_empty() {
                lp.add_constraint(ingress_coeffs, Relation::LessEq, hose.ingress[node]);
            }
        }
        let solution = match figret_lp::solve(&lp) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let util = solution.objective_value;
        let demand: Vec<f64> = vars.iter().map(|&v| solution.values[v]).collect();
        if best.as_ref().map(|(b, _)| util > *b).unwrap_or(true) {
            best = Some((util, demand));
        }
    }
    best
}

/// Settings of the cutting-plane loop.
#[derive(Debug, Clone, Copy)]
pub struct CuttingPlaneSettings {
    /// Maximum number of adversary rounds.
    pub max_rounds: usize,
    /// Stop when the adversary cannot raise the MLU by more than this factor.
    pub tolerance: f64,
}

impl Default for CuttingPlaneSettings {
    fn default() -> Self {
        CuttingPlaneSettings { max_rounds: 6, tolerance: 0.01 }
    }
}

/// Result of the oblivious precomputation.
#[derive(Debug, Clone)]
pub struct ObliviousResult {
    /// The precomputed static configuration.
    pub config: TeConfig,
    /// The worst-case MLU of that configuration over the hose set.
    pub worst_case_mlu: f64,
    /// Number of cutting-plane rounds performed.
    pub rounds: usize,
}

/// Demand-oblivious TE: minimize the worst-case MLU over the hose set.
pub fn oblivious_config(
    paths: &PathSet,
    hose: &HoseModel,
    settings: CuttingPlaneSettings,
) -> Result<ObliviousResult, SolveError> {
    let mut demand_set: Vec<Vec<f64>> = vec![hose.seed_demand(paths)];
    let mut config = TeConfig::uniform(paths);
    let mut rounds = 0;
    for round in 0..settings.max_rounds {
        rounds = round + 1;
        let mut problem = MluProblem::new(paths, demand_set[0].clone());
        problem.demands = demand_set.clone();
        config = solve_lp(&problem)?;
        let current = demand_set
            .iter()
            .map(|d| max_link_utilization_pairs(paths, &config, d))
            .fold(0.0f64, f64::max);
        match worst_case_demand(paths, &config, hose) {
            Some((worst, demand)) => {
                if worst <= current * (1.0 + settings.tolerance) {
                    return Ok(ObliviousResult { config, worst_case_mlu: worst, rounds });
                }
                demand_set.push(demand);
            }
            None => break,
        }
    }
    let worst = worst_case_demand(paths, &config, hose).map(|(w, _)| w).unwrap_or(0.0);
    Ok(ObliviousResult { config, worst_case_mlu: worst, rounds })
}

/// COPE settings.
#[derive(Debug, Clone, Copy)]
pub struct CopeSettings {
    /// Worst-case penalty ratio β: the configuration's hose worst case must
    /// stay below `β ×` the oblivious optimum (the paper's "worst-case
    /// performance guarantee").
    pub penalty_ratio: f64,
    /// Cutting-plane settings shared with the oblivious precomputation.
    pub cutting_plane: CuttingPlaneSettings,
}

impl Default for CopeSettings {
    fn default() -> Self {
        CopeSettings { penalty_ratio: 1.3, cutting_plane: CuttingPlaneSettings::default() }
    }
}

/// COPE: optimize the MLU over a set of predicted demands while keeping the
/// hose worst case within `β ×` the oblivious optimum.
pub fn cope_config(
    paths: &PathSet,
    predicted_demands: &[Vec<f64>],
    hose: &HoseModel,
    settings: CopeSettings,
) -> Result<ObliviousResult, SolveError> {
    assert!(!predicted_demands.is_empty(), "COPE needs at least one predicted demand");
    // Worst-case budget from the oblivious optimum.
    let oblivious = oblivious_config(paths, hose, settings.cutting_plane)?;
    let budget = settings.penalty_ratio * oblivious.worst_case_mlu.max(1e-9);

    let mut adversarial: Vec<Vec<f64>> = vec![hose.seed_demand(paths)];
    let mut config = oblivious.config.clone();
    let mut rounds = 0;
    for round in 0..settings.cutting_plane.max_rounds {
        rounds = round + 1;
        let mut problem = MluProblem::new(paths, predicted_demands[0].clone());
        problem.demands = predicted_demands.to_vec();
        problem.capped_demands = adversarial.iter().map(|d| (d.clone(), budget)).collect();
        config = match solve_lp(&problem) {
            Ok(c) => c,
            // If the cap is too tight for the current cut set, fall back to the
            // oblivious configuration (which satisfies the budget by definition).
            Err(SolveError::Lp(figret_lp::LpError::Infeasible)) => oblivious.config.clone(),
            Err(e) => return Err(e),
        };
        match worst_case_demand(paths, &config, hose) {
            Some((worst, demand)) => {
                if worst <= budget * (1.0 + settings.cutting_plane.tolerance) {
                    return Ok(ObliviousResult { config, worst_case_mlu: worst, rounds });
                }
                adversarial.push(demand);
            }
            None => break,
        }
    }
    let worst = worst_case_demand(paths, &config, hose).map(|(w, _)| w).unwrap_or(0.0);
    Ok(ObliviousResult { config, worst_case_mlu: worst, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};
    use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};

    fn setup() -> (PathSet, TrafficTrace) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let trace = pod_trace(&g, &PodTrafficConfig { num_snapshots: 60, ..Default::default() });
        (ps, trace)
    }

    #[test]
    fn hose_model_bounds_every_training_matrix() {
        let (_ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 0..trace.len(), 1.0);
        for m in (0..trace.len()).map(|t| trace.matrix(t)) {
            for s in 0..trace.num_nodes() {
                let row: f64 = (0..trace.num_nodes()).map(|d| m.get(s, d)).sum();
                assert!(row <= hose.egress[s] + 1e-9);
            }
        }
        let with_headroom = HoseModel::fit(&trace, 0..trace.len(), 1.5);
        assert!(with_headroom.egress[0] > hose.egress[0]);
    }

    #[test]
    fn hose_fit_matches_the_densified_marginals_bit_for_bit() {
        let (_ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 10..40, 1.0);
        let n = trace.num_nodes();
        let (mut egress, mut ingress) = (vec![0.0f64; n], vec![0.0f64; n]);
        for m in (10..40).map(|t| trace.matrix(t)) {
            for v in 0..n {
                egress[v] = egress[v].max((0..n).map(|d| m.get(v, d)).sum());
                ingress[v] = ingress[v].max((0..n).map(|s| m.get(s, v)).sum());
            }
        }
        let bits = |caps: &[f64]| caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&hose.egress), bits(&egress));
        assert_eq!(bits(&hose.ingress), bits(&ingress));
    }

    #[test]
    fn worst_case_demand_exceeds_average_demand_mlu() {
        let (ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 0..trace.len(), 1.0);
        let cfg = TeConfig::uniform(&ps);
        let (worst, demand) = worst_case_demand(&ps, &cfg, &hose).unwrap();
        assert!(worst > 0.0);
        assert_eq!(demand.len(), ps.num_pairs());
        // The adversarial demand must indeed achieve that MLU.
        let achieved = max_link_utilization_pairs(&ps, &cfg, &demand);
        assert!((achieved - worst).abs() < 1e-6);
        // And it must dominate the MLU of an ordinary training matrix.
        let ordinary = max_link_utilization_pairs(&ps, &cfg, trace.snapshot(0).values());
        assert!(worst >= ordinary - 1e-9);
    }

    #[test]
    fn oblivious_has_better_worst_case_than_shortest_path() {
        let (ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 0..trace.len(), 1.0);
        let result = oblivious_config(&ps, &hose, CuttingPlaneSettings::default()).unwrap();
        assert!(result.rounds >= 1);
        let sp = TeConfig::shortest_path(&ps);
        let sp_worst = worst_case_demand(&ps, &sp, &hose).unwrap().0;
        assert!(
            result.worst_case_mlu <= sp_worst + 1e-6,
            "oblivious worst case {} must not exceed shortest-path worst case {sp_worst}",
            result.worst_case_mlu
        );
    }

    #[test]
    fn cope_trades_worst_case_for_average_case() {
        let (ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 0..trace.len(), 1.0);
        let predicted: Vec<Vec<f64>> =
            (0..5).map(|t| trace.snapshot(t).values().to_vec()).collect();
        let cope = cope_config(&ps, &predicted, &hose, CopeSettings::default()).unwrap();
        let oblivious = oblivious_config(&ps, &hose, CuttingPlaneSettings::default()).unwrap();
        // COPE's worst case stays within the budget (with slack for the
        // cutting-plane tolerance).
        assert!(cope.worst_case_mlu <= 1.3 * oblivious.worst_case_mlu * 1.05 + 1e-6);
        // And its performance on the predicted demands is at least as good as
        // the oblivious configuration's.
        let avg = |cfg: &TeConfig| -> f64 {
            predicted.iter().map(|d| max_link_utilization_pairs(&ps, cfg, d)).sum::<f64>()
                / predicted.len() as f64
        };
        assert!(avg(&cope.config) <= avg(&oblivious.config) + 1e-6);
    }

    #[test]
    fn seed_demand_is_hose_feasible() {
        let (ps, trace) = setup();
        let hose = HoseModel::fit(&trace, 0..trace.len(), 1.0);
        let seed = hose.seed_demand(&ps);
        for s in 0..trace.num_nodes() {
            let row: f64 = seed[trace.active().source_range(s)].iter().sum();
            assert!(row <= hose.egress[s] + 1e-9);
        }
    }
}
