//! Min-MLU solving engines.
//!
//! Every LP-based TE baseline in the paper reduces to the same core problem:
//! given a path set and one (or several) demand matrices, find split ratios
//! minimizing the maximum link utilization, optionally subject to per-path
//! sensitivity bounds (desensitization-based TE) and path availability
//! (fault-aware variants).  Two engines solve it:
//!
//! * [`solve_lp`] — the exact formulation solved with the sparse revised
//!   simplex of `figret-lp` (the substitute for Gurobi; DESIGN.md §5);
//! * [`solve_iterative`] — a projected-gradient solver on the smooth MLU
//!   surrogate (`logsumexp`), which scales to the very large topologies
//!   where even a sparse simplex becomes impractical.  The problem is convex,
//!   so with enough iterations the result is near-optimal.
//!
//! One size rule ([`solves_exactly`]) says which one a caller uses: every
//! problem is solved exactly except a single uncapped demand over more than
//! [`LP_PATH_LIMIT`] candidate paths.  Snapshot *series* on an exact-size
//! path set use [`crate::template::MluTemplate`], which builds the LP once
//! over path flows and re-solves it under each snapshot's right-hand side,
//! seeded from the previous optima; [`solve_lp`] is the one-shot ratio-form
//! program, the engine of the multi-demand and capped schemes and the
//! template's test oracle.

use std::sync::Arc;

use figret_lp::{Direction, LinearProgram, LpError, Relation};
use figret_nn::{Adam, AdamConfig, Graph, Tensor};
use figret_te::{DiffTe, MluAggregation, PathSet, TeConfig};

/// The most candidate paths on which a single uncapped demand is solved
/// with the exact LP; larger instances go to the iterative engine.
///
/// Measured on 2 vCPUs at the two sizes that bracket the default scenarios:
/// * reduced Cogentco (6 768 paths, the largest default-scale path set): a
///   cold LP solve takes 0.18 s for the omniscient program and 4.0 s for
///   Des TE, and warm re-solves through [`crate::template::MluTemplate`]
///   take 2–15 ms.  The iterative engine takes 0.17–0.19 s but lands 0.5 %
///   (omniscient) and 10 % (Des TE) above the LP optimum.
/// * full-scale ToR-DB (71 610 paths): a cold LP solve had not finished
///   after 900 s; the iterative engine takes 1.9 s.
///
/// The limit sits just above Cogentco, so every default-scale scenario is
/// solved exactly; nothing between the two sizes has been measured.
pub const LP_PATH_LIMIT: usize = 8000;

/// Whether a single uncapped demand over `num_paths` candidate paths is
/// solved with the exact LP (`true`) or the iterative engine (`false`).
/// Problems with several or capped demand matrices always go to the LP: the
/// iterative surrogate is exact for one uncapped demand only.
pub fn solves_exactly(num_paths: usize) -> bool {
    num_paths <= LP_PATH_LIMIT
}

/// Hyper-parameters of the iterative engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeSettings {
    /// Number of Adam steps.
    pub iterations: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight of the quadratic penalty enforcing sensitivity bounds.
    pub bound_penalty: f64,
}

impl Default for IterativeSettings {
    fn default() -> Self {
        IterativeSettings { iterations: 500, learning_rate: 0.05, bound_penalty: 50.0 }
    }
}

/// A min-MLU problem instance.
#[derive(Debug, Clone)]
pub struct MluProblem<'a> {
    /// Candidate paths.
    pub paths: &'a PathSet,
    /// Demands to optimize for (one per SD pair, `flatten_pairs` order).  The
    /// objective is the worst MLU over all of these matrices; most schemes
    /// pass exactly one.
    pub demands: Vec<Vec<f64>>,
    /// Optional per-pair upper bound on the sensitivity of every path serving
    /// that pair (`S_p = r_p / C_p ≤ bound`), in **absolute** capacity units.
    pub sensitivity_bounds: Option<Vec<f64>>,
    /// Optional per-path availability mask (`false` = path failed and must
    /// carry no traffic).
    pub available: Option<Vec<bool>>,
    /// Additional demand matrices whose MLU must stay below a fixed cap
    /// (used by COPE's worst-case guarantee): `(demand, cap)`.
    pub capped_demands: Vec<(Vec<f64>, f64)>,
}

impl<'a> MluProblem<'a> {
    /// A plain single-demand instance.
    pub fn new(paths: &'a PathSet, demand_pairs: Vec<f64>) -> MluProblem<'a> {
        assert_eq!(demand_pairs.len(), paths.num_pairs(), "one demand per SD pair is required");
        MluProblem {
            paths,
            demands: vec![demand_pairs],
            sensitivity_bounds: None,
            available: None,
            capped_demands: Vec::new(),
        }
    }

    /// Adds per-pair sensitivity bounds (absolute units, see
    /// [`normalized_bound_to_absolute`]).
    pub fn with_sensitivity_bounds(mut self, bounds: Vec<f64>) -> Self {
        assert_eq!(bounds.len(), self.paths.num_pairs(), "one bound per SD pair is required");
        self.sensitivity_bounds = Some(bounds);
        self
    }

    /// Restricts the usable paths.
    pub fn with_available(mut self, available: Vec<bool>) -> Self {
        assert_eq!(available.len(), self.paths.num_paths(), "one flag per path is required");
        self.available = Some(available);
        self
    }

    pub(crate) fn is_available(&self, path: usize) -> bool {
        self.available.as_ref().map(|a| a[path]).unwrap_or(true)
    }

    /// Loosens the per-pair bounds just enough that a feasible split exists
    /// (`Σ_p min(1, bound · C_p) ≥ 1` over the available paths of each pair).
    pub(crate) fn feasible_bounds(&self) -> Option<Vec<f64>> {
        let bounds = self.sensitivity_bounds.as_ref()?;
        let mut out = bounds.clone();
        for pair in 0..self.paths.num_pairs() {
            let caps: Vec<f64> = self
                .paths
                .paths_of_pair(pair)
                .filter(|&p| self.is_available(p))
                .map(|p| self.paths.path_capacity(p))
                .collect();
            if caps.is_empty() {
                continue;
            }
            let total_cap: f64 = caps.iter().sum();
            let min_needed = 1.0 / total_cap;
            if out[pair] < min_needed {
                out[pair] = min_needed * 1.000_001;
            }
        }
        Some(out)
    }
}

/// Converts a sensitivity bound expressed against normalized capacities (the
/// paper normalizes the smallest link to 1, Appendix C) into absolute units
/// for a path set whose smallest edge capacity is `min_capacity`.
pub fn normalized_bound_to_absolute(bound_normalized: f64, min_capacity: f64) -> f64 {
    assert!(min_capacity > 0.0, "capacities must be positive");
    bound_normalized / min_capacity
}

/// Errors returned by the solving engines.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The LP engine reported an error.
    Lp(LpError),
    /// The problem has no demands.
    NoDemand,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "LP engine failed: {e}"),
            SolveError::NoDemand => write!(f, "the problem has no demand matrices"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Exact LP formulation (Equation 9 of the paper, plus the optional
/// desensitization constraints of Equation 5), stated over the split ratios:
/// the demand sets share them.  [`crate::template::MluTemplate`] states the
/// single-demand program over path flows instead, and its tests hold it to
/// this one's optimum.  A problem without demands is
/// [`SolveError::NoDemand`].
pub fn solve_lp(problem: &MluProblem<'_>) -> Result<TeConfig, SolveError> {
    if problem.demands.is_empty() {
        return Err(SolveError::NoDemand);
    }
    let paths = problem.paths;
    let mut lp = LinearProgram::new(Direction::Minimize);
    let theta = lp.add_variable(1.0);
    let ratio_vars: Vec<usize> = (0..paths.num_paths()).map(|_| lp.add_variable(0.0)).collect();

    // Per-pair conservation: the available paths' ratios sum to one.
    for pair in 0..paths.num_pairs() {
        let coeffs: Vec<(usize, f64)> = paths
            .paths_of_pair(pair)
            .filter(|&p| problem.is_available(p))
            .map(|p| (ratio_vars[p], 1.0))
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        lp.add_constraint(coeffs, Relation::Equal, 1.0);
    }
    // Failed paths carry nothing.
    for p in 0..paths.num_paths() {
        if !problem.is_available(p) {
            lp.add_constraint(vec![(ratio_vars[p], 1.0)], Relation::LessEq, 0.0);
        }
    }
    // Edge utilization <= theta for every demand matrix in the objective set.
    for demand in &problem.demands {
        assert_eq!(demand.len(), paths.num_pairs(), "one demand per SD pair is required");
        add_edge_rows(&mut lp, paths, demand, &ratio_vars, Some(theta), 0.0);
    }
    // Edge utilization <= fixed cap for the capped demand matrices.
    for (demand, cap) in &problem.capped_demands {
        add_edge_rows(&mut lp, paths, demand, &ratio_vars, None, *cap);
    }
    // Sensitivity bounds: r_p <= bound(pair) * C_p.
    if let Some(bounds) = problem.feasible_bounds() {
        for p in 0..paths.num_paths() {
            if !problem.is_available(p) {
                continue;
            }
            let pair = paths.pair_of_path(p);
            let limit = bounds[pair] * paths.path_capacity(p);
            if limit < 1.0 {
                lp.add_constraint(vec![(ratio_vars[p], 1.0)], Relation::LessEq, limit);
            }
        }
    }

    let solution = figret_lp::solve(&lp).map_err(SolveError::Lp)?;
    let raw: Vec<f64> = ratio_vars.iter().map(|&v| solution.values[v]).collect();
    Ok(apply_availability(paths, raw, problem.available.as_deref()))
}

fn add_edge_rows(
    lp: &mut LinearProgram,
    paths: &PathSet,
    demand: &[f64],
    ratio_vars: &[usize],
    theta: Option<usize>,
    cap: f64,
) {
    for e in 0..paths.num_edges() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for &p in paths.paths_on_edge(e) {
            let d = demand[paths.pair_of_path(p)];
            if d > 0.0 {
                coeffs.push((ratio_vars[p], d));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        let capacity = paths.edge_capacities()[e];
        match theta {
            Some(t) => {
                coeffs.push((t, -capacity));
                lp.add_constraint(coeffs, Relation::LessEq, 0.0);
            }
            None => {
                lp.add_constraint(coeffs, Relation::LessEq, cap * capacity);
            }
        }
    }
}

/// Iterative (projected-gradient) engine on the smooth MLU surrogate.
pub fn solve_iterative(problem: &MluProblem<'_>, settings: IterativeSettings) -> TeConfig {
    let paths = problem.paths;
    let diff = DiffTe::new(paths);
    let mut graph = Graph::new();
    let raw = graph.parameter(Tensor::zeros(1, paths.num_paths()));
    graph.seal();
    let mut adam = Adam::new(
        &graph,
        vec![raw],
        AdamConfig { learning_rate: settings.learning_rate, ..Default::default() },
    );

    // Initial scale of the utilizations, used to set the smoothing temperature.
    let uniform = TeConfig::uniform(paths);
    let initial_mlu = problem
        .demands
        .iter()
        .map(|d| figret_te::max_link_utilization_pairs(paths, &uniform, d))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    // The sensitivity-bound penalty's data: `−bound` per pair (added to the
    // per-pair sensitivities as a data-only leaf) and one weight per pair.
    let bound_penalty = problem.feasible_bounds().map(|bounds| {
        let negated: Vec<f64> = bounds.iter().map(|b| -b).collect();
        let weight = settings.bound_penalty * initial_mlu;
        (negated, Arc::new(vec![weight; paths.num_pairs()]))
    });

    for step in 0..settings.iterations {
        graph.reset();
        // Anneal the temperature from 10% to ~0.5% of the initial MLU.
        let progress = step as f64 / settings.iterations.max(1) as f64;
        let temperature = (initial_mlu * 0.1) * (1.0 - progress) + (initial_mlu * 0.005) * progress;
        let ratios = diff.ratios_from_raw(&mut graph, raw);
        // Objective: worst smooth MLU over the demand set.
        let mut objective = None;
        for demand in &problem.demands {
            let mlu =
                diff.mlu_batch(&mut graph, ratios, demand, MluAggregation::SmoothMax(temperature));
            objective = Some(match objective {
                None => mlu,
                Some(prev) => {
                    // Smooth max of the two scalars: logsumexp over a 2-vector
                    // is not directly available, so sum them; for the
                    // single-demand case (the common one) this is exact.
                    graph.add(prev, mlu)
                }
            });
        }
        let mut loss = objective.expect("at least one demand");
        // Sensitivity-bound penalty.
        if let Some((negated, weights)) = &bound_penalty {
            let per_pair = diff.max_sensitivity_per_pair(&mut graph, ratios);
            let neg_bounds = graph.constant(1, negated.len(), |row| row.copy_from_slice(negated));
            let excess = graph.add(per_pair, neg_bounds);
            let violation = graph.relu(excess);
            let penalty = graph.dot_const(violation, Arc::clone(weights));
            loss = graph.add(loss, penalty);
        }
        graph.backward(loss);
        adam.step(&mut graph);
    }

    graph.reset();
    let ratios_node = diff.ratios_from_raw(&mut graph, raw);
    let raw_ratios = graph.value(ratios_node).data().to_vec();
    apply_availability(paths, raw_ratios, problem.available.as_deref())
}

/// Zeroes unavailable paths and renormalizes.
pub(crate) fn apply_availability(
    paths: &PathSet,
    mut raw: Vec<f64>,
    available: Option<&[bool]>,
) -> TeConfig {
    if let Some(avail) = available {
        for (r, a) in raw.iter_mut().zip(avail) {
            if !a {
                *r = 0.0;
            }
        }
        // from_raw would re-uniform pairs with no available path; instead keep
        // their mass on the (failed) paths at zero by constructing via from_raw
        // and then re-zeroing — acceptable because those pairs cannot carry
        // traffic either way.
    }
    TeConfig::from_raw(paths, &raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_te::{max_link_utilization_pairs, max_sensitivity_per_pair, PathSet};
    use figret_topology::{Graph as Topo, NodeId, Topology, TopologySpec};

    /// Two parallel routes with different capacities between 0 and 2.
    fn unbalanced() -> PathSet {
        let mut g = Topo::new(3);
        g.add_bidirectional(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_bidirectional(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_bidirectional(NodeId(0), NodeId(2), 3.0).unwrap();
        PathSet::k_shortest(&g, 2)
    }

    fn demand_02(paths: &PathSet, volume: f64) -> Vec<f64> {
        let mut d = vec![0.0; paths.num_pairs()];
        let idx =
            paths.pairs().iter().position(|&(s, t)| s == NodeId(0) && t == NodeId(2)).unwrap();
        d[idx] = volume;
        d
    }

    #[test]
    fn lp_engine_balances_utilization() {
        let ps = unbalanced();
        let demand = demand_02(&ps, 4.0);
        let cfg = solve_lp(&MluProblem::new(&ps, demand.clone())).unwrap();
        let mlu = max_link_utilization_pairs(&ps, &cfg, &demand);
        // Optimal: put x on the capacity-3 direct path and 4-x on the thin
        // 2-hop path; MLU = max(x/3, (4-x)/1) minimized at x = 3 -> MLU = 1.
        assert!((mlu - 1.0).abs() < 1e-6, "LP MLU = {mlu}");
    }

    #[test]
    fn iterative_engine_is_close_to_lp() {
        let ps = unbalanced();
        let demand = demand_02(&ps, 4.0);
        let problem = MluProblem::new(&ps, demand.clone());
        let lp_cfg = solve_lp(&problem).unwrap();
        let it_cfg =
            solve_iterative(&problem, IterativeSettings { iterations: 800, ..Default::default() });
        let lp_mlu = max_link_utilization_pairs(&ps, &lp_cfg, &demand);
        let it_mlu = max_link_utilization_pairs(&ps, &it_cfg, &demand);
        assert!(it_mlu <= lp_mlu * 1.05 + 1e-6, "iterative {it_mlu} vs LP {lp_mlu}");
    }

    #[test]
    fn sensitivity_bounds_are_respected() {
        let ps = unbalanced();
        let demand = demand_02(&ps, 1.0);
        // Bound of 0.25 (absolute) forces traffic away from the thin path.
        let bounds = vec![0.25; ps.num_pairs()];
        let problem = MluProblem::new(&ps, demand).with_sensitivity_bounds(bounds.clone());
        let cfg = solve_lp(&problem).unwrap();
        let per_pair = max_sensitivity_per_pair(&ps, &cfg);
        for pair in 0..ps.num_pairs() {
            // Bounds may have been relaxed for feasibility; recompute the
            // effective bound the same way the solver does.
            let total_cap: f64 = ps.paths_of_pair(pair).map(|p| ps.path_capacity(p)).sum();
            let effective = bounds[pair].max(1.000_001 / total_cap);
            assert!(
                per_pair[pair] <= effective + 1e-6,
                "pair {pair}: sensitivity {} exceeds bound {effective}",
                per_pair[pair]
            );
        }
    }

    #[test]
    fn availability_masks_failed_paths() {
        let ps = unbalanced();
        let demand = demand_02(&ps, 1.0);
        // Fail every path that uses edge 4 (the 0 -> 2 direct edge).
        let available: Vec<bool> =
            (0..ps.num_paths()).map(|p| !ps.path_edges(p).contains(&4usize)).collect();
        let problem = MluProblem::new(&ps, demand.clone()).with_available(available.clone());
        let lp = solve_lp(&problem).unwrap();
        for cfg in [lp, solve_iterative(&problem, IterativeSettings::default())] {
            for p in 0..ps.num_paths() {
                if !available[p] {
                    assert_eq!(cfg.ratio(p), 0.0, "failed path {p} must carry nothing");
                }
            }
        }
    }

    /// The size rule at its boundary: a single uncapped demand is solved
    /// exactly up to [`LP_PATH_LIMIT`] paths and iteratively above it.
    #[test]
    fn size_rule_boundary() {
        assert!(solves_exactly(LP_PATH_LIMIT));
        assert!(!solves_exactly(LP_PATH_LIMIT + 1));
    }

    #[test]
    fn capped_demands_constrain_the_solution() {
        let ps = unbalanced();
        let normal = demand_02(&ps, 1.0);
        // A hypothetical burst demand whose utilization must stay below 2.0.
        let burst = demand_02(&ps, 5.0);
        let mut problem = MluProblem::new(&ps, normal.clone());
        problem.capped_demands.push((burst.clone(), 2.0));
        let cfg = solve_lp(&problem).unwrap();
        let burst_mlu = max_link_utilization_pairs(&ps, &cfg, &burst);
        assert!(burst_mlu <= 2.0 + 1e-6, "burst MLU {burst_mlu} violates the cap");
    }

    #[test]
    fn empty_problem_is_an_error() {
        let ps = unbalanced();
        let mut p = MluProblem::new(&ps, vec![0.0; ps.num_pairs()]);
        p.demands.clear();
        assert!(matches!(solve_lp(&p), Err(SolveError::NoDemand)));
    }

    /// FNV-1a over the little-endian bytes of each value's bit pattern.
    fn fnv_bits(values: &[f64]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The iterative engine is the other `Graph::backward` + `Adam::step`
    /// caller besides the trainer.  The hash was recorded at the commit
    /// before PR 18 rewrote both (see `crates/core/tests/golden_bits.rs`):
    /// two demands exercise `add` of two scalars, binding sensitivity bounds
    /// exercise the `relu`/`dot_const` penalty over the data-only bounds leaf.
    #[test]
    fn iterative_engine_reproduces_the_recorded_bits() {
        let topo = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&topo, 3);
        let calm: Vec<f64> = (0..ps.num_pairs()).map(|i| 10.0 + 3.0 * (i % 4) as f64).collect();
        let burst: Vec<f64> = (0..ps.num_pairs()).map(|i| 4.0 + 9.0 * (i % 3) as f64).collect();
        let settings = IterativeSettings { iterations: 60, ..Default::default() };
        // One demand: the objective is that demand's smooth MLU alone.
        let single = solve_iterative(&MluProblem::new(&ps, calm.clone()), settings);
        assert_eq!(fnv_bits(single.ratios()), 0xc518_55cc_52cc_284f);
        // Two demands: the objective sums the two smooth MLUs.
        let mut problem = MluProblem::new(&ps, calm);
        problem.demands.push(burst);
        let free = solve_iterative(&problem, settings);
        let uniform = max_sensitivity_per_pair(&ps, &TeConfig::uniform(&ps));
        let bounds: Vec<f64> = uniform.iter().map(|s| 1.05 * s).collect();
        let bounded = solve_iterative(&problem.with_sensitivity_bounds(bounds), settings);
        assert_ne!(free.ratios(), bounded.ratios(), "the bounds must bind");
        assert_eq!(fnv_bits(free.ratios()), 0x750f_f68e_7f91_d7eb);
        assert_eq!(fnv_bits(bounded.ratios()), 0xf572_addb_ccf9_517d);
    }

    #[test]
    fn bound_conversion() {
        assert!((normalized_bound_to_absolute(0.5, 10.0) - 0.05).abs() < 1e-12);
    }
}
