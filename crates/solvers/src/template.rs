//! Warm-started min-MLU templates for snapshot series.
//!
//! Every LP-based scheme evaluated over a trace (omniscient TE, prediction
//! TE, desensitization TE) solves one min-MLU program *per snapshot*, and
//! consecutive programs differ only in the demand values: the path set, the
//! sensitivity bounds and the availability mask are all fixed for the series.
//! [`MluTemplate`] states the program over **path flows** `f_p = d_ij · w_p`
//! rather than split ratios `w_p`:
//!
//! * conservation `Σ_k f_ijk = d_ij` per pair,
//! * capacity `Σ_{p∋e} f_p − c_e · θ ≤ 0` per edge, unit coefficients,
//! * sensitivity `f_p ≤ d_ij · limit_p` where a bound binds,
//!
//! so the demand appears on the right-hand side only.  The matrix — and with
//! it every basis factorization — is demand-invariant, a snapshot costs
//! [`figret_lp::LpTemplate::set_rhs`] calls plus a re-solve seeded from the
//! previous optima, and a previous routing stays one θ pivot from feasible
//! whatever a burst did to the demand (see [`figret_lp::LpTemplate`]).  This
//! is the re-optimise-rates-over-a-fixed-path-set shape of semi-oblivious TE.
//! Ratios come back as `f_p / d_ij`; a pair whose solved demand is zero has
//! no ratios in the program and keeps the ones the template last solved for
//! it (uniform before any), instead of an arbitrary vertex.
//!
//! Before solving, [`MluTemplate::mlu_lower_bound`] bounds the optimum of a
//! new demand from below at O(pairs) cost.  For any edge weights `w ≥ 0`,
//! summing the capacity rows weighted by `w` gives
//! `θ* ≥ Σ_pair d_pair · min_{k ∈ pair} len_w(k) / Σ_e w_e · c_e`; the bound
//! takes the largest value over three families of `w`: the first edges of
//! each source's paths and the last edges of each destination's paths
//! (both reduce to the cut's demand over its capacity), and the capacity
//! rows' multipliers `w_e = max(0, −y_e)` of each of the last
//! [`figret_lp::BASIS_POOL`] optima, stored as per-pair weights.  At the
//! demand an optimum was solved for, its own multipliers give the optimum
//! back (strong duality).
//!
//! The optimal MLU equals [`crate::solve_lp`]'s on the same instance up to
//! solver tolerance: that one-shot program is stated over the ratios (it must
//! be — its multi-matrix variants share `w` across demands), which makes it
//! the independent reference the template's tests compare against.

use std::collections::VecDeque;

use figret_lp::{Direction, LinearProgram, LpTemplate, Relation, SolveStats, BASIS_POOL};
use figret_te::{PathSet, TeConfig};

use crate::engine::{MluProblem, SolveError};

/// A min-MLU program whose structure is built once and re-solved per snapshot
/// with warm starts; see the module docs.
#[derive(Debug)]
pub struct MluTemplate {
    template: LpTemplate,
    /// Conservation row of every pair that has an available path.
    pair_rows: Vec<(usize, usize)>,
    /// Sensitivity rows `(row, pair, limit)`: `f_p ≤ demand[pair] · limit`.
    bound_rows: Vec<(usize, usize, f64)>,
    flow_vars: Vec<usize>,
    /// The ratios last solved for each path — what a zero-demand pair keeps.
    ratios: Vec<f64>,
    /// Whether each path may carry flow.
    available: Vec<bool>,
    /// Capacity row of every edge an available path crosses: `(row, edge)`.
    edge_rows: Vec<(usize, usize)>,
    /// Capacity of each source and destination cut: the distinct first
    /// (last) edges of the available paths leaving (entering) one node.
    cut_capacity: Vec<f64>,
    /// The source and destination cut of each pair, parallel to `pair_rows`.
    pair_cuts: Vec<[usize; 2]>,
    /// Per-pair weights `min_k len_w(k) / Σ_e w_e · c_e` of the last
    /// [`BASIS_POOL`] optima's capacity multipliers, parallel to
    /// `pair_rows`, oldest first.
    dual_weights: VecDeque<Vec<f64>>,
    /// Scratch: the weighted length of each path, and the demand on each
    /// cut.
    path_length: Vec<f64>,
    cut_load: Vec<f64>,
}

impl MluTemplate {
    /// A plain min-MLU template (no sensitivity bounds, all paths available):
    /// the omniscient / prediction-TE series.
    pub fn new(paths: &PathSet) -> MluTemplate {
        MluTemplate::with_options(paths, None, None)
    }

    /// Builds the template with the series-static options: optional per-pair
    /// sensitivity bounds (absolute units, as in
    /// [`MluProblem::with_sensitivity_bounds`]; a scheme's bounds come from
    /// [`crate::desensitization_bounds`] or [`crate::heuristic_absolute_bounds`])
    /// and an optional path availability mask (from
    /// [`figret_te::available_paths`]).  The bound relaxation matches
    /// [`crate::solve_lp`].
    pub fn with_options(
        paths: &PathSet,
        sensitivity_bounds: Option<Vec<f64>>,
        available: Option<Vec<bool>>,
    ) -> MluTemplate {
        // Reuse MluProblem's feasibility relaxation so template and one-shot
        // solves agree exactly; the dummy demand never reaches the LP.
        let mut probe = MluProblem::new(paths, vec![0.0; paths.num_pairs()]);
        probe.sensitivity_bounds = sensitivity_bounds;
        probe.available = available;
        let bounds = probe.feasible_bounds();

        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let flow_vars: Vec<usize> = (0..paths.num_paths()).map(|_| lp.add_variable(0.0)).collect();
        // Every demand-dependent right-hand side starts at zero (the sign
        // class of all of them) and is set per solve.
        let mut pair_rows = Vec::new();
        let mut bound_rows = Vec::new();
        // Before any solve a pair splits uniformly over its available paths
        // (equal weights; `TeConfig::from_raw` normalizes per pair).
        let ratios = (0..paths.num_paths()).map(|p| f64::from(probe.is_available(p))).collect();

        // Per-pair conservation over the available paths.
        for pair in 0..paths.num_pairs() {
            let coeffs: Vec<(usize, f64)> = paths
                .paths_of_pair(pair)
                .filter(|&p| probe.is_available(p))
                .map(|p| (flow_vars[p], 1.0))
                .collect();
            if coeffs.is_empty() {
                continue;
            }
            pair_rows.push((lp.num_constraints(), pair));
            lp.add_constraint(coeffs, Relation::Equal, 0.0);
        }
        // Failed paths carry nothing.
        for p in 0..paths.num_paths() {
            if !probe.is_available(p) {
                lp.add_constraint(vec![(flow_vars[p], 1.0)], Relation::LessEq, 0.0);
            }
        }
        // Edge rows: the flows of the available paths on the edge against the
        // edge's share of theta.
        let mut edge_rows = Vec::new();
        for e in 0..paths.num_edges() {
            let mut coeffs: Vec<(usize, f64)> = paths
                .paths_on_edge(e)
                .iter()
                .filter(|&&p| probe.is_available(p))
                .map(|&p| (flow_vars[p], 1.0))
                .collect();
            if coeffs.is_empty() {
                continue;
            }
            coeffs.push((theta, -paths.edge_capacities()[e]));
            edge_rows.push((lp.num_constraints(), e));
            lp.add_constraint(coeffs, Relation::LessEq, 0.0);
        }
        // Sensitivity bounds: r_p <= bound(pair) * C_p where binding, i.e.
        // f_p <= d * limit.
        if let Some(bounds) = bounds {
            for p in 0..paths.num_paths() {
                if !probe.is_available(p) {
                    continue;
                }
                let pair = paths.pair_of_path(p);
                let limit = bounds[pair] * paths.path_capacity(p);
                if limit < 1.0 {
                    bound_rows.push((lp.num_constraints(), pair, limit));
                    lp.add_constraint(vec![(flow_vars[p], 1.0)], Relation::LessEq, 0.0);
                }
            }
        }

        let available: Vec<bool> = (0..paths.num_paths()).map(|p| probe.is_available(p)).collect();
        let (cut_capacity, pair_cuts) = cuts(paths, &pair_rows, &available);
        MluTemplate {
            template: LpTemplate::new(lp),
            pair_rows,
            bound_rows,
            flow_vars,
            ratios,
            available,
            edge_rows,
            cut_load: vec![0.0; cut_capacity.len()],
            cut_capacity,
            pair_cuts,
            dual_weights: VecDeque::with_capacity(BASIS_POOL),
            path_length: vec![0.0; paths.num_paths()],
        }
    }

    /// Solves the template for one demand matrix (`flatten_pairs` order),
    /// warm starting from the previous snapshots' optima when available.
    /// Negative and non-finite demands count as zero.  Returns the
    /// split-ratio configuration plus the solve's counters
    /// (`stats.warm_started` reports whether a basis seed was accepted).
    pub fn solve(
        &mut self,
        paths: &PathSet,
        demand_pairs: &[f64],
    ) -> Result<(TeConfig, SolveStats), SolveError> {
        assert_eq!(demand_pairs.len(), paths.num_pairs(), "one demand per SD pair is required");
        let demand = |pair: usize| clean_demand(demand_pairs[pair]);
        for &(row, pair) in &self.pair_rows {
            self.template.set_rhs(row, demand(pair));
        }
        for &(row, pair, limit) in &self.bound_rows {
            self.template.set_rhs(row, demand(pair) * limit);
        }
        let solution = self.template.solve().map_err(SolveError::Lp)?;
        for &(_, pair) in &self.pair_rows {
            let range = paths.paths_of_pair(pair);
            let d = demand(pair);
            let carried: f64 = range.clone().map(|p| solution.values[self.flow_vars[p]]).sum();
            if d > 0.0 && carried > 0.0 {
                for p in range {
                    self.ratios[p] = solution.values[self.flow_vars[p]] / d;
                }
            }
        }
        self.remember_duals(paths, &solution.duals);
        Ok((TeConfig::from_raw(paths, &self.ratios), solution.stats))
    }

    /// A lower bound on the optimal MLU of `demand_pairs` (`flatten_pairs`
    /// order, cleaned as in [`MluTemplate::solve`]) without solving: the
    /// largest cut and pooled-multiplier bound of the module docs, shrunk by
    /// a relative 1e-9 for rounding.  Sensitivity bounds only raise the
    /// optimum, so the bound holds for every template.  O(pairs ·
    /// [`BASIS_POOL`]); allocation-free.
    pub fn mlu_lower_bound(&mut self, demand_pairs: &[f64]) -> f64 {
        self.cut_load.fill(0.0);
        let mut best = 0.0f64;
        for (&(_, pair), cuts) in self.pair_rows.iter().zip(&self.pair_cuts) {
            let d = clean_demand(demand_pairs[pair]);
            for &cut in cuts {
                self.cut_load[cut] += d;
            }
        }
        for (&load, &capacity) in self.cut_load.iter().zip(&self.cut_capacity) {
            if capacity > 0.0 {
                best = best.max(load / capacity);
            }
        }
        for weights in &self.dual_weights {
            let bound: f64 = self
                .pair_rows
                .iter()
                .zip(weights)
                .map(|(&(_, pair), &w)| clean_demand(demand_pairs[pair]) * w)
                .sum();
            best = best.max(bound);
        }
        best * (1.0 - 1e-9)
    }

    /// Stores the per-pair weights of an optimum's capacity multipliers
    /// `w_e = max(0, −y_e)` (a `≤` row's multiplier is ≤ 0 in a
    /// minimization), evicting the oldest beyond [`BASIS_POOL`].  Multipliers
    /// that weigh no capacity (a zero-demand optimum) bound nothing and are
    /// not kept.
    fn remember_duals(&mut self, paths: &PathSet, duals: &[f64]) {
        self.path_length.fill(0.0);
        let mut total = 0.0;
        for &(row, e) in &self.edge_rows {
            let w = (-duals[row]).max(0.0);
            if w > 0.0 {
                total += w * paths.edge_capacities()[e];
                for &p in paths.paths_on_edge(e) {
                    self.path_length[p] += w;
                }
            }
        }
        if !(total > 0.0 && total.is_finite()) {
            return;
        }
        let mut weights = if self.dual_weights.len() == BASIS_POOL {
            self.dual_weights.pop_front().expect("a full pool is not empty")
        } else {
            Vec::with_capacity(self.pair_rows.len())
        };
        weights.clear();
        for &(_, pair) in &self.pair_rows {
            let shortest = paths
                .paths_of_pair(pair)
                .filter(|&p| self.available[p])
                .map(|p| self.path_length[p])
                .fold(f64::INFINITY, f64::min);
            weights.push(shortest / total);
        }
        self.dual_weights.push_back(weights);
    }

    /// Whether the next solve will attempt a warm start.
    pub fn has_warm_basis(&self) -> bool {
        self.template.has_warm_basis()
    }

    /// Drops the stored basis, forcing the next solve to run cold.
    pub fn clear_basis(&mut self) {
        self.template.clear_basis();
    }
}

/// A demand as the template reads it: negative and non-finite values count
/// as zero.
fn clean_demand(d: f64) -> f64 {
    if d.is_finite() {
        d.max(0.0)
    } else {
        0.0
    }
}

/// The source and destination cuts of the pairs in `pair_rows`: each cut's
/// capacity (its distinct first or last edges over the available paths) and
/// each pair's `[source cut, destination cut]`.
fn cuts(
    paths: &PathSet,
    pair_rows: &[(usize, usize)],
    available: &[bool],
) -> (Vec<f64>, Vec<[usize; 2]>) {
    let nodes = paths.num_nodes();
    // Cut of each node as a source (`node`) and as a destination
    // (`nodes + node`).
    let mut cut_of = vec![usize::MAX; 2 * nodes];
    let mut cut_edges: Vec<Vec<usize>> = Vec::new();
    let mut pair_cuts = Vec::with_capacity(pair_rows.len());
    for &(_, pair) in pair_rows {
        let (source, destination) = paths.pairs()[pair];
        let mut cuts = [0; 2];
        for (side, key) in [source.0, nodes + destination.0].into_iter().enumerate() {
            if cut_of[key] == usize::MAX {
                cut_of[key] = cut_edges.len();
                cut_edges.push(Vec::new());
            }
            cuts[side] = cut_of[key];
            for p in paths.paths_of_pair(pair).filter(|&p| available[p]) {
                let edges = paths.path_edges(p);
                let end = if side == 0 { edges.first() } else { edges.last() };
                cut_edges[cut_of[key]].extend(end);
            }
        }
        pair_cuts.push(cuts);
    }
    let capacities = cut_edges
        .into_iter()
        .map(|mut edges| {
            edges.sort_unstable();
            edges.dedup();
            edges.iter().map(|&e| paths.edge_capacities()[e]).sum()
        })
        .collect();
    (capacities, pair_cuts)
}

/// Accumulated solver-work counters over a series of template solves,
/// threaded into the evaluation reports.  Only template solves are recorded,
/// so a series on the iterative engine counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesStats {
    /// Number of LP solves recorded.
    pub solves: usize,
    /// How many of them ran from an accepted warm basis.
    pub warm_solves: usize,
    /// Summed per-solve counters (pivots per phase, reinversions).
    pub totals: SolveStats,
}

impl SeriesStats {
    /// Records one solve.
    pub fn record(&mut self, stats: &SolveStats) {
        self.solves += 1;
        if stats.warm_started {
            self.warm_solves += 1;
        }
        self.totals.absorb(stats);
    }

    /// Merges another accumulator (parallel shards).
    pub fn merge(&mut self, other: &SeriesStats) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.totals.absorb(&other.totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::solve_lp;
    use crate::schemes::{desensitization_bounds, DesensitizationSettings};
    use figret_te::{available_paths, max_link_utilization_pairs};
    use figret_topology::{random_link_failures, FabricSpec, Topology, TopologySpec};
    use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
    use figret_traffic::ActivePairs;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn pod_paths() -> PathSet {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        PathSet::k_shortest(&g, 3)
    }

    fn demand_series(ps: &PathSet, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|t| {
                (0..ps.num_pairs())
                    .map(|i| 10.0 + 3.0 * (((t + i) % 5) as f64) + t as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn template_matches_one_shot_lp_across_a_series() {
        let ps = pod_paths();
        let mut template = MluTemplate::new(&ps);
        let mut stats = SeriesStats::default();
        for (t, demand) in demand_series(&ps, 6).iter().enumerate() {
            let (config, solve_stats) = template.solve(&ps, demand).unwrap();
            stats.record(&solve_stats);
            let one_shot = solve_lp(&MluProblem::new(&ps, demand.clone())).unwrap();
            let a = max_link_utilization_pairs(&ps, &config, demand);
            let b = max_link_utilization_pairs(&ps, &one_shot, demand);
            assert!((a - b).abs() < 1e-6, "snapshot {t}: template {a} vs one-shot {b}");
        }
        assert_eq!(stats.solves, 6);
        assert!(stats.warm_solves >= 4, "most re-solves must warm start ({stats:?})");
        assert_eq!(
            stats.totals.iterations,
            stats.totals.phase1_iterations + stats.totals.phase2_iterations
        );
    }

    #[test]
    fn warm_resolves_do_less_work_than_cold() {
        let ps = pod_paths();
        let series = demand_series(&ps, 5);
        let mut template = MluTemplate::new(&ps);
        let (_, cold) = template.solve(&ps, &series[0]).unwrap();
        assert!(!cold.warm_started);
        let mut warm_pivots = 0usize;
        for demand in &series[1..] {
            let (_, s) = template.solve(&ps, demand).unwrap();
            assert!(s.warm_started);
            warm_pivots = warm_pivots.max(s.iterations);
        }
        // On a pod-sized instance the crash-started cold solve is itself only
        // a handful of pivots, so "fewer than cold" is not meaningful; what
        // matters is that every warm re-solve stays a small constant amount
        // of work instead of re-running a full solve.
        assert!(
            warm_pivots <= cold.iterations + 16,
            "warm re-solves ({warm_pivots} pivots) must stay near the cold solve ({})",
            cold.iterations
        );
    }

    #[test]
    fn template_with_bounds_matches_desensitization_config() {
        let ps = pod_paths();
        let pairs = ActivePairs::all(4);
        let history: Vec<Vec<f64>> = (0..4)
            .map(|t| pairs.iter().map(|(_, s, d)| 15.0 + 4.0 * ((t + s * d) % 3) as f64).collect())
            .collect();
        // Des TE solves for the window's element-wise peak.
        let mut peak = history[0].clone();
        for column in &history[1..] {
            figret_traffic::ops::max_assign(&mut peak, column);
        }
        let bounds = desensitization_bounds(&ps, &DesensitizationSettings::default());
        let mut template = MluTemplate::with_options(&ps, Some(bounds.clone()), None);
        let (config, _) = template.solve(&ps, &peak).unwrap();
        let one_shot = MluProblem::new(&ps, peak).with_sensitivity_bounds(bounds);
        let reference = solve_lp(&one_shot).unwrap();
        let d = history.last().unwrap();
        let a = max_link_utilization_pairs(&ps, &config, d);
        let b = max_link_utilization_pairs(&ps, &reference, d);
        assert!((a - b).abs() < 1e-6, "template {a} vs one-shot Des TE {b}");
    }

    #[test]
    fn template_with_availability_pins_failed_paths() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let scenario = random_link_failures(&g, 1, 5).unwrap();
        let alive = available_paths(&ps, &scenario);
        let mut template = MluTemplate::with_options(&ps, None, Some(alive.clone()));
        let demand = demand_series(&ps, 1).remove(0);
        let (config, _) = template.solve(&ps, &demand).unwrap();
        for p in 0..ps.num_paths() {
            if !alive[p] {
                assert_eq!(config.ratio(p), 0.0, "failed path {p} must carry nothing");
            }
        }
    }

    #[test]
    fn restricted_template_matches_the_full_program_within_1e9() {
        // A fleet shard's template: the plain template over a path set
        // restricted to a sparse pair universe.  `restrict_to` keeps the full
        // edge universe, so its MLU on the active column is the full
        // program's on the scattered dense demand.
        let g = TopologySpec::full_scale(Topology::Geant).build();
        let ps = PathSet::k_shortest(&g, 3);
        let active = ActivePairs::sample_per_source(g.num_nodes(), 4, 29);
        let (sub, _) = ps.restrict_to(&active);
        assert_eq!(sub.num_pairs(), active.len());
        let base: Vec<f64> =
            active.iter().map(|(_, s, d)| 5.0 + ((s * 13 + d * 3) % 11) as f64).collect();

        let mut full = MluTemplate::new(&ps);
        let mut restricted = MluTemplate::new(&sub);
        for scale in [1.0, 1.08, 0.93] {
            let column: Vec<f64> = base.iter().map(|v| v * scale).collect();
            let mut dense_pairs = vec![0.0; ps.num_pairs()];
            for ((_, s, d), v) in active.iter().zip(&column) {
                let pair = ps.pairs().iter().position(|&(a, b)| (a.0, b.0) == (s, d)).unwrap();
                dense_pairs[pair] = *v;
            }
            let (cfg_full, _) = full.solve(&ps, &dense_pairs).unwrap();
            let (cfg_restricted, _) = restricted.solve(&sub, &column).unwrap();
            let a = max_link_utilization_pairs(&ps, &cfg_full, &dense_pairs);
            let b = max_link_utilization_pairs(&sub, &cfg_restricted, &column);
            assert!((a - b).abs() < 1e-9, "full {a} vs restricted {b}");
            assert!(cfg_restricted.is_valid(&sub));
        }
        assert!(restricted.has_warm_basis(), "re-solves must reuse the basis");
    }

    /// Six snapshots built from two base matrices so that one series walks
    /// every start of the solver: a cold solve, a small drift (warm basis
    /// accepted), an unrelated matrix with another support (damage gate
    /// rejects the basis, the crash seeds from the last optimum), an exact
    /// revisit (pool hit), a rescaled revisit, and the drift again.
    fn mixed_series(a: &[f64], b: &[f64]) -> Vec<Vec<f64>> {
        let drift = |m: &[f64]| -> Vec<f64> {
            m.iter().enumerate().map(|(i, v)| v * (1.0 + 0.01 * ((i % 5) as f64 - 2.0))).collect()
        };
        let scaled: Vec<f64> = b.iter().map(|v| 1.7 * v).collect();
        vec![a.to_vec(), drift(a), b.to_vec(), a.to_vec(), scaled, drift(b)]
    }

    /// A demand matrix with `zero_share` of its pairs silent.
    fn masked(values: &[f64], mask: &[f64], zero_share: f64) -> Vec<f64> {
        values.iter().zip(mask).map(|(&v, &m)| if m < zero_share { 0.0 } else { v }).collect()
    }

    /// Template (flow form) against the one-shot `solve_lp` (weight form, the
    /// independent reference) on the optimal MLU of every snapshot, for the
    /// plain, the desensitization and the availability-masked template.
    ///
    /// The lower bound rides along: before and after each solve it may not
    /// exceed the one-shot optimum (1e-9), and on the plain template right
    /// after a solve — the pool now holds the solve's own multipliers — it
    /// equals the optimum within 1e-7, which pins the sign and orientation
    /// of the duals.  The other two only keep the inequality: sensitivity
    /// rows raise the optimum above what capacity multipliers certify, and
    /// a pair whose every path failed loads the evaluated MLU but not the
    /// program.
    fn assert_series_matches_one_shot(ps: &PathSet, alive: &[bool], series: &[Vec<f64>]) {
        let settings = DesensitizationSettings::default();
        let mut plain = MluTemplate::new(ps);
        let bounds = desensitization_bounds(ps, &settings);
        let mut bounded = MluTemplate::with_options(ps, Some(bounds.clone()), None);
        let mut masked = MluTemplate::with_options(ps, None, Some(alive.to_vec()));
        for (t, demand) in series.iter().enumerate() {
            let problem = || MluProblem::new(ps, demand.clone());
            let cases = [
                ("plain", &mut plain, problem()),
                ("bounded", &mut bounded, problem().with_sensitivity_bounds(bounds.clone())),
                ("masked", &mut masked, problem().with_available(alive.to_vec())),
            ];
            for (name, template, problem) in cases {
                let bound = template.mlu_lower_bound(demand);
                let (config, _) = template.solve(ps, demand).unwrap();
                assert!(config.is_valid(ps), "{name}, snapshot {t}: invalid ratios");
                let reference = crate::solve_lp(&problem).unwrap();
                let a = max_link_utilization_pairs(ps, &config, demand);
                let b = max_link_utilization_pairs(ps, &reference, demand);
                assert!((a - b).abs() < 1e-7, "{name}, snapshot {t}: template {a} vs one-shot {b}");
                assert!(bound <= b + 1e-9, "{name}, snapshot {t}: bound {bound} above optimum {b}");
                let own = template.mlu_lower_bound(demand);
                if name == "plain" {
                    assert!((own - a).abs() < 1e-7, "{name}, snapshot {t}: own bound {own} vs {a}");
                } else {
                    assert!(own <= b + 1e-9, "{name}, snapshot {t}: bound {own} above optimum {b}");
                }
            }
        }
    }

    fn topology_paths(topology: Topology, failed_links: usize) -> (PathSet, Vec<bool>) {
        let g = TopologySpec::full_scale(topology).build();
        let ps = PathSet::k_shortest(&g, 3);
        let alive = available_paths(&ps, &random_link_failures(&g, failed_links, 5).unwrap());
        (ps, alive)
    }

    /// Two random matrices over `pairs` pairs, 0–50 % of each silent, woven
    /// into a [`mixed_series`].
    fn mixed_series_strategy(pairs: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
        let matrix = || proptest::collection::vec(1.0f64..20.0, pairs);
        let mask = || proptest::collection::vec(0.0f64..1.0, pairs);
        (matrix(), matrix(), mask(), mask(), 0.0f64..0.5).prop_map(
            |(a, b, mask_a, mask_b, share)| {
                mixed_series(&masked(&a, &mask_a, share), &masked(&b, &mask_b, share))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn flow_template_matches_the_one_shot_lp_on_pod_db(series in mixed_series_strategy(12)) {
            let (ps, alive) = topology_paths(Topology::MetaDbPod, 1);
            prop_assert_eq!(ps.num_pairs(), 12);
            assert_series_matches_one_shot(&ps, &alive, &series);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn flow_template_matches_the_one_shot_lp_on_geant(series in mixed_series_strategy(506)) {
            let (ps, alive) = topology_paths(Topology::Geant, 2);
            prop_assert_eq!(ps.num_pairs(), 506);
            assert_series_matches_one_shot(&ps, &alive, &series);
        }
    }

    /// The lp_monolith scenario at test size: an 80-ToR jellyfish fabric, a
    /// sampled pair universe and its bursty sparse trace.
    fn bursty_fabric(snapshots: usize) -> (PathSet, Vec<Vec<f64>>) {
        let fabric = FabricSpec::jellyfish(80).build();
        let nodes = fabric.graph.num_nodes();
        let active = Arc::new(ActivePairs::sample_among(nodes, fabric.num_tors, 8, 7));
        let ps = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
        let config = TorTrafficConfig { num_snapshots: snapshots, seed: 7, ..Default::default() };
        let trace = tor_trace_sparse(&fabric.graph, &active, &config);
        let columns = trace.snapshots().iter().map(|c| c.values().to_vec()).collect();
        (ps, columns)
    }

    /// On the bursty fabric the mixed series really does reach every start —
    /// accepted bases, a rejected basis that falls to the seeded crash, a
    /// pivot-free pool hit — and stays equal to the one-shot LP throughout
    /// (the WAN-sized programs above rarely damage a basis enough to reject).
    #[test]
    fn mixed_series_exercises_every_start_on_the_bursty_fabric() {
        let (ps, columns) = bursty_fabric(40);
        let series = mixed_series(&columns[0], &columns[39]);
        let mut template = MluTemplate::new(&ps);
        let stats: Vec<SolveStats> =
            series.iter().map(|d| template.solve(&ps, d).unwrap().1).collect();
        assert!(!stats[0].warm_started);
        assert!(stats[1].warm_started, "a 2% drift must keep the basis");
        assert!(!stats[2].warm_started, "a burst must be rejected by the damage gate");
        assert!(
            stats[2].iterations < stats[0].iterations,
            "the seeded crash ({} pivots) must beat the unseeded one ({})",
            stats[2].iterations,
            stats[0].iterations
        );
        assert!(
            stats[3].warm_started && stats[3].iterations == 0,
            "an exact revisit hits the pool"
        );
        assert_series_matches_one_shot(&ps, &vec![true; ps.num_paths()], &series);
    }

    /// Before any solve only the cuts bound, and they bound: demand on a
    /// single pair loads its source cut exactly, so the bound is at least
    /// that demand over the cut's capacity.
    #[test]
    fn cut_bound_is_the_busiest_cut_over_its_capacity() {
        let ps = pod_paths();
        let mut template = MluTemplate::new(&ps);
        let zeros = vec![0.0; ps.num_pairs()];
        assert_eq!(template.mlu_lower_bound(&zeros), 0.0);
        let demand = demand_series(&ps, 1).remove(0);
        let bound = template.mlu_lower_bound(&demand);
        let (config, _) = template.solve(&ps, &demand).unwrap();
        let optimum = max_link_utilization_pairs(&ps, &config, &demand);
        assert!(bound > 0.0 && bound <= optimum, "cut bound {bound} vs optimum {optimum}");
        let mut single = zeros.clone();
        single[0] = 30.0;
        let mut fresh = MluTemplate::new(&ps);
        let (source, _) = ps.pairs()[0];
        let mut first_edges: Vec<usize> = (0..ps.num_pairs())
            .filter(|&pair| ps.pairs()[pair].0 == source)
            .flat_map(|pair| ps.paths_of_pair(pair).map(|p| ps.path_edges(p)[0]))
            .collect();
        first_edges.sort_unstable();
        first_edges.dedup();
        let capacity: f64 = first_edges.iter().map(|&e| ps.edge_capacities()[e]).sum();
        let expected = 30.0 / capacity * (1.0 - 1e-9);
        assert!(fresh.mlu_lower_bound(&single) >= expected);
        // Malformed demands count as zero, as in `solve`.
        single[1] = f64::NAN;
        single[2] = -5.0;
        assert!(fresh.mlu_lower_bound(&single) >= expected);
    }

    #[test]
    fn zero_demand_pairs_keep_their_last_solved_ratios() {
        let ps = pod_paths();
        let mut template = MluTemplate::new(&ps);
        let uniform = TeConfig::uniform(&ps);
        let pair_ratios = |config: &TeConfig, pair: usize| -> Vec<f64> {
            ps.paths_of_pair(pair).map(|p| config.ratio(p)).collect()
        };
        // Pair 0 silent from the start: uniform until it is first solved.
        let mut demand = demand_series(&ps, 1).remove(0);
        demand[0] = 0.0;
        let (config, _) = template.solve(&ps, &demand).unwrap();
        assert!(config.is_valid(&ps));
        assert_eq!(pair_ratios(&config, 0), pair_ratios(&uniform, 0));
        // Load it hard enough that the optimum is not the uniform split...
        demand[0] = 400.0;
        let (loaded, _) = template.solve(&ps, &demand).unwrap();
        assert_ne!(pair_ratios(&loaded, 0), pair_ratios(&uniform, 0));
        // ...then silence it again, twice, under a different matrix: it keeps
        // exactly what the last non-zero solve gave it.
        for scale in [1.0, 3.0] {
            let mut quiet: Vec<f64> = demand.iter().map(|d| d * scale).collect();
            quiet[0] = 0.0;
            let (config, _) = template.solve(&ps, &quiet).unwrap();
            assert!(config.is_valid(&ps));
            assert_eq!(pair_ratios(&config, 0), pair_ratios(&loaded, 0));
        }
    }

    #[test]
    fn malformed_demands_count_as_zero() {
        let ps = pod_paths();
        let mut template = MluTemplate::new(&ps);
        let normal = demand_series(&ps, 1).remove(0);
        let mut hostile = normal.clone();
        hostile[0] = f64::NAN;
        hostile[1] = f64::INFINITY;
        hostile[2] = f64::NEG_INFINITY;
        hostile[3] = -1.0;
        let mut cleaned = normal.clone();
        cleaned[..4].fill(0.0);
        let zeros = vec![0.0; ps.num_pairs()];
        for demand in [&hostile, &zeros, &normal] {
            let (config, _) = template.solve(&ps, demand).unwrap();
            assert!(config.is_valid(&ps));
            assert!(config.ratios().iter().all(|r| r.is_finite() && *r >= 0.0));
        }
        // The hostile column solves as its cleaned twin, to the bit.
        let mut a = MluTemplate::new(&ps);
        let mut b = MluTemplate::new(&ps);
        let (from_hostile, _) = a.solve(&ps, &hostile).unwrap();
        let (from_cleaned, _) = b.solve(&ps, &cleaned).unwrap();
        assert_eq!(from_hostile.ratios(), from_cleaned.ratios());
        assert!(max_link_utilization_pairs(&ps, &from_hostile, &cleaned).is_finite());
    }

    /// The tail the flow form exists for: on a bursty 80-ToR fabric no solve
    /// may cost a multiple of the typical one.  With the demand in the matrix
    /// every rejected basis restarted from the lowest-index routing and the
    /// worst solve of this series took ≈ 7× the median's pivots; seeded from
    /// the last optimum it stays under 3×.
    #[test]
    fn bursty_fabric_pivot_tail_stays_within_4x_of_the_median() {
        let (ps, columns) = bursty_fabric(200);
        let mut template = MluTemplate::new(&ps);
        let mut pivots: Vec<usize> =
            columns.iter().map(|d| template.solve(&ps, d).unwrap().1.iterations).collect();
        pivots.sort_unstable();
        let (median, max) = (pivots[pivots.len() / 2], pivots[pivots.len() - 1]);
        assert!(max < 4 * median, "max {max} pivots vs median {median}");
    }

    #[test]
    fn zero_demand_snapshots_are_handled() {
        let ps = pod_paths();
        let mut template = MluTemplate::new(&ps);
        let zeros = vec![0.0; ps.num_pairs()];
        let (config, _) = template.solve(&ps, &zeros).unwrap();
        let mlu = max_link_utilization_pairs(&ps, &config, &zeros);
        assert!(mlu.abs() < 1e-9);
        // And a normal demand right after.
        let demand = demand_series(&ps, 1).remove(0);
        let (config, _) = template.solve(&ps, &demand).unwrap();
        assert!(max_link_utilization_pairs(&ps, &config, &demand).is_finite());
    }
}
