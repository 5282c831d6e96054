//! Differentiable TE expressions on the autograd tape.
//!
//! Both FIGRET's training loss (Equations 7 and 8 of the paper) and the
//! iterative gradient-based TE solver need to express the same quantities as
//! differentiable functions of a raw per-path weight vector:
//!
//! * split ratios — sigmoid followed by per-SD-pair normalization,
//! * maximum link utilization `M(R, D)` via the incidence matrices of
//!   Function 1 (Appendix D.1), one value per batch row, either exactly
//!   (`row_max`) or smoothed (`row_logsumexp`),
//! * the fine-grained sensitivity penalty `Σ_sd σ²_sd · S^max_sd`.
//!
//! [`DiffTe`] pre-computes the constant structures (segments, path→edge
//! incidence, capacity vectors) once per [`PathSet`] so that per-sample graph
//! construction stays cheap.

use std::sync::Arc;

use figret_nn::{Graph, SparseMatrix, Var};

use crate::pathset::PathSet;

/// How to aggregate per-edge utilizations into the loss term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MluAggregation {
    /// Exact maximum (sub-gradient flows to the bottleneck edge only).
    Max,
    /// Smooth maximum `T · ln Σ exp(u_e / T)` with the given temperature.
    SmoothMax(f64),
}

/// Pre-computed constant structures for differentiable TE expressions.
#[derive(Debug, Clone)]
pub struct DiffTe {
    /// Per-pair path index ranges (the normalization segments).
    segments: Arc<Vec<std::ops::Range<usize>>>,
    /// Edge × path incidence matrix (entries are 1).
    edge_by_path: Arc<SparseMatrix>,
    /// `1 / c(e)` per edge.
    inv_edge_capacity: Arc<Vec<f64>>,
    /// `1 / C_p` per path.
    inv_path_capacity: Arc<Vec<f64>>,
    num_pairs: usize,
    num_paths: usize,
}

impl DiffTe {
    /// Builds the constant structures for a path set.
    pub fn new(paths: &PathSet) -> DiffTe {
        let segments: Vec<std::ops::Range<usize>> =
            (0..paths.num_pairs()).map(|pair| paths.paths_of_pair(pair)).collect();
        let rows: Vec<Vec<(usize, f64)>> = (0..paths.num_edges())
            .map(|e| paths.paths_on_edge(e).iter().map(|&p| (p, 1.0)).collect())
            .collect();
        let edge_by_path = SparseMatrix::from_rows(paths.num_edges(), paths.num_paths(), &rows);
        let inv_edge_capacity: Vec<f64> = paths.edge_capacities().iter().map(|c| 1.0 / c).collect();
        let inv_path_capacity: Vec<f64> = paths.path_capacities().iter().map(|c| 1.0 / c).collect();
        DiffTe {
            segments: Arc::new(segments),
            edge_by_path: Arc::new(edge_by_path),
            inv_edge_capacity: Arc::new(inv_edge_capacity),
            inv_path_capacity: Arc::new(inv_path_capacity),
            num_pairs: paths.num_pairs(),
            num_paths: paths.num_paths(),
        }
    }

    /// Number of SD pairs.
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Number of candidate paths.
    pub fn num_paths(&self) -> usize {
        self.num_paths
    }

    /// The per-pair path index ranges (the normalization segments), in pair
    /// order.
    pub fn segments(&self) -> &[std::ops::Range<usize>] {
        &self.segments
    }

    /// Turns raw (unbounded) per-path weights into split ratios:
    /// `ratios = segment_normalize(sigmoid(raw))`.
    pub fn ratios_from_raw(&self, graph: &mut Graph, raw: Var) -> Var {
        let positive = graph.sigmoid(raw);
        graph.segment_normalize(positive, Arc::clone(&self.segments))
    }

    /// Per-SD-pair normalization of an already non-negative weight node.
    pub fn normalize(&self, graph: &mut Graph, nonnegative: Var) -> Var {
        graph.segment_normalize(nonnegative, Arc::clone(&self.segments))
    }

    /// Per-edge utilizations for a batch: `ratios` is a `B×num_paths` node and
    /// `demand_rows` holds `B` demand vectors (`flatten_pairs` order, row
    /// major, `B × num_pairs` values).  The result is a `B×num_edges` node.
    pub fn edge_utilizations_batch(
        &self,
        graph: &mut Graph,
        ratios: Var,
        demand_rows: &[f64],
    ) -> Var {
        let batch = graph.value(ratios).rows();
        assert_eq!(
            demand_rows.len(),
            batch * self.num_pairs,
            "one demand per SD pair per batch row is required"
        );
        // flow_p = d_{pair(p)} * r_p per row — expand per-pair demands to a
        // full B×num_paths constant (each row has its own demands).
        let mut per_path_demand = vec![0.0; batch * self.num_paths];
        for b in 0..batch {
            let demand = &demand_rows[b * self.num_pairs..(b + 1) * self.num_pairs];
            let out = &mut per_path_demand[b * self.num_paths..(b + 1) * self.num_paths];
            for (pair, seg) in self.segments.iter().enumerate() {
                for p in seg.clone() {
                    out[p] = demand[pair];
                }
            }
        }
        let flows = graph.mul_const(ratios, Arc::new(per_path_demand));
        let loads = graph.sparse_matvec(flows, Arc::clone(&self.edge_by_path));
        graph.mul_const(loads, Arc::clone(&self.inv_edge_capacity))
    }

    /// Per-sample MLU of a batch as a `B×1` node (one `M(R_b, D_b)` per row;
    /// a `1×1` scalar for one sample).
    pub fn mlu_batch(
        &self,
        graph: &mut Graph,
        ratios: Var,
        demand_rows: &[f64],
        aggregation: MluAggregation,
    ) -> Var {
        let utils = self.edge_utilizations_batch(graph, ratios, demand_rows);
        match aggregation {
            MluAggregation::Max => graph.row_max(utils),
            MluAggregation::SmoothMax(t) => graph.row_logsumexp(utils, t),
        }
    }

    /// Per-pair maximum path sensitivity `S^max_sd` as a `1×num_pairs` node.
    pub fn max_sensitivity_per_pair(&self, graph: &mut Graph, ratios: Var) -> Var {
        let sens = graph.mul_const(ratios, Arc::clone(&self.inv_path_capacity));
        graph.segment_max(sens, Arc::clone(&self.segments))
    }

    /// The fine-grained robustness penalty `Σ_sd weight_sd · S^max_sd`
    /// (Equation 8 with `weight = σ²`).
    ///
    /// Batch-transparent: for a `B×num_paths` ratio node the result is a
    /// `B×1` column of per-sample penalties (a `1×1` scalar for one sample).
    /// The weights are shared with the tape, not copied.
    pub fn sensitivity_penalty(
        &self,
        graph: &mut Graph,
        ratios: Var,
        weights: &Arc<Vec<f64>>,
    ) -> Var {
        assert_eq!(weights.len(), self.num_pairs, "one weight per SD pair is required");
        let per_pair = self.max_sensitivity_per_pair(graph, ratios);
        graph.dot_const(per_pair, Arc::clone(weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TeConfig;
    use crate::mlu::max_link_utilization_pairs;
    use crate::sensitivity::robustness_penalty;
    use figret_nn::Tensor;
    use figret_topology::{Topology, TopologySpec};

    fn setup() -> (PathSet, DiffTe) {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let d = DiffTe::new(&ps);
        (ps, d)
    }

    #[test]
    fn differentiable_mlu_matches_reference_implementation() {
        let (ps, diff) = setup();
        let mut g = Graph::new();
        g.seal();
        let raw_values: Vec<f64> = (0..ps.num_paths()).map(|i| (i as f64 * 0.37).sin()).collect();
        let raw = g.input(Tensor::row(&raw_values));
        let ratios = diff.ratios_from_raw(&mut g, raw);
        let demand: Vec<f64> = (0..ps.num_pairs()).map(|i| 10.0 + i as f64).collect();
        let mlu = diff.mlu_batch(&mut g, ratios, &demand, MluAggregation::Max);

        // Reference: build a TeConfig from the same ratios and evaluate.
        let cfg = TeConfig::from_raw(&ps, g.value(ratios).data());
        let reference = max_link_utilization_pairs(&ps, &cfg, &demand);
        assert!((g.value(mlu).as_scalar() - reference).abs() < 1e-9);
    }

    #[test]
    fn smooth_max_upper_bounds_exact_max() {
        let (ps, diff) = setup();
        let mut g = Graph::new();
        g.seal();
        let raw = g.input(Tensor::zeros(1, ps.num_paths()));
        let ratios = diff.ratios_from_raw(&mut g, raw);
        let demand = vec![25.0; ps.num_pairs()];
        let exact = diff.mlu_batch(&mut g, ratios, &demand, MluAggregation::Max);
        let smooth = diff.mlu_batch(&mut g, ratios, &demand, MluAggregation::SmoothMax(0.01));
        let e = g.value(exact).as_scalar();
        let s = g.value(smooth).as_scalar();
        assert!(s >= e);
        assert!(s - e < 0.05 * e + 0.05, "smooth max too loose: {s} vs {e}");
    }

    #[test]
    fn sensitivity_penalty_matches_reference() {
        let (ps, diff) = setup();
        let mut g = Graph::new();
        g.seal();
        let raw = g.input(Tensor::row(&vec![0.3; ps.num_paths()]));
        let ratios = diff.ratios_from_raw(&mut g, raw);
        let weights: Arc<Vec<f64>> =
            Arc::new((0..ps.num_pairs()).map(|i| i as f64 * 0.5).collect());
        let penalty = diff.sensitivity_penalty(&mut g, ratios, &weights);
        let cfg = TeConfig::from_raw(&ps, g.value(ratios).data());
        let reference = robustness_penalty(&ps, &cfg, &weights);
        assert!((g.value(penalty).as_scalar() - reference).abs() < 1e-9);
    }

    #[test]
    fn batched_mlu_matches_per_sample_mlu() {
        let (ps, diff) = setup();
        let batch = 3;
        let demands: Vec<Vec<f64>> = (0..batch)
            .map(|b| (0..ps.num_pairs()).map(|i| 5.0 + (b * 7 + i) as f64).collect())
            .collect();
        let raws: Vec<Vec<f64>> = (0..batch)
            .map(|b| {
                (0..ps.num_paths()).map(|i| ((b + 2) as f64 * 0.31 * i as f64).cos()).collect()
            })
            .collect();

        // Batched: one graph pass over all samples.
        let mut g = Graph::new();
        g.seal();
        let mut stacked = Vec::new();
        for r in &raws {
            stacked.extend_from_slice(r);
        }
        let raw = g.input(Tensor::from_vec(batch, ps.num_paths(), stacked));
        let ratios = diff.ratios_from_raw(&mut g, raw);
        let flat_demands: Vec<f64> = demands.iter().flatten().cloned().collect();
        let mlu_col = diff.mlu_batch(&mut g, ratios, &flat_demands, MluAggregation::Max);
        assert_eq!(g.value(mlu_col).shape(), (batch, 1));
        let penalty_weights: Arc<Vec<f64>> =
            Arc::new((0..ps.num_pairs()).map(|i| 0.1 * i as f64).collect());
        let pen_col = diff.sensitivity_penalty(&mut g, ratios, &penalty_weights);
        assert_eq!(g.value(pen_col).shape(), (batch, 1));
        let batched_mlus = g.value(mlu_col).data().to_vec();
        let batched_pens = g.value(pen_col).data().to_vec();

        // Reference: one graph pass per sample.
        for b in 0..batch {
            let mut g1 = Graph::new();
            g1.seal();
            let raw1 = g1.input(Tensor::row(&raws[b]));
            let ratios1 = diff.ratios_from_raw(&mut g1, raw1);
            let mlu1 = diff.mlu_batch(&mut g1, ratios1, &demands[b], MluAggregation::Max);
            assert!((batched_mlus[b] - g1.value(mlu1).as_scalar()).abs() < 1e-12);
            let pen1 = diff.sensitivity_penalty(&mut g1, ratios1, &penalty_weights);
            assert!((batched_pens[b] - g1.value(pen1).as_scalar()).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_reach_the_raw_weights() {
        let (ps, diff) = setup();
        let mut g = Graph::new();
        let raw = g.parameter(Tensor::zeros(1, ps.num_paths()));
        g.seal();
        let ratios = diff.ratios_from_raw(&mut g, raw);
        let demand = vec![30.0; ps.num_pairs()];
        let mlu = diff.mlu_batch(&mut g, ratios, &demand, MluAggregation::SmoothMax(0.05));
        g.backward(mlu);
        assert!(g.grad(raw).norm() > 0.0, "MLU must depend on the raw weights");
        assert_eq!(diff.num_paths(), ps.num_paths());
        assert_eq!(diff.num_pairs(), ps.num_pairs());
    }
}
