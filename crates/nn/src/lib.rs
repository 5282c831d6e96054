//! # figret-nn
//!
//! A from-scratch deep-learning substrate: dense tensors, a reverse-mode
//! autograd tape with the operations needed by FIGRET's burst-aware loss, the
//! paper's fully connected architecture and the Adam optimizer.
//!
//! The paper implements FIGRET in PyTorch; this crate is the offline
//! substitute documented in DESIGN.md §5.
//!
//! # Example
//!
//! ```
//! use figret_nn::{Graph, Mlp, MlpConfig, Tensor, Adam, AdamConfig};
//!
//! let mut graph = Graph::new();
//! let mlp = Mlp::new(&mut graph, MlpConfig::paper_default(8, 4));
//! graph.seal();
//! let mut adam = Adam::new(&graph, mlp.parameters(), AdamConfig::default());
//!
//! graph.reset();
//! let x = graph.input(Tensor::row(&[0.5; 8]));
//! let y = mlp.forward(&mut graph, x);
//! let loss = graph.sum(y);
//! graph.backward(loss);
//! adam.step(&mut graph);
//! ```

#![warn(missing_docs)]

mod dispatch;
pub mod graph;
pub mod layers;
pub mod optim;
pub mod plan;
pub mod tensor;

pub use graph::{Graph, SparseMatrix, Var, WorkerTape};
pub use layers::{Mlp, MlpConfig, OutputActivation};
pub use optim::{Adam, AdamConfig};
pub use plan::InferencePlan;
pub use tensor::Tensor;

#[cfg(test)]
mod gradient_check {
    //! Numerical gradient checks: the most important correctness tests of the
    //! autograd engine.  Every composite expression used by the FIGRET loss is
    //! perturbed coordinate-by-coordinate and compared against the analytic
    //! gradient.

    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Builds a scalar loss from an input vector in a way that exercises the
    /// ops used by the FIGRET loss.  `variant` selects the expression.
    fn build_loss(graph: &mut Graph, input: Var, variant: usize) -> Var {
        match variant % 4 {
            0 => {
                // max of a sparse aggregation (the MLU path).
                let m = Arc::new(SparseMatrix::from_rows(
                    3,
                    6,
                    &[
                        vec![(0, 1.0), (1, 1.0), (3, 0.5)],
                        vec![(2, 1.0), (4, 2.0)],
                        vec![(5, 1.0), (0, 0.25)],
                    ],
                ));
                let agg = graph.sparse_matvec(input, m);
                let scaled = graph.mul_const(agg, Arc::new(vec![0.5, 1.0, 0.25]));
                graph.row_max(scaled)
            }
            1 => {
                // segment-normalized ratios dotted with a constant (the
                // sensitivity penalty path), with a sigmoid in front so the
                // normalization sees positive inputs.
                let sig = graph.sigmoid(input);
                let segs = Arc::new(vec![0..2, 2..4, 4..6]);
                let ratios = graph.segment_normalize(sig, segs.clone());
                let sens = graph.mul_const(ratios, Arc::new(vec![1.0, 0.5, 2.0, 0.25, 1.0, 4.0]));
                let per_pair = graph.segment_max(sens, segs);
                graph.dot_const(per_pair, Arc::new(vec![3.0, 1.0, 0.5]))
            }
            2 => {
                // A tiny MLP-style affine + relu + sum.
                let w = graph.input(Tensor::from_vec(
                    6,
                    2,
                    vec![0.3, -0.2, 0.1, 0.4, -0.5, 0.2, 0.7, -0.1, 0.05, 0.3, -0.3, 0.6],
                ));
                let z = graph.matmul(input, w);
                let a = graph.relu(z);
                graph.sum(a)
            }
            _ => {
                // Combination: scaled sum plus a max.
                let s = graph.scale(input, 1.5);
                let t = graph.add_scalar(s, 0.1);
                let total = graph.sum(t);
                let m = graph.row_max(input);
                graph.add(total, m)
            }
        }
    }

    fn loss_value(x: &[f64], variant: usize) -> f64 {
        let mut g = Graph::new();
        g.seal();
        let input = g.input(Tensor::row(x));
        let loss = build_loss(&mut g, input, variant);
        g.value(loss).as_scalar()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn analytic_gradient_matches_finite_differences(
            x in proptest::collection::vec(-2.0f64..2.0, 6),
            variant in 0usize..4,
        ) {
            let mut g = Graph::new();
            g.seal();
            let input = g.input(Tensor::row(&x));
            let loss = build_loss(&mut g, input, variant);
            g.backward(loss);
            let analytic = g.grad(input).data().to_vec();

            let h = 1e-5;
            for i in 0..x.len() {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[i] += h;
                xm[i] -= h;
                let numeric = (loss_value(&xp, variant) - loss_value(&xm, variant)) / (2.0 * h);
                // max / relu / segment_max are only piecewise differentiable;
                // skip coordinates where the finite difference straddles a kink.
                let disagreement = (analytic[i] - numeric).abs();
                let scale = 1.0 + analytic[i].abs() + numeric.abs();
                if disagreement / scale > 1e-4 {
                    // Tolerate kink coordinates but only if the two one-sided
                    // differences themselves disagree (evidence of a kink).
                    let fp = (loss_value(&xp, variant) - loss_value(&x, variant)) / h;
                    let fm = (loss_value(&x, variant) - loss_value(&xm, variant)) / h;
                    prop_assert!(
                        (fp - fm).abs() / scale > 1e-6,
                        "variant {} coord {}: analytic {} vs numeric {}",
                        variant, i, analytic[i], numeric
                    );
                }
            }
        }
    }

    /// The training loss as `FigretModel` assembles it, over a **data-only**
    /// feature batch: MLP → per-pair normalization → batched MLU (per-path
    /// demands, path→edge aggregation, inverse capacities, per-row max) plus
    /// the weighted sensitivity penalty (inverse path capacities, per-pair
    /// max, variance weights), summed over the batch.  3 pairs × 2 paths over
    /// 4 edges, 3 samples.
    fn figret_loss(graph: &mut Graph, mlp: &Mlp, features: &[f64]) -> Var {
        let batch = 3;
        let input = graph.constant(batch, features.len() / batch, |x| x.copy_from_slice(features));
        let raw = mlp.forward(graph, input);
        let segments = Arc::new(vec![0..2, 2..4, 4..6]);
        let ratios = graph.segment_normalize(raw, segments.clone());
        let per_path_demand: Vec<f64> =
            (0..batch * 6).map(|i| 1.0 + ((i / 2) % 5) as f64 * 0.7).collect();
        let flows = graph.mul_const(ratios, Arc::new(per_path_demand));
        let edge_by_path = Arc::new(SparseMatrix::from_rows(
            4,
            6,
            &[
                vec![(0, 1.0), (2, 1.0)],
                vec![(1, 1.0), (3, 1.0), (4, 1.0)],
                vec![(0, 1.0), (5, 1.0)],
                vec![(2, 1.0), (3, 1.0), (5, 1.0)],
            ],
        ));
        let loads = graph.sparse_matvec(flows, edge_by_path);
        let utils = graph.mul_const(loads, Arc::new(vec![0.5, 0.25, 1.0, 0.4]));
        let mlu = graph.row_max(utils);
        let sens = graph.mul_const(ratios, Arc::new(vec![1.0, 0.5, 2.0, 0.25, 1.0, 4.0]));
        let per_pair = graph.segment_max(sens, segments);
        let penalty = graph.dot_const(per_pair, Arc::new(vec![1.0, 0.3, 0.6]));
        let weighted = graph.scale(penalty, 1.5);
        let loss_col = graph.add(mlu, weighted);
        graph.sum(loss_col)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// With the feature batch a data-only leaf, `backward` skips the first
        /// layer's input product; every *parameter* gradient must still match
        /// finite differences of the whole loss.
        #[test]
        fn figret_loss_parameter_gradients_match_finite_differences(
            features in proptest::collection::vec(0.0f64..2.0, 3 * 5),
            seed in 0u64..1000,
        ) {
            let build = || {
                let mut g = Graph::new();
                let mlp = Mlp::new(&mut g, MlpConfig {
                    input_dim: 5,
                    hidden: vec![7],
                    output_dim: 6,
                    output_activation: OutputActivation::Sigmoid,
                    seed,
                });
                g.seal();
                (g, mlp)
            };
            let (mut g, mlp) = build();
            let loss = figret_loss(&mut g, &mlp, &features);
            g.backward(loss);
            let loss_at = |p: Var, e: usize, delta: f64| {
                let (mut g, mlp) = build();
                g.value_mut(p).data_mut()[e] += delta;
                let loss = figret_loss(&mut g, &mlp, &features);
                g.value(loss).as_scalar()
            };
            let h = 1e-6;
            for p in mlp.parameters() {
                for e in 0..g.value(p).len() {
                    let analytic = g.grad(p).data()[e];
                    let (up, down) = (loss_at(p, e, h), loss_at(p, e, -h));
                    let numeric = (up - down) / (2.0 * h);
                    let scale = 1.0 + analytic.abs() + numeric.abs();
                    if (analytic - numeric).abs() / scale > 1e-4 {
                        // relu / row_max / segment_max are piecewise: accept a
                        // mismatch only where the one-sided slopes disagree.
                        let here = g.value(loss).as_scalar();
                        let (fp, fm) = ((up - here) / h, (here - down) / h);
                        prop_assert!(
                            (fp - fm).abs() / scale > 1e-6,
                            "parameter {:?} element {}: analytic {} vs numeric {}",
                            p, e, analytic, numeric
                        );
                    }
                }
            }
        }
    }
}
