//! A compiled, allocation-free f32 inference plan.
//!
//! Training and reference inference walk the autograd tape ([`crate::graph`]):
//! every op clones tensors, pushes nodes and touches `Arc`-shared constants.
//! That is the right shape for backpropagation and exactly the wrong shape
//! for a serving hot path that wants one forward pass per control-loop tick.
//!
//! [`InferencePlan`] is the serving artifact compiled *once* from a trained
//! MLP: weights quantized to `f32`, ping-pong activation buffers pre-sized to
//! the widest layer, and the forward pass expressed as a flat sequence of
//! kernels over `[f32]` slices (affine, ReLU/sigmoid, per-segment
//! normalization) whose inner loops autovectorize.  Large layers split their
//! outputs across two cores (`SPLIT_MIN_WEIGHTS`).
//! [`InferencePlan::forward`] performs **no allocation** and touches **no
//! reference counts** (`tests/plan_allocations.rs`), and its bits do not
//! depend on the thread count.
//!
//! The two affine kernels are `dispatched!` ([`crate::dispatch`]): one
//! portable body, also compiled with AVX2 and picked at run time.  What makes
//! them fast is how many independent sums are in flight, not the register
//! width.  One output's sum is a chain of dependent additions, and the add
//! latency bounds a chain whatever register holds it, so the dot kernel
//! advances [`OUT_BLOCK`] outputs per pass over `x`, and the axpy kernel
//! applies [`IN_BLOCK`] inputs per pass over `y`.  Each output is still the
//! same IEEE sum, of the same products in the same order, that one output or
//! one input at a time would form, so the bits do not depend on the block,
//! the body or the split (`tests/plan_golden_bits.rs`, recorded before the
//! blocks existed).
//!
//! The f64 tape remains the reference implementation: a property test pins
//! the plan to the graph forward within 1e-4 relative error
//! (`tests/plan_matches_graph.rs`).

use std::ops::Range;

use crate::dispatch::{dispatched, Body};
use crate::graph::Graph;
use crate::layers::{Mlp, OutputActivation};

/// Number of partial sums per output of the dot kernel: lane `l` sums the
/// products `l, l + LANES, l + 2·LANES, …` in order, and the lanes are folded
/// in lane order after the last full chunk.  This width, not the register
/// width, fixes the summation order.  Nor does a wider register make the
/// kernel faster: one output's lanes advance as one chain of dependent
/// additions, whether they fill two SSE2 registers or one AVX2 register.
/// More chains in flight is what pays ([`OUT_BLOCK`]).
const LANES: usize = 8;

/// Outputs the dot kernel computes per pass over `x`: eight chains of
/// additions in flight instead of one, and each chunk of `x` loaded once for
/// all eight.  Their lanes fill eight AVX2 registers.
const OUT_BLOCK: usize = 8;

/// Nonzero inputs the axpy kernel applies per pass over `y`: each output is
/// loaded and stored once per four inputs instead of once per input.
const IN_BLOCK: usize = 4;

/// Layers holding at least this many weights (1 MiB of `f32`) split their
/// outputs in two halves across [`rayon::join`], so two cores each stream
/// half the weight matrix — and a half that fits a core's L2 cache stays
/// there from one forward pass to the next.  Smaller layers run inline on
/// the caller: GEANT's plan (6072 → 128×5 → 1518) splits its 3 MiB first
/// layer only, since splitting its 0.75 MiB last layer too measured no
/// faster on 2 vCPUs.
const SPLIT_MIN_WEIGHTS: usize = 1 << 18;

/// One dense layer of the compiled plan: `y = act(Wᵀx + b)` in `f32`, with
/// the weight stored in the layout its kernel wants.  Wide layers (`out_dim ≥
/// in_dim`) keep the tape's row-major `in_dim × out_dim` layout and run the
/// rank-1 axpy kernel (contiguous output rows, zero inputs skipped); narrow
/// layers (`out_dim < in_dim`, e.g. the first layer collapsing a whole
/// feature window onto a few hidden units) store the transpose (`out_dim ×
/// in_dim`) and run one long contiguous dot product per output — the axpy
/// orientation would pay its per-input loop overhead on a tiny row.
#[derive(Debug, Clone)]
struct PlanLayer {
    out_dim: usize,
    /// `true`: `weight` is transposed (`out_dim × in_dim`) for the dot
    /// kernel; `false`: row-major (`in_dim × out_dim`) for the axpy kernel.
    transposed: bool,
    weight: Vec<f32>,
    bias: Vec<f32>,
}

impl PlanLayer {
    /// Writes `y = Wᵀx + b`, splitting the outputs across [`rayon::join`]
    /// when the layer holds at least [`SPLIT_MIN_WEIGHTS`] weights.  Every
    /// output is the same sum in the same order wherever it is computed, so
    /// the bits do not depend on the split or the thread count.
    fn apply(&self, x: &[f32], y: &mut [f32]) {
        let body = Body::Native;
        if self.weight.len() < SPLIT_MIN_WEIGHTS {
            return self.apply_outputs(body, x, 0, y);
        }
        let mid = self.out_dim / 2;
        let (low, high) = y.split_at_mut(mid);
        rayon::join(
            || self.apply_outputs(body, x, 0, low),
            || self.apply_outputs(body, x, mid, high),
        );
    }

    /// Writes outputs `first..first + y.len()` of `Wᵀx + b` into `y`, on the
    /// kernels' `body` copy.
    fn apply_outputs(&self, body: Body, x: &[f32], first: usize, y: &mut [f32]) {
        let outputs = first..first + y.len();
        let bias = &self.bias[outputs.clone()];
        if self.transposed {
            let in_dim = x.len();
            let weight = &self.weight[outputs.start * in_dim..outputs.end * in_dim];
            affine_dot(body, x, weight, bias, y);
        } else {
            affine(body, x, &self.weight[first..], self.out_dim, bias, y);
        }
    }
}

/// A trained MLP compiled into a flat, allocation-free f32 forward pass; see
/// the module docs.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    input_dim: usize,
    output_dim: usize,
    layers: Vec<PlanLayer>,
    output_activation: OutputActivation,
    segments: Vec<Range<usize>>,
    /// Reciprocal of the feature scale, folded into the input load.
    inv_input_scale: f32,
    /// Ping-pong activation buffers, sized to the widest layer.
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
}

impl InferencePlan {
    /// Compiles a plan from an MLP whose parameters live on `graph`.
    ///
    /// `segments` are the per-pair output ranges normalized after the final
    /// activation (pass an empty vec to skip normalization); raw `f64` inputs
    /// are multiplied by `1 / input_scale` while being quantized, mirroring
    /// the feature scaling of the reference path.
    pub fn compile(
        graph: &Graph,
        mlp: &Mlp,
        segments: Vec<Range<usize>>,
        input_scale: f64,
    ) -> InferencePlan {
        assert!(input_scale > 0.0, "the input scale must be positive");
        let params = mlp.parameters();
        debug_assert_eq!(params.len() % 2, 0, "parameters come in (weight, bias) pairs");
        let mut layers = Vec::with_capacity(params.len() / 2);
        let mut max_width = mlp.config().input_dim;
        let mut in_dim = mlp.config().input_dim;
        for pair in params.chunks_exact(2) {
            let weight = graph.value(pair[0]);
            let bias = graph.value(pair[1]);
            assert_eq!(bias.rows(), 1, "biases are row vectors");
            assert_eq!(weight.cols(), bias.cols(), "weight/bias widths must agree");
            assert_eq!(weight.rows(), in_dim, "layer widths must chain");
            let out_dim = weight.cols();
            max_width = max_width.max(out_dim);
            let transposed = out_dim < in_dim;
            let data = weight.data();
            let quantized: Vec<f32> = if transposed {
                let mut t = vec![0.0f32; data.len()];
                for k in 0..in_dim {
                    for j in 0..out_dim {
                        t[j * in_dim + k] = data[k * out_dim + j] as f32;
                    }
                }
                t
            } else {
                data.iter().map(|&v| v as f32).collect()
            };
            layers.push(PlanLayer {
                out_dim,
                transposed,
                weight: quantized,
                bias: bias.data().iter().map(|&v| v as f32).collect(),
            });
            in_dim = out_dim;
        }
        let output_dim = layers.last().expect("an MLP has at least one layer").out_dim;
        for seg in &segments {
            assert!(seg.end <= output_dim, "segments must index the output row");
        }
        InferencePlan {
            input_dim: mlp.config().input_dim,
            output_dim,
            layers,
            output_activation: mlp.config().output_activation,
            segments,
            inv_input_scale: (1.0 / input_scale) as f32,
            buf_a: vec![0.0; max_width],
            buf_b: vec![0.0; max_width],
        }
    }

    /// Input width the plan expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width the plan produces.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Number of quantized scalars held by the plan.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.weight.len() + l.bias.len()).sum()
    }

    /// Runs the compiled forward pass: scales and quantizes `features`, walks
    /// the flat kernel sequence and writes the (segment-normalized) outputs
    /// into `out`.  No allocation; `&mut self` only touches the pre-sized
    /// scratch buffers.
    pub fn forward(&mut self, features: &[f64], out: &mut [f64]) {
        assert_eq!(features.len(), self.input_dim, "input width must match the plan");
        assert_eq!(out.len(), self.output_dim, "output width must match the plan");
        let scale = self.inv_input_scale;
        for (dst, &src) in self.buf_a[..self.input_dim].iter_mut().zip(features) {
            *dst = src as f32 * scale;
        }
        let mut in_dim = self.input_dim;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let y = &mut self.buf_b[..layer.out_dim];
            layer.apply(&self.buf_a[..in_dim], y);
            if i < last {
                relu(y);
            } else {
                match self.output_activation {
                    OutputActivation::Sigmoid => sigmoid(y),
                    OutputActivation::Relu => relu(y),
                    OutputActivation::Linear => {}
                }
            }
            std::mem::swap(&mut self.buf_a, &mut self.buf_b);
            in_dim = layer.out_dim;
        }
        let result = &mut self.buf_a[..self.output_dim];
        segment_normalize(result, &self.segments);
        for (dst, &src) in out.iter_mut().zip(result.iter()) {
            *dst = src as f64;
        }
    }
}

dispatched! {
    /// `y = Wᵀx + b` over `y.len()` consecutive output columns of a row-major
    /// weight whose rows are `stride` wide, `weight` starting at the first of
    /// those columns: rank-1 updates `y += x_k · W[k, :]` in ascending `k`,
    /// each a contiguous axpy over the row.  Skips exact-zero inputs — ReLU
    /// activations make those common.  The nonzero inputs are applied
    /// [`IN_BLOCK`] at a time, `y_j = (((y_j + x₀w₀ⱼ) + x₁w₁ⱼ) + x₂w₂ⱼ) +
    /// x₃w₃ⱼ`: the additions one input at a time would make, in the same
    /// order, with one load and one store of `y_j`.  Plain `zip`s vectorize
    /// cleanly, where `chunks_exact` bodies led LLVM to gather across chunks
    /// (≈ 4× slower on a 128 × 1518 layer, x86-64 SSE2).
    fn affine(x: &[f32], weight: &[f32], stride: usize, bias: &[f32], y: &mut [f32]) {
        let out_dim = y.len();
        debug_assert!(x.is_empty() || weight.len() >= (x.len() - 1) * stride + out_dim);
        let row = |k: usize| &weight[k * stride..k * stride + out_dim];
        y.copy_from_slice(bias);
        let mut block = [(0usize, 0.0f32); IN_BLOCK];
        let mut held = 0;
        for (k, &xk) in x.iter().enumerate() {
            if xk == 0.0 {
                continue;
            }
            block[held] = (k, xk);
            held += 1;
            if held == IN_BLOCK {
                held = 0;
                let [(k0, x0), (k1, x1), (k2, x2), (k3, x3)] = block;
                let rows = row(k0).iter().zip(row(k1)).zip(row(k2)).zip(row(k3));
                for (yv, (((w0, w1), w2), w3)) in y.iter_mut().zip(rows) {
                    *yv = *yv + x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3;
                }
            }
        }
        for &(k, xk) in &block[..held] {
            for (yv, wv) in y.iter_mut().zip(row(k)) {
                *yv += xk * wv;
            }
        }
    }
}

dispatched! {
    /// `y = Wᵀx + b` for a *transposed* (`out_dim × in_dim`) weight: one long
    /// contiguous dot product per output element, accumulated across
    /// [`LANES`] partial sums so the reduction vectorizes, [`OUT_BLOCK`]
    /// outputs at a time.  The layout of choice when the layer is much
    /// narrower than its input.
    fn affine_dot(x: &[f32], weight: &[f32], bias: &[f32], y: &mut [f32]) {
        let in_dim = x.len();
        debug_assert_eq!(weight.len(), in_dim * y.len());
        let (y_blocks, y_rest) = y.as_chunks_mut::<OUT_BLOCK>();
        let (bias_blocks, bias_rest) = bias.as_chunks::<OUT_BLOCK>();
        let (weight_blocks, weight_rest) = weight.split_at(y_blocks.len() * OUT_BLOCK * in_dim);
        let blocks = y_blocks
            .iter_mut()
            .zip(bias_blocks)
            .zip(weight_blocks.chunks_exact(OUT_BLOCK * in_dim));
        for ((y, bias), weight) in blocks {
            dot_outputs(x, weight, bias, y);
        }
        let rest = y_rest.iter_mut().zip(bias_rest).zip(weight_rest.chunks_exact(in_dim));
        for ((y, bias), weight) in rest {
            dot_outputs(x, weight, std::array::from_ref(bias), std::array::from_mut(y));
        }
    }
}

/// `y = Wᵀx + b` for `N` consecutive outputs of the dot kernel, `weight` their
/// `N` rows: the lanes of all `N` sums advance together, one chunk of `x` at
/// a time.  Output `o` gets `bias_o + ((Σ lanes, in lane order) + tail
/// products in order)`, the sum one output at a time would form.
#[inline(always)]
fn dot_outputs<const N: usize>(x: &[f32], weight: &[f32], bias: &[f32; N], y: &mut [f32; N]) {
    let in_dim = x.len();
    let (x_chunks, x_tail) = x.as_chunks::<LANES>();
    let rows: [(&[[f32; LANES]], &[f32]); N] =
        std::array::from_fn(|o| weight[o * in_dim..(o + 1) * in_dim].as_chunks::<LANES>());
    let mut acc = [[0.0f32; LANES]; N];
    for (c, xc) in x_chunks.iter().enumerate() {
        for (lanes, (row_chunks, _)) in acc.iter_mut().zip(&rows) {
            for ((lane, &xv), &wv) in lanes.iter_mut().zip(xc).zip(&row_chunks[c]) {
                *lane += xv * wv;
            }
        }
    }
    for (((yv, &b), lanes), (_, row_tail)) in y.iter_mut().zip(bias).zip(&acc).zip(&rows) {
        *yv = dot_finish(b, lanes, x_tail, row_tail);
    }
}

/// One output of the dot kernel from its lanes: `b + ((lanes folded in lane
/// order) + the tail's products in order)`.  Kept out of line: inlined, the
/// folds of a block's eight outputs led LLVM's SLP vectorizer to pack lane
/// `l` of all eight outputs into one register, gathering across the rows in
/// the hot loop (≈ 4× slower than one output at a time on GEANT's first
/// layer, x86-64 AVX2).  Out of line, each output's lanes stay in one
/// register through the loop.
#[inline(never)]
fn dot_finish(b: f32, lanes: &[f32; LANES], x_tail: &[f32], row_tail: &[f32]) -> f32 {
    let mut sum: f32 = lanes.iter().sum();
    for (&xv, &wv) in x_tail.iter().zip(row_tail) {
        sum += xv * wv;
    }
    b + sum
}

/// In-place ReLU.
fn relu(y: &mut [f32]) {
    for v in y {
        *v = v.max(0.0);
    }
}

/// In-place logistic sigmoid.
fn sigmoid(y: &mut [f32]) {
    for v in y {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// In-place per-segment normalization with the reference semantics of
/// [`Graph::segment_normalize`]: each segment is scaled to sum to one, and an
/// all-zero segment becomes the uniform distribution over its entries.
fn segment_normalize(y: &mut [f32], segments: &[Range<usize>]) {
    for seg in segments {
        let slice = &mut y[seg.clone()];
        let sum: f32 = slice.iter().sum();
        if sum > 0.0 {
            let inv = 1.0 / sum;
            for v in slice {
                *v *= inv;
            }
        } else {
            let uniform = 1.0 / slice.len().max(1) as f32;
            for v in slice {
                *v = uniform;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rayon::prelude::*;

    use super::*;
    use crate::layers::MlpConfig;
    use crate::tensor::Tensor;

    /// The axpy kernel as it stood before layers could split their outputs:
    /// the reference the serving kernels are held to, bit for bit.
    fn reference_affine(x: &[f32], weight: &[f32], bias: &[f32], y: &mut [f32]) {
        let out_dim = y.len();
        debug_assert_eq!(weight.len(), x.len() * out_dim);
        y.copy_from_slice(bias);
        for (k, &xk) in x.iter().enumerate() {
            if xk == 0.0 {
                continue;
            }
            let row = &weight[k * out_dim..(k + 1) * out_dim];
            let (y_chunks, y_tail) = y.split_at_mut(out_dim - out_dim % LANES);
            let (r_chunks, r_tail) = row.split_at(y_chunks.len());
            for (yc, rc) in y_chunks.chunks_exact_mut(LANES).zip(r_chunks.chunks_exact(LANES)) {
                for (yv, rv) in yc.iter_mut().zip(rc) {
                    *yv += xk * rv;
                }
            }
            for (yv, rv) in y_tail.iter_mut().zip(r_tail) {
                *yv += xk * rv;
            }
        }
    }

    /// The dot kernel as it stood before layers could split their outputs.
    fn reference_affine_dot(x: &[f32], weight: &[f32], bias: &[f32], y: &mut [f32]) {
        let in_dim = x.len();
        debug_assert_eq!(weight.len(), in_dim * y.len());
        let (x_chunks, x_tail) = x.split_at(in_dim - in_dim % LANES);
        for (j, (yv, &b)) in y.iter_mut().zip(bias).enumerate() {
            let row = &weight[j * in_dim..(j + 1) * in_dim];
            let (r_chunks, r_tail) = row.split_at(x_chunks.len());
            let mut acc = [0.0f32; LANES];
            for (xc, rc) in x_chunks.chunks_exact(LANES).zip(r_chunks.chunks_exact(LANES)) {
                for ((a, &xv), &rv) in acc.iter_mut().zip(xc).zip(rc) {
                    *a += xv * rv;
                }
            }
            let mut sum: f32 = acc.iter().sum();
            for (&xv, &rv) in x_tail.iter().zip(r_tail) {
                sum += xv * rv;
            }
            *yv = b + sum;
        }
    }

    /// The plan's forward pass on the reference kernels, one layer at a
    /// time on the calling thread.
    fn reference_forward(plan: &InferencePlan, features: &[f64]) -> Vec<f64> {
        let mut x: Vec<f32> = features.iter().map(|&v| v as f32 * plan.inv_input_scale).collect();
        let last = plan.layers.len() - 1;
        for (i, layer) in plan.layers.iter().enumerate() {
            let mut y = vec![0.0f32; layer.out_dim];
            if layer.transposed {
                reference_affine_dot(&x, &layer.weight, &layer.bias, &mut y);
            } else {
                reference_affine(&x, &layer.weight, &layer.bias, &mut y);
            }
            match (i < last, plan.output_activation) {
                (true, _) | (false, OutputActivation::Relu) => relu(&mut y),
                (false, OutputActivation::Sigmoid) => sigmoid(&mut y),
                (false, OutputActivation::Linear) => {}
            }
            x = y;
        }
        segment_normalize(&mut x, &plan.segments);
        x.iter().map(|&v| v as f64).collect()
    }

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `w` (row-major `rows × cols`) transposed to `cols × rows`.
    fn transpose(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; w.len()];
        for k in 0..rows {
            for j in 0..cols {
                t[j * rows + k] = w[k * cols + j];
            }
        }
        t
    }

    /// One operand: an exact zero, a `-0.0`, a subnormal or `v`.
    fn operand(class: usize, v: f32) -> f32 {
        match class {
            0 => 0.0,
            1 => -0.0,
            2 => v * 1e-40,
            _ => v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both bodies of both kernels against the one-output-at-a-time
        /// references, at every split point.  Shapes run 1–40 on each side:
        /// both sides of OUT_BLOCK (and of two blocks), of LANES and of
        /// IN_BLOCK, `in_dim < LANES` included.  Every operand may be `±0.0`
        /// or subnormal, and every `zero_every`-th input is an exact zero
        /// (all of them at 1), so a zero input that were not skipped would
        /// turn a `-0.0` output into `+0.0`.
        #[test]
        fn split_kernels_match_the_reference_bit_for_bit(
            in_dim in 1usize..41,
            out_dim in 1usize..41,
            transposed in 0usize..2,
            zero_every in 1usize..6,
            values in collection::vec((0usize..6, -2.0f32..2.0), 40 * 40 + 40 + 40),
        ) {
            if !Body::native_is_avx2() {
                eprintln!("no AVX2 on this CPU: only the portable body runs");
            }
            let mut values = values.into_iter().map(|(class, v)| operand(class, v));
            let mut take = |len: usize| -> Vec<f32> { values.by_ref().take(len).collect() };
            let weight = take(in_dim * out_dim);
            let x: Vec<f32> = take(in_dim)
                .into_iter()
                .enumerate()
                .map(|(k, v)| if k % zero_every == 0 { 0.0 } else { v })
                .collect();
            let bias = take(out_dim);
            let transposed = transposed == 1;
            let mut expect = vec![0.0f32; out_dim];
            let layer = if transposed {
                let weight = transpose(&weight, in_dim, out_dim);
                reference_affine_dot(&x, &weight, &bias, &mut expect);
                PlanLayer { out_dim, transposed, weight, bias }
            } else {
                reference_affine(&x, &weight, &bias, &mut expect);
                PlanLayer { out_dim, transposed, weight, bias }
            };
            let mut whole = vec![0.0f32; out_dim];
            layer.apply(&x, &mut whole);
            prop_assert_eq!(bits32(&whole), bits32(&expect));
            for body in [Body::Portable, Body::Native] {
                // Every split point, the empty halves included.
                for mid in 0..=out_dim {
                    let mut halves = vec![f32::NAN; out_dim];
                    let (low, high) = halves.split_at_mut(mid);
                    layer.apply_outputs(body, &x, 0, low);
                    layer.apply_outputs(body, &x, mid, high);
                    prop_assert_eq!(bits32(&halves), bits32(&expect), "{:?} body, split {}", body, mid);
                }
            }
        }
    }

    #[test]
    fn a_geant_sized_plan_gives_the_reference_bits_on_the_caller_and_in_a_parallel_job() {
        // GEANT's plan: 6072 inputs, five hidden layers of 128, 1518 paths
        // in 506 three-path segments.  Its first layer splits across join.
        let (g, mlp) = build(6072, vec![128; 5], 1518, OutputActivation::Sigmoid);
        let segments: Vec<Range<usize>> = (0..506).map(|p| 3 * p..3 * p + 3).collect();
        let mut plan = InferencePlan::compile(&g, &mlp, segments, 3.0);
        assert!(plan.layers[0].weight.len() >= SPLIT_MIN_WEIGHTS);
        let x: Vec<f64> = (0..6072).map(|i| ((i * 7919) % 1000) as f64 / 250.0).collect();
        let expect = reference_forward(&plan, &x);
        let mut on_caller = vec![0.0; 1518];
        plan.forward(&x, &mut on_caller);
        assert_eq!(bits64(&on_caller), bits64(&expect));
        // Inside a parallel job the join runs inline: the path of learned
        // fleet shards, which forward from within `par_iter`.
        let in_jobs: Vec<Vec<f64>> = (0..2usize)
            .into_par_iter()
            .map(|_| {
                let mut plan = plan.clone();
                let mut out = vec![0.0; 1518];
                plan.forward(&x, &mut out);
                out
            })
            .collect();
        for out in &in_jobs {
            assert_eq!(bits64(out), bits64(&expect));
        }
    }

    fn build(
        input_dim: usize,
        hidden: Vec<usize>,
        output_dim: usize,
        activation: OutputActivation,
    ) -> (Graph, Mlp) {
        let mut g = Graph::new();
        let mlp = Mlp::new(
            &mut g,
            MlpConfig { input_dim, hidden, output_dim, output_activation: activation, seed: 11 },
        );
        g.seal();
        (g, mlp)
    }

    fn graph_forward(g: &mut Graph, mlp: &Mlp, x: &[f64], segments: &[Range<usize>]) -> Vec<f64> {
        g.reset();
        let input = g.input(Tensor::row(x));
        let raw = mlp.forward(g, input);
        let out = if segments.is_empty() {
            raw
        } else {
            g.segment_normalize(raw, std::sync::Arc::new(segments.to_vec()))
        };
        g.value(out).data().to_vec()
    }

    #[test]
    fn plan_matches_graph_on_a_small_mlp() {
        let (mut g, mlp) = build(5, vec![9, 7], 6, OutputActivation::Sigmoid);
        let segments = vec![0..3, 3..6];
        let mut plan = InferencePlan::compile(&g, &mlp, segments.clone(), 2.0);
        assert_eq!(plan.input_dim(), 5);
        assert_eq!(plan.output_dim(), 6);
        assert_eq!(plan.num_parameters(), 5 * 9 + 9 + 9 * 7 + 7 + 7 * 6 + 6);

        let x = [1.0, -2.0, 0.5, 3.0, -0.25];
        let scaled: Vec<f64> = x.iter().map(|v| v / 2.0).collect();
        let reference = graph_forward(&mut g, &mlp, &scaled, &segments);
        let mut out = vec![0.0; 6];
        plan.forward(&x, &mut out);
        for (p, r) in out.iter().zip(&reference) {
            assert!((p - r).abs() <= 1e-4 * (1.0 + r.abs()), "plan {p} vs graph {r}");
        }
        // Normalized segments sum to one (up to f32 rounding).
        for seg in &segments {
            let sum: f64 = out[seg.clone()].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "segment sum {sum}");
        }
    }

    #[test]
    fn forward_is_repeatable_and_scratch_is_reset() {
        let (g, mlp) = build(4, vec![8], 4, OutputActivation::Relu);
        let mut plan = InferencePlan::compile(&g, &mlp, vec![0..2, 2..4], 1.0);
        let x = [0.4, 0.0, -1.5, 2.0];
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        plan.forward(&x, &mut a);
        plan.forward(&[9.0, 9.0, 9.0, 9.0], &mut b); // dirty the buffers
        plan.forward(&x, &mut b);
        assert_eq!(a, b, "repeated forwards must not depend on buffer history");
    }

    #[test]
    fn all_zero_segment_falls_back_to_uniform() {
        let mut y = [0.0f32, 0.0, 3.0, 1.0];
        segment_normalize(&mut y, &[0..2, 2..4]);
        assert_eq!(&y[..2], &[0.5, 0.5]);
        assert!((y[2] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn dot_orientation_matches_axpy_orientation() {
        // in_dim = 19 exercises the dot kernel's lane accumulators and tail.
        let in_dim = 19;
        let out_dim = 3;
        let x: Vec<f32> = (0..in_dim).map(|i| (i as f32 - 7.0) * 0.3).collect();
        let weight: Vec<f32> = (0..in_dim * out_dim).map(|i| (i as f32).sin()).collect();
        let mut transposed = vec![0.0f32; in_dim * out_dim];
        for k in 0..in_dim {
            for j in 0..out_dim {
                transposed[j * in_dim + k] = weight[k * out_dim + j];
            }
        }
        let bias = vec![0.25f32; out_dim];
        let mut via_axpy = vec![0.0f32; out_dim];
        let mut via_dot = vec![0.0f32; out_dim];
        affine(Body::Native, &x, &weight, out_dim, &bias, &mut via_axpy);
        affine_dot(Body::Native, &x, &transposed, &bias, &mut via_dot);
        for (a, d) in via_axpy.iter().zip(&via_dot) {
            assert!((a - d).abs() < 1e-5, "axpy {a} vs dot {d}");
        }
    }

    #[test]
    fn affine_handles_tails_past_the_chunk_width() {
        // out_dim = 11: past one vector register, with a 3-wide tail.
        let x = [2.0f32, -1.0];
        let weight: Vec<f32> = (0..22).map(|i| i as f32 * 0.1).collect();
        let bias = vec![1.0f32; 11];
        let mut y = vec![0.0f32; 11];
        affine(Body::Native, &x, &weight, 11, &bias, &mut y);
        for j in 0..11 {
            let expect = 1.0 + 2.0 * weight[j] - weight[11 + j];
            assert!((y[j] - expect).abs() < 1e-6, "col {j}: {} vs {expect}", y[j]);
        }
    }
}
