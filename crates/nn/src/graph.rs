//! Reverse-mode automatic differentiation on a flat tape.
//!
//! The FIGRET loss (Equation 6/7/8 of the paper) differentiates the maximum
//! link utilization and the sensitivity penalty with respect to the neural
//! network's weights.  This module provides exactly the operations needed for
//! that computation:
//!
//! * dense affine layers (`matmul`, `add_bias`), ReLU and sigmoid activations,
//! * per-SD-pair normalization of split ratios (`segment_normalize`),
//! * the linear path→edge aggregation of Function 1 (`sparse_matvec`),
//! * element-wise products with constants, per-segment maxima, global and
//!   per-row maxima and dot products for the loss terms.
//!
//! Nodes live on a tape ([`Graph`]); parameters are *persistent* nodes created
//! before [`Graph::seal`], everything built afterwards is transient and
//! discarded by [`Graph::reset`] between samples.  A tape keeps the storage of
//! the nodes it discards and hands it to the next pass, so replaying one op
//! sequence — a training step, a serving forward — allocates nothing after
//! the first pass.
//!
//! Leaves come in three kinds: parameters, inputs ([`Graph::input`], which
//! receive a gradient) and data ([`Graph::constant`], which do not).  Every
//! node knows whether anything differentiable flows into it; [`Graph::backward`]
//! skips the nodes and the operand products that only data reaches — the
//! gradient of the first layer's product with respect to the feature batch is
//! a quarter of a training step's arithmetic, and nothing reads it.
//!
//! # Batched (row-major) semantics
//!
//! Every structured operation treats an `R×C` node as a batch of `R`
//! independent row vectors: `segment_normalize`, `segment_max`,
//! `sparse_matvec`, `dot_const` and the per-row reductions ([`Graph::row_max`],
//! [`Graph::row_logsumexp`]) apply to each row separately, and
//! [`Graph::mul_const`] broadcasts a `cols`-length constant across rows.  With
//! `R = 1` this degenerates to the original single-sample behaviour, so the
//! same loss-construction code serves both the per-sample solver path and the
//! mini-batch training path.
//!
//! # Data-parallel training without copies
//!
//! Mini-batch training runs its microbatches in parallel, each on a
//! [`WorkerTape`]: a tape with its own transient nodes and scratch, that lives
//! for the whole training call and holds neither weights nor their gradients.
//! [`WorkerTape::run`] lends it the owner's parameter values — one [`Arc`]
//! clone — for a forward/backward pass, so all workers read the one copy of
//! the weights.  A tape's backward pass stops short of each weight's gradient
//! `∂W = aᵀ·g`: it leaves `a` and `g` where they lie, and the batch reduction
//! ([`Graph::add_scaled_grad_sum`]) forms every tape's product for a weight
//! inside the one sum over tapes, writing each element of the owner's
//! gradient once.  (Biases and any parameter read otherwise keep a small
//! gradient buffer on the tape, which the reduction reads in place.)  The
//! optimizer then finds the weights unshared and updates them in place.
//! Nothing the size of a weight matrix is allocated per step, and nothing the
//! size of one is allocated per tape.
//!
//! # Bit-identity
//!
//! None of this may change a result: a seed determines every trained weight
//! to the last bit, on any thread count.  Three rules keep it so.  The dense
//! kernels (`tensor.rs`) tile and interleave but give every output element
//! the same products in the same ascending order from the same `+0.0` as the
//! naive triple loop.  `backward` adds each contribution to an operand's
//! gradient as one value per element — built in a scratch row first when the
//! contribution is itself a sum — exactly as if it had been materialized as a
//! tensor.  And only independent output elements are partitioned over threads
//! (in fixed-size tasks); every *reduction* — over a batch's rows, over the
//! tapes — runs in index order on one thread per output element.  Deferring a
//! tape's weight gradient to the reduction keeps all three: the reduction
//! computes `(((0 + s₀) + s₁) + …) · scale` with each `s_t` the same sum the
//! tape would have stored, and storing it would only have added it to `+0.0`,
//! which moves no bit.  The vector width does not enter either: the dense
//! kernels (the one `∂b` kernel is the tape reduction) are `dispatched!`, one
//! body run four lanes wide on a CPU with AVX2 and two lanes wide elsewhere,
//! with the same operations in the same order.
//!
//! Constants attached to operations are shared through [`Arc`].

use std::ops::Range;
use std::sync::Arc;

use rayon::prelude::*;

use crate::dispatch::Body;
use crate::tensor::{add_grad_b_sum, matmul_grad_a, GradPart, Tensor, ELEMENTWISE_TASK};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// A constant sparse matrix in CSR form, used for the path→edge aggregation.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` lists.
    pub fn from_rows(rows: usize, cols: usize, entries: &[Vec<(usize, f64)>]) -> SparseMatrix {
        assert_eq!(entries.len(), rows, "one entry list per row is required");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            for &(c, v) in row {
                assert!(c < cols, "column index {c} out of range");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `y = M x` for a dense vector `x` of length `cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal the column count");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = M x` writing into a caller-provided buffer of length `rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal the column count");
        assert_eq!(y.len(), self.rows, "output length must equal the row count");
        for r in 0..self.rows {
            let mut acc = 0.0;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[i] * x[self.col_idx[i]];
            }
            y[r] = acc;
        }
    }

    /// `x += Mᵀ y` for a dense vector `y` of length `rows`.
    pub fn add_transpose_matvec(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows);
        assert_eq!(x.len(), self.cols);
        for r in 0..self.rows {
            let g = y[r];
            if g == 0.0 {
                continue;
            }
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                x[self.col_idx[i]] += self.values[i] * g;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(usize, usize),
    Add(usize, usize),
    AddBias(usize, usize),
    Relu(usize),
    Sigmoid(usize),
    Scale(usize, f64),
    AddScalar(usize),
    MulConst(usize, Arc<Vec<f64>>),
    SparseMatVec(usize, Arc<SparseMatrix>),
    SegmentNormalize(usize, Arc<Vec<Range<usize>>>),
    SegmentMax(usize, Arc<Vec<Range<usize>>>),
    Max(usize),
    RowMax(usize),
    Sum(usize),
    Mean(usize),
    DotConst(usize, Arc<Vec<f64>>),
    LogSumExp(usize, f64),
    RowLogSumExp(usize, f64),
}

#[derive(Debug, Clone)]
struct Node {
    /// Empty for a parameter: its value lives in [`Graph::params`].
    value: Tensor,
    /// Empty unless `needs_grad`.
    grad: Tensor,
    op: Op,
    /// Parameters, inputs and everything computed from one.  Data-only nodes
    /// ([`Graph::constant`] and ops fed only by them) store no gradient and
    /// [`Graph::backward`] neither visits them nor differentiates with respect
    /// to them.
    needs_grad: bool,
}

/// The autograd tape.
///
/// Cloning a graph copies gradients and transient nodes; parameter values and
/// constant payloads are shared ([`Arc`]) until one side writes a parameter,
/// which then takes its own copy.  Data-parallel training does not clone: see
/// [`WorkerTape`].
#[derive(Debug, Default, Clone)]
pub struct Graph {
    /// Values of the persistent prefix, `params[i]` for node `i`.  Behind an
    /// [`Arc`] so [`WorkerTape::run`] can lend them to a worker without
    /// copying; writers go through [`Arc::make_mut`], which copies only while
    /// somebody else still holds the allocation.
    params: Arc<Vec<Tensor>>,
    nodes: Vec<Node>,
    persistent: usize,
    sealed: bool,
    /// Buffers of discarded transient nodes, in the order the next pass over
    /// the same ops will ask for them: a tape that replays one op sequence
    /// (training, serving) stops allocating after its first pass.
    spare: Vec<Vec<f64>>,
    /// Per-op scratch of [`Graph::backward`]: one row of a contribution that
    /// is itself a sum, and the transposed gradient tile of `matmul`.
    row: Vec<f64>,
    lanes: Vec<f64>,
    /// `true` on a [`WorkerTape`]: [`Graph::backward`] defers the gradient of
    /// every weight it can to the batch reduction.
    worker: bool,
    /// On a worker tape, how the last [`Graph::backward`] treated each
    /// parameter: what [`Graph::add_scaled_grad_sum`] reads of the tape.
    /// Empty until then.
    uses: Vec<ParamUse>,
}

/// How a worker tape's [`Graph::backward`] treats a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParamUse {
    /// Nothing below the loss reads it: its gradient is zero.
    Unused,
    /// Read once, as the weight `w` of the product `a·w` at node `product`,
    /// with `a` the transient node `left`: its gradient `aᵀ·g` is left to the
    /// batch reduction, which reads `a` and the product's gradient `g` where
    /// they lie on the tape.
    Deferred { left: usize, product: usize },
    /// Read some other way: its gradient is summed into a buffer on the tape.
    Kept,
}

impl Op {
    /// The nodes the op reads (a node read twice, twice).
    fn operands(&self) -> [Option<usize>; 2] {
        match *self {
            Op::Leaf => [None, None],
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddBias(a, b) => [Some(a), Some(b)],
            Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::MulConst(a, _)
            | Op::SparseMatVec(a, _)
            | Op::SegmentNormalize(a, _)
            | Op::SegmentMax(a, _)
            | Op::Max(a)
            | Op::RowMax(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::DotConst(a, _)
            | Op::LogSumExp(a, _)
            | Op::RowLogSumExp(a, _) => [Some(a), None],
        }
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Graph {
        Graph::default()
    }

    fn val(&self, i: usize) -> &Tensor {
        if i < self.persistent {
            &self.params[i]
        } else {
            &self.nodes[i].value
        }
    }

    /// A recycled (or new) buffer, empty.
    fn buffer(&mut self) -> Vec<f64> {
        let mut data = self.spare.pop().unwrap_or_default();
        data.clear();
        data
    }

    /// A zeroed tensor on recycled storage.
    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut data = self.buffer();
        data.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, data)
    }

    /// A copy of node `i`'s value on recycled storage.
    fn copy_of(&mut self, i: usize) -> Tensor {
        let data = self.buffer();
        copy_into(data, self.val(i))
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        let grad =
            if needs_grad { self.zeros(value.rows(), value.cols()) } else { Tensor::zeros(0, 0) };
        self.nodes.push(Node { value, grad, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// Pushes the result of an op over `operands`; it needs a gradient if any
    /// of them does.
    fn push_op(&mut self, value: Tensor, op: Op, operands: &[usize]) -> Var {
        let needs_grad = operands.iter().any(|&i| self.nodes[i].needs_grad);
        self.push(value, op, needs_grad)
    }

    /// [`Graph::push_op`] for a `1×1` result.
    fn push_scalar(&mut self, value: f64, op: Op, operand: usize) -> Var {
        let mut out = self.zeros(1, 1);
        out.set(0, 0, value);
        self.push_op(out, op, &[operand])
    }

    /// Creates a persistent leaf (a trainable parameter).  Must be called
    /// before [`Graph::seal`] and before any other node is created.
    pub fn parameter(&mut self, value: Tensor) -> Var {
        assert!(!self.sealed, "parameters must be created before seal()");
        assert_eq!(self.nodes.len(), self.persistent, "parameters must precede every other node");
        let grad = Tensor::zeros(value.rows(), value.cols());
        Arc::make_mut(&mut self.params).push(value);
        self.nodes.push(Node { value: Tensor::zeros(0, 0), grad, op: Op::Leaf, needs_grad: true });
        self.persistent = self.nodes.len();
        Var(self.persistent - 1)
    }

    /// Marks the end of the persistent (parameter) prefix.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Removes every transient node, keeping its storage for the next pass.
    fn truncate(&mut self) {
        self.uses.clear();
        // `push` draws a node's value before its gradient and `buffer` pops
        // from the back, so storing last node first, gradient before value,
        // hands every buffer back to the node that held it.
        for node in self.nodes.drain(self.persistent..).rev() {
            for tensor in [node.grad, node.value] {
                if !tensor.is_empty() {
                    self.spare.push(tensor.into_vec());
                }
            }
        }
    }

    /// Removes every transient node and zeroes all gradients.  Parameters keep
    /// their values.
    pub fn reset(&mut self) {
        self.truncate();
        self.zero_grads();
    }

    /// Creates a transient leaf that receives a gradient (an input one wants
    /// to differentiate with respect to; see [`Graph::constant`] for data).
    pub fn input(&mut self, value: Tensor) -> Var {
        // Copied onto the tape's own storage: every buffer `truncate` keeps
        // is then one `buffer` handed out, and the pool cannot grow.
        let value = copy_into(self.buffer(), &value);
        self.push(value, Op::Leaf, true)
    }

    /// Creates a transient `rows × cols` data-only leaf — a feature batch, a
    /// vector of bounds — whose (zeroed) storage `fill` writes in place.  It
    /// stores and receives no gradient, and [`Graph::backward`] skips every
    /// product that would only differentiate with respect to it.
    pub fn constant(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f64])) -> Var {
        let mut value = self.zeros(rows, cols);
        fill(value.data_mut());
        self.push(value, Op::Leaf, false)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        self.val(v.0)
    }

    /// The gradient of a node (valid after [`Graph::backward`]); empty for a
    /// data-only node.
    ///
    /// # Panics
    /// On a worker tape, for a parameter: the tape's share of a parameter's
    /// gradient is the batch reduction's to read, and for a weight it is never
    /// formed ([`Graph::add_scaled_grad_sum`] gives the owner the result).
    pub fn grad(&self, v: Var) -> &Tensor {
        assert!(
            !self.worker || v.0 >= self.persistent,
            "a worker tape's parameter gradients go to Graph::add_scaled_grad_sum; read the owner's"
        );
        &self.nodes[v.0].grad
    }

    /// Accumulates an externally computed gradient into a node.
    pub fn add_grad(&mut self, v: Var, grad: &Tensor) {
        self.nodes[v.0].grad.add_assign(grad);
    }

    /// Zeroes the gradient of every node on the tape.
    pub fn zero_grads(&mut self) {
        for n in &mut self.nodes {
            n.grad.fill_zero();
        }
    }

    /// Overwrites the value of a (parameter) node in place.
    pub fn set_value(&mut self, v: Var, value: Tensor) {
        let slot = self.value_mut(v);
        assert_eq!(slot.shape(), value.shape(), "shape mismatch in set_value");
        *slot = value;
    }

    /// Mutable access to a node value.
    pub fn value_mut(&mut self, v: Var) -> &mut Tensor {
        self.value_mut_and_grad(v).0
    }

    /// A node's value, mutably, together with its gradient: what an optimizer
    /// step reads and writes, without copying either.
    pub fn value_mut_and_grad(&mut self, v: Var) -> (&mut Tensor, &Tensor) {
        let node = &mut self.nodes[v.0];
        if v.0 < self.persistent {
            (&mut Arc::make_mut(&mut self.params)[v.0], &node.grad)
        } else {
            (&mut node.value, &node.grad)
        }
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- data-parallel workers ---------------------------------------------

    /// A tape for one data-parallel worker over this (sealed) graph's
    /// parameters; see [`WorkerTape`].
    pub fn worker_tape(&self) -> WorkerTape {
        assert!(self.sealed, "worker tapes are made from a sealed graph");
        // No gradient buffers yet: `backward` makes the ones it needs.
        let parameter = || Node {
            value: Tensor::zeros(0, 0),
            grad: Tensor::zeros(0, 0),
            op: Op::Leaf,
            needs_grad: true,
        };
        WorkerTape {
            tape: Graph {
                nodes: (0..self.persistent).map(|_| parameter()).collect(),
                persistent: self.persistent,
                sealed: true,
                worker: true,
                ..Graph::default()
            },
        }
    }

    /// The batch reduction of data-parallel training: adds to the gradient of
    /// every listed parameter the tapes' shares of it, summed **in tape
    /// order** and scaled — `grad(p) += (((0 + g₀) + g₁) + …) · scale` per
    /// element, where `g_t` is tape `t`'s share as its last
    /// [`Graph::backward`] left it.  A weight's share was never formed: the
    /// tape left its product's operands, and each `g_t` is computed here, in
    /// the same sum, as `aᵀ·g` would have been on the tape.  A tape whose pass
    /// did not reach the parameter adds nothing, which is exact: the sum is
    /// never `-0.0`, so adding `+0.0` moves no bit.  The order of the sum is
    /// fixed by the slice; the rows of a parameter are independent of each
    /// other, so they are cut into fixed-size tasks of about
    /// `ELEMENTWISE_TASK` elements and shared out over the worker threads.
    pub fn add_scaled_grad_sum(&mut self, params: &[Var], tapes: &[WorkerTape], scale: f64) {
        for &p in params {
            let (rows, cols) = self.params[p.0].shape();
            let target = self.nodes[p.0].grad.data_mut();
            if target.is_empty() {
                continue;
            }
            let parts: Vec<GradPart<'_>> = tapes.iter().filter_map(|t| t.tape.share(p.0)).collect();
            for part in &parts {
                let fits = match *part {
                    GradPart::Dense(grad) => grad.len() == rows * cols,
                    GradPart::Product { a, g } => {
                        a.len() % rows == 0 && a.len() / rows * cols == g.len()
                    }
                };
                assert!(fits, "tape gradients must match the parameter");
            }
            let task_rows = (ELEMENTWISE_TASK / cols).max(1);
            let tasks: Vec<(usize, &mut [f64])> =
                target.chunks_mut(task_rows * cols).enumerate().collect();
            tasks.into_par_iter().for_each(|(task, target)| {
                add_grad_b_sum(Body::Native, target, task * task_rows, rows, cols, &parts, scale)
            });
        }
    }

    // ---- operations -------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.zeros(self.val(a.0).rows(), self.val(b.0).cols());
        self.val(a.0).matmul_into(self.val(b.0), &mut value);
        self.push_op(value, Op::MatMul(a.0, b.0), &[a.0, b.0])
    }

    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.copy_of(a.0);
        value.add_assign(self.val(b.0));
        self.push_op(value, Op::Add(a.0, b.0), &[a.0, b.0])
    }

    /// Adds a `1×n` bias row to every row of an `m×n` node.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let mut value = self.copy_of(x.0);
        let bv = self.val(bias.0);
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(bv.cols(), value.cols(), "bias width must match");
        if !bv.is_empty() {
            for row in value.data_mut().chunks_exact_mut(bv.cols()) {
                for (v, b) in row.iter_mut().zip(bv.data()) {
                    *v += b;
                }
            }
        }
        self.push_op(value, Op::AddBias(x.0, bias.0), &[x.0, bias.0])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut value = self.copy_of(a.0);
        for v in value.data_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.push_op(value, Op::Relu(a.0), &[a.0])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut value = self.copy_of(a.0);
        for v in value.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        self.push_op(value, Op::Sigmoid(a.0), &[a.0])
    }

    /// Multiplies every element by a scalar constant.
    pub fn scale(&mut self, a: Var, k: f64) -> Var {
        let mut value = self.copy_of(a.0);
        for v in value.data_mut() {
            *v *= k;
        }
        self.push_op(value, Op::Scale(a.0, k), &[a.0])
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, k: f64) -> Var {
        let mut value = self.copy_of(a.0);
        for v in value.data_mut() {
            *v += k;
        }
        self.push_op(value, Op::AddScalar(a.0), &[a.0])
    }

    /// Element-wise product with a constant.  The constant either matches the
    /// node's full element count, or has length `cols` and is broadcast across
    /// every row of a batched node.
    pub fn mul_const(&mut self, a: Var, constant: Arc<Vec<f64>>) -> Var {
        let mut value = self.copy_of(a.0);
        let cols = value.cols();
        if constant.len() == value.len() {
            for (v, c) in value.data_mut().iter_mut().zip(constant.iter()) {
                *v *= c;
            }
        } else {
            assert_eq!(
                constant.len(),
                cols,
                "constant length must match the element count or the column count"
            );
            for row in value.data_mut().chunks_mut(cols) {
                for (v, c) in row.iter_mut().zip(constant.iter()) {
                    *v *= c;
                }
            }
        }
        self.push_op(value, Op::MulConst(a.0, constant), &[a.0])
    }

    /// `Y[r] = M X[r]` per row, for a constant sparse matrix and an
    /// `R×M.cols()` node; the result is an `R×M.rows()` node (`1×M.rows()`
    /// for a single sample).
    pub fn sparse_matvec(&mut self, a: Var, matrix: Arc<SparseMatrix>) -> Var {
        let rows = self.val(a.0).rows();
        let mut out = self.zeros(rows, matrix.rows());
        let x = self.val(a.0);
        assert_eq!(x.cols(), matrix.cols(), "node width must match the matrix column count");
        for r in 0..rows {
            let src = &x.data()[r * matrix.cols()..(r + 1) * matrix.cols()];
            let dst = &mut out.data_mut()[r * matrix.rows()..(r + 1) * matrix.rows()];
            matrix.matvec_into(src, dst);
        }
        self.push_op(out, Op::SparseMatVec(a.0, matrix), &[a.0])
    }

    /// Normalizes each segment of every row so it sums to 1
    /// (`r_p = x_p / Σ_{q ∈ segment} x_q`).  Segments index columns; inputs
    /// must be non-negative; an all-zero segment yields a uniform distribution
    /// over that segment.
    pub fn segment_normalize(&mut self, a: Var, segments: Arc<Vec<Range<usize>>>) -> Var {
        let mut out = self.copy_of(a.0);
        let cols = out.cols();
        for row in out.data_mut().chunks_mut(cols) {
            for seg in segments.iter() {
                let sum: f64 = row[seg.clone()].iter().sum();
                if sum > 0.0 {
                    for v in &mut row[seg.clone()] {
                        *v /= sum;
                    }
                } else {
                    let n = seg.len().max(1);
                    for v in &mut row[seg.clone()] {
                        *v = 1.0 / n as f64;
                    }
                }
            }
        }
        self.push_op(out, Op::SegmentNormalize(a.0, segments), &[a.0])
    }

    /// Per-segment maximum of every row; the result has one column per
    /// segment.  Empty segments yield 0.
    pub fn segment_max(&mut self, a: Var, segments: Arc<Vec<Range<usize>>>) -> Var {
        let rows = self.val(a.0).rows();
        let mut out = self.zeros(rows, segments.len());
        let value = self.val(a.0);
        let cols = value.cols();
        for r in 0..rows {
            let row = &value.data()[r * cols..(r + 1) * cols];
            for (s, seg) in segments.iter().enumerate() {
                out.set(r, s, row[seg.clone()].iter().cloned().fold(0.0f64, f64::max));
            }
        }
        self.push_op(out, Op::SegmentMax(a.0, segments), &[a.0])
    }

    /// Maximum element over the whole node (a `1×1` result).
    pub fn max(&mut self, a: Var) -> Var {
        let m = self.val(a.0).max_value();
        self.push_scalar(m, Op::Max(a.0), a.0)
    }

    /// Per-row maximum (an `R×1` result); the batched counterpart of
    /// [`Graph::max`].
    pub fn row_max(&mut self, a: Var) -> Var {
        let rows = self.val(a.0).rows();
        let mut out = self.zeros(rows, 1);
        let value = self.val(a.0);
        let cols = value.cols();
        assert!(cols > 0, "row_max requires at least one column");
        for r in 0..rows {
            let m = value.data()[r * cols..(r + 1) * cols]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            out.set(r, 0, m);
        }
        self.push_op(out, Op::RowMax(a.0), &[a.0])
    }

    /// Sum of all elements (a `1×1` result).
    pub fn sum(&mut self, a: Var) -> Var {
        let s: f64 = self.val(a.0).data().iter().sum();
        self.push_scalar(s, Op::Sum(a.0), a.0)
    }

    /// Arithmetic mean of all elements (a `1×1` result); the standard batch
    /// reduction of per-sample losses.
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.val(a.0).len();
        assert!(n > 0, "mean of an empty node");
        let s: f64 = self.val(a.0).data().iter().sum();
        self.push_scalar(s / n as f64, Op::Mean(a.0), a.0)
    }

    /// Smooth maximum `T · ln Σ exp(x_i / T)` over the whole node (a `1×1`
    /// result).
    ///
    /// Upper-bounds the true maximum and converges to it as the temperature
    /// `T → 0`.  Used by the iterative MLU solver, where a smooth surrogate of
    /// the max-link-utilization objective converges much faster than the
    /// sub-gradient of the exact maximum.
    pub fn logsumexp(&mut self, a: Var, temperature: f64) -> Var {
        assert!(temperature > 0.0, "temperature must be positive");
        let value = logsumexp_slice(self.val(a.0).data(), temperature);
        self.push_scalar(value, Op::LogSumExp(a.0, temperature), a.0)
    }

    /// Per-row smooth maximum (an `R×1` result); the batched counterpart of
    /// [`Graph::logsumexp`].
    pub fn row_logsumexp(&mut self, a: Var, temperature: f64) -> Var {
        assert!(temperature > 0.0, "temperature must be positive");
        let rows = self.val(a.0).rows();
        let mut out = self.zeros(rows, 1);
        let value = self.val(a.0);
        let cols = value.cols();
        assert!(cols > 0, "row_logsumexp requires at least one column");
        for r in 0..rows {
            out.set(r, 0, logsumexp_slice(&value.data()[r * cols..(r + 1) * cols], temperature));
        }
        self.push_op(out, Op::RowLogSumExp(a.0, temperature), &[a.0])
    }

    /// Dot product of every row with a constant vector (an `R×1` result; a
    /// `1×1` scalar for a single row).
    pub fn dot_const(&mut self, a: Var, constant: Arc<Vec<f64>>) -> Var {
        let rows = self.val(a.0).rows();
        let mut out = self.zeros(rows, 1);
        let value = self.val(a.0);
        let cols = value.cols();
        assert_eq!(constant.len(), cols, "constant length must match the column count");
        for r in 0..rows {
            let row = &value.data()[r * cols..(r + 1) * cols];
            let s: f64 = row.iter().zip(constant.iter()).map(|(a, b)| a * b).sum();
            out.set(r, 0, s);
        }
        self.push_op(out, Op::DotConst(a.0, constant), &[a.0])
    }

    // ---- backward ---------------------------------------------------------

    /// Back-propagates from `loss` (which must be `1×1`), accumulating
    /// gradients into every node that is reachable from it and needs one.
    /// Gradients left by an earlier call are discarded first.  On a
    /// [`WorkerTape`] a weight's gradient is not formed but left for
    /// [`Graph::add_scaled_grad_sum`] (see there).
    ///
    /// Nothing is copied: operands always sit below their result on the tape,
    /// so splitting the node list at the result gives the result read-only and
    /// its operands mutable.  A contribution that is itself a sum is built one
    /// row at a time in a scratch row and then added to the operand's
    /// gradient, which may already hold another consumer's share — adding the
    /// terms straight into it would re-associate that sum.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.val(loss.0).shape(), (1, 1), "loss must be a scalar");
        self.zero_grads();
        self.uses.clear();
        if !self.nodes[loss.0].needs_grad {
            return;
        }
        if self.worker {
            self.plan_parameter_gradients(loss.0);
        }
        self.nodes[loss.0].grad.set(0, 0, 1.0);
        let params: &[Tensor] = &self.params;
        let (row, lanes) = (&mut self.row, &mut self.lanes);
        let uses = &self.uses;
        for i in (self.persistent..=loss.0).rev() {
            let (below, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            if !node.needs_grad || node.grad.data().iter().all(|g| *g == 0.0) {
                continue;
            }
            let g = &node.grad;
            match &node.op {
                Op::Leaf => {}
                &Op::MatMul(a, b) => {
                    let n = g.cols();
                    if below[a].needs_grad {
                        let (b_val, a_grad) = value_and_grad(params, below, b, a);
                        let inner = a_grad.cols();
                        matmul_grad_a(
                            Body::Native,
                            g.data(),
                            b_val.data(),
                            a_grad.data_mut(),
                            inner,
                            n,
                            lanes,
                        );
                    }
                    let deferred = matches!(
                        uses.get(b),
                        Some(&ParamUse::Deferred { product, .. }) if product == i
                    );
                    if below[b].needs_grad && !deferred {
                        let (a_val, b_grad) = value_and_grad(params, below, a, b);
                        let inner = b_grad.rows();
                        let product = [GradPart::Product { a: a_val.data(), g: g.data() }];
                        add_grad_b_sum(Body::Native, b_grad.data_mut(), 0, inner, n, &product, 1.0);
                    }
                }
                &Op::Add(a, b) => {
                    for operand in [a, b] {
                        if below[operand].needs_grad {
                            below[operand].grad.add_assign(g);
                        }
                    }
                }
                &Op::AddBias(x, bias) => {
                    if below[x].needs_grad {
                        below[x].grad.add_assign(g);
                    }
                    if below[bias].needs_grad && !g.is_empty() {
                        row.clear();
                        row.resize(g.cols(), 0.0);
                        for g_row in g.data().chunks_exact(g.cols()) {
                            for (sum, g_rc) in row.iter_mut().zip(g_row) {
                                *sum += g_rc;
                            }
                        }
                        add_to(below[bias].grad.data_mut(), row);
                    }
                }
                &Op::Relu(a) => {
                    let (x, a_grad) = value_and_grad(params, below, a, a);
                    for ((d, x), g) in a_grad.data_mut().iter_mut().zip(x.data()).zip(g.data()) {
                        *d += if *x <= 0.0 { 0.0 } else { *g };
                    }
                }
                &Op::Sigmoid(a) => {
                    let a_grad = below[a].grad.data_mut();
                    for ((d, y), g) in a_grad.iter_mut().zip(node.value.data()).zip(g.data()) {
                        *d += g * (y * (1.0 - y));
                    }
                }
                &Op::Scale(a, k) => below[a].grad.axpy(k, g),
                &Op::AddScalar(a) => below[a].grad.add_assign(g),
                Op::MulConst(a, c) => {
                    let a_grad = below[*a].grad.data_mut();
                    // A constant of `cols` values is broadcast across rows.
                    for ((d, g), k) in a_grad.iter_mut().zip(g.data()).zip(c.iter().cycle()) {
                        *d += g * k;
                    }
                }
                Op::SparseMatVec(a, m) => {
                    let a_grad = below[*a].grad.data_mut();
                    if m.cols() > 0 && m.rows() > 0 {
                        for (a_grad_row, g_row) in
                            a_grad.chunks_exact_mut(m.cols()).zip(g.data().chunks_exact(m.rows()))
                        {
                            row.clear();
                            row.resize(m.cols(), 0.0);
                            m.add_transpose_matvec(g_row, row);
                            add_to(a_grad_row, row);
                        }
                    }
                }
                Op::SegmentNormalize(a, segments) => {
                    let (x, a_grad) = value_and_grad(params, below, *a, *a);
                    let cols = x.cols().max(1);
                    for ((x, a_grad_row), g_row) in x
                        .data()
                        .chunks_exact(cols)
                        .zip(a_grad.data_mut().chunks_exact_mut(cols))
                        .zip(g.data().chunks_exact(cols))
                    {
                        row.clear();
                        row.resize(cols, 0.0);
                        for seg in segments.iter() {
                            let sum: f64 = seg.clone().map(|i| x[i]).sum();
                            if sum <= 0.0 {
                                // Uniform output does not depend on the input.
                                continue;
                            }
                            let gdotx: f64 =
                                seg.clone().map(|i| g_row[i] * x[i]).sum::<f64>() / (sum * sum);
                            for i in seg.clone() {
                                row[i] += g_row[i] / sum - gdotx;
                            }
                        }
                        add_to(a_grad_row, row);
                    }
                }
                Op::SegmentMax(a, segments) => {
                    let (x, a_grad) = value_and_grad(params, below, *a, *a);
                    let cols = x.cols().max(1);
                    let g_cols = segments.len().max(1);
                    for ((x, a_grad_row), g_row) in x
                        .data()
                        .chunks_exact(cols)
                        .zip(a_grad.data_mut().chunks_exact_mut(cols))
                        .zip(g.data().chunks_exact(g_cols))
                    {
                        row.clear();
                        row.resize(cols, 0.0);
                        for (seg, &g_rs) in segments.iter().zip(g_row) {
                            if seg.is_empty() {
                                continue;
                            }
                            // Sub-gradient: route to the first argmax of the segment.
                            let mut best = seg.start;
                            for i in seg.clone() {
                                if x[i] > x[best] {
                                    best = i;
                                }
                            }
                            if x[best] > 0.0 || g_rs != 0.0 {
                                row[best] += g_rs;
                            }
                        }
                        add_to(a_grad_row, row);
                    }
                }
                &Op::Max(a) => {
                    let (x, a_grad) = value_and_grad(params, below, a, a);
                    if !x.is_empty() {
                        a_grad.data_mut()[first_argmax(x.data())] += g.as_scalar();
                    }
                }
                &Op::RowMax(a) => {
                    let (x, a_grad) = value_and_grad(params, below, a, a);
                    let cols = x.cols();
                    for ((x, a_grad_row), g_r) in x
                        .data()
                        .chunks_exact(cols)
                        .zip(a_grad.data_mut().chunks_exact_mut(cols))
                        .zip(g.data())
                    {
                        a_grad_row[first_argmax(x)] += g_r;
                    }
                }
                &Op::Sum(a) => {
                    let upstream = g.as_scalar();
                    for d in below[a].grad.data_mut() {
                        *d += upstream;
                    }
                }
                &Op::Mean(a) => {
                    let a_grad = below[a].grad.data_mut();
                    let upstream = g.as_scalar() / a_grad.len() as f64;
                    for d in a_grad {
                        *d += upstream;
                    }
                }
                Op::DotConst(a, c) => {
                    let a_grad = below[*a].grad.data_mut();
                    if !c.is_empty() {
                        for (a_grad_row, &g_r) in a_grad.chunks_exact_mut(c.len()).zip(g.data()) {
                            if g_r == 0.0 {
                                continue;
                            }
                            for (d, k) in a_grad_row.iter_mut().zip(c.iter()) {
                                *d += g_r * k;
                            }
                        }
                    }
                }
                &Op::LogSumExp(a, temperature) => {
                    let (x, a_grad) = value_and_grad(params, below, a, a);
                    add_logsumexp_grad(
                        x.data(),
                        temperature,
                        g.as_scalar(),
                        a_grad.data_mut(),
                        row,
                    );
                }
                &Op::RowLogSumExp(a, temperature) => {
                    let (x, a_grad) = value_and_grad(params, below, a, a);
                    let cols = x.cols();
                    for ((x, a_grad_row), &g_r) in x
                        .data()
                        .chunks_exact(cols)
                        .zip(a_grad.data_mut().chunks_exact_mut(cols))
                        .zip(g.data())
                    {
                        if g_r != 0.0 {
                            add_logsumexp_grad(x, temperature, g_r, a_grad_row, row);
                        }
                    }
                }
            }
        }
    }

    /// A worker tape's decision, before a backward pass from `loss`, of which
    /// parameter gradients it defers to the batch reduction: a weight read
    /// once below the loss, as the `b` of a product `a·b` whose `a` is
    /// transient (so its value stays on the tape for the reduction to read).
    /// Every other parameter the pass reaches gets a zeroed buffer of its
    /// shape — once; later passes reuse it.
    fn plan_parameter_gradients(&mut self, loss: usize) {
        let persistent = self.persistent;
        self.uses.clear();
        self.uses.resize(persistent, ParamUse::Unused);
        for (i, node) in self.nodes.iter().enumerate().take(loss + 1).skip(persistent) {
            for p in node.op.operands().into_iter().flatten().filter(|&p| p < persistent) {
                self.uses[p] = match (self.uses[p], &node.op) {
                    (ParamUse::Unused, &Op::MatMul(a, b)) if b == p && a >= persistent => {
                        ParamUse::Deferred { left: a, product: i }
                    }
                    _ => ParamUse::Kept,
                };
            }
        }
        for (p, &used) in self.uses.iter().enumerate() {
            let grad = &mut self.nodes[p].grad;
            if used == ParamUse::Kept && grad.is_empty() {
                let (rows, cols) = self.params[p].shape();
                *grad = Tensor::zeros(rows, cols);
            }
        }
    }

    /// This worker tape's share of parameter `p`'s gradient for the batch
    /// reduction, as its last [`Graph::backward`] left it; `None` if that pass
    /// did not reach `p` — or reached its product with a zero gradient, which
    /// `backward` skips and so does the reduction (`0·∞` must not appear).
    fn share(&self, p: usize) -> Option<GradPart<'_>> {
        match *self.uses.get(p)? {
            ParamUse::Unused => None,
            ParamUse::Deferred { left, product } => {
                let g = self.nodes[product].grad.data();
                let a = self.nodes[left].value.data();
                g.iter().any(|g| *g != 0.0).then_some(GradPart::Product { a, g })
            }
            ParamUse::Kept => Some(GradPart::Dense(self.nodes[p].grad.data())),
        }
    }
}

/// The value of operand `read` and the gradient of operand `write` of the
/// node being differentiated, whose operands are all in `below`.  The two may
/// be one node (`relu(a)` reads `a` to route into `a`; `matmul(x, x)`).
fn value_and_grad<'a>(
    params: &'a [Tensor],
    below: &'a mut [Node],
    read: usize,
    write: usize,
) -> (&'a Tensor, &'a mut Tensor) {
    if read < params.len() {
        (&params[read], &mut below[write].grad)
    } else if read == write {
        let node = &mut below[read];
        (&node.value, &mut node.grad)
    } else if read < write {
        let (low, high) = below.split_at_mut(write);
        (&low[read].value, &mut high[0].grad)
    } else {
        let (low, high) = below.split_at_mut(read);
        (&high[0].value, &mut low[write].grad)
    }
}

/// A copy of `source` on the (empty) buffer `data`.
fn copy_into(mut data: Vec<f64>, source: &Tensor) -> Tensor {
    data.extend_from_slice(source.data());
    Tensor::from_vec(source.rows(), source.cols(), data)
}

fn add_to(target: &mut [f64], contribution: &[f64]) {
    for (d, c) in target.iter_mut().zip(contribution) {
        *d += c;
    }
}

/// Index of the first largest element of a non-empty slice.
fn first_argmax(x: &[f64]) -> usize {
    let mut best = 0;
    for (j, v) in x.iter().enumerate() {
        if *v > x[best] {
            best = j;
        }
    }
    best
}

fn logsumexp_slice(x: &[f64], temperature: f64) -> f64 {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = x.iter().map(|v| ((v - m) / temperature).exp()).sum();
    m + temperature * sum.ln()
}

/// `grad += upstream · softmax(x / T)`, the softmax weights staged in `weights`.
fn add_logsumexp_grad(
    x: &[f64],
    temperature: f64,
    upstream: f64,
    grad: &mut [f64],
    weights: &mut Vec<f64>,
) {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    weights.clear();
    weights.extend(x.iter().map(|v| ((v - m) / temperature).exp()));
    let total: f64 = weights.iter().sum();
    for (d, w) in grad.iter_mut().zip(weights.iter()) {
        *d += upstream * w / total;
    }
}

/// A tape for one data-parallel worker: the parameter prefix of the graph it
/// was made from ([`Graph::worker_tape`]), its own transient nodes and
/// scratch — and no parameter values.  [`WorkerTape::run`] lends it the
/// owner's for the length of one forward/backward pass, so any number of
/// workers read the one copy of the weights and the optimizer afterwards
/// finds it unshared and writes it in place.
///
/// Nor does the tape hold a weight's gradient.  A weight read once, as the
/// `b` of a product `a·b` with a transient `a` (every weight of an MLP), has
/// its `∂b = aᵀ·g` left unformed by [`Graph::backward`]: the tape records the
/// weight, `a` and the product, and [`Graph::add_scaled_grad_sum`] computes
/// it from them inside the sum over tapes.  Any other parameter the pass
/// reaches (a bias) gets a gradient buffer of its own on the tape.  Neither
/// is readable on the tape: [`Graph::grad`] panics for a parameter there.
/// The tape is meant to outlive the batch: made once per training call, it
/// allocates during its first pass and reuses that storage after.
#[derive(Debug)]
pub struct WorkerTape {
    tape: Graph,
}

impl WorkerTape {
    /// Runs `f` on the tape — cleared of the previous pass's transient nodes,
    /// gradients left for [`Graph::backward`] to zero — with `owner`'s
    /// parameter values lent to it, and takes them back before returning.
    pub fn run<R>(&mut self, owner: &Graph, f: impl FnOnce(&mut Graph) -> R) -> R {
        assert_eq!(owner.persistent, self.tape.persistent, "the tape belongs to another graph");
        self.tape.truncate();
        let hollow = std::mem::replace(&mut self.tape.params, Arc::clone(&owner.params));
        let out = f(&mut self.tape);
        self.tape.params = hollow;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sparse_matrix_matvec_and_transpose() {
        // M = [[1, 0, 2], [0, 3, 0]]
        let m = SparseMatrix::from_rows(2, 3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        let mut x = vec![0.0; 3];
        m.add_transpose_matvec(&[1.0, 2.0], &mut x);
        assert_eq!(x, vec![1.0, 6.0, 2.0]);
    }

    #[test]
    fn forward_values_are_correct() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 1.0]));
        let y = g.matmul(x, w);
        assert_eq!(g.value(y).data(), &[4.0, 6.0]);
        let r = g.relu(y);
        assert_eq!(g.value(r).data(), &[4.0, 6.0]);
        let s = g.sum(r);
        assert_eq!(g.value(s).as_scalar(), 10.0);
        let m = g.max(y);
        assert_eq!(g.value(m).as_scalar(), 6.0);
        g.reset();
        assert_eq!(g.len(), 1, "reset keeps only persistent parameters");
    }

    #[test]
    fn backward_through_linear_layer() {
        // loss = sum(relu(x W + b)) with positive pre-activations:
        // dL/dW = x^T . 1, dL/db = 1, dL/dx = 1 . W^T.
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]));
        let b = g.parameter(Tensor::row(&[10.0, 10.0]));
        g.seal();
        let x = g.input(Tensor::row(&[2.0, 5.0]));
        let xw = g.matmul(x, w);
        let z = g.add_bias(xw, b);
        let a = g.relu(z);
        let loss = g.sum(a);
        g.backward(loss);
        assert_eq!(g.grad(w).data(), &[2.0, 2.0, 5.0, 5.0]);
        assert_eq!(g.grad(b).data(), &[1.0, 1.0]);
        assert_eq!(g.grad(x).data(), &[-1.0, 7.0]);
    }

    #[test]
    fn segment_normalize_sums_to_one_and_handles_zero() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[2.0, 6.0, 0.0, 0.0, 5.0]));
        let segs = Arc::new(vec![0..2, 2..4, 4..5]);
        let r = g.segment_normalize(x, segs);
        let out = g.value(r).data().to_vec();
        assert!((out[0] - 0.25).abs() < 1e-12);
        assert!((out[1] - 0.75).abs() < 1e-12);
        assert!((out[2] - 0.5).abs() < 1e-12);
        assert!((out[3] - 0.5).abs() < 1e-12);
        assert!((out[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_and_segment_max_route_gradients_to_argmax() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 5.0, 3.0, 4.0]));
        let segs = Arc::new(vec![0..2, 2..4]);
        let sm = g.segment_max(x, segs);
        assert_eq!(g.value(sm).data(), &[5.0, 4.0]);
        let total = g.sum(sm);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0, 1.0]);

        g.reset();
        let x = g.input(Tensor::row(&[1.0, 5.0, 3.0]));
        let m = g.max(x);
        g.backward(m);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn scalar_ops_and_dot() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let s = g.scale(x, 3.0);
        assert_eq!(g.value(s).data(), &[3.0, 6.0]);
        let t = g.add_scalar(s, 1.0);
        assert_eq!(g.value(t).data(), &[4.0, 7.0]);
        let d = g.dot_const(t, Arc::new(vec![1.0, 2.0]));
        assert_eq!(g.value(d).as_scalar(), 18.0);
        g.backward(d);
        assert_eq!(g.grad(x).data(), &[3.0, 6.0]);
    }

    #[test]
    fn logsumexp_bounds_max_and_has_softmax_gradient() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let lse = g.logsumexp(x, 0.1);
        let value = g.value(lse).as_scalar();
        assert!(value >= 3.0, "logsumexp must upper-bound the max");
        assert!(value < 3.1, "with a low temperature it must be close to the max");
        g.backward(lse);
        let grads = g.grad(x).data().to_vec();
        assert!((grads.iter().sum::<f64>() - 1.0).abs() < 1e-9, "softmax weights sum to 1");
        assert!(grads[1] > 0.99, "the max coordinate dominates");
    }

    #[test]
    fn sigmoid_gradient_matches_formula() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[0.0]));
        let y = g.sigmoid(x);
        let loss = g.sum(y);
        g.backward(loss);
        // sigma(0) = 0.5, derivative = 0.25.
        assert!((g.value(y).data()[0] - 0.5).abs() < 1e-12);
        assert!((g.grad(x).data()[0] - 0.25).abs() < 1e-12);
    }

    // ---- batched (row-major) semantics ------------------------------------

    #[test]
    fn batched_segment_normalize_acts_per_row() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 4, vec![2.0, 6.0, 1.0, 3.0, 5.0, 5.0, 0.0, 0.0]));
        let segs = Arc::new(vec![0..2, 2..4]);
        let r = g.segment_normalize(x, segs);
        let out = g.value(r);
        assert_eq!(out.shape(), (2, 4));
        assert!((out.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((out.get(0, 1) - 0.75).abs() < 1e-12);
        assert!((out.get(0, 2) - 0.25).abs() < 1e-12);
        assert!((out.get(1, 0) - 0.5).abs() < 1e-12);
        // All-zero segment in row 1 becomes uniform.
        assert!((out.get(1, 2) - 0.5).abs() < 1e-12);
        assert!((out.get(1, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batched_sparse_matvec_matches_per_row_matvec() {
        let m =
            Arc::new(SparseMatrix::from_rows(2, 3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]));
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 1.0, 1.0, 2.0, 0.5, -1.0]));
        let y = g.sparse_matvec(x, m.clone());
        assert_eq!(g.value(y).shape(), (2, 2));
        assert_eq!(&g.value(y).data()[0..2], m.matvec(&[1.0, 1.0, 1.0]).as_slice());
        assert_eq!(&g.value(y).data()[2..4], m.matvec(&[2.0, 0.5, -1.0]).as_slice());
        // Gradients flow independently per row.
        let total = g.sum(y);
        g.backward(total);
        assert_eq!(g.grad(x).shape(), (2, 3));
        assert_eq!(&g.grad(x).data()[0..3], &[1.0, 3.0, 2.0]);
        assert_eq!(&g.grad(x).data()[3..6], &[1.0, 3.0, 2.0]);
    }

    #[test]
    fn row_max_routes_gradient_per_row() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 5.0, 3.0, 7.0, 2.0, 6.0]));
        let m = g.row_max(x);
        assert_eq!(g.value(m).shape(), (2, 1));
        assert_eq!(g.value(m).data(), &[5.0, 7.0]);
        let total = g.sum(m);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_gradient_is_uniform() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 6.0]));
        let m = g.mean(x);
        assert_eq!(g.value(m).as_scalar(), 3.0);
        g.backward(m);
        assert_eq!(g.grad(x).data(), &[0.25; 4]);
    }

    #[test]
    fn mul_const_broadcasts_across_rows() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0; 6]));
        let y = g.mul_const(x, Arc::new(vec![1.0, 2.0, 3.0]));
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let total = g.sum(y);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn batched_dot_const_yields_column() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let d = g.dot_const(x, Arc::new(vec![2.0, 1.0]));
        assert_eq!(g.value(d).shape(), (2, 1));
        assert_eq!(g.value(d).data(), &[4.0, 10.0]);
        let total = g.sum(d);
        g.backward(total);
        assert_eq!(g.grad(x).data(), &[2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn row_logsumexp_matches_global_on_single_row() {
        let mut g = Graph::new();
        g.seal();
        let x1 = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let global = g.logsumexp(x1, 0.1);
        let x2 = g.input(Tensor::row(&[1.0, 3.0, 2.0]));
        let per_row = g.row_logsumexp(x2, 0.1);
        assert!((g.value(global).as_scalar() - g.value(per_row).get(0, 0)).abs() < 1e-12);
        // Batched: each row upper-bounds its own max.
        let x3 = g.input(Tensor::from_vec(2, 2, vec![0.0, 1.0, 5.0, 4.0]));
        let lse = g.row_logsumexp(x3, 0.05);
        assert!(g.value(lse).get(0, 0) >= 1.0);
        assert!(g.value(lse).get(1, 0) >= 5.0);
    }

    #[test]
    fn cloned_graph_is_independent_and_sendable() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[1.0, 2.0]));
        g.seal();
        let mut clone = g.clone();
        let handle = std::thread::spawn(move || {
            // The loss flows through the parameter, so the worker writes a
            // non-zero gradient into ITS tape.
            let x = clone.input(Tensor::row(&[3.0, 4.0]));
            let z = clone.add(x, w);
            let d = clone.dot_const(z, Arc::new(vec![1.0, 1.0]));
            let loss = clone.sum(d);
            clone.backward(loss);
            clone.grad(w).data().to_vec()
        });
        let worker_grads = handle.join().unwrap();
        assert_eq!(worker_grads, vec![1.0, 1.0], "the clone must accumulate real gradients");
        // ...while the original tape's gradient storage stays untouched.
        assert_eq!(g.grad(w).data(), &[0.0, 0.0]);
        assert_eq!(g.value(w).data(), &[1.0, 2.0]);
    }

    #[test]
    fn add_grad_accumulates_external_gradients() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[0.0, 0.0]));
        g.seal();
        g.add_grad(w, &Tensor::row(&[1.0, 2.0]));
        g.add_grad(w, &Tensor::row(&[0.5, -1.0]));
        assert_eq!(g.grad(w).data(), &[1.5, 1.0]);
        g.zero_grads();
        assert_eq!(g.grad(w).data(), &[0.0, 0.0]);
    }

    // ---- tape semantics of the copy-free backward pass ----------------------

    fn data(g: &mut Graph, rows: usize, values: &[f64]) -> Var {
        g.constant(rows, values.len() / rows, |out| out.copy_from_slice(values))
    }

    #[test]
    fn a_node_consumed_twice_accumulates_both_shares() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, -2.0, 3.0]));
        // loss = sum(3x) + sum(relu(x)): x feeds two consumers.
        let tripled = g.scale(x, 3.0);
        let a = g.sum(tripled);
        let rectified = g.relu(x);
        let b = g.sum(rectified);
        let loss = g.add(a, b);
        g.backward(loss);
        assert_eq!(g.grad(x).data(), &[4.0, 3.0, 4.0]);
    }

    #[test]
    fn add_of_a_node_with_itself_doubles_its_gradient() {
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let doubled = g.add(x, x);
        assert_eq!(g.value(doubled).data(), &[2.0, 4.0]);
        let d = g.dot_const(doubled, Arc::new(vec![5.0, 7.0]));
        g.backward(d);
        assert_eq!(g.grad(x).data(), &[10.0, 14.0]);
    }

    #[test]
    fn matmul_of_a_node_with_itself_gets_both_products() {
        // loss = sum(X·X): dL/dX = 1·Xᵀ + Xᵀ·1.
        let mut g = Graph::new();
        g.seal();
        let x = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let xx = g.matmul(x, x);
        assert_eq!(g.value(xx).data(), &[7.0, 10.0, 15.0, 22.0]);
        let loss = g.sum(xx);
        g.backward(loss);
        // (1·Xᵀ)[r][k] = Σⱼ X[k][j] = row sums (3, 7) per column k;
        // (Xᵀ·1)[k][j] = Σᵢ X[i][k] = column sums (4, 6) per row k.
        assert_eq!(g.grad(x).data(), &[3.0 + 4.0, 7.0 + 4.0, 3.0 + 6.0, 7.0 + 6.0]);
    }

    #[test]
    fn data_only_leaves_have_no_gradient_and_their_ops_are_skipped() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]));
        g.seal();
        let x = data(&mut g, 1, &[2.0, 5.0]);
        assert!(g.grad(x).is_empty(), "a data-only leaf stores no gradient");
        // An op fed only by data is data: no gradient, never visited.
        let shifted = g.add_scalar(x, 1.0);
        assert_eq!(g.value(shifted).data(), &[3.0, 6.0]);
        assert!(g.grad(shifted).is_empty());
        // Data times a parameter needs a gradient, and the parameter gets the
        // same one as through a differentiable input.
        let y = g.matmul(shifted, w);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(w).data(), &[3.0, 3.0, 6.0, 6.0]);
        assert!(g.grad(x).is_empty() && g.grad(shifted).is_empty());

        // A loss that only data reaches has nothing to propagate.
        let constant_loss = g.sum(shifted);
        g.backward(constant_loss);
        assert_eq!(g.grad(w).data(), &[0.0; 4]);
    }

    #[test]
    fn a_second_backward_does_not_see_the_first_ones_gradients() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[1.0, 2.0]));
        g.seal();
        let x = g.input(Tensor::row(&[3.0, 4.0]));
        let z = g.add(x, w);
        let first = g.dot_const(z, Arc::new(vec![1.0, 1.0]));
        let second = g.dot_const(z, Arc::new(vec![10.0, 20.0]));
        g.backward(first);
        assert_eq!(g.grad(w).data(), &[1.0, 1.0]);
        g.backward(second);
        assert_eq!(g.grad(w).data(), &[10.0, 20.0]);
        assert_eq!(g.grad(x).data(), &[10.0, 20.0]);
        assert_eq!(
            g.grad(first).data(),
            &[0.0],
            "a node the loss does not reach keeps no gradient"
        );
    }

    #[test]
    fn recycled_storage_does_not_leak_between_passes() {
        // The second pass runs on the first one's buffers, handed out in the
        // same order; its results must be those of a fresh tape.
        let pass = |g: &mut Graph, w: Var, values: &[f64]| {
            let x = data(g, 2, values);
            let y = g.matmul(x, w);
            let r = g.relu(y);
            let m = g.row_max(r);
            let loss = g.sum(m);
            g.backward(loss);
            (g.value(y).data().to_vec(), g.grad(w).data().to_vec())
        };
        let weights = Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
        let mut reused = Graph::new();
        let w = reused.parameter(weights.clone());
        reused.seal();
        pass(&mut reused, w, &[9.0, 8.0, 7.0, 6.0, 5.0, 4.0]);
        reused.reset();
        let len_after_reset = reused.len();
        let second = pass(&mut reused, w, &[1.0, 0.0, -2.0, 0.5, 3.0, 1.0]);

        let mut fresh = Graph::new();
        let w = fresh.parameter(weights);
        fresh.seal();
        assert_eq!(second, pass(&mut fresh, w, &[1.0, 0.0, -2.0, 0.5, 3.0, 1.0]));
        assert_eq!(len_after_reset, 1);
    }

    // ---- worker tapes --------------------------------------------------------

    /// `loss = Σ rows of (x · w)` on whatever tape it is handed.
    fn product_loss(g: &mut Graph, w: Var, x: &[f64]) -> f64 {
        let x = data(g, 1, x);
        let y = g.matmul(x, w);
        let loss = g.sum(y);
        g.backward(loss);
        g.value(loss).as_scalar()
    }

    #[test]
    fn worker_tapes_read_the_owners_weights_and_keep_their_own_gradients() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        g.seal();
        let mut tapes = [g.worker_tape(), g.worker_tape()];
        let first = tapes[0].run(&g, |tape| product_loss(tape, w, &[1.0, 1.0]));
        let second = tapes[1].run(&g, |tape| product_loss(tape, w, &[2.0, 0.0]));
        assert_eq!((first, second), (10.0, 6.0));
        assert_eq!(g.grad(w).data(), &[0.0; 4], "the owner's gradients are its own");

        // The batch reduction: the tapes' shares xᵀ·1 — [1, 1, 1, 1] and
        // [2, 2, 0, 0], formed here and not on the tapes — summed in tape
        // order, (((0 + s₀) + s₁)) · scale, and added in place.
        g.add_scaled_grad_sum(&[w], &tapes, 0.5);
        assert_eq!(g.grad(w).data(), &[1.5, 1.5, 0.5, 0.5]);
        // A second reduction over the same passes adds the same shares again.
        g.add_scaled_grad_sum(&[w], &tapes, 0.5);
        assert_eq!(g.grad(w).data(), &[3.0, 3.0, 1.0, 1.0]);

        // Once `run` returns nobody shares the weights: an optimizer writes
        // them where they lie instead of taking a copy first.
        let before = g.value(w).data().as_ptr();
        g.value_mut(w).data_mut()[0] = 5.0;
        assert_eq!(g.value(w).data().as_ptr(), before, "value_mut must not copy");
        // ...and the tapes see the update on their next pass.
        let third = tapes[0].run(&g, |tape| product_loss(tape, w, &[1.0, 1.0]));
        assert_eq!(third, 14.0);
    }

    #[test]
    #[should_panic(expected = "worker tape's parameter gradients")]
    fn a_worker_tape_does_not_expose_a_parameter_gradient() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        g.seal();
        let mut tape = g.worker_tape();
        tape.run(&g, |tape| {
            product_loss(tape, w, &[1.0, 1.0]);
            // Never formed on the tape: no empty tensor may stand in for it.
            tape.grad(w).len()
        });
    }

    #[test]
    fn writing_a_lent_weight_copies_instead_of_corrupting_the_owner() {
        let mut g = Graph::new();
        let w = g.parameter(Tensor::row(&[1.0, 2.0]));
        g.seal();
        let mut tape = g.worker_tape();
        tape.run(&g, |tape| tape.value_mut(w).data_mut()[0] = 9.0);
        assert_eq!(g.value(w).data(), &[1.0, 2.0]);
        let clone = g.clone();
        g.value_mut(w).data_mut()[1] = 7.0;
        assert_eq!(clone.value(w).data(), &[1.0, 2.0], "a clone stays a correct copy");
        assert_eq!(g.value(w).data(), &[1.0, 7.0]);
    }

    #[test]
    fn one_tape_reduces_to_the_owners_own_backward() {
        // Every kind of parameter a tape meets: a weight read once (deferred),
        // a weight read by two products and one also read elementwise (both
        // kept in a buffer, every share in it), a bias, a parameter the loss
        // does not reach, and a deferred weight whose product gets a zero
        // gradient from an infinite input (skipped, not `∞·0`).
        let pass = |g: &mut Graph, [once, twice, mixed, bias, unused, idle]: [Var; 6]| {
            let x = data(g, 3, &[0.5, 0.0, -1.5, 2.0, 0.25, 0.0, -0.75, 1.0, 3.0]);
            let h = g.matmul(x, once);
            let h = g.add_bias(h, bias);
            let h = g.relu(h);
            let y = g.matmul(h, twice);
            let y = g.matmul(y, twice);
            let z = g.matmul(y, mixed);
            let weighted = g.mul_const(mixed, Arc::new(vec![0.3, -0.7, 1.1, 0.9]));
            let far = data(g, 1, &[f64::INFINITY, 1.0]);
            let q = g.matmul(far, idle);
            let dead = g.mul_const(q, Arc::new(vec![0.0, 0.0]));
            let (a, b, c) = (g.sum(z), g.sum(weighted), g.sum(dead));
            let ab = g.add(a, b);
            let loss = g.add(ab, c);
            let _ = g.scale(unused, 2.0);
            g.backward(loss);
        };
        let mut g = Graph::new();
        let params = [
            g.parameter(Tensor::from_vec(3, 2, vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.8])),
            g.parameter(Tensor::from_vec(2, 2, vec![1.5, -0.5, 0.25, 2.0])),
            g.parameter(Tensor::from_vec(2, 2, vec![-1.25, 0.75, 0.5, 1.5])),
            g.parameter(Tensor::row(&[0.1, -0.2])),
            g.parameter(Tensor::row(&[4.0])),
            g.parameter(Tensor::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0])),
        ];
        g.seal();
        pass(&mut g, params);
        let own: Vec<Vec<u64>> = params.iter().map(|&p| bits(g.grad(p).data())).collect();

        g.reset();
        let mut tapes = [g.worker_tape()];
        tapes[0].run(&g, |tape| pass(tape, params));
        g.add_scaled_grad_sum(&params, &tapes, 1.0);
        let reduced: Vec<Vec<u64>> = params.iter().map(|&p| bits(g.grad(p).data())).collect();
        assert_eq!(reduced, own);
        for kept in &own[1..3] {
            assert!(kept.iter().all(|&b| b != 0), "every share of a weight read twice counts");
        }
    }

    #[test]
    fn grad_sum_is_the_ordered_sum_on_every_task_of_a_long_tensor() {
        // Longer than one task and not a multiple of it, with values whose
        // sum depends on the order of addition.  A column: tasks are cut
        // between rows.  Read other than as a product's weight, it keeps a
        // gradient buffer on every tape.
        let n = ELEMENTWISE_TASK + ELEMENTWISE_TASK / 2 + 3;
        let mut g = Graph::new();
        let w = g.parameter(Tensor::zeros(n, 1));
        g.seal();
        let mut tapes: Vec<WorkerTape> = (0..3).map(|_| g.worker_tape()).collect();
        let weights: Vec<Vec<f64>> = (0..3)
            .map(|t| (0..n).map(|e| ((e * 7 + t * 13) % 31) as f64 * 0.1 + 1e-13).collect())
            .collect();
        for (tape, c) in tapes.iter_mut().zip(&weights) {
            tape.run(&g, |tape| {
                let weighted = tape.mul_const(w, Arc::new(c.clone()));
                let d = tape.sum(weighted);
                tape.backward(d);
            });
        }
        g.add_grad(w, &Tensor::full(n, 1, 0.25));
        g.add_scaled_grad_sum(&[w], &tapes, 1.0 / 3.0);
        for e in [0, 1, ELEMENTWISE_TASK - 1, ELEMENTWISE_TASK, n - 1] {
            let sum = ((0.0 + weights[0][e]) + weights[1][e]) + weights[2][e];
            assert_eq!(g.grad(w).data()[e], 0.25 + sum * (1.0 / 3.0), "element {e}");
        }
    }

    /// The batch reduction as it was while every tape kept a buffer per
    /// weight: each tape's `aᵀ·g` summed into a zeroed buffer of the weight's
    /// shape one row at a time, through a scratch row (`+0.0` start, ascending
    /// `i`, exact-zero `a` skipped), then `target += (((0 + b₀) + b₁) + …) ·
    /// scale` per element, in tape order.
    fn per_tape_buffer_reduction(
        target: &mut [f64],
        shares: &[(Vec<f64>, Vec<f64>)],
        inner: usize,
        n: usize,
        scale: f64,
    ) {
        let buffers: Vec<Vec<f64>> = shares
            .iter()
            .map(|(a, g)| {
                let mut buffer = vec![0.0; inner * n];
                for (k, buffer_row) in buffer.chunks_exact_mut(n).enumerate() {
                    let mut row = vec![0.0; n];
                    for (a_row, g_row) in a.chunks_exact(inner).zip(g.chunks_exact(n)) {
                        if a_row[k] != 0.0 {
                            for (sum, g_ij) in row.iter_mut().zip(g_row) {
                                *sum += a_row[k] * g_ij;
                            }
                        }
                    }
                    for (d, sum) in buffer_row.iter_mut().zip(row) {
                        *d += sum;
                    }
                }
                buffer
            })
            .collect();
        for (e, d) in target.iter_mut().enumerate() {
            let mut sum = 0.0;
            for buffer in &buffers {
                sum += buffer[e];
            }
            *d += sum * scale;
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A weight's deferred gradient, through real tapes and the real
        /// reduction, against the per-tape buffers it replaced: 1–5 tapes of
        /// 8 rows but a last one of 1–8 (a batch of 20 is 8 + 8 + 4), a third
        /// of `a` exact zeros as after a ReLU, an owner gradient that already
        /// holds a share, widths 1–37 straddling the kernel's 16-column block,
        /// and in one case of four a weight longer than one task.
        #[test]
        fn deferred_weight_gradients_match_the_per_tape_buffer_reference(
            tapes in 1usize..6,
            last_rows in 1usize..9,
            n in 1usize..38,
            inner in 1usize..24,
            long in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let inner = if long == 0 { ELEMENTWISE_TASK / n + inner } else { inner };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut values = |len: usize, sparse: bool| -> Vec<f64> {
                (0..len)
                    .map(|_| rng.gen_range(-4.0..4.0))
                    .map(|v: f64| if sparse && v.abs() < 4.0 / 3.0 { 0.0 } else { v })
                    .collect()
            };
            let mut owner = Graph::new();
            let w = owner.parameter(Tensor::from_vec(inner, n, values(inner * n, false)));
            owner.seal();
            let held = values(inner * n, false);
            owner.add_grad(w, &Tensor::from_vec(inner, n, held.clone()));

            let mut workers: Vec<WorkerTape> = (0..tapes).map(|_| owner.worker_tape()).collect();
            let mut shares = Vec::new();
            for (t, tape) in workers.iter_mut().enumerate() {
                let rows = if t + 1 == tapes { last_rows } else { 8 };
                // loss = Σ (a·w) ⊙ c, so the product's gradient is c exactly.
                let (a, c) = (values(rows * inner, true), values(rows * n, false));
                tape.run(&owner, |tape| {
                    let x = data(tape, rows, &a);
                    let y = tape.matmul(x, w);
                    let weighted = tape.mul_const(y, Arc::new(c.clone()));
                    let loss = tape.sum(weighted);
                    tape.backward(loss);
                });
                shares.push((a, c));
            }
            let scale = 1.0 / 20.0;
            owner.add_scaled_grad_sum(&[w], &workers, scale);
            let mut expected = held;
            per_tape_buffer_reduction(&mut expected, &shares, inner, n, scale);
            prop_assert_eq!(bits(owner.grad(w).data()), bits(&expected));
        }
    }
}
