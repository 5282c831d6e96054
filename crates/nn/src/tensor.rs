//! A minimal dense 2-D tensor (row-major `f64`).
//!
//! All neural-network state in this reproduction — activations, weights,
//! gradients — is a [`Tensor`].  Scalars are `1×1` tensors and vectors are
//! `1×n` row vectors.

use rand::Rng;

use crate::dispatch::{dispatched, Body};

/// Elements per task of a partitioned element-wise pass (the optimizer steps;
/// the batch reduction over worker tapes cuts a parameter into tasks of whole
/// rows, as many as fit in this count, at least one).  A fixed count, never
/// derived from the thread count: an element-wise pass gives the same bits
/// under any partition, and a tensor no longer than one task is one item,
/// which the parallel iterator runs on the calling thread — small models take
/// the serial path without a threshold to tune.
pub(crate) const ELEMENTWISE_TASK: usize = 1 << 16;

/// Rows of the left operand the dense kernels process together.  Within a
/// tile the inner dimension runs outermost, so each row of the right operand
/// is read once per tile instead of once per row of the left.
const TILE_ROWS: usize = 8;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Tensor {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `1×1` tensor holding a scalar.
    pub fn scalar(value: f64) -> Tensor {
        Tensor { rows: 1, cols: 1, data: vec![value] }
    }

    /// A `1×n` row vector with the given entries.
    pub fn row(values: &[f64]) -> Tensor {
        Tensor { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Builds a tensor from a row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows * cols");
        Tensor { rows, cols, data }
    }

    /// Stacks equally sized row slices into a batch-major `B×n` tensor (the
    /// input layout of mini-batch forward passes).
    ///
    /// # Panics
    /// Panics if `rows` is empty or the slices have unequal lengths.
    pub fn stack_rows(rows: &[&[f64]]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all stacked rows must have the same length");
            data.extend_from_slice(row);
        }
        Tensor { rows: rows.len(), cols, data }
    }

    /// Xavier/Glorot-uniform initialization, the standard choice for the fully
    /// connected layers used by FIGRET and DOTE.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Tensor {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The underlying row-major buffer, consumed.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// The value of a `1×1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1×1`.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "tensor is not a scalar");
        self.data[0]
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other` element-wise.
    pub fn axpy(&mut self, scale: f64, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into a caller-provided **zeroed** `self.rows ×
    /// other.cols` tensor.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert_eq!(out.shape(), (self.rows, other.cols), "output shape must be rows × cols");
        matmul_acc(Body::Native, &self.data, &other.data, &mut out.data, self.cols, other.cols);
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Largest element.  NaNs are ignored (`f64::max` propagates the other
    /// operand), so a tensor that is empty or all-NaN yields
    /// `f64::NEG_INFINITY`.
    pub fn max_value(&self) -> f64 {
        self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

// ---- dense kernels ---------------------------------------------------------
//
// The three products of a dense layer: `out = a·b` forward, `∂a = g·bᵀ` and
// `∂b = aᵀ·g` backward, over row-major slices with `a: m×inner`, `b: inner×n`,
// `g, out: m×n`.  The forward and `∂a` stream the (large) weight matrix `b`
// once per tile of TILE_ROWS samples; `∂b` writes each row of the weight's
// gradient once, for any number of products (the batch reduction sums the
// worker tapes' products in it).  None builds a transpose.  Every output
// element is still the sum of the same products in the same ascending order
// from `+0.0` as the naive triple loop, so results are bit-identical to it
// (the tests keep the naive loops as the reference).  Each is `dispatched!`:
// the same loop runs four lanes wide on a CPU with AVX2, with the same bits.

dispatched! {
    /// `out += a · b`, tile by tile; `out` must be zero on entry.
    pub(crate) fn matmul_acc(a: &[f64], b: &[f64], out: &mut [f64], inner: usize, n: usize) {
        if inner == 0 || n == 0 {
            return;
        }
        let tiles = a.chunks(TILE_ROWS * inner).zip(out.chunks_mut(TILE_ROWS * n));
        for (a_tile, out_tile) in tiles {
            for (k, b_row) in b.chunks_exact(n).enumerate() {
                let rows = a_tile.chunks_exact(inner).zip(out_tile.chunks_exact_mut(n));
                for (a_row, out_row) in rows {
                    let a_ik = a_row[k];
                    // ReLU activations make exact zeros common.
                    if a_ik == 0.0 {
                        continue;
                    }
                    for (o, b_kj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
    }
}

dispatched! {
    /// `a_grad += g · bᵀ` over `b`'s rows as they lie: `∂a[r][k] = Σⱼ g[r][j]·b[k][j]`
    /// is a dot product along a row of `b`.  One such sum is a serial chain of
    /// additions, so the chains of a tile's rows run interleaved: the tile of `g`
    /// is transposed into `lanes` (`n × TILE_ROWS`, missing rows zero) and each
    /// `b[k][j]` feeds TILE_ROWS independent accumulators.
    pub(crate) fn matmul_grad_a(
        g: &[f64],
        b: &[f64],
        a_grad: &mut [f64],
        inner: usize,
        n: usize,
        lanes: &mut Vec<f64>,
    ) {
        if inner == 0 || n == 0 {
            return;
        }
        let tiles = g.chunks(TILE_ROWS * n).zip(a_grad.chunks_mut(TILE_ROWS * inner));
        for (g_tile, a_grad_tile) in tiles {
            lanes.clear();
            lanes.resize(n * TILE_ROWS, 0.0);
            for (r, g_row) in g_tile.chunks_exact(n).enumerate() {
                for (j, g_rj) in g_row.iter().enumerate() {
                    lanes[j * TILE_ROWS + r] = *g_rj;
                }
            }
            for (k, b_row) in b.chunks_exact(n).enumerate() {
                let mut acc = [0.0f64; TILE_ROWS];
                for (g_j, b_kj) in lanes.chunks_exact(TILE_ROWS).zip(b_row) {
                    for (sum, g_rj) in acc.iter_mut().zip(g_j) {
                        *sum += g_rj * b_kj;
                    }
                }
                for (a_grad_row, sum) in a_grad_tile.chunks_exact_mut(inner).zip(acc) {
                    a_grad_row[k] += sum;
                }
            }
        }
    }
}

/// One share of a weight's gradient in [`add_grad_b_sum`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum GradPart<'a> {
    /// A gradient already summed into a buffer of the weight's shape.
    Dense(&'a [f64]),
    /// `∂b = aᵀ·g` of one product `a·b`, left to the kernel: `a` is the
    /// product's `m × inner` left operand and `g` its `m × n` gradient.
    Product { a: &'a [f64], g: &'a [f64] },
}

dispatched! {
    /// `b_grad[k][j] += (((0 + s₀) + s₁) + …) · scale` for the rows `first_row..`
    /// of an `inner × n` weight gradient that `b_grad` holds, where `s_m` is
    /// part `m`'s element: a [`GradPart::Dense`] value as it lies, or for a
    /// [`GradPart::Product`] `Σᵢ a[i][k]·g[i][j]` over ascending `i` from
    /// `+0.0`, exact-zero `a[i][k]` skipped.  With one product and `scale =
    /// 1.0` this is `b_grad += aᵀ·g`, the naive loop's bits; with one part per
    /// worker tape it is the batch reduction, summed in part order.  Each
    /// element's sums are its own, so rows can be split over threads anywhere.
    pub(crate) fn add_grad_b_sum(
        b_grad: &mut [f64],
        first_row: usize,
        inner: usize,
        n: usize,
        parts: &[GradPart<'_>],
        scale: f64,
    ) {
        /// Columns summed at a time: a block's sums stay in registers while a
        /// product's rows stream past.
        const BLOCK: usize = 16;

        /// Columns `j..j + W` of row `k`.
        #[inline(always)]
        fn columns<const W: usize>(
            out: &mut [f64],
            k: usize,
            j: usize,
            inner: usize,
            n: usize,
            parts: &[GradPart<'_>],
            scale: f64,
        ) {
            let mut acc = [0.0f64; W];
            for part in parts {
                match *part {
                    GradPart::Dense(grad) => {
                        let share: &[f64; W] = grad[k * n + j..][..W].try_into().expect("W columns");
                        for (sum, v) in acc.iter_mut().zip(share) {
                            *sum += v;
                        }
                    }
                    GradPart::Product { a, g } => {
                        let mut s = [0.0f64; W];
                        for (a_row, g_row) in a.chunks_exact(inner).zip(g.chunks_exact(n)) {
                            let a_ik = a_row[k];
                            if a_ik == 0.0 {
                                continue;
                            }
                            let g_row: &[f64; W] = g_row[j..j + W].try_into().expect("W columns");
                            for (sum, g_ij) in s.iter_mut().zip(g_row) {
                                *sum += a_ik * g_ij;
                            }
                        }
                        for (sum, s) in acc.iter_mut().zip(s) {
                            *sum += s;
                        }
                    }
                }
            }
            for (d, sum) in out.iter_mut().zip(acc) {
                *d += sum * scale;
            }
        }

        if n == 0 {
            return;
        }
        let blocked = n - n % BLOCK;
        for (r, b_grad_row) in b_grad.chunks_exact_mut(n).enumerate() {
            let k = first_row + r;
            let (full, tail) = b_grad_row.split_at_mut(blocked);
            for (block, out) in full.chunks_exact_mut(BLOCK).enumerate() {
                columns::<BLOCK>(out, k, block * BLOCK, inner, n, parts, scale);
            }
            for (c, out) in tail.chunks_exact_mut(1).enumerate() {
                columns::<1>(out, k, blocked + c, inner, n, parts, scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn constructors_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(Tensor::scalar(3.5).as_scalar(), 3.5);
        assert_eq!(Tensor::row(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Tensor::full(2, 2, 7.0).data(), &[7.0; 4]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.axpy(-2.0, &b);
        assert_eq!(a.data(), &[-2.0, -2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
        assert!((Tensor::row(&[3.0, 4.0]).norm() - 5.0).abs() < 1e-12);
        assert_eq!(Tensor::row(&[1.0, 9.0, 3.0]).max_value(), 9.0);
        assert_eq!(Tensor::row(&[1.0, f64::NAN, 3.0]).max_value(), 3.0);
        assert_eq!(Tensor::row(&[]).max_value(), f64::NEG_INFINITY);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Tensor::xavier_uniform(20, 30, &mut rng);
        let limit = (6.0f64 / 50.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit));
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(t, Tensor::xavier_uniform(20, 30, &mut rng2));
    }

    #[test]
    fn stack_rows_builds_batches() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let t = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.row_slice(0), &a);
        assert_eq!(t.row_slice(1), &b);
        assert_eq!(t.get(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn stack_rows_checks_widths() {
        let a = [1.0, 2.0];
        let b = [3.0];
        let _ = Tensor::stack_rows(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn stack_rows_rejects_empty() {
        let _ = Tensor::stack_rows(&[]);
    }

    /// The reference the tiled kernels are held to, bit for bit: one output
    /// element at a time, products in ascending inner index from `+0.0`,
    /// exact-zero left factors skipped (the loop `Tensor::matmul` was before
    /// it was tiled).
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut sum = 0.0;
                for k in 0..a.cols {
                    if a.get(i, k) != 0.0 {
                        sum += a.get(i, k) * b.get(k, j);
                    }
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shapes straddle the tile (1–20 rows against TILE_ROWS = 8), and a
        /// third of the left operand is exact zeros, as after a ReLU.
        #[test]
        fn tiled_kernels_match_the_naive_loops_bit_for_bit(
            m in 1usize..21,
            inner in 1usize..12,
            n in 1usize..12,
            raw in proptest::collection::vec(-4.0f64..4.0, 20 * 11 + 11 * 11 + 20 * 11 + 20 * 11),
        ) {
            let mut raw = raw.into_iter();
            let mut take = |rows: usize, cols: usize, sparse: bool| {
                let data = (0..rows * cols)
                    .map(|_| raw.next().expect("enough values"))
                    .map(|v: f64| if sparse && v.abs() < 4.0 / 3.0 { 0.0 } else { v })
                    .collect();
                Tensor::from_vec(rows, cols, data)
            };
            let (a, b, g) = (take(m, inner, true), take(inner, n, false), take(m, n, true));
            prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b)));

            // The backward products, added to gradients that already hold a
            // share: what `backward` computed by materializing the transposes.
            let mut a_grad = take(m, inner, false);
            let mut expected_a = a_grad.clone();
            expected_a.add_assign(&naive_matmul(&g, &b.transpose()));
            let mut lanes = vec![f64::NAN; 3];
            let a_grad_data = a_grad.data_mut();
            matmul_grad_a(Body::Native, g.data(), b.data(), a_grad_data, inner, n, &mut lanes);
            prop_assert_eq!(bits(&a_grad), bits(&expected_a));

            let mut b_grad = b.clone();
            let mut expected_b = b.clone();
            expected_b.add_assign(&naive_matmul(&a.transpose(), &g));
            let product = [GradPart::Product { a: a.data(), g: g.data() }];
            add_grad_b_sum(Body::Native, b_grad.data_mut(), 0, inner, n, &product, 1.0);
            prop_assert_eq!(bits(&b_grad), bits(&expected_b));
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
