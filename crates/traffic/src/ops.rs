//! Shared element-wise demand kernels.
//!
//! Every arithmetic demand operation — EWMA blending, clamped accumulation,
//! element-wise maxima, cosine similarity — is defined **once** here on plain
//! `f64` slices and reused by both storage layouts:
//!
//! * [`DemandMatrix`](crate::DemandMatrix) applies a kernel to its dense
//!   `n * n` backing store (the zero diagonal participates but is a no-op for
//!   every kernel below), and
//! * [`SparseDemand`](crate::SparseDemand) applies the same kernel to its
//!   `nnz`-length value column.
//!
//! Because the two layouts run the *same* floating-point expressions in the
//! same order over entries that differ only by interleaved exact zeros, the
//! dense adapter and the sparse core produce **bit-identical** results — the
//! property the serving equivalence tests rely on (DESIGN.md §7).

/// Sum of all entries (`DemandMatrix::total` / `SparseDemand::total`).
///
/// Interleaved exact zeros do not change a finite sum, so dense (with its
/// zero diagonal) and sparse agree bitwise when the inactive entries are zero.
#[inline]
pub fn total(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Largest entry, with 0.0 as the floor (demands are non-negative).
#[inline]
pub fn max_entry(values: &[f64]) -> f64 {
    values.iter().cloned().fold(0.0, f64::max)
}

/// In-place EWMA blend `a ← (1 − α)·a + α·b`, clamped at zero per entry.
#[inline]
pub fn ewma_blend(a: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "EWMA operands must have the same length");
    for (x, y) in a.iter_mut().zip(b) {
        *x = ((*x * (1.0 - alpha)).max(0.0) + alpha * y).max(0.0);
    }
}

/// Clamped accumulation `out[i] ← (out[i] + b[i]).max(0)` — the column
/// counterpart of folding with `axpy(1.0, ·)`.
#[inline]
pub fn accumulate_clamped(out: &mut [f64], b: &[f64]) {
    assert_eq!(out.len(), b.len(), "accumulation operands must have the same length");
    for (x, y) in out.iter_mut().zip(b) {
        *x = (*x + y).max(0.0);
    }
}

/// Element-wise maximum fold `out[i] ← max(out[i], b[i])`.
#[inline]
pub fn max_assign(out: &mut [f64], b: &[f64]) {
    assert_eq!(out.len(), b.len(), "max operands must have the same length");
    for (x, y) in out.iter_mut().zip(b) {
        *x = x.max(*y);
    }
}

/// Clamped linear combination into a fresh vector: `(a[i] + scale·b[i]).max(0)`.
#[inline]
pub fn axpy_clamped(a: &[f64], scale: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "axpy operands must have the same length");
    a.iter().zip(b).map(|(x, y)| (x + scale * y).max(0.0)).collect()
}

/// Clamped scaling into a fresh vector: `(v[i] · factor).max(0)`.
#[inline]
pub fn scale_clamped(values: &[f64], factor: f64) -> Vec<f64> {
    values.iter().map(|v| (v * factor).max(0.0)).collect()
}

/// In-place clamped scaling `v[i] ← (v[i] · factor).max(0)` — used by the
/// sliding-mean predictor to turn an accumulated window sum into a mean.
#[inline]
pub fn scale_clamped_in_place(values: &mut [f64], factor: f64) {
    for v in values.iter_mut() {
        *v = (*v * factor).max(0.0);
    }
}

/// Cosine similarity of two demand vectors.  Returns 1.0 when both are
/// all-zero and 0.0 when exactly one is (the convention of Figure 4).
#[inline]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine operands must have the same length");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        1.0
    } else if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Per-slot mean and population variance over a run of equal-length demand
/// columns: sums in run order, one division, squared deviations in run order,
/// one division; all zeros for an empty run.  The one copy of the two-pass
/// fold behind the dense, sparse and dataset variance statistics — every slot
/// is folded on its own, so a layout that interleaves exact-zero slots (the
/// dense diagonal) gets the same bits in the slots it shares.
pub fn mean_variance<'a>(
    num_slots: usize,
    columns: impl ExactSizeIterator<Item = &'a [f64]> + Clone,
) -> (Vec<f64>, Vec<f64>) {
    let mut mean = vec![0.0f64; num_slots];
    let mut var = vec![0.0f64; num_slots];
    let count = columns.len() as f64;
    if count == 0.0 {
        return (mean, var);
    }
    for column in columns.clone() {
        assert_eq!(column.len(), num_slots, "every column must hold one value per slot");
        for (m, v) in mean.iter_mut().zip(column) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    for column in columns {
        for ((s, v), m) in var.iter_mut().zip(column).zip(&mean) {
            let d = v - m;
            *s += d * d;
        }
    }
    for s in &mut var {
        *s /= count;
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_match_their_matrix_counterparts_semantics() {
        let mut a = vec![1.0, 0.0, 3.0];
        let b = vec![2.0, 5.0, 1.0];
        assert_eq!(total(&a), 4.0);
        assert_eq!(max_entry(&a), 3.0);
        ewma_blend(&mut a, 0.5, &b);
        assert_eq!(a, vec![1.5, 2.5, 2.0]);
        accumulate_clamped(&mut a, &b);
        assert_eq!(a, vec![3.5, 7.5, 3.0]);
        max_assign(&mut a, &[9.0, 0.0, 0.0]);
        assert_eq!(a, vec![9.0, 7.5, 3.0]);
        assert_eq!(axpy_clamped(&[1.0, 2.0], -1.0, &[5.0, 1.0]), vec![0.0, 1.0]);
        assert_eq!(scale_clamped(&[2.0, 4.0], 0.5), vec![1.0, 2.0]);
        let mut v = vec![2.0, 4.0];
        scale_clamped_in_place(&mut v, 0.5);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn cosine_conventions() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
        assert!((cosine_similarity(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zeros_do_not_change_totals_or_cosine() {
        // The bit-identity argument: interleaving exact zeros (the dense
        // diagonal / inactive pairs) leaves every kernel's result unchanged.
        let sparse = [1.25, 3.5, 0.75];
        let dense = [0.0, 1.25, 0.0, 3.5, 0.75, 0.0];
        assert_eq!(total(&sparse).to_bits(), total(&dense).to_bits());
        assert_eq!(max_entry(&sparse).to_bits(), max_entry(&dense).to_bits());
        let other_sparse = [2.0, 0.5, 4.0];
        let other_dense = [0.0, 2.0, 0.0, 0.5, 4.0, 0.0];
        assert_eq!(
            cosine_similarity(&sparse, &other_sparse).to_bits(),
            cosine_similarity(&dense, &other_dense).to_bits()
        );
    }
}
