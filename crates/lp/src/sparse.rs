//! Compressed sparse row storage for constraint matrices.
//!
//! The revised simplex ([`crate::revised`]) needs the constraint matrix both
//! row-wise (assembly mirrors the row-oriented [`crate::problem`] API) and
//! column-wise (pricing and FTRAN operate on entering columns).  [`CsrMatrix`]
//! stores the values once in CSR order and derives a [`ColumnView`] whose
//! entries index back into the CSR value array, so the column view costs two
//! index arrays and no second copy of the values.

/// A sparse matrix in compressed sparse row format.
///
/// Pattern and values are fixed at construction: the template path moves the
/// right-hand side only ([`crate::template`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    num_rows: usize,
    num_cols: usize,
    /// `row_ptr[r]..row_ptr[r + 1]` delimits row `r` in `col_idx` / `values`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row sparse entries `(column, value)`.
    /// Entries within a row need not be sorted; duplicate columns within a row
    /// are summed.
    pub fn from_rows(num_cols: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut sorted: Vec<(usize, f64)> = Vec::new();
        for row in rows {
            sorted.clear();
            sorted.extend_from_slice(row);
            sorted.sort_by_key(|(c, _)| *c);
            let mut i = 0;
            while i < sorted.len() {
                let (c, mut v) = sorted[i];
                assert!(c < num_cols, "column {c} out of bounds ({num_cols} columns)");
                let mut j = i + 1;
                while j < sorted.len() && sorted[j].0 == c {
                    v += sorted[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { num_rows: rows.len(), num_cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The entries of row `r` as parallel `(columns, values)` slices.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Builds the column-wise view of the current pattern.
    pub fn column_view(&self) -> ColumnView {
        let mut counts = vec![0usize; self.num_cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for c in 0..self.num_cols {
            counts[c + 1] += counts[c];
        }
        let col_ptr = counts.clone();
        let mut fill = counts;
        let mut row_idx = vec![0usize; self.col_idx.len()];
        let mut csr_pos = vec![0usize; self.col_idx.len()];
        for r in 0..self.num_rows {
            for pos in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[pos];
                let slot = fill[c];
                row_idx[slot] = r;
                csr_pos[slot] = pos;
                fill[c] += 1;
            }
        }
        ColumnView { col_ptr, row_idx, csr_pos }
    }
}

/// Column-major index into a [`CsrMatrix`].
///
/// Only valid with the matrix it was built from; values are read through
/// that matrix at iteration time.
#[derive(Debug, Clone)]
pub struct ColumnView {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    csr_pos: Vec<usize>,
}

impl ColumnView {
    /// Number of stored entries in column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Iterates the `(row, value)` entries of column `c` of `matrix`.
    pub fn column<'a>(
        &'a self,
        matrix: &'a CsrMatrix,
        c: usize,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (lo..hi).map(move |i| (self.row_idx[i], matrix.values[self.csr_pos[i]]))
    }

    /// The dot product of column `c` with a dense vector.
    pub fn column_dot(&self, matrix: &CsrMatrix, c: usize, dense: &[f64]) -> f64 {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        let mut acc = 0.0;
        for i in lo..hi {
            acc += dense[self.row_idx[i]] * matrix.values[self.csr_pos[i]];
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        CsrMatrix::from_rows(
            3,
            &[vec![(2, 2.0), (0, 1.0)], vec![(1, 3.0)], vec![(0, 4.0), (2, 5.0)]],
        )
    }

    #[test]
    fn rows_are_sorted_and_deduplicated() {
        let m = CsrMatrix::from_rows(3, &[vec![(2, 1.0), (0, 2.0), (2, 3.0)]]);
        assert_eq!(m.nnz(), 2);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[2.0, 4.0]);
    }

    #[test]
    fn column_view_transposes_correctly() {
        let m = sample();
        let view = m.column_view();
        assert_eq!(view.col_nnz(0), 2);
        assert_eq!(view.col_nnz(1), 1);
        let col0: Vec<(usize, f64)> = view.column(&m, 0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, 4.0)]);
        let col2: Vec<(usize, f64)> = view.column(&m, 2).collect();
        assert_eq!(col2, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn column_dot_matches_manual_product() {
        let m = sample();
        let view = m.column_view();
        let y = [1.0, 2.0, 3.0];
        assert!((view.column_dot(&m, 0, &y) - 13.0).abs() < 1e-12);
        assert!((view.column_dot(&m, 1, &y) - 6.0).abs() < 1e-12);
        assert!((view.column_dot(&m, 2, &y) - 17.0).abs() < 1e-12);
    }
}
