//! Demand matrices: the `N×N` I/O edge of the pair-column traces.
//!
//! A demand matrix (DM) `D` is a `|V| x |V|` matrix whose `(i, j)` entry is the
//! traffic demand from source `i` to destination `j` (§3 of the paper).  Traces
//! store pair columns ([`crate::TrafficTrace`]); a matrix exists where one is
//! the object being built or shown — the Figure 3 toy, the gravity base, a
//! hand-written test trace — and [`crate::TrafficTrace::new`] gathers it.

use std::fmt;

use crate::ops;

/// A single demand matrix.
///
/// Stored row-major (`data[s * n + d]`).  Diagonal entries are always zero: a
/// node never sends traffic to itself in the TE model.
///
/// Its arithmetic runs the shared element-wise kernels of [`crate::ops`], so
/// it agrees bit for bit with the [`crate::SparseDemand`] column it gathers
/// into.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandMatrix {
    num_nodes: usize,
    data: Vec<f64>,
}

impl DemandMatrix {
    /// An all-zero demand matrix over `num_nodes` nodes.
    pub fn zeros(num_nodes: usize) -> Self {
        DemandMatrix { num_nodes, data: vec![0.0; num_nodes * num_nodes] }
    }

    /// Builds a matrix from a dense row-major vector of length `n * n`.
    ///
    /// Diagonal entries are forced to zero; negative or non-finite entries are
    /// rejected.
    pub fn from_dense(num_nodes: usize, mut data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != num_nodes * num_nodes {
            return Err(MatrixError::WrongLength {
                expected: num_nodes * num_nodes,
                got: data.len(),
            });
        }
        for (idx, v) in data.iter().enumerate() {
            if !v.is_finite() || *v < 0.0 {
                return Err(MatrixError::InvalidDemand { index: idx, value: *v });
            }
        }
        for i in 0..num_nodes {
            data[i * num_nodes + i] = 0.0;
        }
        Ok(DemandMatrix { num_nodes, data })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of ordered source-destination pairs (`n * (n - 1)`).
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.num_nodes * (self.num_nodes - 1)
    }

    /// Demand from `src` to `dst`.
    #[inline]
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.data[src * self.num_nodes + dst]
    }

    /// Sets the demand from `src` to `dst`.  Setting a diagonal entry is a
    /// no-op; negative values are clamped to zero.
    #[inline]
    pub fn set(&mut self, src: usize, dst: usize, value: f64) {
        if src == dst {
            return;
        }
        self.data[src * self.num_nodes + dst] = value.max(0.0);
    }

    /// Total demand over all pairs.
    pub fn total(&self) -> f64 {
        ops::total(&self.data)
    }

    /// Largest single demand entry.
    pub fn max_entry(&self) -> f64 {
        ops::max_entry(&self.data)
    }

    /// Flattened off-diagonal demands in source-major order, matching
    /// `Graph::sd_pairs` (all `d != s` for `s = 0, 1, ...`).
    pub fn flatten_pairs(&self) -> Vec<f64> {
        let n = self.num_nodes;
        (0..n).flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| self.get(s, d))).collect()
    }

    /// Inverse of [`DemandMatrix::flatten_pairs`].
    pub fn from_pairs(num_nodes: usize, pairs: &[f64]) -> Result<Self, MatrixError> {
        let expected = num_nodes * (num_nodes - 1);
        if pairs.len() != expected {
            return Err(MatrixError::WrongLength { expected, got: pairs.len() });
        }
        let mut m = DemandMatrix::zeros(num_nodes);
        let mut it = pairs.iter();
        for s in 0..num_nodes {
            for d in 0..num_nodes {
                if s != d {
                    let v = *it.next().expect("length checked above");
                    if !v.is_finite() || v < 0.0 {
                        return Err(MatrixError::InvalidDemand {
                            index: s * num_nodes + d,
                            value: v,
                        });
                    }
                    m.set(s, d, v);
                }
            }
        }
        Ok(m)
    }

    /// Scales every demand by `factor`.
    pub fn scaled(&self, factor: f64) -> DemandMatrix {
        DemandMatrix { num_nodes: self.num_nodes, data: ops::scale_clamped(&self.data, factor) }
    }

    /// Cosine similarity between the flattened demand vectors of two matrices.
    /// Returns 1.0 when both matrices are all-zero, 0.0 when exactly one is.
    pub fn cosine_similarity(&self, other: &DemandMatrix) -> f64 {
        assert_eq!(self.num_nodes, other.num_nodes, "matrices must have the same size");
        ops::cosine_similarity(&self.data, &other.data)
    }
}

impl fmt::Display for DemandMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DemandMatrix({} nodes, total {:.3})", self.num_nodes, self.total())?;
        for s in 0..self.num_nodes {
            for d in 0..self.num_nodes {
                write!(f, "{:9.3} ", self.get(s, d))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Errors when constructing demand matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The provided buffer has the wrong length.
    WrongLength {
        /// Expected number of entries.
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
    /// A demand entry was negative, NaN or infinite.
    InvalidDemand {
        /// Flat index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::WrongLength { expected, got } => {
                write!(f, "expected {expected} entries, got {got}")
            }
            MatrixError::InvalidDemand { index, value } => {
                write!(f, "invalid demand {value} at flat index {index}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficTrace;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DemandMatrix::zeros(3);
        assert_eq!(m.num_pairs(), 6);
        m.set(0, 1, 5.0);
        m.set(1, 1, 99.0); // diagonal: ignored
        m.set(2, 0, -3.0); // negative: clamped
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 0), 0.0);
        assert_eq!(m.total(), 5.0);
        assert_eq!(m.max_entry(), 5.0);
    }

    #[test]
    fn from_dense_validates() {
        assert!(DemandMatrix::from_dense(2, vec![0.0; 3]).is_err());
        assert!(DemandMatrix::from_dense(2, vec![0.0, -1.0, 0.0, 0.0]).is_err());
        assert!(DemandMatrix::from_dense(2, vec![0.0, f64::NAN, 0.0, 0.0]).is_err());
        let m = DemandMatrix::from_dense(2, vec![7.0, 1.0, 2.0, 7.0]).unwrap();
        // Diagonals forced to zero.
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut m = DemandMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.set(0, 2, 2.0);
        m.set(1, 0, 3.0);
        m.set(2, 1, 4.0);
        let flat = m.flatten_pairs();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 0.0, 0.0, 4.0]);
        let back = DemandMatrix::from_pairs(3, &flat).unwrap();
        assert_eq!(back, m);
        assert!(DemandMatrix::from_pairs(3, &[1.0]).is_err());
    }

    #[test]
    fn element_ops() {
        let a = DemandMatrix::from_pairs(2, &[1.0, 4.0]).unwrap();
        assert_eq!(a.scaled(0.5).flatten_pairs(), vec![0.5, 2.0]);
        assert_eq!(a.scaled(-1.0).flatten_pairs(), vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_behaviour() {
        let a = DemandMatrix::from_pairs(2, &[1.0, 0.0]).unwrap();
        let b = DemandMatrix::from_pairs(2, &[2.0, 0.0]).unwrap();
        let c = DemandMatrix::from_pairs(2, &[0.0, 5.0]).unwrap();
        let z = DemandMatrix::zeros(2);
        assert!((a.cosine_similarity(&b) - 1.0).abs() < 1e-12);
        assert!(a.cosine_similarity(&c).abs() < 1e-12);
        assert_eq!(z.cosine_similarity(&z), 1.0);
        assert_eq!(z.cosine_similarity(&a), 0.0);
    }

    #[test]
    fn trace_basics() {
        let m0 = DemandMatrix::from_pairs(2, &[1.0, 2.0]).unwrap();
        let m1 = DemandMatrix::from_pairs(2, &[3.0, 4.0]).unwrap();
        let t = TrafficTrace::new("demo", 60.0, vec![m0.clone(), m1.clone()]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.matrix(1), m1);
        assert_eq!(t.snapshot(0).values(), [1.0, 2.0]);
        assert!(!t.is_empty());
        let empty = TrafficTrace::new("empty", 1.0, vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "same node count")]
    fn trace_rejects_mixed_sizes() {
        let m0 = DemandMatrix::zeros(2);
        let m1 = DemandMatrix::zeros(3);
        TrafficTrace::new("bad", 60.0, vec![m0, m1]);
    }
}
