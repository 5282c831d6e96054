//! Columnar demand storage: the one demand currency of the workspace.
//!
//! ToR-level demand is sparse: at 1024 ToRs fewer than 2% of the 1M+
//! source-destination pairs carry traffic, and FIGRET states its model and
//! loss per pair (§4), so demand is stored as pair columns in CSR-style
//! form rather than as `N×N` matrices:
//!
//! * [`ActivePairs`] — the set of (source, destination) pairs that may carry
//!   traffic, sorted source-major with per-source offsets.  One index is
//!   built per trace/stream and shared (`Arc`) by every snapshot, so all
//!   columns of a series align slot-for-slot.  [`ActivePairs::all`] is the
//!   Table 1 universe; its slot order is `Graph::sd_pairs` order.
//! * [`SparseDemand`] — one snapshot: a value column of length `nnz`,
//!   aligned to its `ActivePairs` index.
//! * [`TrafficTrace`] — a time-ordered series of columns over one shared
//!   index: what every generator returns and every consumer reads.
//!
//! [`DemandMatrix`] is the I/O edge only: [`TrafficTrace::new`] gathers
//! hand-built matrices onto the all-pairs index and [`TrafficTrace::matrix`]
//! densifies one snapshot, both exactly.  Every arithmetic operation
//! delegates to the shared kernels in [`crate::ops`], so a column and its
//! densified matrix give bit-identical reductions (DESIGN.md §7).

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::matrix::{DemandMatrix, MatrixError};
use crate::ops;

/// The ordered set of source-destination pairs a demand series may use.
///
/// Pairs are stored source-major (all destinations of source 0, then source
/// 1, ...), destinations sorted ascending within a source — the same order
/// `DemandMatrix::flatten_pairs` and `Graph::sd_pairs` use, restricted to
/// the active subset.  `src_offsets[s]..src_offsets[s + 1]` is the slot
/// range of source `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivePairs {
    num_nodes: usize,
    dsts: Vec<u32>,
    src_offsets: Vec<usize>,
}

impl ActivePairs {
    /// Every ordered off-diagonal pair of `num_nodes` nodes (the dense
    /// universe; what the WAN adapters use).
    pub fn all(num_nodes: usize) -> ActivePairs {
        let mut dsts = Vec::with_capacity(num_nodes * num_nodes.saturating_sub(1));
        let mut src_offsets = Vec::with_capacity(num_nodes + 1);
        src_offsets.push(0);
        for s in 0..num_nodes {
            for d in 0..num_nodes {
                if s != d {
                    dsts.push(d as u32);
                }
            }
            src_offsets.push(dsts.len());
        }
        ActivePairs { num_nodes, dsts, src_offsets }
    }

    /// Builds an index from an explicit pair list.  Pairs are sorted and
    /// deduplicated; diagonal or out-of-range pairs are rejected.
    pub fn from_pairs(num_nodes: usize, pairs: &[(usize, usize)]) -> ActivePairs {
        let mut sorted: Vec<(usize, usize)> = pairs.to_vec();
        for &(s, d) in &sorted {
            assert!(s < num_nodes && d < num_nodes, "pair ({s}, {d}) out of range");
            assert_ne!(s, d, "diagonal pair ({s}, {s}) cannot be active");
        }
        sorted.sort_unstable();
        sorted.dedup();
        let mut dsts = Vec::with_capacity(sorted.len());
        let mut src_offsets = Vec::with_capacity(num_nodes + 1);
        src_offsets.push(0);
        let mut cursor = 0usize;
        for s in 0..num_nodes {
            while cursor < sorted.len() && sorted[cursor].0 == s {
                dsts.push(sorted[cursor].1 as u32);
                cursor += 1;
            }
            src_offsets.push(dsts.len());
        }
        ActivePairs { num_nodes, dsts, src_offsets }
    }

    /// Samples a random sparse pair set: every source talks to exactly
    /// `per_source` distinct destinations chosen uniformly (seeded).  The
    /// fabric-scale traffic generators use this to fix a communication
    /// pattern whose density is `per_source / (n - 1)`.
    pub fn sample_per_source(num_nodes: usize, per_source: usize, seed: u64) -> ActivePairs {
        assert!(num_nodes >= 2, "need at least two nodes");
        assert!(per_source < num_nodes, "a source has at most n - 1 destinations");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xac7_1fe5);
        let mut dsts = Vec::with_capacity(num_nodes * per_source);
        let mut src_offsets = Vec::with_capacity(num_nodes + 1);
        src_offsets.push(0);
        // Stamp array instead of a per-source hash set: `picked[d] == s + 1`
        // means destination `d` is already taken for source `s`.
        let mut picked = vec![0usize; num_nodes];
        let mut chosen = Vec::with_capacity(per_source);
        for s in 0..num_nodes {
            chosen.clear();
            while chosen.len() < per_source {
                let mut d = rng.gen_range(0..num_nodes - 1);
                if d >= s {
                    d += 1;
                }
                if picked[d] != s + 1 {
                    picked[d] = s + 1;
                    chosen.push(d as u32);
                }
            }
            chosen.sort_unstable();
            dsts.extend_from_slice(&chosen);
            src_offsets.push(dsts.len());
        }
        ActivePairs { num_nodes, dsts, src_offsets }
    }

    /// [`ActivePairs::sample_per_source`] restricted to the first
    /// `active_nodes` nodes: sources and destinations are drawn only from
    /// `0..active_nodes`, but the index is sized for a `num_nodes`-node
    /// network.  Two-tier fabrics use this — traffic originates and
    /// terminates at ToRs (the node-id prefix) while spine/aggregation
    /// switches only forward.
    pub fn sample_among(
        num_nodes: usize,
        active_nodes: usize,
        per_source: usize,
        seed: u64,
    ) -> ActivePairs {
        assert!(active_nodes >= 2, "need at least two traffic-bearing nodes");
        assert!(active_nodes <= num_nodes, "traffic-bearing nodes are a prefix of the network");
        assert!(per_source < active_nodes, "a source has at most active_nodes - 1 destinations");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xac7_1fe5);
        let mut dsts = Vec::with_capacity(active_nodes * per_source);
        let mut src_offsets = Vec::with_capacity(num_nodes + 1);
        src_offsets.push(0);
        let mut picked = vec![0usize; active_nodes];
        let mut chosen = Vec::with_capacity(per_source);
        for s in 0..active_nodes {
            chosen.clear();
            while chosen.len() < per_source {
                let mut d = rng.gen_range(0..active_nodes - 1);
                if d >= s {
                    d += 1;
                }
                if picked[d] != s + 1 {
                    picked[d] = s + 1;
                    chosen.push(d as u32);
                }
            }
            chosen.sort_unstable();
            dsts.extend_from_slice(&chosen);
            src_offsets.push(dsts.len());
        }
        for _ in active_nodes..num_nodes {
            src_offsets.push(dsts.len());
        }
        ActivePairs { num_nodes, dsts, src_offsets }
    }

    /// Number of active pairs (`nnz`).
    #[inline]
    pub fn len(&self) -> usize {
        self.dsts.len()
    }

    /// `true` when no pair is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// Number of nodes of the underlying network.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of pairs of the dense universe (`n · (n − 1)`).
    #[inline]
    pub fn num_total_pairs(&self) -> usize {
        self.num_nodes * self.num_nodes.saturating_sub(1)
    }

    /// `true` when every off-diagonal pair is active (the dense universe).
    #[inline]
    pub fn is_all(&self) -> bool {
        self.len() == self.num_total_pairs()
    }

    /// Fraction of the dense universe that is active.
    pub fn density(&self) -> f64 {
        if self.num_total_pairs() == 0 {
            0.0
        } else {
            self.len() as f64 / self.num_total_pairs() as f64
        }
    }

    /// The slot range of source `s`.
    #[inline]
    pub fn source_range(&self, s: usize) -> std::ops::Range<usize> {
        self.src_offsets[s]..self.src_offsets[s + 1]
    }

    /// The (source, destination) pair stored at `slot`.
    pub fn pair(&self, slot: usize) -> (usize, usize) {
        let s = self.src_offsets.partition_point(|&o| o <= slot) - 1;
        (s, self.dsts[slot] as usize)
    }

    /// The slot of pair `(src, dst)`, or `None` if the pair is inactive.
    #[inline]
    pub fn slot(&self, src: usize, dst: usize) -> Option<usize> {
        if src == dst || src >= self.num_nodes || dst >= self.num_nodes {
            return None;
        }
        if self.is_all() {
            // Dense universe: the slot is the flatten_pairs position.
            return Some(src * (self.num_nodes - 1) + dst - usize::from(dst > src));
        }
        let range = self.source_range(src);
        let dsts = &self.dsts[range.clone()];
        dsts.binary_search(&(dst as u32)).ok().map(|i| range.start + i)
    }

    /// Iterates `(slot, source, destination)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.num_nodes).flat_map(move |s| {
            self.source_range(s).map(move |slot| (slot, s, self.dsts[slot] as usize))
        })
    }

    /// The active pairs as `(usize, usize)` tuples in slot order.
    pub fn node_pairs(&self) -> Vec<(usize, usize)> {
        self.iter().map(|(_, s, d)| (s, d)).collect()
    }

    /// Approximate heap footprint of the index itself, in bytes.
    pub fn index_bytes(&self) -> usize {
        self.dsts.len() * std::mem::size_of::<u32>()
            + self.src_offsets.len() * std::mem::size_of::<usize>()
    }
}

/// One demand snapshot in columnar form: a value per active pair, aligned to
/// a shared [`ActivePairs`] index.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDemand {
    active: Arc<ActivePairs>,
    values: Vec<f64>,
}

impl SparseDemand {
    /// An all-zero column over `active`.
    pub fn zeros(active: Arc<ActivePairs>) -> SparseDemand {
        let values = vec![0.0; active.len()];
        SparseDemand { active, values }
    }

    /// Builds a column from explicit per-slot values.  Negative or
    /// non-finite entries are rejected, mirroring `DemandMatrix::from_dense`.
    pub fn from_values(active: Arc<ActivePairs>, values: Vec<f64>) -> Result<Self, MatrixError> {
        if values.len() != active.len() {
            return Err(MatrixError::WrongLength { expected: active.len(), got: values.len() });
        }
        for (idx, v) in values.iter().enumerate() {
            if !v.is_finite() || *v < 0.0 {
                return Err(MatrixError::InvalidDemand { index: idx, value: *v });
            }
        }
        Ok(SparseDemand { active, values })
    }

    /// The shared pair index.
    #[inline]
    pub fn active(&self) -> &Arc<ActivePairs> {
        &self.active
    }

    /// Number of active pairs (`nnz`), the length of [`Self::values`].
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the column has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of nodes of the underlying network.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.active.num_nodes()
    }

    /// Demand from `src` to `dst` (0 for inactive pairs).
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.active.slot(src, dst).map(|slot| self.values[slot]).unwrap_or(0.0)
    }

    /// Sets the demand at `slot` (negative values are clamped to zero,
    /// mirroring `DemandMatrix::set`).
    #[inline]
    pub fn set_slot(&mut self, slot: usize, value: f64) {
        self.values[slot] = value.max(0.0);
    }

    /// Adds `value` to the demand at `slot`, clamped at zero.
    #[inline]
    pub fn add_slot(&mut self, slot: usize, value: f64) {
        self.values[slot] = (self.values[slot] + value).max(0.0);
    }

    /// The value column in slot order.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn assert_same_universe(&self, other: &SparseDemand) {
        assert!(
            Arc::ptr_eq(&self.active, &other.active) || self.active == other.active,
            "sparse demands must share one ActivePairs index"
        );
    }

    /// Total demand over all pairs.
    pub fn total(&self) -> f64 {
        ops::total(&self.values)
    }

    /// Largest single demand entry.
    pub fn max_entry(&self) -> f64 {
        ops::max_entry(&self.values)
    }

    /// Copies another column's demands into this one without reallocating.
    pub fn copy_from(&mut self, other: &SparseDemand) {
        self.assert_same_universe(other);
        self.values.copy_from_slice(&other.values);
    }

    /// Scales every demand by `factor` (clamped at zero).
    pub fn scaled(&self, factor: f64) -> SparseDemand {
        SparseDemand {
            active: Arc::clone(&self.active),
            values: ops::scale_clamped(&self.values, factor),
        }
    }

    /// Cosine similarity between two columns over the same index.
    pub fn cosine_similarity(&self, other: &SparseDemand) -> f64 {
        self.assert_same_universe(other);
        ops::cosine_similarity(&self.values, &other.values)
    }
}

/// A traffic trace: a time-ordered series of demand columns over one shared
/// pair index, with its name and aggregation interval.  Every generator
/// returns one; Table 1 networks use [`ActivePairs::all`], generated fabrics
/// a sampled index.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficTrace {
    name: String,
    interval_seconds: f64,
    active: Arc<ActivePairs>,
    columns: Vec<SparseDemand>,
}

/// The trace's former name on the fabric path.  `perf_ledger` still spells
/// it; new code names [`TrafficTrace`].
pub type SparseTrace = TrafficTrace;

impl TrafficTrace {
    /// Gathers hand-built matrices into a trace over the all-pairs index
    /// (exact; the diagonal is dropped).  All matrices must have the same
    /// node count.
    pub fn new(
        name: impl Into<String>,
        interval_seconds: f64,
        matrices: Vec<DemandMatrix>,
    ) -> TrafficTrace {
        let n = matrices.first().map_or(0, DemandMatrix::num_nodes);
        assert!(
            matrices.iter().all(|m| m.num_nodes() == n),
            "all matrices in a trace must have the same node count"
        );
        let active = Arc::new(ActivePairs::all(n));
        // `ActivePairs::all` slot order is the `flatten_pairs` order.  Each
        // matrix is freed once gathered, so the trace never holds both forms.
        let columns = matrices
            .into_iter()
            .map(|m| SparseDemand { active: Arc::clone(&active), values: m.flatten_pairs() })
            .collect();
        TrafficTrace { name: name.into(), interval_seconds, active, columns }
    }

    /// Builds a trace from columns.  Every column must share the index
    /// (`Arc` identity or structural equality).
    pub fn from_columns(
        name: impl Into<String>,
        interval_seconds: f64,
        active: Arc<ActivePairs>,
        columns: Vec<SparseDemand>,
    ) -> TrafficTrace {
        for c in &columns {
            assert!(
                Arc::ptr_eq(c.active(), &active) || **c.active() == *active,
                "all columns of a trace must share one ActivePairs index"
            );
        }
        TrafficTrace { name: name.into(), interval_seconds, active, columns }
    }

    /// Densifies snapshot `t` into an `N×N` matrix (exact; inactive pairs
    /// and the diagonal are zero).
    pub fn matrix(&self, t: usize) -> DemandMatrix {
        let column = &self.columns[t];
        let mut m = DemandMatrix::zeros(self.num_nodes());
        for (slot, s, d) in self.active.iter() {
            m.set(s, d, column.values[slot]);
        }
        m
    }

    /// Human-readable trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Aggregation interval in seconds.
    pub fn interval_seconds(&self) -> f64 {
        self.interval_seconds
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the trace has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of nodes of the underlying network.
    pub fn num_nodes(&self) -> usize {
        self.active.num_nodes()
    }

    /// The shared pair index.
    pub fn active(&self) -> &Arc<ActivePairs> {
        &self.active
    }

    /// Number of active pairs per snapshot.
    pub fn nnz(&self) -> usize {
        self.active.len()
    }

    /// The column at snapshot `t`.
    pub fn snapshot(&self, t: usize) -> &SparseDemand {
        &self.columns[t]
    }

    /// All columns.
    pub fn snapshots(&self) -> &[SparseDemand] {
        &self.columns
    }

    /// Heap bytes spent on demand values across the whole series (the number
    /// the large-fabric acceptance check reports: proportional to `nnz`, not
    /// `N²`).
    pub fn demand_storage_bytes(&self) -> usize {
        self.columns.len() * self.nnz() * std::mem::size_of::<f64>() + self.active.index_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_matrix() -> DemandMatrix {
        let mut m = DemandMatrix::zeros(4);
        m.set(0, 1, 1.5);
        m.set(0, 3, 2.5);
        m.set(2, 1, 4.0);
        m.set(3, 0, 0.25);
        m
    }

    #[test]
    fn all_pairs_matches_flatten_order() {
        let a = ActivePairs::all(3);
        assert_eq!(a.len(), 6);
        assert!(a.is_all());
        let pairs: Vec<_> = a.node_pairs();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]);
        let slots: Vec<_> = pairs.iter().map(|&(s, d)| a.slot(s, d).unwrap()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let a = ActivePairs::from_pairs(4, &[(2, 1), (0, 3), (0, 1), (2, 1)]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.node_pairs(), vec![(0, 1), (0, 3), (2, 1)]);
        assert_eq!(a.slot(0, 3), Some(1));
        assert_eq!(a.slot(2, 1), Some(2));
        assert_eq!(a.slot(1, 2), None);
        assert_eq!(a.slot(0, 0), None);
        assert_eq!(a.pair(1), (0, 3));
        assert!(!a.is_all());
        assert!(a.density() > 0.0 && a.density() < 1.0);
    }

    #[test]
    #[should_panic(expected = "diagonal pair")]
    fn from_pairs_rejects_diagonal() {
        ActivePairs::from_pairs(3, &[(1, 1)]);
    }

    #[test]
    fn support_and_roundtrip_are_exact() {
        // Gather onto the all-pairs index and densify back.
        let m = demo_matrix();
        let trace = TrafficTrace::new("demo", 1.0, vec![m.clone()]);
        assert!(trace.active().is_all());
        assert_eq!(trace.matrix(0), m);
        let column = trace.snapshot(0);
        assert_eq!(column.values(), m.flatten_pairs());
        assert_eq!(column.get(0, 3), 2.5);
        assert_eq!(column.get(1, 0), 0.0);
        assert_eq!(column.total().to_bits(), m.total().to_bits());
        assert_eq!(column.max_entry().to_bits(), m.max_entry().to_bits());

        // A column over the matrix's support densifies to the same matrix.
        let support = Arc::new(ActivePairs::from_pairs(4, &[(0, 1), (0, 3), (2, 1), (3, 0)]));
        let values = support.iter().map(|(_, s, d)| m.get(s, d)).collect();
        let column = SparseDemand::from_values(Arc::clone(&support), values).unwrap();
        assert_eq!(column.total().to_bits(), m.total().to_bits());
        let trace = TrafficTrace::from_columns("demo", 1.0, support, vec![column]);
        assert_eq!(trace.matrix(0), m);
    }

    #[test]
    fn columnar_ops_mirror_matrix_ops() {
        let m = demo_matrix();
        let other = m.scaled(0.5);
        let trace = TrafficTrace::new("demo", 1.0, vec![m.clone(), other.clone()]);
        let (a, b) = (trace.snapshot(0), trace.snapshot(1));

        assert_eq!(a.scaled(3.0).values(), m.scaled(3.0).flatten_pairs());
        assert_eq!(a.cosine_similarity(b).to_bits(), m.cosine_similarity(&other).to_bits());

        let mut c = SparseDemand::zeros(Arc::clone(trace.active()));
        c.copy_from(a);
        assert_eq!(&c, a);
        c.set_slot(0, -1.0);
        assert_eq!(c.values()[0], 0.0);
        c.add_slot(0, 2.0);
        assert_eq!(c.values()[0], 2.0);
    }

    #[test]
    fn sample_per_source_is_deterministic_and_sparse() {
        let a = ActivePairs::sample_per_source(64, 5, 7);
        let b = ActivePairs::sample_per_source(64, 5, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64 * 5);
        for (_, s, d) in a.iter() {
            assert_ne!(s, d);
            assert!(d < 64);
        }
        // Destinations are sorted within a source (the CSR invariant).
        for s in 0..64 {
            let range = a.source_range(s);
            let dsts: Vec<_> = range.map(|slot| a.pair(slot).1).collect();
            let mut sorted = dsts.clone();
            sorted.sort_unstable();
            assert_eq!(dsts, sorted);
        }
        let c = ActivePairs::sample_per_source(64, 5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sample_among_confines_pairs_to_the_tor_prefix() {
        // With every node traffic-bearing, sample_among consumes the same
        // RNG stream as sample_per_source.
        let full = ActivePairs::sample_among(64, 64, 5, 7);
        assert_eq!(full, ActivePairs::sample_per_source(64, 5, 7));
        // With forwarding-only nodes appended (a two-tier fabric's aggs),
        // pairs stay among the first `active_nodes` ids.
        let fabric = ActivePairs::sample_among(72, 64, 5, 7);
        assert_eq!(fabric.num_nodes(), 72);
        assert_eq!(fabric.len(), 64 * 5);
        for (_, s, d) in fabric.iter() {
            assert!(s < 64 && d < 64);
        }
        for agg in 64..72 {
            assert_eq!(fabric.source_range(agg).len(), 0);
        }
    }

    #[test]
    fn sparse_trace_roundtrip_and_storage() {
        let active = Arc::new(ActivePairs::from_pairs(5, &[(0, 1), (3, 2)]));
        let columns = (1..5)
            .map(|t| {
                let values = vec![t as f64, 2.0 * t as f64];
                SparseDemand::from_values(Arc::clone(&active), values).unwrap()
            })
            .collect();
        let trace = TrafficTrace::from_columns("demo", 60.0, active, columns);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.nnz(), 2);
        assert_eq!(trace.num_nodes(), 5);
        assert_eq!((trace.name(), trace.interval_seconds()), ("demo", 60.0));
        // Densify every snapshot and gather back onto the all-pairs index:
        // each active pair keeps its value, every other pair is zero.
        let dense = TrafficTrace::new("demo", 60.0, (0..4).map(|t| trace.matrix(t)).collect());
        for t in 0..4 {
            assert_eq!(dense.snapshot(t).total(), trace.snapshot(t).total());
            for (slot, s, d) in trace.active().iter() {
                let full = dense.active().slot(s, d).unwrap();
                assert_eq!(dense.snapshot(t).values()[full], trace.snapshot(t).values()[slot]);
            }
        }
        assert_eq!(dense.matrix(2).get(3, 2), 6.0);
        assert!(trace.demand_storage_bytes() < 4 * 20 * 8);
    }

    #[test]
    #[should_panic(expected = "share one ActivePairs index")]
    fn trace_rejects_columns_of_another_index() {
        let column = SparseDemand::zeros(Arc::new(ActivePairs::all(3)));
        TrafficTrace::from_columns("bad", 1.0, Arc::new(ActivePairs::all(4)), vec![column]);
    }

    #[test]
    fn from_values_validates() {
        let active = Arc::new(ActivePairs::all(3));
        assert!(SparseDemand::from_values(Arc::clone(&active), vec![0.0; 5]).is_err());
        assert!(SparseDemand::from_values(Arc::clone(&active), vec![-1.0; 6]).is_err());
        assert!(SparseDemand::from_values(Arc::clone(&active), vec![f64::NAN; 6]).is_err());
        assert!(SparseDemand::from_values(active, vec![1.0; 6]).is_ok());
    }
}
