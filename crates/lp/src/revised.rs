//! Sparse revised simplex with an eta-file basis and warm starts.
//!
//! Where the dense tableau (`simplex.rs`, the `cfg(test)` oracle) rewrites an
//! `(m+1)×(n+m+1)` array on every pivot, this solver keeps the constraint
//! matrix in CSR ([`crate::sparse`]) and represents the basis inverse as a
//! product of eta matrices (product-form of the inverse, PFI):
//!
//! * **BTRAN** (`y = Bᵀ⁻¹ c_B`) prices the simplex multipliers, then reduced
//!   costs are computed from the *sparse matrix rows `y` is nonzero on*;
//! * **FTRAN** (`w = B⁻¹ a_q`) transforms just the entering column;
//! * each pivot appends one eta column to a flat arena instead of touching
//!   every row, and the factorization is rebuilt from the basis columns
//!   ("reinversion") every `REFACTOR_INTERVAL` updates — sooner once the
//!   update etas hold `16m + 1024` nonzeros — which also restores numerical
//!   accuracy.
//!
//! TE min-MLU programs are extremely sparse (a path touches a handful of
//! links), so per-iteration work drops from `O(m·n)` to roughly
//! `O(nnz + m + |eta file|)` — with one exception the eta file is shaped
//! around.  The min-max variable θ sits in every capacity row, so the update
//! etas of a min-MLU basis are one-half to two-thirds full.  Such an eta is
//! stored as a dense column (no row indices; at that density no more memory
//! than 16-byte `(row, value)` pairs), and FTRAN applies it as one contiguous
//! axpy.
//!
//! The multiplier side runs over supports the solver already knows, never
//! over all `m` rows or `n` columns.  `c_B` is seeded on the rows of the
//! costed basic columns only — in phase 2 of a min-MLU program that is θ's
//! row — found through the cost vector's list of costed columns and the
//! column→row map of the basis.  BTRAN takes that support from its caller
//! (`{r}` for the dual repair's unit row `e_r`), reads dense update etas on
//! it alone, and hands back the support of `y` (≈ 15 rows on `lp_monolith`).
//! The full pricing sweep then computes `d = c − Aᵀy` by CSR rows over that
//! support, for just the columns those rows reach plus the negative-cost
//! ones, and the dual repair builds its ratio row `α = ρᵀA` the same way.
//! A bitset marks the columns reached, so both scans visit them in ascending
//! column order.  Every pass adds the same nonzero terms in the same order
//! as its dense form — the `cfg(test)` oracles in this file — so ties,
//! candidate lists and results are unchanged to the bit, up to the sign of
//! a zero.  Phase-2 pricing is also **partial**: a candidate list of the
//! `CANDIDATE_LIST` most attractive columns from the last full sweep is
//! re-priced exactly (one sparse dot per column) on every iteration, and the
//! full sweep only runs when the list goes dry or `MINOR_LIMIT` minor
//! iterations have passed.  Optimality is only ever declared by a clean full
//! sweep, so partial pricing changes the pivot path, never the answer;
//! phase 1 and Bland mode always price fully (see `MINOR_LIMIT` and the
//! phase-1 comment).  Reinversion is event-driven (singleton columns pivot
//! without etas, sparse FTRANs only visit the etas they excite), so the work
//! scales with the nonzeros actually involved.
//!
//! **Forcing rows** never let their columns enter.  An equality row with
//! right-hand side exactly 0 whose structural coefficients share one sign
//! holds each of those columns at 0 — in the flow-form min-MLU template,
//! the conservation row of a pair with zero demand.  Pricing, the candidate
//! list, the dual ratio row, the crash and the drive-out of artificials all
//! pass such columns over, and the row keeps its artificial, basic at
//! exactly 0: the program is solved with the silent pair's flows deleted.
//! The set is read from the form's right-hand side at every solve (a
//! template's moves), and optimality is still a clean sweep over every
//! admissible column.
//!
//! Cold solves avoid phase 1 where the shape allows it: a **crash basis**
//! assigns each equality row but a forcing one a structural column exclusive to
//! it (a path's flow lives in exactly one conservation row), a **lift step**
//! enters the min-max variable (θ) at the worst-ratio row — which makes the
//! whole crash point feasible in one pivot — and dual-simplex repair mops up
//! whatever is left.  When the crash does not fit (`≥` rows, no exclusive
//! columns) the classic two-phase method runs instead.  A series solve may pass
//! the previous optimum's values as a **crash hint**: each equality row then
//! takes its exclusive column with the largest previous value, so the crash
//! point is "every pair on last solve's dominant path" — feasible after the
//! lift whatever happened to the right-hand side — and phase 2 starts next to
//! the old optimum instead of at the lowest-index routing.
//!
//! The module also exposes **warm starts** ([`solve_with_basis`]): a solve can
//! seed from the optimal [`Basis`] of a program with the **same matrix** —
//! only the right-hand side may differ.  A seeded solve skips phase 1: the
//! old basis stays nonsingular and dual feasible, and where the new
//! right-hand side left it primal infeasible a bounded **dual-simplex
//! repair** restores `x_B ≥ 0` before primal phase 2 finishes the solve.
//! Unusable seeds — wrong shape, singular, damage too wide (a burst moved
//! many rows at once), repair gives up — silently fall back to the crash
//! start, so warm starting never changes the result, only the work.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::problem::{Direction, LinearProgram, Relation};
use crate::solution::{LpError, Solution, SolveStats};
use crate::sparse::{ColumnView, CsrMatrix};

/// Numeric tolerance used for optimality and feasibility tests.
const EPS: f64 = 1e-9;
/// Non-improving iterations after which pricing switches to Bland's rule.
const STALL_LIMIT: usize = 200;
/// Basis updates between reinversions of the eta file.
const REFACTOR_INTERVAL: usize = 128;
/// A warm basis is accepted if its basic values are no more negative than this.
const WARM_TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted during reinversion.
const REINVERT_PIVOT_TOL: f64 = 1e-10;
/// Smallest transformed-coefficient magnitude admissible as a dual-repair
/// pivot.  Dual pivots run on a seeded (possibly ill-conditioned) basis, so
/// the bar is far above [`EPS`] — near-zero alphas are factorization noise.
const DUAL_PIVOT_TOL: f64 = 1e-7;
/// Size of the partial-pricing candidate list: each full pricing sweep keeps
/// this many of its most negative nonbasic columns for the exact-repricing
/// iterations that follow.  Large enough that a short warm re-solve rarely
/// needs a second sweep, small enough that repricing stays O(list · nnz/col).
const CANDIDATE_LIST: usize = 32;
/// Minor-iteration cap for partial pricing: at most this many consecutive
/// pivots may price from the candidate list before a full sweep is forced.
/// The list's reduced costs go stale as pivots move the multipliers; on wide
/// programs (des-TE has a column per edge × destination) an unbounded run of
/// minor iterations keeps entering marginal columns and inflates the pivot
/// count far beyond what the sweeps save.
const MINOR_LIMIT: usize = 16;
/// The row of a column that is not basic (see `Simplex::row_of`).
const NONBASIC: usize = usize::MAX;

/// An optimal (or at least feasible) simplex basis, reusable as a warm start
/// for a program with the same matrix (see [`solve_with_basis`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column of each constraint row.
    cols: Vec<usize>,
    /// Total column count of the standard form the basis belongs to, used to
    /// reject bases from differently shaped programs.
    total_cols: usize,
}

impl Basis {
    /// Number of constraint rows the basis covers.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }
}

/// Product-form factorization of the basis inverse, `B⁻¹ = E_k · … · E_1`,
/// in one flat arena.  Eta `k` is the identity except for column
/// `pivot[k]`, which holds `diag[k] = 1 / w[pivot]` on the diagonal and
/// `-w[i] / w[pivot]` elsewhere, `w` being the column pivoted in.  Its
/// off-diagonal part is `value[start[k]..start[k + 1]]`, in one of two forms:
///
/// * **sparse** — the nonzeros only, their rows at the matching positions of
///   `index[row_start[k]..row_start[k + 1]]`;
/// * **dense** — the whole `rows`-long column (pivot slot zero) and no rows.
///
/// Reinversion etas are sparse.  An update eta is dense when its nonzeros,
/// diagonal aside, number at least half the rows: eight bytes a row then cost
/// no more than a 16-byte `(row, value)` pair per nonzero.  `nnz` counts true
/// nonzeros either way, so the reinversion trigger does not see the storage
/// choice.
struct EtaFile {
    /// Length of a dense column (the basis dimension).
    rows: usize,
    pivot: Vec<u32>,
    diag: Vec<f64>,
    start: Vec<usize>,
    row_start: Vec<usize>,
    index: Vec<u32>,
    value: Vec<f64>,
    /// Etas `first_update..` are update etas (one per pivot since the last
    /// reinversion); the ones before it are the reinversion's.
    first_update: usize,
    /// Nonzeros in the file, diagonals included.
    nnz: usize,
}

/// The off-diagonal part of one eta (see [`EtaFile`]).
enum EtaColumn<'a> {
    Sparse(&'a [u32], &'a [f64]),
    Dense(&'a [f64]),
}

impl EtaFile {
    /// An empty file for a `rows`-row basis, with room for a reinversion and
    /// the update etas the reinversion trigger lets accumulate; past that the
    /// arena grows (amortized) and keeps its capacity across reinversions.
    fn with_rows(rows: usize) -> EtaFile {
        assert!(u32::try_from(rows).is_ok(), "{rows} rows overflow the eta file's u32 row index");
        let etas = rows + REFACTOR_INTERVAL;
        let mut file = EtaFile {
            rows,
            pivot: Vec::with_capacity(etas),
            diag: Vec::with_capacity(etas),
            start: Vec::with_capacity(etas + 1),
            row_start: Vec::with_capacity(etas + 1),
            index: Vec::with_capacity(4 * rows),
            value: Vec::with_capacity(4 * rows + 2 * update_nnz_limit(rows)),
            first_update: 0,
            nnz: 0,
        };
        file.clear();
        file
    }

    /// Drops every eta (the identity factorization), keeping the capacity.
    fn clear(&mut self) {
        self.pivot.clear();
        self.diag.clear();
        self.start.clear();
        self.start.push(0);
        self.row_start.clear();
        self.row_start.push(0);
        self.index.clear();
        self.value.clear();
        self.first_update = 0;
        self.nnz = 0;
    }

    fn len(&self) -> usize {
        self.pivot.len()
    }

    /// Marks the end of a reinversion: etas appended from now on are update
    /// etas.
    fn begin_updates(&mut self) {
        self.first_update = self.len();
    }

    fn column(&self, k: usize) -> EtaColumn<'_> {
        let values = &self.value[self.start[k]..self.start[k + 1]];
        let rows = &self.index[self.row_start[k]..self.row_start[k + 1]];
        if rows.len() == values.len() {
            EtaColumn::Sparse(rows, values)
        } else {
            EtaColumn::Dense(values)
        }
    }

    /// `x := B⁻¹ x` (apply etas oldest-first).
    fn ftran(&self, x: &mut [f64]) {
        for (k, (&p, &diag)) in self.pivot.iter().zip(&self.diag).enumerate() {
            let p = p as usize;
            let t = x[p];
            if t != 0.0 {
                x[p] = diag * t;
                match self.column(k) {
                    EtaColumn::Sparse(rows, values) => {
                        for (&i, &v) in rows.iter().zip(values) {
                            x[i as usize] += v * t;
                        }
                    }
                    // The pivot slot holds zero: `x[p]` stays `diag · t`.
                    EtaColumn::Dense(column) => {
                        for (xi, &v) in x.iter_mut().zip(column) {
                            *xi += v * t;
                        }
                    }
                }
            }
        }
    }

    /// `y := B⁻ᵀ y` (apply transposed etas newest-first): each eta replaces
    /// `y[pivot]` by its column's dot product with `y`.
    ///
    /// `support` lists rows ascending, without repeats, and `y` is zero off
    /// them; on return it lists the rows the result can be nonzero on, in the
    /// same form.  The caller knows the support of what it seeds — the rows
    /// of the costed basic columns for `c_B`, `{r}` for a unit row `e_r` — so
    /// nothing scans `y` for it.  While the support holds at most a quarter
    /// of the rows, dense update etas are read on it only, and it grows by
    /// the pivot row of each eta applied, the only row an eta writes.  Every
    /// other row of `y` is still zero, so the dot product over the support
    /// adds the same nonzero terms in the same (ascending) order as one over
    /// all `m`: the result is the same to the bit, up to the sign of a zero.
    /// A wider support is walked in full and comes back as every row.  Sparse
    /// etas take their entries as stored.
    fn btran(&self, y: &mut [f64], support: &mut Vec<u32>) {
        debug_assert!(support.windows(2).all(|w| w[0] < w[1]), "support is ascending");
        let sparse = support.len() <= self.rows / 4;
        if !sparse {
            support.clear();
            support.extend(0..self.rows as u32);
        }
        for k in (self.first_update..self.len()).rev() {
            let p = self.pivot[k] as usize;
            let mut acc = self.diag[k] * y[p];
            match self.column(k) {
                EtaColumn::Sparse(rows, values) => {
                    for (&i, &v) in rows.iter().zip(values) {
                        acc += v * y[i as usize];
                    }
                }
                EtaColumn::Dense(column) if sparse => {
                    for &i in support.iter() {
                        acc += column[i as usize] * y[i as usize];
                    }
                }
                EtaColumn::Dense(column) => {
                    for (&v, &yi) in column.iter().zip(y.iter()) {
                        acc += v * yi;
                    }
                }
            }
            y[p] = acc;
            if sparse {
                if let Err(at) = support.binary_search(&self.pivot[k]) {
                    support.insert(at, self.pivot[k]);
                }
            }
        }
        // The reinversion's etas are sparse and sit at the front of the
        // arena, where `index` and `value` still run in step: one offset
        // array delimits both, and no eta needs its form checked.  A row
        // joins the support when an eta writes a nonzero where `y` was zero
        // (a zero there may be a cancellation still listed: dedup below).
        let base = self.first_update;
        let end = self.start[base];
        debug_assert_eq!(self.row_start[base], end, "reinversion etas are sparse");
        let (index, value) = (&self.index[..end], &self.value[..end]);
        let spans = self.start[..=base].windows(2);
        let listed = support.len();
        for ((&p, &diag), span) in
            self.pivot[..base].iter().zip(&self.diag[..base]).zip(spans).rev()
        {
            let row = p as usize;
            let mut acc = diag * y[row];
            for (&i, &v) in index[span[0]..span[1]].iter().zip(&value[span[0]..span[1]]) {
                acc += v * y[i as usize];
            }
            if sparse && y[row] == 0.0 && acc != 0.0 {
                support.push(p);
            }
            y[row] = acc;
        }
        if support.len() > listed {
            support.sort_unstable();
            support.dedup();
        }
    }

    /// `x := B⁻¹ x` for a *sparse* `x` over a reinversion's (sparse) etas,
    /// event-driven: instead of walking the whole file (O(#etas) even when
    /// almost all are no-ops), only etas whose pivot row actually carries
    /// value are applied, discovered through `eta_of_row` (row → file index
    /// of the eta pivoting there, `usize::MAX` if none) and drained in file
    /// order via the min-heap `heap`.  Applying in ascending file order
    /// reproduces the dense FTRAN exactly: an eta whose pivot first becomes
    /// nonzero *after* its turn would not have been re-applied by the
    /// sequential walk either.
    ///
    /// `touched` holds the support of `x` and is extended as values spread.
    /// Indices can repeat when a value cancels to exactly zero and is later
    /// rewritten — consumers must tolerate that (zeroing twice is free;
    /// [`EtaFile::push_from`] zeroes as it drains).
    fn ftran_sparse(
        &self,
        x: &mut [f64],
        touched: &mut Vec<usize>,
        eta_of_row: &[usize],
        heap: &mut BinaryHeap<Reverse<usize>>,
    ) {
        heap.clear();
        for &r in touched.iter() {
            if eta_of_row[r] != usize::MAX {
                heap.push(Reverse(eta_of_row[r]));
            }
        }
        let mut last = usize::MAX;
        while let Some(Reverse(idx)) = heap.pop() {
            if idx == last {
                continue; // duplicate heap entry
            }
            last = idx;
            let p = self.pivot[idx] as usize;
            let t = x[p];
            if t == 0.0 {
                continue;
            }
            x[p] = self.diag[idx] * t;
            let EtaColumn::Sparse(rows, values) = self.column(idx) else {
                unreachable!("reinversion etas are sparse");
            };
            for (&i, &v) in rows.iter().zip(values) {
                let i = i as usize;
                if x[i] == 0.0 {
                    touched.push(i);
                    if eta_of_row[i] != usize::MAX && eta_of_row[i] > idx {
                        heap.push(Reverse(eta_of_row[i]));
                    }
                }
                x[i] += v * t;
            }
        }
    }

    /// Closes the eta just written to `value`/`index` (see [`EtaFile`]).
    fn seal(&mut self, pivot: usize, diag: f64, nonzeros: usize) {
        self.pivot.push(pivot as u32);
        self.diag.push(diag);
        self.start.push(self.value.len());
        self.row_start.push(self.index.len());
        self.nnz += nonzeros + 1;
    }

    /// Appends the update eta produced by pivoting the FTRAN'd entering
    /// column `w` on row `pivot`, dense or sparse by its own density.
    fn push(&mut self, pivot: usize, w: &[f64]) {
        let inv = 1.0 / w[pivot];
        let nonzeros = w.iter().filter(|&&v| v != 0.0).count() - usize::from(w[pivot] != 0.0);
        if 2 * nonzeros >= self.rows {
            let from = self.value.len();
            self.value.extend(w.iter().map(|&v| -v * inv));
            self.value[from + pivot] = 0.0;
        } else {
            for (i, &v) in w.iter().enumerate() {
                if i != pivot && v != 0.0 {
                    self.index.push(i as u32);
                    self.value.push(-v * inv);
                }
            }
        }
        self.seal(pivot, inv, nonzeros);
    }

    /// [`EtaFile::push`] of a reinversion eta over a sparse support, always
    /// stored sparse: only `support` indices are read, and each is zeroed as
    /// it is consumed, which both cleans the scratch vector for the caller
    /// and makes duplicate support indices (see [`EtaFile::ftran_sparse`])
    /// read as zero on second sight.
    fn push_from(&mut self, pivot: usize, w: &mut [f64], support: &[usize]) {
        let inv = 1.0 / w[pivot];
        let from = self.value.len();
        for &i in support {
            let v = w[i];
            w[i] = 0.0;
            if i != pivot && v != 0.0 {
                self.index.push(i as u32);
                self.value.push(-v * inv);
            }
        }
        self.seal(pivot, inv, self.value.len() - from);
    }

    /// Appends a pure scaling eta (`x[pivot] *= 1/v`): the elimination step
    /// of a singleton column with entry `v` on an unpivoted row.
    fn push_diagonal(&mut self, pivot: usize, v: f64) {
        self.seal(pivot, 1.0 / v, 0);
    }
}

/// A row-wise sweep `acc[c] = init(c) + Σ_r s·v[r]·A[r, c]` over the rows of
/// a sparse vector `v`'s support.  The columns the rows reach are marked in a
/// bitset, so they are visited in ascending column order — the order of a
/// sweep over every column — without an `O(n)` reset or scan.
struct RowSweep {
    /// Accumulator of each marked column; stale on the others.
    acc: Vec<f64>,
    /// One bit per column, set while the column is marked.
    marks: Vec<u64>,
}

impl RowSweep {
    fn with_cols(cols: usize) -> RowSweep {
        RowSweep { acc: vec![0.0; cols], marks: vec![0; cols.div_ceil(64)] }
    }

    /// Marks column `c`; a first mark sets its accumulator to `init`.
    fn touch(&mut self, c: usize, init: impl FnOnce() -> f64) {
        let (word, bit) = (c / 64, 1u64 << (c % 64));
        if self.marks[word] & bit == 0 {
            self.marks[word] |= bit;
            self.acc[c] = init();
        }
    }

    #[cfg(test)]
    fn is_marked(&self, c: usize) -> bool {
        is_set(&self.marks, c)
    }

    /// Adds `sign · v[r] · A[r, c]` over the rows `r` of `support`
    /// (ascending) with `v[r] != 0` and their columns `c < limit`, marking
    /// each column and initializing it to `init(c)` on first touch.  A column
    /// gets the nonzero terms of its dot product with `sign · v`, in the
    /// ascending row order [`ColumnView::column_dot`] adds them in.
    fn add_rows(
        &mut self,
        matrix: &CsrMatrix,
        v: &[f64],
        support: &[u32],
        sign: f64,
        limit: usize,
        init: impl Fn(usize) -> f64,
    ) {
        for &r in support {
            let vr = v[r as usize];
            if vr != 0.0 {
                let scale = sign * vr;
                let (cols, vals) = matrix.row(r as usize);
                for (&c, &a) in cols.iter().zip(vals) {
                    if c < limit {
                        self.touch(c, || init(c));
                        self.acc[c] += scale * a;
                    }
                }
            }
        }
    }

    /// Visits the marked columns and their accumulators in ascending column
    /// order until `visit` returns `false`, and unmarks every column.
    fn drain(&mut self, mut visit: impl FnMut(usize, f64) -> bool) {
        let mut more = true;
        for (w, word) in self.marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while more && bits != 0 {
                let c = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                more = visit(c, self.acc[c]);
            }
        }
    }
}

/// Nonzeros the update etas may accumulate before a reinversion is due (see
/// [`Simplex::should_refactorize`]).
fn update_nnz_limit(rows: usize) -> usize {
    16 * rows + 1024
}

/// Whether bit `c` of a column bitset is set.
fn is_set(bits: &[u64], c: usize) -> bool {
    bits[c / 64] & (1u64 << (c % 64)) != 0
}

/// The form's forcing rows, and the columns they pin at zero as a bitset
/// over every column: an equality row whose right-hand side is exactly 0
/// and whose nonzero structural coefficients all share one sign forces each
/// of those columns to 0, since `x ≥ 0`.  Read from the current right-hand
/// side, so a template's sets follow its updates.
fn forcing_rows(form: &StandardForm) -> (Vec<bool>, Vec<u64>) {
    let mut rows = vec![false; form.num_rows()];
    let mut forced = vec![0u64; form.total_cols.div_ceil(64)];
    for (r, relation) in form.relations.iter().enumerate() {
        if *relation != Relation::Equal || form.rhs[r] != 0.0 {
            continue;
        }
        let (cols, vals) = form.matrix.row(r);
        let structural = || cols.iter().zip(vals).filter(|&(&c, &v)| c < form.num_vars && v != 0.0);
        if structural().all(|(_, &v)| v > 0.0) || structural().all(|(_, &v)| v < 0.0) {
            rows[r] = true;
            for (&c, _) in structural() {
                forced[c / 64] |= 1u64 << (c % 64);
            }
        }
    }
    (rows, forced)
}

/// How many equality rows each structural column appears in with a
/// nonzero coefficient.
fn equality_appearances(form: &StandardForm) -> Vec<usize> {
    let mut appearances = vec![0usize; form.num_vars];
    for r in (0..form.num_rows()).filter(|&r| form.relations[r] == Relation::Equal) {
        let (cols, vals) = form.matrix.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            if c < form.num_vars && v.abs() > EPS {
                appearances[c] += 1;
            }
        }
    }
    appearances
}

/// The program in computational standard form: `min cᵀx  s.t.  Ax = b, x ≥ 0`
/// with slack, surplus and artificial columns appended and `b ≥ 0`.
#[derive(Debug)]
pub(crate) struct StandardForm {
    pub(crate) matrix: CsrMatrix,
    view: ColumnView,
    pub(crate) rhs: Vec<f64>,
    /// Number of structural (original) variables.
    num_vars: usize,
    /// First artificial column (artificials occupy `art_start..total_cols`).
    art_start: usize,
    total_cols: usize,
    /// Initial identity basis: the slack or artificial column of each row.
    initial_basis: Vec<usize>,
    /// Whether each row was sign-flipped during normalization (`rhs < 0` in
    /// the source program); template updates must re-apply the flip.
    pub(crate) flipped: Vec<bool>,
    /// Post-normalization relation of each row (crash-basis construction).
    relations: Vec<Relation>,
}

impl StandardForm {
    pub(crate) fn build(lp: &LinearProgram) -> StandardForm {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for c in lp.constraints() {
            let relation = if c.rhs < 0.0 { c.relation.flipped() } else { c.relation };
            match relation {
                Relation::LessEq => num_slack += 1,
                Relation::GreaterEq => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                Relation::Equal => num_artificial += 1,
            }
        }
        let art_start = n + num_slack;
        let total_cols = art_start + num_artificial;

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut initial_basis = Vec::with_capacity(m);
        let mut flipped = Vec::with_capacity(m);
        let mut relations = Vec::with_capacity(m);
        let mut next_slack = n;
        let mut next_art = art_start;
        for c in lp.constraints() {
            let flip = c.rhs < 0.0;
            flipped.push(flip);
            let sign = if flip { -1.0 } else { 1.0 };
            let relation = if flip { c.relation.flipped() } else { c.relation };
            relations.push(relation);
            let mut row: Vec<(usize, f64)> = c.coeffs.iter().map(|&(i, v)| (i, sign * v)).collect();
            match relation {
                Relation::LessEq => {
                    row.push((next_slack, 1.0));
                    initial_basis.push(next_slack);
                    next_slack += 1;
                }
                Relation::GreaterEq => {
                    row.push((next_slack, -1.0));
                    next_slack += 1;
                    row.push((next_art, 1.0));
                    initial_basis.push(next_art);
                    next_art += 1;
                }
                Relation::Equal => {
                    row.push((next_art, 1.0));
                    initial_basis.push(next_art);
                    next_art += 1;
                }
            }
            rows.push(row);
            rhs.push(sign * c.rhs);
        }
        let matrix = CsrMatrix::from_rows(total_cols, &rows);
        let view = matrix.column_view();
        StandardForm {
            matrix,
            view,
            rhs,
            num_vars: n,
            art_start,
            total_cols,
            initial_basis,
            flipped,
            relations,
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rhs.len()
    }
}

impl Relation {
    fn flipped(self) -> Relation {
        match self {
            Relation::LessEq => Relation::GreaterEq,
            Relation::GreaterEq => Relation::LessEq,
            Relation::Equal => Relation::Equal,
        }
    }
}

/// Why [`Simplex::optimize`] stopped.
enum Outcome {
    Optimal,
    Unbounded,
}

/// Reinversion scratch (see [`Simplex::refactorize`]), sized once per solve.
struct Reinversion {
    /// Basic columns sparsest-first, ties by column index.
    order: Vec<usize>,
    /// Counting-sort buckets of `order`, one per column nonzero count.
    buckets: Vec<usize>,
    pivoted: Vec<bool>,
    /// Basic column of each row as the reinversion assigns pivots.
    new_basis: Vec<usize>,
    /// File index of the eta pivoting each row (event-driven FTRAN).
    eta_of_row: Vec<usize>,
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<usize>>,
}

impl Reinversion {
    fn with_rows(rows: usize) -> Reinversion {
        Reinversion {
            order: vec![0; rows],
            buckets: vec![0; rows + 2],
            pivoted: vec![false; rows],
            new_basis: vec![0; rows],
            eta_of_row: vec![usize::MAX; rows],
            touched: Vec::with_capacity(rows),
            heap: BinaryHeap::with_capacity(rows),
        }
    }

    /// Orders the basic columns by `(nonzeros, column)` — a counting sort
    /// over `row_of`, which lists them by column already.
    fn order_basic_columns(&mut self, row_of: &[usize], view: &ColumnView) {
        self.buckets.fill(0);
        let basic = || (0..row_of.len()).filter(|&c| row_of[c] != NONBASIC);
        for c in basic() {
            self.buckets[view.col_nnz(c) + 1] += 1;
        }
        for d in 1..self.buckets.len() {
            self.buckets[d] += self.buckets[d - 1];
        }
        for c in basic() {
            let slot = &mut self.buckets[view.col_nnz(c)];
            self.order[*slot] = c;
            *slot += 1;
        }
    }
}

/// Revised simplex state over one standard form.  One value serves a whole
/// solve: every start (warm, crash, two-phase) resets it in place, so the
/// eta arena and the scratch buffers are allocated once per solve however
/// many starts, pivots and reinversions it takes.
struct Simplex<'a> {
    form: &'a StandardForm,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Row of each basic column, [`NONBASIC`] for the others: the inverse of
    /// `basis`.
    row_of: Vec<usize>,
    fact: EtaFile,
    /// Current basic values (`x_B = B⁻¹ b`); kept ≥ 0 during primal
    /// iterations, temporarily negative during dual (warm-repair) pivots.
    xb: Vec<f64>,
    updates_since_refactor: usize,
    /// `fact.nnz` right after the last reinversion: the refactor trigger
    /// watches the *growth* of the eta file (update etas appended since),
    /// not its absolute size — a basis whose factorization is inherently
    /// dense must not refactorize on every pivot.
    nnz_after_refactor: usize,
    stats: SolveStats,
    /// Dense scratch of length `m` (FTRAN results).
    work: Vec<f64>,
    /// The simplex multipliers `y = B⁻ᵀ c_B`, zero off `y_support`...
    y: Vec<f64>,
    /// ...which lists rows ascending (see [`EtaFile::btran`]).
    y_support: Vec<u32>,
    /// The rows whose basic column is costed, ascending: the support of
    /// `c_B`, refreshed by [`Simplex::refresh_costed_rows`].
    costed_rows: Vec<u32>,
    /// Row sweeps of the full pricing (`d = c − Aᵀy`) and the dual ratio row
    /// (`α = ρᵀA`).
    sweep: RowSweep,
    /// Partial-pricing candidate list: nonbasic columns that looked attractive
    /// at the last full sweep, kept in ascending column order so Dantzig ties
    /// still resolve to the lowest index.  Cleared whenever the cost vector
    /// changes (each [`Simplex::optimize`] call).
    cand: Vec<usize>,
    /// Consecutive minor (candidate-list) iterations since the last full
    /// sweep; [`MINOR_LIMIT`] bounds how stale the list may get.
    minor: usize,
    /// When `false` every iteration runs the full pricing sweep; test hook for
    /// pinning partial pricing against the reference Dantzig loop.
    partial_pricing: bool,
    /// The row `ρ = B⁻ᵀ e_r` of B⁻¹ the dual repair's leaving row (or an
    /// artificial being driven out) sits on, zero off `rho_support`...
    rho: Vec<f64>,
    rho_support: Vec<u32>,
    /// ...and its admissible entering columns `(column, alpha, d)`.
    candidates: Vec<(usize, f64, f64)>,
    /// Whether each row is a forcing row, and one bit per column, set on the
    /// columns those rows pin at zero (see [`forcing_rows`]): none of them
    /// may enter.
    forcing: Vec<bool>,
    forced: Vec<u64>,
    /// Equality rows each structural column appears in (the crash basis's
    /// exclusive columns appear in one).
    appearances: Vec<usize>,
    reinversion: Reinversion,
}

impl<'a> Simplex<'a> {
    /// Allocates the state of one solve, at the all-slack/artificial identity
    /// basis (`x_B = b`).
    fn new(form: &'a StandardForm, partial_pricing: bool) -> Simplex<'a> {
        let m = form.num_rows();
        let (forcing, forced) = forcing_rows(form);
        let mut simplex = Simplex {
            form,
            basis: vec![0; m],
            row_of: vec![NONBASIC; form.total_cols],
            fact: EtaFile::with_rows(m),
            xb: vec![0.0; m],
            updates_since_refactor: 0,
            nnz_after_refactor: 0,
            stats: SolveStats::default(),
            work: vec![0.0; m],
            y: vec![0.0; m],
            y_support: Vec::with_capacity(m),
            costed_rows: Vec::with_capacity(m),
            sweep: RowSweep::with_cols(form.total_cols),
            cand: Vec::with_capacity(form.total_cols),
            minor: 0,
            partial_pricing,
            rho: vec![0.0; m],
            rho_support: Vec::with_capacity(m),
            candidates: Vec::with_capacity(form.art_start),
            forcing,
            forced,
            appearances: equality_appearances(form),
            reinversion: Reinversion::with_rows(m),
        };
        simplex.reset();
        simplex
    }

    /// Returns to the identity basis with fresh counters, keeping every
    /// buffer: what a start needs before it builds its basis.
    fn reset(&mut self) {
        let form = self.form;
        self.basis.copy_from_slice(&form.initial_basis);
        self.row_of.fill(NONBASIC);
        for (r, &c) in form.initial_basis.iter().enumerate() {
            self.row_of[c] = r;
        }
        self.fact.clear();
        self.xb.copy_from_slice(&form.rhs);
        self.updates_since_refactor = 0;
        self.nnz_after_refactor = 0;
        self.stats = SolveStats::default();
        self.work.fill(0.0);
        self.cand.clear();
        self.minor = 0;
    }

    /// Starts from a caller-provided basis.  Returns `false` if the basis
    /// does not fit the form, is singular, or leaves an artificial variable
    /// basic at a nonzero value — in all of which cases the caller should
    /// solve cold instead.  The state may be left primal *infeasible*
    /// (negative basic values) when the right-hand side moved since the basis
    /// was optimal; [`Simplex::dual_repair`] restores feasibility before
    /// primal iterations run.
    fn start_warm(&mut self, warm: &Basis) -> bool {
        let form = self.form;
        if warm.cols.len() != form.num_rows() || warm.total_cols != form.total_cols {
            return false;
        }
        self.reset();
        self.basis.copy_from_slice(&warm.cols);
        self.row_of.fill(NONBASIC);
        for (r, &c) in self.basis.iter().enumerate() {
            if c >= form.total_cols || self.row_of[c] != NONBASIC {
                return false; // out of range or duplicated column
            }
            self.row_of[c] = r;
        }
        // A forcing row's artificial stays basic in the optimum (see
        // `start_crash`).  Where the row has since stopped forcing — the
        // pair's demand came back — the row's exclusive column takes the
        // artificial's place before the basis is factorized, which costs no
        // BTRAN.
        for r in 0..form.num_rows() {
            let artificial = form.initial_basis[r];
            let stale = form.relations[r] == Relation::Equal
                && !self.forcing[r]
                && self.row_of[artificial] != NONBASIC;
            if !stale {
                continue;
            }
            if let Some(c) = self.exclusive_column(r, &[]) {
                let slot = self.row_of[artificial];
                self.row_of[artificial] = NONBASIC;
                self.row_of[c] = slot;
                self.basis[slot] = c;
            }
        }
        if self.refactorize().is_err() {
            return false;
        }
        // A degenerate optimum can leave artificials basic at value zero;
        // under a new right-hand side they reappear at arbitrary values.
        // Pivot them out onto structural/slack columns where possible
        // (negative results are repaired by the dual pivots that follow).
        // Artificials that cannot leave sit on redundant rows and must be at
        // ~zero, or the seed point violates original rows in a way dual
        // pivots on structural/slack columns cannot repair.
        if self.basis.iter().any(|&b| b >= form.art_start) {
            self.drive_out_artificials();
        }
        for (r, &v) in self.xb.iter().enumerate() {
            if self.basis[r] >= form.art_start && v.abs() > WARM_TOL {
                return false;
            }
        }
        self.stats.warm_started = true;
        true
    }

    /// Builds a **crash basis** that avoids phase 1 on programs shaped like
    /// the TE LPs: every `=` row but a forcing row gets a structural column
    /// appearing in *that equality row only* (a path's flow variable lives in
    /// exactly one conservation row), every `≤` row and every forcing row
    /// keeps its slack or artificial.  Among a row's
    /// exclusive columns the one with the largest `hint` value wins (the
    /// previous optimum's structural values; empty = no hint), ties going to
    /// the lowest index — so without a hint this is the lowest-index crash.
    /// The result is block-triangular and nonsingular but usually primal
    /// infeasible (the crash routing overloads edges while θ sits at zero) —
    /// which the lift and [`Simplex::dual_repair`] then fix, typically in
    /// very few pivots because one entering θ-column lifts every violated
    /// row at once.  Returns `false` when the shape does not fit (`≥` rows,
    /// an equality row without an exclusive column, singular numerics); the
    /// caller then runs the ordinary two-phase solve.
    fn start_crash(&mut self, hint: &[f64]) -> bool {
        let form = self.form;
        if form.relations.contains(&Relation::GreaterEq) {
            return false;
        }
        let equal_rows: Vec<usize> =
            (0..form.num_rows()).filter(|&r| form.relations[r] == Relation::Equal).collect();
        if equal_rows.is_empty() {
            return false; // the all-slack basis is already artificial-free
        }
        self.reset();
        for &r in &equal_rows {
            // A forcing row keeps its artificial: basic at exactly 0 while
            // none of the row's columns may enter, it stays 0, and as a unit
            // column it costs the factorization nothing — a forced path flow
            // would carry its capacity rows into every FTRAN and BTRAN.
            if self.forcing[r] {
                continue;
            }
            let Some(c) = self.exclusive_column(r, hint) else {
                return false;
            };
            // Swap the row's artificial for the exclusive structural column.
            self.row_of[self.basis[r]] = NONBASIC;
            self.row_of[c] = r;
            self.basis[r] = c;
        }
        if self.refactorize().is_err() {
            return false;
        }
        self.lift_to_feasibility();
        true
    }

    /// The nonbasic structural column of equality row `r` that appears in
    /// no other equality row with the largest `hint` value, ties going to
    /// the lowest index.
    fn exclusive_column(&self, r: usize, hint: &[f64]) -> Option<usize> {
        let form = self.form;
        let (cols, vals) = form.matrix.row(r);
        let mut pick: Option<(usize, f64)> = None;
        for (&c, &v) in cols.iter().zip(vals) {
            let exclusive = c < form.num_vars && v.abs() > EPS && self.appearances[c] == 1;
            if exclusive && self.row_of[c] == NONBASIC {
                let held = hint.get(c).copied().unwrap_or(0.0);
                if pick.is_none_or(|(_, best)| held > best) {
                    pick = Some((c, held));
                }
            }
        }
        pick.map(|(c, _)| c)
    }

    /// One-shot feasibility lift for the crash basis.  The crash point is
    /// infeasible exactly where the crash routing overloads `≤` rows, and a
    /// min-max objective variable (θ in min-MLU: a structural column that
    /// appears in no equality row, with negative coefficients in the
    /// overloaded rows) can absorb *all* of those violations at once: enter
    /// it with step `t* = max_{w_i<0} x_i/w_i` — the largest lower bound its
    /// column imposes — provided no positive-coefficient row blocks below
    /// `t*`.  One FTRAN + `O(m)` per candidate; purely an accelerator, the
    /// dual repair that follows handles whatever is left.
    fn lift_to_feasibility(&mut self) {
        if self.xb.iter().all(|&v| v >= -WARM_TOL) {
            return;
        }
        for q in 0..self.form.num_vars {
            if self.row_of[q] != NONBASIC || self.appearances[q] != 0 {
                continue;
            }
            if self.form.view.col_nnz(q) == 0 {
                continue;
            }
            self.work.iter_mut().for_each(|v| *v = 0.0);
            for (r, v) in self.form.view.column(&self.form.matrix, q) {
                self.work[r] = v;
            }
            self.fact.ftran(&mut self.work);
            // Smallest step that clears every lower bound the column imposes.
            let mut t = 0.0f64;
            let mut pivot_row: Option<usize> = None;
            for (r, &w) in self.work.iter().enumerate() {
                if w < -DUAL_PIVOT_TOL {
                    let bound = self.xb[r] / w;
                    if bound > t {
                        t = bound;
                        pivot_row = Some(r);
                    }
                }
            }
            let r = match pivot_row {
                Some(r) => r,
                None => continue,
            };
            // Blocked if a positive-coefficient row runs negative, or if a
            // negative row is not actually cleared (w ≈ 0 there).
            let feasible_after = self.xb.iter().zip(self.work.iter()).all(|(&x, &w)| {
                let after = x - t * w;
                after >= -WARM_TOL
            });
            if !feasible_after {
                continue;
            }
            self.pivot(q, r, t, true);
            self.stats.phase1_iterations += 1;
            return;
        }
    }

    /// Dual-simplex repair: after the right-hand side moved under a seeded
    /// basis (or a crash basis is built), the basis is still *dual* feasible
    /// but usually primal infeasible — some basic values went negative.
    /// Classic dual pivots (leaving row = most negative basic value, entering
    /// column = minimum reduced-cost ratio over the row's negative
    /// transformed coefficients) restore `x_B ≥ 0` in a handful of iterations
    /// when the perturbation is small.  Returns `Ok(true)` once feasible,
    /// `Ok(false)` to give up (the caller falls back to the next start);
    /// pivots are counted into `phase1_iterations` since the repair replaces
    /// phase 1.
    ///
    /// Heavily damaged seeds bail out instantly (the **damage gate**): when a
    /// large share of the rows is infeasible the seed is not "the previous
    /// optimum slightly perturbed" but a different routing, and grinding dual
    /// pivots through it costs more than the crash start it would replace.
    /// Measured on `lp_monolith` (80 bursty ToRs, m = 1845): the previous
    /// basis is primal infeasible in ≈ 200 rows per tick on average, and
    /// repairing those ungated made the run more than 10× slower — what
    /// survives a burst is the previous *routing* (the crash hint), not the
    /// previous basis.  A repair ends at the optimum (dual feasibility is
    /// kept, so phase 2 has nothing left) after 1–3 dual pivots per damaged
    /// row, against a near-constant phase 2 from the hinted crash; the two
    /// break even at `m / 20` damaged rows on `lp_monolith` and `m / 26` on
    /// the `dc_fleet_lp` shards (m ≈ 3100), hence `m / 24`.  The crash path
    /// runs through the same gate: the lift usually clears every violated row
    /// beforehand, so a crash point that is still widely infeasible (e.g.
    /// binding bound rows θ cannot lift) goes straight to two-phase.
    fn dual_repair(&mut self, costs: &Costs) -> Result<bool, LpError> {
        let m = self.form.num_rows();
        let damage = self.xb.iter().filter(|v| **v < -WARM_TOL).count();
        if damage > 32.max(m / 24) {
            return Ok(false);
        }
        let max_pivots = (m + 100).min(8 * damage + 64);
        // When pricing and FTRAN disagree (eta-file drift), one reinversion
        // retry is allowed before the attempt is abandoned; any successful
        // pivot re-arms the retry.
        let mut fresh_factorization = false;
        let mut pivots = 0usize;
        while pivots < max_pivots {
            // Leaving row: most negative basic value.
            let mut leaving: Option<usize> = None;
            let mut most_negative = -WARM_TOL;
            for (r, &v) in self.xb.iter().enumerate() {
                if v < most_negative {
                    most_negative = v;
                    leaving = Some(r);
                }
            }
            let r = match leaving {
                Some(r) => r,
                None => {
                    // Feasible; flush the remaining sub-tolerance noise.
                    for v in self.xb.iter_mut() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                    return Ok(true);
                }
            };
            // Simplex multipliers for reduced costs, and row r of B⁻¹.
            self.refresh_costed_rows(&costs.costed);
            self.price_multipliers(&costs.values);
            self.btran_unit_row(r);
            // Entering column: minimum d_j / -alpha_j over alpha_j < 0 among
            // the non-artificial columns (ties go to the lowest index via the
            // strict `<` scan).  Pass 1: admissible candidates and the row's
            // largest pivot magnitude.  Pass 2: threshold ratio test — only
            // pivots within a fraction of that magnitude are eligible (a tiny
            // alpha under a large infeasibility means a huge step
            // `t = x_B[r]/alpha` that blows the iterate up), then minimum
            // reduced-cost ratio, largest |alpha| among (near-)ties: min-MLU
            // programs are massively dual degenerate (nearly all costs are
            // zero), so most ratios tie at zero and the stable pivot wins.
            self.sweep_ratio_row();
            let max_abs_alpha = self.dual_candidates(&costs.values);
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for &(c, alpha, d) in &self.candidates {
                if -alpha < 0.05 * max_abs_alpha {
                    continue;
                }
                let ratio = d / -alpha;
                let take =
                    ratio < best_ratio - EPS || (ratio < best_ratio + EPS && -alpha > best_alpha);
                if take {
                    best_ratio = ratio.min(best_ratio);
                    best_alpha = -alpha;
                    entering = Some(c);
                }
            }
            let q = match entering {
                Some(q) => q,
                None => {
                    if fresh_factorization {
                        return Ok(false); // row unsatisfiable under this seed
                    }
                    self.refactorize()?;
                    fresh_factorization = true;
                    continue;
                }
            };
            // FTRAN the entering column and pivot on row r (t > 0 since both
            // x_B[r] and the pivot element are negative).  A pricing/FTRAN
            // disagreement means the eta file has drifted: reinvert and retry.
            self.work.iter_mut().for_each(|v| *v = 0.0);
            for (row, v) in self.form.view.column(&self.form.matrix, q) {
                self.work[row] = v;
            }
            self.fact.ftran(&mut self.work);
            if self.work[r] >= -DUAL_PIVOT_TOL {
                if fresh_factorization {
                    return Ok(false);
                }
                self.refactorize()?;
                fresh_factorization = true;
                continue;
            }
            let t = self.xb[r] / self.work[r];
            self.pivot(q, r, t, false);
            self.stats.phase1_iterations += 1;
            pivots += 1;
            fresh_factorization = false;
            if self.should_refactorize() {
                self.refactorize()?;
            }
        }
        Ok(false)
    }

    /// Rebuilds the eta file from the current basis columns ("reinversion")
    /// and recomputes `x_B` from the RHS.  Unit columns are pivoted first and
    /// the remaining columns are processed sparsest-first to limit fill-in;
    /// pivot rows are chosen by largest magnitude for stability.  The
    /// row-association of the basis is updated to match the pivot assignment.
    /// A column with no admissible pivot row means the basis is singular:
    /// with the matrix frozen a basis that was nonsingular stays so, which
    /// leaves a malformed seed (rejected by [`Simplex::start_warm`]) or genuine
    /// numerical breakdown — a hard [`LpError::Numerical`] either way.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let started = Instant::now();
        let result = self.refactorize_inner();
        self.stats.factor_seconds += started.elapsed().as_secs_f64();
        result
    }

    fn refactorize_inner(&mut self) -> Result<(), LpError> {
        let form = self.form;
        let view = &form.view;
        let scratch = &mut self.reinversion;
        scratch.order_basic_columns(&self.row_of, view);
        scratch.pivoted.fill(false);
        scratch.eta_of_row.fill(usize::MAX);
        let fact = &mut self.fact;
        fact.clear();
        let work = &mut self.work;
        for &col in &scratch.order {
            // Singleton fast path: a column with one stored entry `v` at an
            // unpivoted row `r` is untouched by FTRAN (no eta can pivot at an
            // unpivoted row), so it pivots `r` directly — and when `v = 1`
            // (every slack/artificial) it needs no eta at all.
            if view.col_nnz(col) == 1 {
                let (r, v) = view.column(&form.matrix, col).next().expect("one entry");
                if !scratch.pivoted[r] && v.abs() > REINVERT_PIVOT_TOL {
                    if v != 1.0 {
                        fact.push_diagonal(r, v);
                        scratch.eta_of_row[r] = fact.len() - 1;
                    }
                    scratch.pivoted[r] = true;
                    scratch.new_basis[r] = col;
                    continue;
                }
            }
            let touched = &mut scratch.touched;
            touched.clear();
            for (r, v) in view.column(&form.matrix, col) {
                work[r] = v;
                touched.push(r);
            }
            fact.ftran_sparse(work, touched, &scratch.eta_of_row, &mut scratch.heap);
            let mut pivot = None;
            let mut best = REINVERT_PIVOT_TOL;
            for &r in touched.iter() {
                let v = work[r];
                if !scratch.pivoted[r] && v.abs() > best {
                    best = v.abs();
                    pivot = Some(r);
                }
            }
            let Some(p) = pivot else {
                for &r in touched.iter() {
                    work[r] = 0.0;
                }
                return Err(LpError::Numerical); // singular basis
            };
            fact.push_from(p, work, touched);
            scratch.eta_of_row[p] = fact.len() - 1;
            scratch.pivoted[p] = true;
            scratch.new_basis[p] = col;
        }
        fact.begin_updates();
        std::mem::swap(&mut self.basis, &mut scratch.new_basis);
        for (r, &c) in self.basis.iter().enumerate() {
            self.row_of[c] = r;
        }
        self.nnz_after_refactor = fact.nnz;
        self.updates_since_refactor = 0;
        self.stats.refactorizations += 1;
        // Restore x_B = B⁻¹ b with the fresh factorization.
        self.xb.copy_from_slice(&form.rhs);
        fact.ftran(&mut self.xb);
        for v in self.xb.iter_mut() {
            if *v < 0.0 && *v > -WARM_TOL {
                *v = 0.0;
            }
        }
        Ok(())
    }

    /// Lists the rows whose basic column is one of `costed`, ascending.
    fn refresh_costed_rows(&mut self, costed: &[usize]) {
        self.costed_rows.clear();
        for &c in costed {
            if self.row_of[c] != NONBASIC {
                self.costed_rows.push(self.row_of[c] as u32);
            }
        }
        self.costed_rows.sort_unstable();
    }

    /// The objective `c_Bᵀ x_B` over the costed rows (refreshed here), in
    /// ascending row order: the nonzero terms of the sum over all rows, in
    /// its order.
    fn objective(&mut self, costs: &Costs) -> f64 {
        self.refresh_costed_rows(&costs.costed);
        let (basis, xb) = (&self.basis, &self.xb);
        self.costed_rows.iter().map(|&r| costs.values[basis[r as usize]] * xb[r as usize]).sum()
    }

    /// Simplex multipliers `y = B⁻ᵀ c_B`: `c_B` seeded on the costed rows of
    /// the last [`Simplex::refresh_costed_rows`], which must postdate the
    /// last basis change, and BTRAN over that support.
    fn price_multipliers(&mut self, costs: &[f64]) {
        for &r in &self.y_support {
            self.y[r as usize] = 0.0;
        }
        self.y_support.clear();
        for &r in &self.costed_rows {
            self.y[r as usize] = costs[self.basis[r as usize]];
            self.y_support.push(r);
        }
        self.fact.btran(&mut self.y, &mut self.y_support);
    }

    /// `ρ = B⁻ᵀ e_r`, row `r` of B⁻¹: BTRAN over the support `{r}`.
    fn btran_unit_row(&mut self, r: usize) {
        for &i in &self.rho_support {
            self.rho[i as usize] = 0.0;
        }
        self.rho_support.clear();
        self.rho_support.push(r as u32);
        self.rho[r] = 1.0;
        self.fact.btran(&mut self.rho, &mut self.rho_support);
    }

    /// Reinversion trigger: a fixed update interval, or the update etas
    /// appended since the last reinversion outgrowing the base factorization
    /// by [`update_nnz_limit`] nonzeros (absolute size would loop on dense
    /// bases).
    fn should_refactorize(&self) -> bool {
        self.updates_since_refactor >= REFACTOR_INTERVAL
            || self.fact.nnz - self.nnz_after_refactor > update_nnz_limit(self.form.num_rows())
    }

    /// Runs the revised simplex with the given costs until optimality.
    /// Columns at `limit..` (the artificials in phase 2) may not enter.
    /// Returns the outcome; pivots are counted into `pivots`.
    fn optimize(
        &mut self,
        costs: &Costs,
        limit: usize,
        max_iterations: usize,
        pivots: &mut usize,
    ) -> Result<Outcome, LpError> {
        let m = self.form.num_rows();
        let mut stall = 0usize;
        let mut last_objective = self.objective(costs);
        // The candidate list holds reduced costs of a *previous* cost vector's
        // sweep; never carry it across phases.
        self.cand.clear();
        self.minor = 0;
        for _ in 0..max_iterations {
            let use_bland = stall >= STALL_LIMIT;
            // Simplex multipliers, on the costed rows the last objective
            // refreshed (no basis change since).
            self.price_multipliers(&costs.values);
            // Pricing: re-price the candidate list exactly; fall back to the
            // full sweep when it runs dry (which also repopulates the list) or
            // after [`MINOR_LIMIT`] consecutive minor iterations (bounding
            // list staleness).  Bland mode always prices fully — its
            // anti-cycling guarantee needs the globally first negative column.
            let minor_ok = self.partial_pricing && self.minor < MINOR_LIMIT;
            let entering = if use_bland || !minor_ok {
                self.price_full(costs, limit, use_bland)
            } else {
                match self.price_candidates(&costs.values, limit) {
                    Some(c) => Some(c),
                    None => self.price_full(costs, limit, false),
                }
            };
            let entering = match entering {
                Some(c) => c,
                None => return Ok(Outcome::Optimal),
            };
            // FTRAN: w = B⁻¹ a_entering.
            self.work.iter_mut().for_each(|v| *v = 0.0);
            for (r, v) in self.form.view.column(&self.form.matrix, entering) {
                self.work[r] = v;
            }
            self.fact.ftran(&mut self.work);
            // Ratio test.  In Dantzig mode degenerate ties go to the largest
            // pivot element (numerically stable and less prone to stalling on
            // TE degeneracy); in Bland mode they deterministically pick the
            // lowest basic column index, preserving the anti-cycling
            // guarantee the stall switch relies on.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_pivot = 0.0f64;
            for r in 0..m {
                let a = self.work[r];
                if a > EPS {
                    let ratio = self.xb[r] / a;
                    let take = match leaving {
                        None => true,
                        Some(l) => {
                            ratio < best_ratio - EPS
                                || ((ratio - best_ratio).abs() <= EPS
                                    && if use_bland {
                                        self.basis[r] < self.basis[l]
                                    } else {
                                        a > best_pivot
                                    })
                        }
                    };
                    if take {
                        best_ratio = ratio.min(best_ratio);
                        best_pivot = a;
                        leaving = Some(r);
                    }
                }
            }
            let leaving = match leaving {
                Some(r) => r,
                None => return Ok(Outcome::Unbounded),
            };
            self.pivot(entering, leaving, best_ratio.max(0.0), true);
            *pivots += 1;
            if self.should_refactorize() {
                self.refactorize()?;
            }
            let objective = self.objective(costs);
            if (objective - last_objective).abs() <= EPS {
                stall += 1;
            } else {
                stall = 0;
                last_objective = objective;
            }
        }
        Err(LpError::IterationLimit)
    }

    /// Full pricing sweep: the reduced costs `d = c − Aᵀy` by rows of the
    /// CSR matrix — far cheaper than per-column indirected dot products, and
    /// exact Dantzig semantics.  Dantzig takes the most negative reduced
    /// cost, Bland the first; entering ties go to the lowest column index
    /// (scan order).  In Dantzig mode the sweep also repopulates the
    /// candidate list with the [`CANDIDATE_LIST`] most negative nonbasic
    /// columns, re-sorted into ascending column order so the partial
    /// iterations that follow keep the tie rule.
    fn price_full(&mut self, costs: &Costs, limit: usize, use_bland: bool) -> Option<usize> {
        self.sweep_reduced_costs(costs, limit);
        self.select_entering(use_bland)
    }

    /// The reduced costs of the columns below `limit` that can price
    /// negative: those the rows of `y`'s support reach, and the
    /// negative-cost ones.  Every other column's reduced cost is its cost,
    /// which is not negative.
    fn sweep_reduced_costs(&mut self, costs: &Costs, limit: usize) {
        let values = &costs.values;
        for &c in &costs.costed {
            if c < limit && values[c] < 0.0 {
                self.sweep.touch(c, || values[c]);
            }
        }
        let matrix = &self.form.matrix;
        self.sweep.add_rows(matrix, &self.y, &self.y_support, -1.0, limit, |c| values[c]);
    }

    /// Scans the swept columns in ascending order for the entering column
    /// and the candidate list (see [`Simplex::price_full`]), passing over
    /// forced columns — so the list never holds one either.  The list is
    /// ranked by [`f64::total_cmp`]: every entry is below `-EPS`, so the
    /// order is the numeric one, and no value can make the ranking panic.
    fn select_entering(&mut self, use_bland: bool) -> Option<usize> {
        self.cand.clear();
        self.minor = 0;
        let mut entering: Option<usize> = None;
        let mut best = -EPS;
        let (row_of, forced, cand) = (&self.row_of, &self.forced, &mut self.cand);
        self.sweep.drain(|c, d| {
            if row_of[c] == NONBASIC && d < -EPS && !is_set(forced, c) {
                if use_bland {
                    entering = Some(c);
                    return false;
                }
                if d < best {
                    best = d;
                    entering = Some(c);
                }
                cand.push(c);
            }
            true
        });
        if self.cand.len() > CANDIDATE_LIST {
            let reduced = &self.sweep.acc;
            self.cand.select_nth_unstable_by(CANDIDATE_LIST - 1, |&a, &b| {
                reduced[a].total_cmp(&reduced[b]).then(a.cmp(&b))
            });
            self.cand.truncate(CANDIDATE_LIST);
            self.cand.sort_unstable();
        }
        entering
    }

    /// The dual ratio row `α = ρᵀA` over the non-artificial columns, row by
    /// row over `ρ`'s support: the columns it reaches, each with the sum a
    /// column dot with `ρ` makes.  Every other column's `α` is zero.
    fn sweep_ratio_row(&mut self) {
        let (matrix, limit) = (&self.form.matrix, self.form.art_start);
        self.sweep.add_rows(matrix, &self.rho, &self.rho_support, 1.0, limit, |_| 0.0);
    }

    /// Scans the swept ratio row in ascending column order for the dual
    /// repair's admissible entering columns — nonbasic, not forced, `α_j <
    /// -DUAL_PIVOT_TOL` — with their reduced costs clamped at zero (a crash
    /// basis is not dual feasible; the primal phase that follows cleans that
    /// up).  Returns the largest `|α_j|` among them.
    fn dual_candidates(&mut self, costs: &[f64]) -> f64 {
        let form = self.form;
        self.candidates.clear();
        let mut max_abs_alpha = 0.0f64;
        let (row_of, forced, y) = (&self.row_of, &self.forced, &self.y);
        let candidates = &mut self.candidates;
        self.sweep.drain(|c, alpha| {
            if row_of[c] == NONBASIC && alpha < -DUAL_PIVOT_TOL && !is_set(forced, c) {
                let d = (costs[c] - form.view.column_dot(&form.matrix, c, y)).max(0.0);
                candidates.push((c, alpha, d));
                max_abs_alpha = max_abs_alpha.max(-alpha);
            }
            true
        });
        max_abs_alpha
    }

    /// Partial pricing: exact reduced costs for the candidate list only (one
    /// sparse column dot against the current multipliers per candidate).
    /// Entries that went basic or non-negative are pruned in place; returns
    /// the most negative survivor (the list is in ascending column order, so
    /// ties resolve to the lowest index exactly like the full sweep), or
    /// `None` when the list runs dry and a full sweep is due.
    fn price_candidates(&mut self, costs: &[f64], limit: usize) -> Option<usize> {
        self.minor += 1;
        let mut entering: Option<usize> = None;
        let mut best = -EPS;
        let mut keep = 0usize;
        for i in 0..self.cand.len() {
            let c = self.cand[i];
            if c >= limit || self.row_of[c] != NONBASIC {
                continue;
            }
            let d = costs[c] - self.form.view.column_dot(&self.form.matrix, c, &self.y);
            if d < -EPS {
                self.cand[keep] = c;
                keep += 1;
                if d < best {
                    best = d;
                    entering = Some(c);
                }
            }
        }
        self.cand.truncate(keep);
        entering
    }

    /// Applies the basis change `entering ↔ basis[leaving]` with step `t`,
    /// using the FTRAN result currently held in `self.work`: `x_B −= t·w` on
    /// the rows where `w ≠ 0`, then `entering` takes row `leaving` at value
    /// `t` and the update eta of `w` is appended.  Primal pivots `clamp` the
    /// numerical noise below zero in the same pass (the ratio test keeps true
    /// values ≥ 0); dual pivots keep values signed, as they legitimately
    /// drive entries through negative territory.  The pass is written as
    /// selects, with no branch per row.
    fn pivot(&mut self, entering: usize, leaving: usize, t: f64, clamp: bool) {
        for (x, &w) in self.xb.iter_mut().zip(self.work.iter()) {
            let moved = if t != 0.0 && w != 0.0 { *x - t * w } else { *x };
            *x = if clamp && moved < 0.0 { 0.0 } else { moved };
        }
        self.xb[leaving] = t;
        self.row_of[self.basis[leaving]] = NONBASIC;
        self.row_of[entering] = leaving;
        self.basis[leaving] = entering;
        self.fact.push(leaving, &self.work);
        self.updates_since_refactor += 1;
    }

    /// Tries to pivot basic artificial variables out of the basis, onto
    /// columns that may enter.  Rows where no such column has a nonzero
    /// transformed coefficient are redundant and keep their artificial, and
    /// so do forcing rows (see [`Simplex::start_crash`]).  After phase 1
    /// the swapped-in values are ~zero; on the warm path they can be any
    /// sign (an unclamped pivot), to be repaired by the dual pivots that
    /// follow.
    fn drive_out_artificials(&mut self) {
        let m = self.form.num_rows();
        for r in 0..m {
            if self.basis[r] < self.form.art_start || self.forcing[r] {
                continue;
            }
            // Row r of B⁻¹A over the non-artificial columns: rho = Bᵀ⁻¹ e_r.
            self.btran_unit_row(r);
            let replacement = (0..self.form.art_start).find(|&c| {
                self.row_of[c] == NONBASIC
                    && !is_set(&self.forced, c)
                    && self.form.view.column_dot(&self.form.matrix, c, &self.rho).abs() > 1e-7
            });
            if let Some(c) = replacement {
                self.work.iter_mut().for_each(|v| *v = 0.0);
                for (row, v) in self.form.view.column(&self.form.matrix, c) {
                    self.work[row] = v;
                }
                self.fact.ftran(&mut self.work);
                if self.work[r].abs() > 1e-9 {
                    let t = self.xb[r] / self.work[r];
                    self.pivot(c, r, t, false);
                }
            }
        }
    }

    /// The optimum at the current basis.  Called only once phase 2's pricing
    /// found no entering column, so `y` holds that basis's multipliers: they
    /// become the solution's duals, turned back into the program's own row
    /// signs and direction.
    fn solution(&self, lp: &LinearProgram) -> (Solution, Basis) {
        let mut values = vec![0.0; self.form.num_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.form.num_vars {
                values[b] = self.xb[r].max(0.0);
            }
        }
        let objective_value = lp.objective_value(&values);
        let direction = match lp.direction() {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        let duals = self
            .y
            .iter()
            .zip(&self.form.flipped)
            .map(|(&y, &flipped)| if flipped { -direction * y } else { direction * y })
            .collect();
        let mut stats = self.stats;
        stats.iterations = stats.phase1_iterations + stats.phase2_iterations;
        let basis = Basis { cols: self.basis.clone(), total_cols: self.form.total_cols };
        (Solution { values, objective_value, duals, stats }, basis)
    }

    /// Finishes a seeded start: dual repair, then phase 2.  Returns the
    /// optimum when both succeed and the point passes the feasibility
    /// double-check; otherwise `None`, with the attempt's work in
    /// `self.stats`.
    fn finish_seeded(
        &mut self,
        lp: &LinearProgram,
        costs: &Costs,
        max_iterations: usize,
    ) -> Option<(Solution, Basis)> {
        let repair_started = Instant::now();
        let repaired = self.dual_repair(costs);
        self.stats.phase1_seconds += repair_started.elapsed().as_secs_f64();
        if matches!(repaired, Ok(true)) {
            let mut pivots = 0usize;
            let phase2_started = Instant::now();
            let outcome = self.optimize(costs, self.form.art_start, max_iterations, &mut pivots);
            self.stats.phase2_seconds += phase2_started.elapsed().as_secs_f64();
            self.stats.phase2_iterations = pivots;
            if matches!(outcome, Ok(Outcome::Optimal)) {
                let (solution, basis) = self.solution(lp);
                if lp.is_feasible(&solution.values, 1e-6) {
                    return Some((solution, basis));
                }
            }
        }
        self.stats.iterations = self.stats.phase1_iterations + self.stats.phase2_iterations;
        None
    }
}

/// A cost vector over the standard form's columns, and the columns it
/// charges (nonzero cost), ascending: `c_B` is seeded from those alone.
struct Costs {
    values: Vec<f64>,
    costed: Vec<usize>,
}

/// Builds the phase-2 cost vector (original objective, negated when
/// maximizing; zeros on slack and artificial columns).
fn phase2_costs(lp: &LinearProgram, form: &StandardForm) -> Costs {
    let sign = match lp.direction() {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    let mut values = vec![0.0; form.total_cols];
    let mut costed = Vec::new();
    for (c, &coeff) in lp.objective().iter().enumerate() {
        values[c] = sign * coeff;
        if coeff != 0.0 {
            costed.push(c);
        }
    }
    Costs { values, costed }
}

/// Solves a linear program with the sparse revised simplex (cold start).
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    solve_with_basis(lp, None).map(|(solution, _)| solution)
}

/// Solves a linear program with the sparse revised simplex, optionally warm
/// starting from the basis of a previous solve of a program with the **same
/// matrix** (same rows, columns and coefficients; only the right-hand side
/// may differ).  Returns the solution together with the final basis, which
/// can seed the next solve in a series.
///
/// An unusable warm basis (wrong shape, singular, or too widely primal
/// infeasible under the new right-hand side) silently falls back to a cold
/// solve — `stats.warm_started` reports which path ran.
pub fn solve_with_basis(
    lp: &LinearProgram,
    warm: Option<&Basis>,
) -> Result<(Solution, Basis), LpError> {
    if lp.num_vars() == 0 {
        return Err(LpError::Empty);
    }
    let form = StandardForm::build(lp);
    solve_on_form(lp, &form, warm, &[])
}

/// Test hook: like [`solve_with_basis`] but with partial pricing disabled, so
/// every iteration runs the full Dantzig sweep.  The crate's proptests pin
/// the partial-pricing solver against this reference path: same statuses,
/// objectives within tolerance, warm and cold.
#[cfg(test)]
pub(crate) fn solve_with_basis_full_pricing(
    lp: &LinearProgram,
    warm: Option<&Basis>,
) -> Result<(Solution, Basis), LpError> {
    if lp.num_vars() == 0 {
        return Err(LpError::Empty);
    }
    let form = StandardForm::build(lp);
    solve_on_form_with_pricing(lp, &form, warm, &[], false)
}

/// Runs the revised simplex on an already-built standard form whose
/// right-hand side must mirror `lp` (the template path, which rewrites it in
/// place instead of rebuilding the form per solve).  Starts are tried in
/// order: the `warm` basis, the crash basis seeded with `hint` (the previous
/// optimum's structural values; empty = none), two-phase.
pub(crate) fn solve_on_form(
    lp: &LinearProgram,
    form: &StandardForm,
    warm: Option<&Basis>,
    hint: &[f64],
) -> Result<(Solution, Basis), LpError> {
    solve_on_form_with_pricing(lp, form, warm, hint, true)
}

/// [`solve_on_form`] with an explicit pricing strategy (`partial_pricing:
/// false` forces the full sweep on every iteration; see
/// [`solve_with_basis_full_pricing`]).
fn solve_on_form_with_pricing(
    lp: &LinearProgram,
    form: &StandardForm,
    warm: Option<&Basis>,
    hint: &[f64],
    partial_pricing: bool,
) -> Result<(Solution, Basis), LpError> {
    let max_iterations = (50 * (form.num_rows() + form.total_cols)).max(1000);
    let costs = phase2_costs(lp, form);
    // Work spent in abandoned warm/crash attempts, folded into the eventual
    // solution's stats so series reporting counts what was actually done.
    let mut abandoned = SolveStats::default();
    let mut simplex = Simplex::new(form, partial_pricing);

    // Seeded starts skip phase 1: dual pivots repair the start (the warm
    // basis under the new right-hand side, or what the crash lift left),
    // then phase 2 runs from it.  Both yield a basis with no artificial at a
    // nonzero value, so phase 2 from them is sound; any trouble — repair
    // gives up, iteration trouble, numerics, a point that fails the
    // feasibility double-check — falls through to the next start, and only
    // the two-phase solve below may declare infeasibility or unboundedness.
    // The crash runs on programs with artificials only: without them the
    // all-slack basis is already a feasible start.  A start that does not
    // take (`false`) leaves no work to count.
    let has_artificials = form.total_cols > form.art_start;
    for crash in [false, true] {
        let started = if crash {
            has_artificials && simplex.start_crash(hint)
        } else {
            warm.is_some_and(|basis| simplex.start_warm(basis))
        };
        if !started {
            continue;
        }
        if let Some((mut solution, basis)) = simplex.finish_seeded(lp, &costs, max_iterations) {
            solution.stats.absorb(&abandoned);
            return Ok((solution, basis));
        }
        abandoned.absorb(&simplex.stats);
    }

    simplex.reset();
    // ---- Phase 1: minimize the sum of the artificial variables. ----
    if form.total_cols > form.art_start {
        let mut values = vec![0.0; form.total_cols];
        values[form.art_start..].fill(1.0);
        let phase1_costs = Costs { values, costed: (form.art_start..form.total_cols).collect() };
        // Phase 1 always prices fully.  Its cost vector (the artificial sum)
        // is massively degenerate — most reduced costs tie — and a candidate
        // list built from one sweep keeps steering into near-zero-progress
        // pivots: on the desensitization LPs (`≥` rows force a real phase 1)
        // partial pricing was measured to inflate phase-1 pivots ~6×, dwarfing
        // the per-iteration sweep savings.  Phase 2 re-enables the list.
        simplex.partial_pricing = false;
        let mut pivots = 0usize;
        let phase1_started = Instant::now();
        let outcome =
            simplex.optimize(&phase1_costs, form.total_cols, max_iterations, &mut pivots)?;
        simplex.partial_pricing = partial_pricing;
        simplex.stats.phase1_iterations = pivots;
        if matches!(outcome, Outcome::Unbounded) {
            // Phase 1 is bounded below by zero; unbounded means breakdown.
            return Err(LpError::Numerical);
        }
        simplex.stats.phase1_objective = simplex.objective(&phase1_costs);
        if simplex.stats.phase1_objective > 1e-6 {
            return Err(LpError::Infeasible);
        }
        simplex.drive_out_artificials();
        simplex.stats.phase1_seconds += phase1_started.elapsed().as_secs_f64();
    }
    // ---- Phase 2: minimize the original objective. ----
    let mut pivots = 0usize;
    let phase2_started = Instant::now();
    let outcome = simplex.optimize(&costs, form.art_start, max_iterations, &mut pivots)?;
    simplex.stats.phase2_seconds += phase2_started.elapsed().as_secs_f64();
    simplex.stats.phase2_iterations = pivots;
    if matches!(outcome, Outcome::Unbounded) {
        return Err(LpError::Unbounded);
    }
    let (mut solution, basis) = simplex.solution(lp);
    solution.stats.absorb(&abandoned);
    Ok((solution, basis))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Direction, LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn matches_dense_on_the_textbook_maximization() {
        let mut lp = LinearProgram::new(Direction::Maximize);
        let x = lp.add_variable(3.0);
        let y = lp.add_variable(5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 36.0);
        assert_close(sol.values[x], 2.0);
        assert_close(sol.values[y], 6.0);
        assert!(sol.stats.phase2_iterations > 0);
        assert!(!sol.stats.warm_started);
    }

    #[test]
    fn handles_equalities_geq_and_negative_rhs() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(2.0);
        let y = lp.add_variable(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::LessEq, -4.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 20.0);
        assert!(sol.stats.phase1_iterations > 0);
        assert!((sol.stats.phase1_objective).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        assert!(matches!(solve(&lp), Err(LpError::Infeasible)));

        let mut lp = LinearProgram::new(Direction::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 1.0);
        assert!(matches!(solve(&lp), Err(LpError::Unbounded)));

        let lp = LinearProgram::new(Direction::Minimize);
        assert!(matches!(solve(&lp), Err(LpError::Empty)));
    }

    #[test]
    fn degenerate_and_redundant_programs_terminate() {
        let mut lp = LinearProgram::new(Direction::Maximize);
        let x = lp.add_variable(10.0);
        let y = lp.add_variable(-57.0);
        let z = lp.add_variable(-9.0);
        let w = lp.add_variable(-24.0);
        lp.add_constraint(vec![(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 1.0);

        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Equal, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 2.0);
        assert_close(sol.values[x], 1.0);
    }

    #[test]
    fn min_mlu_toy_instance() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let f1 = lp.add_variable(0.0);
        let f2 = lp.add_variable(0.0);
        lp.add_constraint(vec![(f1, 1.0), (f2, 1.0)], Relation::Equal, 3.0);
        lp.add_constraint(vec![(f1, 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f2, 1.0), (theta, -2.0)], Relation::LessEq, 0.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 1.0);
        assert_close(sol.values[f1], 1.0);
        assert_close(sol.values[f2], 2.0);
    }

    /// Two pairs with two paths each over three links (path flows, θ first).
    fn two_pair_program() -> LinearProgram {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let f: Vec<usize> = (0..4).map(|_| lp.add_variable(0.0)).collect();
        lp.add_constraint(vec![(f[0], 1.0), (f[1], 1.0)], Relation::Equal, 4.0);
        lp.add_constraint(vec![(f[2], 1.0), (f[3], 1.0)], Relation::Equal, 6.0);
        lp.add_constraint(vec![(f[0], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f[1], 1.0), (f[2], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f[3], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp
    }

    #[test]
    fn crash_takes_the_lowest_index_column_unless_a_hint_says_otherwise() {
        let lp = two_pair_program();
        let form = StandardForm::build(&lp);
        let equality_columns = |hint: &[f64]| -> Vec<usize> {
            let mut simplex = Simplex::new(&form, true);
            assert!(simplex.start_crash(hint), "TE-shaped");
            let mut cols = simplex.basis;
            cols.retain(|&c| (1..=4).contains(&c));
            cols.sort_unstable();
            cols
        };
        // No hint, an all-zero hint and an all-ties hint: the first path of
        // each pair, as before hints existed.
        assert_eq!(equality_columns(&[]), vec![1, 3]);
        assert_eq!(equality_columns(&[0.0; 5]), vec![1, 3]);
        assert_eq!(equality_columns(&[9.0, 2.0, 2.0, 3.0, 3.0]), vec![1, 3]);
        // The previous optimum carried pair 0 on its second path.
        assert_eq!(equality_columns(&[3.0, 1.0, 3.0, 3.0, 3.0]), vec![2, 3]);
        // Whatever the crash, the optimum is the same.
        for hint in [&[][..], &[3.0, 1.0, 3.0, 0.0, 6.0]] {
            let (sol, _) = solve_on_form(&lp, &form, None, hint).unwrap();
            assert_close(sol.objective_value, 10.0 / 3.0);
        }
    }

    #[test]
    fn warm_start_reuses_the_previous_basis() {
        // Solve, perturb the RHS, re-solve warm: the result must match a cold
        // solve and the warm path must actually run.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let f1 = lp.add_variable(0.0);
        let f2 = lp.add_variable(0.0);
        lp.add_constraint(vec![(f1, 1.0), (f2, 1.0)], Relation::Equal, 3.0);
        lp.add_constraint(vec![(f1, 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f2, 1.0), (theta, -2.0)], Relation::LessEq, 0.0);
        let (_, basis) = solve_with_basis(&lp, None).unwrap();

        let mut perturbed = LinearProgram::new(Direction::Minimize);
        let theta = perturbed.add_variable(1.0);
        let f1 = perturbed.add_variable(0.0);
        let f2 = perturbed.add_variable(0.0);
        perturbed.add_constraint(vec![(f1, 1.0), (f2, 1.0)], Relation::Equal, 4.5);
        perturbed.add_constraint(vec![(f1, 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        perturbed.add_constraint(vec![(f2, 1.0), (theta, -2.0)], Relation::LessEq, 0.0);
        let (warm_sol, _) = solve_with_basis(&perturbed, Some(&basis)).unwrap();
        let cold_sol = solve(&perturbed).unwrap();
        assert_close(warm_sol.objective_value, cold_sol.objective_value);
        assert_close(warm_sol.objective_value, 1.5);
        assert!(warm_sol.stats.warm_started, "warm basis must be accepted here");
        assert_eq!(warm_sol.stats.phase1_iterations, 0);
    }

    #[test]
    fn mismatched_warm_basis_falls_back_to_cold() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        let (_, basis) = solve_with_basis(&lp, None).unwrap();

        let mut other = LinearProgram::new(Direction::Minimize);
        let a = other.add_variable(1.0);
        let b = other.add_variable(1.0);
        other.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::GreaterEq, 4.0);
        let (sol, _) = solve_with_basis(&other, Some(&basis)).unwrap();
        assert_close(sol.objective_value, 4.0);
        assert!(!sol.stats.warm_started);
    }

    #[test]
    fn singular_warm_basis_falls_back_to_cold() {
        // f0 = e_0 + e_2 is the sum of row 0's artificial (column 8) and row
        // 2's slack (column 5): the seed cannot be inverted, and is not
        // patched up — the solve starts over.
        let lp = two_pair_program();
        let seed = Basis { cols: vec![1, 8, 5, 6, 7], total_cols: 10 };
        let (sol, _) = solve_with_basis(&lp, Some(&seed)).unwrap();
        assert_close(sol.objective_value, 10.0 / 3.0);
        assert!(!sol.stats.warm_started);
    }

    /// A `≥` chain large enough to force several reinversions.
    fn chain_program() -> LinearProgram {
        let n = 300;
        let mut lp = LinearProgram::new(Direction::Minimize);
        let vars: Vec<usize> = (0..n).map(|i| lp.add_variable(1.0 + (i % 7) as f64)).collect();
        for i in 0..n {
            let mut coeffs = vec![(vars[i], 1.0)];
            if i + 1 < n {
                coeffs.push((vars[i + 1], 0.5));
            }
            lp.add_constraint(coeffs, Relation::GreaterEq, 1.0);
        }
        lp
    }

    /// FNV-1a over the little-endian bytes of each value's bit pattern.
    fn fnv_bits(values: &[f64]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Pivot counts per phase, reinversions, the objective's bits and an FNV
    /// hash over the bits of the optimum, recorded before the eta file
    /// became one flat arena: the crash path (two pairs) and the two-phase
    /// path (the `≥` chain: phase-1 BTRANs of a dense cost vector, several
    /// reinversions) must reproduce them.
    #[test]
    fn solve_reproduces_the_recorded_bits() {
        let record = |lp: &LinearProgram| {
            let sol = solve(lp).unwrap();
            let s = &sol.stats;
            let row = (s.phase1_iterations, s.phase2_iterations, s.refactorizations);
            (row, sol.objective_value.to_bits(), fnv_bits(&sol.values))
        };
        assert_eq!(
            record(&two_pair_program()),
            ((1, 2, 1), 0x400a_aaaa_aaaa_aaab, 0x536a_394b_fcba_6abd)
        );
        assert_eq!(
            record(&chain_program()),
            ((300, 42, 4), 0x4086_7740_0000_0000, 0x0ad1_37cb_eb65_926a)
        );
    }

    #[test]
    fn refactorization_keeps_long_solves_accurate() {
        let lp = chain_program();
        let sol = solve(&lp).unwrap();
        assert!(lp.is_feasible(&sol.values, 1e-6));
        assert!(sol.stats.refactorizations > 0, "expected at least one reinversion");
        let dense = crate::simplex::solve(&lp).unwrap();
        assert_close(sol.objective_value, dense.objective_value);
    }

    /// The eta file the arena replaced — one `Vec` of `(row, value)` entries
    /// per eta — and its FTRAN and BTRAN, kept as the reference the arena
    /// must reproduce to the bit.
    struct ReferenceEta {
        pivot: usize,
        diag: f64,
        entries: Vec<(usize, f64)>,
    }

    impl ReferenceEta {
        /// The eta pivoting `w` on row `pivot`, entries in `support` order.
        fn new(pivot: usize, w: &[f64], support: impl Iterator<Item = usize>) -> ReferenceEta {
            let inv = 1.0 / w[pivot];
            let entries =
                support.filter(|&i| i != pivot && w[i] != 0.0).map(|i| (i, -w[i] * inv)).collect();
            ReferenceEta { pivot, diag: inv, entries }
        }
    }

    fn reference_ftran(etas: &[ReferenceEta], x: &mut [f64]) {
        for eta in etas {
            let t = x[eta.pivot];
            if t != 0.0 {
                x[eta.pivot] = eta.diag * t;
                for &(i, v) in &eta.entries {
                    x[i] += v * t;
                }
            }
        }
    }

    fn reference_btran(etas: &[ReferenceEta], y: &mut [f64]) {
        for eta in etas.iter().rev() {
            let mut acc = eta.diag * y[eta.pivot];
            for &(i, v) in &eta.entries {
                acc += v * y[i];
            }
            y[eta.pivot] = acc;
        }
    }

    /// One eta to append: `(pivot, share of nonzero entries, per-entry
    /// draw, entry values)`.
    type EtaDraw = (usize, f64, Vec<f64>, Vec<f64>);

    fn eta_draws(
        rows: usize,
        count: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<EtaDraw>> {
        let draw = (
            0..rows,
            0.0f64..1.0,
            collection::vec(0.0f64..1.0, rows),
            collection::vec(-2.0f64..2.0, rows),
        );
        collection::vec(draw, count)
    }

    /// The column an eta pivots: about `share` of its entries nonzero, the
    /// pivot entry at least one in magnitude (entries stay at most 2).
    fn drawn_column((pivot, share, draw, values): &EtaDraw) -> Vec<f64> {
        let mut w: Vec<f64> =
            draw.iter().zip(values).map(|(&d, &v)| if d < *share { v } else { 0.0 }).collect();
        w[*pivot] = 1.0 + values[*pivot].abs();
        w
    }

    /// An input vector with one nonzero, three, or all of them.
    fn drawn_input((kind, at, values): &(usize, usize, Vec<f64>)) -> Vec<f64> {
        let rows = values.len();
        let mut x = vec![0.0; rows];
        match kind {
            0 => x[*at] = values[*at],
            1 => {
                for i in [*at, (at + rows / 3) % rows, (at + 2 * rows / 3) % rows] {
                    x[i] = values[i];
                }
            }
            _ => x.copy_from_slice(values),
        }
        x
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A reinversion's sparse etas (supports in arbitrary order, scaling
        /// etas among them) followed by update etas, each dense or sparse by
        /// its own density: the arena's FTRAN, event-driven FTRAN and BTRAN
        /// — live-row walk on the sparse inputs, full walk on the dense ones
        /// — equal the per-eta-vector reference bit for bit (`+0 == -0`).
        #[test]
        fn arena_reproduces_the_reference_eta_file(
            (base, updates, inputs) in (2usize..24).prop_flat_map(|rows| (
                eta_draws(rows, 0..rows + 1),
                eta_draws(rows, 0..12),
                collection::vec((0usize..3, 0..rows, collection::vec(-2.0f64..2.0, rows)), 6),
            )),
        ) {
            let rows = inputs[0].2.len();
            let mut arena = EtaFile::with_rows(rows);
            let mut reference = Vec::new();
            let mut eta_of_row = vec![usize::MAX; rows];
            for draw in &base {
                let (pivot, share, order, _) = draw;
                if eta_of_row[*pivot] != usize::MAX {
                    continue; // a reinversion pivots each row once
                }
                let mut w = drawn_column(draw);
                if *share < 0.1 {
                    reference.push(ReferenceEta::new(*pivot, &w, std::iter::empty()));
                    arena.push_diagonal(*pivot, w[*pivot]);
                } else {
                    let mut support: Vec<usize> = (0..rows).filter(|&i| w[i] != 0.0).collect();
                    support.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
                    reference.push(ReferenceEta::new(*pivot, &w, support.iter().copied()));
                    arena.push_from(*pivot, &mut w, &support);
                    prop_assert!(w.iter().all(|&v| v == 0.0), "push_from drains its support");
                }
                eta_of_row[*pivot] = arena.len() - 1;
            }
            let mut heap = BinaryHeap::new();
            for input in &inputs {
                let mut want = drawn_input(input);
                let mut got = want.clone();
                let mut touched: Vec<usize> = (0..rows).filter(|&i| got[i] != 0.0).collect();
                reference_ftran(&reference, &mut want);
                arena.ftran_sparse(&mut got, &mut touched, &eta_of_row, &mut heap);
                prop_assert_eq!(&got, &want);
                prop_assert!((0..rows).all(|i| got[i] == 0.0 || touched.contains(&i)));
            }
            arena.begin_updates();
            for draw in &updates {
                let w = drawn_column(draw);
                reference.push(ReferenceEta::new(draw.0, &w, 0..rows));
                arena.push(draw.0, &w);
            }
            prop_assert_eq!(arena.nnz, reference.iter().map(|e| e.entries.len() + 1).sum::<usize>());
            for input in &inputs {
                let x = drawn_input(input);
                let (mut want, mut got) = (x.clone(), x.clone());
                reference_ftran(&reference, &mut want);
                arena.ftran(&mut got);
                prop_assert_eq!(&got, &want);
                let (mut want, mut got) = (x.clone(), x);
                let mut support: Vec<u32> = (0..rows as u32).filter(|&i| got[i as usize] != 0.0).collect();
                reference_btran(&reference, &mut want);
                arena.btran(&mut got, &mut support);
                prop_assert_eq!(&got, &want);
                prop_assert!(support.windows(2).all(|w| w[0] < w[1]), "ascending, no repeats");
                prop_assert!((0..rows).all(|i| got[i] == 0.0 || support.contains(&(i as u32))));
            }
        }
    }

    /// Whether each column may enter: the forcing-row rule restated over
    /// the dense rows of the form.  A column is barred when some equality
    /// row with right-hand side 0 holds it with a nonzero coefficient and
    /// every other nonzero structural coefficient of that row has its sign.
    fn dense_admissible(form: &StandardForm) -> Vec<bool> {
        let mut admissible = vec![true; form.total_cols];
        for r in 0..form.num_rows() {
            if form.relations[r] != Relation::Equal || form.rhs[r] != 0.0 {
                continue;
            }
            let mut row = vec![0.0; form.num_vars];
            let (cols, vals) = form.matrix.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c < form.num_vars {
                    row[c] = v;
                }
            }
            let (positive, negative) = (row.iter().any(|&v| v > 0.0), row.iter().any(|&v| v < 0.0));
            let mixed = row.iter().any(|v| v.is_nan()) || (positive && negative);
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 && !mixed {
                    admissible[c] = false;
                }
            }
        }
        admissible
    }

    /// The full pricing sweep before it ran over the support of `y`: every
    /// reduced cost below `limit` by one pass over all rows, then a scan of
    /// every admissible column.  Returns the entering column, the candidate
    /// list and the reduced costs.
    fn dense_price_full(
        s: &Simplex,
        costs: &[f64],
        limit: usize,
        use_bland: bool,
    ) -> (Option<usize>, Vec<usize>, Vec<f64>) {
        let admissible = dense_admissible(s.form);
        let mut reduced = costs[..limit].to_vec();
        for r in 0..s.form.num_rows() {
            let yr = s.y[r];
            if yr != 0.0 {
                let (cols, vals) = s.form.matrix.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if c < limit {
                        reduced[c] -= yr * v;
                    }
                }
            }
        }
        let mut cand = Vec::new();
        let mut entering: Option<usize> = None;
        let mut best = -EPS;
        for c in 0..limit {
            if s.row_of[c] != NONBASIC || !admissible[c] {
                continue;
            }
            let d = reduced[c];
            if d < -EPS {
                if use_bland {
                    return (Some(c), cand, reduced);
                }
                if d < best {
                    best = d;
                    entering = Some(c);
                }
                cand.push(c);
            }
        }
        if cand.len() > CANDIDATE_LIST {
            cand.select_nth_unstable_by(CANDIDATE_LIST - 1, |&a, &b| {
                reduced[a].partial_cmp(&reduced[b]).expect("finite").then(a.cmp(&b))
            });
            cand.truncate(CANDIDATE_LIST);
            cand.sort_unstable();
        }
        (entering, cand, reduced)
    }

    /// The dual ratio row before it ran over the support of `ρ`: one column
    /// dot per nonbasic non-artificial column.  Returns the admissible
    /// candidates, the largest `|α|` among them, and every non-artificial
    /// column's `α`.
    fn dense_dual_candidates(
        s: &Simplex,
        costs: &[f64],
    ) -> (Vec<(usize, f64, f64)>, f64, Vec<f64>) {
        let (matrix, view) = (&s.form.matrix, &s.form.view);
        let alphas: Vec<f64> =
            (0..s.form.art_start).map(|c| view.column_dot(matrix, c, &s.rho)).collect();
        let admissible = dense_admissible(s.form);
        let mut candidates = Vec::new();
        let mut max_abs_alpha = 0.0f64;
        for (c, &alpha) in alphas.iter().enumerate() {
            if s.row_of[c] == NONBASIC && alpha < -DUAL_PIVOT_TOL && admissible[c] {
                let d = (costs[c] - view.column_dot(matrix, c, &s.y)).max(0.0);
                candidates.push((c, alpha, d));
                max_abs_alpha = max_abs_alpha.max(-alpha);
            }
        }
        (candidates, max_abs_alpha, alphas)
    }

    /// Uniform draws consumed in order: one strategy value describes a whole
    /// random program and the state it is priced in.
    struct Draws(std::vec::IntoIter<f64>);

    impl Draws {
        fn unit(&mut self) -> f64 {
            self.0.next().expect("enough draws")
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f64) as usize).min(n - 1)
        }

        /// A value in `[-2, 2)`, exactly zero one time in ten.
        fn value(&mut self) -> f64 {
            if self.unit() < 0.1 {
                0.0
            } else {
                4.0 * self.unit() - 2.0
            }
        }
    }

    /// A sparse program of `rows × vars` (every relation, right-hand sides of
    /// both signs, explicit zero coefficients) in standard form.
    fn drawn_form(rows: usize, vars: usize, draws: &mut Draws) -> StandardForm {
        let mut lp = LinearProgram::new(Direction::Minimize);
        for _ in 0..vars {
            lp.add_variable(0.0);
        }
        for _ in 0..rows {
            let mut coeffs = Vec::new();
            for c in 0..vars {
                if draws.unit() < 0.3 {
                    coeffs.push((c, draws.value()));
                }
            }
            let relation = [Relation::LessEq, Relation::GreaterEq, Relation::Equal][draws.below(3)];
            let rhs = draws.value();
            lp.add_constraint(coeffs, relation, rhs);
        }
        StandardForm::build(&lp)
    }

    /// A sparse vector over `rows` and its support: one nonzero, three, or
    /// (`kind` 2) more than a quarter of the rows; some entries inside the
    /// support and some outside it are `-0.0`.
    fn drawn_sparse(rows: usize, kind: usize, draws: &mut Draws) -> (Vec<f64>, Vec<u32>) {
        let mut v = vec![0.0; rows];
        let mut support = Vec::new();
        let picks = match kind {
            0 => 1,
            1 => 3.min(rows),
            _ => rows / 4 + 1 + draws.below(rows - rows / 4),
        };
        let mut order: Vec<usize> = (0..rows).collect();
        for i in 0..picks {
            order.swap(i, i + draws.below(rows - i));
            let r = order[i];
            v[r] = if draws.unit() < 0.15 { -0.0 } else { draws.value() };
            support.push(r as u32);
        }
        for r in order[picks..].iter().copied() {
            if draws.unit() < 0.1 {
                v[r] = -0.0;
            }
        }
        support.sort_unstable();
        (v, support)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sparse programs, bases and multiplier vectors (1, 3 and
        /// more than m/4 nonzeros, `-0.0` entries, negative-cost columns,
        /// phase-1 and phase-2 limits): the sweep over the support of `y`
        /// picks the same entering column and candidate list as the dense
        /// sweep, Dantzig and Bland, with bit-equal reduced costs; the ratio
        /// row over the support of `ρ` yields the column dots' alphas to the
        /// bit, and the same candidates.  Zero right-hand sides are drawn
        /// one time in ten, so forcing rows occur, and both passes leave
        /// their columns out.
        #[test]
        fn support_sweeps_reproduce_the_dense_passes(
            (rows, vars, kinds, draws) in (2usize..24, 1usize..100).prop_flat_map(|(rows, vars)| (
                Just(rows),
                Just(vars),
                (0usize..3, 0usize..3),
                collection::vec(0.0f64..1.0, 16 * rows * (vars + 4)),
            )),
        ) {
            let mut draws = Draws(draws.into_iter());
            let form = drawn_form(rows, vars, &mut draws);
            let n = form.total_cols;
            let values: Vec<f64> = (0..n)
                .map(|_| match draws.below(5) {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    3 => -2.0 * draws.unit() - EPS,
                    _ => 2.0 * draws.unit(),
                })
                .collect();
            let costed = (0..n).filter(|&c| values[c] != 0.0).collect();
            let costs = Costs { values, costed };
            let mut s = Simplex::new(&form, true);
            // Structural columns enter on about half the rows.
            for r in 0..rows {
                let c = draws.below(form.num_vars);
                if draws.unit() < 0.5 && s.row_of[c] == NONBASIC {
                    s.row_of[s.basis[r]] = NONBASIC;
                    s.row_of[c] = r;
                    s.basis[r] = c;
                }
            }
            (s.y, s.y_support) = drawn_sparse(rows, kinds.0, &mut draws);
            (s.rho, s.rho_support) = drawn_sparse(rows, kinds.1, &mut draws);
            let values = &costs.values;
            for limit in [form.art_start, n] {
                for use_bland in [false, true] {
                    let (want, want_cand, want_reduced) =
                        dense_price_full(&s, values, limit, use_bland);
                    s.sweep_reduced_costs(&costs, limit);
                    for c in 0..limit {
                        let got = if s.sweep.is_marked(c) { s.sweep.acc[c] } else { values[c] };
                        prop_assert_eq!(got.to_bits(), want_reduced[c].to_bits(), "column {}", c);
                    }
                    prop_assert_eq!(s.select_entering(use_bland), want);
                    prop_assert_eq!(&s.cand, &want_cand);
                    prop_assert!(s.sweep.marks.iter().all(|&w| w == 0), "drained");
                }
            }
            let (want, want_max, want_alphas) = dense_dual_candidates(&s, values);
            s.sweep_ratio_row();
            for (c, alpha) in want_alphas.iter().enumerate() {
                let got = if s.sweep.is_marked(c) { s.sweep.acc[c] } else { 0.0 };
                prop_assert_eq!(got.to_bits(), alpha.to_bits(), "column {}", c);
            }
            let got_max = s.dual_candidates(values);
            let bits = |list: &[(usize, f64, f64)]| -> Vec<(usize, u64, u64)> {
                list.iter().map(|&(c, a, d)| (c, a.to_bits(), d.to_bits())).collect()
            };
            prop_assert_eq!(bits(&s.candidates), bits(&want));
            prop_assert_eq!(got_max.to_bits(), want_max.to_bits());
        }
    }

    /// A NaN multiplier makes NaN reduced costs: pricing neither panics nor
    /// enters or ranks those columns, and still fills the candidate list.
    #[test]
    fn pricing_skips_nan_reduced_costs() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let vars: Vec<usize> = (0..40).map(|_| lp.add_variable(-1.0)).collect();
        lp.add_constraint(vars[..4].iter().map(|&v| (v, 1.0)).collect(), Relation::LessEq, 1.0);
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Relation::LessEq, 10.0);
        let form = StandardForm::build(&lp);
        let costs = phase2_costs(&lp, &form);
        let mut s = Simplex::new(&form, true);
        s.y[0] = f64::NAN;
        s.y_support = vec![0];
        assert_eq!(s.price_full(&costs, form.art_start, true), Some(4));
        assert_eq!(s.price_full(&costs, form.art_start, false), Some(4));
        assert_eq!(s.cand.len(), CANDIDATE_LIST);
        assert!(s.cand.iter().all(|&c| (4..40).contains(&c)), "{:?}", s.cand);
    }
}
