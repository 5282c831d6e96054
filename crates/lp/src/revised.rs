//! Sparse revised simplex with an eta-file basis and warm starts.
//!
//! Where the dense tableau (`simplex.rs`, the `cfg(test)` oracle) rewrites an
//! `(m+1)×(n+m+1)` array on every pivot, this solver keeps the constraint
//! matrix in CSR ([`crate::sparse`]) and represents the basis inverse as a
//! product of eta matrices (product-form of the inverse, PFI):
//!
//! * **BTRAN** (`y = Bᵀ⁻¹ c_B`) prices the simplex multipliers, then reduced
//!   costs are computed against the *sparse columns only*;
//! * **FTRAN** (`w = B⁻¹ a_q`) transforms just the entering column;
//! * each pivot appends one eta vector instead of touching every row, and the
//!   factorization is rebuilt from the basis columns ("reinversion") every
//!   [`REFACTOR_INTERVAL`] updates, which also restores numerical accuracy.
//!
//! TE min-MLU programs are extremely sparse (a path touches a handful of
//! links), so per-iteration work drops from `O(m·n)` to roughly
//! `O(nnz + m + |eta file|)`.  Phase-2 pricing is **partial**: a candidate
//! list of the [`CANDIDATE_LIST`] most attractive columns from the last full
//! sweep is re-priced exactly (one sparse dot per column) on every iteration,
//! and the full `d = c − Aᵀy` CSR sweep only runs when the list goes dry or
//! [`MINOR_LIMIT`] minor iterations have passed — warm re-solves that pivot a
//! handful of times touch a handful of columns instead of all of them.
//! Optimality is only ever declared by a clean full sweep, so partial pricing
//! changes the pivot path, never the answer; phase 1 and Bland mode always
//! price fully (see [`MINOR_LIMIT`] and the phase-1 comment).  Reinversion
//! is event-driven (singleton columns pivot without etas, sparse FTRANs only
//! visit the etas they excite), so the work scales with the nonzeros actually
//! involved.
//!
//! Cold solves avoid phase 1 where the shape allows it: a **crash basis**
//! assigns each equality row a structural column exclusive to it (a path's
//! flow lives in exactly one conservation row), a **lift step** enters the
//! min-max variable (θ) at the worst-ratio row — which makes the whole crash
//! point feasible in one pivot — and dual-simplex repair mops up whatever is
//! left.  When the crash does not fit (`≥` rows, no exclusive columns) the
//! classic two-phase method runs instead.  A series solve may pass the
//! previous optimum's values as a **crash hint**: each equality row then
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

/// One eta matrix: identity except for column `pivot`.
#[derive(Debug, Clone)]
struct Eta {
    pivot: usize,
    /// Diagonal entry `1 / w[pivot]`.
    diag: f64,
    /// Off-diagonal entries `(row, -w[row] / w[pivot])`.
    entries: Vec<(usize, f64)>,
}

/// Product-form factorization of the basis inverse: `B⁻¹ = E_k · … · E_1`.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    etas: Vec<Eta>,
    nnz: usize,
}

impl EtaFile {
    /// `x := B⁻¹ x` (apply etas oldest-first).
    fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let t = x[eta.pivot];
            if t != 0.0 {
                x[eta.pivot] = eta.diag * t;
                for &(i, v) in &eta.entries {
                    x[i] += v * t;
                }
            }
        }
    }

    /// `y := B⁻ᵀ y` (apply transposed etas newest-first).
    fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut acc = eta.diag * y[eta.pivot];
            for &(i, v) in &eta.entries {
                acc += v * y[i];
            }
            y[eta.pivot] = acc;
        }
    }

    /// `x := B⁻¹ x` for a *sparse* `x`, event-driven: instead of walking the
    /// whole file (O(#etas) even when almost all are no-ops), only etas whose
    /// pivot row actually carries value are applied, discovered through
    /// `eta_of_row` (row → file index of the eta pivoting there, `usize::MAX`
    /// if none) and drained in file order via a min-heap.  Applying in
    /// ascending file order reproduces the dense FTRAN exactly: an eta whose
    /// pivot first becomes nonzero *after* its turn would not have been
    /// re-applied by the sequential walk either.
    ///
    /// `touched` holds the support of `x` and is extended as values spread.
    /// Indices can repeat when a value cancels to exactly zero and is later
    /// rewritten — consumers must tolerate that (zeroing twice is free;
    /// [`EtaFile::push_from`] zeroes as it drains).
    fn ftran_sparse(&self, x: &mut [f64], touched: &mut Vec<usize>, eta_of_row: &[usize]) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
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
            let eta = &self.etas[idx];
            let t = x[eta.pivot];
            if t == 0.0 {
                continue;
            }
            x[eta.pivot] = eta.diag * t;
            for &(i, v) in &eta.entries {
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

    /// Appends the eta produced by pivoting the FTRAN'd entering column `w`
    /// on row `pivot`.
    fn push(&mut self, pivot: usize, w: &[f64]) {
        let inv = 1.0 / w[pivot];
        let mut entries = Vec::new();
        for (i, &v) in w.iter().enumerate() {
            if i != pivot && v != 0.0 {
                entries.push((i, -v * inv));
            }
        }
        self.nnz += entries.len() + 1;
        self.etas.push(Eta { pivot, diag: inv, entries });
    }

    /// [`EtaFile::push`] over a sparse support: only `support` indices are
    /// read, and each is zeroed as it is consumed, which both cleans the
    /// scratch vector for the caller and makes duplicate support indices
    /// (see [`EtaFile::ftran_sparse`]) read as zero on second sight.
    fn push_from(&mut self, pivot: usize, w: &mut [f64], support: &[usize]) {
        let inv = 1.0 / w[pivot];
        let mut entries = Vec::new();
        for &i in support {
            let v = w[i];
            w[i] = 0.0;
            if i != pivot && v != 0.0 {
                entries.push((i, -v * inv));
            }
        }
        self.nnz += entries.len() + 1;
        self.etas.push(Eta { pivot, diag: inv, entries });
    }

    /// Appends a pure scaling eta (`x[pivot] *= 1/v`): the elimination step
    /// of a singleton column with entry `v` on an unpivoted row.
    fn push_diagonal(&mut self, pivot: usize, v: f64) {
        self.nnz += 1;
        self.etas.push(Eta { pivot, diag: 1.0 / v, entries: Vec::new() });
    }
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

/// Revised simplex state over one standard form.
struct Simplex<'a> {
    form: &'a StandardForm,
    /// Basic column of each row.
    basis: Vec<usize>,
    is_basic: Vec<bool>,
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
    /// Dense scratch of length `m` (BTRAN results: multipliers / unit rows).
    y: Vec<f64>,
    /// Dense scratch of length `total_cols` (reduced costs per pricing sweep).
    reduced: Vec<f64>,
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
}

impl<'a> Simplex<'a> {
    /// Starts from the all-slack/artificial identity basis (`x_B = b`).
    fn cold(form: &'a StandardForm) -> Simplex<'a> {
        let m = form.num_rows();
        let mut is_basic = vec![false; form.total_cols];
        for &c in &form.initial_basis {
            is_basic[c] = true;
        }
        Simplex {
            form,
            basis: form.initial_basis.clone(),
            is_basic,
            fact: EtaFile::default(),
            xb: form.rhs.clone(),
            updates_since_refactor: 0,
            nnz_after_refactor: 0,
            stats: SolveStats::default(),
            work: vec![0.0; m],
            y: vec![0.0; m],
            reduced: vec![0.0; form.total_cols],
            cand: Vec::new(),
            minor: 0,
            partial_pricing: true,
        }
    }

    /// Starts from a caller-provided basis.  Returns `None` if the basis does
    /// not fit the form, is singular, or leaves an artificial variable basic
    /// at a nonzero value — in all of which cases the caller should solve
    /// cold instead.  The returned state may be primal *infeasible* (negative
    /// basic values) when the right-hand side moved since the basis was
    /// optimal; [`Simplex::dual_repair`] restores feasibility before primal
    /// iterations run.
    fn warm(form: &'a StandardForm, warm: &Basis) -> Option<Simplex<'a>> {
        if warm.cols.len() != form.num_rows() || warm.total_cols != form.total_cols {
            return None;
        }
        let mut simplex = Simplex::cold(form);
        simplex.basis = warm.cols.clone();
        simplex.is_basic = vec![false; form.total_cols];
        for &c in &simplex.basis {
            if c >= form.total_cols || simplex.is_basic[c] {
                return None; // out of range or duplicated column
            }
            simplex.is_basic[c] = true;
        }
        if simplex.refactorize().is_err() {
            return None;
        }
        // A degenerate optimum can leave artificials basic at value zero;
        // under a new right-hand side they reappear at arbitrary values.
        // Pivot them out onto structural/slack columns where possible
        // (negative results are repaired by the dual pivots that follow).
        // Artificials that cannot leave sit on redundant rows and must be at
        // ~zero, or the seed point violates original rows in a way dual
        // pivots on structural/slack columns cannot repair.
        if simplex.basis.iter().any(|&b| b >= form.art_start) {
            simplex.drive_out_artificials();
        }
        for (r, &v) in simplex.xb.iter().enumerate() {
            if simplex.basis[r] >= form.art_start && v.abs() > WARM_TOL {
                return None;
            }
        }
        simplex.stats.warm_started = true;
        Some(simplex)
    }

    /// Builds a **crash basis** that avoids phase 1 on programs shaped like
    /// the TE LPs: every `=` row gets a structural column appearing in *that
    /// equality row only* (a path's flow variable lives in exactly one
    /// conservation row), every `≤` row keeps its slack.  Among a row's
    /// exclusive columns the one with the largest `hint` value wins (the
    /// previous optimum's structural values; empty = no hint), ties going to
    /// the lowest index — so without a hint this is the lowest-index crash.
    /// The result is block-triangular and nonsingular but usually primal
    /// infeasible (the crash routing overloads edges while θ sits at zero) —
    /// which the lift and [`Simplex::dual_repair`] then fix, typically in
    /// very few pivots because one entering θ-column lifts every violated
    /// row at once.  Returns `None` when the shape does not fit (`≥` rows, an
    /// equality row without an exclusive column, singular numerics); the
    /// caller then runs the ordinary two-phase solve.
    fn crash(form: &'a StandardForm, hint: &[f64]) -> Option<Simplex<'a>> {
        // Count equality-row appearances of every structural column.
        let mut equal_rows: Vec<usize> = Vec::new();
        let mut appearances = vec![0usize; form.num_vars];
        for (r, relation) in form.relations.iter().enumerate() {
            match relation {
                Relation::GreaterEq => return None,
                Relation::Equal => {
                    equal_rows.push(r);
                    let (cols, vals) = form.matrix.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        if c < form.num_vars && v.abs() > EPS {
                            appearances[c] += 1;
                        }
                    }
                }
                Relation::LessEq => {}
            }
        }
        if equal_rows.is_empty() {
            return None; // the all-slack basis is already artificial-free
        }
        let mut simplex = Simplex::cold(form);
        for &r in &equal_rows {
            let (cols, vals) = form.matrix.row(r);
            let mut pick: Option<(usize, f64)> = None;
            for (&c, &v) in cols.iter().zip(vals) {
                let exclusive = c < form.num_vars && v.abs() > EPS && appearances[c] == 1;
                if exclusive && !simplex.is_basic[c] {
                    let held = hint.get(c).copied().unwrap_or(0.0);
                    if pick.is_none_or(|(_, best)| held > best) {
                        pick = Some((c, held));
                    }
                }
            }
            let (c, _) = pick?;
            // Swap the row's artificial for the exclusive structural column.
            simplex.is_basic[simplex.basis[r]] = false;
            simplex.is_basic[c] = true;
            simplex.basis[r] = c;
        }
        if simplex.refactorize().is_err() {
            return None;
        }
        simplex.lift_to_feasibility(&appearances);
        Some(simplex)
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
    fn lift_to_feasibility(&mut self, equality_appearances: &[usize]) {
        if self.xb.iter().all(|&v| v >= -WARM_TOL) {
            return;
        }
        for q in 0..self.form.num_vars {
            if self.is_basic[q] || equality_appearances[q] != 0 {
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
            self.pivot_signed(q, r, t);
            self.stats.phase1_iterations += 1;
            for v in self.xb.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
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
    fn dual_repair(&mut self, costs: &[f64]) -> Result<bool, LpError> {
        let m = self.form.num_rows();
        let mut rho = vec![0.0; m];
        let mut candidates: Vec<(usize, f64, f64)> = Vec::new();
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
            // Simplex multipliers for reduced costs: y = Bᵀ⁻¹ c_B.
            for (i, &b) in self.basis.iter().enumerate() {
                self.y[i] = costs[b];
            }
            self.fact.btran(&mut self.y);
            // Row r of B⁻¹A: rho = Bᵀ⁻¹ e_r, then alpha_j = rhoᵀ a_j.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.fact.btran(&mut rho);
            // Entering column: minimum d_j / -alpha_j over alpha_j < 0 among
            // the non-artificial columns (ties go to the lowest index via the
            // strict `<` scan).  Reduced costs are clamped at zero — a crash
            // basis is not dual feasible, and the primal phase that follows
            // cleans that up.
            // Pass 1: admissible candidates and the row's largest pivot
            // magnitude.  Pass 2: threshold ratio test — only pivots within
            // a fraction of that magnitude are eligible (a tiny alpha under
            // a large infeasibility means a huge step `t = x_B[r]/alpha`
            // that blows the iterate up), then minimum reduced-cost ratio,
            // largest |alpha| among (near-)ties: min-MLU programs are
            // massively dual degenerate (nearly all costs are zero), so most
            // ratios tie at zero and the stable pivot wins.
            candidates.clear();
            let mut max_abs_alpha = 0.0f64;
            for c in 0..self.form.art_start {
                if self.is_basic[c] {
                    continue;
                }
                let alpha = self.form.view.column_dot(&self.form.matrix, c, &rho);
                if alpha < -DUAL_PIVOT_TOL {
                    let d = (costs[c] - self.form.view.column_dot(&self.form.matrix, c, &self.y))
                        .max(0.0);
                    candidates.push((c, alpha, d));
                    max_abs_alpha = max_abs_alpha.max(-alpha);
                }
            }
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for &(c, alpha, d) in &candidates {
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
            self.pivot_signed(q, r, t);
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
    /// leaves a malformed seed (rejected by [`Simplex::warm`]) or genuine
    /// numerical breakdown — a hard [`LpError::Numerical`] either way.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let started = Instant::now();
        let result = self.refactorize_inner();
        self.stats.factor_seconds += started.elapsed().as_secs_f64();
        result
    }

    fn refactorize_inner(&mut self) -> Result<(), LpError> {
        let m = self.form.num_rows();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&pos| (self.form.view.col_nnz(self.basis[pos]), self.basis[pos]));
        let mut fact = EtaFile::default();
        let mut pivoted = vec![false; m];
        let mut new_basis = vec![0usize; m];
        let work = &mut self.work;
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        // File index of the eta pivoting each row (event-driven FTRAN).
        let mut eta_of_row = vec![usize::MAX; m];
        for &pos in &order {
            let col = self.basis[pos];
            // Singleton fast path: a column with one stored entry `v` at an
            // unpivoted row `r` is untouched by FTRAN (no eta can pivot at an
            // unpivoted row), so it pivots `r` directly — and when `v = 1`
            // (every slack/artificial) it needs no eta at all.
            if self.form.view.col_nnz(col) == 1 {
                let (r, v) =
                    self.form.view.column(&self.form.matrix, col).next().expect("one entry");
                if !pivoted[r] && v.abs() > REINVERT_PIVOT_TOL {
                    if v != 1.0 {
                        fact.push_diagonal(r, v);
                        eta_of_row[r] = fact.etas.len() - 1;
                    }
                    pivoted[r] = true;
                    new_basis[r] = col;
                    continue;
                }
            }
            touched.clear();
            for (r, v) in self.form.view.column(&self.form.matrix, col) {
                work[r] = v;
                touched.push(r);
            }
            fact.ftran_sparse(work, &mut touched, &eta_of_row);
            let mut pivot = None;
            let mut best = REINVERT_PIVOT_TOL;
            for &r in &touched {
                let v = work[r];
                if !pivoted[r] && v.abs() > best {
                    best = v.abs();
                    pivot = Some(r);
                }
            }
            let Some(p) = pivot else {
                for &r in &touched {
                    work[r] = 0.0;
                }
                return Err(LpError::Numerical); // singular basis
            };
            fact.push_from(p, work, &touched);
            eta_of_row[p] = fact.etas.len() - 1;
            pivoted[p] = true;
            new_basis[p] = col;
        }
        self.basis = new_basis;
        self.nnz_after_refactor = fact.nnz;
        self.fact = fact;
        self.updates_since_refactor = 0;
        self.stats.refactorizations += 1;
        // Restore x_B = B⁻¹ b with the fresh factorization.
        self.xb.copy_from_slice(&self.form.rhs);
        self.fact.ftran(&mut self.xb);
        for v in self.xb.iter_mut() {
            if *v < 0.0 && *v > -WARM_TOL {
                *v = 0.0;
            }
        }
        Ok(())
    }

    fn objective(&self, costs: &[f64]) -> f64 {
        self.basis.iter().zip(&self.xb).map(|(&c, &x)| costs[c] * x).sum()
    }

    /// Reinversion trigger: a fixed update interval, or the update etas
    /// appended since the last reinversion outgrowing the base factorization
    /// by `16m` nonzeros (absolute size would loop on dense bases).
    fn should_refactorize(&self) -> bool {
        self.updates_since_refactor >= REFACTOR_INTERVAL
            || self.fact.nnz - self.nnz_after_refactor > 16 * self.form.num_rows() + 1024
    }

    /// Runs the revised simplex with the given costs until optimality.
    /// Columns at `limit..` (the artificials in phase 2) may not enter.
    /// Returns the outcome; pivots are counted into `pivots`.
    fn optimize(
        &mut self,
        costs: &[f64],
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
            // Simplex multipliers: y = Bᵀ⁻¹ c_B.
            for (r, &b) in self.basis.iter().enumerate() {
                self.y[r] = costs[b];
            }
            self.fact.btran(&mut self.y);
            // Pricing: re-price the candidate list exactly; fall back to the
            // full sweep when it runs dry (which also repopulates the list) or
            // after [`MINOR_LIMIT`] consecutive minor iterations (bounding
            // list staleness).  Bland mode always prices fully — its
            // anti-cycling guarantee needs the globally first negative column.
            let minor_ok = self.partial_pricing && self.minor < MINOR_LIMIT;
            let entering = if use_bland || !minor_ok {
                self.price_full(costs, limit, use_bland)
            } else {
                match self.price_candidates(costs, limit) {
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
            self.pivot(entering, leaving, best_ratio.max(0.0));
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

    /// Full pricing sweep: every reduced cost at once via one sequential CSR
    /// pass (`d = c − Aᵀy`) — far cheaper than per-column indirected dot
    /// products, and it keeps exact Dantzig semantics.  Dantzig takes the
    /// most negative reduced cost, Bland the first; entering ties go to the
    /// lowest column index (scan order).  In Dantzig mode the sweep also
    /// repopulates the candidate list with the [`CANDIDATE_LIST`] most
    /// negative nonbasic columns, re-sorted into ascending column order so
    /// the partial iterations that follow keep the tie rule.
    fn price_full(&mut self, costs: &[f64], limit: usize, use_bland: bool) -> Option<usize> {
        let m = self.form.num_rows();
        self.reduced[..limit].copy_from_slice(&costs[..limit]);
        for r in 0..m {
            let yr = self.y[r];
            if yr != 0.0 {
                let (cols, vals) = self.form.matrix.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if c < limit {
                        self.reduced[c] -= yr * v;
                    }
                }
            }
        }
        self.cand.clear();
        self.minor = 0;
        let mut entering: Option<usize> = None;
        let mut best = -EPS;
        for c in 0..limit {
            if self.is_basic[c] {
                continue;
            }
            let d = self.reduced[c];
            if d < -EPS {
                if use_bland {
                    return Some(c);
                }
                if d < best {
                    best = d;
                    entering = Some(c);
                }
                self.cand.push(c);
            }
        }
        if self.cand.len() > CANDIDATE_LIST {
            let reduced = &self.reduced;
            self.cand.select_nth_unstable_by(CANDIDATE_LIST - 1, |&a, &b| {
                reduced[a]
                    .partial_cmp(&reduced[b])
                    .expect("reduced costs are finite")
                    .then(a.cmp(&b))
            });
            self.cand.truncate(CANDIDATE_LIST);
            self.cand.sort_unstable();
        }
        entering
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
            if c >= limit || self.is_basic[c] {
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
    /// using the FTRAN result currently held in `self.work`.  Values are kept
    /// signed — dual pivots legitimately drive entries through negative
    /// territory; primal callers use [`Simplex::pivot`].
    fn pivot_signed(&mut self, entering: usize, leaving: usize, t: f64) {
        if t != 0.0 {
            for (x, &w) in self.xb.iter_mut().zip(self.work.iter()) {
                if w != 0.0 {
                    *x -= t * w;
                }
            }
        }
        self.xb[leaving] = t;
        self.is_basic[self.basis[leaving]] = false;
        self.is_basic[entering] = true;
        self.basis[leaving] = entering;
        self.fact.push(leaving, &self.work);
        self.updates_since_refactor += 1;
    }

    /// Primal pivot: like [`Simplex::pivot_signed`], then clamps the
    /// numerical noise below zero (the ratio test keeps true values ≥ 0).
    fn pivot(&mut self, entering: usize, leaving: usize, t: f64) {
        self.pivot_signed(entering, leaving, t);
        for x in self.xb.iter_mut() {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Tries to pivot basic artificial variables out of the basis.  Rows
    /// where no structural or slack column has a nonzero transformed
    /// coefficient are redundant and keep their artificial.  After phase 1
    /// the swapped-in values are ~zero; on the warm path they can be any
    /// sign (`pivot_signed`), to be repaired by the dual pivots that follow.
    fn drive_out_artificials(&mut self) {
        let m = self.form.num_rows();
        for r in 0..m {
            if self.basis[r] < self.form.art_start {
                continue;
            }
            // Row r of B⁻¹A over the non-artificial columns: rho = Bᵀ⁻¹ e_r.
            self.y.iter_mut().for_each(|v| *v = 0.0);
            self.y[r] = 1.0;
            self.fact.btran(&mut self.y);
            let replacement = (0..self.form.art_start).find(|&c| {
                !self.is_basic[c]
                    && self.form.view.column_dot(&self.form.matrix, c, &self.y).abs() > 1e-7
            });
            if let Some(c) = replacement {
                self.work.iter_mut().for_each(|v| *v = 0.0);
                for (row, v) in self.form.view.column(&self.form.matrix, c) {
                    self.work[row] = v;
                }
                self.fact.ftran(&mut self.work);
                if self.work[r].abs() > 1e-9 {
                    let t = self.xb[r] / self.work[r];
                    self.pivot_signed(c, r, t);
                }
            }
        }
    }

    fn into_solution(self, lp: &LinearProgram) -> (Solution, Basis) {
        let mut values = vec![0.0; self.form.num_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.form.num_vars {
                values[b] = self.xb[r].max(0.0);
            }
        }
        let objective_value = lp.objective_value(&values);
        let mut stats = self.stats;
        stats.iterations = stats.phase1_iterations + stats.phase2_iterations;
        let basis = Basis { cols: self.basis, total_cols: self.form.total_cols };
        (Solution { values, objective_value, stats }, basis)
    }
}

/// Builds the phase-2 cost vector (original objective, negated when
/// maximizing; zeros on slack and artificial columns).
fn phase2_costs(lp: &LinearProgram, form: &StandardForm) -> Vec<f64> {
    let sign = match lp.direction() {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    let mut costs = vec![0.0; form.total_cols];
    for (c, &coeff) in lp.objective().iter().enumerate() {
        costs[c] = sign * coeff;
    }
    costs
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

    // Seeded starts skip phase 1: dual pivots repair the start (the warm
    // basis under the new right-hand side, or what the crash lift left),
    // then phase 2 runs from it.  Both yield a basis with no artificial at a
    // nonzero value, so phase 2 from them is sound; any trouble — repair
    // gives up, iteration trouble, numerics, a point that fails the
    // feasibility double-check — falls through to the next start, and only
    // the two-phase solve below may declare infeasibility or unboundedness.
    // The crash runs on programs with artificials only: without them the
    // all-slack basis is already a feasible start.
    let has_artificials = form.total_cols > form.art_start;
    let warm_start = warm.and_then(|basis| Simplex::warm(form, basis));
    let crash_start =
        std::iter::once_with(|| if has_artificials { Simplex::crash(form, hint) } else { None });
    for mut simplex in warm_start.into_iter().chain(crash_start.flatten()) {
        simplex.partial_pricing = partial_pricing;
        let repair_started = Instant::now();
        let repaired = simplex.dual_repair(&costs);
        simplex.stats.phase1_seconds += repair_started.elapsed().as_secs_f64();
        if matches!(repaired, Ok(true)) {
            let mut pivots = 0usize;
            let phase2_started = Instant::now();
            let outcome = simplex.optimize(&costs, form.art_start, max_iterations, &mut pivots);
            simplex.stats.phase2_seconds += phase2_started.elapsed().as_secs_f64();
            simplex.stats.phase2_iterations = pivots;
            if matches!(outcome, Ok(Outcome::Optimal)) {
                let (mut solution, basis) = simplex.into_solution(lp);
                if lp.is_feasible(&solution.values, 1e-6) {
                    solution.stats.absorb(&abandoned);
                    return Ok((solution, basis));
                }
                abandoned.absorb(&solution.stats);
                continue;
            }
        }
        simplex.stats.iterations =
            simplex.stats.phase1_iterations + simplex.stats.phase2_iterations;
        abandoned.absorb(&simplex.stats);
    }

    let mut simplex = Simplex::cold(form);
    simplex.partial_pricing = partial_pricing;
    // ---- Phase 1: minimize the sum of the artificial variables. ----
    if form.total_cols > form.art_start {
        let mut phase1_costs = vec![0.0; form.total_cols];
        for c in form.art_start..form.total_cols {
            phase1_costs[c] = 1.0;
        }
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
    let (mut solution, basis) = simplex.into_solution(lp);
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
            let mut cols = Simplex::crash(&form, hint).expect("TE-shaped").basis;
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

    #[test]
    fn refactorization_keeps_long_solves_accurate() {
        // A chain program large enough to force several reinversions.
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
        let sol = solve(&lp).unwrap();
        assert!(lp.is_feasible(&sol.values, 1e-6));
        assert!(sol.stats.refactorizations > 0, "expected at least one reinversion");
        let dense = crate::simplex::solve(&lp).unwrap();
        assert_close(sol.objective_value, dense.objective_value);
    }
}
