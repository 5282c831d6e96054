//! Warm-started re-solving of one program under a moving right-hand side.
//!
//! Snapshot series (omniscient TE, Des TE, prediction TE over a trace) solve
//! the *same* linear program over and over with only the demand changing, and
//! the min-MLU template states that program over path flows, so the demand
//! sits on the right-hand side and nowhere else.  [`LpTemplate`] exploits
//! that: the standard form — slack/artificial layout, CSR matrix, column view
//! — is built **once** and never touched again, per-solve updates go through
//! [`LpTemplate::set_rhs`], and every solve after the first is seeded from a
//! previous optimum (the same amortization idea as semi-oblivious TE systems
//! that re-optimize rates over a fixed path set).
//!
//! Invariants: the variable set, objective and constraint matrix are frozen
//! at construction; only right-hand sides may change, and a right-hand side
//! must keep the sign it had at construction (the sign decides the
//! slack/artificial layout).  Warm starting never changes results — an
//! unusable seed silently falls back to the next start
//! (`stats.warm_started` reports whether the basis was accepted).
//!
//! Two seeds are kept.  A small **basis pool**: the last [`BASIS_POOL`]
//! optimal bases, each keyed by the right-hand side it was optimal for; each
//! solve tries the pool entry closest (L1) to the current one.  Traffic is
//! not a random walk — matrices recur (diurnal cycles, periodic batch jobs,
//! A/B flips between a few regimes) — and a basis from a *similar* snapshot
//! re-solves in a few dual pivots where one from merely the *latest* snapshot
//! would be rejected by the damage gate.  And the previous optimum's
//! **values**, which seed the crash basis every rejected basis falls to (see
//! [`crate::revised`]): a burst leaves the old basis infeasible in hundreds
//! of rows, but "every pair on its previously dominant path" is one pivot
//! from feasible under any right-hand side.

use crate::problem::LinearProgram;
use crate::revised::{solve_on_form, Basis, StandardForm};
use crate::solution::{LpError, Solution};

/// Number of recent optima kept for seed selection (see the module docs).
/// Sized to cover a handful of traffic regimes; the per-solve selection scan
/// costs `BASIS_POOL × rows` flops, microseconds against a millisecond solve.
pub const BASIS_POOL: usize = 8;

/// A linear program whose matrix is fixed but whose right-hand side is
/// rewritten between solves, with warm starting across solves.  See the
/// module docs for the invariants.
#[derive(Debug)]
pub struct LpTemplate {
    lp: LinearProgram,
    form: StandardForm,
    /// Recent optima, oldest first, keyed by the standard-form right-hand
    /// side each was optimal for.
    pool: Vec<(Vec<f64>, Basis)>,
    /// Structural values of the previous optimum (empty before any): the
    /// crash hint.
    hint: Vec<f64>,
}

impl LpTemplate {
    /// Builds the template (standard form + column view) from a fully
    /// assembled program.
    pub fn new(lp: LinearProgram) -> LpTemplate {
        assert!(lp.num_vars() > 0, "cannot build a template over an empty program");
        let form = StandardForm::build(&lp);
        LpTemplate { lp, form, pool: Vec::new(), hint: Vec::new() }
    }

    /// Rewrites the right-hand side of constraint `row`.  The new value must
    /// have the sign class the row was built with (a sign change would alter
    /// the slack/artificial layout).
    pub fn set_rhs(&mut self, row: usize, value: f64) {
        let flipped = self.form.flipped[row];
        assert!(
            if flipped { value <= 0.0 } else { value >= 0.0 },
            "RHS update {value} changes the sign class of row {row}; rebuild the template instead"
        );
        self.lp.set_constraint_rhs(row, value);
        self.form.rhs[row] = if flipped { -value } else { value };
    }

    /// Solves the template's current program, seeding from the pooled basis
    /// closest to the current right-hand side, then from the previous
    /// optimum's values, then cold.  On success the final basis joins the
    /// pool and the solution's values become the next crash hint.
    pub fn solve(&mut self) -> Result<Solution, LpError> {
        let (solution, basis) =
            solve_on_form(&self.lp, &self.form, self.closest_basis(), &self.hint)?;
        self.hint.clear();
        self.hint.extend_from_slice(&solution.values);
        self.remember(basis);
        Ok(solution)
    }

    /// The pool basis whose right-hand side is L1-closest to the current one,
    /// oldest entry winning ties.
    fn closest_basis(&self) -> Option<&Basis> {
        let mut best: Option<(f64, &Basis)> = None;
        for (key, basis) in &self.pool {
            let dist: f64 = key.iter().zip(&self.form.rhs).map(|(a, b)| (a - b).abs()).sum();
            if best.as_ref().is_none_or(|&(d, _)| dist < d) {
                best = Some((dist, basis));
            }
        }
        best.map(|(_, b)| b)
    }

    /// Inserts an optimum into the pool under the current right-hand side,
    /// replacing any entry with the identical one (the fresh basis supersedes
    /// it) and otherwise evicting the oldest entry beyond [`BASIS_POOL`]; the
    /// displaced entry's key buffer is reused.
    fn remember(&mut self, basis: Basis) {
        let same = self.pool.iter().position(|(key, _)| key == &self.form.rhs);
        let displaced = same.or((self.pool.len() == BASIS_POOL).then_some(0));
        let mut key = displaced.map_or_else(Vec::new, |pos| self.pool.remove(pos).0);
        key.clear();
        key.extend_from_slice(&self.form.rhs);
        self.pool.push((key, basis));
    }

    /// Drops the pool and the crash hint, forcing the next solve to run cold.
    pub fn clear_basis(&mut self) {
        self.pool.clear();
        self.hint.clear();
    }

    /// Whether the next solve will attempt a warm start.
    pub fn has_warm_basis(&self) -> bool {
        !self.pool.is_empty()
    }

    /// The template's current program (updates applied).
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Direction, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The toy min-MLU program over path flows: the pair's demand is the
    /// right-hand side of row 0.
    fn toy_template() -> LpTemplate {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let f1 = lp.add_variable(0.0);
        let f2 = lp.add_variable(0.0);
        lp.add_constraint(vec![(f1, 1.0), (f2, 1.0)], Relation::Equal, 3.0);
        lp.add_constraint(vec![(f1, 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f2, 1.0), (theta, -2.0)], Relation::LessEq, 0.0);
        LpTemplate::new(lp)
    }

    #[test]
    fn resolves_and_warm_starts_across_rhs_updates() {
        let mut template = toy_template();
        let first = template.solve().unwrap();
        assert_close(first.objective_value, 1.0);
        assert!(!first.stats.warm_started);
        assert!(template.has_warm_basis());
        // Scale the demand: theta scales linearly.
        template.set_rhs(0, 4.5);
        let second = template.solve().unwrap();
        assert_close(second.objective_value, 1.5);
        assert!(second.stats.warm_started, "second solve must reuse the basis");
        assert_eq!(second.stats.phase1_iterations, 0);
    }

    #[test]
    fn clear_basis_forces_a_cold_solve() {
        let mut template = toy_template();
        template.solve().unwrap();
        template.clear_basis();
        assert!(!template.has_warm_basis());
        let sol = template.solve().unwrap();
        assert!(!sol.stats.warm_started);
        assert_close(sol.objective_value, 1.0);
    }

    #[test]
    fn revisited_program_data_reuses_its_own_basis() {
        // Two pairs share a link; which of them is "on" decides the optimal
        // basis.  Alternate between the regimes: the pool must seed a revisit
        // from the regime's *own* basis, making the re-solve pivot-free even
        // though the latest basis is the other regime's.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let theta = lp.add_variable(1.0);
        let f: Vec<usize> = (0..4).map(|_| lp.add_variable(0.0)).collect();
        lp.add_constraint(vec![(f[0], 1.0), (f[1], 1.0)], Relation::Equal, 4.0);
        lp.add_constraint(vec![(f[2], 1.0), (f[3], 1.0)], Relation::Equal, 0.0);
        lp.add_constraint(vec![(f[0], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f[1], 1.0), (f[2], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        lp.add_constraint(vec![(f[3], 1.0), (theta, -1.0)], Relation::LessEq, 0.0);
        let mut template = LpTemplate::new(lp);
        let first = template.solve().unwrap();
        assert_close(first.objective_value, 2.0);
        template.set_rhs(0, 0.0);
        template.set_rhs(1, 6.0); // other regime, different optimum
        let second = template.solve().unwrap();
        assert_close(second.objective_value, 3.0);
        template.set_rhs(0, 4.0);
        template.set_rhs(1, 0.0); // back to the first regime
        let third = template.solve().unwrap();
        assert_close(third.objective_value, first.objective_value);
        assert!(third.stats.warm_started, "revisit must warm start");
        assert_eq!(third.stats.iterations, 0, "the regime's own basis is already optimal");
    }

    #[test]
    #[should_panic(expected = "sign class")]
    fn rhs_sign_flips_are_rejected() {
        let mut template = toy_template();
        template.set_rhs(0, -1.0);
    }

    #[test]
    fn flipped_rows_update_consistently() {
        // A row stated with negative RHS (x + y >= 4 written as -x - y <= -4)
        // is sign-flipped internally; updates must stay consistent.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(2.0);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::LessEq, -4.0);
        let mut template = LpTemplate::new(lp);
        let sol = template.solve().unwrap();
        assert_close(sol.objective_value, 4.0);
        template.set_rhs(0, -6.0);
        let sol = template.solve().unwrap();
        assert_close(sol.objective_value, 6.0);
        assert!(template.lp().is_feasible(&sol.values, 1e-6));
    }
}
