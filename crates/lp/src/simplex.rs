//! Dense two-phase simplex solver.
//!
//! The implementation is a textbook tableau simplex:
//!
//! 1. rows are normalized so every right-hand side is non-negative, then slack,
//!    surplus and artificial columns are appended to obtain an identity basis;
//! 2. phase 1 minimizes the sum of the artificial variables — a positive
//!    optimum means the program is infeasible;
//! 3. phase 2 minimizes the original objective (maximization is handled by
//!    negating the costs), with artificial columns excluded from entering.
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule after
//! a stall, which guarantees termination.  Since the sparse revised simplex
//! ([`crate::revised`]) became the engine this dense tableau is the
//! independent test oracle, compiled under `cfg(test)` only: the property
//! tests in `lib.rs` assert the two agree on randomized programs.

use crate::problem::{Direction, LinearProgram, Relation};
use crate::solution::{LpError, Solution, SolveStats};

/// Numeric tolerance used for optimality and feasibility tests.
const EPS: f64 = 1e-9;
/// Number of non-improving iterations after which we switch to Bland's rule.
const STALL_LIMIT: usize = 200;

struct Tableau {
    /// (m + 1) rows; the last row is the objective (reduced-cost) row.
    rows: Vec<Vec<f64>>,
    /// Total number of structural + slack + artificial columns (RHS excluded).
    cols: usize,
    /// Basic variable (column index) of each constraint row.
    basis: Vec<usize>,
    /// First artificial column index (artificials occupy `art_start..cols`).
    art_start: usize,
    /// Number of original (structural) variables.
    num_vars: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.rows[row][self.cols]
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let pivot_value = self.rows[pivot_row][pivot_col];
        debug_assert!(pivot_value.abs() > EPS, "pivot element too small");
        let inv = 1.0 / pivot_value;
        for v in self.rows[pivot_row].iter_mut() {
            *v *= inv;
        }
        let pivot_row_copy = self.rows[pivot_row].clone();
        for (r, row) in self.rows.iter_mut().enumerate() {
            if r == pivot_row {
                continue;
            }
            let factor = row[pivot_col];
            if factor.abs() <= EPS {
                row[pivot_col] = 0.0;
                continue;
            }
            for (c, v) in row.iter_mut().enumerate() {
                *v -= factor * pivot_row_copy[c];
            }
            row[pivot_col] = 0.0;
        }
        self.basis[pivot_row] = pivot_col;
    }

    /// Runs the simplex on the current objective row until optimality.
    /// `allow_artificial` controls whether artificial columns may enter.
    /// Returns `Ok(true)` on optimality, `Ok(false)` on unboundedness.
    /// Pivots are counted into `pivots`.
    fn optimize(
        &mut self,
        allow_artificial: bool,
        max_iterations: usize,
        pivots: &mut usize,
    ) -> Result<bool, LpError> {
        let m = self.basis.len();
        let obj = m; // index of the objective row
        let mut stall = 0usize;
        let mut last_objective = self.rows[obj][self.cols];
        for _ in 0..max_iterations {
            let use_bland = stall >= STALL_LIMIT;
            // Entering column: most negative reduced cost (Dantzig) or the
            // first negative one (Bland).
            let limit = if allow_artificial { self.cols } else { self.art_start };
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            for c in 0..limit {
                let rc = self.rows[obj][c];
                if rc < -EPS {
                    if use_bland {
                        entering = Some(c);
                        break;
                    }
                    if rc < best {
                        best = rc;
                        entering = Some(c);
                    }
                }
            }
            let entering = match entering {
                Some(c) => c,
                None => return Ok(true), // optimal
            };
            // Ratio test.  A strictly smaller ratio always wins; degenerate
            // ties deterministically pick the row whose basic variable has the
            // lowest column index, in Dantzig and Bland mode alike (the
            // Bland-mode half of the anti-cycling guarantee).
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = self.rows[r][entering];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let take = match leaving {
                        None => true,
                        Some(l) => {
                            ratio < best_ratio - EPS
                                || ((ratio - best_ratio).abs() <= EPS
                                    && self.basis[r] < self.basis[l])
                        }
                    };
                    if take {
                        best_ratio = ratio;
                        leaving = Some(r);
                    }
                }
            }
            let leaving = match leaving {
                Some(r) => r,
                None => return Ok(false), // unbounded
            };
            self.pivot(leaving, entering);
            *pivots += 1;
            let objective = self.rows[obj][self.cols];
            if (objective - last_objective).abs() <= EPS {
                stall += 1;
            } else {
                stall = 0;
                last_objective = objective;
            }
        }
        Err(LpError::IterationLimit)
    }
}

/// Solves a linear program with the two-phase simplex method.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    if n == 0 {
        return Err(LpError::Empty);
    }

    // Count slack and artificial columns.
    let mut num_slack = 0usize;
    let mut num_artificial = 0usize;
    // Normalized rows: (dense coefficients, relation, rhs >= 0).
    let mut norm: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
    for c in lp.constraints() {
        let mut dense = vec![0.0; n];
        for (i, v) in &c.coeffs {
            dense[*i] += v;
        }
        let (dense, relation, rhs) = if c.rhs < 0.0 {
            let flipped = match c.relation {
                Relation::LessEq => Relation::GreaterEq,
                Relation::GreaterEq => Relation::LessEq,
                Relation::Equal => Relation::Equal,
            };
            (dense.iter().map(|v| -v).collect(), flipped, -c.rhs)
        } else {
            (dense, c.relation, c.rhs)
        };
        match relation {
            Relation::LessEq => num_slack += 1,
            Relation::GreaterEq => {
                num_slack += 1;
                num_artificial += 1;
            }
            Relation::Equal => num_artificial += 1,
        }
        norm.push((dense, relation, rhs));
    }

    let slack_start = n;
    let art_start = n + num_slack;
    let cols = n + num_slack + num_artificial;

    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    let mut basis = vec![0usize; m];
    let mut next_slack = slack_start;
    let mut next_art = art_start;
    for (r, (dense, relation, rhs)) in norm.iter().enumerate() {
        let mut row = vec![0.0; cols + 1];
        row[..n].copy_from_slice(dense);
        row[cols] = *rhs;
        match relation {
            Relation::LessEq => {
                row[next_slack] = 1.0;
                basis[r] = next_slack;
                next_slack += 1;
            }
            Relation::GreaterEq => {
                row[next_slack] = -1.0;
                next_slack += 1;
                row[next_art] = 1.0;
                basis[r] = next_art;
                next_art += 1;
            }
            Relation::Equal => {
                row[next_art] = 1.0;
                basis[r] = next_art;
                next_art += 1;
            }
        }
        rows.push(row);
    }
    // Objective row placeholder.
    rows.push(vec![0.0; cols + 1]);

    // Each row's identity column: its reduced cost at the optimum is minus
    // the row's multiplier (the column has zero cost and is `e_r`).
    let identity = basis.clone();
    let mut tableau = Tableau { rows, cols, basis, art_start, num_vars: n };
    let max_iterations = (50 * (m + cols)).max(1000);
    let mut stats = SolveStats::default();

    // ---- Phase 1 ----
    if num_artificial > 0 {
        // Objective: minimize the sum of artificials.
        {
            let obj = tableau.basis.len();
            for c in 0..=tableau.cols {
                tableau.rows[obj][c] = 0.0;
            }
            for c in art_start..cols {
                tableau.rows[obj][c] = 1.0;
            }
            // Canonicalize: subtract rows whose basic variable is artificial.
            for r in 0..m {
                if tableau.basis[r] >= art_start {
                    let row = tableau.rows[r].clone();
                    for c in 0..=tableau.cols {
                        tableau.rows[obj][c] -= row[c];
                    }
                }
            }
        }
        let mut pivots = 0usize;
        let finished = tableau.optimize(true, max_iterations, &mut pivots)?;
        stats.phase1_iterations = pivots;
        if !finished {
            // Phase 1 is always bounded below by zero; unbounded here means a
            // numerical problem.
            return Err(LpError::Numerical);
        }
        stats.phase1_objective = -tableau.rows[m][tableau.cols];
        if stats.phase1_objective > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive artificials out of the basis where possible.
        for r in 0..m {
            if tableau.basis[r] >= art_start {
                let col = (0..art_start).find(|&c| tableau.rows[r][c].abs() > EPS);
                if let Some(c) = col {
                    tableau.pivot(r, c);
                }
            }
        }
    }

    // ---- Phase 2 ----
    {
        let obj = tableau.basis.len();
        let sign = match lp.direction() {
            Direction::Minimize => 1.0,
            Direction::Maximize => -1.0,
        };
        for c in 0..=tableau.cols {
            tableau.rows[obj][c] = 0.0;
        }
        for (c, coeff) in lp.objective().iter().enumerate() {
            tableau.rows[obj][c] = sign * coeff;
        }
        // Canonicalize with respect to the current basis.
        for r in 0..m {
            let b = tableau.basis[r];
            let factor = tableau.rows[obj][b];
            if factor.abs() > EPS {
                let row = tableau.rows[r].clone();
                for c in 0..=tableau.cols {
                    tableau.rows[obj][c] -= factor * row[c];
                }
            }
        }
    }
    let mut pivots = 0usize;
    let finished = tableau.optimize(false, max_iterations, &mut pivots)?;
    stats.phase2_iterations = pivots;
    if !finished {
        return Err(LpError::Unbounded);
    }

    // Extract the solution.
    let mut values = vec![0.0; n];
    for r in 0..m {
        let b = tableau.basis[r];
        if b < n {
            values[b] = tableau.rhs(r).max(0.0);
        }
    }
    let objective_value = lp.objective_value(&values);
    let direction = match lp.direction() {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    };
    let duals = identity
        .iter()
        .zip(lp.constraints())
        .map(|(&col, c)| {
            let flip = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            -direction * flip * tableau.rows[m][col]
        })
        .collect();
    stats.iterations = stats.phase1_iterations + stats.phase2_iterations;
    Ok(Solution { values, objective_value, duals, stats })
}

#[allow(dead_code)]
fn debug_dump(t: &Tableau) -> String {
    let mut s = String::new();
    for row in &t.rows {
        for v in row {
            s.push_str(&format!("{v:8.3} "));
        }
        s.push('\n');
    }
    s.push_str(&format!("basis: {:?}, vars: {}\n", t.basis, t.num_vars));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Direction, LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_slack_only() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
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
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn minimization_with_equalities_and_geq() {
        // min 2x + 3y s.t. x + y = 10, x >= 3  => x=10, y=0? No: obj favours x.
        // 2x+3y with x+y=10: best is all x => x=10,y=0, obj=20 (x>=3 satisfied).
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(2.0);
        let y = lp.add_variable(3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 20.0);
        assert_close(sol.values[x], 10.0);
        assert_close(sol.values[y], 0.0);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        assert!(matches!(solve(&lp), Err(LpError::Infeasible)));
    }

    #[test]
    fn detects_unbounded() {
        // max x with only x >= 1.
        let mut lp = LinearProgram::new(Direction::Maximize);
        let x = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 1.0);
        assert!(matches!(solve(&lp), Err(LpError::Unbounded)));
    }

    #[test]
    fn handles_negative_rhs() {
        // min x + y s.t. -x - y <= -4 (i.e. x + y >= 4) => obj 4.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::LessEq, -4.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 4.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; ensures stalling does not loop forever.
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
    }

    #[test]
    fn min_mlu_toy_instance() {
        // Two parallel links (capacities 1 and 2) carrying demand 3 between the
        // same endpoints: minimize the MLU theta with
        //   f1 + f2 = 3, f1 <= theta * 1, f2 <= theta * 2  => theta = 1.
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

    #[test]
    fn empty_program_is_an_error() {
        let lp = LinearProgram::new(Direction::Minimize);
        assert!(matches!(solve(&lp), Err(LpError::Empty)));
    }

    #[test]
    fn redundant_equalities_are_fine() {
        // x + y = 2 stated twice plus x = 1.
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variable(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Equal, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective_value, 2.0);
        assert_close(sol.values[x], 1.0);
        assert_close(sol.values[y], 1.0);
    }
}
