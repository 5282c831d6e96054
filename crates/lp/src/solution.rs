//! Solver results and errors.

use std::fmt;

/// Diagnostic counters reported by the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Total number of simplex pivots performed (phase 1 + phase 2).
    pub iterations: usize,
    /// Pivots spent in phase 1 (driving artificials to zero); 0 when the
    /// solve needed no phase 1 or was warm started.
    pub phase1_iterations: usize,
    /// Pivots spent in phase 2 (optimizing the original objective).
    pub phase2_iterations: usize,
    /// Basis reinversions performed by the revised simplex (always 0 for the
    /// dense tableau solver, which carries no factorization).
    pub refactorizations: usize,
    /// Whether the solve was seeded from a previous basis and the seed was
    /// accepted (see [`crate::revised::solve_with_basis`]).
    pub warm_started: bool,
    /// Optimal value of the phase-1 objective (sum of artificials).
    pub phase1_objective: f64,
    /// Wall-clock seconds spent in phase-1 work (artificial elimination and
    /// warm-start dual repair).  A measured quantity: excluded from every
    /// determinism comparison, reported only through telemetry.
    pub phase1_seconds: f64,
    /// Wall-clock seconds spent optimizing the original objective
    /// (phase 2).  Measured, never digested.
    pub phase2_seconds: f64,
    /// Wall-clock seconds spent rebuilding the basis factorization
    /// (a sub-span of the phase timings above, not additional to them).
    pub factor_seconds: f64,
}

impl SolveStats {
    /// Accumulates the counters of another solve (series reporting).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.phase2_iterations += other.phase2_iterations;
        self.refactorizations += other.refactorizations;
        self.phase1_objective += other.phase1_objective;
        self.phase1_seconds += other.phase1_seconds;
        self.phase2_seconds += other.phase2_seconds;
        self.factor_seconds += other.factor_seconds;
    }
}

/// An optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal values of the structural variables, in declaration order.
    pub values: Vec<f64>,
    /// Objective value at the optimum (in the original direction of the
    /// program, i.e. not negated for maximization problems).
    pub objective_value: f64,
    /// The final basis's row multipliers, one per constraint in declaration
    /// order and in the program's own orientation (rows and direction as
    /// stated, not as normalized): `objective_value = Σ_r duals[r] · rhs[r]`
    /// at the optimum.  In a minimization a `≤` row's multiplier is ≤ 0 and a
    /// `≥` row's is ≥ 0, up to solver tolerance.
    pub duals: Vec<f64>,
    /// Diagnostic counters.
    pub stats: SolveStats,
}

/// Errors returned by the simplex solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The program has no variables.
    Empty,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The pivot limit was exhausted before reaching optimality.
    IterationLimit,
    /// A numerical breakdown occurred (ill-conditioned pivot).
    Numerical,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Empty => write!(f, "the linear program has no variables"),
            LpError::Infeasible => write!(f, "the linear program is infeasible"),
            LpError::Unbounded => write!(f, "the objective is unbounded"),
            LpError::IterationLimit => write!(f, "the simplex iteration limit was exhausted"),
            LpError::Numerical => write!(f, "numerical breakdown during pivoting"),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::Empty.to_string().contains("no variables"));
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
        assert!(LpError::Numerical.to_string().contains("breakdown"));
    }

    #[test]
    fn stats_default_is_zero() {
        let s = SolveStats::default();
        assert_eq!(s.iterations, 0);
        assert_eq!(s.phase1_iterations, 0);
        assert_eq!(s.phase2_iterations, 0);
        assert_eq!(s.refactorizations, 0);
        assert!(!s.warm_started);
        assert_eq!(s.phase1_objective, 0.0);
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = SolveStats {
            iterations: 3,
            phase1_iterations: 1,
            phase2_iterations: 2,
            refactorizations: 1,
            phase1_seconds: 0.5,
            ..Default::default()
        };
        let b = SolveStats {
            iterations: 5,
            phase2_iterations: 5,
            refactorizations: 2,
            warm_started: true,
            phase1_seconds: 0.25,
            phase2_seconds: 1.0,
            factor_seconds: 0.125,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.iterations, 8);
        assert_eq!(a.phase1_iterations, 1);
        assert_eq!(a.phase2_iterations, 7);
        assert_eq!(a.refactorizations, 3);
        assert!((a.phase1_seconds - 0.75).abs() < 1e-12);
        assert!((a.phase2_seconds - 1.0).abs() < 1e-12);
        assert!((a.factor_seconds - 0.125).abs() < 1e-12);
    }
}
