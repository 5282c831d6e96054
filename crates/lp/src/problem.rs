//! Linear-program modelling API.
//!
//! The paper solves all of its LP-based baselines (omniscient TE, prediction
//! TE, desensitization TE, oblivious/COPE subproblems) with Gurobi.  This crate
//! provides a small, self-contained replacement: problems are expressed as
//! `min/max cᵀx` subject to sparse linear rows `aᵀx {≤,=,≥} b` with all
//! variables non-negative, and solved with a sparse revised simplex
//! ([`crate::revised`]; the dense two-phase tableau of `simplex.rs` is
//! compiled under `cfg(test)` only, as the test oracle).
//!
//! All TE formulations used in this repository only need non-negative
//! variables, so variable bounds other than `x ≥ 0` are expressed as rows.

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `aᵀx ≤ b`
    LessEq,
    /// `aᵀx = b`
    Equal,
    /// `aᵀx ≥ b`
    GreaterEq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A sparse linear constraint `Σ coeffs[i].1 · x[coeffs[i].0] {rel} rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation of the constraint.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    direction: Direction,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program with the given optimization direction.
    pub fn new(direction: Direction) -> Self {
        LinearProgram { num_vars: 0, objective: Vec::new(), direction, constraints: Vec::new() }
    }

    /// Adds a variable with the given objective coefficient and returns its index.
    /// All variables are constrained to be non-negative.
    pub fn add_variable(&mut self, objective_coefficient: f64) -> usize {
        assert!(objective_coefficient.is_finite(), "objective coefficient must be finite");
        self.objective.push(objective_coefficient);
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Adds `count` variables sharing the same objective coefficient; returns
    /// the index of the first one (the rest follow contiguously).
    pub fn add_variables(&mut self, count: usize, objective_coefficient: f64) -> usize {
        let first = self.num_vars;
        for _ in 0..count {
            self.add_variable(objective_coefficient);
        }
        first
    }

    /// Adds a constraint.  Coefficients referencing unknown variables or
    /// non-finite values are rejected with a panic (these are programming
    /// errors in the formulation, not runtime conditions).
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "constraint RHS must be finite");
        for (v, c) in &coeffs {
            assert!(*v < self.num_vars, "constraint references unknown variable {v}");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(Constraint { coeffs, relation, rhs });
    }

    /// Rewrites the right-hand side of a constraint (template path).
    pub(crate) fn set_constraint_rhs(&mut self, row: usize, value: f64) {
        assert!(value.is_finite(), "constraint RHS must be finite");
        self.constraints[row].rhs = value;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Optimization direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars, "point has wrong dimension");
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x ≥ 0` satisfies every constraint within `tolerance`.
    pub fn is_feasible(&self, x: &[f64], tolerance: f64) -> bool {
        if x.len() != self.num_vars || x.iter().any(|v| !v.is_finite() || *v < -tolerance) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|(i, a)| a * x[*i]).sum();
            match c.relation {
                Relation::LessEq => lhs <= c.rhs + tolerance,
                Relation::Equal => (lhs - c.rhs).abs() <= tolerance,
                Relation::GreaterEq => lhs >= c.rhs - tolerance,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shape() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        let x = lp.add_variable(1.0);
        let y = lp.add_variables(2, 0.5);
        assert_eq!(x, 0);
        assert_eq!(y, 1);
        assert_eq!(lp.num_vars(), 3);
        lp.add_constraint(vec![(0, 1.0), (2, 2.0)], Relation::LessEq, 4.0);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.objective(), &[1.0, 0.5, 0.5]);
        assert_eq!(lp.direction(), Direction::Minimize);
        assert_eq!(lp.objective_value(&[2.0, 0.0, 1.0]), 2.5);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new(Direction::Maximize);
        lp.add_variables(2, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::GreaterEq, 0.2);
        lp.add_constraint(vec![(1, 2.0)], Relation::Equal, 0.6);
        assert!(lp.is_feasible(&[0.5, 0.3], 1e-9));
        assert!(!lp.is_feasible(&[0.1, 0.3], 1e-9)); // violates >=
        assert!(!lp.is_feasible(&[0.5, 0.4], 1e-9)); // violates ==
        assert!(!lp.is_feasible(&[0.9, 0.3], 1e-9)); // violates <=
        assert!(!lp.is_feasible(&[-0.1, 0.3], 1e-9)); // negative
        assert!(!lp.is_feasible(&[0.5], 1e-9)); // wrong dimension
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_unknown_variable() {
        let mut lp = LinearProgram::new(Direction::Minimize);
        lp.add_variable(1.0);
        lp.add_constraint(vec![(3, 1.0)], Relation::LessEq, 1.0);
    }
}
