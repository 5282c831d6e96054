//! # figret-lp
//!
//! A self-contained LP toolkit used by the LP-based TE baselines (omniscient,
//! prediction-based, desensitization-based, oblivious and COPE).  The paper
//! uses Gurobi; this crate is the offline substitute documented in
//! DESIGN.md §5.  One solver ships:
//!
//! * [`revised`] — the engine ([`solve`]): a sparse revised simplex with a
//!   CSR constraint matrix, an eta-file (product-form) basis inverse and
//!   warm starting across programs that differ in the right-hand side only.
//!
//! The original dense two-phase tableau (`src/simplex.rs`) is compiled only
//! under `cfg(test)`: it is the independent test oracle the property tests
//! below (and in [`revised`]) compare the engine against on randomized
//! programs, not an engine a caller can pick.
//!
//! Snapshot series re-solve near-identical programs back to back; the
//! [`template::LpTemplate`] API builds the program once and re-solves it under
//! a moving right-hand side, seeded from the previous optima.
//!
//! # Example
//!
//! ```
//! use figret_lp::{Direction, LinearProgram, Relation, solve};
//!
//! // min x + 2y   s.t. x + y >= 4, y <= 1
//! let mut lp = LinearProgram::new(Direction::Minimize);
//! let x = lp.add_variable(1.0);
//! let y = lp.add_variable(2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
//! lp.add_constraint(vec![(y, 1.0)], Relation::LessEq, 1.0);
//! let solution = solve(&lp).unwrap();
//! assert!((solution.objective_value - 4.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod problem;
pub mod revised;
#[cfg(test)]
mod simplex;
pub mod solution;
pub mod sparse;
pub mod template;

pub use problem::{Constraint, Direction, LinearProgram, Relation};
pub use revised::{solve, solve_with_basis, Basis};
pub use solution::{LpError, Solution, SolveStats};
pub use sparse::{ColumnView, CsrMatrix};
pub use template::{LpTemplate, BASIS_POOL};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random bounded-feasible minimization problems: variables have an upper
    /// bound row so the optimum always exists.
    fn arbitrary_bounded_lp() -> impl Strategy<Value = LinearProgram> {
        (1usize..5, 0usize..6).prop_flat_map(|(nvars, nrows)| {
            (
                proptest::collection::vec(-5.0f64..5.0, nvars),
                proptest::collection::vec(
                    (proptest::collection::vec(0.0f64..3.0, nvars), 1.0f64..20.0),
                    nrows,
                ),
            )
                .prop_map(move |(obj, rows)| {
                    let mut lp = LinearProgram::new(Direction::Minimize);
                    for c in &obj {
                        lp.add_variable(*c);
                    }
                    // Upper bound every variable so minimization of negative
                    // costs stays bounded.
                    for v in 0..nvars {
                        lp.add_constraint(vec![(v, 1.0)], Relation::LessEq, 10.0);
                    }
                    for (coeffs, rhs) in rows {
                        let sparse: Vec<(usize, f64)> =
                            coeffs.iter().enumerate().map(|(i, c)| (i, *c)).collect();
                        lp.add_constraint(sparse, Relation::LessEq, rhs);
                    }
                    lp
                })
        })
    }

    /// Randomized *sparse* programs with mixed relations.  Rows touch a random
    /// subset of the variables (sparsity masks), every variable is upper
    /// bounded (no unbounded cases), and `>=`/`=` rows may make an instance
    /// infeasible — both solvers must then agree on that verdict.
    fn arbitrary_sparse_lp() -> impl Strategy<Value = LinearProgram> {
        (2usize..8, 1usize..8).prop_flat_map(|(nvars, nrows)| {
            (
                proptest::collection::vec(-3.0f64..5.0, nvars),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0.0f64..1.0, nvars), // sparsity mask
                        proptest::collection::vec(0.2f64..3.0, nvars), // coefficients
                        0.0f64..3.0,                                   // relation selector
                        0.0f64..4.0,                                   // rhs scale
                    ),
                    nrows,
                ),
            )
                .prop_map(move |(obj, rows)| {
                    let mut lp = LinearProgram::new(Direction::Minimize);
                    for c in &obj {
                        lp.add_variable(*c);
                    }
                    for v in 0..nvars {
                        lp.add_constraint(vec![(v, 1.0)], Relation::LessEq, 10.0);
                    }
                    for (mask, coeffs, rel, rhs) in rows {
                        let sparse: Vec<(usize, f64)> = mask
                            .iter()
                            .zip(&coeffs)
                            .enumerate()
                            .filter(|(_, (m, _))| **m < 0.4) // ~40% fill
                            .map(|(i, (_, c))| (i, *c))
                            .collect();
                        if sparse.is_empty() {
                            continue;
                        }
                        let relation = if rel < 1.0 {
                            Relation::LessEq
                        } else if rel < 2.0 {
                            Relation::GreaterEq
                        } else {
                            Relation::Equal
                        };
                        lp.add_constraint(sparse, relation, rhs);
                    }
                    lp
                })
        })
    }

    /// Whether an optimum's row multipliers certify it (the corpus
    /// minimizes): one per row, the dual objective `Σ duals·rhs` equals the
    /// primal one, and every inequality's multiplier has the sign its
    /// slack's reduced cost demands.
    fn duals_certify(lp: &LinearProgram, solution: &Solution) -> Result<(), String> {
        if solution.duals.len() != lp.num_constraints() {
            return Err(format!(
                "{} duals for {} rows",
                solution.duals.len(),
                lp.num_constraints()
            ));
        }
        let dual_objective: f64 =
            lp.constraints().iter().zip(&solution.duals).map(|(c, y)| c.rhs * y).sum();
        if (dual_objective - solution.objective_value).abs() > 1e-6 {
            return Err(format!("dual objective {dual_objective} vs {}", solution.objective_value));
        }
        for (row, (c, &y)) in lp.constraints().iter().zip(&solution.duals).enumerate() {
            let signed = match c.relation {
                Relation::LessEq => -y,
                Relation::GreaterEq => y,
                Relation::Equal => continue,
            };
            if signed < -1e-7 {
                return Err(format!("row {row} ({:?}) has multiplier {y}", c.relation));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn solutions_are_feasible_and_not_worse_than_origin(lp in arbitrary_bounded_lp()) {
            let sol = solve(&lp).expect("bounded feasible LP must solve");
            prop_assert!(lp.is_feasible(&sol.values, 1e-6));
            // The origin is always feasible here (all rows are <= with rhs > 0),
            // so the optimum must not exceed the origin's objective (0).
            prop_assert!(sol.objective_value <= 1e-6);
            // Objective value must match the returned point.
            prop_assert!((lp.objective_value(&sol.values) - sol.objective_value).abs() < 1e-9);
            // Pivot accounting must add up.
            prop_assert!(sol.stats.iterations
                == sol.stats.phase1_iterations + sol.stats.phase2_iterations);
        }

        /// Tentpole equivalence: the sparse revised simplex and the dense
        /// tableau must agree — same feasibility verdict, and when solvable,
        /// objectives within 1e-6 with both points feasible.
        #[test]
        fn sparse_revised_agrees_with_dense_tableau(lp in arbitrary_sparse_lp()) {
            let sparse = revised::solve(&lp);
            let dense = simplex::solve(&lp);
            match (&sparse, &dense) {
                (Ok(s), Ok(d)) => {
                    prop_assert!(lp.is_feasible(&s.values, 1e-6),
                        "revised solution infeasible");
                    prop_assert!(lp.is_feasible(&d.values, 1e-6),
                        "dense solution infeasible");
                    prop_assert!((s.objective_value - d.objective_value).abs() < 1e-6,
                        "objectives diverge: revised {} vs dense {}",
                        s.objective_value, d.objective_value);
                    for (engine, solution) in [("revised", s), ("dense", d)] {
                        let verdict = duals_certify(&lp, solution);
                        prop_assert!(verdict.is_ok(), "{engine}: {verdict:?}");
                    }
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (a, b) => prop_assert!(false, "verdicts diverge: revised {a:?} vs dense {b:?}"),
            }
        }

        /// An all-zero crash hint is no hint: same pivots, same point, so a
        /// template's first solve and every one-shot solve take the path they
        /// took before hints existed.
        #[test]
        fn all_zero_crash_hint_changes_nothing(lp in arbitrary_sparse_lp()) {
            let form = revised::StandardForm::build(&lp);
            let bare = revised::solve_on_form(&lp, &form, None, &[]);
            let zeros = revised::solve_on_form(&lp, &form, None, &vec![0.0; lp.num_vars()]);
            match (&bare, &zeros) {
                (Ok((a, _)), Ok((b, _))) => {
                    prop_assert_eq!(&a.values, &b.values);
                    prop_assert_eq!(a.stats.phase1_iterations, b.stats.phase1_iterations);
                    prop_assert_eq!(a.stats.phase2_iterations, b.stats.phase2_iterations);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "verdicts diverge"),
            }
        }

        /// Partial pricing must be invisible in the results: the default
        /// solver (candidate-list pricing) and the full-sweep reference must
        /// return the same verdict on cold solves and, when solvable, the
        /// same optimum.
        #[test]
        fn partial_pricing_agrees_with_full_pricing_cold(lp in arbitrary_sparse_lp()) {
            let partial = solve_with_basis(&lp, None);
            let full = revised::solve_with_basis_full_pricing(&lp, None);
            match (&partial, &full) {
                (Ok((p, _)), Ok((f, _))) => {
                    prop_assert!(lp.is_feasible(&p.values, 1e-6),
                        "partial-pricing solution infeasible");
                    prop_assert!(lp.is_feasible(&f.values, 1e-6),
                        "full-pricing solution infeasible");
                    prop_assert!((p.objective_value - f.objective_value).abs() < 1e-6,
                        "objectives diverge: partial {} vs full {}",
                        p.objective_value, f.objective_value);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "error verdicts diverge"),
                (a, b) => prop_assert!(false, "verdicts diverge: partial ok={} vs full ok={}",
                    a.is_ok(), b.is_ok()),
            }
        }

        /// Same agreement on the bounded corpus, where a solution always
        /// exists, plus on warm re-solves: both pricing strategies chain
        /// their own basis through a perturbed-RHS sequence and must land on
        /// the same optimum at every step.
        #[test]
        fn partial_pricing_agrees_with_full_pricing_warm(
            lp in arbitrary_bounded_lp(),
            nvars in 2usize..5,
            scales in proptest::collection::vec(0.2f64..4.0, 1usize..6),
        ) {
            // Cold, bounded corpus.
            let (p, _) = solve_with_basis(&lp, None).expect("bounded partial solve");
            let (f, _) = revised::solve_with_basis_full_pricing(&lp, None)
                .expect("bounded full solve");
            prop_assert!((p.objective_value - f.objective_value).abs() < 1e-6,
                "bounded objectives diverge: partial {} vs full {}",
                p.objective_value, f.objective_value);

            // Warm: min Σ (1 + i) x_i  s.t.  Σ x_i = s (perturbed), x_i <= 3 s.
            let build = |s: f64| {
                let mut lp = LinearProgram::new(Direction::Minimize);
                for i in 0..nvars {
                    lp.add_variable(1.0 + i as f64);
                }
                let all: Vec<(usize, f64)> = (0..nvars).map(|i| (i, 1.0)).collect();
                lp.add_constraint(all, Relation::Equal, s);
                for v in 0..nvars {
                    lp.add_constraint(vec![(v, 1.0)], Relation::LessEq, 3.0 * s);
                }
                lp
            };
            let mut partial_basis: Option<Basis> = None;
            let mut full_basis: Option<Basis> = None;
            for (step, s) in scales.iter().enumerate() {
                let lp = build(*s);
                let (p, pb) = solve_with_basis(&lp, partial_basis.as_ref())
                    .expect("partial warm solve");
                let (f, fb) = revised::solve_with_basis_full_pricing(&lp, full_basis.as_ref())
                    .expect("full warm solve");
                prop_assert!((p.objective_value - f.objective_value).abs() < 1e-6,
                    "step {step}: partial {} vs full {}",
                    p.objective_value, f.objective_value);
                prop_assert!(lp.is_feasible(&p.values, 1e-6));
                partial_basis = Some(pb);
                full_basis = Some(fb);
            }
        }

        /// A forcing row pins its columns at zero: the sparse corpus plus one
        /// equality row `Σ_{j∈S} a_j x_j = 0` with positive `a_j` solves like
        /// the same program with that row and the columns of `S` deleted by
        /// hand — the same verdict, objectives within 1e-9, the columns of
        /// `S` at zero, and duals that still certify the optimum.
        #[test]
        fn forcing_row_solves_like_its_columns_deleted(
            (lp, picks) in arbitrary_sparse_lp().prop_flat_map(|lp| {
                let n = lp.num_vars();
                (Just(lp), proptest::collection::vec((0.0f64..1.0, 0.2f64..3.0), n))
            }),
        ) {
            // `S`: about half the columns, at least one, never all of them.
            let mut forced: Vec<(usize, f64)> = picks
                .iter()
                .enumerate()
                .filter(|(_, p)| p.0 < 0.5)
                .map(|(j, p)| (j, p.1))
                .collect();
            if forced.is_empty() {
                forced.push((0, picks[0].1));
            }
            if forced.len() == lp.num_vars() {
                forced.pop();
            }
            let mut with_row = lp.clone();
            with_row.add_constraint(forced.clone(), Relation::Equal, 0.0);
            // The kept columns, renumbered in order.
            let mut kept = vec![None; lp.num_vars()];
            let mut next = 0;
            for (j, slot) in kept.iter_mut().enumerate() {
                if forced.iter().all(|&(f, _)| f != j) {
                    *slot = Some(next);
                    next += 1;
                }
            }
            let mut deleted = LinearProgram::new(lp.direction());
            for (j, &c) in lp.objective().iter().enumerate() {
                if kept[j].is_some() {
                    deleted.add_variable(c);
                }
            }
            for row in lp.constraints() {
                let coeffs = row.coeffs.iter().filter_map(|&(j, a)| kept[j].map(|k| (k, a)));
                deleted.add_constraint(coeffs.collect(), row.relation, row.rhs);
            }
            match (solve(&with_row), solve(&deleted)) {
                (Ok(f), Ok(d)) => {
                    prop_assert!((f.objective_value - d.objective_value).abs() < 1e-9,
                        "objectives diverge: forcing row {} vs deleted {}",
                        f.objective_value, d.objective_value);
                    prop_assert!(with_row.is_feasible(&f.values, 1e-6));
                    for &(j, _) in &forced {
                        prop_assert_eq!(f.values[j], 0.0, "forced column {}", j);
                    }
                    let verdict = duals_certify(&with_row, &f);
                    prop_assert!(verdict.is_ok(), "{verdict:?}");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false,
                    "verdicts diverge: forcing row {a:?} vs deleted {b:?}"),
            }
        }

        /// Forcing rows that come and go: a min-MLU program over path flows
        /// whose pair demands drop to zero and come back, re-solved through a
        /// template (pooled bases that keep a silent pair's artificial,
        /// seeded crashes), must match a cold solve at every step, with a
        /// silent pair's flows at zero.
        #[test]
        fn template_follows_pairs_that_fall_silent_and_return(
            (paths, capacities, demands) in (2usize..5, 2usize..6).prop_flat_map(|(pairs, edges)| (
                // Two or three paths per pair, each over a random edge mask.
                proptest::collection::vec(
                    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, edges), 2..4),
                    pairs,
                ),
                proptest::collection::vec(1.0f64..3.0, edges),
                proptest::collection::vec(
                    proptest::collection::vec((0.0f64..1.0, 0.5f64..4.0), pairs),
                    2..8,
                ),
            )),
        ) {
            let mut lp = LinearProgram::new(Direction::Minimize);
            let theta = lp.add_variable(1.0);
            let mut flows = Vec::new();
            for (pair, pair_paths) in paths.iter().enumerate() {
                let first = lp.num_vars();
                for _ in pair_paths {
                    flows.push((pair, lp.add_variable(0.0)));
                }
                let row = (first..lp.num_vars()).map(|f| (f, 1.0)).collect();
                lp.add_constraint(row, Relation::Equal, 0.0);
            }
            for (e, &capacity) in capacities.iter().enumerate() {
                let mut row: Vec<(usize, f64)> = Vec::new();
                let mut f = 1;
                for pair_paths in &paths {
                    for mask in pair_paths {
                        if mask[e] < 0.5 {
                            row.push((f, 1.0));
                        }
                        f += 1;
                    }
                }
                row.push((theta, -capacity));
                lp.add_constraint(row, Relation::LessEq, 0.0);
            }
            let mut template = LpTemplate::new(lp);
            for (step, column) in demands.iter().enumerate() {
                for (pair, &(silent, volume)) in column.iter().enumerate() {
                    template.set_rhs(pair, if silent < 0.4 { 0.0 } else { volume });
                }
                let warm = template.solve().expect("template solve must succeed");
                let cold = revised::solve(template.lp()).expect("cold solve must succeed");
                prop_assert!((warm.objective_value - cold.objective_value).abs() < 1e-6,
                    "step {step}: warm {} vs cold {}", warm.objective_value, cold.objective_value);
                prop_assert!(template.lp().is_feasible(&warm.values, 1e-6));
                // A flow basic since its pair was active reads B⁻¹b: zero up
                // to rounding.
                for &(pair, f) in &flows {
                    if column[pair].0 < 0.4 {
                        prop_assert!(warm.values[f] < 1e-9,
                            "step {step}: silent pair {pair} carries {}", warm.values[f]);
                    }
                }
            }
        }

        /// Warm-start-equals-cold-start: over a sequence of perturbed RHS
        /// values, a template (warm) solve and a from-scratch (cold) solve of
        /// the same program must produce the same optimum.
        #[test]
        fn warm_start_equals_cold_start_over_rhs_sequences(
            nvars in 2usize..5,
            scales in proptest::collection::vec(0.2f64..4.0, 1usize..6),
        ) {
            // min Σ (1 + i) x_i  s.t.  Σ x_i = s (perturbed), x_i <= 3 s.
            let mut lp = LinearProgram::new(Direction::Minimize);
            for i in 0..nvars {
                lp.add_variable(1.0 + i as f64);
            }
            let all: Vec<(usize, f64)> = (0..nvars).map(|i| (i, 1.0)).collect();
            lp.add_constraint(all, Relation::Equal, 1.0);
            for v in 0..nvars {
                lp.add_constraint(vec![(v, 1.0)], Relation::LessEq, 3.0);
            }
            let mut template = LpTemplate::new(lp.clone());
            for (step, s) in scales.iter().enumerate() {
                template.set_rhs(0, *s);
                for v in 0..nvars {
                    template.set_rhs(1 + v, 3.0 * s);
                }
                let warm = template.solve().expect("template solve must succeed");
                let cold = revised::solve(template.lp()).expect("cold solve must succeed");
                prop_assert!((warm.objective_value - cold.objective_value).abs() < 1e-6,
                    "step {step}: warm {} vs cold {}", warm.objective_value, cold.objective_value);
                prop_assert!(template.lp().is_feasible(&warm.values, 1e-6));
            }
        }
    }
}
