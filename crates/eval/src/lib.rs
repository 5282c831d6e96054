//! # figret-eval
//!
//! The evaluation harness: scenarios for every topology/traffic pair of the
//! paper, scheme runners, reporting helpers and one function per table/figure
//! of the evaluation section (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for recorded results).

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod profile;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod serving;

pub use args::{FlagSet, FlagValues};
pub use experiments::ExperimentOptions;
pub use profile::print_profile_report;
pub use runner::{omniscient_series, run_scheme, EvalOptions, Scheme, SchemeRun};
pub use scenario::{Scenario, ScenarioOptions};
pub use serving::{print_serve_report, serve, ServeEngine, ServeRun, ServeSimOptions};
