//! # figret-serve
//!
//! The online serving subsystem of the FIGRET reproduction (DESIGN.md §6):
//! a deterministic, discrete-event TE controller that ingests demands as
//! they arrive, forecasts the next snapshot with an online predictor,
//! and decides *whether* reconfiguring is worth its churn — the production
//! loop the batch replay binaries cannot express.
//!
//! * [`predictor`] — stateful one-step-ahead forecasters (last-value, EWMA,
//!   sliding-window mean/max);
//! * [`policy`] — reconfiguration gates: hysteresis on predicted-MLU
//!   regret, a sliding-window update budget, and the learned→LP degradation
//!   fallback;
//! * [`controller`] — the serving loop itself, pairing learned inference
//!   (a model's compiled f32 plan, [`ServedModel`]) with a warm-started
//!   [`figret_solvers::MluTemplate`] LP re-solve;
//! * [`log`] — the bit-deterministic event/decision log plus measured
//!   per-decision latencies;
//! * [`admission`] — the admission layer, asked *before* any candidate is
//!   computed: one hysteresis gate and one sliding-window update budget,
//!   shared by every shard of a fleet and owned by a lone controller, plus
//!   the two solve waves that leave outranked LP shards unsolved;
//! * [`fleet`] — the sharded serving fleet: shard controllers stepped
//!   data-parallel under the global admission layer, merged in stable shard
//!   order for bit-determinism at any thread count (DESIGN.md §8);
//! * [`recovery`] — the self-healing state machine: CUSUM drift detection
//!   and deterministic online retraining of challenger models while the
//!   controller is degraded (DESIGN.md §9);
//! * [`shadow`] — shadow-mode challengers audited tick-by-tick against the
//!   warm LP reference and promoted after sustained wins;
//! * [`telemetry`] — out-of-band metrics wiring (DESIGN.md §10):
//!   pre-registered counters, span histograms and gauges for the
//!   controller, LP, recovery ladder and fleet phases, never folded into
//!   the decision digests.
//!
//! Demand arrives as **pair columns** — one `f64` per active SD pair, in the
//! slot order of the controller's path-set universe — through exactly one
//! ingestion path: [`ServeController::observe_pairs`] /
//! [`ServeController::step_pairs`] for a single controller,
//! [`FleetController::observe_column`] / [`FleetController::step_column`]
//! for a fleet (a `ShardPlan::single` fleet *is* the unsharded controller,
//! record for record).  Dense matrices and sparse columns are flattened at
//! the caller's I/O edge (`DemandMatrix::flatten_pairs_into`,
//! `SparseDemand::values`); a [`figret_traffic::SparseDemandStream`] (trace
//! replay or the unbounded online generator) yields such columns for as
//! long as the caller keeps asking.  The harness and the `serve_sim` report
//! binary live in `figret-eval`.
//!
//! # Example
//!
//! ```
//! use figret_serve::{LastValue, ReconfigPolicy, ServeController};
//! use figret_te::PathSet;
//! use figret_topology::{Topology, TopologySpec};
//! use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
//!
//! let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
//! let paths = PathSet::k_shortest(&pod, 3);
//! let trace = pod_trace(&pod, &PodTrafficConfig { num_snapshots: 10, ..Default::default() });
//! let mut controller = ServeController::lp(
//!     &paths,
//!     2,
//!     Box::new(LastValue::new()),
//!     ReconfigPolicy::default(),
//! );
//! // Flatten at the edge: the controller only ever sees pair columns.
//! controller.observe_pairs(&trace.matrix(0).flatten_pairs());
//! controller.observe_pairs(&trace.matrix(1).flatten_pairs());
//! let outcome = controller.step_pairs(&trace.matrix(2).flatten_pairs());
//! assert!(outcome.record.realized_mlu.is_finite());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod controller;
pub mod fleet;
pub mod log;
pub mod policy;
pub mod predictor;
pub mod recovery;
pub mod shadow;
pub mod telemetry;

pub use admission::{AdmissionStats, GlobalAdmission, ShardBid};
pub use controller::{Proposal, ServeController, ServedModel, StepOutcome};
pub use fleet::{FleetController, FleetTickOutcome};
pub use log::{
    Action, DecisionSource, HoldReason, ServeLog, TickRecord, Transition, TransitionRecord,
};
pub use policy::{FallbackPolicy, ReconfigPolicy, UpdateBudget};
pub use predictor::{Ewma, LastValue, OnlinePredictor, PredictorKind, SlidingMax, SlidingMean};
pub use recovery::{CusumConfig, CusumDetector, RecoveryConfig, RecoveryManager, RecoveryStats};
pub use shadow::ShadowModel;
pub use telemetry::{FleetTelemetry, ServeTelemetry, FLEET_PHASES};
