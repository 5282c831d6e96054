//! Shared setup for the sharded-fleet benchmarks (`shard_scale`,
//! `fleet_inference`): random-regular ToR fabrics, sampled sparse pair
//! universes, and warmed [`FleetController`]s in both the LP and the
//! learned-inference serving modes (DESIGN.md §8).

use std::sync::Arc;

use figret::{FigretConfig, FigretModel};
use figret_serve::{FleetController, PredictorKind, ReconfigPolicy, ServeController, UpdateBudget};
use figret_te::PathSet;
use figret_topology::FabricSpec;
use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
use figret_traffic::{ActivePairs, ShardPlan, SparseTrace};

/// Snapshots per benchmark trace (warmup + a few ticks to cycle over).
pub const SNAPSHOTS: usize = 10;
/// Sliding-window length of the LP fleets.
pub const WINDOW: usize = 2;
/// Sampled destinations per source ToR.
pub const PER_SOURCE: usize = 8;

/// A fabric, its sampled pair universe, path set, and traffic trace —
/// everything a fleet benchmark needs to build controllers.
pub struct FleetCase {
    /// k-shortest paths over the sampled universe.
    pub paths: PathSet,
    /// The benchmark traffic trace (sparse columns, slot order).
    pub trace: SparseTrace,
    /// The sampled pair universe.
    pub active: Arc<ActivePairs>,
    /// ToR count of the fabric (source-block partitioning granularity).
    pub num_tors: usize,
}

/// Builds the benchmark case for a `tors`-ToR jellyfish fabric.  `steady`
/// picks the no-churn, hair-width-burst traffic config (demand moves ~0.1%
/// per snapshot, so warm LP bases stay near-optimal); otherwise the default
/// on/off + burst workload.
pub fn fleet_case(tors: usize, steady: bool) -> FleetCase {
    let fabric = FabricSpec::jellyfish(tors).build();
    let active = Arc::new(ActivePairs::sample_among(
        fabric.graph.num_nodes(),
        fabric.num_tors,
        PER_SOURCE,
        7 ^ 0xfab,
    ));
    let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
    let config = if steady {
        TorTrafficConfig {
            num_snapshots: SNAPSHOTS,
            seed: 7,
            on_probability: 0.0,
            off_probability: 0.0,
            burst_magnitude: (0.999, 1.001),
            ..Default::default()
        }
    } else {
        TorTrafficConfig { num_snapshots: SNAPSHOTS, seed: 7, ..Default::default() }
    };
    let trace = tor_trace_sparse(&fabric.graph, &active, &config);
    FleetCase { paths, trace, active, num_tors: fabric.num_tors }
}

/// The benchmark reconfiguration policy: a real joint budget (the shape of
/// the ledger's `dc_fleet_lp`), spent on the first tick of every window.
/// Learned shards propose on every tick regardless; LP shards solve only
/// while a grant is open, so an LP bench that wants to time solves must not
/// use it as is (see [`warmed_lp_fleet`]).
pub fn fleet_policy() -> ReconfigPolicy {
    ReconfigPolicy {
        hysteresis: 0.01,
        budget: Some(UpdateBudget::per_window(4, 8)),
        ..ReconfigPolicy::always_update()
    }
}

/// Builds an LP fleet over `shards` source blocks and pays warmup + the
/// cold first solve outside the timed region, so samples measure the
/// steady warm-tick cost.  The policy keeps [`fleet_policy`]'s hysteresis
/// but has no budget: every tick has a grant open, so every timed tick
/// solves on every shard (under the budget most ticks would be closed and
/// solve nothing).
pub fn warmed_lp_fleet(case: &FleetCase, shards: usize) -> FleetController {
    let plan = ShardPlan::source_blocks(&case.active, case.num_tors, shards);
    let policy = ReconfigPolicy { budget: None, ..fleet_policy() };
    let mut fleet =
        FleetController::lp(&plan, &case.paths, WINDOW, PredictorKind::LastValue, &policy);
    for t in 0..WINDOW {
        fleet.observe_column(case.trace.snapshot(t).values());
    }
    fleet.step_column(case.trace.snapshot(WINDOW).values());
    fleet
}

/// Builds a learned-inference fleet over `shards` source blocks: each shard
/// serves its model's compiled f32 `InferencePlan` with the
/// LP audit disabled, so ticks never touch the solver.  Weights stay at
/// initialisation: inference cost is weight-independent, and training every
/// shard (`FigretModel::train` on its gathered columns, as `serve_sim
/// --engine learned --shards N` does) would only lengthen setup — so this
/// measures serving throughput, not TE quality.  Warmup (the model's history
/// window) and the first decision are paid here, outside the timed region.
pub fn warmed_learned_fleet(
    case: &FleetCase,
    shards: usize,
    config: &FigretConfig,
) -> FleetController {
    let plan = ShardPlan::source_blocks(&case.active, case.num_tors, shards);
    let pol = fleet_policy();
    let controllers = plan
        .shards()
        .iter()
        .map(|shard| {
            let (restricted, _) = case.paths.restrict_to(shard.active());
            let model =
                FigretModel::new(&restricted, &vec![0.0; restricted.num_pairs()], config.clone());
            ServeController::learned(
                &restricted,
                model,
                PredictorKind::LastValue.build(),
                ReconfigPolicy { budget: None, ..pol.clone() },
            )
        })
        .collect();
    let mut fleet = FleetController::from_controllers(&plan, controllers, &pol);
    let window = config.history_window;
    for t in 0..window {
        fleet.observe_column(case.trace.snapshot(t).values());
    }
    fleet.step_column(case.trace.snapshot(window).values());
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_and_learned_fleets_build_and_tick() {
        let case = fleet_case(64, true);
        let mut lp = warmed_lp_fleet(&case, 4);
        let out = lp.step_column(case.trace.snapshot(WINDOW + 1).values());
        assert!(out.global_mlu > 0.0);
        assert_eq!(lp.num_shards(), 4);
        // shard_scale times solving ticks: both ticks so far solved everywhere.
        assert_eq!(lp.lp_stats().solves, 2 * 4);

        let config = FigretConfig::fast_test();
        let mut learned = warmed_learned_fleet(&case, 4, &config);
        let window = config.history_window;
        let out = learned.step_column(case.trace.snapshot(window + 1).values());
        assert!(out.global_mlu > 0.0);
        assert_eq!(out.decision_seconds.len(), 4);
    }
}
