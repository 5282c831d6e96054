//! Telemetry is strictly out-of-band (DESIGN.md §10): arming it must not
//! perturb a single decision — records and digests are bit-identical with
//! telemetry on and off — while the armed registry's deterministic facts
//! (counters, gauges, histogram counts) are themselves reproducible across
//! runs.  Only histogram *latency values* may differ between runs; they
//! never reach a digest.

use figret_serve::{
    FallbackPolicy, FleetController, PredictorKind, ReconfigPolicy, ServeController, ServeLog,
    UpdateBudget,
};
use figret_te::PathSet;
use figret_telemetry::Registry;
use figret_topology::{Graph, Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{
    OnlineStream, OnlineStreamConfig, ShardPlan, SparseDemandStream, TrafficTrace,
};

const WINDOW: usize = 2;

fn pod() -> (Graph, PathSet) {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let ps = PathSet::k_shortest(&g, 3);
    (g, ps)
}

fn policy() -> ReconfigPolicy {
    ReconfigPolicy {
        hysteresis: 0.02,
        budget: Some(UpdateBudget::per_window(2, 6)),
        fallback: FallbackPolicy::disabled(),
    }
}

/// One LP serving run over the online generator; returns the log and the
/// final registry snapshot (when armed).
fn run_lp(seed: u64, ticks: usize, armed: bool) -> (ServeLog, Option<Registry>) {
    let (g, ps) = pod();
    let mut controller =
        ServeController::lp(&ps, WINDOW, PredictorKind::LastValue.build(), policy());
    if armed {
        controller.enable_telemetry();
    }
    let mut stream =
        OnlineStream::from_graph(&g, 0.25, OnlineStreamConfig { seed, ..Default::default() });
    let mut log = ServeLog::new();
    for _ in 0..WINDOW {
        let column = stream.next_column().expect("online streams never end");
        controller.observe_pairs(column.values());
    }
    for _ in 0..ticks {
        let column = stream.next_column().expect("online streams never end");
        let outcome = controller.step_pairs(column.values());
        log.push(outcome.record, outcome.decision_seconds);
    }
    (log, controller.telemetry_snapshot())
}

/// Counter values, gauge names and histogram sample counts — the
/// deterministic projection of a registry (sums are wall-clock).
type DeterministicView = (Vec<(String, u64)>, Vec<String>, Vec<(String, u64)>);

fn deterministic_view(registry: &Registry) -> DeterministicView {
    let counters = registry.counters().iter().map(|(n, v)| (n.to_string(), *v)).collect();
    let gauges = registry.gauges().iter().map(|(n, _)| n.to_string()).collect();
    let hists = registry.histograms().iter().map(|(n, h)| (n.to_string(), h.count())).collect();
    (counters, gauges, hists)
}

#[test]
fn arming_telemetry_never_perturbs_the_decision_log() {
    let (off, no_registry) = run_lp(7, 12, false);
    let (on, registry) = run_lp(7, 12, true);
    assert!(no_registry.is_none(), "a disarmed controller must carry no registry");
    let registry = registry.expect("an armed controller must snapshot its registry");

    assert_eq!(off.records, on.records, "telemetry must be out-of-band");
    assert_eq!(off.digest(), on.digest());
    assert_eq!(off.decision_digest(), on.decision_digest());

    // The registry covers the run: one tick and one decision latency per
    // step, and every span histogram the decision path crosses has samples.
    assert_eq!(registry.counter_by_name("figret_serve_ticks_total"), Some(12));
    let decisions =
        registry.histogram_by_name("figret_serve_decision_seconds").expect("decision span");
    assert_eq!(decisions.count(), 12);
    for span in ["figret_serve_predict_seconds", "figret_serve_finish_seconds"] {
        let hist = registry.histogram_by_name(span).expect("span histogram");
        assert_eq!(hist.count(), 12, "{span} must sample every tick");
    }
    let updates = registry.counter_by_name("figret_serve_updates_total").expect("updates");
    let holds: u64 = registry
        .counters()
        .iter()
        .filter(|(n, _)| n.starts_with("figret_serve_holds_total"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(updates + holds, 12, "every tick is an update or a hold");

    // A tick either computed its candidate (one candidate span, one LP
    // solve) or skipped it because no grant was open (counted, no span).
    let skipped =
        registry.counter_by_name("figret_serve_candidates_skipped_total").expect("skip counter");
    let candidates = registry
        .histogram_by_name("figret_serve_candidate_seconds{engine=\"lp\"}")
        .expect("LP candidate span")
        .count();
    assert!(skipped > 0, "the budget must close some ticks");
    assert_eq!(skipped + candidates, 12);
    assert_eq!(registry.counter_by_name("figret_lp_solves_total"), Some(candidates));
    let unsolved = on.records.iter().filter(|r| r.predicted_mlu_candidate.is_none()).count();
    assert_eq!(skipped as usize, unsolved);
}

#[test]
fn armed_registry_is_deterministic_across_runs() {
    let (log_a, a) = run_lp(11, 10, true);
    let (log_b, b) = run_lp(11, 10, true);
    assert_eq!(log_a.digest(), log_b.digest());
    let a = a.expect("armed");
    let b = b.expect("armed");
    assert_eq!(deterministic_view(&a), deterministic_view(&b));
}

fn run_fleet(
    trace: &TrafficTrace,
    shards: usize,
    armed: bool,
) -> (FleetController, Option<Registry>) {
    let (_, ps) = pod();
    let plan = ShardPlan::source_blocks(trace.active(), trace.num_nodes(), shards);
    let mut fleet = FleetController::lp(&plan, &ps, WINDOW, PredictorKind::LastValue, &policy());
    if armed {
        fleet.enable_telemetry();
    }
    for t in 0..trace.len() {
        let column = trace.snapshot(t).values();
        if t < WINDOW {
            fleet.observe_column(column);
        } else {
            fleet.step_column(column);
        }
    }
    let snapshot = fleet.telemetry_snapshot();
    (fleet, snapshot)
}

#[test]
fn fleet_telemetry_is_out_of_band_and_merges_in_stable_order() {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let trace = pod_trace(&g, &PodTrafficConfig { num_snapshots: 10, ..Default::default() });
    let (off, no_registry) = run_fleet(&trace, 3, false);
    let (on, registry) = run_fleet(&trace, 3, true);
    assert!(no_registry.is_none());
    let registry = registry.expect("armed fleet must snapshot");

    assert_eq!(off.digest(), on.digest(), "fleet telemetry must be out-of-band");
    assert_eq!(off.decision_digest(), on.decision_digest());

    let ticks = (trace.len() - WINDOW) as u64;
    assert_eq!(registry.counter_by_name("figret_fleet_ticks_total"), Some(ticks));
    for phase in ["scatter", "propose", "admission", "finish", "merge"] {
        let name = format!("figret_fleet_phase_seconds{{phase=\"{phase}\"}}");
        let hist = registry.histogram_by_name(&name).expect("fleet phase histogram");
        assert_eq!(hist.count(), ticks, "phase '{phase}' must sample every tick");
    }
    // Shard-local spans survive the merge: 3 shards × ticks decisions.
    let decisions =
        registry.histogram_by_name("figret_serve_decision_seconds").expect("merged spans");
    assert_eq!(decisions.count(), 3 * ticks);
    // Every shard tick solved its LP, skipped it on a closed tick, or was
    // outranked on an open one — and the counters say which.
    let counter = |name: &str| registry.counter_by_name(name).expect(name);
    let outranked = counter("figret_serve_candidates_outranked_total");
    assert!(outranked > 0, "three LP shards must outnumber the two grants");
    assert_eq!(outranked as usize, on.admission_stats().holds_outranked);
    assert_eq!(
        counter("figret_lp_solves_total")
            + counter("figret_serve_candidates_skipped_total")
            + outranked,
        3 * ticks
    );

    // The merged snapshot is reproducible (stable shard order).
    let (_, again) = run_fleet(&trace, 3, true);
    assert_eq!(
        deterministic_view(&registry),
        deterministic_view(&again.expect("armed")),
        "merged fleet registries must agree across identical runs"
    );
}
