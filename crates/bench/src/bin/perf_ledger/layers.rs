//! Per-layer metrics of the traced pass.
//!
//! Three sources, never mixed within one metric: the benchmark's own spans
//! and per-tick samples (*outside*), the program's telemetry registry and
//! stats accessors (*registry*), and the decision logs.  Counts repeat
//! exactly per seed; seconds do not.

use figret_serve::{Action, DecisionSource, HoldReason, ServeLog, FLEET_PHASES};
use figret_telemetry::Registry;

use crate::metrics::Values;
use crate::run::{model_tick_share, Pass};
use crate::spans::SpanRecorder;
use crate::stats::{mean, median, percentile, self_time};
use crate::workloads::{Controller, Setup};

/// What the traced half of a run hands over for derivation.
pub struct Traced<'a> {
    /// The set-up the traced pass ran on (controller, facts).
    pub setup: &'a Setup,
    /// Spans of the traced set-up, pass and probes.
    pub spans: &'a SpanRecorder,
    /// Summed tick time of one untraced pass (for the tracing overhead).
    pub untraced_single_pass_s: f64,
    /// The traced pass.
    pub traced: &'a Pass,
    /// Realized ÷ omniscient MLU on the kept ticks; empty where no
    /// omniscient reference is computed.
    pub regrets: &'a [f64],
}

/// Set-up stage spans and the metric each one's summed duration reports as.
const STAGES: [(&str, &str); 7] = [
    ("topology.build", "topology.build_s"),
    ("te.pathset_build", "te.pathset_build_s"),
    ("traffic.trace_gen", "traffic.trace_gen_s"),
    ("core.train", "core.train_s"),
    ("nn.plan_compile", "nn.plan_compile_s"),
    ("serve.controller_build", "serve.controller_build_s"),
    ("serve.warmup", "serve.warmup_s"),
];

fn ratio(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

/// Fills `out` with every per-layer metric that applies to the run.
pub fn derive(run: &Traced<'_>, out: &mut Values) {
    for (span, metric) in STAGES {
        out.set_opt(metric, run.spans.total_seconds(span));
    }
    for &(name, value) in &run.setup.facts {
        out.set(name, value);
    }
    let controller = &run.setup.controller;
    let tick_total = run.traced.tick_total_s();
    let registry = controller.telemetry_snapshot().expect("the traced pass arms telemetry");
    lp(controller, &registry, run.traced, out);
    match controller {
        Controller::Solo(..) => solo_shares(&registry, tick_total, out),
        Controller::Fleet(_) => fleet(controller, &registry, run.traced, out),
    }
    decisions(controller.logs(), run.traced, out);
    out.set_opt("serve.model_tick_share", model_tick_share(controller));
    if controller.recovery_armed() {
        recovery(controller, &registry, run.traced, out);
    }
    // The deep tail is one or two episodes deep on `recovery_drill` (p99
    // scatters 12-17 % between seeds where p95 scatters 4 %), so it is shown
    // here and the gated tail metric is `mlu_p95`.
    out.set_opt("eval.mlu_p99", percentile(&run.traced.mlu, 0.99));
    out.set_opt("eval.mlu_regret_mean", mean(run.regrets));
    out.set_opt("eval.mlu_regret_p99", percentile(run.regrets, 0.99));
    out.set_opt(
        "telemetry.trace_overhead_pct",
        ratio(tick_total, run.untraced_single_pass_s).map(|r| (r - 1.0) * 100.0),
    );
}

/// Summed seconds of a registry histogram (0 when it recorded nothing).
fn seconds(registry: &Registry, name: &str) -> f64 {
    registry.histogram_by_name(name).map_or(0.0, |h| h.sum())
}

fn lp(controller: &Controller, registry: &Registry, pass: &Pass, out: &mut Values) {
    let stats = controller.lp_stats();
    if stats.solves == 0 {
        return;
    }
    out.set("lp.solves", stats.solves as f64);
    out.set("lp.warm_share", stats.warm_solves as f64 / stats.solves as f64);
    out.set("lp.phase1_pivots", stats.totals.phase1_iterations as f64);
    out.set("lp.phase2_pivots", stats.totals.phase2_iterations as f64);
    out.set("lp.reinversions", stats.totals.refactorizations as f64);
    out.set_opt("lp.pivots_per_tick_p50", median(&pass.lp_pivots));
    out.set_opt("lp.pivots_per_tick_p99", percentile(&pass.lp_pivots, 0.99));
    out.set("lp.solve_s", seconds(registry, "figret_lp_solve_seconds"));
    out.set("lp.phase1_s", stats.totals.phase1_seconds);
    out.set("lp.phase2_s", stats.totals.phase2_seconds);
    out.set("lp.factor_s", stats.totals.factor_seconds);
}

/// One controller's tick, split into self times: a span minus the child
/// spans it covers.  The candidate span covers the LP solve (audits and
/// fallback) and the shadow audit; the finish span covers retraining.
fn solo_shares(registry: &Registry, tick_total: f64, out: &mut Values) {
    let predict = seconds(registry, "figret_serve_predict_seconds");
    let candidate = seconds(registry, "figret_serve_candidate_seconds{engine=\"model\"}")
        + seconds(registry, "figret_serve_candidate_seconds{engine=\"lp\"}");
    let lp_solve = seconds(registry, "figret_lp_solve_seconds");
    let shadow = seconds(registry, "figret_recovery_shadow_audit_seconds");
    let mlu_eval = seconds(registry, "figret_serve_mlu_eval_seconds");
    let finish = seconds(registry, "figret_serve_finish_seconds");
    let retrain = seconds(registry, "figret_recovery_retrain_seconds");
    let parts = [
        ("serve.predict_share", predict),
        ("serve.candidate_share", self_time(candidate, &[lp_solve, shadow])),
        ("serve.lp_solve_share", lp_solve),
        ("serve.shadow_audit_share", shadow),
        ("serve.mlu_eval_share", mlu_eval),
        ("serve.finish_share", self_time(finish, &[retrain])),
        ("serve.retrain_share", retrain),
    ];
    let mut covered = 0.0;
    for (name, part) in parts {
        covered += part;
        out.set_opt(name, ratio(part, tick_total));
    }
    // What no span covers is reported, not hidden.
    out.set_opt("serve.untraced_share", ratio(tick_total - covered, tick_total));
}

fn fleet(controller: &Controller, registry: &Registry, pass: &Pass, out: &mut Values) {
    let tick_total = pass.tick_total_s();
    let phase =
        |name: &str| seconds(registry, &format!("figret_fleet_phase_seconds{{phase=\"{name}\"}}"));
    let metrics = [
        "fleet.scatter_share",
        "fleet.propose_share",
        "fleet.admission_share",
        "fleet.finish_share",
        "fleet.merge_share",
    ];
    let mut covered = 0.0;
    for (name, metric) in FLEET_PHASES.iter().zip(metrics) {
        covered += phase(name);
        out.set_opt(metric, ratio(phase(name), tick_total));
    }
    out.set_opt("serve.untraced_share", ratio(tick_total - covered, tick_total));

    // The slowest shard sets the tick: max ÷ mean of the shards' decision
    // seconds, averaged over ticks.
    let shards = controller.logs().len() as f64;
    let imbalance: Vec<f64> = pass
        .decision_max_s
        .iter()
        .zip(&pass.decision_sum_s)
        .filter(|(_, &sum)| sum > 0.0)
        .map(|(&max, &sum)| max * shards / sum)
        .collect();
    out.set_opt("fleet.shard_imbalance", mean(&imbalance));
    // Shard work done ÷ what the threads could have done during the two
    // parallel phases; the gap to 1 is imbalance plus the cost of spawning
    // threads on every parallel call.
    let threads = rayon_threads() as f64;
    let busy: f64 = pass.decision_sum_s.iter().sum();
    out.set_opt(
        "fleet.parallel_efficiency",
        ratio(busy, threads * (phase("propose") + phase("finish"))),
    );
    if let Some(admission) = controller.admission_stats() {
        out.set_opt("fleet.grant_share", ratio(admission.grants as f64, admission.bids as f64));
    }
}

/// Worker threads of the vendored rayon: `RAYON_NUM_THREADS`, which `main`
/// sets before anything else runs.
pub fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// What the decision logs say, summed over shards.
fn decisions(logs: &[ServeLog], pass: &Pass, out: &mut Values) {
    out.set_opt("serve.decision_p50_us", median(&pass.decision_max_s).map(|s| s * 1e6));
    out.set_opt("serve.decision_p99_us", percentile(&pass.decision_max_s, 0.99).map(|s| s * 1e6));
    let records = || logs.iter().flat_map(|l| &l.records);
    let decided = records().filter(|r| r.source.is_some()).count() as f64;
    let count = |action: Action| records().filter(|r| r.action == action).count() as f64;
    let updates = count(Action::Update);
    out.set_opt("serve.update_rate", ratio(updates, decided));
    out.set_opt(
        "serve.hold_hysteresis_share",
        ratio(count(Action::Hold(HoldReason::BelowHysteresis)), decided),
    );
    out.set_opt(
        "serve.hold_budget_share",
        ratio(count(Action::Hold(HoldReason::BudgetExhausted)), decided),
    );
    out.set_opt(
        "serve.churn_per_update",
        ratio(logs.iter().map(ServeLog::total_churn).sum(), updates),
    );
}

fn recovery(controller: &Controller, registry: &Registry, pass: &Pass, out: &mut Values) {
    let stats = controller.recovery_stats();
    out.set("recovery.retrains", stats.retrains as f64);
    out.set("recovery.retrain_total_s", stats.retrain_seconds);
    out.set_opt("recovery.retrain_p50_ms", median(&pass.retrain_round_s).map(|s| s * 1e3));
    out.set("recovery.trips", stats.detector_trips as f64);
    out.set("recovery.promotions", stats.promotions as f64);
    out.set("recovery.demotions", stats.demotions as f64);
    let log = &controller.logs()[0];
    if let (Some(fell), Some(back)) = (log.fallback_tick(), log.recovery_tick()) {
        out.set("recovery.ticks_to_recovery", back.saturating_sub(fell) as f64);
    }
    let decided = log.records.iter().filter(|r| r.source.is_some()).count() as f64;
    let on_lp = log.records.iter().filter(|r| r.source == Some(DecisionSource::LpWarm)).count();
    out.set_opt("recovery.fallback_tick_share", ratio(on_lp as f64, decided));
    let audits = |result: &str| {
        let name = format!("figret_recovery_shadow_audits_total{{result=\"{result}\"}}");
        registry.counter_by_name(&name).unwrap_or(0) as f64
    };
    out.set_opt("recovery.shadow_win_share", ratio(audits("win"), audits("win") + audits("loss")));
}
