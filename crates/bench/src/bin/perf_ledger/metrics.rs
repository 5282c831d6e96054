//! The names every later performance claim uses.
//!
//! `BENCHMARK.json` carries the same two tables; a test below keeps the two
//! from drifting apart.  What each per-layer metric is expected to move, and
//! on which workload, is written down in the README beside this file.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction, and for an end-to-end metric the
/// share of the old median by which it may worsen before `compare` fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the controller sees.  Every one is defined on every
/// workload and measured with tracing off.
///
/// A bound has to clear what the metric does on an unchanged commit (README,
/// "Spread"), or `compare` and the benchmark driver cry regression at noise.
/// The sandbox host drifts by up to 17 % within the hour, and on `lp_monolith`
/// and `recovery_drill` the seed itself moves the work by 6 to 8 %: hence
/// 25 % on the clock readings.  `recovery_drill`, whose ladder is chaotic in
/// the demand noise, sets the quality bounds.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ticks_per_s", "1/s", Higher, 0.25),
    e2e("tick_p50_us", "us", Lower, 0.25),
    e2e("tick_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.08),
    e2e("mlu_mean", "ratio", Lower, 0.06),
    e2e("mlu_p95", "ratio", Lower, 0.12),
];

/// Metrics of single layers (layer = crate), from the traced pass, the
/// probes and the program's own telemetry registry.
pub const PER_LAYER: [MetricDef; 64] = [
    // Set-up stages, timed from outside.
    layer("topology.build_s", "s", Lower),
    layer("te.pathset_build_s", "s", Lower),
    layer("te.pathset_paths", "count", Lower),
    layer("traffic.trace_gen_s", "s", Lower),
    layer("traffic.trace_mib", "MiB", Lower),
    layer("core.train_s", "s", Lower),
    layer("core.train_samples_per_s", "1/s", Higher),
    layer("core.final_loss", "ratio", Lower),
    layer("nn.plan_compile_s", "s", Lower),
    layer("serve.controller_build_s", "s", Lower),
    layer("serve.warmup_s", "s", Lower),
    // Probes: one public call, timed alone on the workload's own columns.
    layer("te.mlu_eval_us", "us", Lower),
    layer("nn.plan_forward_us", "us", Lower),
    layer("nn.graph_forward_us", "us", Lower),
    layer("solvers.template_build_s", "s", Lower),
    layer("solvers.cold_solve_ms", "ms", Lower),
    layer("solvers.warm_solve_ms", "ms", Lower),
    // figret_lp, from the registry and `lp_stats()`.
    layer("lp.solves", "count", Lower),
    layer("lp.warm_share", "ratio", Higher),
    layer("lp.phase1_pivots", "count", Lower),
    layer("lp.phase2_pivots", "count", Lower),
    layer("lp.reinversions", "count", Lower),
    layer("lp.pivots_per_tick_p50", "count", Lower),
    layer("lp.pivots_per_tick_p99", "count", Lower),
    layer("lp.solve_s", "s", Lower),
    layer("lp.phase1_s", "s", Lower),
    layer("lp.phase2_s", "s", Lower),
    layer("lp.factor_s", "s", Lower),
    // The controller's tick, as self-time shares of the summed tick time.
    layer("serve.predict_share", "ratio", Lower),
    layer("serve.candidate_share", "ratio", Lower),
    layer("serve.lp_solve_share", "ratio", Lower),
    layer("serve.mlu_eval_share", "ratio", Lower),
    layer("serve.finish_share", "ratio", Lower),
    layer("serve.retrain_share", "ratio", Lower),
    layer("serve.shadow_audit_share", "ratio", Lower),
    layer("serve.untraced_share", "ratio", Lower),
    layer("serve.decision_p50_us", "us", Lower),
    layer("serve.decision_p99_us", "us", Lower),
    layer("serve.update_rate", "ratio", Lower),
    layer("serve.hold_hysteresis_share", "ratio", Higher),
    layer("serve.hold_budget_share", "ratio", Lower),
    layer("serve.churn_per_update", "ratio", Lower),
    layer("serve.model_tick_share", "ratio", Higher),
    // The fleet's tick, as phase shares of the summed tick time.
    layer("fleet.scatter_share", "ratio", Lower),
    layer("fleet.propose_share", "ratio", Lower),
    layer("fleet.admission_share", "ratio", Lower),
    layer("fleet.finish_share", "ratio", Lower),
    layer("fleet.merge_share", "ratio", Lower),
    layer("fleet.shard_imbalance", "ratio", Lower),
    layer("fleet.parallel_efficiency", "ratio", Higher),
    layer("fleet.grant_share", "ratio", Higher),
    // The recovery ladder.
    layer("recovery.retrains", "count", Lower),
    layer("recovery.retrain_total_s", "s", Lower),
    layer("recovery.retrain_p50_ms", "ms", Lower),
    layer("recovery.trips", "count", Lower),
    layer("recovery.promotions", "count", Higher),
    layer("recovery.demotions", "count", Lower),
    layer("recovery.ticks_to_recovery", "count", Lower),
    layer("recovery.fallback_tick_share", "ratio", Lower),
    layer("recovery.shadow_win_share", "ratio", Higher),
    // Quality against the omniscient LP, and what tracing costs.
    layer("eval.mlu_p99", "ratio", Lower),
    layer("eval.mlu_regret_mean", "ratio", Lower),
    layer("eval.mlu_regret_p99", "ratio", Lower),
    layer("telemetry.trace_overhead_pct", "%", Lower),
];

/// Whether `name` is made of letters, digits, `_`, `.` and `-` only, starts
/// with a letter or digit and has at most 64 characters — the form
/// `BENCHMARK.json` requires of workload and metric names.
#[cfg(test)]
pub fn is_plain_name(name: &str) -> bool {
    let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(plain)
}

/// Measured values by metric name.  A metric with no value was not
/// applicable to the workload (its layer did not run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Stores a value under a name one of the two tables defines.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table knows: a metric that is measured but
    /// not declared would silently vanish from every result.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is not declared in metrics.rs"
        );
        self.0.insert(name, value);
    }

    /// Stores a value if there is one.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// The value stored under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn metric_names_are_plain_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_plain_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is declared twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
        }
        assert!(!is_plain_name(".hidden") && !is_plain_name("a b") && !is_plain_name(""));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Values::default().set("serve.made_up", 1.0);
    }

    /// `BENCHMARK.json` is the contract later PRs are checked against; it
    /// must name exactly the workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = manifest
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name()));
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = if def.better == Lower { "lower" } else { "higher" };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
            }
        }
    }
}
