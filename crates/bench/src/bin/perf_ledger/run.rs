//! One run of one workload: set-up, the untraced passes, and — when tracing —
//! the traced pass, the probes and the omniscient reference.
//!
//! Closed loop, one client: the next demand column is handed over when the
//! previous `step_*` call has returned.  A tick's time is the wall time of
//! that one call, read by the same two instructions in every pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use figret_eval::serving::peak_rss_bytes;
use figret_serve::{DecisionSource, Transition};
use figret_solvers::MluTemplate;
use figret_te::max_link_utilization_pairs;

use crate::layers::{self, Traced};
use crate::metrics::Values;
use crate::probes::{self, PROBE_COLUMNS};
use crate::spans::SpanRecorder;
use crate::stats::{mean, median, percentile};
use crate::workloads::{setup, Controller, Scale, Setup, Workload, FLEET_SHARDS, PASSES};

/// Ticks (beyond the leading probe columns) whose demand the traced pass
/// keeps for the omniscient reference.
const OMNISCIENT_SAMPLES: usize = 400;
/// An untraced run sets up once per pass, and then again until this much time
/// went into setting up, so that a millisecond set-up is a median of many and
/// a training run of seconds is not repeated for its own sake, …
const SETUP_BUDGET_S: f64 = 1.5;
/// … but never more often than this.
const MAX_SETUPS: usize = 25;

/// What one serving pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ticks the pass was asked to serve.
    pub attempted: usize,
    /// Wall seconds of each `step_*` call, in tick order.
    pub tick_s: Vec<f64>,
    /// Realized (global) MLU of each tick.
    pub mlu: Vec<f64>,
    /// The program's own decision seconds: slowest shard of each tick.
    pub decision_max_s: Vec<f64>,
    /// The same, summed over shards.
    pub decision_sum_s: Vec<f64>,
    /// Wall seconds of the whole pass, load generation included.
    pub wall_s: f64,
    /// LP pivots of each tick that solved (traced pass only).
    pub lp_pivots: Vec<f64>,
    /// Seconds of each retraining round (traced pass only).
    pub retrain_round_s: Vec<f64>,
    /// `(tick, demand column)` kept for the probes and the omniscient
    /// reference (traced pass only).
    pub kept: Vec<(usize, Vec<f64>)>,
}

impl Pass {
    /// Summed tick time.
    pub fn tick_total_s(&self) -> f64 {
        self.tick_s.iter().sum()
    }

    /// Folds another serving of the same ticks into this one: every tick
    /// keeps the smaller of its two times.  A pass that a panic cut short
    /// cuts the result short.
    fn keep_faster_ticks(&mut self, other: &Pass) {
        let reached = self.tick_s.len().min(other.tick_s.len());
        self.tick_s.truncate(reached);
        self.mlu.truncate(reached);
        for (mine, theirs) in self.tick_s.iter_mut().zip(&other.tick_s) {
            *mine = mine.min(*theirs);
        }
        self.wall_s += other.wall_s;
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Its scale.
    pub scale: Scale,
    /// Whether the traced pass ran (and `per_layer` is filled).
    pub traced: bool,
    /// Decision ticks attempted in each pass.
    pub attempted: usize,
    /// Ticks that were not reached (a panic ends the pass) or returned a
    /// non-finite or non-positive MLU.
    pub failed: usize,
    /// Validity guards that did not hold; empty when the run is correct.
    pub errors: Vec<String>,
    /// End-to-end metrics of the untraced passes.
    pub end_to_end: Values,
    /// Per-layer metrics; empty unless `traced`.
    pub per_layer: Values,
    /// `(digest, decision_digest)` of every pass.
    pub digests: (u64, u64),
    /// Wall seconds of each part of the run, by name.
    pub wall_s: Vec<(&'static str, f64)>,
}

/// Serves `ticks` decision ticks.  With a recorder the pass is the traced
/// one: a span per tick, and the per-tick counters and columns the per-layer
/// metrics need — all taken outside the timed call.
fn serve(setup: &mut Setup, ticks: usize, mut trace: Option<&mut SpanRecorder>) -> Pass {
    let mut pass = Pass { attempted: ticks, ..Pass::default() };
    let keep_every = (ticks / OMNISCIENT_SAMPLES).max(1);
    let span = trace.as_deref_mut().map(|rec| rec.begin("serve"));
    let wall = Instant::now();
    // A panic inside the program ends the pass; the ticks not reached count
    // as failed instead of taking the whole run's numbers with them.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let mut pivots = setup.controller.lp_stats().totals.iterations;
        let mut retrain_s = setup.controller.recovery_stats().retrain_seconds;
        for t in 0..ticks {
            let column = setup.source.next_column();
            let tick = setup.controller.step(column);
            pass.tick_s.push((tick.end - tick.start).as_secs_f64());
            pass.mlu.push(tick.mlu);
            pass.decision_max_s.push(tick.decision_max_s);
            pass.decision_sum_s.push(tick.decision_sum_s);
            let Some(rec) = trace.as_deref_mut() else { continue };
            rec.record("tick", tick.start, tick.end, t);
            let pivots_now = setup.controller.lp_stats().totals.iterations;
            if pivots_now > pivots {
                pass.lp_pivots.push((pivots_now - pivots) as f64);
                pivots = pivots_now;
            }
            let retrain_now = setup.controller.recovery_stats().retrain_seconds;
            if retrain_now > retrain_s {
                pass.retrain_round_s.push(retrain_now - retrain_s);
                retrain_s = retrain_now;
            }
            if t < PROBE_COLUMNS || t % keep_every == 0 {
                pass.kept.push((t, column.to_vec()));
            }
        }
    }));
    pass.wall_s = wall.elapsed().as_secs_f64();
    if let (Some(rec), Some(span)) = (trace, span) {
        rec.end(span);
    }
    pass
}

/// Whether an untraced run has set up often enough.
fn enough_setups(seconds: &[f64]) -> bool {
    seconds.iter().sum::<f64>() >= SETUP_BUDGET_S || seconds.len() >= MAX_SETUPS
}

fn end_to_end(setup_s: &[f64], pass: &Pass) -> Values {
    let mut v = Values::default();
    v.set_opt("setup_s", median(setup_s));
    v.set("ticks_per_s", pass.tick_s.len() as f64 / pass.tick_total_s());
    v.set_opt("tick_p50_us", median(&pass.tick_s).map(|s| s * 1e6));
    v.set_opt("tick_p99_us", percentile(&pass.tick_s, 0.99).map(|s| s * 1e6));
    v.set_opt("peak_rss_mib", peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0)));
    v.set_opt("mlu_mean", mean(&pass.mlu));
    v.set_opt("mlu_p95", percentile(&pass.mlu, 0.95));
    v
}

/// Ticks of a pass that count as failed.
fn failed_ticks(pass: &Pass) -> usize {
    let bad = pass.mlu.iter().filter(|m| !(m.is_finite() && **m > 0.0)).count();
    pass.attempted - pass.mlu.len() + bad
}

/// Share of decided ticks whose candidate came from the model.
pub fn model_tick_share(controller: &Controller) -> Option<f64> {
    let decided = || controller.logs().iter().flat_map(|l| &l.records).filter_map(|r| r.source);
    let total = decided().count();
    (total > 0)
        .then(|| decided().filter(|s| *s == DecisionSource::Model).count() as f64 / total as f64)
}

/// The guards that fail a run instead of letting it measure a different
/// workload than the one it is named after.  The shape guards need the full
/// run — 40 snapshots do not train a model the audit accepts, 30 ticks do
/// not reach a promotion — so a smoke run checks only that nothing panicked.
fn check_workload(
    workload: Workload,
    scale: Scale,
    pass: &Pass,
    controller: &Controller,
) -> Vec<String> {
    let mut errors = Vec::new();
    if pass.mlu.len() < pass.attempted {
        errors.push(format!("the program panicked at tick {}", pass.mlu.len()));
    }
    if scale.smoke {
        return errors;
    }
    match workload {
        Workload::WanLearned => {
            let share = model_tick_share(controller).unwrap_or(0.0);
            if share < 0.95 || controller.fell_back() {
                errors.push(format!(
                    "wan_learned must serve the model: model_tick_share {share:.3}, fell back: {}",
                    controller.fell_back()
                ));
            }
        }
        Workload::RecoveryDrill => {
            let promoted = controller
                .logs()
                .iter()
                .flat_map(|l| &l.transitions)
                .any(|t| t.transition == Transition::Promoted);
            if !promoted {
                errors.push("recovery_drill never promoted a challenger".to_string());
            }
        }
        Workload::DcFleetLp => {
            let grants = controller.admission_stats().map_or(0, |a| a.grants);
            if controller.logs().len() != FLEET_SHARDS || grants == 0 {
                errors.push(format!(
                    "dc_fleet_lp must run {FLEET_SHARDS} shards that win grants: {} shards, {grants} grants",
                    controller.logs().len()
                ));
            }
        }
        Workload::LpMonolith => {}
    }
    errors
}

/// Realized ÷ omniscient MLU on every kept tick; the omniscient LP sees the
/// demand the controller had to forecast.
fn regrets(setup: &Setup, pass: &Pass, errors: &mut Vec<String>) -> Vec<f64> {
    let mut template = MluTemplate::new(&setup.paths);
    let mut out = Vec::with_capacity(pass.kept.len());
    for (tick, column) in &pass.kept {
        let Some(&realized) = pass.mlu.get(*tick) else { break };
        let (config, _) = template
            .solve(&setup.paths, column)
            .expect("the omniscient min-MLU LP must be solvable");
        let omniscient = max_link_utilization_pairs(&setup.paths, &config, column);
        if realized < omniscient * (1.0 - 1e-9) {
            errors.push(format!(
                "tick {tick}: realized MLU {realized} beats the omniscient optimum {omniscient}"
            ));
        }
        out.push(realized / omniscient);
    }
    out
}

/// The traced half of a run: a fresh controller with the program's telemetry
/// armed replays the ticks of the untraced passes under the span recorder, then
/// the probes and the omniscient reference run.  Returns the per-layer
/// metrics; spans go to `spans_out` at the very end.
fn trace(
    (workload, seed, scale): (Workload, u64, Scale),
    untraced_single_pass_s: f64,
    digests: (u64, u64),
    spans_out: Option<&Path>,
    errors: &mut Vec<String>,
    wall_s: &mut Vec<(&'static str, f64)>,
) -> Values {
    let mut rec = SpanRecorder::new();
    let mut setup = setup(workload, seed, scale, true, &mut rec);
    let pass = serve(&mut setup, workload.ticks(scale), Some(&mut rec));
    wall_s.push(("traced_pass", pass.wall_s));
    let traced_digests = setup.controller.digests();
    if traced_digests != digests {
        errors.push(format!(
            "telemetry is not out-of-band: digests {:016x}/{:016x} untraced, {:016x}/{:016x} traced",
            digests.0, digests.1, traced_digests.0, traced_digests.1
        ));
    }
    let probe_start = Instant::now();
    let mut values = Values::default();
    let columns: Vec<&[f64]> =
        pass.kept.iter().take(PROBE_COLUMNS).map(|(_, c)| c.as_slice()).collect();
    probes::run(workload, &setup, &columns, &mut rec, &mut values);
    let regrets = if workload.model_config().is_some() {
        rec.scope("omniscient", || regrets(&setup, &pass, errors))
    } else {
        // A global omniscient LP on the fabrics is the cliff itself.
        Vec::new()
    };
    wall_s.push(("probes", probe_start.elapsed().as_secs_f64()));
    let run = Traced {
        setup: &setup,
        spans: &rec,
        untraced_single_pass_s,
        traced: &pass,
        regrets: &regrets,
    };
    layers::derive(&run, &mut values);
    if let Some(path) = spans_out {
        if let Err(e) = rec.write_jsonl(path) {
            errors.push(format!("cannot write spans to '{}': {e}", path.display()));
        }
    }
    values
}

/// Runs one workload once: [`PASSES`] untraced passes, each on a fresh
/// set-up, folded into one; then for an untraced run more set-ups until their
/// median is worth reporting, for a traced run [`trace`].
pub fn run(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    spans_out: Option<&Path>,
) -> RunResult {
    let timed_setup = || {
        let start = Instant::now();
        let built = setup(workload, seed, scale, false, &mut SpanRecorder::new());
        (built, start.elapsed().as_secs_f64())
    };
    // One untraced pass on a set-up of its own, which is gone when the pass
    // returns: peak RSS stays that of one set-up however many passes run.
    let fresh_pass = || {
        let (mut built, setup_s) = timed_setup();
        let pass = serve(&mut built, workload.ticks(scale), None);
        (pass, built.controller, setup_s)
    };
    let (mut untraced, controller, seconds) = fresh_pass();
    let mut setup_s = vec![seconds];
    let mut errors = check_workload(workload, scale, &untraced, &controller);
    let digests = controller.digests();
    drop(controller);
    // Tick time of one untraced pass, averaged over them: what the traced
    // pass, a single serving, is held against.
    let mut single_pass_s = untraced.tick_total_s() / PASSES as f64;
    for _ in 1..PASSES {
        let (again, controller, seconds) = fresh_pass();
        setup_s.push(seconds);
        single_pass_s += again.tick_total_s() / PASSES as f64;
        let again_digests = controller.digests();
        if again_digests != digests || again.mlu != untraced.mlu {
            errors.push(format!(
                "two servings of the same ticks disagree: digests {:016x}/{:016x}, then {:016x}/{:016x}",
                digests.0, digests.1, again_digests.0, again_digests.1
            ));
        }
        untraced.keep_faster_ticks(&again);
    }
    while !traced && !enough_setups(&setup_s) {
        setup_s.push(timed_setup().1);
    }
    let mut wall_s = vec![("setup", setup_s.iter().sum()), ("untraced_passes", untraced.wall_s)];
    // Peak RSS is read here, before the traced half allocates anything.
    let end_to_end = end_to_end(&setup_s, &untraced);
    let per_layer = if traced {
        let what = (workload, seed, scale);
        trace(what, single_pass_s, digests, spans_out, &mut errors, &mut wall_s)
    } else {
        Values::default()
    };
    RunResult {
        workload,
        seed,
        scale,
        traced,
        attempted: untraced.attempted,
        failed: failed_ticks(&untraced),
        errors,
        end_to_end,
        per_layer,
        digests,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workloads::WORKLOADS;

    /// Two smoke runs at one seed agree exactly on everything that is not a
    /// clock reading; another seed serves different demands.
    fn assert_repeats_per_seed_and_differs_across_seeds(workload: Workload, scale: Scale) {
        let a = run(workload, 1, scale, true, None);
        let b = run(workload, 1, scale, true, None);
        let other = run(workload, 2, scale, false, None);
        for result in [&a, &b, &other] {
            assert_eq!(result.errors, Vec::<String>::new(), "{}", workload.name());
            assert_eq!(result.failed, 0);
        }
        assert_eq!(a.digests, b.digests, "{}", workload.name());
        assert_ne!(a.digests, other.digests, "{}", workload.name());
        for metric in ["mlu_mean", "mlu_p95"] {
            assert_eq!(a.end_to_end.get(metric), b.end_to_end.get(metric), "{metric}");
            assert_ne!(a.end_to_end.get(metric), other.end_to_end.get(metric), "{metric}");
        }
        for def in PER_LAYER.iter().filter(|d| d.unit == "count") {
            assert_eq!(a.per_layer.get(def.name), b.per_layer.get(def.name), "{}", def.name);
        }
        assert!(a.per_layer.get("lp.solves").is_some_and(|n| n > 0.0));
    }

    /// The smallest run there is, cheap enough for a debug build: twenty
    /// ticks of `recovery_drill`, through the shift and the first retraining
    /// rounds.  Each run also holds its own passes — two untraced, one traced
    /// — to one digest.
    #[test]
    fn the_smallest_smoke_run_repeats_exactly_per_seed() {
        let scale = Scale { seconds: 1, smoke: true };
        assert_repeats_per_seed_and_differs_across_seeds(Workload::RecoveryDrill, scale);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "serves the smoke matrix: cargo test --release")]
    fn smoke_runs_repeat_exactly_per_seed_and_differ_across_seeds() {
        for workload in WORKLOADS {
            let scale = Scale { seconds: 10, smoke: true };
            assert_repeats_per_seed_and_differs_across_seeds(workload, scale);
        }
    }

    #[test]
    fn failed_ticks_count_unreached_and_non_finite_ones() {
        let pass = Pass { attempted: 5, mlu: vec![0.5, f64::NAN, 0.0, 0.7], ..Pass::default() };
        assert_eq!(failed_ticks(&pass), 3);
    }
}
