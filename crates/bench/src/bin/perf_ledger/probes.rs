//! Outside probes: one public call of one layer, timed alone over columns
//! the workload actually served, after the serving passes.  A probe gives a
//! layer's unit cost free of the controller around it, so that a change in a
//! tick metric can be traced to (or cleared of) that layer.

use std::hint::black_box;
use std::time::Instant;

use figret::FigretModel;
use figret_solvers::MluTemplate;
use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};

use crate::metrics::Values;
use crate::spans::SpanRecorder;
use crate::stats::median;
use crate::workloads::{Setup, Workload};

/// Leading decision-tick columns the traced pass keeps for the probes.
pub const PROBE_COLUMNS: usize = 200;
/// Columns the LP probe solves, cold and then chained.
const LP_PROBE_COLUMNS: usize = 50;
/// Forward passes per inference probe.
const FORWARDS: usize = 1000;

fn median_of<T>(count: usize, mut call: impl FnMut(usize) -> T) -> Option<f64> {
    let samples: Vec<f64> = (0..count)
        .map(|i| {
            let start = Instant::now();
            black_box(call(i));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Runs every probe that applies to `workload` over `columns` (the leading
/// decision-tick columns, in tick order) and stores the medians.
pub fn run(
    workload: Workload,
    setup: &Setup,
    columns: &[&[f64]],
    rec: &mut SpanRecorder,
    out: &mut Values,
) {
    let span = rec.begin("probes");
    rec.scope("probe.te.mlu_eval", || mlu_eval(&setup.paths, columns, out));
    if let Some(config) = workload.model_config() {
        rec.scope("probe.nn.forward", || {
            // Inference cost does not depend on the weights, so the probe
            // compiles a fresh model instead of borrowing the served one.
            let zeros = vec![0.0; setup.paths.num_pairs()];
            let model = FigretModel::new(&setup.paths, &zeros, config);
            forward(&setup.paths, model, workload == Workload::WanLearned, columns, out);
        });
    }
    rec.scope("probe.solvers.solve", || lp_solves(setup, columns, out));
    rec.end(span);
}

fn mlu_eval(paths: &PathSet, columns: &[&[f64]], out: &mut Values) {
    let config = TeConfig::uniform(paths);
    let seconds = median_of(columns.len(), |i| {
        max_link_utilization_pairs(paths, &config, black_box(columns[i]))
    });
    out.set_opt("te.mlu_eval_us", seconds.map(|s| s * 1e6));
}

fn forward(
    paths: &PathSet,
    mut model: FigretModel,
    plan_serves: bool,
    columns: &[&[f64]],
    out: &mut Values,
) {
    let window = model.config().history_window;
    if columns.len() <= window {
        return;
    }
    let histories: Vec<Vec<Vec<f64>>> =
        columns.windows(window).map(|w| w.iter().map(|c| c.to_vec()).collect()).collect();
    let graph = median_of(FORWARDS, |i| {
        model.predict_flat(paths, black_box(&histories[i % histories.len()]))
    });
    out.set_opt("nn.graph_forward_us", graph.map(|s| s * 1e6));
    if plan_serves {
        let mut plan = model.compile_plan();
        let features: Vec<Vec<f64>> = histories.iter().map(|h| h.concat()).collect();
        let mut raw = vec![0.0; paths.num_paths()];
        let seconds = median_of(FORWARDS, |i| {
            plan.forward(black_box(&features[i % features.len()]), &mut raw);
            raw[0]
        });
        out.set_opt("nn.plan_forward_us", seconds.map(|s| s * 1e6));
    }
}

fn lp_solves(setup: &Setup, columns: &[&[f64]], out: &mut Values) {
    let (paths, shard) = match &setup.lp_shard {
        Some((paths, shard)) => (paths, Some(shard)),
        None => (&setup.paths, None),
    };
    let columns: Vec<Vec<f64>> = columns
        .iter()
        .take(LP_PROBE_COLUMNS)
        .map(|parent| match shard {
            Some(shard) => {
                let mut sub = Vec::new();
                shard.gather_into(parent, &mut sub);
                sub
            }
            None => parent.to_vec(),
        })
        .collect();
    let start = Instant::now();
    let mut template = MluTemplate::new(paths);
    out.set("solvers.template_build_s", start.elapsed().as_secs_f64());
    let solve = |template: &mut MluTemplate, column: &[f64]| {
        template.solve(paths, column).expect("the probe's min-MLU LP must be solvable").1
    };
    let cold = median_of(columns.len(), |i| {
        template.clear_basis();
        solve(&mut template, &columns[i])
    });
    // The last cold solve left its basis behind: every chained solve below
    // starts warm, as the controller's do.
    let warm = median_of(columns.len(), |i| solve(&mut template, &columns[i]));
    out.set_opt("solvers.cold_solve_ms", cold.map(|s| s * 1e3));
    out.set_opt("solvers.warm_solve_ms", warm.map(|s| s * 1e3));
}
