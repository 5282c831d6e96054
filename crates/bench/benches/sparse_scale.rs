//! sparse_scale — the dense→sparse cliff of the demand–path core (ISSUE 7).
//!
//! Measures the three hot operations of the serving pipeline on random-regular
//! (Jellyfish-style) ToR fabrics at 128/512/1024/2048 ToRs:
//!
//! * `construct_sparse` — generating a short ToR-level demand trace,
//!   columnar over the sampled communication pattern (`O(nnz · T)`);
//! * `mlu_*` — one max-link-utilization evaluation through the scratch-buffer
//!   evaluator on the restricted path set (`mlu_sparse`), versus the same
//!   evaluator on the dense all-pairs path set over flattened all-pairs
//!   columns (`mlu_dense`, 128 ToRs only);
//! * `decision_*` — one full LP controller tick (forecast → candidate →
//!   deploy → ingest) through `step_pairs`, on the sampled pair universe's
//!   columns (`decision_sparse`) versus flattened all-pairs columns over an
//!   all-pairs path set (`decision_dense`, 128 ToRs only).
//!
//! The dense full pipeline stops at 128 ToRs: Yen's enumeration over all
//! `N·(N-1)` pairs is already ~16k pairs there — the same order as the
//! *sparse* universe at 2048 ToRs — which is exactly the cliff this
//! benchmark records.  Recorded to `BENCH_pr7.json` via `CRITERION_JSON`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use figret_serve::{PredictorKind, ReconfigPolicy, ServeController};
use figret_te::{max_link_utilization_pairs_scratch, PathSet, TeConfig};
use figret_topology::FabricSpec;
use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
use figret_traffic::{ActivePairs, TrafficTrace};

const SIZES: [usize; 4] = [128, 512, 1024, 2048];
const PER_SOURCE: usize = 8;
const SNAPSHOTS: usize = 6;
const WINDOW: usize = 4;

fn tor_config(seed: u64) -> TorTrafficConfig {
    TorTrafficConfig { num_snapshots: SNAPSHOTS, seed, ..Default::default() }
}

struct FabricCase {
    graph: figret_topology::Graph,
    paths: PathSet,
    trace: TrafficTrace,
}

fn fabric_case(tors: usize) -> FabricCase {
    let fabric = FabricSpec::jellyfish(tors).build();
    let active = Arc::new(ActivePairs::sample_among(
        fabric.graph.num_nodes(),
        fabric.num_tors,
        PER_SOURCE,
        7 ^ 0xfab,
    ));
    let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
    let trace = tor_trace_sparse(&fabric.graph, &active, &tor_config(7));
    FabricCase { graph: fabric.graph, paths, trace }
}

fn warmed_sparse_controller(case: &FabricCase) -> ServeController {
    let mut controller = ServeController::lp(
        &case.paths,
        WINDOW,
        PredictorKind::LastValue.build(),
        ReconfigPolicy::always_update(),
    );
    for t in 0..WINDOW {
        controller.observe_pairs(case.trace.snapshot(t).values());
    }
    controller
}

/// The trace's snapshots densified onto all `N·(N-1)` pairs.
fn all_pairs_columns(trace: &TrafficTrace) -> Vec<Vec<f64>> {
    (0..trace.len()).map(|t| trace.matrix(t).flatten_pairs()).collect()
}

/// Trace construction, columnar over the sampled pairs.
fn construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_scale");
    group.sample_size(10);
    for tors in SIZES {
        let fabric = FabricSpec::jellyfish(tors).build();
        let active = Arc::new(ActivePairs::sample_among(
            fabric.graph.num_nodes(),
            fabric.num_tors,
            PER_SOURCE,
            7 ^ 0xfab,
        ));
        let label = format!("{tors} ToRs");
        group.bench_with_input(BenchmarkId::new("construct_sparse", &label), &(), |b, _| {
            b.iter(|| tor_trace_sparse(&fabric.graph, &active, &tor_config(7)))
        });
    }
    group.finish();
}

/// One MLU evaluation on the restricted path set (sparse) and, at 128 ToRs,
/// on the dense all-pairs path set over the densified snapshots.
fn mlu_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_scale");
    group.sample_size(20);
    for tors in SIZES {
        let case = fabric_case(tors);
        let config = TeConfig::uniform(&case.paths);
        let mut scratch = Vec::new();
        let mut cursor = 0usize;
        let label = format!("{tors} ToRs");
        group.bench_with_input(BenchmarkId::new("mlu_sparse", &label), &(), |b, _| {
            b.iter(|| {
                cursor = (cursor + 1) % case.trace.len();
                max_link_utilization_pairs_scratch(
                    &case.paths,
                    &config,
                    case.trace.snapshot(cursor).values(),
                    &mut scratch,
                )
            })
        });
        if tors == SIZES[0] {
            let paths_dense = PathSet::k_shortest(&case.graph, 3);
            let config_dense = TeConfig::uniform(&paths_dense);
            let columns_dense = all_pairs_columns(&case.trace);
            let mut cursor = 0usize;
            group.bench_with_input(BenchmarkId::new("mlu_dense", &label), &(), |b, _| {
                b.iter(|| {
                    cursor = (cursor + 1) % columns_dense.len();
                    max_link_utilization_pairs_scratch(
                        &paths_dense,
                        &config_dense,
                        &columns_dense[cursor],
                        &mut scratch,
                    )
                })
            });
        }
    }
    group.finish();
}

/// One full LP controller decision on the sampled universe's columns and, at
/// 128 ToRs, on all-pairs columns over the dense all-pairs path set.
///
/// The LP tick is benchmarked up to 1024 ToRs: at 2048 the sparse universe
/// is ~16k pairs — the same program size as the *dense* 128-ToR case, whose
/// warm re-solve is already seconds-scale on one core (and single degenerate
/// solves can crawl for minutes).  Construction and MLU evaluation, the
/// operations that stay on the per-tick hot path regardless of engine,
/// are recorded through 2048.
fn controller_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_scale");
    group.sample_size(5);
    for tors in [128, 512, 1024] {
        let case = fabric_case(tors);
        let mut controller = warmed_sparse_controller(&case);
        let mut cursor = WINDOW - 1;
        let label = format!("{tors} ToRs");
        group.bench_with_input(BenchmarkId::new("decision_sparse", &label), &(), |b, _| {
            b.iter(|| {
                cursor = (cursor + 1) % case.trace.len();
                controller.step_pairs(case.trace.snapshot(cursor).values())
            })
        });
        if tors == SIZES[0] {
            let paths_dense = PathSet::k_shortest(&case.graph, 3);
            let columns_dense = all_pairs_columns(&case.trace);
            let mut dense = ServeController::lp(
                &paths_dense,
                WINDOW,
                PredictorKind::LastValue.build(),
                ReconfigPolicy::always_update(),
            );
            for column in &columns_dense[..WINDOW] {
                dense.observe_pairs(column);
            }
            let mut cursor = WINDOW - 1;
            group.bench_with_input(BenchmarkId::new("decision_dense", &label), &(), |b, _| {
                b.iter(|| {
                    cursor = (cursor + 1) % columns_dense.len();
                    dense.step_pairs(&columns_dense[cursor])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, construct, mlu_eval, controller_decision);
criterion_main!(benches);
