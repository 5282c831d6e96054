//! fleet_inference — learned-inference fleet throughput (DESIGN.md §8).
//!
//! The sharded counterpart of the ledger's `nn.plan_forward_us` probe: every
//! shard serves the compiled f32 `InferencePlan` (the paper's fast path) with
//! the LP audit disabled, so a fleet tick is scatter → batched
//! matrix-vector inference per shard → admit → finish → merge, and never
//! touches the solver.  This is the configuration that clears the
//! single-core LP repricing ceiling (~1.7 µs/pair — see `shard_scale`)
//! by an order of magnitude and carries the ≥1M decisions/sec headline
//! in BENCH_pr8.json.
//!
//! Weights are at initialisation: inference cost is weight-independent, so
//! this measures serving throughput, not TE quality (`serve_sim --engine
//! learned --shards N` is the trained counterpart).
//!
//! Separate from `shard_scale` so the two can run independently (the
//! vendored criterion has no name filtering, and the monolithic LP
//! baselines there take minutes per sample).  Thread-count comparisons
//! come from separate runs — the vendored rayon reads
//! `RAYON_NUM_THREADS` once per process.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use figret::FigretConfig;
use figret_bench::fleet::{fleet_case, warmed_learned_fleet};

fn learned_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_inference");
    group.sample_size(10);
    let config = FigretConfig::fast_test();
    let window = config.history_window;
    for tors in [512, 1024] {
        let case = fleet_case(tors, true);
        for shards in [4, 16] {
            let mut fleet = warmed_learned_fleet(&case, shards, &config);
            let mut cursor = window;
            let id = BenchmarkId::new("learned_tick", format!("{tors} ToRs/{shards} shards"));
            group.bench_with_input(id, &(), |b, _| {
                b.iter(|| {
                    cursor = window + (cursor + 1 - window) % (case.trace.len() - window);
                    fleet.step_column(case.trace.snapshot(cursor).values())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, learned_tick);
criterion_main!(benches);
