//! shard_scale — LP fleet throughput vs. shard count (DESIGN.md §8).
//!
//! Measures one full *solving* fleet tick (scatter → propose ∥ → admit →
//! finish ∥ → merge) on random-regular ToR fabrics at 256/512/1024 ToRs, as
//! a function of the shard count.  The fleet runs without an update budget
//! (`warmed_lp_fleet`): under one, LP shards skip the solve on every tick
//! with no grant open, and most timed iterations would measure eight
//! forecasts instead of eight LPs.  Two regimes:
//!
//! * `steady_tick` — steady-state traffic (no pair churn, no bursts): the
//!   warm-started shard LPs re-price an already-optimal basis, so this is
//!   the peak decision throughput of the LP fleet.  Aggregate decisions/sec
//!   = `active pairs / tick seconds`.
//! * `bursty_tick` — the default on/off + burst workload: every tick moves
//!   demand, so shard LPs genuinely pivot.  This is where partitioning wins
//!   superlinearly — warm re-solve cost grows much faster than linearly in
//!   the pair count (BENCH_pr7.json records multi-minute degenerate crawls
//!   of the monolithic 8k-pair template), so `N` small templates beat one
//!   big one even on a single core.  The monolithic baseline is benchmarked
//!   at 256 ToRs only; at 512+ its degenerate re-solves blow the benchmark
//!   budget (the `serve_sim --shards 1` runs recorded in BENCH_pr8.json
//!   bound it instead).
//!
//! The learned-inference fleet (the paper's fast path) is benchmarked by
//! the separate `fleet_inference` bench target, so the two can run
//! independently — the vendored criterion has no name filtering.
//!
//! Thread count: the vendored rayon reads `RAYON_NUM_THREADS` once per
//! process, so per-thread-count numbers come from separate bench runs
//! (recorded side by side in BENCH_pr8.json).  Recorded via `CRITERION_JSON`.
//!
//! `SHARD_SCALE_MONOLITH_CAP=<tors>` lowers the monolithic (1-shard)
//! baseline's size cap for *both* regimes — the 1024-ToR steady monolith
//! alone costs tens of minutes (its cold crash-basis solve), so repeat
//! passes (e.g. the 1-thread run) can skip it once one pass recorded it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use figret_bench::fleet::{fleet_case, warmed_lp_fleet, WINDOW};

const SIZES: [usize; 3] = [256, 512, 1024];
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn monolith_cap(default: usize) -> usize {
    std::env::var("SHARD_SCALE_MONOLITH_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(default, |cap: usize| cap.min(default))
}

fn bench_regime(c: &mut Criterion, label: &str, steady: bool, monolith_cap: usize) {
    let mut group = c.benchmark_group("shard_scale");
    group.sample_size(5);
    for tors in SIZES {
        let case = fleet_case(tors, steady);
        for shards in SHARD_COUNTS {
            if shards == 1 && tors > monolith_cap {
                continue;
            }
            let mut fleet = warmed_lp_fleet(&case, shards);
            let mut cursor = WINDOW;
            let id = BenchmarkId::new(label, format!("{tors} ToRs/{shards} shards"));
            group.bench_with_input(id, &(), |b, _| {
                b.iter(|| {
                    cursor = WINDOW + (cursor + 1 - WINDOW) % (case.trace.len() - WINDOW);
                    fleet.step_column(case.trace.snapshot(cursor).values())
                })
            });
        }
    }
    group.finish();
}

fn steady_tick(c: &mut Criterion) {
    bench_regime(c, "steady_tick", true, monolith_cap(usize::MAX));
}

fn bursty_tick(c: &mut Criterion) {
    bench_regime(c, "bursty_tick", false, monolith_cap(256));
}

criterion_group!(benches, steady_tick, bursty_tick);
criterion_main!(benches);
