//! "A series solve's allocation count does not grow with its pivots", as a
//! test that fails when it stops being true (the counting-allocator family
//! of `crates/core/tests/train_allocations.rs`).
//!
//! The simplex keeps its basis inverse as one flat eta arena and its
//! reinversion, BTRAN and dual-repair scratch in buffers sized from the row
//! count once per solve and shared by that solve's warm, crash and two-phase
//! attempts.  A solve on the 80-ToR bursty fabric pivots 100–300 times and
//! reinverts every ≈ 20 pivots; with one vector per eta it allocated ≈ 8000
//! times.  Shard 0 of the 512-ToR fleet spends its 50–130 pivots a solve in
//! the dual repair instead.  What it may still allocate is per attempt and
//! per solve (the
//! buffers themselves, their amortized growth, the solution and its basis,
//! the returned configuration).
//!
//! This file holds ONE test and runs it from a plain `main` (`harness =
//! false`): the count is process-wide, so nothing but the test and the thread
//! pool may run while it is taken — not libtest's threads, nor a second test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use figret_solvers::MluTemplate;
use figret_te::PathSet;

/// Allocations since the counter was last reset.  Statistics only:
/// `Relaxed` suffices.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations a solve may make, whatever its pivot count.
const PER_SOLVE: usize = 128;

/// Replays `columns` through one template and checks every steady solve
/// against [`PER_SOLVE`]; the series must hold a solve of `long` pivots.
fn assert_bounded(name: &str, (paths, columns): (PathSet, Vec<Vec<f64>>), long: usize) {
    let mut template = MluTemplate::new(&paths);
    let mut pivots = Vec::new();
    let mut counts = Vec::new();
    for demand in &columns {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        let (_, stats) = template.solve(&paths, demand).expect("series LP must solve");
        counts.push(ALLOCATIONS.load(Ordering::Relaxed));
        pivots.push(stats.iterations);
    }
    // The first solves grow the template's own state (basis pool, crash
    // hint) to its steady size.
    let steady = 10..columns.len();
    let busiest = steady.clone().max_by_key(|&t| pivots[t]).expect("steady solves");
    assert!(
        pivots[busiest] >= long,
        "{name}: the series must hold long solves ({} pivots)",
        pivots[busiest]
    );
    for t in steady {
        assert!(
            counts[t] <= PER_SOLVE,
            "{name}: solve {t} ({} pivots) made {} allocations, over {PER_SOLVE}",
            pivots[t],
            counts[t]
        );
    }
}

/// The bursty fabric pivots in phase 2 from a seeded crash; the fleet shard
/// dual-repairs warm bases, pricing the leaving row's `ρᵀA` every pivot.
fn series_solves_allocate_a_bounded_amount_whatever_their_pivots() {
    assert_bounded("bursty fabric", common::bursty_fabric(60), 200);
    assert_bounded("fleet shard", common::fleet_shard(30), 100);
}

#[path = "../../../tests/support/single_test_main.rs"]
mod single_test_main;

fn main() {
    single_test_main::run(
        "series_solves_allocate_a_bounded_amount_whatever_their_pivots",
        series_solves_allocate_a_bounded_amount_whatever_their_pivots,
    );
}
