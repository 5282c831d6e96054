//! "[`InferencePlan::forward`] performs no allocation", as a test that fails
//! when it stops being true (the counting-allocator family of
//! `train_allocations.rs` and `lp_allocations.rs`).
//!
//! The plan here is large enough that its first layer splits its outputs
//! across `rayon::join`, so at more than one thread the forward pass takes
//! the pool path: the job lives on the caller's stack and a parked worker
//! runs half the layer.  Neither side may allocate once the pool runs.
//!
//! This file holds ONE test: the counter is process-wide, and the test
//! harness runs the tests of a binary on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use figret_nn::{Graph, InferencePlan, Mlp, MlpConfig, OutputActivation};
use rayon::prelude::*;

/// Allocations (including reallocations) since the counter was last reset,
/// on any thread.  A statistic only: `Relaxed` suffices.
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

#[test]
fn repeated_forwards_allocate_nothing() {
    // 2100 × 128 first-layer weights: over the plan's split threshold.
    let mut g = Graph::new();
    let mlp = Mlp::new(
        &mut g,
        MlpConfig {
            input_dim: 2100,
            hidden: vec![128, 128],
            output_dim: 96,
            output_activation: OutputActivation::Sigmoid,
            seed: 5,
        },
    );
    g.seal();
    let segments = (0..32).map(|s| 3 * s..3 * s + 3).collect();
    let mut plan = InferencePlan::compile(&g, &mlp, segments, 4.0);
    let x: Vec<f64> = (0..2100).map(|i| ((i * 37) % 101) as f64 / 25.0 - 1.0).collect();
    let mut out = vec![0.0; 96];

    // Warm-up: start the pool and, at more than one thread, make a worker
    // run a job (two items, a two-party barrier: the caller blocks in one,
    // so a worker must take the other), so every thread is past its own
    // start-up allocations before the count begins.
    if rayon::current_num_threads() > 1 {
        let barrier = Barrier::new(2);
        (0..2usize).into_par_iter().for_each(|_| {
            barrier.wait();
        });
    }
    plan.forward(&x, &mut out);
    let first = out.clone();

    ALLOCATIONS.store(0, Ordering::Relaxed);
    for _ in 0..50 {
        plan.forward(&x, &mut out);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(allocations, 0, "50 forward passes allocated {allocations} times");
    assert_eq!(out, first, "repeated forwards must give the same outputs");
}
