//! "The shadow audit allocates nothing", as a test that fails when it stops
//! being true (the counting-allocator family of
//! `crates/nn/tests/plan_allocations.rs`): a challenger's forward pass runs
//! its compiled plan into caller-owned buffers, the same helper the live
//! model serves through.  The LP candidate an audit compares against still
//! allocates, so this does not cover the whole fallback tick.
//!
//! This file holds ONE test: the counter is process-wide, and the test
//! harness runs the tests of a binary on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use figret::{FigretConfig, FigretModel};
use figret_serve::ShadowModel;
use figret_te::{PathSet, TeConfig};
use figret_topology::{Topology, TopologySpec};

/// Allocations (including reallocations) since the counter was last reset,
/// on any thread.  A statistic only: `Relaxed` suffices.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Counts every `alloc`.  The trait's default `alloc_zeroed` and `realloc`
/// allocate through `alloc`, so they are counted too.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn repeated_shadow_audit_forwards_allocate_nothing() {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let ps = PathSet::k_shortest(&g, 3);
    let config = FigretConfig { history_window: 3, ..FigretConfig::fast_test() };
    let model = FigretModel::new(&ps, &vec![0.0; ps.num_pairs()], config);
    let mut shadow = ShadowModel::new(model, 1);
    let history: Vec<Vec<f64>> = (0..3)
        .map(|t| (0..ps.num_pairs()).map(|p| ((p * 7 + t * 3) % 11) as f64 / 4.0).collect())
        .collect();
    let (mut features, mut raw, mut out) = (Vec::new(), Vec::new(), TeConfig::default());

    // Warm-up: the buffers grow to size.
    let served = shadow.served_mut();
    served.candidate_into(&ps, &history, &mut features, &mut raw, &mut out);
    let first = out.clone();

    ALLOCATIONS.store(0, Ordering::Relaxed);
    for _ in 0..50 {
        served.candidate_into(&ps, &history, &mut features, &mut raw, &mut out);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(allocations, 0, "50 shadow-audit forwards allocated {allocations} times");
    assert_eq!(out, first, "repeated forwards must give the same configuration");
    assert!(out.is_valid(&ps));
}
