//! "The shadow audit allocates nothing", as a test that fails when it stops
//! being true (the counting-allocator family of
//! `crates/nn/tests/plan_allocations.rs`): a challenger's forward pass runs
//! its compiled plan into caller-owned buffers, the same helper the live
//! model serves through.  A shadow audit runs on a fallback tick, whose LP
//! candidate is deployed and so is always solved, and a solve allocates, so
//! this does not cover the whole fallback tick.  (The live model's audit
//! solves only when the template's lower bound cannot clear the model; a
//! tick the bound clears is covered by `audit_allocations.rs`.)
//!
//! This file holds ONE test and runs it from a plain `main` (`harness =
//! false`): the count is process-wide, so nothing but the test and the thread
//! pool may run while it is taken — not libtest's threads, nor a second test.

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

#[path = "../../../tests/support/single_test_main.rs"]
mod single_test_main;

fn main() {
    single_test_main::run(
        "repeated_shadow_audit_forwards_allocate_nothing",
        repeated_shadow_audit_forwards_allocate_nothing,
    );
}
