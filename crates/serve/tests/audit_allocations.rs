//! "An audit the bound clears costs no more allocations than no audit", as a
//! test that fails when it stops being true (the counting-allocator family
//! of `shadow_allocations.rs`): a learned controller audited on every tick
//! asks the template's lower bound first and solves the LP only when the
//! bound cannot vouch for the model, so a certified audit tick allocates what
//! an unaudited tick of the same controller allocates.
//!
//! This file holds ONE test and runs it from a plain `main` (`harness =
//! false`): the count is process-wide, so nothing but the test and the thread
//! pool may run while it is taken — not libtest's threads, nor a second test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use figret::{FigretConfig, FigretModel};
use figret_serve::{FallbackPolicy, LastValue, ReconfigPolicy, ServeController};
use figret_te::PathSet;
use figret_topology::{Topology, TopologySpec};
use figret_traffic::{OnlineStream, OnlineStreamConfig, SparseDemandStream, WindowDataset};

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

/// Ticks served before the count, and ticks counted.
const WARMUP: usize = 8;
const COUNTED: usize = 24;

/// A controller serving `model` on a quiet PoD-DB stream with the given
/// audit cadence, fed its history window; every steady tick deploys.
fn controller(model: FigretModel, ps: &PathSet, audit_every: usize) -> ServeController {
    let policy = ReconfigPolicy {
        hysteresis: 0.0,
        budget: None,
        fallback: FallbackPolicy { degradation: 1.5, patience: 1, audit_every },
    };
    ServeController::learned(ps, model, Box::new(LastValue::new()), policy)
}

/// The allocations of each counted tick, and whether its audit was
/// certified.
fn counted_ticks(c: &mut ServeController, columns: &[Vec<f64>]) -> Vec<(usize, bool)> {
    for column in &columns[..2] {
        c.observe_pairs(column);
    }
    let (warmup, counted) = columns[2..].split_at(WARMUP);
    for column in warmup {
        c.step_pairs(column);
    }
    counted
        .iter()
        .map(|column| {
            let certified = c.audit_stats().certified;
            ALLOCATIONS.store(0, Ordering::Relaxed);
            let outcome = c.step_pairs(column);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed);
            drop(outcome);
            (allocations, c.audit_stats().certified > certified)
        })
        .collect()
}

fn certified_audit_ticks_allocate_no_more_than_unaudited_ticks() {
    let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let ps = PathSet::k_shortest(&g, 3);
    let config = OnlineStreamConfig {
        diurnal_amplitude: 0.05,
        noise: 0.02,
        drift: None,
        flash_crowds: None,
        failure_storms: None,
        seed: 97,
        ..Default::default()
    };
    let mut stream = OnlineStream::from_graph(&g, 0.25, config);
    let columns: Vec<Vec<f64>> = (0..80 + 2 + WARMUP + COUNTED)
        .map(|_| stream.next_column().expect("endless").values().to_vec())
        .collect();
    let (train, serve) = columns.split_at(80);
    // Training is deterministic: both controllers serve the same weights.
    let trained = || {
        let dataset = WindowDataset::from_columns(2, train.to_vec());
        let config = FigretConfig { history_window: 2, epochs: 60, ..FigretConfig::fast_test() };
        let mut model = FigretModel::new(&ps, &dataset.per_slot_variance(), config);
        model.train(&dataset);
        model
    };

    // `audit_every` beyond the run: after its first decision, no tick audits.
    let mut unaudited = controller(trained(), &ps, 10_000);
    let baseline = counted_ticks(&mut unaudited, serve);
    let mut audited = controller(trained(), &ps, 1);
    let counted = counted_ticks(&mut audited, serve);

    assert!(!audited.fell_back() && !unaudited.fell_back());
    assert!(baseline.iter().all(|&(_, certified)| !certified), "no counted tick may audit");
    for (t, (&(got, certified), &(unaudited, _))) in counted.iter().zip(&baseline).enumerate() {
        assert!(certified, "counted tick {t}: the bound must clear the audit");
        assert!(
            got <= unaudited,
            "counted tick {t}: a certified audit allocated {got} times, an unaudited tick \
             {unaudited} (counts {counted:?})"
        );
    }
    let most = |ticks: &[(usize, bool)]| ticks.iter().map(|&(n, _)| n).max().unwrap_or(0);
    println!(
        "allocations a tick, at most: {} certified, {} unaudited",
        most(&counted),
        most(&baseline)
    );
}

#[path = "../../../tests/support/single_test_main.rs"]
mod single_test_main;

fn main() {
    single_test_main::run(
        "certified_audit_ticks_allocate_no_more_than_unaudited_ticks",
        certified_audit_ticks_allocate_no_more_than_unaudited_ticks,
    );
}
