//! "One training step allocates nothing the size of a weight matrix", as a
//! test that fails when it stops being true (the counting-allocator family of
//! ROADMAP item 6).
//!
//! Before PR 18 every microbatch cloned the parameter tape and `backward`
//! cloned its way down it: seven allocations the size of the largest weight
//! matrix per microbatch and two more per batch.  Now the worker tapes, their
//! gradient buffers and the Adam moments are allocated once per `train` call,
//! the tapes recycle the storage of their transient nodes, and the optimizer
//! writes the weights where they lie — so training for more epochs must not
//! allocate anything weight-sized that training for fewer did not, and what an
//! extra epoch does allocate (the per-microbatch demand constants of the loss,
//! the parallel iterator's bookkeeping) is bounded by the data, not the model.
//!
//! The same counters bound what building the training set allocates: twice
//! its distinct numbers, where the dense dataset before PR 20 cloned `H + 1`
//! matrices per sample.
//!
//! This file holds ONE test: the counters are process-wide, and the test
//! harness runs the tests of a binary on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use figret::{FigretConfig, FigretModel};
use figret_te::PathSet;
use figret_topology::{Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{per_pair_variance_range, WindowDataset};

/// Allocations of at least `LARGE_BYTES` bytes, and all bytes allocated,
/// since the counters were last reset.  Statistics only: `Relaxed` suffices.
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn record(size: usize) {
        BYTES.fetch_add(size, Ordering::Relaxed);
        if size >= LARGE_BYTES.load(Ordering::Relaxed) {
            LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(new_size);
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
fn extra_epochs_allocate_nothing_weight_sized() {
    let pod = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let paths = PathSet::k_shortest(&pod, 3);
    let trace = pod_trace(&pod, &PodTrafficConfig { num_snapshots: 120, ..Default::default() });
    let variances = per_pair_variance_range(&trace, 0..90);
    // Four microbatches a batch (worker threads, four tapes) and weight
    // matrices far larger than any activation batch.
    let config =
        FigretConfig { batch_size: 32, hidden: vec![256, 64], ..FigretConfig::fast_test() };
    // The dataset stores each snapshot's pair column once: building it
    // allocates the columns plus their bookkeeping, not a window of cloned
    // `N×N` matrices per sample.
    BYTES.store(0, Ordering::Relaxed);
    let dataset = WindowDataset::from_trace(&trace, config.history_window, 0..90);
    let dataset_bytes = BYTES.load(Ordering::Relaxed);
    let column_bytes = 90 * paths.num_pairs() * std::mem::size_of::<f64>();
    assert!(
        dataset_bytes <= 2 * column_bytes,
        "building the dataset allocated {dataset_bytes} bytes for {column_bytes} bytes of columns"
    );
    let mut widths = vec![config.history_window * paths.num_pairs()];
    widths.extend(&config.hidden);
    widths.push(paths.num_paths());
    let largest_parameter = widths.windows(2).map(|w| w[0] * w[1]).max().expect("two layers");
    LARGE_BYTES.store(largest_parameter * std::mem::size_of::<f64>(), Ordering::Relaxed);

    let measure = |epochs: usize| {
        let mut model =
            FigretModel::new(&paths, &variances, FigretConfig { epochs, ..config.clone() });
        LARGE_ALLOCATIONS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        let report = model.train(&dataset);
        assert_eq!(report.epochs.len(), epochs);
        (LARGE_ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
    };
    let (large_short, bytes_short) = measure(2);
    let (large_long, bytes_long) = measure(6);

    assert!(large_short > 0, "the tapes and Adam moments of a training call are weight-sized");
    assert_eq!(
        large_long,
        large_short,
        "four more epochs made {} more weight-sized allocations",
        large_long as isize - large_short as isize
    );
    // What an epoch still allocates is per-sample data of the loss — each
    // sample's demand row and its per-path expansion — plus bookkeeping per
    // microbatch (iterator vectors, `Arc` headers, thread handles).  Twice the
    // former and 2 KiB of the latter bound it; no layer width appears.
    let samples = dataset.len();
    let data_bytes = samples * (paths.num_pairs() + paths.num_paths()) * std::mem::size_of::<f64>();
    let bound = 2 * data_bytes + samples.div_ceil(8) * 2048;
    let per_extra_epoch = (bytes_long - bytes_short) / 4;
    assert!(
        per_extra_epoch < bound,
        "an extra epoch allocates {per_extra_epoch} bytes, over the data-determined {bound}"
    );
}
