//! Dataset splitting and history-window construction.
//!
//! FIGRET and DOTE map a window of `H` past pair-demand vectors to a TE
//! configuration for the next snapshot (§4.3).  This module holds the one
//! windowed training set, [`WindowDataset`] — (history, target) samples over
//! pair columns stored once each, copied from a [`TrafficTrace`]'s columns
//! or handed over by a serving controller — and the chronological
//! train/test splits used in §5 (first 75% train, last 25% test; or the
//! 0-25% / 25-50% / 50-75% segments of Table 4).

use std::sync::Arc;

use crate::ops;
use crate::sparse::TrafficTrace;

/// A chronological split of a trace into a training range and a test range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainTestSplit {
    /// Snapshot indices used for training.
    pub train: std::ops::Range<usize>,
    /// Snapshot indices used for testing.
    pub test: std::ops::Range<usize>,
}

impl TrainTestSplit {
    /// The paper's default split: first `train_fraction` of the trace for
    /// training, the rest for testing.
    pub fn chronological(trace_len: usize, train_fraction: f64) -> TrainTestSplit {
        assert!((0.0..1.0).contains(&train_fraction), "train fraction must be in [0, 1)");
        let cut = ((trace_len as f64) * train_fraction).floor() as usize;
        TrainTestSplit { train: 0..cut, test: cut..trace_len }
    }

    /// Table 4's drift experiment: train on `[segment_start, segment_end)`
    /// fractions of the trace, test on the final `1 - test_fraction_start`.
    pub fn segment(
        trace_len: usize,
        segment_start: f64,
        segment_end: f64,
        test_fraction_start: f64,
    ) -> TrainTestSplit {
        assert!(segment_start < segment_end, "segment must be non-empty");
        assert!(segment_end <= test_fraction_start, "training segment must precede the test range");
        let s = ((trace_len as f64) * segment_start).floor() as usize;
        let e = ((trace_len as f64) * segment_end).floor() as usize;
        let t = ((trace_len as f64) * test_fraction_start).floor() as usize;
        TrainTestSplit { train: s..e, test: t..trace_len }
    }
}

/// The windowed training set: (history window, target) samples over demand
/// *columns* (one `f64` per pair of the universe, in slot order — for an
/// all-pairs trace, `Graph::sd_pairs` order).
///
/// Every snapshot's column is stored once, in time order; a sample is a pair
/// of column indices, so overlapping windows share their columns instead of
/// cloning them.  Offline callers build it from a [`TrafficTrace`]; the
/// serving side — a controller's history buffer, a shard's restricted
/// universe — hands over the columns it already holds.
#[derive(Debug, Clone)]
pub struct WindowDataset {
    window: usize,
    /// Shared with the re-indexed view of [`WindowDataset::targets_as_history`].
    columns: Arc<Vec<Vec<f64>>>,
    /// Per sample `(first history column, target column)`; the history is the
    /// `window` consecutive columns from the first.
    samples: Vec<(usize, usize)>,
}

impl WindowDataset {
    /// One sample for every target snapshot `t` in `range` whose full history
    /// window lies inside the trace (`window <= t < trace.len()`), in order.
    /// Histories reach back before `range.start`.
    pub fn from_trace(
        trace: &TrafficTrace,
        window: usize,
        range: std::ops::Range<usize>,
    ) -> WindowDataset {
        Self::from_targets(trace, window, range.start.max(window)..range.end.min(trace.len()))
    }

    /// One sample per target snapshot of `targets`, which must ascend and have
    /// their full history windows inside the trace.  Only the snapshots some
    /// sample covers are copied, each once.
    pub fn from_targets(
        trace: &TrafficTrace,
        window: usize,
        targets: impl IntoIterator<Item = usize>,
    ) -> WindowDataset {
        assert!(window >= 1, "window must be at least 1");
        let targets = targets.into_iter();
        let expected = targets.size_hint().0;
        let mut samples = Vec::with_capacity(expected);
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(expected + window);
        // One past the newest stored snapshot: what lies below it in a window
        // is already the tail of `columns`.
        let mut stored_end = 0;
        for t in targets {
            assert!(t >= stored_end, "targets must be strictly ascending");
            assert!(window <= t && t < trace.len(), "target {t} has no full window in the trace");
            let first_new = (t - window).max(stored_end);
            let first = columns.len() - (first_new - (t - window));
            columns.extend(trace.snapshots()[first_new..=t].iter().map(|c| c.values().to_vec()));
            samples.push((first, first + window));
            stored_end = t + 1;
        }
        WindowDataset { window, columns: Arc::new(columns), samples }
    }

    /// Wraps a run of observed columns, oldest first.  Sample `i` pairs the
    /// history `columns[i..i + window]` with the target `columns[i + window]`.
    pub fn from_columns(window: usize, columns: Vec<Vec<f64>>) -> WindowDataset {
        assert!(window >= 1, "window must be at least 1");
        let num_pairs = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == num_pairs),
            "all columns must share one pair universe"
        );
        let samples = (0..columns.len().saturating_sub(window)).map(|i| (i, i + window)).collect();
        WindowDataset { window, columns: Arc::new(columns), samples }
    }

    /// The same columns re-indexed so that every sample's history is its own
    /// target snapshot (window 1) — the training set of an amortized
    /// per-demand optimizer.
    pub fn targets_as_history(&self) -> WindowDataset {
        WindowDataset {
            window: 1,
            columns: Arc::clone(&self.columns),
            samples: self.samples.iter().map(|&(_, target)| (target, target)).collect(),
        }
    }

    /// Window length `H`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Values per column (the pair-universe size; 0 when no column is stored).
    pub fn num_pairs(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Number of (history, target) samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Dimension of the flattened feature vector (`H * num_pairs`).
    pub fn feature_dim(&self) -> usize {
        self.window * self.num_pairs()
    }

    /// The history window of sample `i` (`window` columns, oldest first).
    pub fn history(&self, i: usize) -> &[Vec<f64>] {
        let first = self.samples[i].0;
        &self.columns[first..first + self.window]
    }

    /// The target column of sample `i`.
    pub fn target(&self, i: usize) -> &[f64] {
        &self.columns[self.samples[i].1]
    }

    /// Every sample's history window, in sample order.
    pub fn histories(&self) -> impl ExactSizeIterator<Item = &[Vec<f64>]> {
        (0..self.len()).map(|i| self.history(i))
    }

    /// Largest demand value in any sample's history window (targets
    /// excluded) — the feature scale of training.
    pub fn max_history_entry(&self) -> f64 {
        let column_max: Vec<f64> = self.columns.iter().map(|c| ops::max_entry(c)).collect();
        self.samples
            .iter()
            .flat_map(|&(first, _)| &column_max[first..first + self.window])
            .fold(0.0, |max, &entry| max.max(entry))
    }

    /// Per-slot population variance over every stored column — the burst
    /// statistic feeding FIGRET's robustness term when retraining on observed
    /// traffic.
    pub fn per_slot_variance(&self) -> Vec<f64> {
        ops::mean_variance(self.num_pairs(), self.columns.iter().map(Vec::as_slice)).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DemandMatrix;

    fn trace(len: usize) -> TrafficTrace {
        let ms = (0..len)
            .map(|t| DemandMatrix::from_pairs(2, &[t as f64, 2.0 * t as f64]).unwrap())
            .collect();
        TrafficTrace::new("t", 1.0, ms)
    }

    #[test]
    fn chronological_split() {
        let s = TrainTestSplit::chronological(100, 0.75);
        assert_eq!(s.train, 0..75);
        assert_eq!(s.test, 75..100);
    }

    #[test]
    fn segment_split_for_drift() {
        let s = TrainTestSplit::segment(200, 0.25, 0.5, 0.75);
        assert_eq!(s.train, 50..100);
        assert_eq!(s.test, 150..200);
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn segment_split_rejects_overlap() {
        TrainTestSplit::segment(100, 0.5, 0.9, 0.75);
    }

    #[test]
    fn window_dataset_builds_correct_samples() {
        let t = trace(10);
        let ds = WindowDataset::from_trace(&t, 3, 0..10);
        // Targets 3..10 have a full window.
        assert_eq!(ds.len(), 7);
        assert_eq!(ds.window(), 3);
        assert_eq!(ds.num_pairs(), 2);
        assert_eq!(ds.history(0), [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]);
        assert_eq!(ds.target(0), t.snapshot(3).values());
        assert_eq!(ds.history(6)[2], t.snapshot(8).values());
        assert_eq!(ds.target(6), t.snapshot(9).values());
        assert_eq!(ds.feature_dim(), 6);
    }

    #[test]
    fn flat_dataset_mirrors_the_dense_window_dataset() {
        let t = trace(10);
        let columns: Vec<Vec<f64>> = t.snapshots().iter().map(|c| c.values().to_vec()).collect();
        assert_same_samples(
            &WindowDataset::from_columns(3, columns),
            &WindowDataset::from_trace(&t, 3, 0..10),
        );
        // Max over histories only: the final target column (9.0, 18.0) is
        // excluded, so the max history entry comes from column 8.
        assert_eq!(WindowDataset::from_trace(&t, 3, 0..10).max_history_entry(), 16.0);
    }

    fn assert_same_samples(a: &WindowDataset, b: &WindowDataset) {
        assert_eq!(a.len(), b.len());
        assert_eq!((a.window(), a.num_pairs()), (b.window(), b.num_pairs()));
        assert_eq!(a.feature_dim(), b.feature_dim());
        for i in 0..a.len() {
            assert_eq!(a.history(i), b.history(i));
            assert_eq!(a.target(i), b.target(i));
        }
        assert!(a.histories().eq(b.histories()));
        assert_eq!(a.max_history_entry().to_bits(), b.max_history_entry().to_bits());
    }

    #[test]
    fn flat_dataset_variance_and_degenerate_cases() {
        let columns = vec![vec![1.0, 4.0], vec![3.0, 4.0]];
        let flat = WindowDataset::from_columns(1, columns);
        assert_eq!(flat.len(), 1);
        // Population variance: mean (2, 4), squared deviations (1, 0).
        assert_eq!(flat.per_slot_variance(), vec![1.0, 0.0]);
        let short = WindowDataset::from_columns(4, vec![vec![1.0]; 3]);
        assert!(short.is_empty());
        assert_eq!(short.max_history_entry(), 0.0);
        assert_eq!(short.feature_dim(), 4);
    }

    #[test]
    #[should_panic(expected = "share one pair universe")]
    fn flat_dataset_rejects_ragged_columns() {
        WindowDataset::from_columns(1, vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn window_dataset_respects_range() {
        let t = trace(10);
        let ds = WindowDataset::from_trace(&t, 3, 8..10);
        assert_eq!(ds.len(), 2);
        // The first history reaches back before the range's start.
        assert_eq!(ds.history(0)[0], t.snapshot(5).values());
        assert_eq!(ds.target(0), t.snapshot(8).values());
        let empty = WindowDataset::from_trace(&t, 12, 0..10);
        assert!(empty.is_empty());
        assert_eq!(empty.feature_dim(), 0);
    }

    #[test]
    fn strided_targets_share_columns_and_scale_on_histories_only() {
        let t = trace(12);
        // Windows [1, 2] -> 3 and [2, 3] -> 4 overlap; [8, 9] -> 10 stands apart.
        let ds = WindowDataset::from_targets(&t, 2, [3, 4, 10]);
        assert_eq!(ds.len(), 3);
        for (i, target) in [3usize, 4, 10].into_iter().enumerate() {
            let history: Vec<Vec<f64>> =
                t.snapshots()[target - 2..target].iter().map(|c| c.values().to_vec()).collect();
            assert_eq!(ds.history(i), history);
            assert_eq!(ds.target(i), t.snapshot(target).values());
        }
        // Snapshots 1..=4 and 8..=10, once each.
        assert_eq!(ds.per_slot_variance().len(), 2);
        assert_eq!(ds.columns.len(), 7);
        // Column 10 (20.0) is only ever a target; 9 is the newest history.
        assert_eq!(ds.max_history_entry(), 18.0);

        // TEAL's re-indexing: each history is its own target, nothing copied.
        let same = ds.targets_as_history();
        assert_eq!((same.window(), same.len()), (1, 3));
        assert!(Arc::ptr_eq(&same.columns, &ds.columns));
        for i in 0..3 {
            assert_eq!(same.history(i), [ds.target(i)]);
            assert_eq!(same.target(i), ds.target(i));
        }
        assert_eq!(same.max_history_entry(), 20.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn targets_must_ascend() {
        WindowDataset::from_targets(&trace(10), 2, [5, 5]);
    }

    #[test]
    #[should_panic(expected = "no full window")]
    fn targets_need_a_full_window() {
        WindowDataset::from_targets(&trace(10), 4, [3]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both constructors describe the same samples, and `from_trace`
        /// keeps its contract: a sample for every `t` of `range` with
        /// `window <= t < len`, in order — for ranges that start below the
        /// window, run past the end of the trace, or hold no full window.
        #[test]
        fn from_trace_matches_from_columns_on_the_snapshots_it_covers(
            len in 0usize..24,
            window in 1usize..7,
            start in 0usize..30,
            span in 0usize..30,
        ) {
            let t = trace(len);
            let range = start..start + span;
            let ds = WindowDataset::from_trace(&t, window, range.clone());
            let targets: Vec<usize> = range.filter(|&t| window <= t && t < len).collect();
            prop_assert_eq!(ds.len(), targets.len());
            for (i, &target) in targets.iter().enumerate() {
                // Snapshot `s` of the fixture is the column `[s, 2s]`.
                prop_assert_eq!(ds.target(i), [target as f64, 2.0 * target as f64]);
            }
            let covered = match (targets.first(), targets.last()) {
                (Some(first), Some(last)) => first - window..last + 1,
                _ => 0..0,
            };
            let columns = t.snapshots()[covered].iter().map(|c| c.values().to_vec()).collect();
            assert_same_samples(&ds, &WindowDataset::from_columns(window, columns));
        }
    }
}
