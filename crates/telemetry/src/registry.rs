//! The metrics registry: named counters, gauges and histograms with
//! typed index handles.
//!
//! Names follow the Prometheus convention documented in DESIGN.md §10:
//! `figret_<subsystem>_<quantity>[_total|_seconds]`, optionally with a
//! `{label="value"}` suffix baked into the name (labels are static in
//! this codebase, so interning the full labeled name keeps lookups off
//! the hot path entirely).  Registration allocates; everything after
//! registration is an index into a dense `Vec` — the zero-alloc
//! steady-state contract.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, Copy)]
enum MetricSlot {
    Counter(usize),
    Gauge(usize),
    Histogram(usize),
}

/// A collection of named metrics with get-or-create registration and
/// stable-order (name-sorted) iteration, exposition and merging.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    index: BTreeMap<String, MetricSlot>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) a counter by name.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(slot) = self.index.get(name) {
            match *slot {
                MetricSlot::Counter(i) => return CounterId(i),
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let i = self.counters.len();
        self.counters.push((name.to_string(), 0));
        self.index.insert(name.to_string(), MetricSlot::Counter(i));
        CounterId(i)
    }

    /// Registers (or finds) a gauge by name.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(slot) = self.index.get(name) {
            match *slot {
                MetricSlot::Gauge(i) => return GaugeId(i),
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let i = self.gauges.len();
        self.gauges.push((name.to_string(), 0.0));
        self.index.insert(name.to_string(), MetricSlot::Gauge(i));
        GaugeId(i)
    }

    /// Registers (or finds) a histogram by name.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(slot) = self.index.get(name) {
            match *slot {
                MetricSlot::Histogram(i) => return HistogramId(i),
                _ => panic!("metric '{name}' already registered with a different kind"),
            }
        }
        let i = self.histograms.len();
        self.histograms.push((name.to_string(), Histogram::new()));
        self.index.insert(name.to_string(), MetricSlot::Histogram(i));
        HistogramId(i)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.record(value);
    }

    /// Current value of a counter handle.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Looks up a counter's value by name.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        match self.index.get(name) {
            Some(&MetricSlot::Counter(i)) => Some(self.counters[i].1),
            _ => None,
        }
    }

    /// Looks up a gauge's value by name.
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        match self.index.get(name) {
            Some(&MetricSlot::Gauge(i)) => Some(self.gauges[i].1),
            _ => None,
        }
    }

    /// Looks up a histogram by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        match self.index.get(name) {
            Some(&MetricSlot::Histogram(i)) => Some(&self.histograms[i].1),
            _ => None,
        }
    }

    /// All counters as `(name, value)`, sorted by name.
    pub fn counters(&self) -> Vec<(&str, u64)> {
        self.index
            .iter()
            .filter_map(|(name, slot)| match *slot {
                MetricSlot::Counter(i) => Some((name.as_str(), self.counters[i].1)),
                _ => None,
            })
            .collect()
    }

    /// All gauges as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> Vec<(&str, f64)> {
        self.index
            .iter()
            .filter_map(|(name, slot)| match *slot {
                MetricSlot::Gauge(i) => Some((name.as_str(), self.gauges[i].1)),
                _ => None,
            })
            .collect()
    }

    /// All histograms as `(name, histogram)`, sorted by name.
    pub fn histograms(&self) -> Vec<(&str, &Histogram)> {
        self.index
            .iter()
            .filter_map(|(name, slot)| match *slot {
                MetricSlot::Histogram(i) => Some((name.as_str(), &self.histograms[i].1)),
                _ => None,
            })
            .collect()
    }

    /// `true` when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Merges another registry into this one *by name, in sorted name
    /// order*: counters add, histograms merge bucket-wise, gauges take the
    /// other registry's value.  Missing metrics are registered first, so
    /// merging per-shard registries in a fixed shard order yields a fleet
    /// snapshot independent of rayon scheduling.
    pub fn merge_from(&mut self, other: &Registry) {
        for (name, value) in other.counters() {
            let id = self.counter(name);
            self.add(id, value);
        }
        for (name, value) in other.gauges() {
            let id = self.gauge(name);
            self.set(id, value);
        }
        for (name, hist) in other.histograms() {
            let id = self.histogram(name);
            self.histograms[id.0].1.merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let mut r = Registry::new();
        let a = r.counter("figret_test_total");
        let b = r.counter("figret_test_total");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.counter_by_name("figret_test_total"), Some(3));
        assert_eq!(r.counter_by_name("missing"), None);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let mut r = Registry::new();
        r.counter("figret_test_total");
        r.gauge("figret_test_total");
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = Registry::new();
        let ca = a.counter("x_total");
        a.add(ca, 5);
        let ha = a.histogram("y_seconds");
        a.observe(ha, 1e-4);

        let mut b = Registry::new();
        let hb = b.histogram("y_seconds");
        b.observe(hb, 2e-4);
        let cb = b.counter("x_total");
        b.add(cb, 7);
        let gb = b.gauge("z_level");
        b.set(gb, 1.5);

        a.merge_from(&b);
        assert_eq!(a.counter_by_name("x_total"), Some(12));
        assert_eq!(a.histogram_by_name("y_seconds").unwrap().count(), 2);
        assert_eq!(a.gauge_by_name("z_level"), Some(1.5));
    }

    #[test]
    fn merge_order_of_shards_does_not_matter_for_values() {
        let build = |seed: u64| {
            let mut r = Registry::new();
            let c = r.counter("figret_serve_ticks_total");
            r.add(c, seed);
            let h = r.histogram("figret_serve_decision_seconds");
            r.observe(h, seed as f64 * 1e-6);
            r
        };
        let shards = [build(3), build(8), build(21)];
        let mut forward = Registry::new();
        for s in &shards {
            forward.merge_from(s);
        }
        let mut backward = Registry::new();
        for s in shards.iter().rev() {
            backward.merge_from(s);
        }
        assert_eq!(
            forward.counter_by_name("figret_serve_ticks_total"),
            backward.counter_by_name("figret_serve_ticks_total")
        );
        let fh = forward.histogram_by_name("figret_serve_decision_seconds").unwrap();
        let bh = backward.histogram_by_name("figret_serve_decision_seconds").unwrap();
        assert_eq!(fh.count(), bh.count());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(fh.quantile(q), bh.quantile(q));
        }
    }
}
