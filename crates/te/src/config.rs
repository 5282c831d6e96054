//! TE configurations: per-path split ratios.
//!
//! A TE configuration `R` assigns every candidate path `p ∈ P_sd` a split
//! ratio `r_p ≥ 0` with `Σ_{p ∈ P_sd} r_p = 1` (§3 of the paper).  Ratios are
//! stored flat, indexed by the global path index of the associated
//! [`crate::pathset::PathSet`].

use crate::pathset::{PairIndex, PathSet};

/// A TE configuration: one split ratio per candidate path.
#[derive(Debug, Clone, PartialEq)]
pub struct TeConfig {
    ratios: Vec<f64>,
}

/// Tolerance used when validating that split ratios sum to one.
pub const RATIO_TOLERANCE: f64 = 1e-6;

impl Default for TeConfig {
    /// An empty configuration (no paths).  Useful as a reusable buffer for
    /// [`TeConfig::assign_from_raw`]; not valid for any non-empty path set.
    fn default() -> TeConfig {
        TeConfig { ratios: Vec::new() }
    }
}

impl TeConfig {
    /// A configuration that splits every pair's traffic uniformly over its
    /// candidate paths.
    pub fn uniform(paths: &PathSet) -> TeConfig {
        let mut ratios = vec![0.0; paths.num_paths()];
        for pair in 0..paths.num_pairs() {
            let range = paths.paths_of_pair(pair);
            let n = range.len();
            if n == 0 {
                continue;
            }
            for pi in range {
                ratios[pi] = 1.0 / n as f64;
            }
        }
        TeConfig { ratios }
    }

    /// A configuration that sends every pair's traffic on its first candidate
    /// path (the shortest path for a k-shortest path set).
    pub fn shortest_path(paths: &PathSet) -> TeConfig {
        let mut ratios = vec![0.0; paths.num_paths()];
        for pair in 0..paths.num_pairs() {
            let range = paths.paths_of_pair(pair);
            if let Some(first) = range.clone().next() {
                ratios[first] = 1.0;
            }
        }
        TeConfig { ratios }
    }

    /// Builds a configuration from raw ratios (one per global path index).
    ///
    /// The ratios of every pair are renormalized to sum to one; pairs whose
    /// ratios are all zero (or that have no paths) fall back to a uniform
    /// split, mirroring how the paper normalizes neural-network outputs (§6,
    /// "enforced by normalizing the outputs").  Negative inputs are clamped.
    pub fn from_raw(paths: &PathSet, raw: &[f64]) -> TeConfig {
        let mut config = TeConfig::default();
        config.assign_from_raw(paths, raw);
        config
    }

    /// In-place [`TeConfig::from_raw`]: identical arithmetic, but reuses this
    /// configuration's ratio buffer instead of allocating a new one (the
    /// serving hot path calls this once per decision).
    pub fn assign_from_raw(&mut self, paths: &PathSet, raw: &[f64]) {
        assert_eq!(raw.len(), paths.num_paths(), "one ratio per path is required");
        self.ratios.clear();
        self.ratios.resize(paths.num_paths(), 0.0);
        for pair in 0..paths.num_pairs() {
            let range = paths.paths_of_pair(pair);
            let n = range.len();
            if n == 0 {
                continue;
            }
            let sum: f64 = range.clone().map(|pi| raw[pi].max(0.0)).sum();
            if sum > 0.0 {
                for pi in range {
                    self.ratios[pi] = raw[pi].max(0.0) / sum;
                }
            } else {
                for pi in range {
                    self.ratios[pi] = 1.0 / n as f64;
                }
            }
        }
    }

    /// Builds a configuration from ratios that are already normalized.
    ///
    /// Returns `None` if any pair's ratios do not sum to one within
    /// [`RATIO_TOLERANCE`] or if a ratio is negative/non-finite.
    pub fn from_normalized(paths: &PathSet, ratios: Vec<f64>) -> Option<TeConfig> {
        if ratios.len() != paths.num_paths() {
            return None;
        }
        if ratios.iter().any(|r| !r.is_finite() || *r < -RATIO_TOLERANCE) {
            return None;
        }
        for pair in 0..paths.num_pairs() {
            let range = paths.paths_of_pair(pair);
            if range.is_empty() {
                continue;
            }
            let sum: f64 = range.map(|pi| ratios[pi]).sum();
            if (sum - 1.0).abs() > RATIO_TOLERANCE {
                return None;
            }
        }
        Some(TeConfig { ratios })
    }

    /// The configuration a failure rerouting produced: every pair's ratios
    /// sum to one, except those of a pair left without a live path, which
    /// are all zero (its demand cannot be served, so it loads no edge).
    pub(crate) fn from_rerouted(ratios: Vec<f64>) -> TeConfig {
        TeConfig { ratios }
    }

    /// The split ratio of a path.
    #[inline]
    pub fn ratio(&self, path: usize) -> f64 {
        self.ratios[path]
    }

    /// All ratios, indexed by global path index.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Validates that every pair's ratios sum to one (within tolerance).
    pub fn is_valid(&self, paths: &PathSet) -> bool {
        if self.ratios.len() != paths.num_paths() {
            return false;
        }
        for pair in 0..paths.num_pairs() {
            let range = paths.paths_of_pair(pair);
            if range.is_empty() {
                continue;
            }
            let sum: f64 = range.map(|pi| self.ratios[pi]).sum();
            if (sum - 1.0).abs() > RATIO_TOLERANCE {
                return false;
            }
        }
        self.ratios.iter().all(|r| r.is_finite() && *r >= -RATIO_TOLERANCE)
    }

    /// The split ratios of one pair as `(global path index, ratio)` tuples.
    pub fn pair_ratios<'a>(
        &'a self,
        paths: &PathSet,
        pair: PairIndex,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        paths.paths_of_pair(pair).map(move |pi| (pi, self.ratios[pi]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{Topology, TopologySpec};

    fn pod_paths() -> PathSet {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        PathSet::k_shortest(&g, 3)
    }

    #[test]
    fn uniform_and_shortest_are_valid() {
        let ps = pod_paths();
        assert!(TeConfig::uniform(&ps).is_valid(&ps));
        let sp = TeConfig::shortest_path(&ps);
        assert!(sp.is_valid(&ps));
        // Shortest-path config puts full weight on exactly one path per pair.
        for pair in 0..ps.num_pairs() {
            let ones = sp.pair_ratios(&ps, pair).filter(|(_, r)| (*r - 1.0).abs() < 1e-12).count();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn from_raw_normalizes_and_handles_zeros() {
        let ps = pod_paths();
        let mut raw = vec![0.0; ps.num_paths()];
        // Give pair 0 unnormalized weights 2, 6, 2 -> 0.2, 0.6, 0.2.
        let range: Vec<usize> = ps.paths_of_pair(0).collect();
        raw[range[0]] = 2.0;
        raw[range[1]] = 6.0;
        raw[range[2]] = 2.0;
        let cfg = TeConfig::from_raw(&ps, &raw);
        assert!(cfg.is_valid(&ps));
        assert!((cfg.ratio(range[1]) - 0.6).abs() < 1e-12);
        // Pairs with all-zero raw ratios fall back to uniform.
        let uniform_pair: Vec<f64> = cfg.pair_ratios(&ps, 1).map(|(_, r)| r).collect();
        assert!(uniform_pair.iter().all(|r| (*r - 1.0 / uniform_pair.len() as f64).abs() < 1e-12));
        // Negative values are clamped.
        raw[range[0]] = -5.0;
        let cfg2 = TeConfig::from_raw(&ps, &raw);
        assert_eq!(cfg2.ratio(range[0]), 0.0);
        assert!(cfg2.is_valid(&ps));
    }

    #[test]
    fn from_normalized_validates() {
        let ps = pod_paths();
        let uniform = TeConfig::uniform(&ps);
        assert!(TeConfig::from_normalized(&ps, uniform.ratios().to_vec()).is_some());
        let mut bad = uniform.ratios().to_vec();
        bad[0] += 0.5;
        assert!(TeConfig::from_normalized(&ps, bad).is_none());
        assert!(TeConfig::from_normalized(&ps, vec![0.0; 3]).is_none());
        let mut neg = uniform.ratios().to_vec();
        neg[0] = -1.0;
        neg[1] = 1.0 + uniform.ratio(0);
        assert!(TeConfig::from_normalized(&ps, neg).is_none());
    }
}
