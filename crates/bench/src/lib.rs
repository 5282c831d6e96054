//! # figret-bench
//!
//! The repo's performance surface.  `perf_ledger` (`src/bin/perf_ledger/`,
//! declared by the root `BENCHMARK.json`) is *the* perf command: four
//! serving workloads, end-to-end and per-layer metrics.  The criterion
//! targets under `benches/` are only the three scale sweeps the ledger does
//! not have (`sparse_scale`, `shard_scale`, `fleet_inference`); this
//! library holds their shared setup.

#![warn(missing_docs)]

pub mod fleet;

pub use figret_eval::{Scenario, ScenarioOptions};
pub use figret_topology::Topology;

/// Builds the reduced-scale scenario used by the benchmarks for a topology,
/// with a short trace so setup stays cheap.
pub fn bench_setup(topology: Topology, snapshots: usize) -> Scenario {
    Scenario::build(topology, &ScenarioOptions { num_snapshots: snapshots, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_setup_builds_a_scenario() {
        let s = bench_setup(Topology::MetaDbPod, 20);
        assert_eq!(s.trace.len(), 20);
        assert!(s.paths.num_paths() > 0);
    }
}
