//! Fleet acceptance contracts of the serving harness (DESIGN.md §8).  The
//! harness has one path — `--shards 1` *is* the unsharded run, and
//! `figret_serve`'s `single_shard_fleet_replays_the_unsharded_controller`
//! pins that a one-shard fleet replays a lone controller bit for bit — so
//! what is left to check here is the sharded side:
//!
//! * a multi-shard fleet on the pod fabric replays bit for bit in process,
//!   and is bit-deterministic across *processes* with different
//!   `RAYON_NUM_THREADS` (the vendored rayon caches its thread count per
//!   process, so the variation must cross a process boundary — this test
//!   drives the real `serve_sim` binary);
//! * `--shards 1` prints the digests of a run without the flag, and the
//!   selectors this harness no longer has (`--demand`, `--shards 0`) are
//!   usage errors.

use figret_eval::experiments::ExperimentOptions;
use figret_eval::serving::{serve, ServeEngine, ServeSimOptions, ServeTopology};
use figret_serve::{FallbackPolicy, ReconfigPolicy, UpdateBudget};
use figret_topology::FabricSpec;

fn gated_policy() -> ReconfigPolicy {
    // Real gates to exercise: hysteresis holds and a budget that exhausts,
    // so the admission layer must reproduce the controller's sequence.
    ReconfigPolicy {
        hysteresis: 0.02,
        budget: Some(UpdateBudget::per_window(2, 6)),
        fallback: FallbackPolicy::disabled(),
    }
}

#[test]
fn multi_shard_pod_fabric_fleet_is_deterministic() {
    let options = ServeSimOptions {
        experiment: ExperimentOptions {
            fast: true,
            snapshots: 12,
            window: 2,
            ..Default::default()
        },
        topology: ServeTopology::Fabric(FabricSpec::two_tier(16)),
        engine: ServeEngine::Lp,
        policy: gated_policy(),
        max_ticks: Some(8),
        shards: 4,
        ..ServeSimOptions::new(ExperimentOptions::default())
    };
    let a = serve(&options);
    let b = serve(&options);
    assert_eq!(a.fleet.num_shards(), 4);
    assert_eq!(a.fleet.digest(), b.fleet.digest());
    assert_eq!(a.fleet.decision_digest(), b.fleet.decision_digest());
    for (x, y) in a.realized_mlus.iter().zip(&b.realized_mlus) {
        assert_eq!(x.to_bits(), y.to_bits(), "global MLU series must be bit-identical");
    }
    assert_eq!(a.fleet.admission_stats(), b.fleet.admission_stats());
}

/// Extracts the digest report lines (`decision_log_digest,…` and
/// `decision_digest,…`) from a `serve_sim` run.
fn digest_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| l.starts_with("decision_log_digest,") || l.starts_with("decision_digest,"))
        .collect()
}

const PODFAB_ARGS: &[&str] = &[
    "--topology",
    "podfab16",
    "--engine",
    "lp",
    "--fast",
    "--snapshots",
    "10",
    "--window",
    "2",
    "--max-eval",
    "6",
];

fn serve_sim(extra: &[&str], threads: &str) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(PODFAB_ARGS)
        .args(extra)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("serve_sim must run")
}

#[test]
fn serve_sim_fleet_digests_agree_across_thread_counts_and_with_unsharded() {
    let run = |threads: &str, extra: &[&str]| -> String {
        let out = serve_sim(extra, threads);
        assert!(out.status.success(), "serve_sim failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let sharded_1t = run("1", &["--shards", "4"]);
    let sharded_4t = run("4", &["--shards", "4"]);
    let d1 = digest_lines(&sharded_1t);
    assert_eq!(d1.len(), 2, "the fleet report must print both digest lines");
    assert_eq!(d1, digest_lines(&sharded_4t), "fleet digests must not depend on the thread count");
    // `--shards 1` is the default: the unsharded run.
    assert_eq!(
        digest_lines(&run("4", &["--shards", "1"])),
        digest_lines(&run("4", &[])),
        "--shards 1 must print the digests of a run without the flag"
    );
}

#[test]
fn removed_path_selectors_are_usage_errors() {
    for extra in [&["--demand", "sparse"], &["--shards", "0"]] {
        let out = serve_sim(extra, "1");
        assert_eq!(out.status.code(), Some(2), "{extra:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(extra[0]), "unexpected error: {err}");
        assert!(err.contains("USAGE"), "a usage error must print the usage text: {err}");
    }
}
