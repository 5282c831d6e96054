//! Recovery acceptance contracts of the `serve_sim` harness (DESIGN.md §9):
//!
//! * the online recovery drill (weak learned incumbent + step shift +
//!   `--retrain-every`) must walk the whole ladder — a `Degraded`
//!   transition, at least one `RetrainStarted`, and a `Promoted` challenger
//!   back in live serving — and must report the recovery summary;
//! * the run is bit-deterministic across *processes* with different
//!   `RAYON_NUM_THREADS` (the vendored rayon caches its thread count per
//!   process, so the variation must cross a process boundary — this test
//!   drives the real `serve_sim` binary, like `fleet_equivalence.rs`).

/// The drill's flags past the scenario size.
const DRILL_ARGS: &[&str] = &[
    "--topology",
    "pod-db",
    "--engine",
    "learned",
    "--fast",
    "--online-ticks",
    "60",
    "--retrain-every",
    "4",
    "--promotion-patience",
    "2",
    "--shift-tick",
    "10",
];

/// Runs the recovery drill and returns its stdout report.
fn recovery_run(threads: &str, extra: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(DRILL_ARGS)
        .args(extra)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("serve_sim must run");
    assert!(out.status.success(), "serve_sim failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The machine-greppable lines whose bit-determinism the smoke guards: the
/// two digest lines plus every transition line.
fn deterministic_lines(output: &str) -> Vec<&str> {
    output
        .lines()
        .filter(|l| {
            l.starts_with("decision_log_digest,")
                || l.starts_with("decision_digest,")
                || l.starts_with("transition,")
        })
        .collect()
}

#[test]
fn online_recovery_drill_promotes_and_is_thread_count_invariant() {
    let unsharded = ["--snapshots", "60", "--window", "4"];
    let one = recovery_run("1", &unsharded);
    let lines = deterministic_lines(&one);
    assert!(lines.iter().any(|l| l.ends_with(",Degraded")), "the drill must degrade:\n{one}");
    assert!(lines.iter().any(|l| l.ends_with(",RetrainStarted")), "no retrain ran:\n{one}");
    assert!(lines.iter().any(|l| l.ends_with(",Promoted")), "no challenger promoted:\n{one}");
    assert!(one.contains("self-healing recovery"), "the recovery summary is missing:\n{one}");
    assert!(one.contains("time to recovery"), "the recovery summary is incomplete:\n{one}");
    assert!(
        one.lines().any(|l| l.starts_with("stream_event,") && l.contains("shifted=true")),
        "the step shift must surface as a stream annotation:\n{one}"
    );

    let four = recovery_run("4", &unsharded);
    assert_eq!(
        lines,
        deterministic_lines(&four),
        "recovery transitions and digests must not depend on the thread count"
    );
}

/// `--engine learned --shards N` is the same `build_controller` per shard:
/// every flag of the drill takes effect on a sharded run.
#[test]
fn sharded_learned_drill_honours_every_flag_and_is_thread_count_invariant() {
    let one = recovery_run("1", &["--shards", "2"]);
    let title = one.lines().find(|l| l.starts_with("# serve_sim")).expect("a report title");
    assert!(title.contains("online, 2 shards, learned,"), "unexpected title: {title}");
    assert!(one.contains("self-healing recovery"), "--retrain-every must arm recovery:\n{one}");
    assert!(
        one.lines().any(|l| l.starts_with("stream_event,") && l.contains("shifted=true")),
        "--shift-tick must shift the generated stream:\n{one}"
    );
    let lines = deterministic_lines(&one);
    assert!(lines.iter().any(|l| l.starts_with("transition,")), "no shard degraded:\n{one}");
    assert_eq!(
        lines,
        deterministic_lines(&recovery_run("4", &["--shards", "2"])),
        "sharded recovery transitions and digests must not depend on the thread count"
    );
}

#[test]
fn recovery_flags_are_validated() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(["--engine", "lp", "--retrain-every", "4"])
        .output()
        .expect("serve_sim must run");
    assert!(!out.status.success(), "--retrain-every with the LP engine must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--engine learned"), "unexpected error: {err}");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(["--shift-tick", "5"])
        .output()
        .expect("serve_sim must run");
    assert!(!out.status.success(), "--shift-tick without --online-ticks must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--online-ticks"), "unexpected error: {err}");
}
