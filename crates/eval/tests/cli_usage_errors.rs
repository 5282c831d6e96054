//! Flag values no run can use are usage errors: the binary prints a message
//! naming the flag and exits with status 2, before it builds a scenario.
//! Each invocation below once reached a panic (exit 101) deep in a run.

use std::process::Command;

/// Runs `binary` with `args` and returns its stderr, asserting exit status 2.
fn usage_error(binary: &str, args: &[&str]) -> String {
    let output = Command::new(binary).args(args).output().expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{binary} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{binary} {args:?}: {stderr}");
    stderr
}

const FIG5: &str = env!("CARGO_BIN_EXE_fig5_quality");
const TABLE2: &str = env!("CARGO_BIN_EXE_table2_time");
const TABLE4: &str = env!("CARGO_BIN_EXE_table4_drift");
const SERVE_SIM: &str = env!("CARGO_BIN_EXE_serve_sim");

#[test]
fn a_zero_window_is_a_usage_error() {
    for binary in [FIG5, SERVE_SIM] {
        let stderr = usage_error(binary, &["--fast", "--window", "0"]);
        assert!(stderr.contains("--window must be at least 1"), "{stderr}");
    }
}

#[test]
fn a_zero_evaluation_budget_is_a_usage_error() {
    // `serve_sim` once served zero ticks and exited 0 with empty digests.
    for binary in [FIG5, SERVE_SIM] {
        let stderr = usage_error(binary, &["--fast", "--max-eval", "0"]);
        assert!(stderr.contains("--max-eval must be at least 1"), "{stderr}");
    }
}

#[test]
fn a_trace_without_a_training_sample_is_a_usage_error() {
    for binary in [FIG5, TABLE2, SERVE_SIM] {
        let stderr = usage_error(binary, &["--fast", "--snapshots", "5"]);
        assert!(stderr.contains("--snapshots 5 leaves no training sample"), "{stderr}");
        assert!(stderr.contains("--snapshots 18 or more"), "{stderr}");
    }
}

#[test]
fn table4_needs_a_training_sample_in_its_first_segment() {
    // 18 snapshots leave the chronological split a sample, but the first
    // 25% (4 snapshots) hold no full window of 12.
    let stderr = usage_error(TABLE4, &["--fast", "--snapshots", "18"]);
    assert!(stderr.contains("--snapshots 18 leaves Table 4's first segment"), "{stderr}");
    assert!(stderr.contains("--snapshots 52 or more"), "{stderr}");
}

#[test]
fn a_zero_budget_window_is_a_usage_error() {
    let stderr =
        usage_error(SERVE_SIM, &["--engine", "lp", "--budget", "2", "--budget-window", "0"]);
    assert!(stderr.contains("--budget-window"), "{stderr}");
}

#[test]
fn more_shards_than_sources_is_a_usage_error() {
    let stderr = usage_error(
        SERVE_SIM,
        &[
            "--topology",
            "podfab16",
            "--fast",
            "--snapshots",
            "10",
            "--window",
            "2",
            "--engine",
            "lp",
            "--shards",
            "40",
        ],
    );
    assert!(stderr.contains("--shards"), "{stderr}");
    assert!(stderr.contains("16 traffic sources"), "{stderr}");
}

#[test]
fn a_retrain_window_without_a_training_sample_is_a_usage_error() {
    // Window 4: a challenger's training sample needs 4 history columns and a
    // target.  0 once panicked; 1..=4 retrained nothing.
    for retrain_window in ["0", "4"] {
        let args = format!(
            "--topology pod-db --fast --snapshots 60 --window 4 --online-ticks 20 \
             --retrain-every 4 --retrain-window {retrain_window} --shift-tick 2"
        );
        let stderr = usage_error(SERVE_SIM, &args.split_whitespace().collect::<Vec<_>>());
        assert!(stderr.contains("--retrain-window 5 or more"), "{stderr}");
    }
}

#[test]
fn a_shift_factor_that_is_not_positive_and_finite_is_a_usage_error() {
    // Odd slots are scaled by 1/f: a zero factor once served infinite demand.
    for factor in ["0", "-2", "inf", "NaN"] {
        let args =
            ["--fast", "--online-ticks", "10", "--shift-tick", "2", "--shift-factor", factor];
        let stderr = usage_error(SERVE_SIM, &args);
        assert!(stderr.contains("--shift-factor must be finite and > 0"), "{stderr}");
    }
}
