//! `perf_ledger` — one command, four serving workloads, end-to-end and
//! per-layer metrics (ROADMAP open item 1).
//!
//! ```text
//! perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, one result line
//! perf_ledger --all [--seed N] [--runs N] [--out FILE] [--smoke]       the whole matrix
//! perf_ledger compare OLD.json NEW.json                               gate NEW against OLD
//! ```
//!
//! The benchmark drives the program only through public functions and times
//! them from outside; README.md beside this file lists that surface, the
//! workloads, the metrics and what each per-layer metric is expected to move.

mod json;
mod layers;
mod metrics;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use figret_eval::{FlagSet, FlagValues};

use json::Json;
use workloads::{Scale, Workload, WORKLOADS};

/// Exit code of a usage error or a refused build, as in the other binaries.
const EXIT_USAGE: u8 = 2;

fn flags() -> FlagSet {
    FlagSet::new("perf_ledger", "serving benchmark: end-to-end and per-layer metrics")
        .text(
            "workload",
            "",
            "run one workload: wan_learned, dc_fleet_lp, lp_monolith, recovery_drill",
        )
        .switch("all", "run every workload, untraced then traced, each in its own process")
        .number("seed", 1, "redraws the noise on every demand value (2 is the held-out seed)")
        .number("seconds", 10, "nominal seconds of one pass; sets the tick counts")
        .number("trace", 0, "0: end-to-end metrics; 1: traced pass, probes, per-layer metrics")
        .switch("smoke", "a fiftieth of the ticks, 40 training snapshots; not comparable")
        .number("runs", 1, "--all: how often each workload runs")
        .text("out", "", "--all: write the results document here")
        .text("trace-out", "", "directory for <workload>.spans.jsonl of traced runs")
}

/// Threads of the vendored rayon, which reads the variable once per process:
/// at most two, so that results from a small and a large host compare.
fn pin_rayon_threads() {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("RAYON_NUM_THREADS", nproc.min(2).to_string());
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn scale_of(values: &FlagValues) -> Scale {
    Scale { seconds: values.number("seconds") as u64, smoke: values.switch("smoke") }
}

fn spans_path(values: &FlagValues, workload: Workload) -> Option<PathBuf> {
    let dir = values.text("trace-out");
    (!dir.is_empty()).then(|| PathBuf::from(dir).join(format!("{}.spans.jsonl", workload.name())))
}

/// One workload in this process: prints every metric, the run record, and
/// as the last line the result the benchmark driver reads.
fn run_one(workload: Workload, values: &FlagValues) -> ExitCode {
    let traced = values.number("trace") != 0;
    let spans = spans_path(values, workload).filter(|_| traced);
    let result = run::run(
        workload,
        values.number("seed") as u64,
        scale_of(values),
        traced,
        spans.as_deref(),
    );
    report::print_metrics(&result);
    println!("run_record {}", report::run_record(&result));
    println!("{}", report::driver_line(&result));
    exit_code(result.errors.is_empty() && result.failed == 0)
}

/// The whole matrix: every workload in a child process of its own, so that
/// peak RSS is per workload.  Each child is a traced run, which serves the
/// untraced passes first: its record carries both sets of metrics.
fn run_all(values: &FlagValues) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut records = Vec::new();
    let mut ok = true;
    for _ in 0..values.number("runs").max(1) {
        for workload in WORKLOADS {
            let mut child = Command::new(&exe);
            child.args(["--workload", workload.name(), "--trace", "1"]);
            for flag in ["seed", "seconds"] {
                child.args([format!("--{flag}"), values.number(flag).to_string()]);
            }
            if values.switch("smoke") {
                child.arg("--smoke");
            }
            if !values.text("trace-out").is_empty() {
                child.args(["--trace-out", values.text("trace-out")]);
            }
            // `output` waits for the child and collects what it printed.
            let output = child.output().expect("cannot start a child perf_ledger");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            ok &= output.status.success();
            match stdout.lines().find_map(|l| l.strip_prefix("run_record ")).map(Json::parse) {
                Some(Ok(record)) => records.push(record),
                _ => ok = false,
            }
        }
    }
    let document = report::results_document(values.switch("smoke"), records);
    let out = values.text("out");
    if !out.is_empty() {
        if let Err(e) = std::fs::write(out, format!("{document}\n")) {
            eprintln!("cannot write '{out}': {e}");
            return ExitCode::FAILURE;
        }
        println!("results written to {out}");
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, old, new] = args.as_slice() else {
            eprintln!("usage: perf_ledger compare OLD.json NEW.json");
            return ExitCode::from(EXIT_USAGE);
        };
        return match report::compare(old, new) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }
    let flags = flags();
    let values = flags.parse_or_exit(args);
    if cfg!(debug_assertions) {
        eprintln!("perf_ledger measures optimized builds only: build with --release");
        return ExitCode::from(EXIT_USAGE);
    }
    pin_rayon_threads();
    if values.switch("all") {
        return run_all(&values);
    }
    match Workload::parse(values.text("workload")) {
        Some(workload) => run_one(workload, &values),
        None => flags.usage_error("name a workload with --workload, or pass --all"),
    }
}
