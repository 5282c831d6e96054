//! Regenerates the "table4_drift" table/figure of the paper.  Common flags:
//! `--fast`, `--full-scale`, `--snapshots N`, `--window N`, `--max-eval N`.
use figret_eval::experiments::{table4_drift, ExperimentOptions};
use figret_traffic::TrainTestSplit;

fn main() {
    let flags = ExperimentOptions::flag_set("table4_drift", "regenerate Table 4 (natural drift)");
    let options =
        ExperimentOptions::from_flag_values(&flags.parse_or_exit(std::env::args().skip(1)))
            .unwrap_or_else(|message| flags.usage_error(&message));
    // The earliest drift segment trains on the first 25% of the trace alone.
    let trains = |n: usize| TrainTestSplit::segment(n, 0.0, 0.25, 0.75).train.end > options.window;
    if !trains(options.snapshots) {
        let least = (options.snapshots.max(options.window.saturating_mul(4))..=usize::MAX)
            .find(|&n| trains(n))
            .map_or(String::new(), |n| format!("; use --snapshots {n} or more"));
        flags.usage_error(&format!(
            "--snapshots {} leaves Table 4's first segment (the first 25% of the trace) no \
             training sample for --window {}{least}",
            options.snapshots, options.window
        ));
    }
    table4_drift(&options);
}
