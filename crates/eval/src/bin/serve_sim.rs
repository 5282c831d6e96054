//! serve_sim — the online TE controller harness (DESIGN.md §6–§8).
//!
//! Serves a scenario's test split, an unbounded online stream or a generated
//! fabric through a `figret_serve` fleet of `--shards N` controllers (1 =
//! unsharded) and reports MLU regret vs. the omniscient series, update
//! count against the budget, routing churn and per-decision latency
//! percentiles.  Common flags (`--fast`, `--snapshots N`, `--window N`,
//! `--max-eval N`, `--full-scale`) are shared with every experiment binary;
//! serving-specific flags are listed in `--help`-style usage output on any
//! flag error.  Every flag either takes effect or is a usage error (exit 2).

use figret_eval::experiments::ExperimentOptions;
use figret_eval::serving::{
    parse_topology, serve_sim, ServeEngine, ServeSimOptions, ServeTopology,
};
use figret_serve::{FallbackPolicy, PredictorKind, ReconfigPolicy, UpdateBudget};
use figret_topology::generators::target_size;
use figret_topology::Scale;

fn main() {
    let flags = ExperimentOptions::flag_set("serve_sim", "online TE controller replay harness")
        .text("topology", "geant", "topology to serve (geant, pod-db, ..., torN, podfabN)")
        .text("engine", "learned", "candidate engine: lp | learned")
        .text("predictor", "last", "online predictor: last | ewma[:a] | mean[:w] | max[:w]")
        .float("hysteresis", 0.05, "predicted-regret threshold before reconfiguring")
        .number("budget", 0, "max updates per budget window (0 = unlimited)")
        .number("budget-window", 16, "update-budget window length in ticks")
        .switch("always-update", "reconfigure every tick (batch-equivalence mode)")
        .number("online-ticks", 0, "serve N generated ticks instead of replaying the trace")
        .number("shards", 1, "split the pair universe into N source-block shards (1 = unsharded)")
        .number("retrain-every", 0, "retrain a challenger every N ticks while degraded (0 = off)")
        .number("retrain-window", 32, "observed demand columns kept for challenger retraining")
        .number("promotion-patience", 3, "consecutive shadow-audit wins before promotion")
        .number("shift-tick", 0, "online mode: inject a step shift N decision ticks in (0 = none)")
        .float("shift-factor", 4.0, "step-shift magnitude (even slots ×f, odd slots ×1/f)")
        .text("metrics-out", "", "write metrics to PATH.jsonl (stream) and PATH.prom (exposition)")
        .number("metrics-every", 10, "metrics snapshot cadence in decision ticks");
    let values = flags.parse_or_exit(std::env::args().skip(1));
    let fail = |message: String| -> ! { flags.usage_error(&message) };
    let experiment = ExperimentOptions::from_flag_values(&values).unwrap_or_else(|e| fail(e));
    let topology = parse_topology(values.text("topology")).unwrap_or_else(|e| fail(e));
    let predictor = PredictorKind::parse(values.text("predictor"), experiment.window)
        .unwrap_or_else(|e| fail(e));
    let engine = match values.text("engine") {
        "lp" => ServeEngine::Lp,
        "learned" => ServeEngine::Learned,
        other => fail(format!("unknown engine '{other}' (expected lp | learned)")),
    };
    let policy = if values.switch("always-update") {
        ReconfigPolicy::always_update()
    } else {
        ReconfigPolicy {
            hysteresis: values.float("hysteresis"),
            budget: match (values.number("budget"), values.number("budget-window")) {
                (_, 0) => fail("--budget-window must span at least one tick".to_string()),
                (0, _) => None,
                (k, window) => Some(UpdateBudget::per_window(k, window)),
            },
            fallback: FallbackPolicy::default(),
        }
    };

    let metrics_every = values.number("metrics-every");
    if metrics_every == 0 {
        fail("--metrics-every must be at least 1 tick".to_string());
    }
    let metrics_out = match values.text("metrics-out") {
        "" => None,
        base => {
            let base = std::path::PathBuf::from(base);
            // Probe both output files now so a bad path is a usage error,
            // not a mid-run panic.  create+append never truncates a file an
            // earlier run left behind; the sink truncates when it opens.
            for ext in ["jsonl", "prom"] {
                let probe = std::path::PathBuf::from(format!("{}.{ext}", base.display()));
                if let Err(e) = std::fs::OpenOptions::new().create(true).append(true).open(&probe) {
                    fail(format!("--metrics-out: cannot write '{}': {e}", probe.display()));
                }
            }
            Some(base)
        }
    };

    let retrain_every = values.number("retrain-every");
    let shift_tick = values.number("shift-tick");
    let online_ticks = values.number("online-ticks");
    let shards = values.number("shards");
    if retrain_every > 0 && engine != ServeEngine::Learned {
        fail("--retrain-every requires --engine learned (recovery retrains a model)".to_string());
    }
    let sources = match topology {
        ServeTopology::Table1(t) => {
            target_size(t, if experiment.full_scale { Scale::Full } else { Scale::Reduced }).0
        }
        ServeTopology::Fabric(spec) => spec.tors,
    };
    if shards == 0 || shards > sources {
        fail(format!(
            "--shards must be between 1 (unsharded) and the topology's {sources} traffic sources"
        ));
    }
    if let ServeTopology::Fabric(_) = topology {
        // A generated fabric has no train split and no online generator.
        if engine == ServeEngine::Learned {
            fail("--topology torN|podfabN has no train split; it requires --engine lp".to_string());
        }
        if online_ticks > 0 {
            fail(
                "--online-ticks serves a Table 1 network, not --topology torN|podfabN".to_string(),
            );
        }
    }
    if shift_tick > 0 && online_ticks == 0 {
        fail("--shift-tick shifts the generated stream; it requires --online-ticks".to_string());
    }
    let shift_factor = values.float("shift-factor");
    if !(shift_factor.is_finite() && shift_factor > 0.0) {
        // Odd slots are scaled by 1/f: a zero factor serves infinite demand.
        fail(format!("--shift-factor must be finite and > 0 (got {shift_factor})"));
    }
    let retrain_window = values.number("retrain-window");
    let window = experiment.window;
    if retrain_every > 0 && retrain_window <= window {
        // A challenger trains on the window's samples: each needs `window`
        // history columns and one target.
        fail(format!(
            "--retrain-window {retrain_window} holds no training sample of window {window}; \
             use --retrain-window {} or more",
            window + 1
        ));
    }

    let options = ServeSimOptions {
        topology,
        engine,
        predictor,
        policy,
        online_ticks,
        max_ticks: Some(experiment.max_eval),
        shards,
        retrain_every,
        retrain_window,
        promotion_patience: values.number("promotion-patience"),
        shift_tick,
        shift_factor,
        metrics_out,
        metrics_every,
        experiment,
    };
    serve_sim(&options);
}
