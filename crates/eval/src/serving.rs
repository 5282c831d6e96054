//! The serving harness and report (`serve_sim` binary; DESIGN.md §6–§8).
//!
//! There is one serving path.  Every run — a Table 1 replay, the unbounded
//! online generator, a generated 512–4096-ToR fabric; one shard or many; LP
//! or learned — is the same four steps:
//!
//! 1. a `ServeSetup`: path set, pair universe, a source of demand
//!    *columns* (one `f64` per active pair, slot order), warm-up length and
//!    tick schedule, plus the training columns where the network has a
//!    train split;
//! 2. one `build_controller` per shard of the run's
//!    [`figret_traffic::ShardPlan`] (`--shards 1` is the one-shard plan),
//!    assembled into a [`FleetController`] — a one-shard fleet *is* the
//!    unsharded controller, record for record (DESIGN.md §8);
//! 3. one `drive` loop feeding columns to the fleet;
//! 4. one [`ServeRun`] and one [`print_serve_report`].
//!
//! Demand is pair columns from generator to scorer: a recorded
//! [`TrafficTrace`] hands its snapshot columns to the fleet as they are read,
//! over the trace's own pair index.
//! The report scores what a production controller is judged by: MLU regret
//! vs. the omniscient per-tick optimum, update count against the budget,
//! routing churn, and per-decision latency percentiles.
//!
//! **Batch-equivalence contract:** with [`ReconfigPolicy::always_update`],
//! the LP engine and the last-value predictor, a replay re-solves exactly
//! the per-snapshot series of `run_scheme(Prediction)`
//! through an identical warm-started template, so its per-tick MLUs match
//! the batch path bit for bit (`tests/serve_equivalence.rs` enforces 1e-9).

use std::path::PathBuf;
use std::sync::Arc;

use figret::FigretModel;
use figret_serve::{
    FleetController, HoldReason, PredictorKind, ReconfigPolicy, RecoveryConfig, ServeController,
    ServeLog, Transition,
};
use figret_solvers::MluTemplate;
use figret_te::{max_link_utilization_pairs, normalize_by, PathSet, SchemeQuality};
use figret_telemetry::{exposition, JsonlSink, Registry};
use figret_topology::{FabricSpec, Topology};
use figret_traffic::{
    datacenter::{tor_trace_sparse, TorTrafficConfig},
    ActivePairs, OnlineStream, OnlineStreamConfig, ShardPlan, SparseDemandStream, StepShiftConfig,
    StreamAnnotation, TrafficTrace, WindowDataset,
};

use crate::experiments::ExperimentOptions;
use crate::profile::print_profile_report;
use crate::report::{
    latency_histogram, latency_us, lp_work_columns, lp_work_header, print_csv_series, print_table,
};
use crate::scenario::Scenario;

/// Which engine the controllers serve from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngine {
    /// Warm-started LP re-solves only.
    Lp,
    /// Learned inference (each shard's model trained on its slice of the
    /// scenario's train split) with the LP as audit reference and
    /// degradation fallback.
    Learned,
}

/// What network the run serves: one of the paper's Table 1 networks (dense
/// pair universe), or a generated 512–4096-ToR fabric (sampled pair
/// universe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTopology {
    /// One of the eight Table 1 networks.
    Table1(Topology),
    /// A large generated fabric.  It has no train split, so it serves the
    /// LP engine only.
    Fabric(FabricSpec),
}

/// Options of one `serve_sim` run.
#[derive(Debug, Clone)]
pub struct ServeSimOptions {
    /// Common experiment options (scenario scale, window, fast mode).
    pub experiment: ExperimentOptions,
    /// Network to serve.
    pub topology: ServeTopology,
    /// Engine the controllers serve from.
    pub engine: ServeEngine,
    /// Online predictor feeding every controller.
    pub predictor: PredictorKind,
    /// Reconfiguration policy (hysteresis, budget, fallback).  The
    /// hysteresis and budget are enforced jointly across shards.
    pub policy: ReconfigPolicy,
    /// When > 0, serve this many ticks from the unbounded online generator
    /// (after warming up on it) instead of replaying the test split.
    /// Table 1 networks only.
    pub online_ticks: usize,
    /// Cap on the number of replay decision ticks (`None` = the whole test
    /// split).  Streaming is contiguous, so the cap truncates rather than
    /// subsamples.
    pub max_ticks: Option<usize>,
    /// Number of source-block shards (≥ 1) the pair universe is split into;
    /// every shard is one controller under the fleet's joint admission
    /// budget.  1 is the unsharded run.
    pub shards: usize,
    /// Learned engine only: when > 0, enable the self-healing recovery
    /// ladder (DESIGN.md §9) and retrain a challenger every this many ticks
    /// while degraded.  0 leaves degradation terminal (PR 5 behavior).
    pub retrain_every: usize,
    /// Recovery: observed demand columns kept as the challenger's sliding
    /// training window.
    pub retrain_window: usize,
    /// Recovery: consecutive shadow-audit wins before a challenger is
    /// promoted back to live serving.
    pub promotion_patience: usize,
    /// Online mode only: when > 0, inject a deterministic step shift into
    /// the generated stream this many decision ticks into the run (the
    /// distribution-shift drill the recovery ladder is judged on).
    pub shift_tick: usize,
    /// Step-shift magnitude: even pair slots scale by the factor, odd slots
    /// by its reciprocal (aggregate volume is roughly preserved).
    pub shift_factor: f64,
    /// When set, arm out-of-band telemetry (DESIGN.md §10) and write a
    /// JSONL event stream to `<PATH>.jsonl` plus a final Prometheus-style
    /// exposition snapshot to `<PATH>.prom`.  Decision digests are
    /// bit-identical with telemetry armed or disarmed.
    pub metrics_out: Option<PathBuf>,
    /// Snapshot cadence of the JSONL stream, in decision ticks (transition
    /// events are always streamed as they happen).
    pub metrics_every: usize,
}

impl ServeSimOptions {
    /// Defaults: replay GEANT unsharded with the learned engine, last-value
    /// predictor and the default policy.
    pub fn new(experiment: ExperimentOptions) -> ServeSimOptions {
        ServeSimOptions {
            experiment,
            topology: ServeTopology::Table1(Topology::Geant),
            engine: ServeEngine::Learned,
            predictor: PredictorKind::LastValue,
            policy: ReconfigPolicy::default(),
            online_ticks: 0,
            max_ticks: None,
            shards: 1,
            retrain_every: 0,
            retrain_window: 32,
            promotion_patience: 3,
            shift_tick: 0,
            shift_factor: 4.0,
            metrics_out: None,
            metrics_every: 10,
        }
    }

    /// The recovery configuration of the run, when recovery is on.
    fn recovery_config(&self) -> Option<RecoveryConfig> {
        (self.engine == ServeEngine::Learned && self.retrain_every > 0).then(|| RecoveryConfig {
            retrain_window: self.retrain_window,
            retrain_every: self.retrain_every,
            promotion_patience: self.promotion_patience,
            // Challengers train on a handful of recent columns, so rounds
            // are cheap even at serving-grade depth; shallow retraining
            // plateaus far above the LP and never clears the audit margin.
            retrain_epochs: 150,
            ..RecoveryConfig::default()
        })
    }
}

/// The live metrics stream of an armed run: transition events as they
/// happen, registry snapshots every `every` decision ticks, a final
/// snapshot at end of run, and the Prometheus-style exposition file written
/// by [`MetricsStream::finish`].
struct MetricsStream {
    sink: JsonlSink,
    every: usize,
    prom_path: PathBuf,
    served: usize,
    /// Transitions of each shard log already streamed.
    streamed: Vec<usize>,
}

impl MetricsStream {
    /// Opens `<base>.jsonl` for the options' `--metrics-out` base path;
    /// `None` when metrics are off.  The serve_sim entry point validated
    /// the parent directory, so file creation failing here is a race (the
    /// directory vanished), reported as a panic with the path.
    fn create(options: &ServeSimOptions) -> Option<MetricsStream> {
        let base = options.metrics_out.as_ref()?;
        let jsonl_path = PathBuf::from(format!("{}.jsonl", base.display()));
        let prom_path = PathBuf::from(format!("{}.prom", base.display()));
        let sink = JsonlSink::create(&jsonl_path).unwrap_or_else(|e| {
            panic!("cannot create metrics stream '{}': {e}", jsonl_path.display())
        });
        let every = options.metrics_every.max(1);
        Some(MetricsStream { sink, every, prom_path, served: 0, streamed: Vec::new() })
    }

    /// Streams one finished tick: every transition the tick appended to a
    /// shard log as its own event line, and a merged registry snapshot every
    /// `every` ticks (materialized only on the ticks that emit one).
    fn on_tick(&mut self, tick: usize, fleet: &FleetController) {
        self.streamed.resize(fleet.num_shards(), 0);
        for (log, streamed) in fleet.logs().iter().zip(&mut self.streamed) {
            for t in &log.transitions[*streamed..] {
                self.sink
                    .event("transition", t.tick as u64, &[("kind", &format!("{:?}", t.transition))])
                    .expect("metrics stream write failed");
            }
            *streamed = log.transitions.len();
        }
        self.served += 1;
        if self.served.is_multiple_of(self.every) {
            let registry = fleet.telemetry_snapshot().expect("armed run");
            self.sink.snapshot(tick as u64, &registry).expect("metrics stream write failed");
        }
    }

    /// Writes the final snapshot, the exposition file, and flushes.
    fn finish(&mut self, registry: &Registry) {
        self.sink.snapshot(self.served as u64, registry).expect("metrics stream write failed");
        self.sink.flush().expect("metrics stream flush failed");
        std::fs::write(&self.prom_path, exposition(registry))
            .unwrap_or_else(|e| panic!("cannot write '{}': {e}", self.prom_path.display()));
        println!("metrics_out,{},{}", self.sink.path().display(), self.prom_path.display());
    }
}

/// The result of one serving run: the fleet in its final state — per-shard
/// logs, digests, admission, LP and recovery counters, telemetry — plus what
/// the driver observed around it.
#[derive(Debug)]
pub struct ServeRun {
    /// Display name (network, mode, shard count, engine, predictor).
    pub name: String,
    /// Replay: the trace snapshot index served at each tick.  Online: the
    /// tick numbers themselves.
    pub indices: Vec<usize>,
    /// The fleet that served the run (one shard for an unsharded run).
    pub fleet: FleetController,
    /// Exact realized MLU of the whole network per tick (shard edge loads
    /// merged); with one shard, bit-equal to the log's `realized_mlu`s.
    pub realized_mlus: Vec<f64>,
    /// Omniscient (per-tick optimal) MLU over the same demands, the
    /// normalizer of the regret metric.  `None` on a sharded run: that
    /// monolithic LP is the cliff sharding exists to avoid.
    pub omniscient: Option<Vec<f64>>,
    /// Active stream episodes (storms, flash crowds, step shifts) per tick.
    /// Scenario description, not controller behavior: never in a digest.
    pub annotations: Vec<(usize, StreamAnnotation)>,
    /// Fabric runs only: demand-storage accounting (sparse vs. the dense
    /// `N×N` equivalent).
    pub memory: Option<FabricMemory>,
    /// Wall-clock seconds of the serving loop end to end (decisions +
    /// ingestion, setup excluded).
    pub serve_seconds: f64,
    /// Whether the self-healing ladder was armed (`--retrain-every`).
    pub recovery_armed: bool,
}

impl ServeRun {
    /// Decision ticks served (every shard ticks once per tick).
    pub fn ticks(&self) -> usize {
        self.fleet.ticks()
    }

    /// Normalized-MLU (regret) summary vs. the omniscient series; `None` on
    /// a sharded run, which solves no omniscient series.
    pub fn regret(&self) -> Option<SchemeQuality> {
        let normalized = normalize_by(&self.realized_mlus, self.omniscient.as_ref()?);
        Some(SchemeQuality::from_normalized(&self.name, &normalized))
    }

    /// Recovery-loop summary derived from the transition logs and the
    /// controllers' recovery counters; `None` when recovery was off.  On a
    /// sharded run the per-shard quantities add up (episodes, fallback
    /// shard-ticks) and the time to recovery is the slowest shard's.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let stats = self.recovery_armed.then(|| self.fleet.recovery_stats())?;
        let is_degradation =
            |t: Transition| matches!(t, Transition::Degraded | Transition::Demoted);
        let mut degraded_events = 0;
        let mut fallback_ticks = 0;
        let mut time_to_recovery = None;
        let mut every_shard_recovered = true;
        for log in self.fleet.logs() {
            let mut degraded_since: Option<usize> = None;
            for t in &log.transitions {
                if is_degradation(t.transition) {
                    degraded_events += 1;
                    degraded_since.get_or_insert(t.tick);
                } else if t.transition == Transition::Promoted {
                    if let Some(since) = degraded_since.take() {
                        fallback_ticks += t.tick - since;
                    }
                }
            }
            if let Some(since) = degraded_since {
                fallback_ticks += self.ticks().saturating_sub(since);
            }
            let first_degraded =
                log.transitions.iter().find(|t| is_degradation(t.transition)).map(|t| t.tick);
            match (first_degraded, log.recovery_tick()) {
                (Some(d), Some(p)) => time_to_recovery = time_to_recovery.max(Some(p - d)),
                (Some(_), None) => every_shard_recovered = false,
                (None, _) => {}
            }
        }
        let post_recovery_regret = match (self.fleet.logs(), &self.omniscient) {
            ([log], Some(omniscient)) => log.recovery_tick().and_then(|p| {
                let post: Vec<f64> = log
                    .records
                    .iter()
                    .zip(omniscient)
                    .filter(|(r, _)| r.tick >= p)
                    .map(|(r, &o)| r.realized_mlu / o.max(1e-12))
                    .collect();
                (!post.is_empty()).then(|| post.iter().sum::<f64>() / post.len() as f64)
            }),
            _ => None,
        };
        Some(RecoveryReport {
            degraded_events,
            retrains: stats.retrains,
            promotions: stats.promotions,
            detector_trips: stats.detector_trips,
            fallback_ticks,
            time_to_recovery: time_to_recovery.filter(|_| every_shard_recovered),
            post_recovery_regret,
            retrain_seconds: stats.retrain_seconds,
            retrain_cost_per_tick: stats.retrain_seconds / self.ticks().max(1) as f64,
        })
    }
}

/// What the self-healing ladder did over one serving run — the numbers a
/// recovery story is judged by: how long the controller sat on the LP, how
/// fast it got back to model serving, and how good serving was afterwards.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// `Degraded` plus `Demoted` transitions (drift episodes entered).
    pub degraded_events: usize,
    /// Challenger training rounds completed.
    pub retrains: usize,
    /// Challengers promoted back to live serving.
    pub promotions: usize,
    /// CUSUM drift-detector trips.
    pub detector_trips: usize,
    /// Decision ticks spent serving the LP fallback.
    pub fallback_ticks: usize,
    /// Ticks from the first degradation to the first promotion, when the
    /// run recovered.
    pub time_to_recovery: Option<usize>,
    /// Mean realized/omniscient MLU over the ticks after the first
    /// promotion (the post-recovery serving quality).
    pub post_recovery_regret: Option<f64>,
    /// Wall-clock seconds spent retraining challengers (off the decision
    /// path's latency accounting).
    pub retrain_seconds: f64,
    /// Retraining cost amortized over every decision tick of the run.
    pub retrain_cost_per_tick: f64,
}

/// Demand-storage accounting of a fabric serving run.
#[derive(Debug, Clone, Copy)]
pub struct FabricMemory {
    /// Nodes of the fabric graph (ToRs + any aggregation switches).
    pub num_nodes: usize,
    /// Traffic-bearing ToRs.
    pub num_tors: usize,
    /// Active SD pairs (`nnz` of every snapshot).
    pub active_pairs: usize,
    /// Bytes held by the shared pair index.
    pub index_bytes: usize,
    /// Bytes held by the sparse trace's value columns.
    pub sparse_trace_bytes: usize,
    /// Bytes an equivalent dense `DemandMatrix` trace would hold
    /// (`snapshots · n² · 8`).
    pub dense_trace_bytes: usize,
    /// Peak resident set size of the process so far (`VmHWM`), when the
    /// platform exposes it.
    pub peak_rss_bytes: Option<usize>,
}

/// Peak resident set size (`VmHWM`) of the current process in bytes, read
/// from `/proc/self/status`; `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Parses a CLI topology spelling: the Table 1 names lowercased with `-`
/// for spaces (`geant`, `pod-db`, `tor-web`, …) or the enum variant name,
/// plus the generated large fabrics — `torN` for an N-ToR Jellyfish fabric
/// (`tor512` … `tor4096`) and `podfabN` for an N-ToR two-tier pod fabric.
pub fn parse_topology(spec: &str) -> Result<ServeTopology, String> {
    let key = spec.to_ascii_lowercase();
    if let Some(tors) = key.strip_prefix("podfab").and_then(|n| n.parse::<usize>().ok()) {
        // Mirror `two_tier_pod_size`: 64-ToR pods at scale, 8-ToR pods for
        // CI-sized fabrics (podfab16 is the smoke-test topology).
        let sized =
            (tors >= 128 && tors.is_multiple_of(64)) || (tors >= 16 && tors.is_multiple_of(8));
        if !sized {
            return Err(format!(
                "podfab fabrics need 8-ToR pods (multiples of 8, ≥ 16) or 64-ToR pods \
                 (multiples of 64, ≥ 128), got {tors}"
            ));
        }
        return Ok(ServeTopology::Fabric(FabricSpec::two_tier(tors)));
    }
    if let Some(tors) = key.strip_prefix("tor").and_then(|n| n.parse::<usize>().ok()) {
        if tors < 32 {
            return Err(format!("torN fabrics need at least 32 ToRs, got {tors}"));
        }
        return Ok(ServeTopology::Fabric(FabricSpec::jellyfish(tors)));
    }
    Topology::all()
        .into_iter()
        .find(|t| {
            t.name().to_ascii_lowercase().replace(' ', "-") == key
                || format!("{t:?}").to_ascii_lowercase() == key
        })
        .map(ServeTopology::Table1)
        .ok_or_else(|| {
            let known: Vec<String> = Topology::all()
                .iter()
                .map(|t| t.name().to_ascii_lowercase().replace(' ', "-"))
                .collect();
            format!("unknown topology '{spec}' (known: {}, torN, podfabN)", known.join(", "))
        })
}

/// Where a run's demand columns come from: a recorded trace (a Table 1
/// replay or a generated fabric) or the online generator.
enum ColumnSource {
    /// A recorded trace, read from snapshot `next` on.
    Trace { trace: TrafficTrace, next: usize },
    /// The unbounded online generator.
    Online(Box<OnlineStream>),
}

impl ColumnSource {
    /// Writes the next column into `out` and returns the stream episodes
    /// behind it (always quiet for a recorded trace).
    fn next_into(&mut self, out: &mut [f64]) -> StreamAnnotation {
        match self {
            ColumnSource::Trace { trace, next } => {
                out.copy_from_slice(trace.snapshot(*next).values());
                *next += 1;
                StreamAnnotation::default()
            }
            ColumnSource::Online(stream) => {
                let column = stream.next_column().expect("the online stream is endless");
                out.copy_from_slice(column.values());
                stream.annotation()
            }
        }
    }
}

/// Everything a run serves, built three ways (Table 1 replay, Table 1
/// online stream, generated fabric) and consumed one way.
struct ServeSetup {
    /// Network name and serving mode, the head of the report title.
    title: String,
    paths: PathSet,
    /// The pair universe every column is aligned to.
    active: Arc<ActivePairs>,
    /// Source nodes the shard plan splits into blocks: every node of a
    /// Table 1 network, the ToR prefix of a fabric.
    num_sources: usize,
    source: ColumnSource,
    /// Observation-only columns before the first decision.
    warmup: usize,
    /// Snapshot index (replay, fabric) or tick number (online) of every
    /// decision tick, in order.
    indices: Vec<usize>,
    /// The train split as parent-universe columns, copied once; `None`
    /// where there is nothing to train on (generated fabrics) or nothing to
    /// train (LP engine).
    train: Option<Vec<Vec<f64>>>,
    /// Fabric runs only: demand-storage accounting (peak RSS is read at the
    /// end of the run).
    memory: Option<FabricMemory>,
}

impl ServeSetup {
    fn build(options: &ServeSimOptions) -> ServeSetup {
        match options.topology {
            ServeTopology::Table1(topology) => ServeSetup::table1(topology, options),
            ServeTopology::Fabric(spec) => ServeSetup::fabric(&spec, options),
        }
    }

    /// A Table 1 network: replays the test split (so every batch scenario
    /// is also a serving scenario, comparable to [`crate::run_scheme`]), or
    /// with `online_ticks > 0` serves the unbounded generator.  The model,
    /// when learned, trains on the recorded train split either way —
    /// serving synthetic drift with a model trained on yesterday's traffic
    /// is exactly the distribution-shift situation the fallback policy
    /// guards against.
    fn table1(topology: Topology, options: &ServeSimOptions) -> ServeSetup {
        let Scenario { name, graph, paths, trace, split, .. } =
            Scenario::build(topology, &options.experiment.scenario_options());
        let warmup = options.experiment.window;
        let max_ticks = options.max_ticks.unwrap_or(usize::MAX);
        let train = (options.engine == ServeEngine::Learned)
            .then(|| split.train.clone().map(|t| trace.snapshot(t).values().to_vec()).collect());
        let active = Arc::clone(trace.active());
        let (title, source, indices) = if options.online_ticks > 0 {
            let ticks = options.online_ticks;
            let config = OnlineStreamConfig {
                interval_seconds: trace.interval_seconds(),
                seed: 0x5eed ^ (ticks as u64),
                // Shift ticks count decision ticks, so the stream-side
                // trigger sits past the warmup observations.
                shift: (options.shift_tick > 0).then(|| StepShiftConfig {
                    at_tick: warmup + options.shift_tick,
                    factor: options.shift_factor,
                }),
                ..Default::default()
            };
            let stream = OnlineStream::from_graph(&graph, 0.25, config);
            (
                format!("{name} (online"),
                ColumnSource::Online(Box::new(stream)),
                (0..ticks).collect(),
            )
        } else {
            let first = split.test.start.max(warmup);
            let indices = (first..trace.len()).take(max_ticks).collect();
            let next = first - warmup;
            (format!("{name} (replay"), ColumnSource::Trace { trace, next }, indices)
        };
        let num_sources = graph.num_nodes();
        ServeSetup {
            title,
            paths,
            active,
            num_sources,
            source,
            warmup,
            indices,
            train,
            memory: None,
        }
    }

    /// A generated 512–4096-ToR fabric on the sparse core: sampled pair
    /// universe ([`ActivePairs::sample_among`]), restricted path set
    /// ([`PathSet::k_shortest_for_pairs`]), sparse ToR traffic.  Nothing on
    /// this path materializes an `N×N` object — demand storage is
    /// proportional to the active-pair count.
    fn fabric(spec: &FabricSpec, options: &ServeSimOptions) -> ServeSetup {
        assert_eq!(options.online_ticks, 0, "the online generator serves Table 1 networks only");
        let fabric = spec.build();
        let n = fabric.graph.num_nodes();
        // Fixed per-source fan-out: density per_source/(tors-1), i.e. ~1.6%
        // at 1024 ToRs with the default 16.
        let per_source = if options.experiment.fast { 8 } else { 16 };
        let active =
            Arc::new(ActivePairs::sample_among(n, fabric.num_tors, per_source, spec.seed ^ 0xfab));
        let paths = PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3);
        let trace = tor_trace_sparse(
            &fabric.graph,
            &active,
            &TorTrafficConfig {
                num_snapshots: options.experiment.snapshots,
                seed: spec.seed,
                ..Default::default()
            },
        );
        let warmup = options.experiment.window.max(1).min(trace.len().saturating_sub(1));
        let max_ticks = options.max_ticks.unwrap_or(usize::MAX);
        let memory = FabricMemory {
            num_nodes: n,
            num_tors: fabric.num_tors,
            active_pairs: active.len(),
            index_bytes: active.index_bytes(),
            sparse_trace_bytes: trace.demand_storage_bytes(),
            dense_trace_bytes: trace.len() * n * n * std::mem::size_of::<f64>(),
            peak_rss_bytes: None,
        };
        ServeSetup {
            title: format!("{} ({} ToRs, fabric", fabric.graph.name(), fabric.num_tors),
            paths,
            active,
            num_sources: fabric.num_tors,
            indices: (warmup..trace.len()).take(max_ticks).collect(),
            source: ColumnSource::Trace { trace, next: 0 },
            warmup,
            train: None,
            memory: Some(memory),
        }
    }
}

/// Builds one shard's controller over its path set: the warm-started LP, or
/// a FIGRET model trained on the shard's slice of the train split (a
/// [`WindowDataset`] over columns works on any restricted universe).  The
/// update budget is stripped: the fleet's admission layer enforces it
/// jointly.
fn build_controller(
    paths: &PathSet,
    train: Option<Vec<Vec<f64>>>,
    options: &ServeSimOptions,
) -> ServeController {
    let predictor = options.predictor.build();
    let policy = ReconfigPolicy { budget: None, ..options.policy.clone() };
    match options.engine {
        ServeEngine::Lp => ServeController::lp(paths, options.experiment.window, predictor, policy),
        ServeEngine::Learned => {
            let cfg = options.experiment.learning_config();
            let columns = train.expect("the learned engine needs a network with a train split");
            let dataset = WindowDataset::from_columns(cfg.history_window, columns);
            let mut model = FigretModel::new(paths, &dataset.per_slot_variance(), cfg);
            model.train(&dataset);
            let mut controller = ServeController::learned(paths, model, predictor, policy);
            if let Some(recovery) = options.recovery_config() {
                controller.enable_recovery(recovery);
            }
            controller
        }
    }
}

/// What [`drive`] observed next to the fleet's own logs.
struct Driven {
    realized_mlus: Vec<f64>,
    annotations: Vec<(usize, StreamAnnotation)>,
    /// The realized columns in tick order, kept only when asked for (the
    /// omniscient series of an unsharded run re-solves them).
    columns: Vec<Vec<f64>>,
}

/// The serving loop: `warmup` observations, then `ticks` decision ticks,
/// each on the next column of `source`.
fn drive(
    fleet: &mut FleetController,
    source: &mut ColumnSource,
    warmup: usize,
    ticks: usize,
    keep_columns: bool,
    mut metrics: Option<&mut MetricsStream>,
) -> Driven {
    let mut column = vec![0.0; fleet.total_pairs()];
    for _ in 0..warmup {
        source.next_into(&mut column);
        fleet.observe_column(&column);
    }
    let mut driven = Driven {
        realized_mlus: Vec::with_capacity(ticks),
        annotations: Vec::new(),
        columns: Vec::new(),
    };
    for _ in 0..ticks {
        let annotation = source.next_into(&mut column);
        let outcome = fleet.step_column(&column);
        if let Some(m) = metrics.as_deref_mut() {
            m.on_tick(outcome.tick, fleet);
        }
        // Quiet ticks are dropped, so the vector stays proportional to the
        // scenario's event count rather than its length.
        if !annotation.is_quiet() {
            driven.annotations.push((outcome.tick, annotation));
        }
        driven.realized_mlus.push(outcome.global_mlu);
        if keep_columns {
            driven.columns.push(column.clone());
        }
    }
    driven
}

/// The omniscient per-tick optimum over a column sequence, solved through
/// one warm-started template (sequential, deterministic).
fn omniscient_over(paths: &PathSet, columns: &[Vec<f64>]) -> Vec<f64> {
    let mut template = MluTemplate::new(paths);
    columns
        .iter()
        .map(|column| {
            let (config, _) =
                template.solve(paths, column).expect("the omniscient min-MLU LP must be solvable");
            max_link_utilization_pairs(paths, &config, column)
        })
        .collect()
}

/// Serves the options' network end to end; see the module docs.
pub fn serve(options: &ServeSimOptions) -> ServeRun {
    let mut setup = ServeSetup::build(options);
    let plan = ShardPlan::source_blocks(&setup.active, setup.num_sources, options.shards);
    // The parent train columns are dropped once every shard has its slice.
    let train = setup.train.take();
    let controllers = plan
        .shards()
        .iter()
        .map(|shard| {
            let (paths, _) = setup.paths.restrict_to(shard.active());
            let slice = |parent: &Vec<f64>| {
                let mut column = Vec::new();
                shard.gather_into(parent, &mut column);
                column
            };
            let train = train.as_ref().map(|columns| columns.iter().map(slice).collect());
            build_controller(&paths, train, options)
        })
        .collect();
    drop(train);
    let mut fleet = FleetController::from_controllers(&plan, controllers, &options.policy);
    let mut metrics = MetricsStream::create(options);
    if metrics.is_some() {
        fleet.enable_telemetry();
    }
    let sharded = fleet.num_shards() > 1;
    let serve_start = std::time::Instant::now();
    let driven = drive(
        &mut fleet,
        &mut setup.source,
        setup.warmup,
        setup.indices.len(),
        !sharded,
        metrics.as_mut(),
    );
    let serve_seconds = serve_start.elapsed().as_secs_f64();
    if let Some(m) = metrics.as_mut() {
        m.finish(&fleet.telemetry_snapshot().expect("armed run"));
    }
    let engine = match options.engine {
        ServeEngine::Lp => "lp",
        ServeEngine::Learned => "learned",
    };
    let shards = if sharded { format!("{} shards, ", fleet.num_shards()) } else { String::new() };
    ServeRun {
        name: format!(
            "{}, {shards}{engine}, {} predictor)",
            setup.title,
            options.predictor.build().name()
        ),
        indices: setup.indices,
        realized_mlus: driven.realized_mlus,
        omniscient: (!sharded).then(|| omniscient_over(&setup.paths, &driven.columns)),
        annotations: driven.annotations,
        memory: setup.memory.map(|m| FabricMemory { peak_rss_bytes: peak_rss_bytes(), ..m }),
        serve_seconds,
        recovery_armed: options.recovery_config().is_some(),
        fleet,
    }
}

/// Prints the demand-storage accounting table of a fabric run.
fn print_fabric_memory(mem: &FabricMemory) {
    let mib = |bytes: usize| format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0));
    let density =
        mem.active_pairs as f64 / (mem.num_tors as f64 * (mem.num_tors as f64 - 1.0)).max(1.0);
    let mut rows = vec![
        vec!["fabric size".to_string(), format!("{} ToRs / {} nodes", mem.num_tors, mem.num_nodes)],
        vec![
            "active pairs".to_string(),
            format!("{} ({:.2}% of ToR pairs)", mem.active_pairs, 100.0 * density),
        ],
        vec!["pair index".to_string(), mib(mem.index_bytes)],
        vec!["sparse demand trace".to_string(), mib(mem.sparse_trace_bytes)],
        vec!["dense N×N equivalent".to_string(), mib(mem.dense_trace_bytes)],
        vec![
            "dense / sparse ratio".to_string(),
            format!(
                "{:.1}x",
                mem.dense_trace_bytes as f64
                    / (mem.index_bytes + mem.sparse_trace_bytes).max(1) as f64
            ),
        ],
    ];
    if let Some(rss) = mem.peak_rss_bytes {
        rows.push(vec!["peak RSS (VmHWM)".to_string(), mib(rss)]);
    }
    print_table("demand storage (sparse core)", &["metric", "value"], &rows);
}

/// Prints the serving report: decision summary, regret vs. omniscient (or
/// the raw MLU of a sharded run), latency percentiles, LP work, the
/// per-shard and admission tables of a sharded run, and the determinism
/// digests.
pub fn print_serve_report(run: &ServeRun) {
    println!("\n# serve_sim — {}", run.name);
    let logs = run.fleet.logs();
    let sharded = logs.len() > 1;
    let ticks = run.ticks();
    let pairs = run.fleet.total_pairs();
    let updates = run.fleet.update_count();
    let holds = |reason: HoldReason| logs.iter().map(|log| log.hold_count(reason)).sum::<usize>();
    let churn: f64 = logs.iter().map(ServeLog::total_churn).sum();
    let latencies: Vec<f64> =
        logs.iter().flat_map(|log| log.latencies_seconds.iter().copied()).collect();
    let row = |metric: &str, value: String| vec![metric.to_string(), value];

    let mut rows = vec![row("decision ticks", format!("{ticks}"))];
    if sharded {
        rows.push(row("shards", format!("{}", logs.len())));
    }
    rows.push(row("updates deployed", format!("{updates}")));
    rows.push(row(
        "update rate",
        format!("{:.1}%", 100.0 * updates as f64 / (ticks * logs.len()).max(1) as f64),
    ));
    rows.push(row("holds (hysteresis)", format!("{}", holds(HoldReason::BelowHysteresis))));
    rows.push(row("holds (budget)", format!("{}", holds(HoldReason::BudgetExhausted))));
    rows.push(row("total churn (L1)", format!("{churn:.3}")));
    rows.push(row("churn per update", format!("{:.3}", churn / updates.max(1) as f64)));
    match run.regret() {
        Some(regret) => rows.push(row(
            "MLU regret mean/p99/max",
            format!(
                "{:.3} / {:.3} / {:.3}",
                regret.normalized_mlu.mean, regret.normalized_mlu.p99, regret.normalized_mlu.max
            ),
        )),
        None => rows.push(row(
            "global MLU mean/max",
            format!(
                "{:.4} / {:.4}",
                run.realized_mlus.iter().sum::<f64>() / ticks.max(1) as f64,
                run.realized_mlus.iter().copied().fold(0.0f64, f64::max)
            ),
        )),
    }
    rows.push(row("decision latency p50/p99", {
        let lat = latency_histogram(&latencies);
        format!("{} / {}", latency_us(&lat, 0.5), latency_us(&lat, 0.99))
    }));
    rows.push(row(
        "ticks/sec (wall clock)",
        format!("{:.1}", ticks as f64 / run.serve_seconds.max(1e-12)),
    ));
    rows.push(row(
        "aggregate decisions/sec",
        format!(
            "{:.0} ({pairs} pairs/tick)",
            ticks as f64 * pairs as f64 / run.serve_seconds.max(1e-12)
        ),
    ));
    rows.push(row(
        "fell back to LP",
        match logs {
            [log] => match log.fallback_tick() {
                Some(t) => format!("yes (tick {t})"),
                None if run.fleet.fell_back_shards() > 0 => "yes".to_string(),
                None => "no".to_string(),
            },
            logs => format!("{} of {} shards", run.fleet.fell_back_shards(), logs.len()),
        },
    ));
    let adm = run.fleet.admission_stats();
    if sharded {
        rows.push(row(
            "admission bids/wants/grants",
            format!("{} / {} / {}", adm.bids, adm.wants, adm.grants),
        ));
        rows.push(row(
            "admission holds hysteresis/budget",
            format!("{} / {}", adm.holds_hysteresis, adm.holds_budget),
        ));
    }
    // Ask-admission-first accounting: bids held without a candidate because
    // no grant was open or because their regret bound was outranked, next
    // to the solves that did run.
    rows.push(row(
        "LP solves/bids/candidates skipped/outranked",
        format!(
            "{} / {} / {} / {}",
            run.fleet.lp_stats().solves,
            adm.bids,
            adm.holds_closed,
            adm.holds_outranked
        ),
    ));
    // Learned audits: cleared by the LP lower bound without a solve, solved
    // (passed or failed), and failed among the solved.
    let audits = run.fleet.audit_stats();
    rows.push(row(
        "audits certified/solved/failed",
        format!("{} / {} / {}", audits.certified, audits.solved(), audits.solved_fail),
    ));
    print_table("serving summary", &["metric", "value"], &rows);

    let labels = run.fleet.shard_labels();
    if sharded {
        let shard_pairs = run.fleet.shard_pairs();
        let shard_rows: Vec<Vec<String>> = logs
            .iter()
            .enumerate()
            .map(|(i, log)| {
                let lat = latency_histogram(&log.latencies_seconds);
                vec![
                    labels[i].to_string(),
                    format!("{}", shard_pairs[i]),
                    format!("{}", log.update_count()),
                    format!("{}", log.hold_count(HoldReason::BelowHysteresis)),
                    format!("{}", log.hold_count(HoldReason::BudgetExhausted)),
                    latency_us(&lat, 0.5),
                    latency_us(&lat, 0.99),
                ]
            })
            .collect();
        print_table(
            "per-shard serving",
            &["shard", "pairs", "updates", "holds hys", "holds budget", "lat p50", "lat p99"],
            &shard_rows,
        );
    }

    let mut work_header = vec!["engine"];
    work_header.extend(lp_work_header());
    let mut work_row = vec!["controller LP".to_string()];
    work_row.extend(lp_work_columns(&run.fleet.lp_stats()));
    print_table("LP solver work (controller re-solves)", &work_header, &[work_row]);

    if let Some(rec) = run.recovery_report() {
        let rows = vec![
            row("drift episodes entered", format!("{}", rec.degraded_events)),
            row("detector trips (CUSUM)", format!("{}", rec.detector_trips)),
            row("challenger retrains", format!("{}", rec.retrains)),
            row("promotions", format!("{}", rec.promotions)),
            row("ticks in LP fallback", format!("{}", rec.fallback_ticks)),
            row(
                "time to recovery",
                match rec.time_to_recovery {
                    Some(t) => format!("{t} ticks"),
                    None => "never recovered".to_string(),
                },
            ),
            row(
                "post-recovery regret (mean)",
                match rec.post_recovery_regret {
                    Some(r) => format!("{r:.3}"),
                    None => "n/a".to_string(),
                },
            ),
            row(
                "retrain cost",
                format!(
                    "{:.3} s total / {:.1} µs per tick",
                    rec.retrain_seconds,
                    1e6 * rec.retrain_cost_per_tick
                ),
            ),
        ];
        print_table("self-healing recovery", &["metric", "value"], &rows);
    }

    if let Some(mem) = &run.memory {
        print_fabric_memory(mem);
    }

    if let Some(registry) = run.fleet.telemetry_snapshot() {
        print_profile_report(&registry, run.serve_seconds);
    }

    // Machine-greppable transition and annotation lines: CI asserts a
    // `,Promoted` line on the recovery smoke run.  A sharded run names the
    // shard after the kind.
    for (log, label) in logs.iter().zip(labels) {
        for t in &log.transitions {
            if sharded {
                println!("transition,{},{:?},{label}", t.tick, t.transition);
            } else {
                println!("transition,{},{:?}", t.tick, t.transition);
            }
        }
    }
    for (tick, ann) in &run.annotations {
        println!(
            "stream_event,{tick},storm={},flashes={},drift_spread={:.3},shifted={}",
            ann.storm_victim.map(|v| v as i64).unwrap_or(-1),
            ann.active_flashes,
            ann.drift_spread,
            ann.shifted
        );
    }

    print_csv_series("realized_mlu", &run.realized_mlus);
    if let Some(omniscient) = &run.omniscient {
        print_csv_series("omniscient_mlu", omniscient);
    }
    // Stable digests of the decision logs: CI replays the same scenario
    // under different RAYON_NUM_THREADS settings and diffs both.  The
    // decision digest hashes (tick, action, source) only, so it survives a
    // change that moves nothing but MLU low bits.
    println!("decision_log_digest,{:#018x}", run.fleet.digest());
    println!("decision_digest,{:#018x}", run.fleet.decision_digest());
}

/// Runs the full `serve_sim` experiment for the options and prints the
/// report.
pub fn serve_sim(options: &ServeSimOptions) {
    print_serve_report(&serve(options));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod_options(engine: ServeEngine) -> ServeSimOptions {
        let experiment = ExperimentOptions {
            fast: true,
            snapshots: 60,
            window: 4,
            max_eval: 8,
            ..Default::default()
        };
        ServeSimOptions {
            engine,
            policy: ReconfigPolicy::always_update(),
            max_ticks: Some(6),
            topology: ServeTopology::Table1(Topology::MetaDbPod),
            ..ServeSimOptions::new(experiment)
        }
    }

    fn fabric_options(policy: ReconfigPolicy, max_ticks: usize) -> ServeSimOptions {
        let experiment =
            ExperimentOptions { fast: true, snapshots: 10, window: 2, ..Default::default() };
        ServeSimOptions {
            engine: ServeEngine::Lp,
            policy,
            max_ticks: Some(max_ticks),
            topology: ServeTopology::Fabric(FabricSpec::jellyfish(48)),
            ..ServeSimOptions::new(experiment)
        }
    }

    #[test]
    fn replay_reports_regret_above_one() {
        let run = serve(&pod_options(ServeEngine::Lp));
        assert_eq!(run.fleet.num_shards(), 1);
        assert_eq!(run.fleet.logs()[0].len(), 6);
        assert_eq!(run.indices.len(), 6);
        assert_eq!(run.omniscient.as_ref().map(Vec::len), Some(6));
        let regret = run.regret().expect("unsharded runs solve the omniscient series");
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6, "{:?}", regret.normalized_mlu);
        assert_eq!(run.fleet.update_count(), 6);
        // One shard: the merged MLU series is the log's, bit for bit.
        for (g, r) in run.realized_mlus.iter().zip(&run.fleet.logs()[0].records) {
            assert_eq!(g.to_bits(), r.realized_mlu.to_bits());
        }
        print_serve_report(&run); // must not panic
    }

    #[test]
    fn online_mode_serves_generated_ticks() {
        let run = serve(&ServeSimOptions { online_ticks: 5, ..pod_options(ServeEngine::Lp) });
        assert_eq!(run.ticks(), 5);
        assert_eq!(run.indices, vec![0, 1, 2, 3, 4]);
        assert!(run.realized_mlus.iter().all(|m| m.is_finite() && *m > 0.0));
        let regret = run.regret().expect("unsharded runs solve the omniscient series");
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let options = pod_options(ServeEngine::Lp);
        let a = serve(&options);
        let b = serve(&options);
        assert_eq!(a.fleet.logs()[0].records, b.fleet.logs()[0].records);
        assert_eq!(a.fleet.digest(), b.fleet.digest());
        assert_eq!(a.omniscient, b.omniscient);
    }

    #[test]
    fn topology_parsing_accepts_table1_names() {
        assert_eq!(parse_topology("geant").unwrap(), ServeTopology::Table1(Topology::Geant));
        assert_eq!(parse_topology("pod-db").unwrap(), ServeTopology::Table1(Topology::MetaDbPod));
        assert_eq!(parse_topology("ToR-WEB").unwrap(), ServeTopology::Table1(Topology::MetaWebTor));
        assert_eq!(
            parse_topology("metadbtor").unwrap(),
            ServeTopology::Table1(Topology::MetaDbTor)
        );
        assert!(parse_topology("atlantis").unwrap_err().contains("known:"));
    }

    #[test]
    fn topology_parsing_accepts_fabric_names() {
        assert_eq!(
            parse_topology("tor512").unwrap(),
            ServeTopology::Fabric(FabricSpec::jellyfish(512))
        );
        assert_eq!(
            parse_topology("podfab1024").unwrap(),
            ServeTopology::Fabric(FabricSpec::two_tier(1024))
        );
        // The small-pod fabric the fleet CI smoke rides on (8-ToR pods).
        assert_eq!(
            parse_topology("podfab16").unwrap(),
            ServeTopology::Fabric(FabricSpec::two_tier(16))
        );
        assert!(parse_topology("tor4").is_err());
        assert!(parse_topology("podfab100").is_err());
    }

    #[test]
    fn fabric_serving_runs_sparse_end_to_end() {
        let run = serve(&fabric_options(ReconfigPolicy::always_update(), 4));
        assert_eq!(run.ticks(), 4);
        assert!(run.realized_mlus.iter().all(|m| m.is_finite() && *m > 0.0));
        let regret = run.regret().expect("unsharded runs solve the omniscient series");
        assert!(regret.normalized_mlu.min >= 1.0 - 1e-6, "{:?}", regret.normalized_mlu);
        let mem = run.memory.expect("fabric runs report memory");
        assert_eq!(mem.num_tors, 48);
        assert_eq!(mem.active_pairs, 48 * 8);
        assert!(mem.sparse_trace_bytes < mem.dense_trace_bytes);
        print_serve_report(&run); // must not panic
    }

    // Sharded runs (`serve_sim --shards N`, N > 1): the same `serve` path as
    // the unsharded run, driven with more than one shard.

    #[test]
    fn multi_shard_fleet_partitions_and_reports() {
        let run =
            serve(&ServeSimOptions { shards: 4, ..fabric_options(ReconfigPolicy::default(), 5) });
        assert_eq!(run.fleet.num_shards(), 4);
        assert_eq!(run.fleet.shard_pairs().iter().sum::<usize>(), run.fleet.total_pairs());
        assert_eq!(run.ticks(), 5);
        assert!(run.realized_mlus.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(run.fleet.admission_stats().ticks, 5);
        assert!(run.serve_seconds > 0.0);
        assert!(run.omniscient.is_none() && run.regret().is_none());
        print_serve_report(&run); // must not panic
    }

    #[test]
    fn table1_fleet_replay_runs_on_source_blocks() {
        let run = serve(&ServeSimOptions {
            shards: 2,
            max_ticks: Some(4),
            ..pod_options(ServeEngine::Lp)
        });
        assert_eq!(run.fleet.num_shards(), 2);
        assert_eq!(run.ticks(), 4);
        assert_eq!(run.fleet.update_count(), 2 * 4, "always-update deploys every shard every tick");
    }

    #[test]
    fn learned_shards_train_on_their_own_slice_of_the_train_split() {
        let options = ServeSimOptions {
            shards: 2,
            policy: ReconfigPolicy::default(),
            ..pod_options(ServeEngine::Learned)
        };
        let run = serve(&options);
        assert!(run.name.contains("2 shards, learned,"), "{}", run.name);
        assert_eq!(run.fleet.num_shards(), 2);
        let model_ticks = run
            .fleet
            .logs()
            .iter()
            .flat_map(|log| &log.records)
            .filter(|r| r.source == Some(figret_serve::DecisionSource::Model))
            .count();
        assert!(model_ticks > 0, "the shards must serve model candidates");
        let again = serve(&options);
        assert_eq!(again.fleet.digest(), run.fleet.digest(), "training and serving must replay");
    }
}
