//! The four serving workloads: what each builds, what it serves, and why.
//!
//! A workload is a scenario — topology, pair universe, traffic generator,
//! controller — plus the seeded noise of its demand source.  The demand
//! source is the load generator: it is the benchmark's, not the program's,
//! and it runs outside every timed interval.
//!
//! `--seed` redraws the measurement noise on every demand value and nothing
//! else.  The scenario stays the workload's definition: which pairs exist,
//! which of them are elephants, when the stream's episodes strike.  Letting
//! the seed redraw those too was tried first and makes two seeds two
//! different LP instances — `lp_monolith` then serves 42 to 95 ticks/s
//! depending on the seed, which no regression bound survives.

use std::sync::Arc;
use std::time::Instant;

use figret::{FigretConfig, FigretModel};
use figret_serve::{
    AdmissionStats, FleetController, PredictorKind, ReconfigPolicy, RecoveryConfig, RecoveryStats,
    ServeController, ServeLog, UpdateBudget,
};
use figret_solvers::SeriesStats;
use figret_te::PathSet;
use figret_telemetry::Registry;
use figret_topology::{FabricSpec, Graph, Topology, TopologySpec};
use figret_traffic::datacenter::{tor_trace_sparse, TorTrafficConfig};
use figret_traffic::stream::{
    OnlineStream, OnlineStreamConfig, SparseDemandStream, StepShiftConfig,
};
use figret_traffic::{
    per_pair_variance_range, ActivePairs, DemandMatrix, ShardPlan, ShardUniverse, SparseTrace,
    TrafficTrace, WindowDataset,
};

use crate::spans::SpanRecorder;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GEANT served by the trained model through the compiled plan: the
    /// paper's speed claim.  `figret_nn` inference, the predictor, MLU
    /// evaluation and controller bookkeeping do the work; the LP appears
    /// only as the warm audit on every 4th decision, and training dominates
    /// set-up.
    WanLearned,
    /// A 512-ToR fabric served by eight LP shards under one joint budget:
    /// `figret_lp` re-solves on eight 512-pair templates, the five fleet
    /// phases and the rayon stand-in do the work.  The only workload where
    /// parallelism and admission matter.
    DcFleetLp,
    /// An 80-ToR fabric served by one LP template that re-solves every
    /// tick: the same layer as `dc_fleet_lp` used the other way — one large
    /// degenerate template whose pricer stalls, so the tail is a multiple of
    /// the median.
    LpMonolith,
    /// PoD-DB through a ×4 step shift with the recovery ladder armed:
    /// `figret` training and `figret_nn` autodiff run at serving time.  Uses
    /// the model layer for writes where `wan_learned` uses it for reads.
    RecoveryDrill,
}

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 4] =
    [Workload::WanLearned, Workload::DcFleetLp, Workload::LpMonolith, Workload::RecoveryDrill];

/// Untraced passes of a run, each on a set-up of its own.  The host inflates
/// single ticks by up to half at random, while the program's own stalls hit
/// the same tick in every pass.  So a tick's time is the smallest of its
/// servings, which reads steadier than one pass of twice the length.
pub const PASSES: usize = 2;
/// Shards of the `dc_fleet_lp` fleet.
pub const FLEET_SHARDS: usize = 8;
/// Decision tick at which the `recovery_drill` stream steps.
const SHIFT_AFTER_TICKS: usize = 10;
/// Sliding window of the two LP workloads.
const LP_WINDOW: usize = 2;
/// Sampled destinations per source ToR on the fabrics.
const PER_SOURCE: usize = 8;

/// How much of each workload one run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Nominal seconds inside `step_*` calls over the untraced passes of a
    /// run, on the commit that defined the benchmark (`--seconds`).
    pub seconds: u64,
    /// `--smoke`: the same matrix at a fiftieth of the ticks.
    pub smoke: bool,
}

impl Workload {
    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WanLearned => "wan_learned",
            Workload::DcFleetLp => "dc_fleet_lp",
            Workload::LpMonolith => "lp_monolith",
            Workload::RecoveryDrill => "recovery_drill",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Decision ticks of one pass.  Run length is fixed work, not fixed
    /// time: `--seconds` times a per-workload rate fixed when the benchmark
    /// was defined, split over the [`PASSES`] untraced passes (at 10 s the
    /// issue's 30 000 / 1000 / 1000 / 2000 ticks would be; the time cap of the
    /// benchmark contract halves the first and the last), and never below
    /// 1000 a pass, so that a p99 has ten samples beyond it and two commits
    /// serve identical inputs.
    pub fn ticks(self, scale: Scale) -> usize {
        let per_second = match self {
            Workload::WanLearned => 3000,
            Workload::DcFleetLp => 50,
            Workload::LpMonolith => 60,
            Workload::RecoveryDrill => 200,
        };
        let full = (per_second * scale.seconds as usize / PASSES).max(1000);
        if scale.smoke {
            full / 50
        } else {
            full
        }
    }

    /// Demands the learned workloads train on before serving.
    pub fn train_snapshots(self, scale: Scale) -> usize {
        match (self, scale.smoke) {
            (Workload::WanLearned, false) => 300,
            (Workload::RecoveryDrill, false) => 60,
            (Workload::WanLearned | Workload::RecoveryDrill, true) => 40,
            (Workload::DcFleetLp | Workload::LpMonolith, _) => 0,
        }
    }

    /// The model configuration of a learned workload.
    pub fn model_config(self) -> Option<FigretConfig> {
        match self {
            // The paper's defaults: H = 12, five hidden layers of 128.
            Workload::WanLearned => Some(FigretConfig::default()),
            Workload::RecoveryDrill => Some(FigretConfig::fast_test()),
            Workload::DcFleetLp | Workload::LpMonolith => None,
        }
    }
}

/// The controller under test: one `ServeController` or a fleet of them,
/// driven only through the pair-column entry points.
pub enum Controller {
    /// `ServeController::observe_pairs` / `step_pairs`; the log is the
    /// benchmark's (the fleet keeps its own).
    Solo(Box<ServeController>, ServeLog),
    /// `FleetController::observe_column` / `step_column`.
    Fleet(Box<FleetController>),
}

/// What one decision tick returned, and when it ran.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Clock read before the `step_*` call.
    pub start: Instant,
    /// Clock read after it returned.
    pub end: Instant,
    /// Realized MLU (global, for a fleet).
    pub mlu: f64,
    /// The program's own decision seconds, summed over shards.
    pub decision_sum_s: f64,
    /// The slowest shard's decision seconds.
    pub decision_max_s: f64,
}

impl Controller {
    /// Warm-up: ingest a column without a decision.
    pub fn observe(&mut self, column: &[f64]) {
        match self {
            Controller::Solo(c, _) => c.observe_pairs(column),
            Controller::Fleet(f) => f.observe_column(column),
        }
    }

    /// One decision tick.  Only the `step_*` call sits between the two clock
    /// reads; appending to the benchmark's log does not.
    pub fn step(&mut self, column: &[f64]) -> Tick {
        match self {
            Controller::Solo(c, log) => {
                let start = Instant::now();
                let out = c.step_pairs(column);
                let end = Instant::now();
                log.record_outcome(&out);
                Tick {
                    start,
                    end,
                    mlu: out.record.realized_mlu,
                    decision_sum_s: out.decision_seconds,
                    decision_max_s: out.decision_seconds,
                }
            }
            Controller::Fleet(f) => {
                let start = Instant::now();
                let out = f.step_column(column);
                let end = Instant::now();
                Tick {
                    start,
                    end,
                    mlu: out.global_mlu,
                    decision_sum_s: out.decision_seconds.iter().sum(),
                    decision_max_s: out.decision_seconds.iter().fold(0.0, |a, &b| a.max(b)),
                }
            }
        }
    }

    /// Arms the program's telemetry registry.
    pub fn enable_telemetry(&mut self) {
        match self {
            Controller::Solo(c, _) => c.enable_telemetry(),
            Controller::Fleet(f) => f.enable_telemetry(),
        }
    }

    /// The registry, when armed.
    pub fn telemetry_snapshot(&self) -> Option<Registry> {
        match self {
            Controller::Solo(c, _) => c.telemetry_snapshot(),
            Controller::Fleet(f) => f.telemetry_snapshot(),
        }
    }

    /// Decision logs, one per shard.
    pub fn logs(&self) -> &[ServeLog] {
        match self {
            Controller::Solo(_, log) => std::slice::from_ref(log),
            Controller::Fleet(f) => f.logs(),
        }
    }

    /// `(digest, decision_digest)` of the run so far.
    pub fn digests(&self) -> (u64, u64) {
        match self {
            Controller::Solo(_, log) => (log.digest(), log.decision_digest()),
            Controller::Fleet(f) => (f.digest(), f.decision_digest()),
        }
    }

    /// LP work so far, summed over shards.
    pub fn lp_stats(&self) -> SeriesStats {
        match self {
            Controller::Solo(c, _) => *c.lp_stats(),
            Controller::Fleet(f) => f.lp_stats(),
        }
    }

    /// Recovery-ladder counters so far (zeroes when the ladder is not armed).
    pub fn recovery_stats(&self) -> RecoveryStats {
        match self {
            Controller::Solo(c, _) => c.recovery_stats(),
            Controller::Fleet(f) => f.recovery_stats(),
        }
    }

    /// Whether the recovery ladder is armed.
    pub fn recovery_armed(&self) -> bool {
        matches!(self, Controller::Solo(c, _) if c.recovery_enabled())
    }

    /// The joint admission layer's counters; `None` for one controller.
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        match self {
            Controller::Solo(..) => None,
            Controller::Fleet(f) => Some(f.admission_stats()),
        }
    }

    /// Whether a learned controller is currently serving the LP instead.
    pub fn fell_back(&self) -> bool {
        match self {
            Controller::Solo(c, _) => c.fell_back(),
            Controller::Fleet(f) => f.fell_back_shards() > 0,
        }
    }
}

/// Seed of everything random in a scenario (pair sampling, trace and stream
/// generators): the default of `crates/bench/src/fleet.rs`.
const SCENARIO_SEED: u64 = 7;
/// Half-width of the seeded multiplicative noise on every demand value.
const NOISE: f64 = 0.05;

/// SplitMix64: the benchmark's own generator, so that the noise of a seed
/// does not change when a library's generator does.
struct SplitMix64(u64);

impl SplitMix64 {
    /// Uniform in `[-1, 1)`.
    fn symmetric(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Where a scenario's demand comes from before the seeded noise.
enum Base {
    /// An unbounded generator (`wan_learned`, `recovery_drill`).
    Stream(Box<OnlineStream>),
    /// A pre-generated fabric trace and the next snapshot to hand out.
    Trace(SparseTrace, usize),
}

/// The load generator: hands out one demand column per tick.
pub struct Source {
    base: Base,
    noise: SplitMix64,
    column: Vec<f64>,
}

impl Source {
    fn new(base: Base, seed: u64) -> Source {
        Source { base, noise: SplitMix64(seed), column: Vec::new() }
    }

    /// The next demand column, one value per pair in slot order: the
    /// scenario's column with every value scaled by `1 ± NOISE`.
    pub fn next_column(&mut self) -> &[f64] {
        let noise = &mut self.noise;
        let mut fill = |raw: &[f64]| {
            self.column.clear();
            self.column.extend(raw.iter().map(|v| v * (1.0 + NOISE * noise.symmetric())));
        };
        match &mut self.base {
            Base::Stream(stream) => {
                fill(stream.next_column().expect("the online stream is endless").values())
            }
            Base::Trace(trace, next) => {
                *next += 1;
                fill(trace.snapshot(*next - 1).values())
            }
        }
        &self.column
    }
}

/// A workload set up and warmed, ready for its first decision tick.
pub struct Setup {
    /// The warmed controller.
    pub controller: Controller,
    /// The load generator, positioned at the first decision tick's column.
    pub source: Source,
    /// The full path set (MLU probe, omniscient reference).
    pub paths: PathSet,
    /// For a fleet, what the LP probe solves instead of the full path set:
    /// shard 0's restricted path set — the template a shard controller
    /// actually serves — and the shard that gathers its sub-columns.
    pub lp_shard: Option<(PathSet, ShardUniverse)>,
    /// Per-layer facts measured while setting up, by metric name.
    pub facts: Vec<(&'static str, f64)>,
}

/// Builds and warms `workload` for `ticks` decision ticks, recording one span
/// per set-up stage.  Everything from here to the first decision tick is
/// `setup_s`.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    telemetry: bool,
    rec: &mut SpanRecorder,
) -> Setup {
    let span = rec.begin("setup");
    let (mut setup, warmup) = match workload {
        Workload::WanLearned | Workload::RecoveryDrill => setup_learned(workload, seed, scale, rec),
        Workload::DcFleetLp | Workload::LpMonolith => setup_fabric(workload, seed, scale, rec),
    };
    if telemetry {
        setup.controller.enable_telemetry();
    }
    let warm = rec.begin("serve.warmup");
    for _ in 0..warmup {
        setup.controller.observe(setup.source.next_column());
    }
    rec.end(warm);
    rec.end(span);
    setup
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `wan_learned` and `recovery_drill`: a Table 1 network, a model trained on
/// the first demands of the workload's own stream, and that stream going on.
fn setup_learned(
    workload: Workload,
    seed: u64,
    scale: Scale,
    rec: &mut SpanRecorder,
) -> (Setup, usize) {
    let drill = workload == Workload::RecoveryDrill;
    let topology = if drill { Topology::MetaDbPod } else { Topology::Geant };
    let graph: Graph = rec.scope("topology.build", || TopologySpec::full_scale(topology).build());
    let paths = rec.scope("te.pathset_build", || PathSet::k_shortest(&graph, 3));
    let config = workload.model_config().expect("learned workloads carry a model config");
    let window = config.history_window;
    let snapshots = workload.train_snapshots(scale);

    // `wan_learned` serves the quiet gravity/diurnal stream: with drift, flash
    // crowds or storms on, the audit abandons the model within a few hundred
    // ticks and the run would measure the LP.  `recovery_drill` wants exactly
    // that churn, so it keeps every episode generator on and adds the step.
    let stream_config = if drill {
        let at_tick = snapshots + window + SHIFT_AFTER_TICKS;
        OnlineStreamConfig {
            seed: SCENARIO_SEED,
            shift: Some(StepShiftConfig { at_tick, factor: 4.0 }),
            ..Default::default()
        }
    } else {
        OnlineStreamConfig {
            seed: SCENARIO_SEED,
            drift: None,
            flash_crowds: None,
            failure_storms: None,
            ..Default::default()
        }
    };
    let stream = OnlineStream::from_graph(&graph, 0.25, stream_config);
    let mut source = Source::new(Base::Stream(Box::new(stream)), seed);
    let trace = rec.scope("traffic.trace_gen", || {
        let matrices = (0..snapshots)
            .map(|_| {
                DemandMatrix::from_pairs(graph.num_nodes(), source.next_column())
                    .expect("the stream yields one value per ordered pair")
            })
            .collect();
        TrafficTrace::new(workload.name(), 900.0, matrices)
    });
    let trace_mib = mib(snapshots * graph.num_nodes() * graph.num_nodes() * 8);

    let variances = per_pair_variance_range(&trace, 0..snapshots);
    let dataset = WindowDataset::from_trace(&trace, window, 0..snapshots);
    let mut model = FigretModel::new(&paths, &variances, config);
    let train = rec.begin("core.train");
    let report = model.train(&dataset);
    let train_s = rec.end(train);
    drop((dataset, trace));

    let mut controller = rec.scope("serve.controller_build", || {
        ServeController::learned(
            &paths,
            model,
            PredictorKind::LastValue.build(),
            ReconfigPolicy::default(),
        )
    });
    if drill {
        // The f64 graph serves, and the ladder is armed as in the CI drill.
        controller.enable_recovery(RecoveryConfig {
            retrain_window: 32,
            retrain_every: 4,
            promotion_patience: 2,
            retrain_epochs: 150,
            ..RecoveryConfig::default()
        });
    } else {
        rec.scope("nn.plan_compile", || controller.enable_inference_plan());
    }
    let samples = (report.samples_per_epoch * report.epochs.len()) as f64;
    let facts = vec![
        ("te.pathset_paths", paths.num_paths() as f64),
        ("traffic.trace_mib", trace_mib),
        ("core.train_samples_per_s", samples / train_s),
        ("core.final_loss", report.final_loss().unwrap_or(f64::NAN)),
    ];
    let setup = Setup {
        controller: Controller::Solo(Box::new(controller), ServeLog::new()),
        source,
        lp_shard: None,
        paths,
        facts,
    };
    (setup, window)
}

/// `dc_fleet_lp` and `lp_monolith`: a jellyfish fabric, a sampled pair
/// universe, a bursty sparse trace, and warm-started LP serving — eight
/// shards under the joint budget of `crates/bench/src/fleet.rs`, or one
/// always-updating template.
fn setup_fabric(
    workload: Workload,
    seed: u64,
    scale: Scale,
    rec: &mut SpanRecorder,
) -> (Setup, usize) {
    let fleet = workload == Workload::DcFleetLp;
    let tors = if fleet { 512 } else { 80 };
    let fabric = rec.scope("topology.build", || FabricSpec::jellyfish(tors).build());
    let nodes = fabric.graph.num_nodes();
    let active =
        Arc::new(ActivePairs::sample_among(nodes, fabric.num_tors, PER_SOURCE, SCENARIO_SEED));
    let paths =
        rec.scope("te.pathset_build", || PathSet::k_shortest_for_pairs(&fabric.graph, &active, 3));
    let ticks = workload.ticks(scale);
    let trace = rec.scope("traffic.trace_gen", || {
        let config = TorTrafficConfig {
            num_snapshots: LP_WINDOW + ticks,
            seed: SCENARIO_SEED,
            ..Default::default()
        };
        tor_trace_sparse(&fabric.graph, &active, &config)
    });
    let facts = vec![
        ("te.pathset_paths", paths.num_paths() as f64),
        ("traffic.trace_mib", mib(trace.demand_storage_bytes())),
    ];

    let build = rec.begin("serve.controller_build");
    let (controller, lp_shard) = if fleet {
        let plan = ShardPlan::source_blocks(&active, fabric.num_tors, FLEET_SHARDS);
        let policy = ReconfigPolicy {
            hysteresis: 0.01,
            budget: Some(UpdateBudget::per_window(4, 8)),
            ..ReconfigPolicy::always_update()
        };
        let controller =
            FleetController::lp(&plan, &paths, LP_WINDOW, PredictorKind::LastValue, &policy);
        let shard = plan.shard(0).clone();
        let (restricted, _) = paths.restrict_to(shard.active());
        (Controller::Fleet(Box::new(controller)), Some((restricted, shard)))
    } else {
        let controller = ServeController::lp(
            &paths,
            LP_WINDOW,
            PredictorKind::LastValue.build(),
            ReconfigPolicy::always_update(),
        );
        (Controller::Solo(Box::new(controller), ServeLog::new()), None)
    };
    rec.end(build);
    let source = Source::new(Base::Trace(trace, 0), seed);
    (Setup { controller, source, paths, lp_shard, facts }, LP_WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_parse_back_and_are_plain() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::metrics::is_plain_name(w.name()), "{}", w.name());
        }
        assert_eq!(Workload::parse("wan"), None);
    }

    #[test]
    fn every_full_run_serves_at_least_a_thousand_ticks() {
        for seconds in [1, 10, 60] {
            for w in WORKLOADS {
                assert!(w.ticks(Scale { seconds, smoke: false }) >= 1000);
                let smoke = w.ticks(Scale { seconds, smoke: true });
                assert_eq!(smoke, w.ticks(Scale { seconds, smoke: false }) / 50);
            }
        }
        assert_eq!(Workload::WanLearned.ticks(Scale { seconds: 10, smoke: false }), 15_000);
    }
}
