//! The three workloads, each as a list of cases: one system with its
//! seeded inputs, built by [`Case::build`] and run by [`Case::run`].

use std::collections::BTreeMap;
use std::time::Instant;

use easydram::report::{ChannelStats, SmcStats};
use easydram::system::Tile;
use easydram::{
    CoRunReport, ExecutionReport, MultiCoreSystem, System, SystemConfig, TileMetrics, TimingMode,
    TraceConfig, TraceLog,
};
use easydram_cpu::{CoreConfig, CoreModel, CoreStats, FixedLatencyBackend, Workload};
use easydram_dram::DeviceStats;
use easydram_workloads::{polybench, PolySize};

use crate::inputs::{Chase, CheckedWriter};

/// Working set of the single-core chase: 32x the 512 KiB L2.
pub const CHASE_BYTES: u64 = 16 << 20;
/// Working set of the co-run's chase (core 0).
pub const CORUN_CHASE_BYTES: u64 = 8 << 20;
/// Sweep of the co-run's stream writer (core 1).
pub const CORUN_WRITER_BYTES: u64 = 4 << 20;
/// Emulated cycles the co-run's writer sweeps for (at least one sweep):
/// about as long as the chase beside it takes.
pub const CORUN_WRITER_CYCLES: u64 = 30_000_000;
/// ALU operations between the writer's stores: a rate-paced writer keeps
/// storing for the whole chase instead of finishing early.
pub const CORUN_WRITER_PACE: u64 = 600;
/// Writer lines read back after its last sweep.
pub const WRITER_SAMPLES: u64 = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's §6 suite: 28 PolyBench kernels, one fresh system each.
    Polybench,
    /// A seeded single-cycle pointer chase on one channel.
    Chase,
    /// Two cores on two channels: a chase beside a stream writer.
    Corun,
}

impl Kind {
    /// Workload names, as `--workload` takes them.
    pub const NAMES: [&'static str; 3] = ["polybench", "chase", "corun"];

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "polybench" => Some(Kind::Polybench),
            "chase" => Some(Kind::Chase),
            "corun" => Some(Kind::Corun),
            _ => None,
        }
    }

    /// Number of independent systems one pass over the workload builds.
    #[must_use]
    pub fn cases(self) -> usize {
        match self {
            Kind::Polybench => polybench::all_names().len(),
            Kind::Chase | Kind::Corun => 1,
        }
    }
}

/// How one pass configures its systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// Timing mode of every system.
    pub mode: TimingMode,
    /// Engine width (`SystemConfig::threads`).
    pub threads: u32,
    /// Event tracing, off when `None`.
    pub trace: Option<TraceConfig>,
}

impl Pass {
    /// The measured configuration: time scaling, engine width 1, no trace.
    pub const TIMED: Pass = Pass {
        mode: TimingMode::TimeScaling,
        threads: 1,
        trace: None,
    };
}

/// The system configuration of `kind` under `pass`. The seed sets the
/// device variation seed; every workload runs the Jetson Nano preset, the
/// co-run on two channels.
#[must_use]
pub fn config(kind: Kind, seed: u64, pass: Pass) -> SystemConfig {
    let mut cfg = SystemConfig::jetson_nano(pass.mode);
    cfg.dram.variation.seed = seed;
    if kind == Kind::Corun {
        cfg.dram.geometry.channels = 2;
    }
    cfg.threads = Some(pass.threads);
    cfg.trace = pass.trace;
    cfg
}

/// Everything the observer-free check compares between two runs of the
/// same case: emulated cycles and core counters per core, and the tile's
/// controller, channel, device and histogram statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Emulated cycles of each core.
    pub cycles: Vec<u64>,
    /// Counters of each core.
    pub cores: Vec<CoreStats>,
    /// Controller counters.
    pub smc: SmcStats,
    /// Per-channel controller counters.
    pub channels: Vec<ChannelStats>,
    /// Device counters, summed over channels.
    pub dram: DeviceStats,
    /// Latency, depth and batch histograms.
    pub metrics: TileMetrics,
}

impl Fingerprint {
    /// Emulated cycles of the run: the slowest core's (a co-run's makespan).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }

    fn of(report: &ExecutionReport, cycles: Vec<u64>, cores: Vec<CoreStats>) -> Self {
        Self {
            cycles,
            cores,
            smc: report.smc,
            channels: report.channels.clone(),
            dram: report.dram,
            metrics: report.metrics,
        }
    }
}

/// What one case's run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's statistics.
    pub fp: Fingerprint,
    /// L1 and L2 `(hits, misses)`, summed over cores.
    pub l1: (u64, u64),
    /// See `l1`.
    pub l2: (u64, u64),
    /// The full report, for byte-for-byte comparison between passes.
    pub report: Report,
}

/// The report a case's run returns.
#[derive(Debug, Clone)]
pub enum Report {
    /// `System::run`'s report.
    Single(ExecutionReport),
    /// `MultiCoreSystem::co_run`'s report.
    Multi(CoRunReport),
}

impl Report {
    /// The report as text: two runs are byte-identical when these are.
    #[must_use]
    pub fn text(&self) -> String {
        match self {
            Report::Single(r) => format!("{r:?}"),
            Report::Multi(r) => format!("{r:?}"),
        }
    }
}

/// A tally of output checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub total: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; prints `what` when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.total += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Folds another tally in.
    pub fn add(&mut self, other: Checks) {
        self.total += other.total;
        self.failed += other.failed;
    }
}

/// Expected outputs that do not depend on the memory system: each PolyBench
/// kernel's checksum on an ideal fixed-latency memory.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    checksums: BTreeMap<&'static str, u64>,
}

impl Expected {
    /// Computes the expected outputs of `kind` on `CoreModel` over
    /// `FixedLatencyBackend`.
    #[must_use]
    pub fn compute(kind: Kind, size: PolySize) -> Self {
        let mut checksums = BTreeMap::new();
        if kind == Kind::Polybench {
            for name in polybench::all_names() {
                let mut cpu =
                    CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
                let mut w = polybench::by_name(name, size).expect("kernel exists");
                w.run(&mut cpu);
                // A kernel without a checksum has no entry, so its check fails.
                if let Some(sum) = w.result_checksum() {
                    checksums.insert(name, sum.to_bits());
                }
            }
        }
        Self { checksums }
    }
}

/// One system with its inputs, ready to run.
pub enum Case {
    /// A PolyBench kernel on a fresh single-core system.
    Kernel {
        /// The system.
        sys: System,
        /// The kernel.
        work: Box<dyn Workload>,
    },
    /// The chase on a fresh single-core system.
    Chase {
        /// The system.
        sys: System,
        /// The chase.
        chase: Chase,
    },
    /// The two-core co-run.
    Corun {
        /// The two-core system.
        mc: MultiCoreSystem,
        /// Core 0's workload.
        chase: Chase,
        /// Core 1's workload.
        writer: CheckedWriter,
    },
}

impl Case {
    /// Builds case `i` of `kind`: the system and its seeded inputs.
    #[must_use]
    pub fn build(kind: Kind, i: usize, seed: u64, pass: Pass, size: PolySize) -> Case {
        let cfg = config(kind, seed, pass);
        match kind {
            Kind::Polybench => Case::Kernel {
                sys: System::new(cfg),
                work: polybench::by_name(polybench::all_names()[i], size).expect("kernel exists"),
            },
            Kind::Chase => Case::Chase {
                sys: System::new(cfg),
                chase: Chase::new(chase_bytes(kind, size), seed),
            },
            Kind::Corun => Case::Corun {
                mc: MultiCoreSystem::new(cfg, 2),
                chase: Chase::new(chase_bytes(kind, size), seed),
                writer: writer(size),
            },
        }
    }

    /// Runs `f` on the case's tile.
    pub fn with_tile<R>(&mut self, f: impl FnOnce(&mut Tile) -> R) -> R {
        match self {
            Case::Kernel { sys, .. } | Case::Chase { sys, .. } => f(sys.tile_mut()),
            Case::Corun { mc, .. } => mc.with_tile(f),
        }
    }

    /// Drains the case's event trace (see `System::take_trace`).
    pub fn take_trace(&mut self) -> TraceLog {
        match self {
            Case::Kernel { sys, .. } | Case::Chase { sys, .. } => sys.take_trace(),
            Case::Corun { mc, .. } => mc.take_trace(),
        }
    }

    /// Runs the case to completion.
    pub fn run(&mut self) -> Outcome {
        match self {
            Case::Kernel { sys, work } => single(sys.run(work.as_mut())),
            Case::Chase { sys, chase } => single(sys.run(chase)),
            Case::Corun { mc, chase, writer } => {
                let report = mc.co_run(&mut [chase as &mut dyn Workload, writer]);
                let (mut l1, mut l2) = ((0, 0), (0, 0));
                for i in 0..mc.n_cores() {
                    add_level(&mut l1, mc.core(i).l1_stats());
                    add_level(&mut l2, mc.core(i).l2_stats());
                }
                Outcome {
                    fp: Fingerprint::of(
                        &report.aggregate,
                        report.cores.iter().map(|c| c.emulated_cycles).collect(),
                        report.cores.iter().map(|c| c.core).collect(),
                    ),
                    l1,
                    l2,
                    report: Report::Multi(report),
                }
            }
        }
    }

    /// Host-time laps the case's last run recorded inside its workload:
    /// the chase's (see [`Chase::laps`]); none for a kernel.
    #[must_use]
    pub fn laps(&self) -> &[Instant] {
        match self {
            Case::Kernel { .. } => &[],
            Case::Chase { chase, .. } | Case::Corun { chase, .. } => chase.laps(),
        }
    }

    /// Checks the outputs of the case's last run.
    #[must_use]
    pub fn check(&self, expected: &Expected) -> Checks {
        let mut checks = Checks::default();
        match self {
            Case::Kernel { work, .. } => {
                let want = expected.checksums.get(work.name()).copied();
                checks.check(
                    want.is_some() && work.result_checksum().map(f64::to_bits) == want,
                    &format!(
                        "{} checksum differs from the fixed-latency run",
                        work.name()
                    ),
                );
            }
            Case::Chase { chase, .. } => checks.check(chase.correct(), "chase final pointer"),
            Case::Corun { chase, writer, .. } => {
                checks.check(chase.correct(), "co-run chase final pointer");
                checks.check(writer.correct(), "co-run writer read-back");
            }
        }
        checks
    }
}

/// Bytes of the chase in `kind` (smaller at the test size).
#[must_use]
pub fn chase_bytes(kind: Kind, size: PolySize) -> u64 {
    let full = if kind == Kind::Corun {
        CORUN_CHASE_BYTES
    } else {
        CHASE_BYTES
    };
    match size {
        PolySize::Small => full,
        PolySize::Mini => full / 64,
    }
}

/// The co-run's writer (smaller at the test size).
#[must_use]
pub fn writer(size: PolySize) -> CheckedWriter {
    match size {
        PolySize::Small => CheckedWriter::new(
            CORUN_WRITER_BYTES,
            CORUN_WRITER_CYCLES,
            CORUN_WRITER_PACE,
            WRITER_SAMPLES,
        ),
        PolySize::Mini => CheckedWriter::new(
            CORUN_WRITER_BYTES / 64,
            CORUN_WRITER_CYCLES / 64,
            CORUN_WRITER_PACE,
            WRITER_SAMPLES,
        ),
    }
}

fn add_level(acc: &mut (u64, u64), stats: Option<easydram_cpu::cache::CacheLevelStats>) {
    if let Some(s) = stats {
        acc.0 += s.hits;
        acc.1 += s.misses;
    }
}

fn single(r: ExecutionReport) -> Outcome {
    let (mut l1, mut l2) = ((0, 0), (0, 0));
    add_level(&mut l1, r.l1);
    add_level(&mut l2, r.l2);
    Outcome {
        fp: Fingerprint::of(&r, vec![r.emulated_cycles], vec![r.core]),
        l1,
        l2,
        report: Report::Single(r),
    }
}
