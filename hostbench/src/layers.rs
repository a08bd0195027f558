//! Per-layer host timing, measured from outside the simulation crates by
//! timing calls into each layer's public functions:
//!
//! * the CPU↔tile boundary: fresh `CoreModel`s drive the system's tile
//!   through [`Timed`], a forwarding `MemoryBackend` that times every call;
//!   on a co-run each core's calls are also timed whole, around the shared
//!   backend, which separates the shared layer from the cores and the tile;
//! * the device: a captured command stream re-issued through a fresh
//!   `DramDevice` ([`replay`]).

use std::ops::DerefMut;
use std::sync::Arc;
use std::time::Instant;

use easydram::system::Tile;
use easydram::System;
use easydram_cpu::{
    CoScheduler, CoreModel, CpuApi, LineFetch, MemoryBackend, RowCloneRequestResult, SharedBackend,
    Workload, LINE_BYTES,
};
use easydram_dram::{CmdRecord, DeviceStats, DramCommand, DramDevice};

use crate::workloads::{Case, Fingerprint};

/// Host time of the calls one run made across the CPU↔tile boundary.
#[derive(Debug, Clone, Default)]
pub struct CallTimes {
    /// Duration of each `read_line`, ns.
    pub read_ns: Vec<u64>,
    /// Duration of each `post_write`, ns.
    pub write_ns: Vec<u64>,
    /// `drain_writes` calls.
    pub drain_calls: u64,
    /// Total duration of the `drain_writes` calls, ns.
    pub drain_ns: u64,
}

impl CallTimes {
    /// Folds another run's calls in.
    pub fn extend(&mut self, other: CallTimes) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.drain_calls += other.drain_calls;
        self.drain_ns += other.drain_ns;
    }

    /// Total time spent inside the tile, ns.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.read_ns.iter().sum::<u64>() + self.write_ns.iter().sum::<u64>() + self.drain_ns
    }

    /// Calls of every kind.
    #[must_use]
    pub fn calls(&self) -> u64 {
        (self.read_ns.len() + self.write_ns.len()) as u64 + self.drain_calls
    }
}

/// The `pct`-th percentile (nearest rank) of `xs`; 0 when empty.
#[must_use]
pub fn percentile(xs: &mut [u64], pct: usize) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = (xs.len() * pct).div_ceil(100).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A forwarding `MemoryBackend` that times the three request-stream calls
/// into the backend behind `inner`; everything else forwards untimed.
pub struct Timed<B> {
    /// The wrapped backend (a `&mut Tile`, or a boxed core handle).
    pub inner: B,
    /// The calls timed so far.
    pub times: CallTimes,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            times: CallTimes::default(),
        }
    }
}

impl<B> MemoryBackend for Timed<B>
where
    B: DerefMut,
    B::Target: MemoryBackend,
{
    fn set_requestor(&mut self, requestor: u32) {
        self.inner.set_requestor(requestor);
    }

    fn read_line(&mut self, line_addr: u64, issue_cycle: u64) -> LineFetch {
        let t = Instant::now();
        let f = self.inner.read_line(line_addr, issue_cycle);
        self.times.read_ns.push(elapsed_ns(t));
        f
    }

    fn post_write(&mut self, line_addr: u64, data: [u8; LINE_BYTES], issue_cycle: u64) -> u64 {
        let t = Instant::now();
        let c = self.inner.post_write(line_addr, data, issue_cycle);
        self.times.write_ns.push(elapsed_ns(t));
        c
    }

    fn drain_writes(&mut self, issue_cycle: u64) -> u64 {
        let t = Instant::now();
        let c = self.inner.drain_writes(issue_cycle);
        self.times.drain_ns += elapsed_ns(t);
        self.times.drain_calls += 1;
        c
    }

    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.inner.alloc(bytes, align)
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn row_bytes(&self) -> u64 {
        self.inner.row_bytes()
    }

    fn rowclone(&mut self, src: u64, dst: u64, issue_cycle: u64) -> Option<RowCloneRequestResult> {
        self.inner.rowclone(src, dst, issue_cycle)
    }

    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        self.inner.rowclone_alloc_copy(bytes)
    }

    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        self.inner.rowclone_alloc_init(bytes)
    }

    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        self.inner.rowclone_init_source(dst_row_addr)
    }
}

/// One case run with every tile call timed: its host time split into the
/// tile's calls, the cores' own work, and (co-runs only) the shared layer.
#[derive(Debug, Clone)]
pub struct Forwarded {
    /// Host seconds of the run.
    pub region_s: f64,
    /// Host seconds the cores spent outside memory-backend calls.
    pub cpu_s: f64,
    /// Host seconds in neither the cores nor the tile: on a co-run, the
    /// shared backend's locking and baton hand-offs between core threads;
    /// 0 on a single core.
    pub shared_s: f64,
    /// The tile's calls.
    pub times: CallTimes,
    /// The run's statistics, for the observer-free check.
    pub fp: Fingerprint,
}

/// Runs `case` with fresh cores over its tile, every tile call timed. A
/// co-run is driven like `MultiCoreSystem::co_run` at engine width 1 (one
/// thread per core, one baton), its cores fanned out over the tile of a
/// single-core `System` built from the same configuration.
pub fn forward(case: &mut Case) -> Forwarded {
    match case {
        Case::Kernel { sys, work } => forward_single(sys, work.as_mut()),
        Case::Chase { sys, chase } => forward_single(sys, chase),
        Case::Corun { mc, chase, writer } => {
            let mut sys = System::new(mc.with_tile(|t| t.config().clone()));
            forward_corun(&mut sys, mc.quantum(), [chase, writer])
        }
    }
}

fn forward_single(sys: &mut System, work: &mut dyn Workload) -> Forwarded {
    let core_cfg = sys.tile().config().core.clone();
    let mut core = CoreModel::new(core_cfg, Timed::new(sys.tile_mut()));
    let t = Instant::now();
    work.run(&mut core);
    let region_s = t.elapsed().as_secs_f64();
    let cycles = core.now_cycles();
    let stats = *core.stats();
    let times = core.into_backend().times;
    Forwarded {
        region_s,
        cpu_s: region_s - times.busy_ns() as f64 / 1e9,
        shared_s: 0.0,
        times,
        fp: tile_fingerprint(sys.tile(), vec![cycles], vec![stats]),
    }
}

/// Each core's backend calls are timed twice: around the whole call
/// (baton wait, lock and tile) and inside the lock (the tile alone). Only
/// the baton holder runs, so a core's own work is its thread's lifetime
/// after its first turn minus its outer call time, and whatever the cores
/// and the tile do not cover is the shared layer's.
fn forward_corun(sys: &mut System, quantum: u64, works: [&mut dyn Workload; 2]) -> Forwarded {
    let core_cfg = sys.tile().config().core.clone();
    let handles = SharedBackend::fan_out(Timed::new(sys.tile_mut()), works.len());
    let shared = handles[0].shared();
    let mut cores: Vec<_> = handles
        .into_iter()
        .map(|h| CoreModel::new(core_cfg.clone(), Timed::new(Box::new(h))))
        .collect();
    let sched = CoScheduler::with_run_ahead(cores.len(), quantum, false);
    for core in &mut cores {
        core.backend_mut()
            .inner
            .attach_scheduler(Arc::clone(&sched));
    }
    let t = Instant::now();
    let lives: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = cores
            .iter_mut()
            .zip(works)
            .enumerate()
            .map(|(i, (core, work))| {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.start(i);
                    let life = Instant::now();
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work.run(core)));
                    let life = life.elapsed().as_secs_f64();
                    sched.finish(i, core.now_cycles());
                    match result {
                        Ok(()) => life,
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let region_s = t.elapsed().as_secs_f64();
    let cpu_s: f64 = cores
        .iter()
        .zip(&lives)
        .map(|(c, life)| life - c.backend().times.busy_ns() as f64 / 1e9)
        .sum();
    let cycles = cores.iter().map(CpuApi::now_cycles).collect();
    let stats = cores.iter().map(|c| *c.stats()).collect();
    drop(cores);
    let times = Arc::try_unwrap(shared)
        .ok()
        .expect("every core handle dropped")
        .into_inner()
        .expect("no core panicked holding the tile")
        .times;
    Forwarded {
        region_s,
        cpu_s,
        shared_s: region_s - cpu_s - times.busy_ns() as f64 / 1e9,
        times,
        fp: tile_fingerprint(sys.tile(), cycles, stats),
    }
}

fn tile_fingerprint(
    tile: &Tile,
    cycles: Vec<u64>,
    cores: Vec<easydram_cpu::CoreStats>,
) -> Fingerprint {
    Fingerprint {
        cycles,
        cores,
        smc: *tile.smc_stats(),
        channels: tile.channel_stats(),
        dram: tile.device_stats(),
        metrics: tile.metrics(),
    }
}

/// The command `rec` recorded, rebuilt for re-issue. Write data is not
/// recorded, so replayed writes carry zeros; timing and counts do not
/// depend on data.
fn decode(rec: &CmdRecord) -> Option<DramCommand> {
    let (bank, arg) = (rec.bank, rec.arg);
    Some(match rec.mnemonic {
        "ACT" => DramCommand::Activate { bank, row: arg },
        "PRE" => DramCommand::Precharge { bank },
        "PREA" => DramCommand::PrechargeAll,
        "RD" => DramCommand::Read { bank, col: arg },
        "WR" => DramCommand::Write {
            bank,
            col: arg,
            data: [0; LINE_BYTES],
        },
        "REF" => DramCommand::Refresh,
        "RFM" => DramCommand::RefreshRow { bank, row: arg },
        _ => return None,
    })
}

/// Command counts a replay must reproduce.
#[must_use]
pub fn command_counts(s: &DeviceStats) -> [u64; 6] {
    [
        s.activates,
        s.precharges,
        s.reads,
        s.writes,
        s.refreshes,
        s.targeted_refreshes,
    ]
}

/// Re-issues `records` through `device` at their recorded times. Returns
/// the host ns spent issuing, or `None` if a record does not decode or the
/// device refuses it.
pub fn replay(device: &mut DramDevice, records: &[CmdRecord]) -> Option<u64> {
    let t = Instant::now();
    for rec in records {
        device.issue_raw(decode(rec)?, rec.ps).ok()?;
    }
    Some(elapsed_ns(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Case, Expected, Kind, Pass};
    use easydram_workloads::PolySize;

    fn forwarded_matches(kind: Kind, i: usize) {
        let expected = Expected::compute(kind, PolySize::Mini);
        let mut case = Case::build(kind, i, 3, Pass::TIMED, PolySize::Mini);
        let live = case.run();
        assert_eq!(case.check(&expected).failed, 0);
        let mut case = Case::build(kind, i, 3, Pass::TIMED, PolySize::Mini);
        let fwd = forward(&mut case);
        let checks = case.check(&expected);
        assert!(checks.total >= 1 && checks.failed == 0);
        assert_eq!(fwd.fp, live.fp, "{kind:?} case {i}");
        assert_eq!(
            fwd.times.read_ns.len() as u64,
            live.fp.cores.iter().map(|c| c.mem_reads).sum::<u64>()
        );
        assert!(fwd.times.busy_ns() > 0);
        assert!(fwd.cpu_s > 0.0 && fwd.cpu_s < fwd.region_s);
        if kind != Kind::Corun {
            assert_eq!(fwd.shared_s, 0.0);
        }
    }

    #[test]
    fn forwarding_backend_reproduces_system_run_on_a_mini_kernel() {
        let atax = easydram_workloads::polybench::all_names()
            .iter()
            .position(|&n| n == "atax")
            .unwrap();
        forwarded_matches(Kind::Polybench, atax);
        forwarded_matches(Kind::Chase, 0);
    }

    #[test]
    fn forwarding_backend_reproduces_a_mini_co_run() {
        forwarded_matches(Kind::Corun, 0);
    }

    #[test]
    fn replay_reproduces_command_counts() {
        let cfg = crate::workloads::config(
            Kind::Chase,
            5,
            Pass {
                trace: Some(easydram::TraceConfig {
                    ring_capacity: 1 << 16,
                }),
                ..Pass::TIMED
            },
        );
        let mut sys = System::new(cfg);
        let mut fresh = sys.tile().channel_device(0).clone();
        let mut chase = crate::inputs::Chase::new(64 * 1024, 5);
        sys.run(&mut chase);
        let (records, dropped) = sys.tile_mut().channel_device_mut(0).take_cmd_trace();
        assert_eq!(dropped, 0);
        assert!(!records.is_empty());
        replay(&mut fresh, &records).expect("every recorded command re-issues");
        assert_eq!(
            command_counts(fresh.stats()),
            command_counts(sys.tile().channel_device(0).stats())
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 50), 50);
        assert_eq!(percentile(&mut xs, 99), 99);
        assert_eq!(percentile(&mut [], 50), 0);
        assert_eq!(percentile(&mut [7], 99), 7);
    }
}
