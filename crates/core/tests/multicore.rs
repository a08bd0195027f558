//! Integration tests for the multi-core shared-tile subsystem: deterministic
//! co-scheduling, per-requestor attribution, and the headline contention
//! regression — an lmbench-style pointer chase slows down measurably when
//! co-run against a streaming writer on one channel, and a second channel
//! recovers most of the loss.

use easydram::{MultiCoreSystem, SystemConfig, TimingMode};
use easydram_cpu::{CacheConfig, CpuApi, Workload};
use easydram_workloads::lmbench::LatMemRd;
use easydram_workloads::StreamWriter;

/// Chase working set (8× the shrunken L2, so every dependent load misses).
const CHASE_BYTES: u64 = 256 * 1024;
/// Dependent loads in the chase's measured region.
const CHASE_LOADS: u64 = 2_048;

/// A small-cache variant of the test system so memory-resident working sets
/// stay cheap to emulate: 4 KiB L1, 32 KiB L2. The device keeps the small
/// row count but a realistic 8 banks per channel, so cross-core
/// interference is bus serialization (which extra channels split) rather
/// than pathological two-bank row conflicts.
fn cfg(channels: u32) -> SystemConfig {
    let mut cfg = SystemConfig::small_for_tests(TimingMode::Reference);
    cfg.dram.geometry.channels = channels;
    cfg.dram.geometry.bank_groups = 2;
    cfg.dram.geometry.banks_per_group = 4;
    cfg.core.l1 = Some(CacheConfig {
        size_bytes: 4 * 1024,
        ways: 2,
        hit_latency_cycles: 4,
    });
    cfg.core.l2 = Some(CacheConfig {
        size_bytes: 32 * 1024,
        ways: 4,
        hit_latency_cycles: 12,
    });
    cfg
}

/// Co-scheduling quantum for the contention study. The quantum bounds the
/// emulation-order skew between cores (a core may price requests up to one
/// quantum ahead of the laggard), so interference studies keep it small
/// relative to a memory round trip.
const QUANTUM: u64 = 40;

/// Cycles per dependent load of the chase, solo or co-run with the writer.
/// The chase is *shuffled* (no row-buffer locality of its own), so the
/// co-run delta is genuine queueing behind the writer's traffic rather
/// than lost open-row locality — the component a second channel splits.
fn chase_cpl(channels: u32, with_writer: bool) -> f64 {
    let mut chase = LatMemRd::shuffled_with_loads(CHASE_BYTES, 64, CHASE_LOADS);
    if with_writer {
        let mut sys = MultiCoreSystem::new(cfg(channels), 2);
        sys.set_quantum(QUANTUM);
        // An elastic streaming writer whose cycle budget comfortably covers
        // the chase's whole run, so the measured region is contended end to
        // end.
        let mut writer = StreamWriter::new(256 * 1024, 2_000_000);
        sys.co_run(&mut [&mut chase, &mut writer]);
    } else {
        let mut sys = MultiCoreSystem::new(cfg(channels), 1);
        sys.set_quantum(QUANTUM);
        sys.co_run(&mut [&mut chase]);
    }
    chase.cycles_per_load().expect("chase ran")
}

#[test]
fn streaming_writer_degrades_chase_latency_and_channels_recover_it() {
    let solo_1ch = chase_cpl(1, false);
    let co_1ch = chase_cpl(1, true);
    let solo_2ch = chase_cpl(2, false);
    let co_2ch = chase_cpl(2, true);
    let degradation_1ch = co_1ch / solo_1ch;
    let degradation_2ch = co_2ch / solo_2ch;
    println!(
        "chase cycles/load: solo 1ch {solo_1ch:.1}, co-run 1ch {co_1ch:.1} ({degradation_1ch:.3}x); \
         solo 2ch {solo_2ch:.1}, co-run 2ch {co_2ch:.1} ({degradation_2ch:.3}x)"
    );
    assert!(
        degradation_1ch >= 1.1,
        "co-running a streaming writer on one channel must slow the chase \
         by >= 1.1x, got {degradation_1ch:.3}x"
    );
    assert!(
        degradation_2ch - 1.0 < (degradation_1ch - 1.0) / 2.0,
        "a second channel must recover more than half the interference: \
         1ch {degradation_1ch:.3}x vs 2ch {degradation_2ch:.3}x"
    );
}

/// Two identical workloads on a 1-channel tile: per-requestor reports
/// partition the aggregate, and the whole co-run reproduces byte-identically.
#[test]
fn identical_pair_partitions_aggregate_and_reproduces_byte_identically() {
    let run = || {
        let mut sys = MultiCoreSystem::new(cfg(1), 2);
        let mut a = LatMemRd::with_loads(64 * 1024, 64, 256);
        let mut b = LatMemRd::with_loads(64 * 1024, 64, 256);
        let r = sys.co_run(&mut [&mut a, &mut b]);
        (format!("{r}"), r)
    };
    let (text1, r) = run();
    let (text2, _) = run();
    assert_eq!(text1, text2, "co-runs must reproduce byte-identically");

    let q = &r.aggregate.requestors;
    assert_eq!(q.len(), 2);
    assert_eq!(
        q.iter().map(|q| q.requests).sum::<u64>(),
        r.aggregate.smc.requests,
        "per-requestor requests partition the tile total"
    );
    assert_eq!(
        q.iter()
            .map(|q| q.reads + q.writes + q.rowclones)
            .sum::<u64>(),
        r.aggregate.smc.requests,
        "every request is classified exactly once"
    );
    assert_eq!(
        q.iter()
            .map(|q| q.row_hits + q.row_misses + q.row_conflicts)
            .sum::<u64>(),
        r.aggregate.smc.serve.row_hits
            + r.aggregate.smc.serve.row_misses
            + r.aggregate.smc.serve.row_conflicts,
        "per-requestor row outcomes partition the controller totals"
    );
    // Rocket cycles are attributed per response slice; trailing per-pass
    // work (the final scheduling-state write and empty-FIFO polls) stays
    // unattributed, so the slices bound the per-channel totals from below.
    let attributed: u64 = q.iter().map(|q| q.rocket_cycles).sum();
    let total: u64 = r.aggregate.channels.iter().map(|c| c.rocket_cycles).sum();
    assert!(
        attributed > 0 && attributed <= total,
        "attributed rocket cycles ({attributed}) bound the channel totals ({total})"
    );
    // Identical programs co-scheduled fairly see near-identical service.
    let (r0, r1) = (q[0].requests as f64, q[1].requests as f64);
    assert!(
        (r0 - r1).abs() / r0.max(r1) < 0.2,
        "identical workloads should split the tile roughly evenly: {r0} vs {r1}"
    );
    // The per-core summaries carry each core's own stall picture.
    for c in &r.cores {
        assert!(c.core.stall_cycles > 0);
        assert_eq!(
            c.core.stall_cycles, q[c.requestor as usize].stall_cycles,
            "requestor stalls mirror the core's counters"
        );
    }
}

/// The report's requestor lines appear only for multi-core runs, and the
/// Display format carries the per-requestor breakdown.
#[test]
fn corun_report_displays_per_requestor_lines() {
    let mut sys = MultiCoreSystem::new(cfg(1), 2);
    let mut a = LatMemRd::with_loads(32 * 1024, 64, 128);
    let mut b = LatMemRd::with_loads(32 * 1024, 64, 128);
    let r = sys.co_run(&mut [&mut a, &mut b]);
    let text = r.to_string();
    assert!(text.contains("req0:"), "report lists requestor 0:\n{text}");
    assert!(text.contains("req1:"), "report lists requestor 1:\n{text}");
    assert!(
        text.contains("core0 [lat_mem_rd]"),
        "per-core summaries:\n{text}"
    );
}

/// A quad co-run (any 4 workloads by name) works end to end on a 2-channel
/// tile and every requestor is served.
#[test]
fn quad_corun_over_two_channels() {
    use easydram_workloads::{multiprog, PolySize};
    let mut set = multiprog::co_run_set(&["gemm", "mvt", "lat_mem_rd", "cpu-init"], PolySize::Mini)
        .expect("known names");
    // Shrink the chase for test speed: replace it with a bounded one.
    set[2] = Box::new(LatMemRd::with_loads(64 * 1024, 64, 256));
    let mut sys = MultiCoreSystem::new(cfg(2), 4);
    let mut refs: Vec<&mut dyn Workload> = set.iter_mut().map(|w| w.as_mut() as _).collect();
    let r = sys.co_run(&mut refs);
    assert_eq!(r.cores.len(), 4);
    assert_eq!(r.aggregate.requestors.len(), 4);
    for q in &r.aggregate.requestors {
        assert!(q.requests > 0, "requestor {} starved", q.requestor);
    }
    assert_eq!(r.aggregate.channels.len(), 2);
    assert!(r.aggregate.channels.iter().all(|c| c.requests > 0));
}

/// Re-running on the same system opens a fresh window (mirrors
/// `System::run` semantics).
#[test]
fn successive_coruns_report_windows_not_lifetimes() {
    struct Tiny;
    impl Workload for Tiny {
        fn name(&self) -> &str {
            "tiny"
        }
        fn run(&mut self, cpu: &mut dyn CpuApi) {
            let a = cpu.alloc(4096, 64);
            for i in 0..64u64 {
                cpu.store_u64(a + i * 64, i);
            }
            cpu.fence();
        }
    }
    let mut sys = MultiCoreSystem::new(cfg(1), 2);
    let r1 = sys.co_run(&mut [&mut Tiny, &mut Tiny]);
    let r2 = sys.co_run(&mut [&mut Tiny, &mut Tiny]);
    assert!(r1.aggregate.smc.requests > 0);
    assert!(
        r2.aggregate.smc.requests <= r1.aggregate.smc.requests,
        "second window must not accumulate the first"
    );
    assert!(
        r2.aggregate
            .requestors
            .iter()
            .map(|q| q.requests)
            .sum::<u64>()
            == r2.aggregate.smc.requests,
        "windowed requestor stats partition the windowed total"
    );
}

/// A workload that panics mid co-run must not strand the other cores: its
/// thread still hands the baton on, the parked core is woken and runs to
/// completion, and the panic comes back out of `co_run`.
#[test]
fn workload_panic_wakes_the_parked_core_and_propagates() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Dependent-free loads over fresh lines, counting progress.
    struct Loader {
        loads: u64,
        progress: Arc<AtomicU64>,
    }
    impl Workload for Loader {
        fn name(&self) -> &str {
            "loader"
        }
        fn run(&mut self, cpu: &mut dyn CpuApi) {
            let a = cpu.alloc(self.loads * 64, 64);
            for i in 0..self.loads {
                cpu.load_u64(a + i * 64);
                self.progress.store(i + 1, Ordering::SeqCst);
            }
        }
    }
    /// Panics after a few memory operations, noting how far core 0 got.
    struct Crasher {
        seen: Arc<AtomicU64>,
        victim: Arc<AtomicU64>,
    }
    impl Workload for Crasher {
        fn name(&self) -> &str {
            "crasher"
        }
        fn run(&mut self, cpu: &mut dyn CpuApi) {
            let a = cpu.alloc(4 * 64, 64);
            for i in 0..4 {
                cpu.load_u64(a + i * 64);
            }
            self.seen
                .store(self.victim.load(Ordering::SeqCst), Ordering::SeqCst);
            panic!("crasher workload failed on purpose");
        }
    }

    const LOADS: u64 = 512;
    let progress = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    let (p, s) = (Arc::clone(&progress), Arc::clone(&seen));
    // Run the co-run off the test thread, so a lost wake-up fails the test
    // at the timeout instead of hanging it.
    std::thread::spawn(move || {
        let mut sys = MultiCoreSystem::new(cfg(1), 2);
        let mut loader = Loader {
            loads: LOADS,
            progress: Arc::clone(&p),
        };
        let mut crasher = Crasher { seen: s, victim: p };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sys.co_run(&mut [&mut loader, &mut crasher]);
        }));
        tx.send(outcome.is_err()).unwrap();
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("co_run deadlocked after a workload panic");
    assert!(panicked, "the workload panic propagates out of co_run");
    let at_panic = seen.load(Ordering::SeqCst);
    assert!(
        (1..LOADS).contains(&at_panic),
        "core 0 was mid-run (parked) when core 1 panicked: {at_panic} of {LOADS} loads"
    );
    assert_eq!(
        progress.load(Ordering::SeqCst),
        LOADS,
        "core 0 resumed and ran to completion"
    );
}
