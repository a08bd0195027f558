//! Benchmark-owned workloads and their seeded inputs: a single-cycle
//! pointer chase and a stream writer whose output is read back.

use std::time::Instant;

use easydram_cpu::{CpuApi, RowCloneStatus, Workload};
use easydram_dram::det::{splitmix64, DetRng};
use easydram_workloads::StreamWriter;

/// Bytes per chased element: one cache line, so every load is its own line.
const LINE: u64 = 64;
/// Stores or loads of the chase between two of its laps.
const LAP_LINES: usize = 8192;

/// A seeded cyclic permutation of `0..n` (Sattolo's algorithm): following
/// `next` from any element visits all `n` elements before returning.
#[must_use]
pub fn single_cycle(n: u32, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = DetRng::new(splitmix64(seed ^ 0xC4A5_E000));
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        order.swap(i, j);
    }
    // Sattolo's shuffle leaves `order` a single cycle as a successor map.
    order
}

/// The running digest of a walk: every visited element index, in order.
fn mix(h: u64, idx: u64) -> u64 {
    (h ^ idx).wrapping_mul(0x0100_0000_01B3)
}

/// A dependent-load pointer chase over a seeded single-cycle permutation of
/// cache lines. The chain is written by the emulated core, then walked for
/// `n - 1` loads, so every line but the last is loaded exactly once and no
/// load can start before the previous one returns.
///
/// The run also records host time every [`LAP_LINES`] stores and loads, so
/// the benchmark can time a long run in stretches (see [`Chase::laps`]).
#[derive(Debug, Clone)]
pub struct Chase {
    next: Vec<u32>,
    start: u32,
    /// `(final element, digest of the walk)` once run.
    result: Option<(u64, u64)>,
    /// Host time at each lap of the last run.
    laps: Vec<Instant>,
}

impl Chase {
    /// A chase over `bytes` of lines, its permutation drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than two lines or more than `u32::MAX`.
    #[must_use]
    pub fn new(bytes: u64, seed: u64) -> Self {
        let n = u32::try_from(bytes / LINE).expect("chase length fits u32");
        assert!(n >= 2, "a chase needs at least two lines");
        let next = single_cycle(n, seed);
        let start = (splitmix64(seed) % u64::from(n)) as u32;
        Self {
            next,
            start,
            result: None,
            laps: Vec::new(),
        }
    }

    /// Host time at the start of the last run's writing and at every
    /// [`LAP_LINES`]-th store and load after it. The simulation is
    /// deterministic, so every run of the same chase on the same system
    /// does the same work between the same two laps.
    #[must_use]
    pub fn laps(&self) -> &[Instant] {
        &self.laps
    }

    /// The `(final element, digest)` a correct memory system yields, from a
    /// host-side walk of the permutation.
    #[must_use]
    pub fn expected(&self) -> (u64, u64) {
        let mut p = self.start;
        let mut h = 0;
        for _ in 1..self.next.len() {
            p = self.next[p as usize];
            h = mix(h, u64::from(p));
        }
        (u64::from(p), h)
    }

    /// Whether the emulated walk matched the host-side walk.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.result == Some(self.expected())
    }
}

impl Workload for Chase {
    fn name(&self) -> &str {
        "chase"
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        let n = self.next.len() as u64;
        self.laps.clear();
        let base = cpu.alloc(n * LINE, LINE);
        cpu.stream_begin();
        for (i, &to) in self.next.iter().enumerate() {
            if i.is_multiple_of(LAP_LINES) {
                self.laps.push(Instant::now());
            }
            cpu.store_u64(base + i as u64 * LINE, base + u64::from(to) * LINE);
        }
        cpu.stream_end();
        cpu.fence();
        let mut p = base + u64::from(self.start) * LINE;
        let mut h = 0;
        for i in 1..n {
            if (i as usize).is_multiple_of(LAP_LINES) {
                self.laps.push(Instant::now());
            }
            p = cpu.load_u64(p);
            h = mix(h, p.wrapping_sub(base) / LINE);
        }
        self.result = Some((p.wrapping_sub(base) / LINE, h));
    }
}

/// [`StreamWriter`] plus a read-back: after the writer's last sweep, the
/// same core loads `samples` lines spread over the buffer and compares them
/// with the last sweep's pattern (line `i` holds `i ^ (passes - 1)`).
#[derive(Debug, Clone)]
pub struct CheckedWriter {
    inner: StreamWriter,
    bytes: u64,
    samples: u64,
    /// `(passes, mismatched samples)` once run.
    result: Option<(u64, u64)>,
}

impl CheckedWriter {
    /// A writer sweeping `bytes` until `target_cycles`, `pace_ops` ALU
    /// operations between stores, read back at `samples` lines.
    #[must_use]
    pub fn new(bytes: u64, target_cycles: u64, pace_ops: u64, samples: u64) -> Self {
        Self {
            inner: StreamWriter::paced(bytes, target_cycles, pace_ops),
            bytes,
            samples,
            result: None,
        }
    }

    /// Whether the writer finished at least one sweep and every sample read
    /// back its pattern.
    #[must_use]
    pub fn correct(&self) -> bool {
        matches!(self.result, Some((passes, 0)) if passes >= 1)
    }
}

impl Workload for CheckedWriter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&mut self, cpu: &mut dyn CpuApi) {
        let mut spy = AllocSpy {
            cpu: &mut *cpu,
            first: None,
        };
        self.inner.run(&mut spy);
        let base = spy.first.expect("the stream writer allocates its buffer");
        let passes = self.inner.passes();
        let lines = self.bytes / LINE;
        let mut bad = 0;
        for k in 0..self.samples {
            let i = k * lines / self.samples;
            if cpu.load_u64(base + i * LINE) != i ^ passes.wrapping_sub(1) {
                bad += 1;
            }
        }
        self.result = Some((passes, bad));
    }
}

/// Forwards every [`CpuApi`] call and remembers the first allocation.
struct AllocSpy<'a> {
    cpu: &'a mut dyn CpuApi,
    first: Option<u64>,
}

impl CpuApi for AllocSpy<'_> {
    fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        let a = self.cpu.alloc(bytes, align);
        self.first.get_or_insert(a);
        a
    }
    fn load(&mut self, addr: u64, size: u8) -> u64 {
        self.cpu.load(addr, size)
    }
    fn store(&mut self, addr: u64, size: u8, value: u64) {
        self.cpu.store(addr, size, value);
    }
    fn compute(&mut self, ops: u64) {
        self.cpu.compute(ops);
    }
    fn clflush(&mut self, addr: u64) {
        self.cpu.clflush(addr);
    }
    fn fence(&mut self) {
        self.cpu.fence();
    }
    fn stream_begin(&mut self) {
        self.cpu.stream_begin();
    }
    fn stream_end(&mut self) {
        self.cpu.stream_end();
    }
    fn rowclone_row(&mut self, src_row_addr: u64, dst_row_addr: u64) -> RowCloneStatus {
        self.cpu.rowclone_row(src_row_addr, dst_row_addr)
    }
    fn rowclone_alloc_copy(&mut self, bytes: u64) -> Option<(u64, u64)> {
        self.cpu.rowclone_alloc_copy(bytes)
    }
    fn rowclone_alloc_init(&mut self, bytes: u64) -> Option<(u64, Vec<u64>)> {
        self.cpu.rowclone_alloc_init(bytes)
    }
    fn rowclone_init_source(&mut self, dst_row_addr: u64) -> Option<u64> {
        self.cpu.rowclone_init_source(dst_row_addr)
    }
    fn row_bytes(&self) -> u64 {
        self.cpu.row_bytes()
    }
    fn now_cycles(&self) -> u64 {
        self.cpu.now_cycles()
    }
    fn instructions_retired(&self) -> u64 {
        self.cpu.instructions_retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};

    #[test]
    fn permutation_is_one_cycle_over_every_line() {
        for (n, seed) in [(2, 0), (3, 1), (1000, 7), (4096, 42)] {
            let next = single_cycle(n, seed);
            let mut seen = vec![false; n as usize];
            let mut p = 0u32;
            for _ in 0..n {
                assert!(!seen[p as usize], "n={n} seed={seed}: revisited {p}");
                seen[p as usize] = true;
                p = next[p as usize];
            }
            assert_eq!(p, 0, "n={n} seed={seed}: walk did not close");
            assert!(seen.iter().all(|&s| s));
        }
        assert_eq!(single_cycle(4096, 3), single_cycle(4096, 3));
        assert_ne!(single_cycle(4096, 3), single_cycle(4096, 4));
    }

    #[test]
    fn chase_laps_every_lap_lines_stores_and_loads() {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
        let mut chase = Chase::new(2 * LAP_LINES as u64 * LINE, 3);
        chase.run(&mut cpu);
        assert!(chase.correct());
        // Stores 0 and LAP_LINES, then load LAP_LINES of loads 1..2*LAP_LINES.
        assert_eq!(chase.laps().len(), 3);
        assert!(chase.laps().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chase_and_writer_check_their_outputs() {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(100));
        let mut chase = Chase::new(64 * 1024, 9);
        assert!(!chase.correct(), "unrun chase has no result");
        chase.run(&mut cpu);
        assert!(chase.correct());
        chase.result = chase.result.map(|(p, h)| (p, h ^ 1));
        assert!(!chase.correct());

        let mut writer = CheckedWriter::new(32 * 1024, 200_000, 10, 16);
        writer.run(&mut cpu);
        assert!(writer.correct());
        assert!(writer.result.unwrap().0 >= 1);
    }
}
