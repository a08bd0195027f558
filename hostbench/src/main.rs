//! Host-speed benchmark of the EasyDRAM emulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <polybench|chase|corun> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload end to end for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` makes one traced run per pass and reports
//! per-layer host time (see `layers`) and the simulator's own counters. Both
//! check every output; the last line of standard output is the JSON result
//! record, and the exit code is non-zero when any check failed.

mod affinity;
mod catalog;
mod inputs;
mod json;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use easydram::{EventKind, LogHistogram, TimingMode, TraceConfig};
use easydram_workloads::PolySize;

use crate::affinity::CpuSet;
use crate::catalog::{Spec, END_TO_END, PER_LAYER};
use crate::json::{Metric, ResultRecord};
use crate::layers::{command_counts, forward, percentile, replay, CallTimes};
use crate::workloads::{Case, Checks, Expected, Kind, Outcome, Pass};

/// Timed iterations every untraced run makes, however long they take.
const MIN_ITERATIONS: usize = 3;
/// Set-ups every untraced run times; `setup_s` is their median.
const MIN_SETUPS: usize = 11;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let name = get("--workload")?;
    Ok(Args {
        kind: Kind::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <polybench|chase|corun> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Engine width and tracing come from each pass's configuration, never
    // from the environment.
    std::env::remove_var("EASYDRAM_THREADS");
    std::env::remove_var("EASYDRAM_TRACE");

    // A co-run pins itself to one CPU (see `affinity`); the traced run's
    // engine speed-up passes restore every CPU. A single core runs one
    // thread, which is left free to move off a busy CPU.
    let all_cpus = CpuSet::current();
    let pinned = all_cpus
        .and_then(|s| s.first())
        .filter(|&cpu| args.kind == Kind::Corun && CpuSet::only(cpu).apply());
    let (values, checks) = if args.trace {
        traced(&args, all_cpus)
    } else {
        untraced(&args)
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let record = ResultRecord {
        correct: checks.failed == 0,
        attempted: checks.total,
        failed: checks.failed,
        metrics: catalogue.iter().map(|s| metric(s, &values)).collect(),
    };
    let name = Kind::NAMES[args.kind as usize];
    let cpu = pinned.map_or("unpinned".into(), |c| format!("pinned to CPU {c}"));
    println!(
        "# {name}, seed {}, trace {}, {cpu}",
        args.seed,
        u8::from(args.trace)
    );
    for m in &record.metrics {
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    let ungated = values
        .iter()
        .filter(|(n, _)| !catalogue.iter().any(|s| s.name == **n));
    for (name, value) in ungated {
        println!("{name:<28} {value:>18} (not gated)");
    }
    println!(
        "{:<28} {:>18} (of ops_total {})",
        "ops_failed", checks.failed, checks.total
    );
    let line = record.to_json();
    assert_eq!(
        ResultRecord::from_json(&line).as_ref(),
        Ok(&record),
        "the result line parses back to the record"
    );
    println!("{line}");
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric(spec: &Spec, values: &BTreeMap<&str, f64>) -> Metric {
    Metric {
        name: spec.name.to_string(),
        value: *values
            .get(spec.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", spec.name)),
        unit: spec.unit.to_string(),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Host seconds of each stretch of a run that started at `start`, laps at
/// `laps` and ended at `end`: start to first lap, lap to lap, last lap to
/// end.
fn stretches(start: Instant, laps: &[Instant], end: Instant) -> Vec<f64> {
    let marks: Vec<Instant> = std::iter::once(start)
        .chain(laps.iter().copied())
        .chain(std::iter::once(end))
        .collect();
    marks
        .windows(2)
        .map(|w| w[1].saturating_duration_since(w[0]).as_secs_f64())
        .collect()
}

/// One timed pass over every case of the workload.
#[derive(Default)]
struct Iteration {
    setup_s: f64,
    host_s: f64,
    cycles: u64,
    requests: u64,
}

/// Emulated cycles of every core of every case in reference mode: the
/// baseline time scaling is measured against.
fn reference_cycles(
    kind: Kind,
    seed: u64,
    expected: &Expected,
    checks: &mut Checks,
) -> Vec<Vec<u64>> {
    let pass = Pass {
        mode: TimingMode::Reference,
        ..Pass::TIMED
    };
    (0..kind.cases())
        .map(|i| {
            let mut case = Case::build(kind, i, seed, pass, PolySize::Small);
            let cycles = case.run().fp.cycles;
            checks.add(case.check(expected));
            cycles
        })
        .collect()
}

/// Time-scaling error, the paper's §6 accuracy metric: |TS - Reference|
/// emulated cycles summed over every core of every case, over the summed
/// reference cycles, in percent.
fn ts_err_pct(ts: &[Outcome], reference: &[Vec<u64>]) -> f64 {
    let pairs = ts
        .iter()
        .zip(reference)
        .flat_map(|(o, r)| o.fp.cycles.iter().zip(r));
    let (err, total) = pairs.fold((0u64, 0u64), |(e, t), (&ts, &r)| {
        (e + ts.abs_diff(r), t + r)
    });
    err as f64 / total as f64 * 100.0
}

/// End-to-end run: a reference-mode pass for the accuracy baseline (which
/// also warms the allocator before timing), then timed time-scaling passes
/// for `--seconds`, each case built (set-up, timed apart) and run afresh.
/// The simulator is deterministic (every pass is checked to reproduce the
/// first), so repetitions of a case differ only by host interference, which
/// only ever adds time. Each run is split into stretches at its laps (see
/// `stretches`); `sim_mhz` and `host_ns_per_req` take every stretch of
/// every case at its fastest repetition and sum those.
/// It also prints `ts_err_pct`, ungated: on `corun` that error's spread
/// across seeds exceeds any admissible bound, so only the traced run
/// reports it, as the per-layer `timeline.ts_err_pct`.
fn untraced(args: &Args) -> (BTreeMap<&'static str, f64>, Checks) {
    let (kind, seed, size) = (args.kind, args.seed, PolySize::Small);
    let expected = Expected::compute(kind, size);
    let mut checks = Checks::default();
    let reference = reference_cycles(kind, seed, &expected, &mut checks);

    let mut first: Vec<Outcome> = Vec::new();
    let mut fastest_s: Vec<Vec<f64>> = vec![Vec::new(); kind.cases()];
    let mut iterations: Vec<Iteration> = Vec::new();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while iterations.len() < MIN_ITERATIONS || start.elapsed() < deadline {
        let mut it = Iteration::default();
        for (i, fastest) in fastest_s.iter_mut().enumerate() {
            let t = Instant::now();
            let mut case = Case::build(kind, i, seed, Pass::TIMED, size);
            it.setup_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let out = case.run();
            let split = stretches(t, case.laps(), Instant::now());
            it.host_s += split.iter().sum::<f64>();
            if fastest.is_empty() {
                *fastest = split;
            } else {
                checks.check(
                    fastest.len() == split.len(),
                    "timed passes lap the same number of times",
                );
                for (f, s) in fastest.iter_mut().zip(split) {
                    *f = f.min(s);
                }
            }
            checks.add(case.check(&expected));
            it.cycles += out.fp.makespan();
            it.requests += out.fp.smc.requests;
            match first.get(i) {
                None => first.push(out),
                Some(f) => checks.check(f.fp == out.fp, "timed passes reproduce each other"),
            }
        }
        iterations.push(it);
    }
    let mut setups: Vec<f64> = iterations.iter().map(|it| it.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        for i in 0..kind.cases() {
            drop(std::hint::black_box(Case::build(
                kind,
                i,
                seed,
                Pass::TIMED,
                size,
            )));
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut v = BTreeMap::new();
    v.insert("setup_s", median(setups));
    let host_s: f64 = fastest_s.iter().flatten().sum();
    let cycles: u64 = first.iter().map(|o| o.fp.makespan()).sum();
    let requests: u64 = first.iter().map(|o| o.fp.smc.requests).sum();
    v.insert("sim_mhz", cycles as f64 / host_s / 1e6);
    v.insert("host_ns_per_req", host_s * 1e9 / requests as f64);
    v.insert("peak_rss_mib", peak_rss_mib());
    v.insert("ts_err_pct", ts_err_pct(&first, &reference));
    eprintln!(
        "fastest repetitions: {host_s:.3} s over {} stretches of {} cases",
        fastest_s.iter().map(Vec::len).sum::<usize>(),
        fastest_s.len()
    );
    for it in &iterations {
        eprintln!(
            "iteration: setup {:.6} s, run {:.3} s, {} Mcycles, {} requests",
            it.setup_s,
            it.host_s,
            it.cycles / 1_000_000,
            it.requests
        );
    }
    (v, checks)
}

/// Traced run: per case, an untraced baseline pass, a pass through the
/// timed forwarding backend, and a lossless traced pass whose command stream
/// is then replayed through a fresh device; then, on every CPU, a pass at
/// engine width 1 and one at width 2. The forwarded pass must reproduce the
/// baseline's statistics exactly, and every other pass its whole report,
/// byte for byte.
fn traced(args: &Args, all_cpus: Option<CpuSet>) -> (BTreeMap<&'static str, f64>, Checks) {
    let (kind, seed, size) = (args.kind, args.seed, PolySize::Small);
    let expected = Expected::compute(kind, size);
    let mut checks = Checks::default();
    let mut base: Vec<Outcome> = Vec::new();
    let (mut base_s, mut fwd_s, mut obs_s) = (0.0, 0.0, 0.0);
    let (mut cpu_s, mut shared_s) = (0.0, 0.0);
    let mut times = CallTimes::default();
    let (mut replay_cmds, mut replay_ns) = (0u64, 0u64);
    let (mut events, mut dropped, mut switches) = (0u64, 0u64, 0u64);
    let reference = reference_cycles(kind, seed, &expected, &mut checks);

    for i in 0..kind.cases() {
        // Baseline, keeping fresh copies of the devices for the replay.
        let mut case = Case::build(kind, i, seed, Pass::TIMED, size);
        let mut devices = case.with_tile(|t| {
            (0..t.channels())
                .map(|ch| t.channel_device(ch).clone())
                .collect::<Vec<_>>()
        });
        let t = Instant::now();
        let out = case.run();
        base_s += t.elapsed().as_secs_f64();
        checks.add(case.check(&expected));
        let max_channel_cmds = case.with_tile(|t| {
            (0..t.channels())
                .map(|ch| t.channel_device(ch).stats().commands())
                .max()
                .unwrap_or(0)
        });
        drop(case);

        let mut case = Case::build(kind, i, seed, Pass::TIMED, size);
        let fwd = forward(&mut case);
        checks.add(case.check(&expected));
        checks.check(fwd.fp == out.fp, "forwarded run reproduces the baseline");
        fwd_s += fwd.region_s;
        cpu_s += fwd.cpu_s;
        shared_s += fwd.shared_s;
        let calls = fwd.times.calls();
        times.extend(fwd.times);
        drop(case);

        // Every ring holds the whole run, so the capture is lossless: a
        // lane ring records four lifecycle events per request, a device
        // ring one record per command, and the baton log at most one switch
        // per tile call.
        let max_lane_requests = out
            .fp
            .channels
            .iter()
            .map(|c| c.requests)
            .max()
            .unwrap_or(0);
        let capacity = (4 * max_lane_requests).max(max_channel_cmds).max(calls) + 4096;
        let pass = Pass {
            trace: Some(TraceConfig {
                ring_capacity: usize::try_from(capacity).expect("ring fits memory"),
            }),
            ..Pass::TIMED
        };
        let mut case = Case::build(kind, i, seed, pass, size);
        let t = Instant::now();
        let obs = case.run();
        obs_s += t.elapsed().as_secs_f64();
        checks.add(case.check(&expected));
        checks.check(
            obs.report.text() == out.report.text(),
            "traced run's report is byte-identical to the baseline's",
        );
        for (ch, device) in devices.iter_mut().enumerate() {
            let ch = ch as u32;
            let (records, lost) = case.with_tile(|t| t.channel_device_mut(ch).take_cmd_trace());
            checks.check(lost == 0, "command capture is lossless");
            events += records.len() as u64;
            dropped += lost;
            let ns = replay(device, &records);
            let live = case.with_tile(|t| command_counts(t.channel_device(ch).stats()));
            checks.check(
                ns.is_some() && command_counts(device.stats()) == live,
                "replay reproduces the command counts",
            );
            replay_cmds += records.len() as u64;
            replay_ns += ns.unwrap_or(0);
        }
        let log = case.take_trace();
        events += log.events.len() as u64;
        dropped += log.dropped;
        switches += log
            .events
            .iter()
            .filter(|e| e.kind == EventKind::QuantumSwitch)
            .count() as u64;
        drop((log, case));

        base.push(out);
    }

    // The engine's speed-up needs both CPUs: unpinned, time width 1 against
    // width 2, and require byte-identical reports.
    if let Some(all) = all_cpus {
        all.apply();
    }
    let (mut narrow_s, mut wide_s) = (0.0, 0.0);
    for (i, out) in base.iter().enumerate() {
        for (threads, total) in [(1, &mut narrow_s), (2, &mut wide_s)] {
            let pass = Pass {
                threads,
                ..Pass::TIMED
            };
            let mut case = Case::build(kind, i, seed, pass, size);
            let t = Instant::now();
            let run = case.run();
            *total += t.elapsed().as_secs_f64();
            checks.add(case.check(&expected));
            checks.check(
                run.report.text() == out.report.text(),
                "unpinned report is byte-identical to the baseline's",
            );
        }
    }

    let sum = |f: &dyn Fn(&Outcome) -> u64| base.iter().map(f).sum::<u64>();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let requests = sum(&|o| o.fp.smc.requests);
    let busy_ns = times.busy_ns();
    let mut latency = LogHistogram::default();
    for o in &base {
        latency.merge(&o.fp.metrics.request_latency);
    }
    let freq = workloads::config(kind, seed, Pass::TIMED).core.freq_hz as f64;
    let cycles_ns = |c: u64| c as f64 * 1e9 / freq;
    let CallTimes {
        mut read_ns,
        mut write_ns,
        drain_calls,
        drain_ns,
    } = times;

    let mut v = BTreeMap::new();
    v.insert("tile.read_line.calls", read_ns.len() as f64);
    v.insert("tile.read_line.p50_ns", percentile(&mut read_ns, 50) as f64);
    v.insert("tile.read_line.p99_ns", percentile(&mut read_ns, 99) as f64);
    v.insert("tile.post_write.calls", write_ns.len() as f64);
    v.insert(
        "tile.post_write.p50_ns",
        percentile(&mut write_ns, 50) as f64,
    );
    v.insert(
        "tile.post_write.p99_ns",
        percentile(&mut write_ns, 99) as f64,
    );
    v.insert("tile.drain_writes.calls", drain_calls as f64);
    v.insert("tile.drain_writes.total_s", drain_ns as f64 / 1e9);
    v.insert("tile.busy_s", busy_ns as f64 / 1e9);
    v.insert("tile.ns_per_req", ratio(busy_ns, requests));
    v.insert("tile.share", busy_ns as f64 / 1e9 / fwd_s);
    v.insert("cpu.self_s", cpu_s);
    v.insert("cpu.share", cpu_s / fwd_s);
    v.insert(
        "cpu.instructions",
        sum(&|o| o.fp.cores.iter().map(|c| c.instructions).sum()) as f64,
    );
    v.insert(
        "cpu.l1_miss_ratio",
        ratio(sum(&|o| o.l1.1), sum(&|o| o.l1.0 + o.l1.1)),
    );
    v.insert(
        "cpu.l2_miss_ratio",
        ratio(sum(&|o| o.l2.1), sum(&|o| o.l2.0 + o.l2.1)),
    );
    v.insert(
        "cpu.stall_cycles",
        sum(&|o| o.fp.cores.iter().map(|c| c.stall_cycles).sum()) as f64,
    );
    v.insert("smc.requests", requests as f64);
    v.insert("smc.batches", sum(&|o| o.fp.smc.batches) as f64);
    v.insert(
        "smc.peak_batch",
        base.iter().map(|o| o.fp.smc.peak_batch).max().unwrap_or(0) as f64,
    );
    v.insert("smc.forced_drains", sum(&|o| o.fp.smc.forced_drains) as f64);
    v.insert(
        "smc.rocket_cycles_per_req",
        ratio(sum(&|o| o.fp.smc.rocket_cycles), requests),
    );
    v.insert(
        "smc.row_hit_ratio",
        ratio(
            sum(&|o| o.fp.smc.serve.row_hits),
            sum(&|o| o.fp.smc.serve.served),
        ),
    );
    v.insert("dram.activates", sum(&|o| o.fp.dram.activates) as f64);
    v.insert("dram.reads", sum(&|o| o.fp.dram.reads) as f64);
    v.insert("dram.writes", sum(&|o| o.fp.dram.writes) as f64);
    v.insert("dram.refreshes", sum(&|o| o.fp.dram.refreshes) as f64);
    v.insert("dram.replay_cmds", replay_cmds as f64);
    v.insert("dram.replay_ns_per_cmd", ratio(replay_ns, replay_cmds));
    v.insert("timeline.req_p50_ns", cycles_ns(latency.percentile(50)));
    v.insert("timeline.req_p99_ns", cycles_ns(latency.percentile(99)));
    v.insert(
        "timeline.refreshes",
        sum(&|o| {
            o.fp.channels
                .iter()
                .flat_map(|c| &c.refreshes_per_rank)
                .sum()
        }) as f64,
    );
    v.insert("timeline.ts_err_pct", ts_err_pct(&base, &reference));
    v.insert("shared.busy_s", shared_s);
    v.insert("shared.share", shared_s / fwd_s);
    v.insert("shared.quantum_switches", switches as f64);
    v.insert("par.speedup_2t", narrow_s / wide_s);
    v.insert("obs.overhead_pct", (obs_s / base_s - 1.0) * 100.0);
    v.insert("obs.events", events as f64);
    v.insert("obs.dropped", dropped as f64);
    eprintln!(
        "passes: baseline {base_s:.3} s, forwarded {fwd_s:.3} s, traced {obs_s:.3} s, unpinned width-1 {narrow_s:.3} s, width-2 {wide_s:.3} s"
    );
    (v, checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload corun --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Corun, 7, 10, true)
        );
        assert!(args("--workload corun --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload chase --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload chase --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload chase --seed 1 --seconds 10 --trace").is_err());
    }

    #[test]
    fn stretches_cover_the_run() {
        let start = Instant::now();
        let laps = [
            start + Duration::from_millis(2),
            start + Duration::from_millis(5),
        ];
        let end = start + Duration::from_millis(9);
        assert_eq!(stretches(start, &laps, end), vec![0.002, 0.003, 0.004]);
        assert_eq!(stretches(start, &[], end), vec![0.009]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
