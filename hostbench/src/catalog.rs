//! Every metric the benchmark reports: name, unit, direction and (for
//! end-to-end metrics) the regression bound. `BENCHMARK.json` lists the same
//! catalogue; a test keeps the two in step.

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Metric name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of the untraced runs (`--trace 0`). Failed checks are the
/// record's `failed` count next to `attempted`, not a metric: a metric must
/// never read 0.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_mhz", "MHz", "higher", 0.25),
    e2e("host_ns_per_req", "ns", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

/// Metrics of the traced run (`--trace 1`), one group per layer.
pub const PER_LAYER: &[Spec] = &[
    layer("tile.read_line.calls", "count", "lower"),
    layer("tile.read_line.p50_ns", "ns", "lower"),
    layer("tile.read_line.p99_ns", "ns", "lower"),
    layer("tile.post_write.calls", "count", "lower"),
    layer("tile.post_write.p50_ns", "ns", "lower"),
    layer("tile.post_write.p99_ns", "ns", "lower"),
    layer("tile.drain_writes.calls", "count", "lower"),
    layer("tile.drain_writes.total_s", "s", "lower"),
    layer("tile.busy_s", "s", "lower"),
    layer("tile.ns_per_req", "ns", "lower"),
    layer("tile.share", "ratio", "lower"),
    layer("cpu.self_s", "s", "lower"),
    layer("cpu.share", "ratio", "lower"),
    layer("cpu.instructions", "count", "lower"),
    layer("cpu.l1_miss_ratio", "ratio", "lower"),
    layer("cpu.l2_miss_ratio", "ratio", "lower"),
    layer("cpu.stall_cycles", "cycles", "lower"),
    layer("smc.requests", "count", "lower"),
    layer("smc.batches", "count", "lower"),
    layer("smc.peak_batch", "count", "lower"),
    layer("smc.forced_drains", "count", "lower"),
    layer("smc.rocket_cycles_per_req", "cycles", "lower"),
    layer("smc.row_hit_ratio", "ratio", "higher"),
    layer("dram.activates", "count", "lower"),
    layer("dram.reads", "count", "lower"),
    layer("dram.writes", "count", "lower"),
    layer("dram.refreshes", "count", "lower"),
    layer("dram.replay_cmds", "count", "lower"),
    layer("dram.replay_ns_per_cmd", "ns", "lower"),
    layer("timeline.req_p50_ns", "ns", "lower"),
    layer("timeline.req_p99_ns", "ns", "lower"),
    layer("timeline.refreshes", "count", "lower"),
    layer("timeline.ts_err_pct", "%", "lower"),
    layer("shared.busy_s", "s", "lower"),
    layer("shared.share", "ratio", "lower"),
    layer("shared.quantum_switches", "count", "lower"),
    layer("par.speedup_2t", "x", "higher"),
    layer("obs.overhead_pct", "%", "lower"),
    layer("obs.events", "count", "lower"),
    layer("obs.dropped", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// A name starts with a letter or digit and holds at most 64 letters,
    /// digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_valid_unique_and_carry_units() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(
                !s.unit.is_empty()
                    && s.unit.len() <= 16
                    && s.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?} on {}",
                s.unit,
                s.name
            );
            assert!(matches!(s.better, "lower" | "higher"), "{}", s.name);
            assert!(
                all[..i].iter().all(|o| o.name != s.name),
                "duplicate name {}",
                s.name
            );
        }
        for s in END_TO_END {
            let b = s.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", s.name);
        }
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
        assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
    }

    /// `BENCHMARK.json` at the repository root lists exactly this catalogue,
    /// and only workloads the benchmark runs.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).unwrap();
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().arr().unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (v, s) in listed.iter().zip(specs) {
                assert_eq!(v.get("name").unwrap().str().unwrap(), s.name);
                assert_eq!(v.get("unit").unwrap().str().unwrap(), s.unit);
                assert_eq!(v.get("better").unwrap().str().unwrap(), s.better);
                match s.bound {
                    Some(b) => assert_eq!(v.get("bound").unwrap().num().unwrap(), b),
                    None => assert!(v.get("bound").is_err(), "{}", s.name),
                }
            }
        }
        for w in doc.get("workloads").unwrap().arr().unwrap() {
            let name = w.get("name").unwrap().str().unwrap();
            assert!(crate::workloads::Kind::parse(name).is_some(), "{name}");
        }
    }
}
