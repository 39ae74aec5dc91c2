//! The metrics the benchmark reports, with units and directions. The
//! same names, units and directions appear in the repository's
//! `BENCHMARK.json` (a test below keeps the two in step).

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("slot_ms_p99", "ms", "lower"),
    def("qoe", "qoe/slot", "higher"),
    def("viewed_quality", "level", "higher"),
];

/// Printed by a traced run (`--trace 1`), on every workload; a layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[Def] = &[
    def("slot_ms_p50", "ms", "lower"),
    def("user_slots_per_s", "1/s", "higher"),
    def("serve.slot_us", "us", "lower"),
    def("serve.ingest_us", "us", "lower"),
    def("serve.build_us", "us", "lower"),
    def("serve.density_us", "us", "lower"),
    def("serve.value_us", "us", "lower"),
    def("serve.transmit_us", "us", "lower"),
    def("serve.stage_sum_us", "us", "lower"),
    def("serve.unattributed_us", "us", "lower"),
    def("serve.build_us_per_user", "us", "lower"),
    def("serve.frames_dropped", "count", "lower"),
    def("serve.max_queue_depth", "frames", "lower"),
    def("serve.degraded_transitions", "count", "lower"),
    def("serve.allocs_per_user_slot", "count", "lower"),
    def("client.step_us", "us", "lower"),
    def("client.allocs_per_user_slot", "count", "lower"),
    def("sim.slot_us", "us", "lower"),
    def("sim.build_us", "us", "lower"),
    def("sim.density_us", "us", "lower"),
    def("sim.value_us", "us", "lower"),
    def("sim.accounting_us", "us", "lower"),
    def("sim.stage_sum_us", "us", "lower"),
    def("sim.unattributed_us", "us", "lower"),
    def("sim.build_us_per_user", "us", "lower"),
    def("sim.cache_hit_rate", "ratio", "higher"),
    def("failed_frac", "ratio", "lower"),
    def("trace.overhead_pct", "%", "lower"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"better\"").count(), all.len());
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\", \"why\"")), "{w}");
        }
        assert_eq!(text.matches("\"why\"").count(), crate::WORKLOADS.len());
    }

    #[test]
    fn names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} twice");
            assert!(find(a).is_some());
        }
    }
}
