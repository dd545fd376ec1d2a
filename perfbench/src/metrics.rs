//! The metric registry, the result line, and order statistics.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), as `(name, unit)`. Every workload
/// reports every one of them; `README.md` says what a "query" is on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analysis_minstr_per_s", "Minstr/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), as `(name, unit)`. A layer the
/// workload bypasses reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.ns_per_instr", "ns"),
    ("vm.instrs", "count"),
    ("dbi.dispatch_ns_per_instr", "ns"),
    ("dbi.block_entries", "count"),
    ("dbi.new_blocks", "count"),
    ("dbi.wall_x", "x"),
    ("dbi.modeled_x", "x"),
    ("taint.tool_ns_per_instr", "ns"),
    ("taint.alerts", "count"),
    ("taint.peak_tainted_words", "count"),
    ("taint.serial_ns_per_instr", "ns"),
    ("taint.wall_x", "x"),
    ("taint.modeled_x", "x"),
    ("ddg.ontrac_ns_per_instr", "ns"),
    ("ddg.index_cold_ns_per_instr", "ns"),
    ("ddg.bytes_per_instr", "B"),
    ("ddg.evicted", "count"),
    ("ddg.index_bytes", "B"),
    ("ddg.cold_bytes_per_record", "B"),
    ("ddg.disk_bytes", "B"),
    ("ddg.wall_x", "x"),
    ("ddg.modeled_x", "x"),
    ("slicing.backward_p50_us", "us"),
    ("slicing.forward_p50_us", "us"),
    ("slicing.from_addr_p50_us", "us"),
    ("slicing.nodes_per_query", "count"),
    ("slicing.cold_query_frac", "frac"),
    ("slicing.cold_memo_hit_ratio", "frac"),
    ("slicing.cold_memo_hits", "count"),
    ("slicing.cold_memo_misses", "count"),
    ("lineage.tool_ns_per_instr", "ns"),
    ("lineage.unions", "count"),
    ("robdd.nodes", "count"),
    ("lineage.peak_shadow_bytes", "B"),
    ("lineage.wall_x", "x"),
    ("lineage.modeled_x", "x"),
    ("multicore.epoch_ns_per_instr", "ns"),
    ("multicore.summarize_ns_per_instr", "ns"),
    ("multicore.compose_ns_per_instr", "ns"),
    ("multicore.speedup_vs_serial", "x"),
    ("multicore.host_cores", "count"),
    ("multicore.workers", "count"),
    ("multicore.lineage_shard_speedup_vs_serial", "x"),
    ("multicore.lineage_shard_compose_ns", "ns"),
    ("query.samples", "count"),
    ("trace.overhead_pct", "%"),
];

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: analysed runs plus queries.
    pub attempted: u64,
    /// Wrong answers, errors and degraded stitched outcomes.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// `key=value` stamps printed ahead of the result line.
    pub stamps: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.check_times(ok, 1);
    }

    /// Record `n` checked operations with the same outcome.
    pub fn check_times(&mut self, ok: bool, n: u64) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric list this run reports.
    pub fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, with every registered metric by name and unit.
    /// Panics if a workload forgot one (a bug in the benchmark).
    pub fn json_line(&self, trace: bool) -> String {
        let mut fields = Vec::new();
        for (name, unit) in Outcome::registry(trace) {
            let v = *self.metrics.get(name).unwrap_or_else(|| panic!("metric {name} not set"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// High-water resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status for VmHWM");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_lists_every_metric_once() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.check(true);
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            let needle = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert_eq!(line.matches(&needle).count(), 1, "{needle}");
        }
    }
}
