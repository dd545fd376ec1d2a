//! The three workloads. Each `run` does set-up (timed as `setup_s`),
//! the measured closed loop, the per-layer probes when traced, and the
//! correctness checks against references built after the loop (outside
//! both the timed region and `setup_s`).

pub mod debug_slice;
pub mod lineage_science;
pub mod taint_server;

use crate::metrics::{peak_rss_mb, percentile, Outcome, PER_LAYER};
use crate::probe::DbiProbe;
use crate::spans::Spans;
use crate::{host_cores, Config, EPOCH_WORKERS};
use std::collections::HashMap;
use std::hash::Hash;

/// What the checks need from the loop: each distinct outcome with the
/// number of times it was seen. Every round repeats the same work, so
/// this stays the size of one round's outcomes, and `peak_rss_mb` does
/// not grow with the number of rounds the host let the loop run.
pub(crate) struct Tally<K>(HashMap<K, u64>);

impl<K> Default for Tally<K> {
    fn default() -> Self {
        Tally(HashMap::new())
    }
}

impl<K: Hash + Eq> Tally<K> {
    pub fn add(&mut self, outcome: K) {
        *self.0.entry(outcome).or_default() += 1;
    }

    /// Each distinct outcome with its count.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.0.iter().map(|(k, n)| (k, *n))
    }
}

/// Start an outcome: in a traced run every per-layer metric starts at
/// 0 (a layer the workload bypasses does no work), then the workload
/// fills in what it measured.
pub(crate) fn new_outcome(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    if cfg.trace {
        for (name, _) in PER_LAYER {
            o.set(name, 0.0);
        }
        o.set("multicore.host_cores", host_cores() as f64);
        o.set("multicore.workers", EPOCH_WORKERS as f64);
    }
    o
}

/// What every workload's closed loop accumulates for the end-to-end
/// metrics. Every round repeats the same analysed runs and the same
/// queries (a run is keyed by its program's index in the mix, a query
/// by that key and its position in the run), and each is the same work
/// every time. So each chunk of a run and each query keeps its *floor*,
/// its best time over the run's rounds: the shared host only ever adds
/// time to a measurement, by up to 2x and varying from second to
/// second, and the floor is what the program costs when it is not
/// contended. Kept per chunk and per query, the floors do not depend
/// on which rounds the host slowed down, nor on how many.
#[derive(Default)]
pub(crate) struct Totals {
    pub instrs: u64,
    pub queries: usize,
    /// Per run key: instructions, and the best seconds of each of its
    /// chunks (the run clock times every 1024 instructions, so the
    /// floor of each stretch of the run is found on its own).
    runs: Vec<(u64, Vec<f64>)>,
    /// Per run key: best latency of each query, in µs.
    lat: Vec<Vec<f64>>,
}

/// Lower `floor` element-wise to `xs`, growing it to `xs`'s length.
fn lower(floor: &mut Vec<f64>, xs: &[f64]) {
    for (f, x) in floor.iter_mut().zip(xs) {
        *f = f.min(*x);
    }
    if floor.len() < xs.len() {
        floor.extend_from_slice(&xs[floor.len()..]);
    }
}

impl Totals {
    /// One analysed run of the program with key `key`, with the
    /// seconds of each of its chunks.
    pub fn add_run(&mut self, key: usize, instrs: u64, chunk_secs: &[f64]) {
        self.instrs += instrs;
        if self.runs.len() <= key {
            self.runs.resize(key + 1, (0, Vec::new()));
        }
        self.runs[key].0 = instrs;
        lower(&mut self.runs[key].1, chunk_secs);
    }

    /// The latencies, in µs and in order, of the queries of one run of
    /// the program with key `key`.
    pub fn add_queries(&mut self, key: usize, us: &[f64]) {
        self.queries += us.len();
        if self.lat.len() <= key {
            self.lat.resize(key + 1, Vec::new());
        }
        lower(&mut self.lat[key], us);
    }

    /// Distinct queries: the population the percentiles are taken over.
    pub fn distinct_queries(&self) -> usize {
        self.lat.iter().map(Vec::len).sum()
    }
}

/// The end-to-end metrics every workload reports from its untraced
/// loop: the analysis rate of one round at every chunk's floor, the p50
/// and p99 over every query's floor, and peak RSS, read right after
/// the loop, before any reference is built.
pub(crate) fn end_to_end(o: &mut Outcome, setup_s: f64, t: &Totals) {
    let rss = peak_rss_mb();
    let instrs: u64 = t.runs.iter().map(|r| r.0).sum();
    let secs: f64 = t.runs.iter().flat_map(|r| &r.1).sum();
    let floors: Vec<f64> = t.lat.concat();
    o.set("setup_s", setup_s);
    o.set("analysis_minstr_per_s", instrs as f64 / f64::max(secs, 1e-9) / 1e6);
    o.set("query_p50_us", percentile(&floors, 0.5));
    o.set("query_p99_us", percentile(&floors, 0.99));
    o.set("peak_rss_mb", rss);
}

/// VM and DBI per-layer metrics from a probe over the workload's
/// programs.
pub(crate) fn dbi_layers(o: &mut Outcome, p: &DbiProbe) {
    o.set("vm.ns_per_instr", p.vm_ns_per_instr());
    o.set("vm.instrs", p.instrs as f64);
    o.set("dbi.dispatch_ns_per_instr", p.dispatch_ns_per_instr());
    o.set("dbi.block_entries", p.block_entries as f64);
    o.set("dbi.new_blocks", p.new_blocks as f64);
    o.set("dbi.wall_x", p.null_s / p.bare_s.max(1e-12));
    o.set("dbi.modeled_x", p.null_cycles as f64 / p.bare_cycles.max(1) as f64);
}

/// Measured vs modeled cost of an analysis tool over the bare VM:
/// `<layer>.wall_x` and `<layer>.modeled_x` (from `RunResult::cycles`).
pub(crate) fn tool_ratios(
    o: &mut Outcome,
    layer: &'static str,
    p: &DbiProbe,
    tool_s: f64,
    tool_cycles: u64,
) {
    let (wall, modeled) = match layer {
        "taint" => ("taint.wall_x", "taint.modeled_x"),
        "ddg" => ("ddg.wall_x", "ddg.modeled_x"),
        "lineage" => ("lineage.wall_x", "lineage.modeled_x"),
        _ => unreachable!("no ratio metrics for layer {layer}"),
    };
    o.set(wall, tool_s / p.bare_s.max(1e-12));
    o.set(modeled, tool_cycles as f64 / p.bare_cycles.max(1) as f64);
}

/// Traced analysis time over untraced, as a percentage overhead.
pub(crate) fn trace_overhead(o: &mut Outcome, traced_s: f64, plain_s: f64) {
    o.set("trace.overhead_pct", (traced_s / plain_s.max(1e-12) - 1.0) * 100.0);
}

/// Stamp the run and, when traced, write the span file.
pub(crate) fn finish(cfg: &Config, o: &mut Outcome, spans: &Spans, rounds: usize, t: &Totals) {
    o.stamps.extend([
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("host_cores", host_cores().to_string()),
        ("epoch_workers", EPOCH_WORKERS.to_string()),
        ("scale", format!("{:?}", cfg.scale).to_lowercase()),
        ("rounds", rounds.to_string()),
        ("query_samples", t.queries.to_string()),
        ("distinct_queries", t.distinct_queries().to_string()),
    ]);
    if spans.enabled() {
        let path = cfg.work_dir.join(format!("spans-{}.json", cfg.workload.name()));
        spans.write_json(&path, &o.stamps);
        o.stamps.push(("spans", path.display().to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_keep_each_run_and_query_at_its_best() {
        let mut t = Totals::default();
        t.add_run(0, 1_000_000, &[1.0, 1.0]);
        t.add_run(1, 3_000_000, &[0.5]);
        t.add_run(0, 1_000_000, &[0.5, 2.0]);
        t.add_queries(0, &[5.0, 9.0]);
        t.add_queries(0, &[7.0, 3.0]);
        t.add_queries(1, &[1.0]);
        assert_eq!((t.instrs, t.queries, t.distinct_queries()), (5_000_000, 5, 3));
        let mut o = Outcome::default();
        end_to_end(&mut o, 0.5, &t);
        // One round: 4M instructions over the chunk floors 0.5 + 1 + 0.5 s.
        assert_eq!(o.metrics["analysis_minstr_per_s"], 2.0);
        // Query floors: [5, 3] and [1].
        assert_eq!(o.metrics["query_p50_us"], 3.0);
        assert_eq!(o.metrics["query_p99_us"], 5.0);
        assert_eq!(o.metrics["setup_s"], 0.5);
    }
}
