//! Spans for the traced run.
//!
//! A span is recorded in the benchmark's own code around each call into
//! a layer: name, start, end, parent, and a request id for slice
//! queries. Per-instruction tool callbacks are never one span each: the
//! [`Timed`] wrapper sums them into one aggregate attached to the open
//! span. Spans stay in memory and are written out when the run ends.
//! Self time is a span's duration minus its child spans and aggregates.

use dift_dbi::Tool;
use dift_isa::Addr;
use dift_vm::{Machine, Pending, RunResult, StepEffects, ThreadId};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: Option<u64>,
}

/// Summed per-instruction callback time, attached to a parent span.
#[derive(Clone, Debug)]
struct Aggregate {
    name: &'static str,
    parent: Option<usize>,
    total_ns: u64,
    calls: u64,
}

/// The in-memory span log. Disabled logs record nothing, so the
/// untraced run pays one branch per span site.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: Option<u64>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attach summed callback time to the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64, calls: u64) {
        if !self.enabled {
            return;
        }
        self.aggregates.push(Aggregate {
            name,
            parent: self.open.last().copied(),
            total_ns,
            calls,
        });
    }

    /// Per span: the time covered by its child spans and aggregates.
    fn children_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        for a in &self.aggregates {
            if let Some(p) = a.parent {
                child[p] += a.total_ns;
            }
        }
        child
    }

    /// Summed duration of every span with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed time of every aggregate with this name.
    pub fn aggregate_ns(&self, name: &str) -> u64 {
        self.aggregates.iter().filter(|a| a.name == name).map(|a| a.total_ns).sum()
    }

    /// Write the log as one JSON document: stamps, spans (with self
    /// time) and aggregates.
    pub fn write_json(&self, path: &Path, stamps: &[(&'static str, String)]) {
        let mut out = String::from("{\n  \"stamps\": {");
        let st: Vec<String> = stamps.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
        out.push_str(&st.join(", "));
        out.push_str("},\n  \"spans\": [\n");
        let child = self.children_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {req}, \"self_ns\": {self_ns}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("  ],\n  \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            let parent = a.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.aggregates.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"parent\": {parent}, \"total_ns\": {}, \"calls\": {}}}{sep}",
                a.name, a.total_ns, a.calls
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).expect("write the span file");
    }
}

/// Mean duration [`Timed`] measures around an empty callback: the clock
/// bias subtracted from each timed call so it reports the tool's own
/// time.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        std::hint::black_box(());
        total += t0.elapsed().as_nanos();
    }
    total as f64 / f64::from(N)
}

/// Every this-many-th callback is timed (a prime, so the sample does
/// not lock onto the before/after/on_block rhythm).
const SAMPLE_EVERY: u64 = 13;

/// A timing wrapper around a tool: times a fixed sample of the
/// callbacks the engine makes into the inner tool, so the clock reads
/// stay a small share of the run.
pub struct Timed<T> {
    pub inner: T,
    /// Wall time of the sampled callbacks.
    sampled_ns: u64,
    sampled: u64,
    pub calls: u64,
}

impl<T> Timed<T> {
    pub fn new(inner: T) -> Timed<T> {
        Timed { inner, sampled_ns: 0, sampled: 0, calls: 0 }
    }

    /// Estimated callback self time over all calls, less the clock bias
    /// `timer_ns` per timed call.
    pub fn self_ns(&self, timer_ns: f64) -> u64 {
        let per_call = (self.sampled_ns as f64 / self.sampled.max(1) as f64 - timer_ns).max(0.0);
        (per_call * self.calls as f64) as u64
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.sampled_ns += t0.elapsed().as_nanos() as u64;
        self.sampled += 1;
        r
    }
}

impl<T: Tool> Tool for Timed<T> {
    fn on_start(&mut self, m: &mut Machine) {
        self.time(|t| t.on_start(m))
    }
    fn before(&mut self, m: &mut Machine, p: &Pending) {
        self.time(|t| t.before(m, p))
    }
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        self.time(|t| t.after(m, fx))
    }
    fn on_block(&mut self, m: &mut Machine, tid: ThreadId, entry: Addr, is_new: bool) {
        self.time(|t| t.on_block(m, tid, entry, is_new))
    }
    fn on_finish(&mut self, m: &mut Machine, r: &RunResult) {
        self.time(|t| t.on_finish(m, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_aggregates() {
        let mut s = Spans::new(true);
        s.enter("outer", None);
        s.enter("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.aggregate("cb", 1_000, 10);
        s.exit();
        let outer = s.total_ns("outer");
        let inner = s.total_ns("inner");
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(s.children_ns(), vec![inner + 1_000, 0]);
        assert_eq!(s.durations_us("inner").len(), 1);
        assert_eq!(s.aggregate_ns("cb"), 1_000);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("x", None);
        s.exit();
        assert_eq!(s.total_ns("x"), 0);
    }
}
