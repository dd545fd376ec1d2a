//! Shared measurement pieces: the closed loop, set-up timing, effect
//! capture, latency clocks, answer fingerprints and the VM/DBI probe.

use crate::metrics::median;
use crate::spans::Timed;
use dift_dbi::{CountingTool, Engine, NullTool, Tool};
use dift_isa::{Addr, NUM_REGS};
use dift_slicing::Slice;
use dift_taint::{PcTaint, TaintEngine};
use dift_vm::{Machine, Pending, RunResult, StepEffects, ThreadId};
use dift_workloads::Workload as Program;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Set-up repeats before the closed loop.
const SETUP_REPS: usize = 5;

/// Set-up wall times, in seconds. The set-up runs [`SETUP_REPS`] times
/// before the closed loop and once more after every round of it, so
/// `setup_s`, the median, spans the whole run rather than its first
/// milliseconds, which the shared host may happen to slow.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time one more set-up and drop its result.
    pub fn again<T>(&mut self, f: impl FnOnce() -> T) {
        let (s, v) = timed(f);
        drop(v);
        self.0.push(s);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Run the set-up [`SETUP_REPS`] times (dropping each result before the
/// next starts, so set-up memory does not stack) and return the last
/// result with the times.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, SetupTimes) {
    let mut times = SetupTimes(Vec::new());
    for _ in 1..SETUP_REPS {
        times.again(&mut f);
    }
    let (s, v) = timed(f);
    times.0.push(s);
    (v, times)
}

/// The closed loop: run whole rounds until `seconds` have passed (at
/// least one round). Returns the number of rounds.
pub fn closed_loop(seconds: f64, mut round: impl FnMut()) -> usize {
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        round();
        rounds += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            return rounds;
        }
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let v = f();
    (t0.elapsed().as_secs_f64(), v)
}

/// Records every step's effects (stream capture for the offline
/// engines and the serial references).
#[derive(Default)]
pub struct Capture(pub Vec<StepEffects>);

impl Tool for Capture {
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.0.push(fx.clone());
    }
}

/// Capture the full effects stream of a program's run.
pub fn capture(p: &Program) -> (Vec<StepEffects>, RunResult) {
    let mut cap = Capture::default();
    let r = Engine::new(p.machine()).run_tool(&mut cap);
    (cap.0, r)
}

/// Which guest event ends one latency sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Marker {
    /// A kv-server worker reads the first word of its next request:
    /// the previous request on that channel is complete.
    RequestStart,
    /// The guest emits an output word (with its analysis result).
    Output,
}

/// Instructions per timed chunk of an analysed run.
const CHUNK: u64 = 1024;

/// Wraps an analysis tool and times it from the outside: every
/// [`CHUNK`] instructions, and, given a marker, at each guest event that
/// ends a query. One clock read per chunk or marked event, never per
/// instruction.
pub struct RunClock<T> {
    pub inner: T,
    marker: Option<Marker>,
    /// Per input channel: words read so far, and the last boundary.
    words: Vec<u64>,
    last: Vec<Option<Instant>>,
    pub samples_us: Vec<f64>,
    /// Instructions so far and the open chunk's start.
    instrs: u64,
    chunk_start: Option<Instant>,
    /// Seconds of each chunk, from `on_start` to `on_finish`; the last
    /// one is partial.
    pub chunk_secs: Vec<f64>,
}

impl<T> RunClock<T> {
    pub fn new(inner: T, marker: Option<Marker>) -> RunClock<T> {
        RunClock {
            inner,
            marker,
            words: Vec::new(),
            last: Vec::new(),
            samples_us: Vec::new(),
            instrs: 0,
            chunk_start: None,
            chunk_secs: Vec::new(),
        }
    }

    fn end_chunk(&mut self) {
        let now = Instant::now();
        if let Some(t0) = self.chunk_start {
            self.chunk_secs.push(now.duration_since(t0).as_secs_f64());
        }
        self.chunk_start = Some(now);
    }

    fn boundary(&mut self, key: usize) {
        if self.last.len() <= key {
            self.last.resize(key + 1, None);
        }
        let now = Instant::now();
        if let Some(prev) = self.last[key] {
            self.samples_us.push(now.duration_since(prev).as_nanos() as f64 / 1e3);
        }
        self.last[key] = Some(now);
    }
}

impl<T: Tool> Tool for RunClock<T> {
    fn on_start(&mut self, m: &mut Machine) {
        self.end_chunk();
        self.inner.on_start(m);
        if self.marker == Some(Marker::Output) {
            self.boundary(0);
        }
    }
    fn before(&mut self, m: &mut Machine, p: &Pending) {
        self.inner.before(m, p);
    }
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        self.inner.after(m, fx);
        match self.marker {
            None => {}
            Some(Marker::RequestStart) => {
                if let Some((ch, _)) = fx.input {
                    let ch = ch as usize;
                    if self.words.len() <= ch {
                        self.words.resize(ch + 1, 0);
                    }
                    // Requests are (op, key, value) triples.
                    if self.words[ch].is_multiple_of(3) {
                        self.boundary(ch);
                    }
                    self.words[ch] += 1;
                }
            }
            Some(Marker::Output) if fx.output.is_some() => self.boundary(0),
            Some(Marker::Output) => {}
        }
        self.instrs += 1;
        if self.instrs.is_multiple_of(CHUNK) {
            self.end_chunk();
        }
    }
    fn on_block(&mut self, m: &mut Machine, tid: ThreadId, entry: Addr, is_new: bool) {
        self.inner.on_block(m, tid, entry, is_new);
    }
    fn on_finish(&mut self, m: &mut Machine, r: &RunResult) {
        self.inner.on_finish(m, r);
        self.end_chunk();
    }
}

pub fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Fingerprint of a slice answer (steps, addresses, statements).
pub fn slice_fp(s: &Slice) -> u64 {
    hash_of(&(&s.steps, &s.addrs, &s.stmts))
}

/// Highest thread id any workload spawns (main + 4 kv workers).
const MAX_TID: u64 = 8;

/// Fingerprint of everything a taint engine exposes: memory and
/// register labels, alerts (with origins), output labels and stats.
pub fn taint_digest(e: &TaintEngine<PcTaint>) -> u64 {
    let mut h = DefaultHasher::new();
    for (addr, l) in e.shadow().iter_tainted() {
        (addr, l.0).hash(&mut h);
    }
    for tid in 0..MAX_TID {
        for r in 0..NUM_REGS {
            e.reg_label(tid, dift_isa::Reg(r as u8)).0.hash(&mut h);
        }
    }
    for a in &e.alerts {
        (a.step, a.tid, a.at, a.kind as u8, a.label.0).hash(&mut h);
        a.origin.as_ref().map(|(cell, l)| (*cell, l.0)).hash(&mut h);
    }
    for (ch, idx, l) in &e.output_labels {
        (ch, idx, l.0).hash(&mut h);
    }
    let s = e.stats();
    (s.instrs, s.tainted_instrs, s.sources, s.peak_tainted_words, s.peak_shadow_bytes).hash(&mut h);
    h.finish()
}

/// Serial reference: `TaintEngine::process` over a captured stream.
pub fn serial_taint(
    stream: &[StepEffects],
    policy: dift_taint::TaintPolicy,
    mem_words: usize,
) -> TaintEngine<PcTaint> {
    let mut e = TaintEngine::new(policy);
    e.pre_size(mem_words);
    for fx in stream {
        e.process(fx);
    }
    e
}

/// Bare VM and null-tool DBI over a set of programs.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbiProbe {
    pub instrs: u64,
    pub bare_s: f64,
    pub null_s: f64,
    pub bare_cycles: u64,
    pub null_cycles: u64,
    pub block_entries: u64,
    pub new_blocks: u64,
}

impl DbiProbe {
    pub fn vm_ns_per_instr(&self) -> f64 {
        self.bare_s * 1e9 / self.instrs.max(1) as f64
    }

    pub fn dispatch_ns_per_instr(&self) -> f64 {
        (self.null_s - self.bare_s) * 1e9 / self.instrs.max(1) as f64
    }
}

/// Probe repetitions; each probe timing is the best of these.
const PROBE_REPS: usize = 3;

/// Time `Machine::run` and `run_tool(NullTool)` on every program (best
/// of [`PROBE_REPS`] each), and count block dispatches.
pub fn dbi_probe(programs: &[&Program]) -> DbiProbe {
    let mut p = DbiProbe::default();
    for w in programs {
        let (mut bare, mut null) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..PROBE_REPS {
            let mut m = w.machine();
            bare = bare.min(timed(|| m.run()).0);
            let mut eng = Engine::new(w.machine());
            null = null.min(timed(|| eng.run_tool(&mut NullTool)).0);
        }
        let mut m = w.machine();
        let bare_r = m.run();
        let mut counting = CountingTool::default();
        let null_r = Engine::new(w.machine()).run_tool(&mut counting);
        p.instrs += bare_r.steps;
        p.bare_cycles += bare_r.cycles;
        p.null_cycles += null_r.cycles;
        p.block_entries += counting.block_entries;
        p.new_blocks += counting.new_blocks;
        p.bare_s += bare;
        p.null_s += null;
    }
    p
}

/// Untraced vs traced cost of one analysed run of `w`: the tool made by
/// `make`, plain and under [`Timed`], alternating, best of
/// [`PROBE_REPS`] each. Returns (plain seconds, traced seconds, the
/// plain run's summary).
pub fn plain_vs_traced<T: Tool>(w: &Program, mut make: impl FnMut() -> T) -> (f64, f64, RunResult) {
    let (mut plain, mut traced, mut result) = (f64::INFINITY, f64::INFINITY, None);
    for _ in 0..PROBE_REPS {
        let mut tool = make();
        let (s, r) = timed(|| Engine::new(w.machine()).run_tool(&mut tool));
        plain = plain.min(s);
        result = Some(r);
        let mut tool = Timed::new(make());
        traced = traced.min(timed(|| Engine::new(w.machine()).run_tool(&mut tool)).0);
    }
    (plain, traced, result.expect("at least one probe"))
}
