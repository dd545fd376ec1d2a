//! `debug-slice`: ONTRAC (optimized, slice index and cold tier on, at a
//! buffer budget that forces eviction) over a seeded draw of the
//! SPEC-like kernels, then seeded stitched backward / forward /
//! from-address slice queries whose criteria are drawn uniformly over
//! the whole run, so most fall behind the eviction horizon.
//!
//! The measured loop keeps the cold tier in memory: with durable
//! segments, the per-segment `fsync` was about two thirds of the ONTRAC
//! cost and swung with the host's disk, so the end-to-end numbers were
//! not steady. The traced run still measures the durable tier
//! (`ddg.disk_bytes`) in its probes.
//!
//! Checks: every stitched answer equals the offline `Slicer` over a
//! never-evicted reference trace, no answer is `Degraded`, and each
//! traced run's guest output equals the bare run's.

use super::{
    dbi_layers, end_to_end, finish, new_outcome, tool_ratios, trace_overhead, Tally, Totals,
};
use crate::metrics::{median, Outcome};
use crate::probe::{
    closed_loop, dbi_probe, hash_of, plain_vs_traced, slice_fp, timed, timed_setup, RunClock,
};
use crate::spans::{timer_overhead_ns, Spans, Timed};
use crate::{Config, Rng, Scale};
use dift_dbi::Engine;
use dift_ddg::{DdgGraph, OnTrac, OnTracConfig};
use dift_isa::Addr;
use dift_slicing::{KindMask, Slice, SliceService, Slicer, StitchedOutcome};
use dift_vm::RunResult;
use dift_workloads::spec::{all_spec, Size};
use dift_workloads::Workload as Program;
use std::collections::HashMap;
use std::path::Path;

/// Left out: 26.5M instructions and ~34 s under ONTRAC per run.
const EXCLUDED: &[&str] = &["vortex.Medium"];

struct Sizes {
    kernels: &'static [Size],
    /// Trace buffer budget: small enough that every kernel evicts.
    budget: usize,
    /// Queries per batch by kind: (backward, forward, from-address).
    queries: (u64, u64, u64),
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Tiny => Sizes { kernels: &[Size::Tiny], budget: 512, queries: (2, 2, 2) },
        // Backward answers are mostly live-window hits (µs); forward and
        // from-address answers mostly decode the cold tier (hundreds of
        // µs). At 1:2:2 the median falls inside the cold plateau rather
        // than in the gap between the two, where it would flip run to run.
        Scale::Full => Sizes { kernels: &[Size::Small], budget: 1024, queries: (10, 20, 20) },
    }
}

/// Replace each input channel's words with seeded runs over the same
/// alphabet (the compress kernel reads its stream from channel 0).
fn seed_inputs(mut w: Program, rng: &mut Rng) -> Program {
    for (_, vals) in &mut w.inputs {
        let alphabet = vals.iter().max().map_or(1, |m| m + 1);
        let n = vals.len();
        vals.clear();
        while vals.len() < n {
            let v = rng.below(alphabet);
            let run = 1 + rng.below(6) as usize;
            vals.extend(std::iter::repeat_n(v, run.min(n - vals.len())));
        }
    }
    w
}

/// Set-up: build every kernel program with seeded inputs.
fn kernel_pool(scale: Scale, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    sizes(scale)
        .kernels
        .iter()
        .flat_map(|&s| all_spec(s))
        .filter(|w| !EXCLUDED.contains(&w.name.as_str()))
        .map(|w| seed_inputs(w, &mut rng))
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Backward,
    Forward,
    FromAddr,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Backward => "slicing.backward",
            Kind::Forward => "slicing.forward",
            Kind::FromAddr => "slicing.from_addr",
        }
    }
}

/// One slice request: a step criterion, or an instruction address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Query {
    kind: Kind,
    criterion: u64,
}

/// `n` step criteria, stratified uniform over the run: one draw in
/// each of `n` equal slices.
fn stratified_steps(rng: &mut Rng, steps: u64, n: u64) -> impl Iterator<Item = u64> + '_ {
    (0..n).map(move |i| {
        let (lo, hi) = (steps * i / n, steps * (i + 1) / n);
        lo + rng.below(hi - lo)
    })
}

/// Query batches per kernel. Round `r` asks batch `r % BATCHES`: each
/// query recurs every `BATCHES` rounds (often enough for its floor),
/// and the percentiles rest on `BATCHES` times as many distinct
/// queries, so which criteria a seed draws moves them less.
const BATCHES: usize = 4;

/// A kernel's query batches, drawn the first time it is traced, each
/// in seeded order. The step criteria of all batches are one
/// stratified-uniform draw over the run, dealt out round-robin, so the
/// union is stratified as finely as it can be and every batch still
/// spans the run; from-address criteria are a seeded permutation of the
/// instruction addresses (cycled if the program is shorter than the
/// draw), dealt the same way.
fn draw_plan(rng: &mut Rng, steps: u64, sz: &Sizes, program_len: usize) -> Vec<Vec<Query>> {
    let (nb, nf, na) = sz.queries;
    let n = BATCHES as u64;
    let backward: Vec<u64> = stratified_steps(rng, steps, nb * n).collect();
    let forward: Vec<u64> = stratified_steps(rng, steps, nf * n).collect();
    let mut perm: Vec<u64> = (0..program_len as u64).collect();
    rng.shuffle(&mut perm);
    let addrs: Vec<u64> = perm.into_iter().cycle().take((na * n) as usize).collect();
    (0..BATCHES)
        .map(|b| {
            let deal = |xs: &[u64], kind: Kind| -> Vec<Query> {
                xs.iter().skip(b).step_by(BATCHES).map(|&c| Query { kind, criterion: c }).collect()
            };
            let mut qs = deal(&backward, Kind::Backward);
            qs.extend(deal(&forward, Kind::Forward));
            qs.extend(deal(&addrs, Kind::FromAddr));
            rng.shuffle(&mut qs);
            qs
        })
        .collect()
}

impl Query {
    fn stitched(self, svc: &mut SliceService, cold: &dift_ddg::ColdStore) -> StitchedOutcome {
        let c = [self.criterion];
        match self.kind {
            Kind::Backward => svc.backward_stitched_checked(cold, &c, KindMask::classic()),
            Kind::Forward => svc.forward_stitched_checked(cold, &c, KindMask::data_only()),
            Kind::FromAddr => svc.backward_from_addr_stitched_checked(
                cold,
                self.criterion as Addr,
                KindMask::multithreaded(),
            ),
        }
    }

    fn offline(self, s: &Slicer) -> Slice {
        let c = [self.criterion];
        match self.kind {
            Kind::Backward => s.backward(&c, KindMask::classic()),
            Kind::Forward => s.forward(&c, KindMask::data_only()),
            Kind::FromAddr => {
                s.backward_from_addr(self.criterion as Addr, KindMask::multithreaded())
            }
        }
    }
}

/// The optimized tracer, with the in-memory cold tier on or off.
fn tracer_config(budget: usize, cold_tier: bool) -> OnTracConfig {
    let mut c = OnTracConfig::optimized(budget);
    c.cold_tier = cold_tier;
    c
}

/// Everything the loop records, for metrics and the later checks.
#[derive(Default)]
struct Ledger {
    t: Totals,
    /// (kernel, query, answer fingerprint, degraded).
    answers: Tally<(usize, Query, u64, bool)>,
    /// Answers given, their nodes, and those reaching behind the
    /// eviction horizon.
    answered: u64,
    nodes: u64,
    behind: u64,
    /// (kernel, clean exit, guest-output fingerprint).
    runs: Tally<(usize, bool, u64)>,
    bytes_appended: u64,
    evicted: u64,
    index_bytes: u64,
    cold_bytes: u64,
    cold_records: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// Trace one kernel and answer its queries.
#[allow(clippy::too_many_arguments)]
fn one_kernel(
    k: usize,
    round: usize,
    w: &Program,
    sz: &Sizes,
    rng: &mut Rng,
    plan: &mut Option<Vec<Vec<Query>>>,
    spans: &mut Spans,
    timer_ns: f64,
    led: &mut Ledger,
) {
    let tracer = OnTrac::new(&w.program, w.mem_words, tracer_config(sz.budget, true));
    let mut eng = Engine::new(w.machine());
    spans.enter("ddg.trace", None);
    let (r, chunks, tracer): (RunResult, Vec<f64>, OnTrac) = if spans.enabled() {
        let mut clock = RunClock::new(Timed::new(tracer), None);
        let r = eng.run_tool(&mut clock);
        let t = &clock.inner;
        spans.aggregate("ddg.callbacks", t.self_ns(timer_ns), t.calls);
        (r, clock.chunk_secs, clock.inner.inner)
    } else {
        let mut clock = RunClock::new(tracer, None);
        let r = eng.run_tool(&mut clock);
        (r, clock.chunk_secs, clock.inner)
    };
    spans.exit();
    led.t.add_run(k, r.steps, &chunks);
    led.runs.add((k, r.status.is_clean(), hash_of(eng.machine().output(0))));

    let idx = tracer.slice_index().expect("the optimized preset keeps the slice index");
    let cold = tracer.cold_store().expect("the cold tier is on");
    let horizon = tracer.buffer().window().map_or(0, |(first, _)| first);
    let mut svc = SliceService::new(idx);
    let batch = round % BATCHES;
    let plan = plan.get_or_insert_with(|| draw_plan(rng, r.steps, sz, w.program.len()));
    let queries = &plan[batch];
    let mut latency_us = Vec::with_capacity(queries.len());
    for &q in queries.iter() {
        spans.enter(q.kind.span(), Some(led.answered));
        let (s, out) = timed(|| q.stitched(&mut svc, cold));
        spans.exit();
        latency_us.push(s * 1e6);
        let slice = out.slice();
        led.answered += 1;
        led.nodes += slice.len() as u64;
        led.behind += u64::from(slice.steps.first().is_some_and(|&first| first < horizon));
        led.answers.add((k, q, slice_fp(slice), out.is_degraded()));
    }
    led.t.add_queries(k * BATCHES + batch, &latency_us);
    let st = tracer.stats();
    led.bytes_appended += st.bytes_appended;
    led.evicted += tracer.buffer().evicted;
    led.index_bytes += idx.approx_bytes();
    led.cold_bytes += cold.bytes();
    led.cold_records += cold.record_count();
    led.memo_hits += cold.memo_hits();
    led.memo_misses += cold.memo_misses();
}

pub fn run(cfg: &Config) -> Outcome {
    let sz = sizes(cfg.scale);
    let (pool, mut setup) = timed_setup(|| kernel_pool(cfg.scale, cfg.seed));
    let mut rng = Rng::new(cfg.seed.wrapping_add(1));
    let mut o = new_outcome(cfg);
    let mut spans = Spans::new(cfg.trace);
    let timer_ns = timer_overhead_ns();
    let mut led = Ledger::default();
    let mut plans: Vec<Option<Vec<Vec<Query>>>> = vec![None; pool.len()];
    let mut round = 0;

    let rounds = closed_loop(cfg.seconds, || {
        let mut order: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut order);
        for k in order {
            spans.enter("debug-slice.kernel", None);
            one_kernel(
                k,
                round,
                &pool[k],
                &sz,
                &mut rng,
                &mut plans[k],
                &mut spans,
                timer_ns,
                &mut led,
            );
            spans.exit();
        }
        round += 1;
        setup.again(|| kernel_pool(cfg.scale, cfg.seed));
    });
    if !cfg.trace {
        end_to_end(&mut o, setup.median(), &led.t);
    } else {
        let tmp = cfg.work_dir.join(format!("durable-{}", std::process::id()));
        layer_metrics(&mut o, &pool, &sz, &tmp, &spans, &led, rounds);
        let _ = std::fs::remove_dir_all(&tmp);
    }
    check(cfg, &pool, &led, &mut o);
    finish(cfg, &mut o, &spans, rounds, &led.t);
    o
}

fn layer_metrics(
    o: &mut Outcome,
    pool: &[Program],
    sz: &Sizes,
    tmp: &Path,
    spans: &Spans,
    led: &Ledger,
    rounds: usize,
) {
    let per_round = |x: u64| x as f64 / rounds as f64;
    let probe = dbi_probe(&pool.iter().collect::<Vec<_>>());
    dbi_layers(o, &probe);

    // Untraced ONTRAC as configured, with index + cold tier off, and
    // with durable segments (for the bytes they put on disk).
    let (mut full_s, mut traced_s, mut off_s, mut cycles, mut instrs, mut disk_bytes) =
        (0.0, 0.0, 0.0, 0u64, 0u64, 0u64);
    for (i, w) in pool.iter().enumerate() {
        let (s, s_traced, r) = plain_vs_traced(w, || {
            OnTrac::new(&w.program, w.mem_words, tracer_config(sz.budget, true))
        });
        let mut off_cfg = tracer_config(sz.budget, false);
        off_cfg.slice_index = false;
        let mut t = OnTrac::new(&w.program, w.mem_words, off_cfg);
        let (s_off, _) = timed(|| Engine::new(w.machine()).run_tool(&mut t));
        full_s += s;
        traced_s += s_traced;
        off_s += s_off;
        cycles += r.cycles;
        instrs += r.steps;

        let dir = tmp.join(format!("probe{i}"));
        let mut durable_cfg = tracer_config(sz.budget, true);
        durable_cfg.durable_dir = Some(dir.clone());
        let mut t = OnTrac::new(&w.program, w.mem_words, durable_cfg);
        Engine::new(w.machine()).run_tool(&mut t);
        disk_bytes += t.cold_store().map_or(0, |c| c.disk_bytes());
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
    tool_ratios(o, "ddg", &probe, full_s, cycles);
    o.set("ddg.index_cold_ns_per_instr", (full_s - off_s) * 1e9 / instrs.max(1) as f64);
    o.set(
        "ddg.ontrac_ns_per_instr",
        spans.aggregate_ns("ddg.callbacks") as f64 / led.t.instrs as f64,
    );
    o.set("ddg.bytes_per_instr", led.bytes_appended as f64 / led.t.instrs as f64);
    o.set("ddg.evicted", per_round(led.evicted));
    o.set("ddg.index_bytes", per_round(led.index_bytes));
    o.set("ddg.cold_bytes_per_record", led.cold_bytes as f64 / led.cold_records.max(1) as f64);
    o.set("ddg.disk_bytes", disk_bytes as f64);
    trace_overhead(o, traced_s, full_s);

    o.set("slicing.backward_p50_us", median(&spans.durations_us("slicing.backward")));
    o.set("slicing.forward_p50_us", median(&spans.durations_us("slicing.forward")));
    o.set("slicing.from_addr_p50_us", median(&spans.durations_us("slicing.from_addr")));
    let n = led.answered.max(1) as f64;
    o.set("slicing.nodes_per_query", led.nodes as f64 / n);
    o.set("slicing.cold_query_frac", led.behind as f64 / n);
    let lookups = (led.memo_hits + led.memo_misses).max(1) as f64;
    o.set("slicing.cold_memo_hit_ratio", led.memo_hits as f64 / lookups);
    o.set("slicing.cold_memo_hits", led.memo_hits as f64);
    o.set("slicing.cold_memo_misses", led.memo_misses as f64);
    o.set("query.samples", led.t.queries as f64);
}

/// References, built after the loop: the bare run's output and the
/// offline `Slicer` over a never-evicted trace of each kernel.
fn check(cfg: &Config, pool: &[Program], led: &Ledger, o: &mut Outcome) {
    let mut corrupt = cfg.corrupt_reference;
    for (k, w) in pool.iter().enumerate() {
        let mut m = w.machine();
        m.run();
        let bare_out = hash_of(m.output(0));
        for (&(_, clean, out), n) in led.runs.iter().filter(|r| r.0 .0 == k) {
            o.check_times(clean && out == bare_out, n);
        }
        let mut full = OnTrac::new(&w.program, w.mem_words, tracer_config(1 << 30, false));
        Engine::new(w.machine()).run_tool(&mut full);
        assert_eq!(full.buffer().evicted, 0, "the reference trace must never evict");
        let g = DdgGraph::from_records(full.buffer().records(), &w.program);
        let slicer = Slicer::new(&g);
        let mut memo: HashMap<Query, u64> = HashMap::new();
        for (&(_, q, fp, degraded), n) in led.answers.iter().filter(|a| a.0 .0 == k) {
            let mut want = *memo.entry(q).or_insert_with(|| slice_fp(&q.offline(&slicer)));
            if std::mem::take(&mut corrupt) {
                want ^= 1;
            }
            o.check_times(!degraded && fp == want, n);
        }
    }
}
