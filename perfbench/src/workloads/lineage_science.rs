//! `lineage-science`: online `LineageEngine<BddBackend>` over the
//! `binning`, `sliding_window` and `prefix_sum` pipelines with seeded
//! input values (their ground-truth lineage does not depend on the
//! values). A query is one output word emitted with its resolved
//! lineage, timed from the previous output (or the run start).
//!
//! Checks: every output's lineage equals the pipeline's
//! `expected_lineage`, rebuilt after the loop.

use super::{
    dbi_layers, end_to_end, finish, new_outcome, tool_ratios, trace_overhead, Tally, Totals,
};
use crate::metrics::Outcome;
use crate::probe::{
    capture, closed_loop, dbi_probe, hash_of, plain_vs_traced, timed, timed_setup, Marker, RunClock,
};
use crate::spans::{timer_overhead_ns, Spans, Timed};
use crate::{Config, Rng, Scale, EPOCH_LEN, EPOCH_WORKERS};
use dift_dbi::{Engine, Tool};
use dift_lineage::{BddBackend, LineageEngine};
use dift_multicore::{shard_lineage_stream, LineageShardConfig};
use dift_vm::RunResult;
use dift_workloads::science::{binning, prefix_sum, sliding_window, SciencePipeline};
use dift_workloads::Workload as Program;

/// (binning inputs, sliding-window inputs, prefix-sum inputs).
fn sizes(scale: Scale) -> (u64, u64, u64) {
    match scale {
        Scale::Tiny => (64, 48, 48),
        Scale::Full => (4096, 512, 1024),
    }
}

fn pipelines(scale: Scale) -> Vec<SciencePipeline> {
    let (nb, nw, np) = sizes(scale);
    vec![binning(nb, 32), sliding_window(nw, 16), prefix_sum(np)]
}

/// Set-up: build the pipelines and draw their input values. The
/// constructors return the ground truth with the program; it is
/// dropped here and rebuilt for the checks.
fn build(scale: Scale, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    pipelines(scale)
        .into_iter()
        .map(|p| {
            let mut w = p.workload;
            for (_, vals) in &mut w.inputs {
                vals.iter_mut().for_each(|v| *v = rng.below(100));
            }
            w
        })
        .collect()
}

/// Input words a pipeline reads: the roBDD identifier universe.
fn id_bits(w: &Program) -> u32 {
    let n: u64 = w.inputs.iter().map(|(_, v)| v.len() as u64).sum();
    64 - n.leading_zeros() + 1
}

type Lineage = LineageEngine<BddBackend>;

fn engine(w: &Program) -> Lineage {
    LineageEngine::new(BddBackend::new(id_bits(w)))
}

fn analyse<T: Tool>(w: &Program, tool: T) -> (RunResult, RunClock<T>) {
    let mut clock = RunClock::new(tool, Some(Marker::Output));
    let r = Engine::new(w.machine()).run_tool(&mut clock);
    (r, clock)
}

#[derive(Default)]
struct Ledger {
    t: Totals,
    /// (pipeline, clean exit, per-output lineage fingerprints).
    runs: Tally<(usize, bool, Vec<u64>)>,
    unions: u64,
    bdd_nodes: u64,
    peak_shadow_bytes: usize,
}

pub fn run(cfg: &Config) -> Outcome {
    let (progs, mut setup) = timed_setup(|| build(cfg.scale, cfg.seed));
    let mut o = new_outcome(cfg);
    let mut spans = Spans::new(cfg.trace);
    let timer_ns = timer_overhead_ns();
    let mut led = Ledger::default();

    // A fixed pipeline order: which pipeline ran before changes the
    // allocator and cache state a run starts from, so a seeded order
    // would add noise the analysis did not cause.
    let rounds = closed_loop(cfg.seconds, || {
        for (k, w) in progs.iter().enumerate() {
            spans.enter("lineage-science.pipeline", None);
            spans.enter("lineage.run", None);
            let (r, chunks, samples, lin) = if spans.enabled() {
                let (r, clock) = analyse(w, Timed::new(engine(w)));
                let t = &clock.inner;
                spans.aggregate("lineage.callbacks", t.self_ns(timer_ns), t.calls);
                (r, clock.chunk_secs, clock.samples_us, clock.inner.inner)
            } else {
                let (r, clock) = analyse(w, engine(w));
                (r, clock.chunk_secs, clock.samples_us, clock.inner)
            };
            spans.exit();
            spans.exit();
            led.t.add_run(k, r.steps, &chunks);
            led.t.add_queries(k, &samples);
            led.unions += lin.stats().unions;
            led.bdd_nodes += lin.backend().manager().node_count() as u64;
            led.peak_shadow_bytes = led.peak_shadow_bytes.max(lin.stats().peak_shadow_bytes);
            let fps = lin.outputs.iter().map(|(_, idx, elems)| hash_of(&(idx, elems))).collect();
            led.runs.add((k, r.status.is_clean(), fps));
        }
        setup.again(|| build(cfg.scale, cfg.seed));
    });
    if !cfg.trace {
        end_to_end(&mut o, setup.median(), &led.t);
    } else {
        layer_metrics(&mut o, &progs, &spans, &led, rounds);
    }
    check(cfg, &led, &mut o);
    finish(cfg, &mut o, &spans, rounds, &led.t);
    o
}

fn layer_metrics(o: &mut Outcome, progs: &[Program], spans: &Spans, led: &Ledger, rounds: usize) {
    let probe = dbi_probe(&progs.iter().collect::<Vec<_>>());
    dbi_layers(o, &probe);
    let (mut plain_s, mut traced_s, mut cycles) = (0.0, 0.0, 0u64);
    let (mut serial_s, mut shard_s, mut compose_ns) = (0.0, 0.0, 0u64);
    for w in progs {
        let (s, s_traced, r) = plain_vs_traced(w, || engine(w));
        plain_s += s;
        traced_s += s_traced;
        cycles += r.cycles;

        // Serial `process` vs the sharded epoch pipeline on the same
        // captured stream; the sharded outputs must match the serial.
        let (stream, _) = capture(w);
        let mut serial = engine(w);
        let (s, _) = timed(|| {
            stream.iter().for_each(|fx| {
                serial.process(fx);
            })
        });
        serial_s += s;
        let scfg = LineageShardConfig::new(EPOCH_WORKERS, EPOCH_LEN, id_bits(w));
        let (s, sharded) = timed(|| shard_lineage_stream(&stream, &w.program, w.mem_words, &scfg));
        shard_s += s;
        compose_ns += sharded.stats.compose_nanos;
        o.check(sharded.engine.outputs == serial.outputs);
    }
    tool_ratios(o, "lineage", &probe, plain_s, cycles);
    o.set(
        "lineage.tool_ns_per_instr",
        spans.aggregate_ns("lineage.callbacks") as f64 / led.t.instrs as f64,
    );
    o.set("lineage.unions", led.unions as f64 / rounds as f64);
    o.set("robdd.nodes", led.bdd_nodes as f64 / rounds as f64);
    o.set("lineage.peak_shadow_bytes", led.peak_shadow_bytes as f64);
    o.set("multicore.lineage_shard_speedup_vs_serial", serial_s / shard_s.max(1e-12));
    o.set("multicore.lineage_shard_compose_ns", compose_ns as f64);
    o.set("query.samples", led.t.queries as f64);
    trace_overhead(o, traced_s, plain_s);
}

/// Ground truth, rebuilt after the loop: output `k`'s lineage is
/// `expected_lineage[k]` whatever the input values.
fn check(cfg: &Config, led: &Ledger, o: &mut Outcome) {
    let mut corrupt = cfg.corrupt_reference;
    for (k, p) in pipelines(cfg.scale).iter().enumerate() {
        let mut want: Vec<u64> = p
            .expected_lineage
            .iter()
            .enumerate()
            .map(|(idx, elems)| hash_of(&(idx as u64, elems)))
            .collect();
        if std::mem::take(&mut corrupt) {
            want[0] ^= 1;
        }
        for ((_, clean, got), n) in led.runs.iter().filter(|r| r.0 .0 == k) {
            o.check_times(*clean && got.len() == want.len(), n);
            for (g, w) in got.iter().zip(&want) {
                o.check_times(g == w, n);
            }
        }
    }
}
