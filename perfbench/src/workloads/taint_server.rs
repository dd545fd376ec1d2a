//! `taint-server`: the multithreaded kv server (4 guest workers,
//! seeded request streams) under online `TaintEngine<PcTaint>` with the
//! default policy. A query is one kv request, timed from the outside
//! between a worker reading the first word of a request and the first
//! word of its next one.
//!
//! Checks: labels, alerts and output labels equal a serial
//! `TaintEngine::process` replay of the captured stream, and guest
//! outputs equal the bare run's.
//!
//! The traced run also measures the multicore layer here: each
//! session's captured stream through `epoch_process_stream` at 2
//! workers and epoch length 1024 (checked bit-identical to serial), and
//! serial `summarize_epoch` / `apply_summary` per epoch.

use super::{
    dbi_layers, end_to_end, finish, new_outcome, tool_ratios, trace_overhead, Tally, Totals,
};
use crate::metrics::Outcome;
use crate::probe::{
    capture, closed_loop, dbi_probe, hash_of, plain_vs_traced, serial_taint, taint_digest, timed,
    timed_setup, Marker, RunClock,
};
use crate::spans::{timer_overhead_ns, Spans, Timed};
use crate::{Config, Rng, Scale, EPOCH_LEN, EPOCH_WORKERS};
use dift_dbi::{Engine, Tool};
use dift_multicore::epoch_process_stream;
use dift_taint::{summarize_epoch, IoBase, PcTaint, TaintEngine, TaintPolicy};
use dift_vm::{RunResult, StepEffects};
use dift_workloads::server::{server, ServerConfig};
use dift_workloads::Workload as Program;

/// Sessions per round.
const SESSIONS: usize = 6;
/// Guest workers per session (the server's maximum). One worker count
/// keeps request latency one population rather than three.
const WORKERS: u64 = 4;

fn requests_per_worker(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 20,
        Scale::Full => 400,
    }
}

/// Set-up: build each session's program and seeded request streams.
fn build_sessions(scale: Scale, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    (0..SESSIONS)
        .map(|_| {
            server(ServerConfig {
                workers: WORKERS,
                requests_per_worker: requests_per_worker(scale),
                with_bug: false,
                seed: rng.next_u64(),
            })
        })
        .collect()
}

type Taint = TaintEngine<PcTaint>;

fn engine() -> Taint {
    TaintEngine::new(TaintPolicy::default())
}

/// One analysed session: run summary, the clocked tool back, and the
/// guest-output fingerprint.
fn serve<T: Tool>(w: &Program, tool: T) -> (RunResult, RunClock<T>, u64) {
    let mut clock = RunClock::new(tool, Some(Marker::RequestStart));
    let mut eng = Engine::new(w.machine());
    let r = eng.run_tool(&mut clock);
    (r, clock, hash_of(&(eng.machine().output(0), eng.machine().output(1))))
}

#[derive(Default)]
struct Ledger {
    t: Totals,
    /// (session, clean exit, guest-output fingerprint, engine digest).
    runs: Tally<(usize, bool, u64, u64)>,
    alerts: u64,
    peak_tainted_words: usize,
}

pub fn run(cfg: &Config) -> Outcome {
    let (sessions, mut setup) = timed_setup(|| build_sessions(cfg.scale, cfg.seed));
    let mut rng = Rng::new(cfg.seed.wrapping_add(1));
    let mut o = new_outcome(cfg);
    let mut spans = Spans::new(cfg.trace);
    let timer_ns = timer_overhead_ns();
    let mut led = Ledger::default();

    let rounds = closed_loop(cfg.seconds, || {
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        rng.shuffle(&mut order);
        for k in order {
            let w = &sessions[k];
            spans.enter("taint-server.session", None);
            spans.enter("taint.run", None);
            let (r, chunks, samples, out, taint) = if spans.enabled() {
                let (r, clock, out) = serve(w, Timed::new(engine()));
                spans.aggregate(
                    "taint.callbacks",
                    clock.inner.self_ns(timer_ns),
                    clock.inner.calls,
                );
                (r, clock.chunk_secs, clock.samples_us, out, clock.inner.inner)
            } else {
                let (r, clock, out) = serve(w, engine());
                (r, clock.chunk_secs, clock.samples_us, out, clock.inner)
            };
            spans.exit();
            spans.exit();
            led.t.add_run(k, r.steps, &chunks);
            led.t.add_queries(k, &samples);
            led.alerts += taint.alerts.len() as u64;
            led.peak_tainted_words = led.peak_tainted_words.max(taint.stats().peak_tainted_words);
            led.runs.add((k, r.status.is_clean(), out, taint_digest(&taint)));
        }
        setup.again(|| build_sessions(cfg.scale, cfg.seed));
    });
    if !cfg.trace {
        end_to_end(&mut o, setup.median(), &led.t);
    } else {
        layer_metrics(&mut o, &sessions, &spans, &led, rounds);
    }
    check(cfg, &sessions, &led, &mut o);
    finish(cfg, &mut o, &spans, rounds, &led.t);
    o
}

/// The epoch-parallel pipeline and its two phases over one captured
/// session stream: (epoch seconds, summarize seconds, compose seconds).
/// The epoch result must equal the serial one bit for bit.
fn epoch_probe(
    stream: &[StepEffects],
    mem_words: usize,
    serial: u64,
    o: &mut Outcome,
) -> (f64, f64, f64) {
    let policy = TaintPolicy::default();
    let (epoch_s, e) = timed(|| {
        epoch_process_stream::<PcTaint>(stream, policy, mem_words, EPOCH_LEN, EPOCH_WORKERS)
    });
    o.check(taint_digest(&e) == serial);
    let (mut summarize_s, mut compose_s) = (0.0, 0.0);
    let mut base = IoBase::default();
    let mut composed = engine();
    composed.pre_size(mem_words);
    for chunk in stream.chunks(EPOCH_LEN) {
        let (t, sum) = timed(|| summarize_epoch::<PcTaint>(chunk, policy, &base));
        summarize_s += t;
        compose_s += timed(|| composed.apply_summary(&sum)).0;
        base.advance(chunk);
    }
    (epoch_s, summarize_s, compose_s)
}

fn layer_metrics(
    o: &mut Outcome,
    sessions: &[Program],
    spans: &Spans,
    led: &Ledger,
    rounds: usize,
) {
    let probe = dbi_probe(&sessions.iter().collect::<Vec<_>>());
    dbi_layers(o, &probe);
    let (mut plain_s, mut traced_s, mut serial_s, mut cycles, mut instrs) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    let (mut epoch_s, mut summarize_s, mut compose_s) = (0.0, 0.0, 0.0);
    for w in sessions {
        let (s, s_traced, r) = plain_vs_traced(w, engine);
        let (stream, _) = capture(w);
        let (s_serial, serial) =
            timed(|| serial_taint(&stream, TaintPolicy::default(), w.mem_words));
        let (e, sm, c) = epoch_probe(&stream, w.mem_words, taint_digest(&serial), o);
        plain_s += s;
        traced_s += s_traced;
        serial_s += s_serial;
        (epoch_s, summarize_s, compose_s) = (epoch_s + e, summarize_s + sm, compose_s + c);
        cycles += r.cycles;
        instrs += r.steps;
    }
    let per_instr = |secs: f64| secs * 1e9 / instrs.max(1) as f64;
    o.set("multicore.epoch_ns_per_instr", per_instr(epoch_s));
    o.set("multicore.summarize_ns_per_instr", per_instr(summarize_s));
    o.set("multicore.compose_ns_per_instr", per_instr(compose_s));
    o.set("multicore.speedup_vs_serial", serial_s / epoch_s.max(1e-12));
    tool_ratios(o, "taint", &probe, plain_s, cycles);
    o.set(
        "taint.tool_ns_per_instr",
        spans.aggregate_ns("taint.callbacks") as f64 / led.t.instrs as f64,
    );
    o.set("taint.serial_ns_per_instr", per_instr(serial_s));
    o.set("taint.alerts", led.alerts as f64 / rounds as f64);
    o.set("taint.peak_tainted_words", led.peak_tainted_words as f64);
    o.set("query.samples", led.t.queries as f64);
    trace_overhead(o, traced_s, plain_s);
}

/// References, built after the loop: the bare run's outputs and a
/// serial replay of each session's captured effects stream.
fn check(cfg: &Config, sessions: &[Program], led: &Ledger, o: &mut Outcome) {
    let mut corrupt = cfg.corrupt_reference;
    for (k, w) in sessions.iter().enumerate() {
        let mut m = w.machine();
        m.run();
        let bare_out = hash_of(&(m.output(0), m.output(1)));
        let (stream, _) = capture(w);
        let mut want = taint_digest(&serial_taint(&stream, TaintPolicy::default(), w.mem_words));
        drop(stream);
        if std::mem::take(&mut corrupt) {
            want ^= 1;
        }
        for (&(_, clean, out, digest), n) in led.runs.iter().filter(|r| r.0 .0 == k) {
            o.check_times(clean && out == bare_out && digest == want, n);
        }
    }
}
