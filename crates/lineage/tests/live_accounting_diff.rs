//! Differential tests for incremental shadow-memory accounting: the
//! backends' `live_bytes()` — maintained by `retain`/`release` on every
//! shadow-row write — must equal a full walk over the stored sets after
//! every step (serial `process`, both backends) and after every
//! composed epoch (the sharded `LineageEpochSummary::apply` path), and
//! the final [`LineageStats`] must equal those of a walk-based reference
//! engine that samples the old way.
//!
//! The walk for roBDD sets is `BddManager::reachable` (16 bytes per
//! reachable decision node, shared nodes once, plus a 4-byte handle per
//! stored set); for naive sets it is `24 + 8·len` per stored set. Empty
//! sets are never stored shadow state.

mod common;

use common::{build, capture, machine, step, Step};
use dift_dbi::{Engine, Tool};
use dift_isa::{MemAddr, Opcode};
use dift_lineage::{
    summarize_lineage_epoch, BddBackend, LineageBackend, LineageEngine, LineageStats, NaiveBackend,
    SinkLog,
};
use dift_taint::IoBase;
use dift_vm::{Machine, RunResult, StepEffects};
use proptest::prelude::*;
use std::collections::HashMap;

/// Shadow bytes of `stored` by a full walk, per backend.
type Walk<B> = fn(&B, &[&<B as LineageBackend>::Set]) -> usize;

fn bdd_walk(b: &BddBackend, stored: &[&u32]) -> usize {
    let roots: Vec<u32> = stored.iter().map(|&&n| n).collect();
    b.manager().reachable(&roots) * 16 + stored.len() * 4
}

fn naive_walk(_: &NaiveBackend, stored: &[&<NaiveBackend as LineageBackend>::Set]) -> usize {
    stored.iter().map(|s| 24 + s.len() * 8).sum()
}

/// The walk-based reference: the same propagation as
/// `LineageEngine::process`, with each sample a walk over every stored
/// set. Its backend is only used for set algebra; `retain`/`release`
/// are never called on it.
struct WalkEngine<B: LineageBackend> {
    backend: B,
    walk: Walk<B>,
    regs: Vec<Vec<B::Set>>,
    mem: HashMap<MemAddr, B::Set>,
    inputs_seen: u64,
    stats: LineageStats,
}

impl<B: LineageBackend> WalkEngine<B> {
    fn new(backend: B, walk: Walk<B>) -> WalkEngine<B> {
        WalkEngine {
            backend,
            walk,
            regs: Vec::new(),
            mem: HashMap::new(),
            inputs_seen: 0,
            stats: LineageStats::default(),
        }
    }

    fn process(&mut self, fx: &StepEffects) {
        let t = fx.tid as usize;
        while self.regs.len() <= t {
            let empty = self.backend.empty();
            self.regs.push(vec![empty; dift_isa::NUM_REGS]);
        }
        self.stats.instrs += 1;
        let out = if let Opcode::In { .. } = fx.insn.op {
            self.inputs_seen += 1;
            self.backend.singleton(self.inputs_seen - 1)
        } else {
            let mut acc = self.backend.empty();
            for r in fx.insn.data_uses().as_slice() {
                let s = self.regs[t][r.index()].clone();
                if !self.backend.is_empty(&s) {
                    acc = self.backend.union(&acc, &s).0;
                    self.stats.unions += 1;
                }
            }
            if let Some(s) = fx.mem_read.and_then(|(addr, _)| self.mem.get(&addr).cloned()) {
                acc = self.backend.union(&acc, &s).0;
                self.stats.unions += 1;
            }
            acc
        };
        if let Some((r, _, _)) = fx.reg_write {
            self.regs[t][r.index()] = out.clone();
        }
        if let Some((addr, _, _)) = fx.mem_write {
            if self.backend.is_empty(&out) {
                self.mem.remove(&addr);
            } else {
                self.mem.insert(addr, out);
            }
        }
        if fx.output.is_some() {
            let len = match fx.insn.data_uses().as_slice().first() {
                Some(r) => self.backend.len(&self.regs[t][r.index()]),
                None => 0,
            };
            self.stats.max_output_set = self.stats.max_output_set.max(len);
        }
        if self.stats.instrs % 64 == 0 {
            self.sample();
        }
    }

    /// Bytes of every stored set: memory cells plus non-empty registers.
    fn walk_bytes(&self) -> usize {
        let mut stored: Vec<&B::Set> = self.mem.values().collect();
        stored.extend(self.regs.iter().flatten().filter(|s| !self.backend.is_empty(s)));
        (self.walk)(&self.backend, &stored)
    }

    fn sample(&mut self) {
        self.stats.peak_shadow_bytes = self.stats.peak_shadow_bytes.max(self.walk_bytes());
        self.stats.peak_tracked_words = self.stats.peak_tracked_words.max(self.mem.len());
    }
}

/// Forwards to `B`, checking that every `release` directly follows a
/// `retain` among the backend's mutating calls — the setters' retain-
/// before-release order. Releasing first gives the same final counts
/// (so no byte total can see it) but drops a rewritten set's nodes to
/// zero and rebuilds them, the cascade the order exists to avoid.
struct Audit<B> {
    inner: B,
    last_was_retain: bool,
}

impl<B: LineageBackend> LineageBackend for Audit<B> {
    type Set = B::Set;

    fn empty(&mut self) -> B::Set {
        self.last_was_retain = false;
        self.inner.empty()
    }
    fn singleton(&mut self, i: u64) -> B::Set {
        self.last_was_retain = false;
        self.inner.singleton(i)
    }
    fn union(&mut self, a: &B::Set, b: &B::Set) -> (B::Set, u64) {
        self.last_was_retain = false;
        self.inner.union(a, b)
    }
    fn is_empty(&self, s: &B::Set) -> bool {
        self.inner.is_empty(s)
    }
    fn elements(&self, s: &B::Set) -> Vec<u64> {
        self.inner.elements(s)
    }
    fn len(&self, s: &B::Set) -> u64 {
        self.inner.len(s)
    }
    fn retain(&mut self, s: &B::Set) {
        self.last_was_retain = true;
        self.inner.retain(s);
    }
    fn release(&mut self, s: &B::Set) {
        assert!(self.last_was_retain, "a setter released the old set before retaining the new");
        self.last_was_retain = false;
        self.inner.release(s);
    }
    fn live_bytes(&self) -> usize {
        self.inner.live_bytes()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Drives the engine under test and the walk reference in lockstep on
/// the real DBI path (so `on_finish`'s final sample is covered too).
struct Lockstep<B: LineageBackend> {
    eng: LineageEngine<Audit<B>>,
    reference: WalkEngine<B>,
}

impl<B: LineageBackend> Tool for Lockstep<B> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        self.eng.after(m, fx);
        self.reference.process(fx);
        assert_eq!(
            self.eng.backend().live_bytes(),
            self.reference.walk_bytes(),
            "live bytes after step {}",
            fx.step
        );
    }

    fn on_finish(&mut self, m: &mut Machine, r: &RunResult) {
        self.eng.on_finish(m, r);
        self.reference.sample();
    }
}

fn stats_tuple(s: &LineageStats) -> (u64, u64, usize, usize, u64) {
    (s.instrs, s.unions, s.peak_shadow_bytes, s.peak_tracked_words, s.max_output_set)
}

fn serial_lockstep<B: LineageBackend>(m: Machine, mk: impl Fn() -> B, walk: Walk<B>) {
    let mut tool = Lockstep {
        eng: LineageEngine::new(Audit { inner: mk(), last_was_retain: false }),
        reference: WalkEngine::new(mk(), walk),
    };
    let r = Engine::new(m).run_tool(&mut tool);
    assert!(r.status.is_clean(), "{:?}", r.status);
    assert_eq!(stats_tuple(tool.eng.stats()), stats_tuple(&tool.reference.stats));
}

/// Compose `fxs` epoch by epoch through `LineageEpochSummary::apply`,
/// checking live bytes against the walk after every epoch. `apply`
/// samples once per epoch, so the composed peaks are the maxima of the
/// per-epoch walks.
fn sharded_lockstep(fxs: &[StepEffects], epoch_len: usize, capture_sinks: bool) {
    let mut eng = LineageEngine::new(BddBackend::new(16));
    let mut reference = WalkEngine::new(BddBackend::new(16), bdd_walk);
    let (mut peak_bytes, mut peak_words) = (0, 0);
    let mut base = IoBase::default();
    let mut log = SinkLog::default();
    for (i, chunk) in fxs.chunks(epoch_len).enumerate() {
        let sum = summarize_lineage_epoch(chunk, 16, &base, capture_sinks);
        sum.apply(&mut eng, Some(&mut log));
        base.advance(chunk);
        chunk.iter().for_each(|fx| reference.process(fx));
        let walked = reference.walk_bytes();
        assert_eq!(eng.backend().live_bytes(), walked, "live bytes after epoch {i}");
        peak_bytes = peak_bytes.max(walked);
        peak_words = peak_words.max(reference.mem.len());
    }
    let (got, want) = (eng.stats(), &reference.stats);
    assert_eq!(
        (got.instrs, got.peak_shadow_bytes, got.peak_tracked_words, got.max_output_set),
        (want.instrs, peak_bytes, peak_words, want.max_output_set)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn live_bytes_match_the_walk_serially(
        steps in proptest::collection::vec(step(), 8..96),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
    ) {
        let p = build(inputs.len(), &steps);
        serial_lockstep(machine(&p, &inputs, &steps), || BddBackend::new(16), bdd_walk);
        serial_lockstep(machine(&p, &inputs, &steps), NaiveBackend::new, naive_walk);
    }

    #[test]
    fn live_bytes_match_the_walk_per_composed_epoch(
        steps in proptest::collection::vec(step(), 8..96),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
        epoch_len in 1usize..25,
        capture_sinks: bool,
    ) {
        let p = build(inputs.len(), &steps);
        let fxs = capture(&p, &inputs, &steps);
        sharded_lockstep(&fxs, epoch_len, capture_sinks);
    }
}

/// Rewriting rows with the set they already hold, a superset, and the
/// empty set, on a fixed program (the cases a reference-count slip
/// would show on first).
#[test]
fn rewrites_with_same_superset_and_empty_sets_balance() {
    let steps: Vec<Step> = (0..60)
        .map(|i| match i % 6 {
            0 => Step::Input { rd: 2 },
            1 => Step::Alu { op: 0, rd: 3, rs1: 3, rs2: 2 }, // r3 ⊇ old r3
            2 => Step::Store { rs: 3, slot: (i % 4) as u8 },
            3 => Step::Store { rs: 3, slot: (i % 4) as u8 }, // same set again
            4 => Step::Load { rd: 3, slot: (i % 4) as u8 },
            _ => Step::Store { rs: 9, slot: (i % 4) as u8 }, // r9 stays empty
        })
        .collect();
    let p = build(1, &steps);
    serial_lockstep(machine(&p, &[5], &steps), || BddBackend::new(16), bdd_walk);
    serial_lockstep(machine(&p, &[5], &steps), NaiveBackend::new, naive_walk);
    let fxs = capture(&p, &[5], &steps);
    for epoch_len in [1, 2, 7, 24] {
        sharded_lockstep(&fxs, epoch_len, false);
    }
}
