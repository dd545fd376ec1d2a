//! The set-valued DIFT engine.

use crate::backend::LineageBackend;
use crate::costs;
use dift_dbi::Tool;
use dift_isa::{MemAddr, Opcode, NUM_REGS};
use dift_vm::{Machine, RunResult, StepEffects, ThreadId};
use std::collections::HashMap;

/// Lineage-tracing statistics (the E7 rows).
#[derive(Clone, Debug, Default)]
pub struct LineageStats {
    pub instrs: u64,
    pub unions: u64,
    /// Peak bytes of shadow lineage state.
    pub peak_shadow_bytes: usize,
    /// Peak tainted (lineage-carrying) memory words.
    pub peak_tracked_words: usize,
    /// Largest single lineage set observed at an output.
    pub max_output_set: u64,
}

/// The lineage engine, generic over the set backend.
///
/// Fields are `pub(crate)` so the shard-compose path
/// ([`crate::shard`]) can apply per-epoch symbolic summaries directly
/// to the shadow state. Every shadow-row write, serial or composed,
/// goes through the crate-private setters `set_reg` / `set_mem`,
/// which keep the backend's live-set accounting in step.
pub struct LineageEngine<B: LineageBackend> {
    pub(crate) backend: B,
    pub(crate) regs: Vec<Vec<B::Set>>,
    pub(crate) mem: HashMap<MemAddr, B::Set>,
    pub(crate) inputs_seen: u64,
    /// Channel that produced input index `i` (indexed by input index).
    pub(crate) input_channels: Vec<u16>,
    /// `(channel, emit index, lineage elements)` per output word.
    pub outputs: Vec<(u16, u64, Vec<u64>)>,
    pub(crate) out_counts: HashMap<u16, u64>,
    pub(crate) stats: LineageStats,
    /// Sample shadow memory every N instructions (the peak columns of
    /// [`LineageStats`] are maxima over these samples).
    sample_every: u64,
}

impl<B: LineageBackend> LineageEngine<B> {
    pub fn new(backend: B) -> LineageEngine<B> {
        LineageEngine {
            backend,
            regs: Vec::new(),
            mem: HashMap::new(),
            inputs_seen: 0,
            input_channels: Vec::new(),
            outputs: Vec::new(),
            out_counts: HashMap::new(),
            stats: LineageStats::default(),
            sample_every: 64,
        }
    }

    pub fn stats(&self) -> &LineageStats {
        &self.stats
    }

    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Total input words consumed so far (= next input index).
    pub fn inputs_seen(&self) -> u64 {
        self.inputs_seen
    }

    fn ensure_tid(&mut self, tid: ThreadId) {
        while self.regs.len() <= tid as usize {
            let empty = self.backend.empty();
            self.regs.push(vec![empty; NUM_REGS]);
        }
    }

    /// Lineage of an output word, resolved to sorted input indices.
    pub fn output_lineage(&self, channel: u16, index: u64) -> Option<&[u64]> {
        self.outputs
            .iter()
            .find(|(ch, i, _)| *ch == channel && *i == index)
            .map(|(_, _, v)| v.as_slice())
    }

    /// Lineage of a live register, resolved to sorted input indices.
    pub fn reg_elements(&self, tid: ThreadId, reg: usize) -> Vec<u64> {
        self.regs
            .get(tid as usize)
            .and_then(|regs| regs.get(reg))
            .map(|s| self.backend.elements(s))
            .unwrap_or_default()
    }

    /// Lineage of a live memory cell, resolved to sorted input indices.
    pub fn mem_elements(&self, addr: MemAddr) -> Vec<u64> {
        self.mem.get(&addr).map(|s| self.backend.elements(s)).unwrap_or_default()
    }

    /// Bounded variant of [`reg_elements`](Self::reg_elements): the
    /// `limit` smallest indices, at cost proportional to the output.
    /// Reporting paths should prefer this.
    pub fn reg_elements_up_to(&self, tid: ThreadId, reg: usize, limit: usize) -> Vec<u64> {
        self.regs
            .get(tid as usize)
            .and_then(|regs| regs.get(reg))
            .map(|s| self.backend.elements_up_to(s, limit))
            .unwrap_or_default()
    }

    /// Bounded variant of [`mem_elements`](Self::mem_elements).
    pub fn mem_elements_up_to(&self, addr: MemAddr, limit: usize) -> Vec<u64> {
        self.mem.get(&addr).map(|s| self.backend.elements_up_to(s, limit)).unwrap_or_default()
    }

    /// Channel that produced each input index (indexed by input index).
    pub fn input_channels(&self) -> &[u16] {
        &self.input_channels
    }

    /// Distinct input channels behind a set of input indices, sorted.
    pub fn channels_of(&self, elements: &[u64]) -> Vec<u16> {
        let mut chs: Vec<u16> =
            elements.iter().filter_map(|&i| self.input_channels.get(i as usize).copied()).collect();
        chs.sort_unstable();
        chs.dedup();
        chs
    }

    /// Apply one step's effects to the lineage state, Machine-free.
    ///
    /// Returns the cycle charge the instrumented machine should pay
    /// ([`costs::LINEAGE_PER_INSN`] plus per-union backend costs); the
    /// [`Tool`] impl forwards it to [`Machine::charge`], offline
    /// consumers (the sentinel's sink observer) discard or re-account
    /// it.
    pub fn process(&mut self, fx: &StepEffects) -> u64 {
        let tid = fx.tid;
        self.ensure_tid(tid);
        let t = tid as usize;
        self.stats.instrs += 1;
        let mut charge = costs::LINEAGE_PER_INSN;

        // Source label.
        let out_set = if let Opcode::In { channel, .. } = fx.insn.op {
            let idx = self.inputs_seen;
            self.inputs_seen += 1;
            debug_assert_eq!(self.input_channels.len() as u64, idx);
            self.input_channels.push(channel);
            self.backend.singleton(idx)
        } else {
            // Union of data sources.
            let mut acc = self.backend.empty();
            for r in &fx.insn.data_uses() {
                let s = self.regs[t][r.index()].clone();
                if !self.backend.is_empty(&s) {
                    let (u, c) = self.backend.union(&acc, &s);
                    acc = u;
                    self.stats.unions += 1;
                    charge += c;
                }
            }
            if let Some((addr, _)) = fx.mem_read {
                if let Some(s) = self.mem.get(&addr).cloned() {
                    let (u, c) = self.backend.union(&acc, &s);
                    acc = u;
                    self.stats.unions += 1;
                    charge += c;
                }
            }
            acc
        };

        if let Some((r, _, _)) = fx.reg_write {
            self.set_reg(tid, r.index(), out_set.clone());
        }
        if let Some((addr, _, _)) = fx.mem_write {
            self.set_mem(addr, out_set.clone());
        }

        if let Some((ch, _)) = fx.output {
            let idx = self.out_counts.entry(ch).or_insert(0);
            let set = fx
                .insn
                .data_uses()
                .as_slice()
                .first()
                .map(|r| self.regs[t][r.index()].clone())
                .unwrap_or_else(|| self.backend.empty());
            let elems = self.backend.elements(&set);
            self.stats.max_output_set = self.stats.max_output_set.max(elems.len() as u64);
            self.outputs.push((ch, *idx, elems));
            *idx += 1;
        }

        if self.stats.instrs % self.sample_every == 0 {
            self.sample_memory();
        }
        charge
    }

    /// Overwrite a register's lineage. The new set is retained before
    /// the old one is released, so rewriting a set with itself (or a
    /// superset sharing its nodes) moves no reference count to zero
    /// and back.
    pub(crate) fn set_reg(&mut self, tid: ThreadId, reg: usize, s: B::Set) {
        self.ensure_tid(tid);
        self.backend.retain(&s);
        let old = std::mem::replace(&mut self.regs[tid as usize][reg], s);
        self.backend.release(&old);
    }

    /// Overwrite a memory cell's lineage; an empty set frees the cell.
    /// Same retain-before-release order as [`set_reg`](Self::set_reg).
    pub(crate) fn set_mem(&mut self, addr: MemAddr, s: B::Set) {
        let empty = self.backend.is_empty(&s);
        self.backend.retain(&s);
        let old = if empty { self.mem.remove(&addr) } else { self.mem.insert(addr, s) };
        if let Some(old) = old {
            self.backend.release(&old);
        }
    }

    /// Fold the current shadow footprint into the peak statistics —
    /// O(1): the backend keeps the retained sets' bytes up to date.
    pub(crate) fn sample_memory(&mut self) {
        let bytes = self.backend.live_bytes();
        if bytes > self.stats.peak_shadow_bytes {
            self.stats.peak_shadow_bytes = bytes;
        }
        if self.mem.len() > self.stats.peak_tracked_words {
            self.stats.peak_tracked_words = self.mem.len();
        }
    }
}

impl<B: LineageBackend> Tool for LineageEngine<B> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        let charge = self.process(fx);
        m.charge(charge);
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.sample_memory();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BddBackend, NaiveBackend};
    use dift_dbi::Engine;
    use dift_workloads::science::{self, SciencePipeline};

    fn run_pipeline<B: LineageBackend>(p: &SciencePipeline, backend: B) -> (LineageEngine<B>, u64) {
        let m = p.workload.machine();
        let mut eng = LineageEngine::new(backend);
        let mut dbi = Engine::new(m);
        let r = dbi.run_tool(&mut eng);
        assert!(r.status.is_clean(), "{:?}", r.status);
        (eng, r.cycles)
    }

    #[test]
    fn binning_lineage_matches_ground_truth_bdd() {
        let p = science::binning(32, 8);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn binning_lineage_matches_ground_truth_naive() {
        let p = science::binning(32, 8);
        let (eng, _) = run_pipeline(&p, NaiveBackend::new());
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn window_lineage_matches_ground_truth() {
        let p = science::sliding_window(24, 4);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "window {k}");
        }
    }

    #[test]
    fn scatter_lineage_matches_ground_truth() {
        let p = science::scatter_sum(48, 8);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn prefix_sum_lineage_matches_ground_truth() {
        let p = science::prefix_sum(24);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "cell {k}");
        }
    }

    #[test]
    fn bdd_backend_uses_less_peak_memory_on_resident_overlap() {
        // prefix_sum keeps {0..=k} resident per cell: the naive backend
        // pays O(n^2) words while roBDD ranges share structure.
        let p = science::prefix_sum(96);
        let (bdd, _) = run_pipeline(&p, BddBackend::new(16));
        let p2 = science::prefix_sum(96);
        let (naive, _) = run_pipeline(&p2, NaiveBackend::new());
        assert!(
            bdd.stats().peak_shadow_bytes * 2 < naive.stats().peak_shadow_bytes,
            "bdd {} vs naive {}",
            bdd.stats().peak_shadow_bytes,
            naive.stats().peak_shadow_bytes
        );
    }

    #[test]
    fn bdd_backend_is_cheaper_in_cycles_on_large_sets() {
        let p = science::prefix_sum(96);
        let (_, bdd_cycles) = run_pipeline(&p, BddBackend::new(16));
        let p2 = science::prefix_sum(96);
        let (_, naive_cycles) = run_pipeline(&p2, NaiveBackend::new());
        assert!(bdd_cycles < naive_cycles, "{bdd_cycles} vs {naive_cycles}");
    }

    #[test]
    fn slowdown_is_bounded() {
        // The paper: typical slowdown < 40x with infrastructure overhead
        // discounted. Our whole-stack factor must stay in that regime.
        let p = science::binning(64, 8);
        let native = p.workload.machine().run().cycles;
        let (_, traced) = run_pipeline(&p, BddBackend::new(16));
        let factor = traced as f64 / native as f64;
        assert!(factor < 40.0, "slowdown {factor:.1}x");
        assert!(factor > 1.0);
    }
}
