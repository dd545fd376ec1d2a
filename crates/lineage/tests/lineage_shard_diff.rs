//! Differential property tests for the epoch-sharded lineage pipeline:
//! [`shard_lineage_stream`] must reproduce the serial [`LineageEngine`]
//! bit for bit — per-output lineage sets, per-value register and memory
//! sets (via `elements`), input-channel provenance — across random
//! programs × shard counts × epoch lengths, with and without injected
//! faults.
//!
//! The programs interleave mid-stream `input` instructions with ALU
//! mixes and direct/indirect memory traffic, so input identifiers are
//! allocated across epoch boundaries and the `IoBase` numbering has to
//! agree with the serial engine's running counter.

mod common;

use common::{build, capture, step, Step, OPS, SLOT_BASE};
use dift_lineage::{BddBackend, LineageEngine};
use dift_multicore::{
    shard_lineage_stream, shard_lineage_stream_tolerant, silence_injected_panics, FaultSite,
    Injection, LineageShardConfig, LineageShardRun, ScriptedFaults,
};
use dift_vm::{MachineConfig, StepEffects};
use proptest::prelude::*;

fn serial(fxs: &[StepEffects]) -> LineageEngine<BddBackend> {
    let mut eng = LineageEngine::new(BddBackend::new(16));
    for fx in fxs {
        eng.process(fx);
    }
    eng
}

/// Every observable the serial engine exposes must agree.
fn assert_agrees(run: &LineageShardRun, want: &LineageEngine<BddBackend>, what: &str) {
    let got = &run.engine;
    assert_eq!(got.outputs, want.outputs, "{what}: per-output lineage sets");
    assert_eq!(got.input_channels(), want.input_channels(), "{what}: input provenance");
    assert_eq!(got.inputs_seen(), want.inputs_seen(), "{what}: input count");
    for r in 0..16usize {
        assert_eq!(got.reg_elements(0, r), want.reg_elements(0, r), "{what}: r{r} lineage");
    }
    for s in 0..64u64 {
        let a = SLOT_BASE as u64 + s;
        assert_eq!(got.mem_elements(a), want.mem_elements(a), "{what}: mem[{a}] lineage");
    }
    assert_eq!(got.stats().instrs, want.stats().instrs, "{what}: instrs");
    assert_eq!(got.stats().max_output_set, want.stats().max_output_set, "{what}: max output set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free sharded runs across random programs × shard counts ×
    /// epoch lengths.
    #[test]
    fn sharded_lineage_matches_serial(
        steps in proptest::collection::vec(step(), 8..48),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
        epoch_len in 3usize..24,
        workers in 1usize..5,
    ) {
        let p = build(inputs.len(), &steps);
        let fxs = capture(&p, &inputs, &steps);
        let want = serial(&fxs);
        let mem_words = MachineConfig::small().mem_words;
        let cfg = LineageShardConfig::new(workers, epoch_len, 16);
        let run = shard_lineage_stream(&fxs, &p, mem_words, &cfg);
        assert_agrees(&run, &want, &format!("workers={workers} epoch_len={epoch_len}"));
        prop_assert!(!run.recovery.eventful(), "fault-free run must be uneventful");
        prop_assert_eq!(run.stats.epochs, fxs.len().div_ceil(epoch_len) as u64);
    }

    /// Random seeded fault plans: whatever fires, the run completes
    /// bit-identical and accounts its recoveries.
    #[test]
    fn sharded_lineage_matches_serial_under_faults(
        steps in proptest::collection::vec(step(), 8..48),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
        epoch_len in 3usize..24,
        workers in 2usize..5,
        seed in 0u64..u64::MAX,
        nfaults in 1usize..6,
    ) {
        silence_injected_panics();
        let p = build(inputs.len(), &steps);
        let fxs = capture(&p, &inputs, &steps);
        let want = serial(&fxs);
        let mem_words = MachineConfig::small().mem_words;
        let cfg = LineageShardConfig::new(workers, epoch_len, 16);
        let epochs = fxs.len() / epoch_len + 1;
        let plan = ScriptedFaults::seeded(seed, nfaults, workers, epochs);
        let run = shard_lineage_stream_tolerant(&fxs, &p, mem_words, &cfg, plan);
        assert_agrees(&run, &want, "tolerant sharded lineage");
        prop_assert_eq!(run.recovery.epochs_recovered, run.recovery.epochs_lost, "{:?}", run.recovery);
    }
}

/// The deterministic fault grid: every site × the first two shards.
#[test]
fn every_fault_site_recovers_bit_identical() {
    silence_injected_panics();
    let steps: Vec<Step> = (0..40)
        .map(|i| match i % 5 {
            0 => Step::Alu { op: i % OPS.len(), rd: 2, rs1: 1, rs2: 2 },
            1 => Step::Store { rs: 2, slot: (i % 8) as u8 },
            2 => Step::LoadVia { rd: 3, rs: 2 },
            3 => Step::Input { rd: 4 },
            _ => Step::Output { rs: 2 },
        })
        .collect();
    let p = build(2, &steps);
    let fxs = capture(&p, &[7, 13], &steps);
    let want = serial(&fxs);
    let mem_words = MachineConfig::small().mem_words;
    let cfg = LineageShardConfig::new(3, 8, 16);
    for site in FaultSite::ALL {
        for epoch in 0..2usize {
            // Epoch→shard assignment is claim-based (nondeterministic),
            // so arm the site on every shard: whichever worker claims
            // the target epoch hits it.
            let plan = ScriptedFaults::new(
                (0..cfg.workers).map(|shard| Injection { site, shard, epoch }).collect(),
            );
            let run = shard_lineage_stream_tolerant(&fxs, &p, mem_words, &cfg, plan);
            let what = format!("{site:?} at epoch {epoch}");
            assert_agrees(&run, &want, &what);
            assert!(run.recovery.faults_injected >= 1, "{what}: fault must fire");
            assert!(run.recovery.epochs_recovered >= 1, "{what}: must recover");
        }
    }
}

/// Epoch boundaries falling mid-input-burst: the symbolic numbering
/// must still line up with the serial running counter.
#[test]
fn inputs_straddling_epoch_boundaries_number_correctly() {
    let steps: Vec<Step> = (0..30)
        .map(|i| {
            if i % 2 == 0 {
                Step::Input { rd: (i % 8 + 1) as u8 }
            } else {
                Step::Output { rs: (i % 8 + 1) as u8 }
            }
        })
        .collect();
    let p = build(1, &steps);
    let fxs = capture(&p, &[3], &steps);
    let want = serial(&fxs);
    let mem_words = MachineConfig::small().mem_words;
    for epoch_len in [1usize, 2, 3, 5, 7] {
        let cfg = LineageShardConfig::new(2, epoch_len, 16);
        let run = shard_lineage_stream(&fxs, &p, mem_words, &cfg);
        assert_agrees(&run, &want, &format!("epoch_len={epoch_len}"));
    }
}
