//! The one epoch-stream core every summarize-then-compose analysis runs
//! on (DESIGN §9, §11, §17).
//!
//! An epoch summary is a pure function of the epoch's records and its
//! label-independent I/O base, so the mechanics of fanning a captured
//! stream out are the same whatever the analysis: pre-scan the bases,
//! let workers claim epochs from a shared counter, isolate each
//! attempt's faults and panics, check every summary's record count, and
//! re-summarize whatever failed inline — which cannot fail, so the
//! result is always bit-identical to serial processing. [`run_epochs`]
//! owns all of that and hands back valid summaries in epoch order; the
//! taint stream, lineage and channel runners only compose them.

use crate::faultplan::{FaultPlan, FaultSite, INJECTED_PANIC_MARKER};
use crate::resilience::RecoveryStats;
use dift_taint::IoBase;
use dift_vm::StepEffects;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Outcome of one per-epoch [`attempt`].
enum Attempt<S> {
    /// Injected `QueueStall`: the worker wedged before starting.
    Stalled,
    /// Injected `DropMessage` (the records never arrived), or the
    /// summarizer panicked.
    Lost,
    /// A summary, not yet validated.
    Done(S),
}

/// Summarize `records` (epoch `epoch`, based at `base`) at fault-plan
/// coordinate `(home, epoch)`. Checks the four [`FaultSite`]s in order —
/// stall, drop, panic, corrupt (a panic preempts corruption) — and
/// catches panics, so an attempt never unwinds. Returns the outcome and
/// how many injected faults fired.
fn attempt<S, F: FaultPlan>(
    faults: &F,
    home: usize,
    epoch: usize,
    records: &[StepEffects],
    base: &IoBase,
    summarize: &impl Fn(&[StepEffects], &IoBase, usize) -> S,
) -> (Attempt<S>, u64) {
    let fires = |site| F::ARMED && faults.fires(site, home, epoch);
    if fires(FaultSite::QueueStall) {
        return (Attempt::Stalled, 1);
    }
    if fires(FaultSite::DropMessage) {
        return (Attempt::Lost, 1);
    }
    let inject_panic = fires(FaultSite::ShardPanic);
    let corrupt = !inject_panic && fires(FaultSite::CorruptSummary);
    let res = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic_any(format!("{INJECTED_PANIC_MARKER} scripted worker panic"));
        }
        // Injected corruption: silently skip the epoch's first record —
        // damage only the record-count integrity check can see.
        summarize(if corrupt { &records[1..] } else { records }, base, epoch)
    }));
    let fired = u64::from(inject_panic) + u64::from(corrupt);
    (res.map_or(Attempt::Lost, Attempt::Done), fired)
}

/// What [`run_epochs`] hands its caller to compose.
pub(crate) struct EpochRun<S> {
    /// One valid summary per epoch, in epoch order.
    pub summaries: Vec<S>,
    /// Epochs re-summarized inline, in epoch order.
    pub lost: Vec<usize>,
    pub recovery: RecoveryStats,
    /// Per-worker summarize time, failed attempts included.
    pub worker_nanos: Vec<u64>,
}

/// Epoch-parallel summarization of a pre-captured stream: `workers`
/// scoped threads claim `epoch_len`-record epochs from a shared counter
/// and run them through [`attempt`]; a stalled worker stops claiming and
/// the others absorb its share. Faults are checked at the epoch's
/// round-robin home coordinate `(epoch % workers, epoch)`, whichever
/// thread claims it, so a plan hits the same epochs on every run. Every
/// summary must then report exactly its epoch's record count through
/// `instrs`; any epoch that is missing or fails the check is
/// re-summarized inline. That call is not under `catch_unwind`: a real
/// summarizer bug aborts the run with its own message.
pub(crate) fn run_epochs<S: Send, F: FaultPlan>(
    stream: &[StepEffects],
    epoch_len: usize,
    workers: usize,
    faults: F,
    summarize: impl Fn(&[StepEffects], &IoBase, usize) -> S + Sync,
    instrs: impl Fn(&S) -> u64,
) -> EpochRun<S> {
    assert!(epoch_len >= 1, "epochs must be non-empty");
    assert!(workers >= 1, "at least one worker");
    let chunks: Vec<&[StepEffects]> = stream.chunks(epoch_len).collect();
    // Sequential pre-scan: per-channel I/O counts at each epoch start
    // (label-independent, so it does not limit scaling).
    let mut bases = Vec::with_capacity(chunks.len());
    let mut base = IoBase::default();
    for c in &chunks {
        bases.push(base.clone());
        base.advance(c);
    }

    let next = AtomicUsize::new(0);
    let (chunks_ref, bases_ref, summarize_ref) = (&chunks, &bases, &summarize);
    let per_worker: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (faults, next) = (faults.clone(), &next);
                s.spawn(move || {
                    let (mut nanos, mut fired, mut done) = (0u64, 0u64, Vec::new());
                    let stalled = loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= chunks_ref.len() {
                            break false;
                        }
                        let t0 = Instant::now();
                        let (res, n) = attempt(
                            &faults,
                            i % workers,
                            i,
                            chunks_ref[i],
                            &bases_ref[i],
                            summarize_ref,
                        );
                        nanos += t0.elapsed().as_nanos() as u64;
                        fired += n;
                        match res {
                            Attempt::Stalled => break true,
                            Attempt::Lost => {}
                            Attempt::Done(sum) => done.push((i, sum)),
                        }
                    };
                    (nanos, fired, stalled, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("attempts catch panics, so a worker cannot unwind"))
            .collect()
    });

    let mut slots: Vec<Option<S>> = chunks.iter().map(|_| None).collect();
    let mut worker_nanos = Vec::with_capacity(workers);
    let mut recovery = RecoveryStats::default();
    for (nanos, fired, stalled, done) in per_worker {
        worker_nanos.push(nanos);
        recovery.faults_injected += fired;
        recovery.shards_lost += u64::from(stalled);
        for (i, sum) in done {
            slots[i] = Some(sum);
        }
    }
    let mut lost = Vec::new();
    let summaries = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            // An epoch survives only if its summary exists and saw exactly
            // the epoch's records (the corruption/partial-delivery check).
            match slot.filter(|s| instrs(s) == chunks[i].len() as u64) {
                Some(sum) => sum,
                None => {
                    lost.push(i);
                    summarize(chunks[i], &bases[i], i)
                }
            }
        })
        .collect();
    let n = lost.len() as u64;
    recovery.epochs_lost = n;
    recovery.degraded_epochs = n;
    recovery.epochs_recovered = n;
    EpochRun { summaries, lost, recovery, worker_nanos }
}
