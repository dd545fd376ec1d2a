//! Epoch-parallel DIFT across N helper shards.
//!
//! The single-helper offload ([`crate::helper::run_helper_dift`]) leaves
//! the helper a serial consumer: its clock lower-bounds completion no
//! matter how fast the channel is. This module fans propagation out:
//! the effects stream is split into fixed-size **epochs**, whole epochs
//! are steered round-robin to N shard threads, and each shard computes
//! its epochs' *taint transfer summaries* (`dift_taint::summary`) — the
//! epoch's output labels over symbolic unknown incoming labels, which
//! requires no upstream taint state and therefore no inter-shard
//! coordination. A cheap sequential composition pass then stitches the
//! summaries in epoch order, producing results **bit-identical** to the
//! serial engine: labels, alerts (with origins), output lineage, and
//! exact peak statistics.
//!
//! Two independent views of the same fan-out:
//!
//! * **Real parallelism** — shard threads genuinely run on other cores.
//!   [`epoch_process_stream`] is the taint instance of the crate's one
//!   epoch-stream core (`crate::stream`, shared with
//!   [`crate::lineage_shard`]): workers claim epochs of a pre-captured
//!   stream from a shared counter, and the caller composes.
//! * **Modeled timing** — the channel runner, [`run_epoch_dift`], keeps
//!   the VM in the loop: the producer steers whole epochs round-robin
//!   over per-shard channels to incremental shard loops, and
//!   [`EpochModel`] extends [`ChannelModel`] with a fan-out steering
//!   cost, per-shard bounded queues ([`MultiQueueSim`]), and a
//!   per-epoch composition charge at the barrier; reported cycles stay
//!   deterministic and host-independent.
//!
//! ## Fault tolerance
//!
//! Because an epoch summary is a pure function of the epoch's records
//! and its I/O base, a lost epoch is recomputable anywhere with
//! bit-identical results. [`run_epoch_dift_tolerant`] exploits that:
//! shard panics are caught per epoch, stalled shards are detected by
//! progress watermarks and abandoned, surviving summaries must pass a
//! record-count integrity check, and whatever is lost is re-summarized
//! on spare shards ([`RecoveryPolicy::max_retries`] rounds, each epoch
//! through the stream core's fault-checked per-epoch attempt) and
//! finally inline on the main thread — the graceful degradation to
//! serial DIFT, which cannot fail. Faults themselves are injected
//! deterministically through a [`FaultPlan`] ([`NoopFaults`] by default,
//! which compiles every injection site away). See DESIGN.md §11.

use crate::channel::{ChannelModel, MultiQueueSim};
use crate::faultplan::{FaultPlan, FaultSite, NoopFaults, INJECTED_PANIC_MARKER};
use crate::helper::{panic_message, DiftRun, MulticoreStats, BATCH_SIZE};
use crate::resilience::{RecoveryPolicy, RecoveryStats};
use crate::stream::{attempt, run_epochs, Attempt};
use crossbeam::channel as xbeam;
use dift_dbi::{Engine, Tool};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_taint::{
    summarize_epoch, EpochSummarizer, EpochSummary, IoBase, TaintEngine, TaintLabel, TaintPolicy,
};
use dift_vm::{Machine, RunResult, StepEffects};
use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Timing model of the epoch-parallel offload.
#[derive(Clone, Copy, Debug)]
pub struct EpochModel {
    /// The per-shard channel (each shard owns a queue of this shape).
    pub chan: ChannelModel,
    /// Helper shards propagation fans out across.
    pub workers: usize,
    /// Instructions per epoch. Larger epochs amortize composition but
    /// coarsen load balancing.
    pub epoch_len: usize,
    /// Extra main-core cycles per message to steer it to a shard (the
    /// software fan-out pays an extra indirection; dedicated hardware
    /// routes by epoch counter for free).
    pub fanout_cycles: u64,
    /// Cycles of the sequential composition pass charged per epoch at
    /// the barrier (resolving a summary's incoming labels and replaying
    /// its events is proportional to epoch state touched, bounded and
    /// small relative to the epoch itself).
    pub compose_per_epoch: u64,
}

impl EpochModel {
    /// Shared-memory fan-out: software steering pays a cycle per message.
    ///
    /// `epoch_len` equals the per-shard queue depth: a whole epoch is
    /// steered to one shard back-to-back, so the shard's queue must
    /// buffer a full epoch for the producer to race ahead to the next
    /// shard while this one drains — that overlap is where fan-out wins.
    /// A longer epoch than the queue re-serializes the producer on the
    /// current shard no matter how many shards exist.
    pub fn software(workers: usize) -> EpochModel {
        let chan = ChannelModel::software();
        EpochModel {
            chan,
            workers,
            epoch_len: chan.queue_depth,
            fanout_cycles: 1,
            compose_per_epoch: 64,
        }
    }

    /// Hardware fan-out: the interconnect routes by epoch counter.
    pub fn hardware(workers: usize) -> EpochModel {
        let chan = ChannelModel::hardware();
        EpochModel {
            chan,
            workers,
            epoch_len: chan.queue_depth,
            fanout_cycles: 0,
            compose_per_epoch: 64,
        }
    }
}

/// One physical channel send: a batch of records belonging to a single
/// epoch. The first batch of an epoch carries the per-channel I/O counts
/// of the stream prefix (a label-independent fact the producer tracks),
/// which the shard needs to seed global source/output indices. Records
/// travel behind an `Arc` so the producer can retain the epoch for
/// recovery without copying the stream.
struct ShardBatch {
    epoch: usize,
    base: Option<IoBase>,
    records: Arc<Vec<StepEffects>>,
}

/// What a shard reports back to the runner over the results channel.
/// Per-epoch messages (instead of one bulk return at join) are what let
/// completed epochs survive the death of their shard.
enum ShardMsg<T: TaintLabel> {
    /// An epoch's finished summary, with the shard's busy nanos for it
    /// (0 unless a live recorder asked for timing). The shard is implied:
    /// the runner only cares which epoch came back. Boxed so the channel
    /// moves a pointer, not the whole summary arena header.
    Epoch { epoch: usize, summary: Box<EpochSummary<T>>, nanos: u64 },
    /// An epoch was lost on this shard (panic caught, or a protocol
    /// violation like a missing I/O base); the shard moves on.
    Failed { shard: usize, epoch: usize, msg: String },
    /// The shard drained its queue and exited cleanly.
    Done { shard: usize, faults: u64 },
}

/// Shared per-shard progress ledger for stall detection.
struct ShardState {
    /// Batches drained so far — the progress watermark.
    batches: AtomicU64,
    /// Epoch the shard last started (`u64::MAX` before the first).
    epoch: AtomicU64,
    /// Set by the runner to tell an abandoned (wedged) shard to exit.
    abandon: AtomicBool,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            batches: AtomicU64::new(0),
            epoch: AtomicU64::new(u64::MAX),
            abandon: AtomicBool::new(false),
        }
    }
}

/// An epoch the producer kept for possible re-summarization: its I/O
/// base, its batches (shared `Arc`s, so retention is pointer-cheap), the
/// record count (the integrity oracle), and the shard it was steered to.
struct RetainedEpoch {
    base: IoBase,
    batches: Vec<Arc<Vec<StepEffects>>>,
    records: u64,
    shard: Option<usize>,
}

/// Tool that splits the effects stream into epochs and ships each epoch
/// to its round-robin shard, charging the fan-out timing model. Generic
/// over a [`FaultPlan`] so the producer-side injection sites (message
/// drops) monomorphize away under [`NoopFaults`].
struct EpochOffloader<R: Recorder, F: FaultPlan> {
    obs: R,
    faults: F,
    /// Producer-side injected faults that actually fired.
    faults_fired: u64,
    txs: Vec<Option<xbeam::Sender<ShardBatch>>>,
    batch: Vec<StepEffects>,
    batches: u64,
    queues: MultiQueueSim,
    model: EpochModel,
    /// Steps shipped so far (the epoch counter's numerator).
    seen: u64,
    /// Current epoch (`usize::MAX` until the first step).
    cur_epoch: usize,
    /// Live shard the current epoch is steered to (`None` if every
    /// shard is dead — the epoch is then recovered from retention).
    cur_shard: Option<usize>,
    /// Injected fault: drop the current epoch's channel traffic.
    cur_drop: bool,
    /// Keep every epoch's batches for recovery (tolerant or armed runs).
    retain: bool,
    retained: Vec<RetainedEpoch>,
    /// With recovery enabled, sends time out after this long instead of
    /// blocking forever on a wedged shard's full queue.
    send_deadline: Option<Duration>,
    /// Running per-channel I/O counts through the current position.
    running: IoBase,
    /// Snapshot of `running` at the current epoch's start.
    epoch_base: IoBase,
    /// Whether the next flush is the epoch's first (must carry the base).
    need_base: bool,
}

impl<R: Recorder, F: FaultPlan> EpochOffloader<R, F> {
    /// First live shard at or after the epoch's round-robin home.
    fn pick_shard(&self, epoch: usize) -> Option<usize> {
        let n = self.txs.len();
        (0..n).map(|k| (epoch + k) % n).find(|&s| self.txs[s].is_some())
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let records = Arc::new(std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH_SIZE)));
        let base = self.need_base.then(|| self.epoch_base.clone());
        self.need_base = false;
        if self.retain {
            let r = &mut self.retained[self.cur_epoch];
            r.records += records.len() as u64;
            r.batches.push(Arc::clone(&records));
        }
        if F::ARMED && self.cur_drop {
            return; // injected fault: the epoch's traffic never arrives
        }
        let Some(shard) = self.cur_shard else { return };
        let Some(tx) = &self.txs[shard] else { return };
        let batch = ShardBatch { epoch: self.cur_epoch, base, records };
        let sent = match self.send_deadline {
            Some(deadline) => match tx.send_timeout(batch, deadline) {
                Ok(()) => true,
                Err(_) => {
                    // Full past the stall timeout (or receiver gone):
                    // the shard is wedged or dead. Stop feeding it; its
                    // epochs come back through recovery.
                    self.txs[shard] = None;
                    false
                }
            },
            None => tx.send(batch).is_ok(),
        };
        if sent {
            self.batches += 1;
            if R::ENABLED {
                self.obs.add(Metric::McBatches, 1);
            }
        }
    }
}

impl<R: Recorder, F: FaultPlan> Tool for EpochOffloader<R, F> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        let e = (self.seen / self.model.epoch_len as u64) as usize;
        if e != self.cur_epoch {
            // Epoch boundary: ship the previous epoch's tail before any
            // record of the new one, then snapshot the I/O counts the
            // new epoch's summarizer must be seeded with.
            self.flush();
            self.cur_epoch = e;
            self.epoch_base = self.running.clone();
            self.need_base = true;
            self.cur_shard = self.pick_shard(e);
            self.cur_drop = false;
            if F::ARMED {
                if let Some(shard) = self.cur_shard {
                    if self.faults.fires(FaultSite::DropMessage, shard, e) {
                        self.cur_drop = true;
                        self.faults_fired += 1;
                    }
                }
            }
            if self.retain {
                self.retained.push(RetainedEpoch {
                    base: self.epoch_base.clone(),
                    batches: Vec::new(),
                    records: 0,
                    shard: self.cur_shard,
                });
            }
        }
        // Producer cost: enqueue + shard steering, plus any stall from
        // *this* epoch's shard queue (other shards never block it). The
        // model always charges the round-robin home shard, so modeled
        // stats are identical whatever the real channels do.
        m.charge(self.model.chan.enqueue_cycles + self.model.fanout_cycles);
        let shard = self.cur_epoch % self.queues.shards();
        let stall = self.queues.enqueue(shard, m.cycles());
        if stall > 0 {
            m.charge(stall);
        }
        if R::ENABLED {
            self.obs.add(Metric::McMessages, 1);
            self.obs.add(Metric::McStallCycles, stall);
            self.obs.observe(Metric::McQueueDepth, self.queues.depth(shard) as u64);
        }
        self.batch.push(fx.clone());
        if let Some((ch, _)) = fx.input {
            *self.running.inputs.entry(ch).or_insert(0) += 1;
        }
        if let Some((ch, _)) = fx.output {
            *self.running.outputs.entry(ch).or_insert(0) += 1;
        }
        self.seen += 1;
        if self.batch.len() >= BATCH_SIZE || stall > 0 || fx.spawned.is_some() {
            self.flush();
        }
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.flush();
    }
}

/// Finish the shard's in-progress epoch (if any) and report it. The
/// `finish` call runs under `catch_unwind` so a label-policy bug in the
/// finalization costs one epoch, not the shard.
fn finish_epoch<T: TaintLabel>(
    cur: &mut Option<(usize, EpochSummarizer<T>)>,
    busy: &mut Duration,
    shard: usize,
    timed: bool,
    out: &xbeam::Sender<ShardMsg<T>>,
) {
    if let Some((epoch, s)) = cur.take() {
        let start = timed.then(Instant::now);
        match catch_unwind(AssertUnwindSafe(|| s.finish())) {
            Ok(summary) => {
                let mut nanos = busy.as_nanos() as u64;
                if let Some(start) = start {
                    nanos += start.elapsed().as_nanos() as u64;
                }
                let _ = out.send(ShardMsg::Epoch { epoch, summary: Box::new(summary), nanos });
            }
            Err(payload) => {
                let _ = out.send(ShardMsg::Failed { shard, epoch, msg: panic_message(payload) });
            }
        }
        *busy = Duration::ZERO;
    }
}

/// A shard's consumer loop: summarize every epoch steered to it. Epochs
/// arrive in this shard's stream order, so one live summarizer suffices.
/// Panics while stepping or finishing an epoch are caught and reported
/// as [`ShardMsg::Failed`] — one bad epoch never takes down the shard or
/// its other epochs. With `timed` set (a live recorder upstream), each
/// epoch's wall-clock summarization nanos are measured — busy time only,
/// not queue waits.
fn shard_loop<T: TaintLabel, F: FaultPlan>(
    shard: usize,
    rx: xbeam::Receiver<ShardBatch>,
    out: xbeam::Sender<ShardMsg<T>>,
    policy: TaintPolicy,
    timed: bool,
    faults: F,
    state: Arc<ShardState>,
) {
    let mut cur: Option<(usize, EpochSummarizer<T>)> = None;
    let mut busy = Duration::ZERO;
    // Epoch being skipped after a failure (its remaining batches are
    // already in flight and must be drained without summarizing).
    let mut skip: Option<usize> = None;
    let mut faults_fired = 0u64;
    while let Ok(b) = rx.recv() {
        state.batches.fetch_add(1, Ordering::Relaxed);
        if skip == Some(b.epoch) {
            continue;
        }
        let start = timed.then(Instant::now);
        let switch = cur.as_ref().is_none_or(|(e, _)| *e != b.epoch);
        if switch {
            finish_epoch(&mut cur, &mut busy, shard, timed, &out);
            skip = None;
            state.epoch.store(b.epoch as u64, Ordering::Relaxed);
            if F::ARMED && faults.fires(FaultSite::QueueStall, shard, b.epoch) {
                // Injected wedge: stop draining the queue, exactly like a
                // stuck consumer. Only the runner's progress watermark
                // can notice; the abandon flag lets the thread exit once
                // the runner gives up on it (a real wedged thread would
                // leak — this one cleans up after the test).
                while !state.abandon.load(Ordering::Relaxed) {
                    thread::sleep(Duration::from_millis(1));
                }
                return; // abandoned: no Done message
            }
            let Some(base) = b.base.as_ref() else {
                // Recoverable protocol violation: the epoch's base batch
                // never arrived (e.g. it timed out on a full queue).
                // Report the loss and drain the epoch's remains.
                let _ = out.send(ShardMsg::Failed {
                    shard,
                    epoch: b.epoch,
                    msg: "first batch of the epoch arrived without its I/O base".to_string(),
                });
                skip = Some(b.epoch);
                continue;
            };
            cur = Some((b.epoch, EpochSummarizer::new(policy, base)));
        }
        let Some((epoch, s)) = cur.as_mut() else { continue };
        let epoch = *epoch;
        let corrupt = F::ARMED && switch && faults.fires(FaultSite::CorruptSummary, shard, epoch);
        let inject_panic = F::ARMED && switch && faults.fires(FaultSite::ShardPanic, shard, epoch);
        if corrupt {
            faults_fired += 1;
        }
        if inject_panic {
            faults_fired += 1;
        }
        // Injected corruption: silently skip the epoch's first record —
        // damage only the record-count integrity check can see.
        let records: &[StepEffects] = if corrupt { &b.records[1..] } else { &b.records };
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic_any(format!("{INJECTED_PANIC_MARKER} scripted shard panic"));
            }
            for fx in records {
                s.step(fx);
            }
        }));
        if let Err(payload) = stepped {
            let _ = out.send(ShardMsg::Failed { shard, epoch, msg: panic_message(payload) });
            cur = None;
            skip = Some(epoch);
            busy = Duration::ZERO;
            continue;
        }
        if let Some(start) = start {
            busy += start.elapsed();
        }
    }
    finish_epoch(&mut cur, &mut busy, shard, timed, &out);
    let _ = out.send(ShardMsg::Done { shard, faults: faults_fired });
}

/// Run `machine` with taint propagation fanned out across
/// `model.workers` helper shards, composing epoch summaries into a
/// final engine bit-identical to the serial offload. Fail-stop: a shard
/// failure aborts the run (see [`run_epoch_dift_tolerant`] for the
/// recovering variant).
pub fn run_epoch_dift<T: TaintLabel + Send + 'static>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
) -> DiftRun<T> {
    run_epoch_dift_tolerant(
        machine,
        model,
        policy,
        NoopRecorder,
        NoopFaults,
        RecoveryPolicy::fail_stop(),
    )
    .0
}

/// The fault-tolerant epoch runner: [`run_epoch_dift`] plus an
/// observability recorder, a [`FaultPlan`] adversary and a
/// [`RecoveryPolicy`]. The recorder sees the offloader (messages, stalls,
/// queue occupancy, batches), the shard and compose stages and the
/// recovery ledger, and is returned alongside the run so callers can
/// snapshot it; with [`NoopRecorder`] every probe compiles away.
///
/// With recovery enabled the run **always completes** with results
/// bit-identical to the serial engine, whatever single or multiple
/// faults the plan injects: lost epochs are detected (missing summary,
/// failed record-count check, or stranded on a stalled shard), retried
/// on spare shard threads, and finally re-summarized inline on the main
/// thread. With recovery disabled (fail-stop) the first shard failure
/// aborts with a diagnostic naming the shard and epoch.
///
/// `recovery.enabled` (or an armed plan) makes the producer retain each
/// epoch's batches — an `Arc` clone per batch, no record copying — and
/// switches producer sends to `send_timeout` so a wedged shard cannot
/// block the run forever.
pub fn run_epoch_dift_tolerant<T, R, F>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
    obs: R,
    faults: F,
    recovery: RecoveryPolicy,
) -> (DiftRun<T>, R)
where
    T: TaintLabel + Send + 'static,
    R: Recorder,
    F: FaultPlan,
{
    assert!(model.workers >= 1, "at least one shard");
    assert!(model.epoch_len >= 1, "epochs must be non-empty");
    let mut helper_policy = policy;
    helper_policy.charge_cycles = false; // the timing model owns the cost
    let mem_words = machine.mem_words();
    let retain = F::ARMED || recovery.enabled;

    // Per-shard channels in batch units, as in the single-helper path,
    // plus one unbounded results channel back (unbounded so shards never
    // block reporting — a blocked reporter would look like a stall).
    let cap = (model.chan.queue_depth / BATCH_SIZE).max(4);
    let (res_tx, res_rx) = xbeam::unbounded::<ShardMsg<T>>();
    let mut txs = Vec::with_capacity(model.workers);
    let mut states = Vec::with_capacity(model.workers);
    let mut handles = Vec::with_capacity(model.workers);
    for shard in 0..model.workers {
        let (tx, rx) = xbeam::bounded::<ShardBatch>(cap);
        let state = Arc::new(ShardState::new());
        let out = res_tx.clone();
        let plan = faults.clone();
        let st = Arc::clone(&state);
        txs.push(Some(tx));
        states.push(state);
        handles.push(thread::spawn(move || {
            shard_loop::<T, F>(shard, rx, out, helper_policy, R::ENABLED, plan, st)
        }));
    }
    drop(res_tx); // the runner only receives

    let mut off = EpochOffloader {
        obs,
        faults: faults.clone(),
        faults_fired: 0,
        txs,
        batch: Vec::with_capacity(BATCH_SIZE),
        batches: 0,
        queues: MultiQueueSim::new(model.chan, model.workers),
        model,
        seen: 0,
        cur_epoch: usize::MAX,
        cur_shard: None,
        cur_drop: false,
        retain,
        retained: Vec::new(),
        send_deadline: recovery.enabled.then_some(recovery.stall_timeout),
        running: IoBase::default(),
        epoch_base: IoBase::default(),
        need_base: false,
    };
    let mut dbi = Engine::new(machine);
    let result = dbi.run_tool(&mut off);
    off.flush();
    for tx in &mut off.txs {
        tx.take(); // close the channels so shards drain and exit
    }

    let total = if off.seen == 0 { 0 } else { off.cur_epoch + 1 };
    let mut obs = off.obs;
    let mut summaries: Vec<Option<EpochSummary<T>>> = (0..total).map(|_| None).collect();
    let mut failures: HashMap<usize, (usize, String)> = HashMap::new();
    let mut done = vec![false; model.workers];
    let mut stalled = vec![false; model.workers];
    let mut shard_faults = 0u64;

    let handle_msg = |msg: ShardMsg<T>,
                      summaries: &mut Vec<Option<EpochSummary<T>>>,
                      obs: &mut R,
                      done: &mut Vec<bool>,
                      shard_faults: &mut u64|
     -> Option<(usize, usize, String)> {
        match msg {
            ShardMsg::Epoch { epoch, summary, nanos } => {
                if R::ENABLED {
                    obs.observe(Metric::McShardEpochNanos, nanos);
                }
                if let Some(slot) = summaries.get_mut(epoch) {
                    *slot = Some(*summary);
                }
                None
            }
            ShardMsg::Failed { shard, epoch, msg } => Some((shard, epoch, msg)),
            ShardMsg::Done { shard, faults } => {
                done[shard] = true;
                *shard_faults += faults;
                None
            }
        }
    };

    if !recovery.enabled {
        // Fail-stop collection: the first reported loss aborts, naming
        // the shard and epoch (the panic a caller of the plain entry
        // points sees).
        while done.iter().any(|d| !d) {
            match res_rx.recv() {
                Ok(msg) => {
                    if let Some((shard, epoch, msg)) =
                        handle_msg(msg, &mut summaries, &mut obs, &mut done, &mut shard_faults)
                    {
                        panic!("epoch shard {shard} failed in epoch {epoch}: {msg}");
                    }
                }
                Err(_) => break, // a shard died without reporting; join() below explains
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                let at = match states[i].epoch.load(Ordering::Relaxed) {
                    u64::MAX => "before its first epoch".to_string(),
                    e => format!("in epoch {e}"),
                };
                panic!("epoch shard {i} panicked {at}: {}", panic_message(payload));
            }
        }
    } else {
        // Tolerant collection: gather what arrives, watch per-shard
        // progress watermarks, and abandon any shard that stops draining
        // for `stall_timeout`.
        let now = Instant::now();
        let mut watermarks: Vec<(u64, Instant)> =
            states.iter().map(|s| (s.batches.load(Ordering::Relaxed), now)).collect();
        while !done.iter().zip(&stalled).all(|(d, s)| *d || *s) {
            match res_rx.recv_timeout(recovery.backoff) {
                Ok(msg) => {
                    if let Some((shard, epoch, msg)) =
                        handle_msg(msg, &mut summaries, &mut obs, &mut done, &mut shard_faults)
                    {
                        failures.insert(epoch, (shard, msg));
                    }
                }
                Err(xbeam::RecvTimeoutError::Timeout) => {
                    for s in 0..model.workers {
                        if done[s] || stalled[s] {
                            continue;
                        }
                        let b = states[s].batches.load(Ordering::Relaxed);
                        if b != watermarks[s].0 {
                            watermarks[s] = (b, Instant::now());
                        } else if watermarks[s].1.elapsed() >= recovery.stall_timeout {
                            states[s].abandon.store(true, Ordering::Relaxed);
                            stalled[s] = true;
                            if F::ARMED {
                                let e = states[s].epoch.load(Ordering::Relaxed);
                                if e != u64::MAX
                                    && faults.fires(FaultSite::QueueStall, s, e as usize)
                                {
                                    shard_faults += 1;
                                }
                            }
                        }
                    }
                }
                Err(xbeam::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Late messages a shard sent before we noticed it was done.
        while let Ok(msg) = res_rx.try_recv() {
            if let Some((shard, epoch, msg)) =
                handle_msg(msg, &mut summaries, &mut obs, &mut done, &mut shard_faults)
            {
                failures.insert(epoch, (shard, msg));
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            if stalled[i] {
                // An injected wedge exits on the abandon flag; a real one
                // would not, so the handle is dropped (detached) rather
                // than joined — the run must not block on it.
                drop(h);
            } else {
                // A hard panic outside the per-epoch guards is treated
                // as shard loss: its epochs fail validation below.
                let _ = h.join();
            }
        }
    }

    let mut rs = RecoveryStats {
        faults_injected: off.faults_fired + shard_faults,
        shards_lost: stalled.iter().filter(|s| **s).count() as u64,
        ..RecoveryStats::default()
    };

    let retained = &off.retained;
    // Cycles of helper work re-done during recovery (charged to the
    // modeled completion below; exactly 0 on a fault-free run).
    let mut recovered_records = 0u64;
    if retain {
        // Validation: an epoch survives only if its summary exists and
        // saw exactly the records the producer shipped — the integrity
        // check that catches silent corruption and partial delivery. A
        // failed summary is dropped, so only a valid one can refill it.
        let mut lost: Vec<usize> = (0..total)
            .filter(|&e| summaries[e].as_ref().is_none_or(|s| s.instrs() != retained[e].records))
            .collect();
        for &e in &lost {
            summaries[e] = None;
        }
        rs.epochs_lost = lost.len() as u64;
        recovered_records = lost.iter().map(|&e| retained[e].records).sum();
        let reason = |e: usize| -> String {
            match failures.get(&e) {
                Some((shard, msg)) => format!("lost on shard {shard}: {msg}"),
                None => match retained[e].shard {
                    Some(s) => {
                        format!("summary from shard {s} missing or failed the record-count check")
                    }
                    None => "no live shard to steer the epoch to".to_string(),
                },
            }
        };
        // Recovery re-runs an epoch from its retained batches, flattened.
        let records = |e: usize| -> Vec<StepEffects> {
            retained[e].batches.iter().flat_map(|b| b.iter().cloned()).collect()
        };
        let summarize =
            |fxs: &[StepEffects], base: &IoBase, _| summarize_epoch::<T>(fxs, helper_policy, base);

        // Retry rounds: a fresh spare shard (a new thread with a new
        // shard index, so a pure fault plan sees fresh coordinates)
        // re-runs the lost epochs through the stream core's attempt.
        for round in 0..recovery.max_retries {
            if lost.is_empty() {
                break;
            }
            let spare = model.workers + round as usize;
            let (plan, lost_ref, summarize) = (faults.clone(), &lost, &summarize);
            let attempts: Vec<_> = thread::scope(|sc| {
                sc.spawn(move || {
                    let mut out = Vec::with_capacity(lost_ref.len());
                    for &e in lost_ref {
                        let start = Instant::now();
                        let (res, fired) =
                            attempt(&plan, spare, e, &records(e), &retained[e].base, summarize);
                        out.push((e, res, fired, start.elapsed().as_nanos() as u64));
                    }
                    out
                })
                .join()
                .unwrap_or_default()
            });
            for (e, res, fired, nanos) in attempts {
                rs.retries += 1;
                rs.faults_injected += fired;
                let Attempt::Done(sum) = res else { continue };
                if sum.instrs() == retained[e].records {
                    if R::ENABLED {
                        obs.observe(Metric::McRecoveryNanos, nanos);
                    }
                    eprintln!(
                        "dift-multicore: recovered epoch {e} on spare shard {spare} ({})",
                        reason(e)
                    );
                    summaries[e] = Some(sum);
                    rs.spare_recovered += 1;
                }
            }
            lost.retain(|&e| summaries[e].is_none());
        }

        // Graceful degradation: whatever is still missing is summarized
        // inline on the main thread — the serial DIFT path, which cannot
        // fail — so the run always completes.
        for &e in &lost {
            let start = Instant::now();
            summaries[e] = Some(summarize(&records(e), &retained[e].base, e));
            if R::ENABLED {
                obs.observe(Metric::McRecoveryNanos, start.elapsed().as_nanos() as u64);
            }
            eprintln!(
                "dift-multicore: recovered epoch {e} inline on the main thread ({})",
                reason(e)
            );
            rs.degraded_epochs += 1;
        }
        rs.epochs_recovered = rs.epochs_lost;
    }

    if R::ENABLED {
        obs.add(Metric::McFaultsInjected, rs.faults_injected);
        obs.add(Metric::McEpochsLost, rs.epochs_lost);
        obs.add(Metric::McEpochsRecovered, rs.epochs_recovered);
        obs.add(Metric::McRecoveryRetries, rs.retries);
        obs.add(Metric::McDegradedEpochs, rs.degraded_epochs);
        obs.add(Metric::McShardsLost, rs.shards_lost);
    }

    // Composition: summaries splice in epoch order; the result is
    // bit-identical to serial processing (see DESIGN.md §9 and §11).
    let mut engine = TaintEngine::<T>::new(helper_policy);
    engine.pre_size(mem_words);
    obs.timed(Metric::McComposeNanos, || {
        for (e, s) in summaries.iter().enumerate() {
            // Invariant: with recovery enabled every slot was filled
            // above (degradation cannot fail); in fail-stop mode any
            // loss already aborted. A hole here is a runner bug.
            let s = s.as_ref().unwrap_or_else(|| {
                panic!("epoch {e} has no summary and no recovery path claimed it")
            });
            engine.apply_summary(s);
        }
    });

    let epochs = total as u64;
    if R::ENABLED {
        obs.add(Metric::McEpochs, epochs);
    }
    let compose_cycles = model.compose_per_epoch * epochs;
    let main_cycles = result.cycles;
    let stats = MulticoreStats {
        main_cycles,
        helper_busy: off.queues.helper_busy(),
        stall_cycles: off.queues.stall_cycles(),
        messages: off.queues.messages(),
        batches: off.batches,
        // The composition pass is the sequential barrier after both the
        // main core and the slowest shard finish; recovered epochs are
        // helper work re-done after the barrier, charged at the helper's
        // per-message rate (exactly 0 when nothing was lost).
        completion_cycles: main_cycles.max(off.queues.max_helper_clock())
            + compose_cycles
            + recovered_records * model.chan.helper_per_msg,
        workers: model.workers,
        epochs,
        compose_cycles,
        recovery: rs,
    };
    (DiftRun { engine, result, stats }, obs)
}

/// Epoch-parallel propagation over a pre-captured effects stream: the
/// wall-clock scaling primitive (no VM in the loop, no timing model).
/// `workers` scoped threads claim epochs from a shared counter,
/// summarize them concurrently, and the caller's thread composes the
/// summaries in order. Bit-identical to serially `process`ing `stream`.
pub fn epoch_process_stream<T: TaintLabel + Send + Sync>(
    stream: &[StepEffects],
    policy: TaintPolicy,
    mem_words: usize,
    epoch_len: usize,
    workers: usize,
) -> TaintEngine<T> {
    epoch_process_stream_tolerant(stream, policy, mem_words, epoch_len, workers, NoopFaults).0
}

/// [`epoch_process_stream`] with a [`FaultPlan`] adversary: the taint
/// instance of the crate's epoch-stream core. Worker panics are
/// caught per epoch, a wedged worker stops claiming epochs (the rest pick
/// up its share), and any epoch whose summary is missing or fails the
/// record-count check is re-summarized inline before composition — so
/// the result is always bit-identical to serial processing. Recovery
/// here is inline-only (`retries` stays 0).
pub fn epoch_process_stream_tolerant<T: TaintLabel + Send + Sync, F: FaultPlan>(
    stream: &[StepEffects],
    policy: TaintPolicy,
    mem_words: usize,
    epoch_len: usize,
    workers: usize,
    faults: F,
) -> (TaintEngine<T>, RecoveryStats) {
    let run = run_epochs(
        stream,
        epoch_len,
        workers,
        faults,
        |fxs, base, _| summarize_epoch::<T>(fxs, policy, base),
        EpochSummary::instrs,
    );
    let mut engine = TaintEngine::<T>::new(policy);
    engine.pre_size(mem_words);
    for sum in &run.summaries {
        engine.apply_summary(sum);
    }
    (engine, run.recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::{silence_injected_panics, ScriptedFaults};
    use crate::helper::{run_helper_dift, run_inline_dift};
    use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
    use dift_taint::{BitTaint, PcTaint};
    use dift_vm::MachineConfig;
    use std::sync::Arc;

    fn taint_workload() -> (Arc<Program>, Vec<u64>) {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 0);
        b.li(Reg(3), 500);
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.bini(BinOp::Rem, Reg(4), Reg(2), 97);
        b.li(Reg(5), 300);
        b.store(Reg(4), Reg(5), 0);
        b.load(Reg(6), Reg(5), 0);
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(2), 0);
        b.halt();
        (Arc::new(b.build().unwrap()), vec![7])
    }

    fn machine(p: &Arc<Program>, inputs: &[u64]) -> Machine {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        m
    }

    fn small_model(workers: usize) -> EpochModel {
        // Short epochs so even the test workload spans many of them.
        let mut m = EpochModel::software(workers);
        m.epoch_len = 256;
        m.compose_per_epoch = 64;
        m
    }

    #[test]
    fn epoch_runner_matches_inline_at_every_width() {
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        for workers in [1, 2, 3, 4] {
            let run = run_epoch_dift::<BitTaint>(
                machine(&p, &inputs),
                small_model(workers),
                TaintPolicy::propagate_only(),
            );
            assert_eq!(run.engine.output_labels, inline.engine.output_labels);
            assert_eq!(run.engine.alerts, inline.engine.alerts);
            assert_eq!(run.engine.tainted_words(), inline.engine.tainted_words());
            assert_eq!(run.engine.stats(), inline.engine.stats(), "workers={workers}");
            assert!(run.stats.epochs > 1, "workload must span multiple epochs");
            assert_eq!(run.stats.workers, workers);
            assert!(!run.stats.recovery.eventful(), "fault-free run must be uneventful");
        }
    }

    #[test]
    fn epoch_runner_detects_attacks_like_the_single_helper() {
        // PC-taint attack detection across the fan-out (§3.3 + §2.1):
        // alerts, origins and the root-cause PC must survive epoch
        // composition even when the detection epoch differs from the
        // taint-introduction epoch.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.addi(Reg(2), Reg(1), 100); // tainted address, last writer
                                     // Pad so the alerting store lands in a later epoch.
        for _ in 0..40 {
            b.addi(Reg(6), Reg(6), 1);
        }
        b.li(Reg(3), 1);
        b.store(Reg(3), Reg(2), 0); // alert: tainted store address
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let single = run_helper_dift::<PcTaint>(
            machine(&p, &[4]),
            ChannelModel::hardware(),
            TaintPolicy::default(),
        );
        let mut model = small_model(3);
        model.epoch_len = 16;
        let fanned = run_epoch_dift::<PcTaint>(machine(&p, &[4]), model, TaintPolicy::default());
        assert_eq!(fanned.engine.alerts, single.engine.alerts);
        assert_eq!(fanned.engine.alerts.len(), 1);
        assert_eq!(fanned.engine.alerts[0].label.pc(), Some(1), "addi is the last writer");
        assert!(fanned.stats.epochs >= 3);
    }

    #[test]
    fn epoch_runner_handles_spawned_threads() {
        // Tainted data crosses threads through shared memory; the
        // summarizer's per-tid register files and the composition must
        // reproduce the interleaved serial result exactly.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 700);
        b.store(Reg(1), Reg(2), 0); // mem[700] tainted
        b.spawn(Reg(5), "w", Reg(1));
        b.spawn(Reg(6), "w", Reg(1));
        b.join(Reg(5));
        b.join(Reg(6));
        b.load(Reg(3), Reg(2), 0);
        b.output(Reg(3), 0);
        b.halt();
        b.func("w");
        b.li(Reg(1), 700);
        b.li(Reg(2), 12);
        b.label("loop");
        b.load(Reg(3), Reg(1), 0);
        b.addi(Reg(3), Reg(3), 1);
        b.store(Reg(3), Reg(1), 0);
        b.bini(BinOp::Sub, Reg(2), Reg(2), 1);
        b.branch(BranchCond::Ne, Reg(2), Reg(0), "loop");
        b.halt();
        let p = Arc::new(b.build().unwrap());

        let mk = || {
            let mut m = Machine::new(p.clone(), MachineConfig::small().with_quantum(3));
            m.feed_input(0, &[9]);
            m
        };
        let inline = run_inline_dift::<BitTaint>(mk(), TaintPolicy::propagate_only());
        assert!(!inline.engine.output_labels[0].2.is_clean(), "taint crosses threads");
        let mut model = small_model(2);
        model.epoch_len = 8;
        let fanned = run_epoch_dift::<BitTaint>(mk(), model, TaintPolicy::propagate_only());
        assert_eq!(fanned.engine.output_labels, inline.engine.output_labels);
        assert_eq!(fanned.engine.tainted_words(), inline.engine.tainted_words());
        assert_eq!(fanned.engine.stats(), inline.engine.stats());
    }

    /// A helper-bound model: the shard needs far longer per message than
    /// the producer takes per instruction, and each shard's queue holds a
    /// full epoch so fan-out can overlap shard drains.
    fn helper_bound_model(workers: usize) -> EpochModel {
        EpochModel {
            chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 9, queue_depth: 128 },
            workers,
            epoch_len: 128,
            fanout_cycles: 1,
            compose_per_epoch: 32,
        }
    }

    #[test]
    fn modeled_completion_improves_with_more_shards() {
        let (p, inputs) = taint_workload();
        let c1 = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            helper_bound_model(1),
            TaintPolicy::propagate_only(),
        )
        .stats;
        let c4 = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            helper_bound_model(4),
            TaintPolicy::propagate_only(),
        )
        .stats;
        assert!(
            c1.stall_cycles > 0,
            "one shard must be the bottleneck for the comparison to mean anything"
        );
        assert!(
            c4.completion_cycles < c1.completion_cycles,
            "4 shards must beat 1: {} vs {}",
            c4.completion_cycles,
            c1.completion_cycles
        );
        assert_eq!(c1.messages, c4.messages, "same modeled traffic");
        assert!(c4.stall_cycles < c1.stall_cycles, "fan-out relieves backpressure");
    }

    #[test]
    fn modeled_stats_are_deterministic() {
        let (p, inputs) = taint_workload();
        let a = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        )
        .stats;
        let b = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        )
        .stats;
        assert_eq!(a.main_cycles, b.main_cycles);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.stall_cycles, b.stall_cycles);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.compose_cycles, b.compose_cycles);
    }

    #[test]
    fn stream_parallel_path_matches_serial_processing() {
        use dift_dbi::Tool;
        let (p, inputs) = taint_workload();
        let m = machine(&p, &inputs);
        let mem_words = m.mem_words();
        #[derive(Default)]
        struct Cap(Vec<StepEffects>);
        impl Tool for Cap {
            fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
                self.0.push(fx.clone());
            }
        }
        let mut cap = Cap::default();
        Engine::new(m).run_tool(&mut cap);

        let policy = TaintPolicy::propagate_only();
        let mut serial = TaintEngine::<PcTaint>::new(policy);
        serial.pre_size(mem_words);
        for fx in &cap.0 {
            serial.process(fx);
        }
        for workers in [1, 4] {
            let par = epoch_process_stream::<PcTaint>(&cap.0, policy, mem_words, 64, workers);
            assert_eq!(par.output_labels, serial.output_labels, "workers={workers}");
            assert_eq!(par.tainted_words(), serial.tainted_words());
            assert_eq!(par.stats(), serial.stats());
        }
    }

    // ---- resilience -----------------------------------------------------

    fn assert_matches_inline<T: TaintLabel>(run: &DiftRun<T>, inline: &DiftRun<T>, what: &str) {
        assert_eq!(run.engine.output_labels, inline.engine.output_labels, "{what}: labels");
        assert_eq!(run.engine.alerts, inline.engine.alerts, "{what}: alerts");
        assert_eq!(run.engine.tainted_words(), inline.engine.tainted_words(), "{what}: shadow");
        assert_eq!(run.engine.stats(), inline.engine.stats(), "{what}: peak stats");
    }

    #[test]
    fn every_single_fault_is_recovered_bit_identically() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline = run_inline_dift::<PcTaint>(machine(&p, &inputs), TaintPolicy::default());
        for site in FaultSite::ALL {
            for shard in 0..2 {
                // Epoch e is steered to shard e % workers, so injecting
                // at epoch == shard guarantees the coordinate is hit.
                let plan = ScriptedFaults::single(site, shard, shard);
                let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
                    machine(&p, &inputs),
                    small_model(3),
                    TaintPolicy::default(),
                    NoopRecorder,
                    plan,
                    RecoveryPolicy::quick(),
                );
                let what = format!("{site:?} at shard {shard}");
                assert_matches_inline(&run, &inline, &what);
                let rs = run.stats.recovery;
                assert!(rs.faults_injected >= 1, "{what}: fault must fire, got {rs:?}");
                assert!(rs.epochs_recovered >= 1, "{what}: must recover, got {rs:?}");
                assert_eq!(rs.epochs_recovered, rs.epochs_lost, "{what}: {rs:?}");
                if site == FaultSite::QueueStall {
                    assert!(rs.shards_lost >= 1, "{what}: stall must cost the shard: {rs:?}");
                }
            }
        }
    }

    #[test]
    fn spare_shard_retry_recovers_before_degrading() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        let plan = ScriptedFaults::single(FaultSite::ShardPanic, 1, 1);
        let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            plan,
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "spare retry");
        let rs = run.stats.recovery;
        assert_eq!(rs.spare_recovered, 1, "the spare shard should win: {rs:?}");
        assert_eq!(rs.degraded_epochs, 0, "no degradation needed: {rs:?}");
        assert_eq!(rs.retries, 1, "{rs:?}");
    }

    #[test]
    fn exhausted_retries_degrade_to_inline_and_still_match() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        // Kill epoch 1 on its home shard AND on the spare (shard index
        // workers + round = 3 + 0), so the single retry round fails and
        // the runner must degrade to the main thread.
        let plan = ScriptedFaults::new(vec![
            crate::faultplan::Injection { site: FaultSite::ShardPanic, shard: 1, epoch: 1 },
            crate::faultplan::Injection { site: FaultSite::ShardPanic, shard: 3, epoch: 1 },
        ]);
        let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            plan,
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "degraded");
        let rs = run.stats.recovery;
        assert_eq!(rs.degraded_epochs, 1, "{rs:?}");
        assert_eq!(rs.spare_recovered, 0, "{rs:?}");
        assert!(rs.retries >= 1, "{rs:?}");
        assert_eq!(rs.faults_injected, 2, "{rs:?}");
    }

    #[test]
    fn corrupt_summary_with_a_failed_spare_degrades_inline() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        // Epoch 1's home shard returns a damaged summary and its spare
        // (shard index workers + round = 3) panics: the damaged summary
        // must be re-derived inline, never composed.
        let plan = ScriptedFaults::new(vec![
            crate::faultplan::Injection { site: FaultSite::CorruptSummary, shard: 1, epoch: 1 },
            crate::faultplan::Injection { site: FaultSite::ShardPanic, shard: 3, epoch: 1 },
        ]);
        let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            plan,
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "corrupt summary, failed spare");
        let rs = run.stats.recovery;
        assert_eq!(rs.degraded_epochs, 1, "{rs:?}");
        assert_eq!(rs.faults_injected, 2, "{rs:?}");
    }

    #[test]
    fn fail_stop_panic_names_shard_and_epoch() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let plan = ScriptedFaults::single(FaultSite::ShardPanic, 2, 2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_epoch_dift_tolerant::<BitTaint, _, _>(
                machine(&p, &inputs),
                small_model(3),
                TaintPolicy::propagate_only(),
                NoopRecorder,
                plan,
                RecoveryPolicy::fail_stop(),
            )
        }));
        let msg = panic_message(caught.err().expect("fail-stop must abort"));
        assert!(
            msg.contains("shard 2") && msg.contains("epoch 2"),
            "diagnostic must name the shard and epoch, got: {msg}"
        );
        assert!(msg.contains(INJECTED_PANIC_MARKER), "original payload preserved: {msg}");
    }

    #[test]
    fn zero_fault_tolerant_run_matches_fail_stop_exactly() {
        let (p, inputs) = taint_workload();
        let base = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        );
        let (tol, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            NoopFaults,
            RecoveryPolicy::tolerant(),
        );
        assert_eq!(tol.engine.output_labels, base.engine.output_labels);
        assert_eq!(tol.engine.stats(), base.engine.stats());
        // The tolerance machinery must not perturb the timing model.
        assert_eq!(tol.stats.completion_cycles, base.stats.completion_cycles);
        assert_eq!(tol.stats.main_cycles, base.stats.main_cycles);
        assert_eq!(tol.stats.stall_cycles, base.stats.stall_cycles);
        assert!(!tol.stats.recovery.eventful());
    }

    #[test]
    fn stream_tolerant_recovers_every_site() {
        silence_injected_panics();
        use dift_dbi::Tool;
        let (p, inputs) = taint_workload();
        let m = machine(&p, &inputs);
        let mem_words = m.mem_words();
        #[derive(Default)]
        struct Cap(Vec<StepEffects>);
        impl Tool for Cap {
            fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
                self.0.push(fx.clone());
            }
        }
        let mut cap = Cap::default();
        Engine::new(m).run_tool(&mut cap);
        let policy = TaintPolicy::propagate_only();
        let serial = epoch_process_stream::<BitTaint>(&cap.0, policy, mem_words, 64, 1);
        for site in FaultSite::ALL {
            // Workers claim epochs dynamically, so any worker may land on
            // epoch 2: inject at every worker index to hit whoever does.
            let plan = ScriptedFaults::new(
                (0..3).map(|w| crate::faultplan::Injection { site, shard: w, epoch: 2 }).collect(),
            );
            let (par, rs) = epoch_process_stream_tolerant::<BitTaint, _>(
                &cap.0, policy, mem_words, 64, 3, plan,
            );
            assert_eq!(par.output_labels, serial.output_labels, "{site:?}");
            assert_eq!(par.tainted_words(), serial.tainted_words(), "{site:?}");
            assert_eq!(par.stats(), serial.stats(), "{site:?}");
            assert!(rs.faults_injected >= 1, "{site:?}: {rs:?}");
            assert!(rs.epochs_recovered >= 1, "{site:?}: {rs:?}");
        }
    }
}
