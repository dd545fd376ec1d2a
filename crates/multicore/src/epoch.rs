//! Epoch-parallel DIFT across N helper shards.
//!
//! The single-helper offload ([`crate::helper::run_helper_dift`]) leaves
//! the helper a serial consumer: its clock lower-bounds completion no
//! matter how fast the channel is. This module fans propagation out:
//! the effects stream is split into fixed-size **epochs**, and each
//! epoch's *taint transfer summary* (`dift_taint::summary`) — the
//! epoch's output labels over symbolic unknown incoming labels — is
//! computed on a worker thread without upstream taint state and
//! therefore without inter-shard coordination. A cheap sequential
//! composition pass then stitches the summaries in epoch order,
//! producing results **bit-identical** to the serial engine: labels,
//! alerts (with origins), output lineage, and exact peak statistics.
//!
//! Both runners here are instances of the crate's one epoch-stream core
//! (`crate::stream`, shared with [`crate::lineage_shard`]): workers
//! claim epochs of a captured stream from a shared counter, and the
//! caller composes.
//!
//! * **Real parallelism** — [`epoch_process_stream`] summarizes a
//!   pre-captured stream; no VM in the loop, no timing model.
//! * **Modeled timing** — the channel runner, [`run_epoch_dift`], runs
//!   the VM under a producer tool that captures the stream and charges
//!   [`EpochModel`]: [`ChannelModel`] plus a fan-out steering cost,
//!   per-shard bounded queues ([`MultiQueueSim`]) with each epoch
//!   charged to its round-robin home shard, and a per-epoch composition
//!   charge at the barrier. Reported cycles are deterministic and
//!   host-independent.
//!
//! ## Fault tolerance
//!
//! Because an epoch summary is a pure function of the epoch's records
//! and its I/O base, a lost epoch is recomputable anywhere with
//! bit-identical results. The `_tolerant` variants take a [`FaultPlan`]
//! ([`NoopFaults`] by default, which compiles every injection site
//! away); the core checks it at each epoch's home coordinate
//! `(epoch % workers, epoch)`, catches worker panics per epoch, lets the
//! other workers absorb a stalled worker's share, checks every
//! summary's record count, and re-summarizes whatever was lost inline
//! on the calling thread — the graceful degradation to serial DIFT,
//! which cannot fail. See DESIGN.md §11.

use crate::channel::{ChannelModel, MultiQueueSim};
use crate::faultplan::{FaultPlan, NoopFaults};
use crate::helper::{DiftRun, MulticoreStats};
use crate::resilience::RecoveryStats;
use crate::stream::run_epochs;
use dift_dbi::{Engine, Tool};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_taint::{summarize_epoch, EpochSummary, TaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, StepEffects};
use std::time::Instant;

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

/// The VM side of the channel runner: captures the effects stream while
/// charging the fan-out timing model per step — enqueue plus steering,
/// and any stall of the epoch's round-robin home queue (other shards
/// never block it).
struct EpochProducer<R: Recorder> {
    obs: R,
    model: EpochModel,
    queues: MultiQueueSim,
    stream: Vec<StepEffects>,
}

impl<R: Recorder> Tool for EpochProducer<R> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        m.charge(self.model.chan.enqueue_cycles + self.model.fanout_cycles);
        let shard = self.stream.len() / self.model.epoch_len % self.queues.shards();
        let stall = self.queues.enqueue(shard, m.cycles());
        if stall > 0 {
            m.charge(stall);
        }
        if R::ENABLED {
            self.obs.add(Metric::McMessages, 1);
            self.obs.add(Metric::McStallCycles, stall);
            self.obs.observe(Metric::McQueueDepth, self.queues.depth(shard) as u64);
        }
        self.stream.push(fx.clone());
    }
}

/// Run `machine` with taint propagation fanned out across
/// `model.workers` helper shards, composing epoch summaries into a
/// final engine bit-identical to the serial offload. A real summarizer
/// bug aborts the run.
pub fn run_epoch_dift<T: TaintLabel + Send + 'static>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
) -> DiftRun<T> {
    run_epoch_dift_tolerant(machine, model, policy, NoopRecorder, NoopFaults).0
}

/// [`run_epoch_dift`] plus an observability recorder and a [`FaultPlan`]
/// adversary: the channel-model instance of the crate's epoch-stream
/// core. The VM runs under a producer tool that charges the
/// [`MultiQueueSim`] model and captures the effects stream; the core
/// then summarizes the stream under the plan and this thread composes.
/// The recorder sees the producer (messages, stalls, queue occupancy),
/// per-epoch summarize and recovery time, compose time and the recovery
/// ledger, and is returned alongside the run so callers can snapshot it;
/// with [`NoopRecorder`] every probe compiles away.
///
/// The run **always completes** bit-identical to the serial engine,
/// whatever faults the plan injects: an epoch whose summary is missing
/// or fails the record-count check is re-summarized inline. Modeled
/// stats come from the model alone, plus the helper cost of re-doing
/// lost epochs, so a fault-free run reports exactly what
/// [`run_epoch_dift`] does.
pub fn run_epoch_dift_tolerant<T, R, F>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
    obs: R,
    faults: F,
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

    let mut producer = EpochProducer {
        obs,
        model,
        queues: MultiQueueSim::new(model.chan, model.workers),
        stream: Vec::new(),
    };
    let result = Engine::new(machine).run_tool(&mut producer);
    let EpochProducer { mut obs, queues, stream, .. } = producer;

    // Each summary carries its own summarize nanos (0 unless a live
    // recorder asked for timing).
    let run = run_epochs(
        &stream,
        model.epoch_len,
        model.workers,
        faults,
        |fxs, base, _| {
            let t0 = R::ENABLED.then(Instant::now);
            let sum = summarize_epoch::<T>(fxs, helper_policy, base);
            (sum, t0.map_or(0, |t| t.elapsed().as_nanos() as u64))
        },
        |(sum, _): &(EpochSummary<T>, u64)| sum.instrs(),
    );
    let rs = run.recovery;
    // Helper work re-done for lost epochs, charged to the modeled
    // completion below (exactly 0 on a fault-free run).
    let recovered_records: u64 = run
        .lost
        .iter()
        .map(|&e| (stream.len() - e * model.epoch_len).min(model.epoch_len) as u64)
        .sum();
    if R::ENABLED {
        for (e, (_, nanos)) in run.summaries.iter().enumerate() {
            let metric = if run.lost.contains(&e) {
                Metric::McRecoveryNanos
            } else {
                Metric::McShardEpochNanos
            };
            obs.observe(metric, *nanos);
        }
        obs.add(Metric::McFaultsInjected, rs.faults_injected);
        obs.add(Metric::McEpochsLost, rs.epochs_lost);
        obs.add(Metric::McEpochsRecovered, rs.epochs_recovered);
        obs.add(Metric::McDegradedEpochs, rs.degraded_epochs);
        obs.add(Metric::McShardsLost, rs.shards_lost);
    }

    // Composition: summaries splice in epoch order; the result is
    // bit-identical to serial processing (see DESIGN.md §9 and §11).
    let mut engine = TaintEngine::<T>::new(helper_policy);
    engine.pre_size(mem_words);
    obs.timed(Metric::McComposeNanos, || {
        for (sum, _) in &run.summaries {
            engine.apply_summary(sum);
        }
    });

    let epochs = run.summaries.len() as u64;
    if R::ENABLED {
        obs.add(Metric::McEpochs, epochs);
    }
    let compose_cycles = model.compose_per_epoch * epochs;
    let main_cycles = result.cycles;
    let stats = MulticoreStats {
        main_cycles,
        helper_busy: queues.helper_busy(),
        stall_cycles: queues.stall_cycles(),
        messages: queues.messages(),
        batches: 0,
        // The composition pass is the sequential barrier after both the
        // main core and the slowest shard finish; recovered epochs are
        // helper work re-done after the barrier, charged at the helper's
        // per-message rate.
        completion_cycles: main_cycles.max(queues.max_helper_clock())
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
/// the result is always bit-identical to serial processing.
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
    use crate::faultplan::{silence_injected_panics, FaultSite, ScriptedFaults};
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

    #[test]
    fn home_coordinate_faults_hit_the_same_epoch_on_every_stream_runner() {
        silence_injected_panics();
        use crate::lineage_shard::{shard_lineage_stream_tolerant, LineageShardConfig};
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
        let cfg = LineageShardConfig::new(3, 64, 16);
        let taint = epoch_process_stream::<BitTaint>(&cap.0, policy, mem_words, 64, 3);
        let lineage = shard_lineage_stream_tolerant(&cap.0, &p, mem_words, &cfg, NoopFaults);
        for site in FaultSite::ALL {
            for e in 0..3 {
                // Only the epoch's home worker is armed: the plan must fire
                // whichever thread claims the epoch.
                let plan = ScriptedFaults::single(site, e % 3, e);
                let what = format!("{site:?} at epoch {e}");
                let (par, rs) = epoch_process_stream_tolerant::<BitTaint, _>(
                    &cap.0,
                    policy,
                    mem_words,
                    64,
                    3,
                    plan.clone(),
                );
                assert_eq!(par.output_labels, taint.output_labels, "{what}");
                assert_eq!(par.tainted_words(), taint.tainted_words(), "{what}");
                assert_eq!(par.stats(), taint.stats(), "{what}");
                let run = shard_lineage_stream_tolerant(&cap.0, &p, mem_words, &cfg, plan);
                assert_eq!(run.engine.outputs, lineage.engine.outputs, "{what}");
                assert_eq!(run.engine.inputs_seen(), lineage.engine.inputs_seen(), "{what}");
                let mem = run.engine.mem_elements(300);
                assert_eq!(mem, lineage.engine.mem_elements(300), "{what}");
                let stalled = u64::from(site == FaultSite::QueueStall);
                for rs in [rs, run.recovery] {
                    assert_eq!(rs.faults_injected, 1, "{what}: {rs:?}");
                    assert_eq!(rs.epochs_lost, 1, "{what}: {rs:?}");
                    assert_eq!(rs.shards_lost, stalled, "{what}: {rs:?}");
                }
            }
        }
    }
}
