//! Demand-driven slice queries over the live ONTRAC window.
//!
//! §2.1's point of the in-memory circular buffer is that when a fault
//! fires, the backward slice is computed *from the window, right now*.
//! The classic path materializes the whole window per query
//! (`OnTrac::graph()` → [`DdgGraph`] → [`Slicer`]): an
//! O(window · log window) sort/dedup/index rebuild even for a
//! three-step slice. This module serves the same queries from the
//! tracer's incrementally-maintained [`SliceIndex`], so a query walks
//! only the edges it visits — O(|slice|) — and a whole-window graph is
//! never built.
//!
//! * [`DepSource`] abstracts "something slices can walk": the rebuilt
//!   [`DdgGraph`], the live [`SliceIndex`], and frozen
//!   [`SliceSnapshot`]s all implement it, and the walk functions
//!   ([`backward_over`], [`forward_over`]) are the single traversal
//!   implementation shared by every path — which is what makes the
//!   bit-identical guarantee structural rather than coincidental
//!   (slices are step *sets*; edge iteration order cannot matter).
//! * [`SliceService`] owns an immutable snapshot and answers single or
//!   batched queries. Snapshots are generation-stamped: `refresh` is
//!   free when the window has not moved, and [`SliceService::snapshot`]
//!   hands the same frozen window to any number of reader threads while
//!   tracing continues.
//!
//! The differential proptest (`tests/service_diff.rs`) holds every
//! query path bit-identical to [`Slicer`] over
//! `DdgGraph::from_records` of the same live window, across
//! eviction-heavy buffer budgets and all three [`KindMask`] presets.
//!
//! # Stitched queries across the eviction horizon
//!
//! With the tracer's cold tier on (`OnTracConfig::cold_tier`), evicted
//! records survive in a compressed [`ColdStore`], and
//! [`StitchedSource`] presents the live snapshot and the cold tier as
//! one [`DepSource`]: adjacency is the live iterator chained with the
//! cold tier's decoded records. Because every record is in exactly one
//! tier (the budget decides *when* a record is evicted, never whether
//! it exists), the stitched source describes the full never-evicted
//! trace, and the same shared walk functions make stitched slices
//! bit-identical to the offline [`Slicer`] over that full trace — the
//! window budget is a cache size, not a correctness limit. The
//! stitched proptest in `tests/service_diff.rs` holds exactly that.

use crate::slicer::{KindMask, Slice, Slicer};
use dift_ddg::cold::{ColdStore, ColdView};
use dift_ddg::iofault::{IoFaultPlan, NoopIoFaults};
use dift_ddg::{DdgGraph, DepKind, SliceIndex, SliceSnapshot};
use dift_isa::Addr;
use dift_obs::{Metric, NoopRecorder, Recorder};
use std::collections::BTreeSet;

/// Anything a slice can be walked over: forward and backward adjacency
/// plus the step metadata slices are reported in.
pub trait DepSource {
    /// Dependences whose user is `step`, as `(def, kind)` pairs.
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)>;

    /// Dependences whose def is `step`, as `(user, kind)` pairs.
    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)>;

    /// `(addr, stmt)` metadata for a step, when known.
    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)>;

    /// Steps whose instruction executed at `addr`, ascending.
    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64>;
}

impl DepSource for DdgGraph {
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        self.defs_of(step).iter().map(|d| (d.def, d.kind))
    }

    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        self.users_of(step).map(|d| (d.user, d.kind))
    }

    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
        self.meta(step).map(|m| (m.addr, m.stmt))
    }

    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
        self.steps_at_addr(addr).iter().copied()
    }
}

/// The live index and its snapshots share one accessor surface
/// (`IndexData` behind `Deref`), so one macro covers both.
macro_rules! impl_depsource_via_indexdata {
    ($ty:ty) => {
        impl DepSource for $ty {
            fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
                dift_ddg::IndexData::defs(self, step)
            }

            fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
                dift_ddg::IndexData::users(self, step)
            }

            fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
                dift_ddg::IndexData::meta_of(self, step)
            }

            fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
                dift_ddg::IndexData::steps_at(self, addr)
            }
        }
    };
}

impl_depsource_via_indexdata!(SliceIndex);
impl_depsource_via_indexdata!(SliceSnapshot);

fn collect_over<S: DepSource + ?Sized>(src: &S, steps: BTreeSet<u64>) -> Slice {
    let mut s = Slice { steps, ..Default::default() };
    for &step in &s.steps {
        if let Some((addr, stmt)) = src.meta_of(step) {
            s.addrs.insert(addr);
            s.stmts.insert(stmt);
        }
    }
    s
}

/// Backward dynamic slice over any [`DepSource`]: every step the
/// criterion steps (transitively) depend on, criterion included.
pub fn backward_over<S: DepSource + ?Sized>(src: &S, criterion: &[u64], mask: KindMask) -> Slice {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut work: Vec<u64> = criterion.to_vec();
    while let Some(step) = work.pop() {
        if !seen.insert(step) {
            continue;
        }
        for (def, kind) in src.defs(step) {
            if mask.allows(kind) && !seen.contains(&def) {
                work.push(def);
            }
        }
    }
    collect_over(src, seen)
}

/// Forward dynamic slice over any [`DepSource`]: every step
/// (transitively) affected by the criterion steps, criterion included.
pub fn forward_over<S: DepSource + ?Sized>(src: &S, criterion: &[u64], mask: KindMask) -> Slice {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut work: Vec<u64> = criterion.to_vec();
    while let Some(step) = work.pop() {
        if !seen.insert(step) {
            continue;
        }
        for (user, kind) in src.users(step) {
            if mask.allows(kind) && !seen.contains(&user) {
                work.push(user);
            }
        }
    }
    collect_over(src, seen)
}

/// Backward slice seeded with every dynamic instance of a program
/// address, over any [`DepSource`].
pub fn backward_from_addr_over<S: DepSource + ?Sized>(
    src: &S,
    addr: Addr,
    mask: KindMask,
) -> Slice {
    let steps: Vec<u64> = src.steps_at(addr).collect();
    backward_over(src, &steps, mask)
}

/// The live window and the cold tier presented as one [`DepSource`]:
/// a walk that starts on live steps transparently continues into cold
/// segments when a frontier step is older than the eviction horizon.
///
/// Every record is in exactly one tier, so chaining the two adjacency
/// sets loses nothing and duplicates nothing that matters (slices are
/// step *sets*; a duplicate edge re-proposes a step the walk's `seen`
/// set already absorbed). Cold segments, the open tail included,
/// decode through the store's shared memo, so a source is cheap to
/// create: one per query costs no extra decoding.
pub struct StitchedSource<'a, F: IoFaultPlan = NoopIoFaults> {
    live: &'a SliceSnapshot,
    cold: ColdView<'a, F>,
}

impl<'a, F: IoFaultPlan> StitchedSource<'a, F> {
    pub fn new(live: &'a SliceSnapshot, cold: &'a ColdStore<F>) -> StitchedSource<'a, F> {
        StitchedSource { live, cold: ColdView::new(cold) }
    }
}

impl<F: IoFaultPlan> DepSource for StitchedSource<'_, F> {
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        dift_ddg::IndexData::defs(self.live, step).chain(self.cold.defs(step))
    }

    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        dift_ddg::IndexData::users(self.live, step).chain(self.cold.users(step))
    }

    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
        dift_ddg::IndexData::meta_of(self.live, step).or_else(|| self.cold.meta_of(step))
    }

    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
        // Sorted-dedup union: a step can be live *and* mentioned in
        // cold (e.g. as the still-live def of an evicted record).
        let mut steps: BTreeSet<u64> = dift_ddg::IndexData::steps_at(self.live, addr).collect();
        steps.extend(self.cold.steps_at(addr));
        steps.into_iter()
    }
}

/// Backward slice over the stitched live + cold history.
pub fn backward_stitched<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> Slice {
    backward_over(&StitchedSource::new(live, cold), criterion, mask)
}

/// Forward slice over the stitched live + cold history.
pub fn forward_stitched<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> Slice {
    forward_over(&StitchedSource::new(live, cold), criterion, mask)
}

/// Backward slice seeded with every dynamic instance of `addr` across
/// the whole stitched history.
pub fn backward_from_addr_stitched<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    addr: Addr,
    mask: KindMask,
) -> Slice {
    backward_from_addr_over(&StitchedSource::new(live, cold), addr, mask)
}

/// The result of an integrity-checked stitched query.
///
/// Cold-tier segments that fail the durable recovery ladder (CRC,
/// metadata validation — see `dift_ddg::durable`) are quarantined, not
/// panicked on and never silently dropped: the walk completes over the
/// surviving history and the outcome names exactly the user-step ranges
/// that could not be consulted. A `Full` outcome is the bit-identical
/// whole-execution slice; a `Degraded` one is an honest partial answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StitchedOutcome {
    /// Every cold segment the walk needed was intact.
    Full(Slice),
    /// Some history is quarantined; the slice excludes it and
    /// `missing_step_ranges` (merged, ascending) says what is gone.
    Degraded { slice: Slice, missing_step_ranges: Vec<(u64, u64)> },
}

impl StitchedOutcome {
    fn from_parts(slice: Slice, missing: Vec<(u64, u64)>) -> StitchedOutcome {
        if missing.is_empty() {
            StitchedOutcome::Full(slice)
        } else {
            StitchedOutcome::Degraded { slice, missing_step_ranges: missing }
        }
    }

    /// The slice, whatever the integrity verdict.
    pub fn slice(&self) -> &Slice {
        match self {
            StitchedOutcome::Full(s) => s,
            StitchedOutcome::Degraded { slice, .. } => slice,
        }
    }

    /// Consume into the slice.
    pub fn into_slice(self) -> Slice {
        match self {
            StitchedOutcome::Full(s) => s,
            StitchedOutcome::Degraded { slice, .. } => slice,
        }
    }

    /// Did quarantined history limit this answer?
    pub fn is_degraded(&self) -> bool {
        matches!(self, StitchedOutcome::Degraded { .. })
    }

    /// The lost step ranges (empty for [`StitchedOutcome::Full`]).
    pub fn missing_step_ranges(&self) -> &[(u64, u64)] {
        match self {
            StitchedOutcome::Full(_) => &[],
            StitchedOutcome::Degraded { missing_step_ranges, .. } => missing_step_ranges,
        }
    }
}

/// [`backward_stitched`] with an integrity verdict: the walk runs over
/// the surviving history, then the cold store's quarantine ledger says
/// whether any of it was lost.
pub fn backward_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> StitchedOutcome {
    let slice = backward_stitched(live, cold, criterion, mask);
    StitchedOutcome::from_parts(slice, cold.missing_step_ranges())
}

/// [`forward_stitched`] with an integrity verdict.
pub fn forward_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> StitchedOutcome {
    let slice = forward_stitched(live, cold, criterion, mask);
    StitchedOutcome::from_parts(slice, cold.missing_step_ranges())
}

/// [`backward_from_addr_stitched`] with an integrity verdict.
pub fn backward_from_addr_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    addr: Addr,
    mask: KindMask,
) -> StitchedOutcome {
    let slice = backward_from_addr_stitched(live, cold, addr, mask);
    StitchedOutcome::from_parts(slice, cold.missing_step_ranges())
}

/// One slice request; a batch of these shares a single snapshot.
#[derive(Clone, Debug)]
pub enum SliceQuery {
    Backward { criterion: Vec<u64>, mask: KindMask },
    Forward { criterion: Vec<u64>, mask: KindMask },
    BackwardFromAddr { addr: Addr, mask: KindMask },
}

/// A query service over one frozen window, generic over an
/// observability recorder (default [`NoopRecorder`]: probes
/// monomorphize away).
///
/// The service holds a [`SliceSnapshot`]; queries never touch the live
/// tracer, so any number of services (or snapshot clones, see
/// [`snapshot`](Self::snapshot)) can answer concurrently while tracing
/// continues. Call [`refresh`](Self::refresh) to follow the live
/// window — a no-op (counted as a snapshot reuse) when the index
/// generation has not moved.
pub struct SliceService<R: Recorder = NoopRecorder> {
    snap: SliceSnapshot,
    /// The probe sink (ZST under the default [`NoopRecorder`]).
    pub obs: R,
}

impl SliceService {
    /// Unprobed service over the index's current window.
    pub fn new(index: &SliceIndex) -> SliceService {
        SliceService::with_recorder(index, NoopRecorder)
    }

    /// Unprobed service over an existing snapshot (e.g. one handed to
    /// a reader thread).
    pub fn from_snapshot(snap: SliceSnapshot) -> SliceService {
        SliceService { snap, obs: NoopRecorder }
    }
}

impl<R: Recorder> SliceService<R> {
    /// Service wired to a live recorder; snapshot latency is charged to
    /// `slicing/service/snapshot_nanos`.
    pub fn with_recorder(index: &SliceIndex, mut obs: R) -> SliceService<R> {
        let snap = obs.timed(Metric::SlSnapshotNanos, || index.snapshot());
        if R::ENABLED {
            obs.gauge(Metric::SlChunkCopies, index.chunk_copies());
        }
        SliceService { snap, obs }
    }

    /// Re-snapshot if (and only if) the live window has moved since
    /// this service's snapshot was taken. Either way the
    /// `slicing/service/chunk_copies` gauge tracks the index's
    /// copy-on-write wear, so tests can assert that an unchanged
    /// generation performs zero chunk copies.
    pub fn refresh(&mut self, index: &SliceIndex) {
        if R::ENABLED {
            self.obs.gauge(Metric::SlChunkCopies, index.chunk_copies());
        }
        if index.generation() == self.snap.generation() {
            if R::ENABLED {
                self.obs.add(Metric::SlSnapshotReuse, 1);
            }
            return;
        }
        self.snap = self.obs.timed(Metric::SlSnapshotNanos, || index.snapshot());
    }

    /// The generation of the frozen window this service answers from.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// Share the frozen window with another thread (one `Arc` bump).
    pub fn snapshot(&self) -> SliceSnapshot {
        self.snap.clone()
    }

    fn note(&mut self, s: &Slice) {
        if R::ENABLED {
            self.obs.add(Metric::SlQueries, 1);
            self.obs.observe(Metric::SlSliceSteps, s.len() as u64);
        }
    }

    /// Backward slice from explicit criterion steps.
    pub fn backward(&mut self, criterion: &[u64], mask: KindMask) -> Slice {
        let s = backward_over(&self.snap, criterion, mask);
        self.note(&s);
        s
    }

    /// Forward slice from explicit criterion steps.
    pub fn forward(&mut self, criterion: &[u64], mask: KindMask) -> Slice {
        let s = forward_over(&self.snap, criterion, mask);
        self.note(&s);
        s
    }

    /// Backward slice seeded with every dynamic instance of `addr`.
    pub fn backward_from_addr(&mut self, addr: Addr, mask: KindMask) -> Slice {
        let s = backward_from_addr_over(&self.snap, addr, mask);
        self.note(&s);
        s
    }

    /// Backward slice across the whole execution: live window stitched
    /// with the tracer's cold tier.
    pub fn backward_stitched<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        criterion: &[u64],
        mask: KindMask,
    ) -> Slice {
        let s = backward_stitched(&self.snap, cold, criterion, mask);
        self.note_stitched(&s);
        s
    }

    /// Forward slice across the whole execution.
    pub fn forward_stitched<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        criterion: &[u64],
        mask: KindMask,
    ) -> Slice {
        let s = forward_stitched(&self.snap, cold, criterion, mask);
        self.note_stitched(&s);
        s
    }

    /// Backward slice from every (live or evicted) instance of `addr`.
    pub fn backward_from_addr_stitched<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        addr: Addr,
        mask: KindMask,
    ) -> Slice {
        let s = backward_from_addr_stitched(&self.snap, cold, addr, mask);
        self.note_stitched(&s);
        s
    }

    /// [`Self::backward_stitched`] with an integrity verdict; degraded
    /// answers bump `slicing/service/degraded_queries`.
    pub fn backward_stitched_checked<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        criterion: &[u64],
        mask: KindMask,
    ) -> StitchedOutcome {
        let out = backward_stitched_checked(&self.snap, cold, criterion, mask);
        self.note_outcome(&out);
        out
    }

    /// [`Self::forward_stitched`] with an integrity verdict.
    pub fn forward_stitched_checked<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        criterion: &[u64],
        mask: KindMask,
    ) -> StitchedOutcome {
        let out = forward_stitched_checked(&self.snap, cold, criterion, mask);
        self.note_outcome(&out);
        out
    }

    /// [`Self::backward_from_addr_stitched`] with an integrity verdict.
    pub fn backward_from_addr_stitched_checked<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        addr: Addr,
        mask: KindMask,
    ) -> StitchedOutcome {
        let out = backward_from_addr_stitched_checked(&self.snap, cold, addr, mask);
        self.note_outcome(&out);
        out
    }

    fn note_stitched(&mut self, s: &Slice) {
        if R::ENABLED {
            self.obs.add(Metric::SlColdQueries, 1);
        }
        self.note(s);
    }

    fn note_outcome(&mut self, out: &StitchedOutcome) {
        if R::ENABLED && out.is_degraded() {
            self.obs.add(Metric::SlDegraded, 1);
        }
        self.note_stitched(out.slice());
    }

    /// Answer a batch of queries against one consistent window.
    pub fn batch(&mut self, queries: &[SliceQuery]) -> Vec<Slice> {
        if R::ENABLED {
            self.obs.add(Metric::SlBatches, 1);
        }
        queries
            .iter()
            .map(|q| match q {
                SliceQuery::Backward { criterion, mask } => self.backward(criterion, *mask),
                SliceQuery::Forward { criterion, mask } => self.forward(criterion, *mask),
                SliceQuery::BackwardFromAddr { addr, mask } => {
                    self.backward_from_addr(*addr, *mask)
                }
            })
            .collect()
    }
}

/// Reference answers for a batch, computed the classic way: rebuild a
/// [`DdgGraph`] and run [`Slicer`]. The bench harness and differential
/// tests compare [`SliceService::batch`] against this.
pub fn batch_via_rebuild(graph: &DdgGraph, queries: &[SliceQuery]) -> Vec<Slice> {
    let slicer = Slicer::new(graph);
    queries
        .iter()
        .map(|q| match q {
            SliceQuery::Backward { criterion, mask } => slicer.backward(criterion, *mask),
            SliceQuery::Forward { criterion, mask } => slicer.forward(criterion, *mask),
            SliceQuery::BackwardFromAddr { addr, mask } => slicer.backward_from_addr(*addr, *mask),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_ddg::buffer::record;
    use dift_ddg::CircularTraceBuffer;

    /// Window: 1 -> 3 (reg), 2 -> 3 (mem), 3 -> 5 (reg), 4 -> 5 (ctrl),
    /// 5 -> 6 (war); two instances of addr 9 at steps 5 and 6.
    fn index() -> (CircularTraceBuffer, SliceIndex) {
        let mut buf = CircularTraceBuffer::new(1 << 20);
        let mut idx = SliceIndex::default();
        let edges = [
            (3u64, 1u64, DepKind::RegData),
            (3, 2, DepKind::MemData),
            (5, 3, DepKind::RegData),
            (5, 4, DepKind::Control),
            (6, 5, DepKind::War),
        ];
        for (user, def, kind) in edges {
            let addr = |s: u64| if s >= 5 { 9 } else { s as u32 };
            let r = record(user, def, kind, addr(user), addr(def), user as u32, def as u32);
            idx.on_push(&r);
            buf.push_with(r, |e| idx.on_evict(e));
        }
        (buf, idx)
    }

    #[test]
    fn service_matches_slicer_semantics() {
        let (_, idx) = index();
        let mut svc = SliceService::new(&idx);
        let b = svc.backward(&[5], KindMask::classic());
        assert_eq!(b.steps, [1, 2, 3, 4, 5].into_iter().collect());
        assert!(b.contains_addr(9));
        let f = svc.forward(&[1], KindMask::classic());
        assert_eq!(f.steps, [1, 3, 5].into_iter().collect());
        let war = svc.backward(&[6], KindMask::multithreaded());
        assert!(war.contains_step(1));
        let a = svc.backward_from_addr(9, KindMask::data_only());
        assert_eq!(a.steps, [1, 2, 3, 5, 6].into_iter().collect());
    }

    #[test]
    fn batch_matches_per_query_answers() {
        let (_, idx) = index();
        let queries = vec![
            SliceQuery::Backward { criterion: vec![5], mask: KindMask::classic() },
            SliceQuery::Forward { criterion: vec![2], mask: KindMask::data_only() },
            SliceQuery::BackwardFromAddr { addr: 9, mask: KindMask::multithreaded() },
        ];
        let mut svc = SliceService::new(&idx);
        let batched = svc.batch(&queries);
        let singles = vec![
            svc.backward(&[5], KindMask::classic()),
            svc.forward(&[2], KindMask::data_only()),
            svc.backward_from_addr(9, KindMask::multithreaded()),
        ];
        assert_eq!(batched, singles);
    }

    #[test]
    fn refresh_follows_the_live_window() {
        let (mut buf, mut idx) = index();
        let mut svc = SliceService::new(&idx);
        let gen0 = svc.generation();
        svc.refresh(&idx); // unchanged window: same snapshot
        assert_eq!(svc.generation(), gen0);
        let r = record(8, 6, DepKind::RegData, 9, 9, 8, 6);
        idx.on_push(&r);
        buf.push_with(r, |e| idx.on_evict(e));
        assert!(svc.backward(&[8], KindMask::classic()).steps.len() == 1, "stale window");
        svc.refresh(&idx);
        assert_ne!(svc.generation(), gen0);
        // 8 <- 6 (reg), then the WAR edge 6 <- 5 stops a classic walk.
        let b = svc.backward(&[8], KindMask::classic());
        assert_eq!(b.steps, [6, 8].into_iter().collect::<BTreeSet<_>>());
        let mt = svc.backward(&[8], KindMask::multithreaded());
        assert_eq!(mt.steps, [1, 2, 3, 4, 5, 6, 8].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn damaged_open_tail_degrades_checked_queries_to_its_range() {
        let (_, idx) = index();
        let snap = idx.snapshot();
        let mut cold = ColdStore::new();
        for i in 100..=140u64 {
            cold.append(&record(i, i - 1, DepKind::RegData, 7, 7, i as u32, i as u32 - 1));
        }
        let whole = forward_stitched_checked(&snap, &cold, &[100], KindMask::data_only());
        assert_eq!(whole, StitchedOutcome::Full(whole.slice().clone()));
        assert_eq!(whole.slice().len(), 41);
        // Byte 2 is the first record's kind byte: the tail cannot decode.
        cold.tamper_open_payload(2);
        let out = backward_stitched_checked(&snap, &cold, &[140], KindMask::classic());
        assert_eq!(out.missing_step_ranges(), &[(100, 140)]);
        assert!(!out.slice().contains_step(139), "the tail's records are gone");
    }

    #[test]
    fn concurrent_readers_share_one_frozen_window() {
        let (_, idx) = index();
        let svc = SliceService::new(&idx);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = svc.snapshot();
                std::thread::spawn(move || {
                    let mut s = SliceService::from_snapshot(snap);
                    s.backward(&[5], KindMask::classic()).steps
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), [1, 2, 3, 4, 5].into_iter().collect());
        }
    }
}
