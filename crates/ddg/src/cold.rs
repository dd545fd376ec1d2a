//! Compressed cold tier for evicted dependence records.
//!
//! The circular buffer (§2.1's ONTRAC window) holds a *budgeted* suffix
//! of the dependence stream; before this module, anything older was
//! gone and every slice silently stopped at the eviction horizon — the
//! byte budget acted as a correctness limit. The cold tier turns it
//! back into a cache size: on every eviction the tracer appends the
//! evicted record to a [`ColdStore`], which packs it into append-only
//! compressed **segments** using the same LEB128 gap encoding the
//! buffer's byte accounting is based on
//! ([`put_varint`]). `dift-slicing` then
//! *stitches* walks: queries start on the live
//! [`SliceSnapshot`](crate::SliceSnapshot) and fall through to the cold
//! tier whenever a frontier step is older than the window.
//!
//! # Segment format
//!
//! Records arrive oldest-first (eviction is FIFO and user steps are
//! monotone), so within a segment user steps are non-decreasing and
//! gap-encode well. Per record:
//!
//! ```text
//! user_gap  varint   gap since previous record's user step
//!                    (first record: the absolute user step)
//! dist      varint   user − def (a def never follows its user)
//! kind      1 byte   DepKind discriminant
//! user_addr varint   program address of the user instruction
//! def_addr  varint   program address of the def instruction
//! user_stmt varint   statement id of the user
//! def_stmt  varint   statement id of the def
//! ```
//!
//! A segment seals at [`SEGMENT_RECORDS`] records (or on a
//! non-monotone user step, which a healthy tracer never produces, so
//! the per-segment monotonicity invariant holds unconditionally). Each
//! sealed segment carries [`SegMeta`] (`[first_user, last_user]`,
//! `min_def`, `count`) so queries touch only candidate segments.
//!
//! # Durability and the integrity ladder
//!
//! A [`ColdStore`] opened with [`ColdStore::durable`] spills every
//! sealed segment to disk through [`crate::durable::SegmentStore`]
//! (checksummed format, temp-file + atomic rename) and keeps only
//! [`SegMeta`] in memory; queries load payloads lazily. A spill that
//! fails permanently (disk full) falls back to keeping that segment in
//! memory — degraded durability, never lost data.
//!
//! Pruning metadata is **validated, not trusted**: whenever a segment
//! is decoded, the decoder re-derives `first_user`/`last_user`/
//! `min_def`/`count` from the records and any disagreement with the
//! stored metadata classifies the segment as corrupt
//! ([`CorruptKind::MetaMismatch`]) — a recoverable error, not a
//! silently wrong pruning decision. Corrupt segments are quarantined
//! (the file renamed to `*.quarantine`, the id blacklisted) and their
//! user-step range is recorded; [`ColdStore::missing_step_ranges`]
//! surfaces the loss so `dift-slicing` can return an explicit
//! `Degraded` outcome.
//!
//! # The shared decode memo
//!
//! A segment decodes into flat sorted arrays (the records in user
//! order, their indices stably sorted by def, and `(addr, step)`
//! pairs), each looked up with `partition_point` — no per-step or
//! per-address allocation. A step's metadata comes from the earlier of
//! its first use and its first def, so it needs no array of its own.
//! Decoded
//! segments are cached in a store-wide bounded LRU
//! ([`ColdStore::set_memo_capacity`]) shared by every [`ColdView`] —
//! concurrent stitched readers decode a hot segment once, not once per
//! view. The open tail has one extra slot in the same memo, keyed by
//! the id it will seal under and its record count: it too decodes once
//! per store, and any append or seal changes the key, so a stale decode
//! is never served. `ddg/cold/memo_hits` / `ddg/cold/memo_evictions`
//! gauge its behavior.
//!
//! # Why live ∪ cold is the full execution
//!
//! The tracer's record stream is independent of the buffer budget (the
//! budget decides *when* a record is evicted, never whether it exists),
//! and every record is either still in the window or was evicted
//! exactly once, in order. So the cold tier plus the live window is a
//! partition of the full never-evicted trace, which is what makes the
//! stitched walk bit-identical to the offline `Slicer` on the whole
//! execution — the differential proptests in
//! `crates/slicing/tests/service_diff.rs` and
//! `crates/slicing/tests/durable_diff.rs` hold exactly that.

use crate::buffer::{get_varint, put_varint, BufRecord};
use crate::dep::DepKind;
use crate::durable::{CorruptKind, IoStats, LoadError, ScrubReport, SegmentStore};
use crate::iofault::{IoFaultPlan, NoopIoFaults};
use dift_isa::{Addr, StmtId};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Records per sealed segment. Small enough that decoding one segment
/// is cheap, large enough that per-segment metadata is negligible.
pub const SEGMENT_RECORDS: u32 = 1024;

/// Default capacity of the shared decode memo (segments).
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

/// Sealed segments merged per compaction group.
pub const COMPACT_GROUP: usize = 8;

fn kind_to_byte(k: DepKind) -> u8 {
    match k {
        DepKind::RegData => 0,
        DepKind::MemData => 1,
        DepKind::Control => 2,
        DepKind::War => 3,
        DepKind::Waw => 4,
    }
}

fn kind_from_byte(b: u8) -> Option<DepKind> {
    Some(match b {
        0 => DepKind::RegData,
        1 => DepKind::MemData,
        2 => DepKind::Control,
        3 => DepKind::War,
        4 => DepKind::Waw,
        _ => return None,
    })
}

/// Query/pruning metadata of a sealed segment — exactly what the
/// durable header persists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegMeta {
    /// User step of the first record (gap decoding starts here).
    pub first_user: u64,
    /// User step of the last record (user steps are non-decreasing).
    pub last_user: u64,
    /// Smallest def step mentioned — def steps can be arbitrarily far
    /// behind their user, so def-side queries filter on this.
    pub min_def: u64,
    /// Record count.
    pub count: u32,
}

impl SegMeta {
    /// Could `step` appear in this segment as a user?
    pub fn may_have_user(&self, step: u64) -> bool {
        self.count > 0 && self.first_user <= step && step <= self.last_user
    }

    /// Could `step` appear in this segment as a def? (A def never
    /// follows its user, so defs are bounded above by `last_user`.)
    pub fn may_have_def(&self, step: u64) -> bool {
        self.count > 0 && self.min_def <= step && step <= self.last_user
    }
}

/// The open (still-appending) segment: encoded bytes plus incrementally
/// maintained metadata.
#[derive(Clone, Debug)]
struct ColdSegment {
    bytes: Vec<u8>,
    first_user: u64,
    last_user: u64,
    min_def: u64,
    count: u32,
    /// Set only by [`ColdStore::tamper_open_payload`]: the tail never
    /// leaves memory, so otherwise a failed decode is a bug.
    tampered: bool,
}

impl ColdSegment {
    fn new() -> ColdSegment {
        ColdSegment {
            bytes: Vec::new(),
            first_user: 0,
            last_user: 0,
            min_def: u64::MAX,
            count: 0,
            tampered: false,
        }
    }

    fn meta(&self) -> SegMeta {
        SegMeta {
            first_user: self.first_user,
            last_user: self.last_user,
            min_def: self.min_def,
            count: self.count,
        }
    }

    fn push(&mut self, rec: &BufRecord) {
        self.push_raw(RawRec {
            user: rec.dep.user,
            def: rec.dep.def,
            kind: rec.dep.kind,
            user_addr: rec.user_addr,
            def_addr: rec.def_addr,
            user_stmt: rec.user_stmt,
            def_stmt: rec.def_stmt,
        });
    }

    fn push_raw(&mut self, r: RawRec) {
        if self.count == 0 {
            self.first_user = r.user;
            put_varint(&mut self.bytes, r.user);
        } else {
            put_varint(&mut self.bytes, r.user - self.last_user);
        }
        put_varint(&mut self.bytes, r.user - r.def);
        self.bytes.push(kind_to_byte(r.kind));
        put_varint(&mut self.bytes, u64::from(r.user_addr));
        put_varint(&mut self.bytes, u64::from(r.def_addr));
        put_varint(&mut self.bytes, u64::from(r.user_stmt));
        put_varint(&mut self.bytes, u64::from(r.def_stmt));
        self.last_user = r.user;
        self.min_def = self.min_def.min(r.def);
        self.count += 1;
    }
}

/// One fully-decoded record, the unit the payload iterator yields.
#[derive(Clone, Copy, Debug)]
struct RawRec {
    user: u64,
    def: u64,
    kind: DepKind,
    user_addr: Addr,
    def_addr: Addr,
    user_stmt: StmtId,
    def_stmt: StmtId,
}

/// Sequential decoder over a segment payload. Every structural error is
/// classified, never asserted on: the payload may have come from disk.
struct RecordIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    i: u32,
    count: u32,
    prev_user: u64,
}

impl<'a> RecordIter<'a> {
    fn new(bytes: &'a [u8], count: u32) -> RecordIter<'a> {
        RecordIter { bytes, pos: 0, i: 0, count, prev_user: 0 }
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Result<RawRec, CorruptKind>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.count {
            return None;
        }
        let first = self.i == 0;
        self.i += 1;
        let varint = |pos: &mut usize| get_varint(self.bytes, pos).ok_or(CorruptKind::Truncated);
        let rec = (|| {
            let gap = varint(&mut self.pos)?;
            let user = if first { gap } else { self.prev_user + gap };
            let dist = varint(&mut self.pos)?;
            let def = user.checked_sub(dist).ok_or(CorruptKind::BadRecord)?;
            let kind = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or(CorruptKind::Truncated)
                .and_then(|b| kind_from_byte(b).ok_or(CorruptKind::BadRecord))?;
            self.pos += 1;
            let user_addr = varint(&mut self.pos)? as Addr;
            let def_addr = varint(&mut self.pos)? as Addr;
            let user_stmt = varint(&mut self.pos)? as StmtId;
            let def_stmt = varint(&mut self.pos)? as StmtId;
            Ok(RawRec { user, def, kind, user_addr, def_addr, user_stmt, def_stmt })
        })();
        if let Ok(r) = &rec {
            self.prev_user = r.user;
        } else {
            self.i = self.count; // poison: stop after the first error
        }
        Some(rec)
    }
}

/// One segment decoded into flat sorted arrays, each looked up with
/// `partition_point`. Runs of equal keys keep record order, so
/// adjacency comes back in the order the records were appended.
#[derive(Debug)]
struct DecodedSeg {
    /// The records in record order, so sorted by user (user steps are
    /// non-decreasing within a segment).
    by_user: Vec<RawRec>,
    /// Indices into `by_user`, stably sorted by def.
    by_def: Vec<u32>,
    /// `(addr, step)` sorted and deduplicated.
    addr_steps: Vec<(Addr, u64)>,
}

/// The run of `sorted` entries whose key is `key`.
fn run_of<T, K: Ord>(sorted: &[T], key: K, key_of: impl Fn(&T) -> K) -> &[T] {
    let lo = sorted.partition_point(|e| key_of(e) < key);
    let len = sorted[lo..].partition_point(|e| key_of(e) == key);
    &sorted[lo..lo + len]
}

impl DecodedSeg {
    /// Indices into `by_user` of the records whose def is `step`, in
    /// record order.
    fn def_run(&self, step: u64) -> &[u32] {
        run_of(&self.by_def, step, |&i| self.by_user[i as usize].def)
    }

    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        run_of(&self.by_user, step, |r| r.user).iter().map(|r| (r.def, r.kind))
    }

    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        self.def_run(step).iter().map(|&i| {
            let r = &self.by_user[i as usize];
            (r.user, r.kind)
        })
    }

    /// The step's first mention in record order, numbering record `i`'s
    /// user side `2i` and its def side `2i + 1`.
    fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        let u = self.by_user.partition_point(|r| r.user < step);
        let as_user = self.by_user.get(u).filter(|r| r.user == step).map(|_| 2 * u);
        let as_def = self.def_run(step).first().map(|&i| 2 * i as usize + 1);
        let first = as_user.into_iter().chain(as_def).min()?;
        let r = &self.by_user[first / 2];
        Some(if first % 2 == 0 { (r.user_addr, r.user_stmt) } else { (r.def_addr, r.def_stmt) })
    }

    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> + '_ {
        run_of(&self.addr_steps, addr, |e| e.0).iter().map(|&(_, step)| step)
    }
}

/// Decode a payload **and validate the pruning metadata against it**
/// (recovery-ladder rung 2): the stored `first_user`/`last_user`/
/// `min_def`/`count` must be re-derivable from the records, otherwise
/// the segment is classified corrupt rather than queried with lying
/// bounds.
fn decode_validated(payload: &[u8], meta: &SegMeta) -> Result<DecodedSeg, CorruptKind> {
    if meta.count == 0 {
        // Sealed segments always hold records; a zero count is a lie.
        return Err(CorruptKind::MetaMismatch);
    }
    let n = meta.count as usize;
    let mut by_user = Vec::with_capacity(n);
    let mut addr_steps = Vec::with_capacity(2 * n);
    let (mut first, mut last, mut min_def) = (0u64, 0u64, u64::MAX);
    let mut iter = RecordIter::new(payload, meta.count);
    for (seen, rec) in (&mut iter).enumerate() {
        let r = rec?;
        if seen == 0 {
            first = r.user;
        }
        last = r.user;
        min_def = min_def.min(r.def);
        addr_steps.push((r.user_addr, r.user));
        addr_steps.push((r.def_addr, r.def));
        by_user.push(r);
    }
    if iter.pos != payload.len() {
        // Trailing bytes: the count under-reports the payload.
        return Err(CorruptKind::MetaMismatch);
    }
    if first != meta.first_user || last != meta.last_user || min_def != meta.min_def {
        return Err(CorruptKind::MetaMismatch);
    }
    let mut by_def: Vec<u32> = (0..meta.count).collect();
    by_def.sort_by_key(|&i| by_user[i as usize].def);
    addr_steps.sort_unstable();
    addr_steps.dedup();
    Ok(DecodedSeg { by_user, by_def, addr_steps })
}

/// Rung-2 validation without keeping the decoded form (used by the
/// open-time scrub in [`crate::durable`]).
pub(crate) fn validate_payload(meta: &SegMeta, payload: &[u8]) -> Result<(), CorruptKind> {
    decode_validated(payload, meta).map(|_| ())
}

/// Where a sealed segment's payload lives.
#[derive(Clone, Debug)]
enum SegPayload {
    /// In memory (non-durable store, or a spill that fell back).
    Mem(Vec<u8>),
    /// On disk under this sequence number, `len` payload bytes.
    Disk { seq: u64, len: u32 },
}

/// A sealed segment: metadata in memory, payload wherever it lives.
#[derive(Clone, Debug)]
struct SealedSeg {
    /// Stable key for the decode memo and the quarantine ledger
    /// (survives compaction rewriting the `sealed` vector).
    id: u64,
    meta: SegMeta,
    payload: SegPayload,
}

/// A corruption event: the step range lost and which ladder rung
/// caught it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineEvent {
    pub first_user: u64,
    pub last_user: u64,
    pub reason: CorruptKind,
}

#[derive(Debug, Default)]
struct QuarantineLedger {
    /// Blacklisted sealed-segment ids (never decoded again).
    ids: HashSet<u64>,
    /// Ids of open tails already counted corrupt, so the segment they
    /// seal into is not counted twice.
    tails: HashSet<u64>,
    /// Every corruption observed, in discovery order.
    events: Vec<QuarantineEvent>,
}

/// Shared mutable runtime state: query paths discover corruption
/// through `&self`, so the ledger and counters live behind interior
/// mutability (shared by clones of the store).
#[derive(Debug, Default)]
struct ColdRuntime {
    /// Segments classified corrupt by any ladder rung.
    corrupt: AtomicU64,
    /// Seals kept in memory because the spill failed permanently.
    mem_fallbacks: AtomicU64,
    quarantine: Mutex<QuarantineLedger>,
}

/// The shared bounded-LRU decode memo: concurrent [`ColdView`]s over
/// one store decode a hot segment exactly once. Decoding happens under
/// the lock — that *is* the sharing guarantee. Besides the LRU it holds
/// one slot for the open tail.
#[derive(Debug)]
struct DecodeMemo {
    inner: Mutex<MemoInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct MemoInner {
    cap: usize,
    tick: u64,
    map: HashMap<u64, MemoEntry>,
    /// The open tail's decode (or its failure), keyed by [`TailKey`].
    open: Option<(TailKey, Result<Arc<DecodedSeg>, CorruptKind>)>,
}

/// Identity of the open tail's contents: the id it will seal under and
/// its record count. Appends raise the count and seals (or compactions)
/// raise the id, so the key never repeats with different bytes.
type TailKey = (u64, u32);

#[derive(Debug)]
struct MemoEntry {
    seg: Arc<DecodedSeg>,
    stamp: u64,
}

impl DecodeMemo {
    fn new(cap: usize) -> DecodeMemo {
        DecodeMemo {
            inner: Mutex::new(MemoInner {
                cap: cap.max(1),
                tick: 0,
                map: HashMap::new(),
                open: None,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn get_or_decode(
        &self,
        id: u64,
        decode: impl FnOnce() -> Result<DecodedSeg, CorruptKind>,
    ) -> Result<Arc<DecodedSeg>, CorruptKind> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let now = inner.tick;
        if let Some(e) = inner.map.get_mut(&id) {
            e.stamp = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&e.seg));
        }
        let seg = Arc::new(decode()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if inner.map.len() >= inner.cap {
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(&k, _)| k) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(id, MemoEntry { seg: Arc::clone(&seg), stamp: now });
        Ok(seg)
    }

    /// The open tail's slot: decode on a key change, serve the cached
    /// result (a failure included) otherwise. Counted like the LRU.
    fn get_or_decode_open(
        &self,
        key: TailKey,
        decode: impl FnOnce() -> Result<DecodedSeg, CorruptKind>,
    ) -> Result<Arc<DecodedSeg>, CorruptKind> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((k, res)) = &inner.open {
            if *k == key {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return res.clone();
            }
        }
        let res = decode().map(Arc::new);
        self.misses.fetch_add(1, Ordering::Relaxed);
        inner.open = Some((key, res.clone()));
        res
    }

    fn set_cap(&self, cap: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.cap = cap.max(1);
        while inner.map.len() > inner.cap {
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(&k, _)| k) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// What a compaction pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionReport {
    /// Merged groups written.
    pub groups: usize,
    /// Input segments consumed by merges.
    pub merged_segments: usize,
    /// Cold-tier payload bytes before/after.
    pub bytes_before: u64,
    pub bytes_after: u64,
}

/// Append-only store of compressed evicted-record segments. Owned by
/// the tracer next to the buffer (see `OnTracConfig::cold_tier`) and
/// fed from the same `push_with` eviction callback that prunes the
/// live index, so it sees every evicted record exactly once, in order.
///
/// Generic over an I/O fault plan ([`NoopIoFaults`] by default: every
/// injection site compiles away). Clones share the decode memo, the
/// quarantine ledger, and (for durable stores) the I/O statistics —
/// clone for concurrent *readers*; only one clone may append.
#[derive(Clone, Debug)]
pub struct ColdStore<F: IoFaultPlan = NoopIoFaults> {
    sealed: Vec<SealedSeg>,
    open: Option<ColdSegment>,
    records: u64,
    next_id: u64,
    spill: Option<SegmentStore<F>>,
    memo: Arc<DecodeMemo>,
    runtime: Arc<ColdRuntime>,
}

impl<F: IoFaultPlan> Default for ColdStore<F> {
    fn default() -> ColdStore<F> {
        ColdStore {
            sealed: Vec::new(),
            open: None,
            records: 0,
            next_id: 0,
            spill: None,
            memo: Arc::new(DecodeMemo::new(DEFAULT_MEMO_CAPACITY)),
            runtime: Arc::new(ColdRuntime::default()),
        }
    }
}

impl ColdStore {
    /// Memory-only store (PR 7 behavior): sealed segments stay resident.
    pub fn new() -> ColdStore {
        ColdStore::default()
    }

    /// Durable store: sealed segments spill to checksummed files under
    /// `dir` (see [`crate::durable`] for the format and write
    /// discipline).
    pub fn durable(dir: &Path) -> io::Result<ColdStore> {
        Ok(ColdStore { spill: Some(SegmentStore::create(dir)?), ..ColdStore::default() })
    }

    /// [`ColdStore::durable`], degrading to a memory-only store if the
    /// directory cannot be created — the same graceful-degradation
    /// policy as a disk-full spill, counted by
    /// [`ColdStore::mem_fallbacks`].
    pub fn durable_or_memory(dir: &Path) -> ColdStore {
        match ColdStore::durable(dir) {
            Ok(store) => store,
            Err(_) => {
                let store = ColdStore::new();
                store.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                store
            }
        }
    }

    /// Recover a durable store after a restart: scrub every segment
    /// file through the recovery ladder, quarantine failures (recorded
    /// in [`ColdStore::missing_step_ranges`]), and rebuild the sealed
    /// manifest from the survivors.
    pub fn reopen(dir: &Path) -> io::Result<(ColdStore, ScrubReport)> {
        let (store, mut manifest, report) = SegmentStore::open(dir)?;
        // Chronological order, not spill order: compaction gives merged
        // segments fresh (newer) sequence numbers than an untouched
        // tail, but queries iterate segments oldest-first.
        manifest.sort_by_key(|&(seq, meta, _)| (meta.first_user, seq));
        let mut cold = ColdStore { spill: Some(store), ..ColdStore::default() };
        for (seq, meta, payload_len) in manifest {
            let id = cold.next_id;
            cold.next_id += 1;
            cold.records += u64::from(meta.count);
            cold.sealed.push(SealedSeg {
                id,
                meta,
                payload: SegPayload::Disk { seq, len: payload_len },
            });
        }
        {
            let mut ledger = cold.runtime.quarantine.lock().unwrap();
            for q in &report.quarantined {
                cold.runtime.corrupt.fetch_add(1, Ordering::Relaxed);
                if let Some((first_user, last_user)) = q.step_range {
                    ledger.events.push(QuarantineEvent { first_user, last_user, reason: q.reason });
                }
            }
        }
        Ok((cold, report))
    }
}

impl<F: IoFaultPlan> ColdStore<F> {
    /// Durable store with an armed fault plan: every spill/load runs
    /// through the [`crate::iofault`] oracle.
    pub fn durable_with_faults(dir: &Path, faults: F) -> io::Result<ColdStore<F>> {
        Ok(ColdStore {
            spill: Some(SegmentStore::with_faults(dir, faults)?),
            ..ColdStore::default()
        })
    }

    /// Append one evicted record.
    pub fn append(&mut self, rec: &BufRecord) {
        if let Some(seg) = &self.open {
            // FIFO eviction of a monotone stream keeps user steps
            // non-decreasing; if an upstream desync ever violates that,
            // seal and start fresh so the per-segment invariant (and
            // with it gap decoding) survives.
            if seg.count > 0 && rec.dep.user < seg.last_user {
                self.seal_open();
            }
        }
        let seg = self.open.get_or_insert_with(ColdSegment::new);
        seg.push(rec);
        self.records += 1;
        if seg.count >= SEGMENT_RECORDS {
            self.seal_open();
        }
    }

    /// Seal (and for durable stores, spill) the open segment now.
    /// Appending normally seals at segment granularity; call this
    /// before a planned shutdown so the tail survives too.
    pub fn flush(&mut self) {
        self.seal_open();
    }

    fn seal_open(&mut self) {
        let Some(seg) = self.open.take() else { return };
        if seg.count == 0 {
            return;
        }
        let meta = seg.meta();
        let id = self.next_id;
        self.next_id += 1;
        let len = seg.bytes.len() as u32;
        let payload = match self.spill.as_mut() {
            Some(store) => match store.spill(&meta, &seg.bytes) {
                Ok(seq) => SegPayload::Disk { seq, len },
                Err(_) => {
                    // Permanent spill failure (disk full, exhausted
                    // retries): degrade to resident, lose nothing.
                    self.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                    SegPayload::Mem(seg.bytes)
                }
            },
            None => SegPayload::Mem(seg.bytes),
        };
        self.sealed.push(SealedSeg { id, meta, payload });
    }

    /// Total records spilled so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Segments held (sealed plus the open one, if non-empty).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.open.as_ref().is_some_and(|s| s.count > 0))
    }

    /// Compressed payload bytes held (resident + on disk).
    pub fn bytes(&self) -> u64 {
        let open = self.open.as_ref().map_or(0, |s| s.bytes.len() as u64);
        self.sealed
            .iter()
            .map(|s| match &s.payload {
                SegPayload::Mem(b) => b.len() as u64,
                SegPayload::Disk { len, .. } => u64::from(*len),
            })
            .sum::<u64>()
            + open
    }

    /// Payload bytes held in memory (open segment + resident seals).
    pub fn resident_bytes(&self) -> u64 {
        let open = self.open.as_ref().map_or(0, |s| s.bytes.len() as u64);
        self.sealed
            .iter()
            .map(|s| match &s.payload {
                SegPayload::Mem(b) => b.len() as u64,
                SegPayload::Disk { .. } => 0,
            })
            .sum::<u64>()
            + open
    }

    /// Bytes currently on disk (headers + payloads), 0 for memory-only
    /// stores.
    pub fn disk_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.stats().disk_bytes.load(Ordering::Relaxed))
    }

    /// Is this store backed by a [`SegmentStore`]?
    pub fn is_durable(&self) -> bool {
        self.spill.is_some()
    }

    /// Shared I/O statistics of the durable backend, if any.
    pub fn durable_stats(&self) -> Option<&IoStats> {
        self.spill.as_ref().map(|s| s.stats())
    }

    /// Oldest user step held, if any — everything at or after it is
    /// answerable from cold (possibly jointly with the live window).
    pub fn first_user(&self) -> Option<u64> {
        self.sealed
            .first()
            .map(|s| s.meta.first_user)
            .or_else(|| self.open.as_ref().filter(|s| s.count > 0).map(|s| s.first_user))
    }

    /// Metadata of every sealed segment, in seal order. Stable across
    /// fault plans: spill outcomes change where payloads live, never
    /// how the record stream is cut into segments.
    pub fn segment_metas(&self) -> Vec<SegMeta> {
        self.sealed.iter().map(|s| s.meta).collect()
    }

    /// Decode-memo hit count (shared across views and clones).
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits.load(Ordering::Relaxed)
    }

    /// Decode-memo misses — the number of segment decodes performed
    /// (open-tail decodes included).
    pub fn memo_misses(&self) -> u64 {
        self.memo.misses.load(Ordering::Relaxed)
    }

    /// Decode-memo LRU evictions.
    pub fn memo_evictions(&self) -> u64 {
        self.memo.evictions.load(Ordering::Relaxed)
    }

    /// Bound the shared decode memo (segments; minimum 1). Shrinking
    /// evicts least-recently-used entries immediately.
    pub fn set_memo_capacity(&self, cap: usize) {
        self.memo.set_cap(cap);
    }

    /// Segments classified corrupt so far (any recovery-ladder rung).
    pub fn corrupt_segments(&self) -> u64 {
        self.runtime.corrupt.load(Ordering::Relaxed)
    }

    /// Seals kept resident because durable storage failed permanently.
    pub fn mem_fallbacks(&self) -> u64 {
        self.runtime.mem_fallbacks.load(Ordering::Relaxed)
    }

    /// Every corruption observed, in discovery order.
    pub fn corruption_events(&self) -> Vec<QuarantineEvent> {
        self.runtime.quarantine.lock().unwrap().events.clone()
    }

    /// The user-step ranges lost to quarantined segments, merged and
    /// sorted — what a `Degraded` query outcome reports. Empty means
    /// every sealed segment decoded (or has not been touched yet; see
    /// [`ColdStore::verify`] for an eager sweep).
    pub fn missing_step_ranges(&self) -> Vec<(u64, u64)> {
        let ledger = self.runtime.quarantine.lock().unwrap();
        let mut ranges: Vec<(u64, u64)> =
            ledger.events.iter().map(|e| (e.first_user, e.last_user)).collect();
        drop(ledger);
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, end)) if lo <= end.saturating_add(1) => *end = (*end).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// Recovery-ladder rung 3: force-decode every sealed segment (CRC +
    /// metadata validation), quarantining failures, and return the
    /// resulting [`ColdStore::missing_step_ranges`]. After this call
    /// the missing ranges are *exactly* the damage present — nothing
    /// latent remains.
    pub fn verify(&self) -> Vec<(u64, u64)> {
        let view = ColdView::new(self);
        for seg in &self.sealed {
            let _ = view.decoded_sealed(seg);
        }
        let _ = view.decoded_open();
        self.missing_step_ranges()
    }

    fn is_quarantined(&self, id: u64) -> bool {
        self.runtime.quarantine.lock().unwrap().ids.contains(&id)
    }

    /// Classify a sealed segment corrupt: blacklist its id, record the
    /// lost range, and quarantine the backing file (if any).
    fn note_corrupt(&self, seg: &SealedSeg, reason: CorruptKind) {
        {
            let mut ledger = self.runtime.quarantine.lock().unwrap();
            if !ledger.ids.insert(seg.id) {
                return;
            }
            ledger.events.push(QuarantineEvent {
                first_user: seg.meta.first_user,
                last_user: seg.meta.last_user,
                reason,
            });
            if !ledger.tails.contains(&seg.id) {
                self.runtime.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let (SegPayload::Disk { seq, .. }, Some(store)) = (&seg.payload, &self.spill) {
            store.quarantine(*seq);
        }
    }

    /// Record a failed open-tail decode as the tail's step range, so a
    /// checked query reports it `Degraded`. Not blacklisted: the tail
    /// still grows, each new [`TailKey`] decodes again, and once sealed
    /// the segment goes through the sealed path like any other.
    fn note_corrupt_open(&self, seg: &ColdSegment, reason: CorruptKind) {
        let mut ledger = self.runtime.quarantine.lock().unwrap();
        ledger.events.push(QuarantineEvent {
            first_user: seg.first_user,
            last_user: seg.last_user,
            reason,
        });
        if ledger.tails.insert(self.next_id) {
            self.runtime.corrupt.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decode a sealed segment's payload, loading from disk if needed.
    fn decode_sealed(&self, seg: &SealedSeg) -> Result<DecodedSeg, CorruptKind> {
        match &seg.payload {
            SegPayload::Mem(bytes) => decode_validated(bytes, &seg.meta),
            SegPayload::Disk { seq, .. } => {
                let store = self.spill.as_ref().expect("disk payload without a segment store");
                match store.load(*seq, &seg.meta) {
                    Ok(bytes) => decode_validated(&bytes, &seg.meta),
                    Err(LoadError::Corrupt(kind)) => Err(kind),
                    Err(LoadError::Fault(_) | LoadError::Io(_)) => Err(CorruptKind::Unreadable),
                }
            }
        }
    }

    /// Raw records of a sealed segment (compaction input).
    fn raw_records(&self, seg: &SealedSeg) -> Result<Vec<RawRec>, CorruptKind> {
        let collect = |bytes: &[u8]| -> Result<Vec<RawRec>, CorruptKind> {
            RecordIter::new(bytes, seg.meta.count).collect()
        };
        match &seg.payload {
            SegPayload::Mem(bytes) => collect(bytes),
            SegPayload::Disk { seq, .. } => {
                let store = self.spill.as_ref().expect("disk payload without a segment store");
                match store.load(*seq, &seg.meta) {
                    Ok(bytes) => collect(&bytes),
                    Err(LoadError::Corrupt(kind)) => Err(kind),
                    Err(LoadError::Fault(_) | LoadError::Io(_)) => Err(CorruptKind::Unreadable),
                }
            }
        }
    }

    /// Retention-driven compaction: merge runs of sealed segments whose
    /// entire user-step range is older than `newest − retain_steps`,
    /// rewriting the merged payload through the same atomic spill path
    /// and deleting the input files. Semantics-preserving: queries see
    /// exactly the same records before and after.
    pub fn compact(&mut self, retain_steps: u64) -> CompactionReport {
        let mut report = CompactionReport { bytes_before: self.bytes(), ..Default::default() };
        let newest = self
            .open
            .as_ref()
            .filter(|s| s.count > 0)
            .map(|s| s.last_user)
            .or_else(|| self.sealed.last().map(|s| s.meta.last_user));
        let Some(newest) = newest else {
            report.bytes_after = report.bytes_before;
            return report;
        };
        let horizon = newest.saturating_sub(retain_steps);
        let old_sealed = std::mem::take(&mut self.sealed);
        let mut out: Vec<SealedSeg> = Vec::new();
        let mut group: Vec<SealedSeg> = Vec::new();
        for seg in old_sealed {
            // Mergeable: wholly behind the horizon, not quarantined,
            // and monotone with the group so far (a desync-sealed
            // boundary must not be merged across — gap encoding needs
            // non-decreasing users).
            let monotone =
                group.last().is_none_or(|g: &SealedSeg| g.meta.last_user <= seg.meta.first_user);
            if seg.meta.last_user < horizon && !self.is_quarantined(seg.id) && monotone {
                group.push(seg);
                if group.len() == COMPACT_GROUP {
                    self.flush_group(std::mem::take(&mut group), &mut out, &mut report);
                }
            } else {
                self.flush_group(std::mem::take(&mut group), &mut out, &mut report);
                out.push(seg);
            }
        }
        self.flush_group(group, &mut out, &mut report);
        self.sealed = out;
        report.bytes_after = self.bytes();
        report
    }

    fn flush_group(
        &mut self,
        group: Vec<SealedSeg>,
        out: &mut Vec<SealedSeg>,
        report: &mut CompactionReport,
    ) {
        if group.len() < 2 {
            out.extend(group);
            return;
        }
        let mut merged = ColdSegment::new();
        let mut consumed: Vec<&SealedSeg> = Vec::new();
        for seg in &group {
            match self.raw_records(seg) {
                Ok(records) => {
                    for r in records {
                        merged.push_raw(r);
                    }
                    consumed.push(seg);
                }
                Err(kind) => {
                    // A member that fails the ladder mid-compaction is
                    // quarantined like any other read; the survivors
                    // still merge.
                    self.note_corrupt(seg, kind);
                }
            }
        }
        if merged.count == 0 {
            return;
        }
        report.groups += 1;
        report.merged_segments += consumed.len();
        let meta = merged.meta();
        let id = self.next_id;
        self.next_id += 1;
        let len = merged.bytes.len() as u32;
        let payload = match self.spill.as_mut() {
            Some(store) => match store.spill(&meta, &merged.bytes) {
                Ok(seq) => SegPayload::Disk { seq, len },
                Err(_) => {
                    self.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                    SegPayload::Mem(merged.bytes)
                }
            },
            None => SegPayload::Mem(merged.bytes),
        };
        // The merged segment is durable; the inputs can go.
        if let Some(store) = &self.spill {
            for seg in consumed {
                if let SegPayload::Disk { seq, .. } = seg.payload {
                    store.remove(seq);
                }
            }
        }
        out.push(SealedSeg { id, meta, payload });
    }

    /// Test hook: corrupt a sealed segment's *metadata* in place, to
    /// prove that lying pruning bounds are classified as corruption
    /// rather than silently mis-pruning.
    #[doc(hidden)]
    pub fn tamper_sealed_meta(&mut self, idx: usize, f: impl FnOnce(&mut SegMeta)) {
        f(&mut self.sealed[idx].meta);
    }

    /// Test hook: flip a byte of a resident sealed payload.
    #[doc(hidden)]
    pub fn tamper_sealed_payload(&mut self, idx: usize, byte: usize) {
        if let SegPayload::Mem(bytes) = &mut self.sealed[idx].payload {
            let n = bytes.len();
            bytes[byte % n] ^= 0x40;
        }
    }

    /// Test hook: flip a byte of the open tail's payload. Drops the
    /// tail's memo slot, whose key an in-place edit does not change.
    #[doc(hidden)]
    pub fn tamper_open_payload(&mut self, byte: usize) {
        if let Some(seg) = self.open.as_mut().filter(|s| !s.bytes.is_empty()) {
            let n = seg.bytes.len();
            seg.bytes[byte % n] ^= 0x40;
            seg.tampered = true;
            self.memo.inner.lock().unwrap().open = None;
        }
    }
}

/// A read view over a [`ColdStore`]. Every segment, the open tail
/// included, decodes through the store's **shared** memo, so views are
/// free to create: concurrent or successive views decode a segment once
/// per store.
pub struct ColdView<'a, F: IoFaultPlan = NoopIoFaults> {
    store: &'a ColdStore<F>,
}

impl<'a, F: IoFaultPlan> ColdView<'a, F> {
    pub fn new(store: &'a ColdStore<F>) -> ColdView<'a, F> {
        ColdView { store }
    }

    fn decoded_sealed(&self, seg: &SealedSeg) -> Option<Arc<DecodedSeg>> {
        if self.store.is_quarantined(seg.id) {
            return None;
        }
        match self.store.memo.get_or_decode(seg.id, || self.store.decode_sealed(seg)) {
            Ok(d) => Some(d),
            Err(kind) => {
                self.store.note_corrupt(seg, kind);
                None
            }
        }
    }

    fn decoded_open(&self) -> Option<Arc<DecodedSeg>> {
        let seg = self.store.open.as_ref().filter(|s| s.count > 0)?;
        let key = (self.store.next_id, seg.count);
        let decode = || {
            decode_validated(&seg.bytes, &seg.meta()).inspect_err(|&kind| {
                debug_assert!(seg.tampered, "in-memory open tail failed to decode: {kind:?}");
                self.store.note_corrupt_open(seg, kind);
            })
        };
        self.store.memo.get_or_decode_open(key, decode).ok()
    }

    /// Decoded segments whose metadata passes `candidate`: sealed ones
    /// oldest-first, then the open tail. Corrupt segments are skipped
    /// (and quarantined on first sight).
    fn decoded<'v>(
        &'v self,
        candidate: impl Fn(&SegMeta) -> bool + Copy + 'v,
    ) -> impl Iterator<Item = Arc<DecodedSeg>> + 'v {
        let sealed = self.store.sealed.iter().filter(move |s| candidate(&s.meta));
        let open = self.store.open.as_ref().filter(move |s| candidate(&s.meta()));
        sealed
            .filter_map(|seg| self.decoded_sealed(seg))
            .chain(open.into_iter().filter_map(|_| self.decoded_open()))
    }

    /// Cold dependences whose user is `step`: `(def, kind)` pairs.
    /// The metadata scan is O(segments) but touches only two `u64`s
    /// per segment; decode happens for candidate segments only.
    pub fn defs(&self, step: u64) -> Vec<(u64, DepKind)> {
        let mut out = Vec::new();
        for d in self.decoded(|m| m.may_have_user(step)) {
            out.extend(d.defs(step));
        }
        out
    }

    /// Cold dependences whose def is `step`: `(user, kind)` pairs.
    /// Defs can be arbitrarily older than their segment's user range,
    /// so every segment with `min_def ≤ step ≤ last_user` is a
    /// candidate.
    pub fn users(&self, step: u64) -> Vec<(u64, DepKind)> {
        let mut out = Vec::new();
        for d in self.decoded(|m| m.may_have_def(step)) {
            out.extend(d.users(step));
        }
        out
    }

    /// Metadata for a step mentioned anywhere in the cold tier.
    pub fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        self.decoded(|m| m.may_have_user(step) || m.may_have_def(step))
            .find_map(|d| d.meta_of(step))
    }

    /// Cold steps executed at `addr`, ascending and deduplicated.
    /// Address queries have no per-segment metadata to filter on, so
    /// this decodes every segment (once per *store*, thanks to the
    /// shared memo); it is the by-address criterion path, not the walk
    /// hot path.
    pub fn steps_at(&self, addr: Addr) -> Vec<u64> {
        let mut steps = Vec::new();
        for d in self.decoded(|_| true) {
            steps.extend(d.steps_at(addr));
        }
        steps.sort_unstable();
        steps.dedup();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::record;

    fn rec(user: u64, def: u64, kind: DepKind) -> BufRecord {
        record(user, def, kind, user as u32 % 11, def as u32 % 11, user as u32, def as u32)
    }

    #[test]
    fn roundtrips_every_field_across_segment_seals() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 2 + 100;
        for i in 1..=n {
            store.append(&rec(i, i / 2, [DepKind::RegData, DepKind::MemData][i as usize % 2]));
        }
        assert_eq!(store.record_count(), n);
        assert_eq!(store.segment_count(), 3);
        assert_eq!(store.first_user(), Some(1));
        let view = ColdView::new(&store);
        for i in [1, 2, 1000, u64::from(SEGMENT_RECORDS), n - 1, n] {
            let defs = view.defs(i);
            assert_eq!(defs, vec![(i / 2, [DepKind::RegData, DepKind::MemData][i as usize % 2])]);
            assert_eq!(view.meta_of(i), Some((i as u32 % 11, i as u32)));
        }
        // users(d) finds every user of d, across segment boundaries.
        let users = view.users(500);
        let mut want: Vec<u64> = vec![1000, 1001];
        want.retain(|&u| u <= n);
        assert_eq!(users.iter().map(|&(u, _)| u).collect::<Vec<_>>(), want);
    }

    #[test]
    fn gap_encoding_is_compact_for_dense_streams() {
        let mut store = ColdStore::new();
        for i in 1..=10_000u64 {
            store.append(&rec(i, i - 1, DepKind::RegData));
        }
        let per_record = store.bytes() as f64 / store.record_count() as f64;
        // gap=1, dist=1, kind, two 1-byte addrs and two ≤2-byte stmt
        // ids: ≤9 bytes vs the 28-byte in-memory BufRecord.
        assert!(per_record < 10.0, "expected tight packing, got {per_record:.2} B/record");
    }

    #[test]
    fn steps_at_unions_segments_sorted() {
        let mut store = ColdStore::new();
        for i in 1..=3_000u64 {
            store.append(&rec(i, i.saturating_sub(7), DepKind::MemData));
        }
        let view = ColdView::new(&store);
        let at_3 = view.steps_at(3);
        assert!(!at_3.is_empty());
        assert!(at_3.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(at_3.iter().all(|&s| s % 11 == 3));
    }

    #[test]
    fn non_monotone_input_seals_rather_than_corrupts() {
        let mut store = ColdStore::new();
        store.append(&rec(100, 99, DepKind::RegData));
        store.append(&rec(50, 49, DepKind::RegData)); // upstream desync
        store.append(&rec(120, 119, DepKind::RegData));
        let view = ColdView::new(&store);
        assert_eq!(view.defs(100), vec![(99, DepKind::RegData)]);
        assert_eq!(view.defs(50), vec![(49, DepKind::RegData)]);
        assert_eq!(view.defs(120), vec![(119, DepKind::RegData)]);
        assert_eq!(store.record_count(), 3);
    }

    #[test]
    fn empty_store_answers_empty() {
        let store = ColdStore::new();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.bytes(), 0);
        assert_eq!(store.first_user(), None);
        assert!(store.missing_step_ranges().is_empty());
        assert!(store.verify().is_empty());
        let view = ColdView::new(&store);
        assert!(view.defs(1).is_empty());
        assert!(view.users(1).is_empty());
        assert!(view.meta_of(1).is_none());
        assert!(view.steps_at(0).is_empty());
    }

    #[test]
    fn shared_memo_counts_hits_and_bounds_entries() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 3;
        for i in 1..=n {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        store.set_memo_capacity(2);
        let view = ColdView::new(&store);
        let _ = view.defs(1); // decodes segment 0
        let _ = view.defs(1); // memo hit
        assert_eq!(store.memo_misses(), 1);
        assert!(store.memo_hits() >= 1);
        // Touch all three sealed segments: capacity 2 must evict.
        let _ = view.defs(u64::from(SEGMENT_RECORDS) + 1);
        let _ = view.defs(2 * u64::from(SEGMENT_RECORDS) + 1);
        assert!(store.memo_evictions() >= 1, "LRU must evict beyond capacity");
    }

    #[test]
    fn tampered_meta_is_classified_as_corruption_not_wrong_pruning() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) + 10;
        for i in 1..=n {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        // Lie about last_user so the segment claims coverage of steps
        // it does not hold — the decoder must catch the disagreement,
        // not silently trust the pruning bound.
        store.tamper_sealed_meta(0, |m| m.last_user += 100);
        let view = ColdView::new(&store);
        let _ = view.defs(5);
        assert_eq!(store.corrupt_segments(), 1);
        let events = store.corruption_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reason, CorruptKind::MetaMismatch);
        let missing = store.missing_step_ranges();
        assert_eq!(missing.len(), 1);
        // Later queries skip the quarantined segment without repeating
        // the classification.
        let _ = view.defs(1);
        assert_eq!(store.corrupt_segments(), 1);
    }

    #[test]
    fn tampered_payload_is_quarantined_by_decode() {
        let mut store = ColdStore::new();
        for i in 1..=u64::from(SEGMENT_RECORDS) {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        // Byte 16 is the third record's kind byte (7-byte records for
        // this stream): the flip produces an undecodable discriminant.
        store.tamper_sealed_payload(0, 16);
        let view = ColdView::new(&store);
        assert!(view.defs(5).is_empty(), "quarantined segment must answer empty");
        assert_eq!(store.corrupt_segments(), 1);
        assert_eq!(store.verify(), store.missing_step_ranges());
    }

    #[test]
    fn compaction_preserves_query_results() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 6 + 50;
        for i in 1..=n {
            store.append(&rec(i, i / 2, DepKind::MemData));
        }
        let before_segs = store.segment_count();
        let probes: Vec<u64> = vec![1, 7, 1024, 2048, 4000, n - 1, n];
        let before: Vec<_> = {
            let view = ColdView::new(&store);
            probes.iter().map(|&s| (view.defs(s), view.users(s), view.meta_of(s))).collect()
        };
        let report = store.compact(0);
        assert!(report.groups >= 1);
        assert!(report.merged_segments >= 2);
        assert!(store.segment_count() < before_segs, "compaction must shrink the segment list");
        assert_eq!(store.record_count(), n, "no records may be lost");
        let after: Vec<_> = {
            let view = ColdView::new(&store);
            probes.iter().map(|&s| (view.defs(s), view.users(s), view.meta_of(s))).collect()
        };
        assert_eq!(before, after, "compaction must be semantics-preserving");
    }

    #[test]
    fn open_tail_decodes_once_per_store_and_follows_appends() {
        let mut store = ColdStore::new();
        for i in 1..=100u64 {
            store.append(&rec(i, i - 1, DepKind::RegData));
        }
        for _ in 0..3 {
            let view = ColdView::new(&store);
            assert_eq!(view.defs(50), vec![(49, DepKind::RegData)]);
        }
        assert_eq!(store.memo_misses(), 1, "one decode shared by every view");
        assert_eq!(store.memo_hits(), 2);
        store.append(&rec(101, 100, DepKind::MemData));
        let view = ColdView::new(&store);
        assert_eq!(view.defs(101), vec![(100, DepKind::MemData)], "the new record is visible");
        assert_eq!(view.users(100), vec![(101, DepKind::MemData)]);
        assert_eq!(store.memo_misses(), 2, "an append re-keys the tail");
        // Past a seal, answers equal a store that was never queried.
        let n = u64::from(SEGMENT_RECORDS) + 100;
        let mut fresh = ColdStore::new();
        for i in 1..=n {
            let r = if i == 101 {
                rec(101, 100, DepKind::MemData)
            } else {
                rec(i, i - 1, DepKind::RegData)
            };
            if i > 101 {
                store.append(&r);
            }
            fresh.append(&r);
        }
        assert_eq!(store.segment_count(), 2);
        let (v, f) = (ColdView::new(&store), ColdView::new(&fresh));
        for s in (0..=n + 1).step_by(7).chain([100, 101, n]) {
            assert_eq!(v.defs(s), f.defs(s), "defs({s})");
            assert_eq!(v.users(s), f.users(s), "users({s})");
            assert_eq!(v.meta_of(s), f.meta_of(s), "meta_of({s})");
        }
        for a in 0..11 {
            assert_eq!(v.steps_at(a), f.steps_at(a), "steps_at({a})");
        }
    }

    #[test]
    fn damaged_open_tail_is_recorded_once_as_its_range() {
        let mut store = ColdStore::new();
        for i in 100..=140u64 {
            store.append(&rec(i, i - 1, DepKind::RegData));
        }
        // Byte 2 is the first record's kind byte: an undecodable kind.
        store.tamper_open_payload(2);
        let view = ColdView::new(&store);
        assert!(view.defs(120).is_empty(), "a damaged tail answers empty");
        assert!(view.defs(130).is_empty());
        assert_eq!(store.missing_step_ranges(), vec![(100, 140)]);
        assert_eq!(store.corruption_events()[0].reason, CorruptKind::BadRecord);
        assert_eq!(store.corrupt_segments(), 1);
        assert_eq!(store.memo_misses(), 1, "the failure is cached like a decode");
        // The damaged bytes seal into a segment: same segment, one
        // count, and the loss grows to its sealed range.
        let last = 99 + u64::from(SEGMENT_RECORDS);
        for i in 141..=last {
            store.append(&rec(i, i - 1, DepKind::RegData));
        }
        assert_eq!(store.verify(), vec![(100, last)]);
        assert_eq!(store.corrupt_segments(), 1);
    }

    /// A naive index of the raw record stream, built by one linear pass
    /// in append order: what every [`ColdView`] lookup must reproduce.
    #[derive(Default)]
    struct Naive {
        defs: HashMap<u64, Vec<(u64, DepKind)>>,
        users: HashMap<u64, Vec<(u64, DepKind)>>,
        meta: HashMap<u64, (Addr, StmtId)>,
        at: HashMap<Addr, std::collections::BTreeSet<u64>>,
    }

    impl Naive {
        fn new(records: &[BufRecord]) -> Naive {
            let mut n = Naive::default();
            for r in records {
                let d = r.dep;
                n.defs.entry(d.user).or_default().push((d.def, d.kind));
                n.users.entry(d.def).or_default().push((d.user, d.kind));
                n.meta.entry(d.user).or_insert((r.user_addr, r.user_stmt));
                n.meta.entry(d.def).or_insert((r.def_addr, r.def_stmt));
                n.at.entry(r.user_addr).or_default().insert(d.user);
                n.at.entry(r.def_addr).or_default().insert(d.def);
            }
            n
        }

        fn check(&self, store: &ColdStore, max_step: u64) -> Result<(), String> {
            let view = ColdView::new(store);
            for s in 0..=max_step + 1 {
                let want = self.defs.get(&s).cloned().unwrap_or_default();
                if view.defs(s) != want {
                    return Err(format!("defs({s}): {:?} != {want:?}", view.defs(s)));
                }
                let want = self.users.get(&s).cloned().unwrap_or_default();
                if view.users(s) != want {
                    return Err(format!("users({s}): {:?} != {want:?}", view.users(s)));
                }
                if view.meta_of(s) != self.meta.get(&s).copied() {
                    return Err(format!("meta_of({s}): {:?}", view.meta_of(s)));
                }
            }
            for a in 0..8 {
                let want: Vec<u64> =
                    self.at.get(&a).map_or(Vec::new(), |s| s.iter().copied().collect());
                if view.steps_at(a) != want {
                    return Err(format!("steps_at({a}): {:?} != {want:?}", view.steps_at(a)));
                }
            }
            Ok(())
        }
    }

    /// One record's draws: `((mode, dist, hot, kind), (user_addr, def_addr))`.
    type Draw = ((u64, u64, u64, u8), (u32, u32));

    /// Record stream from draws: `mode` 0 jumps back when `jumpy` (a
    /// non-monotone user seals the segment early; without jumps, long
    /// streams seal full segments that `compact` can merge), other
    /// modes below 40 repeat the user, the rest step 1..=3; `hot` < 4
    /// points the def at one of four hot steps (many users per def);
    /// addresses come from 0..6 (collisions).
    fn stream(jumpy: bool, draws: &[Draw]) -> Vec<BufRecord> {
        let mut user = 0u64;
        let mut out = Vec::with_capacity(draws.len());
        for &((mode, dist, hot, kind), (ua, da)) in draws {
            user = match mode {
                0 if jumpy => user.saturating_sub(1 + dist * 3),
                0..40 => user,
                _ => user + mode % 3 + 1,
            };
            let def = if hot < 4 { hot.min(user) } else { user - dist.min(user) };
            let kind = kind_from_byte(kind).unwrap();
            out.push(crate::buffer::record(user, def, kind, ua, da, ua * 3 + 1, da * 3 + 2));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn flat_lookups_match_a_linear_scan(
            draws in proptest::collection::vec(
                ((0u64..80, 0u64..12, 0u64..16, 0u8..5), (0u32..6, 0u32..6)),
                0..4200,
            ),
            jumpy in 0u8..2,
            retain_pct in 0u64..50,
        ) {
            let records = stream(jumpy == 1, &draws);
            let mut store = ColdStore::new();
            for r in &records {
                store.append(r);
            }
            let naive = Naive::new(&records);
            let max_step = records.iter().map(|r| r.dep.user).max().unwrap_or(0);
            if let Err(e) = naive.check(&store, max_step) {
                proptest::prop_assert!(false, "{}", e);
            }
            let retain = max_step * retain_pct / 100;
            store.compact(retain);
            if let Err(e) = naive.check(&store, max_step) {
                proptest::prop_assert!(false, "after compact({}): {}", retain, e);
            }
        }
    }

    #[test]
    fn compaction_respects_retention() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 4;
        for i in 1..=n {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        // Horizon excludes every segment: nothing merges.
        let report = store.compact(n + 10);
        assert_eq!(report.groups, 0);
        assert_eq!(report.merged_segments, 0);
    }
}
