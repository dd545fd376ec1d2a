//! # dift-robdd — reduced ordered binary decision diagrams
//!
//! The representation behind the paper's lineage tracing (§3.4, VLDB'07):
//! lineage sets — sets of input identifiers — are stored as roBDDs over
//! the binary encoding of the identifiers. Two properties of real lineage
//! data make this efficient, and the encoding is chosen to exploit both:
//!
//! * **Overlap** — lineage sets of neighbouring values share most
//!   elements; hash-consing makes shared subsets shared subgraphs.
//! * **Clustering** — if an input is in a set, its neighbours in the
//!   input stream usually are too; with the most-significant bit as the
//!   top variable, contiguous identifier ranges collapse into tiny
//!   subgraphs.
//!
//! The manager ([`BddManager`]) owns the node store, the unique
//! (hash-cons) table and the apply cache; set handles are plain
//! [`NodeId`]s. Canonicity: equal sets have equal node ids, so set
//! equality is pointer equality — tested by the property suite.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style multiplicative hasher for the manager's integer-keyed
/// tables (`unique`, `cache`, the `count` memo). Keys are a few `u32`
/// node ids and an op tag, so SipHash's DoS resistance buys nothing
/// here and costs most of a table probe; this hasher folds each word
/// in with one add and one multiply. It is unseeded, so table
/// behaviour is deterministic run to run.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl IdHasher {
    /// An odd constant with well-spread bits (any such works).
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the best-mixed bits at the top; rotate
        // some of them down to where the table takes its bucket index.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    /// `Op`'s derived `Hash` writes its discriminant as an `isize`.
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Node handle. `FALSE` (empty set) and `TRUE` (all-accepting) are the
/// terminal nodes.
pub type NodeId = u32;

/// The empty set / false terminal.
pub const FALSE: NodeId = 0;
/// The universal acceptor / true terminal.
pub const TRUE: NodeId = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: NodeId,
    hi: NodeId,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    Union,
    Intersect,
    Diff,
}

/// Manager for one family of BDD sets over `nvars`-bit identifiers.
pub struct BddManager {
    nvars: u32,
    nodes: Vec<Node>,
    unique: IdMap<Node, NodeId>,
    cache: IdMap<(Op, NodeId, NodeId), NodeId>,
}

impl BddManager {
    /// A manager for sets of identifiers in `[0, 2^nvars)`. `nvars ≤ 64`.
    pub fn new(nvars: u32) -> BddManager {
        assert!(nvars <= 64, "at most 64-bit identifiers");
        BddManager {
            nvars,
            // Slots 0/1 are terminals; var = nvars is the terminal level.
            nodes: vec![
                Node { var: nvars, lo: FALSE, hi: FALSE },
                Node { var: nvars, lo: TRUE, hi: TRUE },
            ],
            unique: IdMap::default(),
            cache: IdMap::default(),
        }
    }

    pub fn nvars(&self) -> u32 {
        self.nvars
    }

    #[inline]
    fn var(&self, n: NodeId) -> u32 {
        self.nodes[n as usize].var
    }

    fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    /// The empty set.
    pub fn empty(&self) -> NodeId {
        FALSE
    }

    /// Bit of `value` at BDD level `var` (var 0 = most significant bit).
    #[inline]
    fn bit(&self, value: u64, var: u32) -> bool {
        (value >> (self.nvars - 1 - var)) & 1 == 1
    }

    /// The singleton set `{value}`.
    pub fn singleton(&mut self, value: u64) -> NodeId {
        debug_assert!(self.nvars == 64 || value < (1u64 << self.nvars));
        let mut node = TRUE;
        for var in (0..self.nvars).rev() {
            node = if self.bit(value, var) {
                self.mk(var, FALSE, node)
            } else {
                self.mk(var, node, FALSE)
            };
        }
        node
    }

    /// The set `{lo..=hi}` built directly (clustering fast path).
    pub fn range(&mut self, lo: u64, hi: u64) -> NodeId {
        if lo > hi {
            return FALSE;
        }
        self.range_rec(0, 0, lo, hi)
    }

    fn range_rec(&mut self, var: u32, prefix: u64, lo: u64, hi: u64) -> NodeId {
        let width = self.nvars - var; // bits remaining
        let span = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        let lo_node = prefix;
        let hi_node = prefix.saturating_add(span);
        if hi_node < lo || lo_node > hi {
            return FALSE;
        }
        if lo_node >= lo && hi_node <= hi {
            return TRUE; // fully inside: all remaining assignments accepted
        }
        // Single points (width 0) are fully decided by the checks above,
        // so reaching here implies at least one variable remains.
        debug_assert!(width >= 1);
        let half = 1u64 << (width - 1);
        let l = self.range_rec(var + 1, prefix, lo, hi);
        let h = self.range_rec(var + 1, prefix + half, lo, hi);
        self.mk(var, l, h)
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        // Terminal rules.
        match op {
            Op::Union => {
                if a == TRUE || b == TRUE {
                    return TRUE;
                }
                if a == FALSE {
                    return b;
                }
                if b == FALSE || a == b {
                    return a;
                }
            }
            Op::Intersect => {
                if a == FALSE || b == FALSE {
                    return FALSE;
                }
                if a == TRUE {
                    return b;
                }
                if b == TRUE || a == b {
                    return a;
                }
            }
            Op::Diff => {
                if a == FALSE || b == TRUE || a == b {
                    return FALSE;
                }
                if b == FALSE {
                    return a;
                }
            }
        }
        let key = match op {
            Op::Union | Op::Intersect if a > b => (op, b, a), // commutative: canonical order
            _ => (op, a, b),
        };
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let (va, vb) = (self.var(a), self.var(b));
        let v = va.min(vb);
        let (alo, ahi) =
            if va == v { (self.nodes[a as usize].lo, self.nodes[a as usize].hi) } else { (a, a) };
        let (blo, bhi) =
            if vb == v { (self.nodes[b as usize].lo, self.nodes[b as usize].hi) } else { (b, b) };
        let lo = self.apply(op, alo, blo);
        let hi = self.apply(op, ahi, bhi);
        let r = self.mk(v, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// Set union.
    pub fn union(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Union, a, b)
    }

    /// Set intersection.
    pub fn intersect(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Intersect, a, b)
    }

    /// Set difference `a \ b`.
    pub fn difference(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Diff, a, b)
    }

    /// Insert one element (union with a singleton).
    pub fn insert(&mut self, set: NodeId, value: u64) -> NodeId {
        let s = self.singleton(value);
        self.union(set, s)
    }

    /// Membership test.
    pub fn contains(&self, set: NodeId, value: u64) -> bool {
        let mut node = set;
        loop {
            if node == FALSE {
                return false;
            }
            if node == TRUE {
                return true;
            }
            let n = self.nodes[node as usize];
            node = if self.bit(value, n.var) { n.hi } else { n.lo };
        }
    }

    /// Number of elements in the set.
    ///
    /// Exact for every cardinality representable in a `u64`. The one
    /// unrepresentable cardinality — the universal set over `nvars =
    /// 64`, which has exactly 2^64 elements — **saturates to
    /// `u64::MAX`**. A returned `u64::MAX` is therefore ambiguous
    /// between "2^64 − 1" and "2^64"; callers that must distinguish
    /// can test `set == TRUE`. No other set is affected: at `nvars ≤
    /// 63` every count fits, and at `nvars = 64` every proper subset
    /// has at most 2^64 − 1 elements.
    pub fn count(&self, set: NodeId) -> u64 {
        let mut memo: IdMap<NodeId, u64> = IdMap::default();
        self.count_rec(set, 0, &mut memo)
    }

    /// `x << shift`, saturating to `u64::MAX` when the true value
    /// overflows (shift past the leading zeros of a nonzero `x`).
    #[inline]
    fn shl_saturating(x: u64, shift: u32) -> u64 {
        if x == 0 {
            0
        } else if shift > x.leading_zeros() {
            u64::MAX
        } else {
            x << shift
        }
    }

    fn count_rec(&self, node: NodeId, level: u32, memo: &mut IdMap<NodeId, u64>) -> u64 {
        // Count assignments of variables level.. that reach TRUE.
        let var = self.var(node);
        debug_assert!(var >= level);
        let below = if node == FALSE {
            0
        } else if node == TRUE {
            // The terminal sits at the level past the last variable:
            // exactly one (empty) assignment; the skip factor below
            // accounts for every variable between `level` and it.
            1
        } else if let Some(&c) = memo.get(&node) {
            c
        } else {
            let n = self.nodes[node as usize];
            let lo = self.count_rec(n.lo, n.var + 1, memo);
            let hi = self.count_rec(n.hi, n.var + 1, memo);
            // Only the whole-universe count can exceed u64::MAX, and it
            // does so by exactly one — saturation is the documented
            // policy (see `count`).
            let c = lo.saturating_add(hi);
            memo.insert(node, c);
            c
        };
        // Skipped variables between `level` and `var` double the count;
        // the 2^64-element universal set saturates here.
        Self::shl_saturating(below, var - level)
    }

    /// Enumerate the set's elements (ascending). **Test/validation
    /// only**: cost is proportional to the output size, which for
    /// near-universal sets at wide `nvars` is astronomical — reporting
    /// paths must use [`elements_up_to`](Self::elements_up_to).
    pub fn elements(&self, set: NodeId) -> Vec<u64> {
        self.elements_up_to(set, usize::MAX)
    }

    /// The set's `limit` smallest elements, ascending. Cost is
    /// proportional to the *output* (O(limit · nvars)): the bounded
    /// walk takes the 0-branch of every variable — explicit or skipped
    /// — before the 1-branch and stops the moment `limit` elements are
    /// emitted, so even `TRUE` over 64 variables returns in O(limit)
    /// instead of recursing 2^64 times. This is the reporting-safe
    /// enumeration; [`elements`](Self::elements) is the unbounded
    /// test-only variant.
    pub fn elements_up_to(&self, set: NodeId, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        if limit > 0 {
            self.enumerate_bounded(set, 0, 0, limit, &mut out);
        }
        out
    }

    /// Ascending bounded enumeration; returns true when `limit` was
    /// reached (callers short-circuit). Every non-`FALSE` node has at
    /// least one path to `TRUE` (hash-consing collapses dead
    /// branches), so each visit is charged to an emitted element and
    /// total work stays O(output · nvars).
    fn enumerate_bounded(
        &self,
        node: NodeId,
        level: u32,
        prefix: u64,
        limit: usize,
        out: &mut Vec<u64>,
    ) -> bool {
        if node == FALSE {
            return false;
        }
        if node == TRUE {
            // Every assignment of the `w` remaining variables is
            // accepted: the subtree is one contiguous run of values,
            // emitted in a loop rather than by 2^w recursive leaves.
            let w = self.nvars - level;
            let first = prefix.checked_shl(w).unwrap_or(0); // w = 64 only at the root
            let last = if w == 0 { first } else { first | (u64::MAX >> (64 - w)) };
            let mut v = first;
            loop {
                out.push(v);
                if out.len() >= limit {
                    return true;
                }
                if v == last {
                    return false;
                }
                v += 1;
            }
        }
        let var = self.var(node);
        if var > level {
            // Skipped variable: both assignments reach `node`; 0 first
            // keeps the output ascending.
            return self.enumerate_bounded(node, level + 1, prefix << 1, limit, out)
                || self.enumerate_bounded(node, level + 1, (prefix << 1) | 1, limit, out);
        }
        let n = self.nodes[node as usize];
        self.enumerate_bounded(n.lo, level + 1, prefix << 1, limit, out)
            || self.enumerate_bounded(n.hi, level + 1, (prefix << 1) | 1, limit, out)
    }

    /// Rewrite sets owned by another manager (over the same variable
    /// universe) into this one, returning the translated `roots` in
    /// order. This is the shard-merge primitive: each helper shard
    /// builds lineage in a private arena, and composition absorbs the
    /// arena's live roots into the primary manager.
    ///
    /// The walk visits `other`'s reachable nodes in ascending id order
    /// — which is bottom-up, because `mk` only ever references
    /// already-built children — and rebuilds each through this
    /// manager's own [hash-consing]. Canonicity is therefore
    /// preserved: an absorbed set gets **the same node id** a serial
    /// build of the same set in this manager would produce, so merged
    /// sets stay pointer-comparable against serially-built ones. Cost
    /// is O(nodes reachable from `roots`) in `other`, independent of
    /// set cardinality.
    ///
    /// [hash-consing]: #method.node_count
    pub fn absorb(&mut self, other: &BddManager, roots: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(self.nvars, other.nvars, "managers must share the variable universe");
        let mut reach = vec![false; other.nodes.len()];
        let mut stack: Vec<NodeId> = roots.iter().copied().filter(|&r| r > TRUE).collect();
        while let Some(n) = stack.pop() {
            if reach[n as usize] {
                continue;
            }
            reach[n as usize] = true;
            let node = other.nodes[n as usize];
            if node.lo > TRUE {
                stack.push(node.lo);
            }
            if node.hi > TRUE {
                stack.push(node.hi);
            }
        }
        // Identity start covers the terminals (0 → 0, 1 → 1).
        let mut map: Vec<NodeId> = (0..other.nodes.len() as NodeId).collect();
        for id in 2..other.nodes.len() {
            if !reach[id] {
                continue;
            }
            let n = other.nodes[id];
            map[id] = self.mk(n.var, map[n.lo as usize], map[n.hi as usize]);
        }
        roots.iter().map(|&r| map[r as usize]).collect()
    }

    /// Total nodes allocated by the manager (shared across all sets).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The `(lo, hi)` children of a decision node; `None` for the
    /// terminals. Lets a client keep its own per-node bookkeeping (the
    /// lineage backend's live-node reference counts) without a walk.
    #[inline]
    pub fn children(&self, n: NodeId) -> Option<(NodeId, NodeId)> {
        if n <= TRUE {
            return None;
        }
        let node = self.nodes[n as usize];
        Some((node.lo, node.hi))
    }

    /// Nodes reachable from `set` (its private size if nothing were
    /// shared).
    pub fn set_nodes(&self, set: NodeId) -> usize {
        self.reachable(&[set])
    }

    /// Nodes reachable from any of `roots` — the store a garbage-collected
    /// manager would retain for these live sets (shared nodes counted
    /// once). A full walk: online accounting keeps reference counts
    /// instead, and uses this only as its test oracle.
    pub fn reachable(&self, roots: &[NodeId]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0;
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if n <= TRUE || seen[n as usize] {
                continue;
            }
            seen[n as usize] = true;
            count += 1;
            let node = self.nodes[n as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// Bytes used by the node store (16 B per node: packed var/lo/hi plus
    /// the unique-table slot).
    pub fn bytes(&self) -> usize {
        self.nodes.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_contains_only_its_element() {
        let mut m = BddManager::new(8);
        let s = m.singleton(42);
        assert!(m.contains(s, 42));
        for v in [0u64, 1, 41, 43, 255] {
            assert!(!m.contains(s, v), "{v}");
        }
        assert_eq!(m.count(s), 1);
        assert_eq!(m.elements(s), vec![42]);
    }

    #[test]
    fn union_and_intersection() {
        let mut m = BddManager::new(8);
        let a = m.singleton(1);
        let b = m.singleton(2);
        let ab = m.union(a, b);
        assert_eq!(m.count(ab), 2);
        assert_eq!(m.elements(ab), vec![1, 2]);
        let i = m.intersect(ab, a);
        assert_eq!(i, a, "canonicity: equal sets are identical nodes");
        let empty = m.intersect(a, b);
        assert_eq!(empty, FALSE);
    }

    #[test]
    fn difference_removes_elements() {
        let mut m = BddManager::new(8);
        let mut s = m.empty();
        for v in [3u64, 4, 5] {
            s = m.insert(s, v);
        }
        let b = m.singleton(4);
        let d = m.difference(s, b);
        assert_eq!(m.elements(d), vec![3, 5]);
    }

    #[test]
    fn range_equals_repeated_insertion() {
        let mut m = BddManager::new(10);
        let r = m.range(100, 131);
        let mut s = m.empty();
        for v in 100..=131 {
            s = m.insert(s, v);
        }
        assert_eq!(r, s, "canonical representation must coincide");
        assert_eq!(m.count(r), 32);
    }

    #[test]
    fn clustered_range_is_tiny() {
        let mut m = BddManager::new(20);
        // An aligned contiguous range of 2^12 elements...
        let r = m.range(1 << 12, (1 << 13) - 1);
        assert_eq!(m.count(r), 1 << 12);
        // ...costs only ~nvars nodes, not 4096.
        assert!(m.set_nodes(r) <= 20, "got {}", m.set_nodes(r));
    }

    #[test]
    fn overlapping_sets_share_structure() {
        let mut m = BddManager::new(16);
        let base = m.range(0, 1023);
        let before = m.node_count();
        // Ten sets overlapping in the shared 1024-element base.
        let mut handles = Vec::new();
        for k in 0..10u64 {
            let extra = m.singleton(2000 + k);
            handles.push(m.union(base, extra));
        }
        let grown = m.node_count() - before;
        // Each overlapping set costs O(nvars) fresh nodes (the singleton
        // chain plus the union spine), NOT O(|set|): 10 sets of 1025
        // elements grow the store by well under 10 × 2 × nvars nodes.
        assert!(grown < 10 * 2 * 16, "sharing failed: grew {grown}");
        for (k, &h) in handles.iter().enumerate() {
            assert!(m.contains(h, 2000 + k as u64));
            assert!(m.contains(h, 512));
            assert_eq!(m.count(h), 1025);
        }
    }

    #[test]
    fn empty_set_properties() {
        let mut m = BddManager::new(8);
        let e = m.empty();
        assert_eq!(m.count(e), 0);
        assert!(m.elements(e).is_empty());
        let s = m.singleton(5);
        assert_eq!(m.union(e, s), s);
        assert_eq!(m.intersect(e, s), FALSE);
    }

    #[test]
    fn range_inverted_bounds_is_empty() {
        let mut m = BddManager::new(8);
        assert_eq!(m.range(10, 5), FALSE);
    }

    #[test]
    fn full_width_64bit_ids() {
        let mut m = BddManager::new(64);
        let s = m.singleton(u64::MAX - 1);
        assert!(m.contains(s, u64::MAX - 1));
        assert!(!m.contains(s, u64::MAX));
    }

    #[test]
    fn idempotent_and_commutative_union() {
        let mut m = BddManager::new(8);
        let a = m.range(0, 7);
        let b = m.range(4, 12);
        let ab = m.union(a, b);
        let ba = m.union(b, a);
        assert_eq!(ab, ba);
        assert_eq!(m.union(ab, ab), ab);
        assert_eq!(m.count(ab), 13);
    }

    #[test]
    fn count_universal_set_at_64_vars_saturates() {
        // Regression: the 2^64-element universal set used to miscount
        // (placeholder expression + `.min(63)` shift clamps). Policy:
        // it saturates to u64::MAX; everything smaller is exact.
        let mut m = BddManager::new(64);
        let all = m.range(0, u64::MAX);
        assert_eq!(all, TRUE);
        assert_eq!(m.count(all), u64::MAX);
    }

    #[test]
    fn count_near_universal_sets_at_64_vars_exact() {
        let mut m = BddManager::new(64);
        let all = m.range(0, u64::MAX);
        // 2^64 − 1 elements: exactly representable, must be exact.
        for victim in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let v = m.singleton(victim);
            let d = m.difference(all, v);
            assert_eq!(m.count(d), u64::MAX, "universe minus {victim}");
            assert!(!m.contains(d, victim));
        }
        // 2^64 − 2 elements.
        let a = m.singleton(0);
        let b = m.singleton(u64::MAX);
        let two = m.union(a, b);
        let d = m.difference(all, two);
        assert_eq!(m.count(d), u64::MAX - 1);
        // Exactly half the universe (top bit set): 2^63 fits exactly.
        let top = m.range(1 << 63, u64::MAX);
        assert_eq!(m.count(top), 1 << 63);
    }

    #[test]
    fn count_wide_ranges_exact() {
        let mut m = BddManager::new(64);
        for (lo, hi) in
            [(0u64, 0u64), (0, 1 << 40), (u64::MAX - 5, u64::MAX), (1 << 20, (1 << 52) + 17)]
        {
            let r = m.range(lo, hi);
            assert_eq!(m.count(r), hi - lo + 1, "range {lo}..={hi}");
        }
    }

    #[test]
    fn elements_up_to_is_bounded_on_huge_sets() {
        // Regression: `elements`/`enumerate_skip` recursed 2^(gap) times
        // across skipped-variable gaps, so TRUE at 64 vars hung. The
        // bounded walk's cost is proportional to the output.
        let mut m = BddManager::new(64);
        let all = m.range(0, u64::MAX);
        assert_eq!(m.elements_up_to(all, 5), vec![0, 1, 2, 3, 4]);
        let v = m.singleton(2);
        let holey = m.difference(all, v);
        assert_eq!(m.elements_up_to(holey, 4), vec![0, 1, 3, 4]);
        assert!(m.elements_up_to(all, 0).is_empty());
        // High elements force long skipped prefixes on the way down.
        let hi = m.range(u64::MAX - 2, u64::MAX);
        let s = m.union(v, hi);
        assert_eq!(m.elements_up_to(s, 8), vec![2, u64::MAX - 2, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn elements_up_to_matches_elements_prefix() {
        let mut m = BddManager::new(16);
        let mut s = m.empty();
        for v in [9u64, 4, 1000, 77, 3, 500] {
            s = m.insert(s, v);
        }
        let full = m.elements(s);
        for k in 0..=full.len() + 1 {
            assert_eq!(m.elements_up_to(s, k), full[..k.min(full.len())].to_vec());
        }
    }

    #[test]
    fn absorb_preserves_canonicity() {
        // Build the same sets in a private arena and serially in the
        // primary; absorbing the arena must land on identical node ids.
        let mut primary = BddManager::new(16);
        let pre = primary.range(100, 131); // shared structure pre-exists
        let mut arena = BddManager::new(16);
        let a = arena.range(100, 131);
        let s = arena.singleton(7);
        let u = arena.union(a, s);
        let moved = primary.absorb(&arena, &[a, s, u, FALSE, TRUE]);
        assert_eq!(moved[0], pre, "equal sets are pointer-equal after absorb");
        let serial_s = primary.singleton(7);
        let serial_u = primary.union(pre, serial_s);
        assert_eq!(moved[1], serial_s);
        assert_eq!(moved[2], serial_u);
        assert_eq!(moved[3], FALSE);
        assert_eq!(moved[4], TRUE);
        assert_eq!(primary.elements(moved[2]), arena.elements(u));
    }

    #[test]
    fn children_expose_the_decision_structure() {
        let mut m = BddManager::new(4);
        assert_eq!(m.children(FALSE), None);
        assert_eq!(m.children(TRUE), None);
        let s = m.range(0, 7); // {0..=7}: top bit 0, the rest free
        assert_eq!(m.children(s), Some((TRUE, FALSE)));
        let u = m.insert(s, 9);
        let (lo, hi) = m.children(u).expect("decision node");
        assert_eq!(lo, TRUE, "top bit 0: all of 0..=7");
        assert_eq!(m.set_nodes(u), 1 + m.set_nodes(hi));
        // Reachable counts each shared node once.
        assert_eq!(m.reachable(&[u, hi, u]), m.set_nodes(u));
        assert_eq!(m.reachable(&[u, s]), m.set_nodes(u) + 1);
    }

    #[test]
    fn absorb_only_copies_reachable_nodes() {
        let mut arena = BddManager::new(16);
        let _garbage = arena.range(0, 4095); // dead in the arena
        let live = arena.singleton(9);
        let mut primary = BddManager::new(16);
        let before = primary.node_count();
        let moved = primary.absorb(&arena, &[live]);
        // Only the singleton chain (≤ nvars nodes) crossed over.
        assert!(primary.node_count() - before <= 16);
        assert_eq!(primary.elements(moved[0]), vec![9]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn naive(vals: &[u64]) -> BTreeSet<u64> {
        vals.iter().copied().collect()
    }

    proptest! {
        #[test]
        fn union_matches_naive(a in proptest::collection::vec(0u64..4096, 0..60),
                               b in proptest::collection::vec(0u64..4096, 0..60)) {
            let mut m = BddManager::new(12);
            let mut sa = m.empty();
            for &v in &a { sa = m.insert(sa, v); }
            let mut sb = m.empty();
            for &v in &b { sb = m.insert(sb, v); }
            let su = m.union(sa, sb);
            let want: Vec<u64> = naive(&a).union(&naive(&b)).copied().collect();
            prop_assert_eq!(m.elements(su), want);
            prop_assert_eq!(m.count(su) as usize, naive(&a).union(&naive(&b)).count());
        }

        #[test]
        fn intersect_matches_naive(a in proptest::collection::vec(0u64..256, 0..40),
                                   b in proptest::collection::vec(0u64..256, 0..40)) {
            let mut m = BddManager::new(8);
            let mut sa = m.empty();
            for &v in &a { sa = m.insert(sa, v); }
            let mut sb = m.empty();
            for &v in &b { sb = m.insert(sb, v); }
            let si = m.intersect(sa, sb);
            let want: Vec<u64> = naive(&a).intersection(&naive(&b)).copied().collect();
            prop_assert_eq!(m.elements(si), want);
        }

        #[test]
        fn difference_matches_naive(a in proptest::collection::vec(0u64..256, 0..40),
                                    b in proptest::collection::vec(0u64..256, 0..40)) {
            let mut m = BddManager::new(8);
            let mut sa = m.empty();
            for &v in &a { sa = m.insert(sa, v); }
            let mut sb = m.empty();
            for &v in &b { sb = m.insert(sb, v); }
            let sd = m.difference(sa, sb);
            let want: Vec<u64> = naive(&a).difference(&naive(&b)).copied().collect();
            prop_assert_eq!(m.elements(sd), want);
        }

        #[test]
        fn canonicity_same_set_same_node(mut vals in proptest::collection::vec(0u64..512, 1..30)) {
            let mut m = BddManager::new(9);
            let mut s1 = m.empty();
            for &v in &vals { s1 = m.insert(s1, v); }
            // Insert in a different order — the node id must be identical.
            vals.reverse();
            let mut s2 = m.empty();
            for &v in &vals { s2 = m.insert(s2, v); }
            prop_assert_eq!(s1, s2);
        }

        #[test]
        fn contains_matches_membership(vals in proptest::collection::vec(0u64..1024, 0..50),
                                       probe in 0u64..1024) {
            let mut m = BddManager::new(10);
            let mut s = m.empty();
            for &v in &vals { s = m.insert(s, v); }
            prop_assert_eq!(m.contains(s, probe), naive(&vals).contains(&probe));
        }

        #[test]
        fn range_matches_naive(lo in 0u64..500, len in 0u64..100) {
            let mut m = BddManager::new(10);
            let hi = (lo + len).min(1023);
            let r = m.range(lo, hi);
            let want: Vec<u64> = (lo..=hi).collect();
            prop_assert_eq!(m.elements(r), want);
        }

        #[test]
        fn count_matches_elements_at_wide_widths(nvars in 32u32..65,
                                                 vals in proptest::collection::vec(0u64..u64::MAX, 0..40)) {
            // Regression for the count_rec shift clamps: at widths past
            // 32 the old `.min(63)` arithmetic could misweigh skipped
            // variables. Count must agree with exact enumeration.
            let mut m = BddManager::new(nvars);
            let mask = if nvars == 64 { u64::MAX } else { (1u64 << nvars) - 1 };
            let vals: Vec<u64> = vals.iter().map(|v| v & mask).collect();
            let mut s = m.empty();
            for &v in &vals { s = m.insert(s, v); }
            let want = naive(&vals);
            prop_assert_eq!(m.count(s) as usize, want.len());
            let want: Vec<u64> = want.into_iter().collect();
            prop_assert_eq!(m.elements(s), want.clone());
            prop_assert_eq!(m.elements_up_to(s, want.len() + 3), want);
        }

        #[test]
        fn absorb_matches_serial_build(nvars in 8u32..65,
                                       pre in proptest::collection::vec(0u64..u64::MAX, 0..25),
                                       vals in proptest::collection::vec(0u64..u64::MAX, 0..25)) {
            let mask = if nvars == 64 { u64::MAX } else { (1u64 << nvars) - 1 };
            let mut primary = BddManager::new(nvars);
            let mut spre = primary.empty();
            for &v in &pre { spre = primary.insert(spre, v & mask); }
            let mut arena = BddManager::new(nvars);
            let mut sa = arena.empty();
            for &v in &vals { sa = arena.insert(sa, v & mask); }
            let moved = primary.absorb(&arena, &[sa])[0];
            // Identical to the set built serially in the primary.
            let mut serial = primary.empty();
            for &v in &vals { serial = primary.insert(serial, v & mask); }
            prop_assert_eq!(moved, serial);
        }
    }
}
