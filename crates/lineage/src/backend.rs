//! Set-representation backends for lineage labels.

use dift_robdd::{BddManager, NodeId, FALSE};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A lineage-set representation.
///
/// Sets are value-like handles; the backend owns any shared structure.
/// `union_cost` reports the cycle charge of the union just performed, so
/// the engine's cost model reflects representation-specific work.
///
/// Shadow-memory accounting is incremental: the engine
/// [`retain`](Self::retain)s a set when a shadow location starts
/// holding it and [`release`](Self::release)s it when the location is
/// overwritten, so [`live_bytes`](Self::live_bytes) is O(1) at every
/// sample point. Both ignore empty sets, which occupy no shadow state.
pub trait LineageBackend {
    type Set: Clone + PartialEq + std::fmt::Debug;

    fn empty(&mut self) -> Self::Set;
    fn singleton(&mut self, input_index: u64) -> Self::Set;
    /// Union, plus the modeled cycle cost of performing it.
    fn union(&mut self, a: &Self::Set, b: &Self::Set) -> (Self::Set, u64);
    fn is_empty(&self, s: &Self::Set) -> bool;
    /// Materialize (ascending) — reporting/validation only.
    fn elements(&self, s: &Self::Set) -> Vec<u64>;
    /// The `limit` smallest elements, ascending, at cost proportional
    /// to the output. Reporting paths use this instead of
    /// [`elements`](Self::elements) so pathological sets (near-universal
    /// at wide widths) cannot hang them.
    fn elements_up_to(&self, s: &Self::Set, limit: usize) -> Vec<u64> {
        let mut v = self.elements(s);
        v.truncate(limit);
        v
    }
    fn len(&self, s: &Self::Set) -> u64;
    /// One more shadow location now holds `s` (no-op when empty).
    fn retain(&mut self, s: &Self::Set);
    /// One shadow location no longer holds `s`, which it retained
    /// (no-op when empty).
    fn release(&mut self, s: &Self::Set);
    /// Bytes attributable to the currently retained sets.
    fn live_bytes(&self) -> usize;
    fn name(&self) -> &'static str;
}

/// roBDD-backed sets: canonical, hash-consed, range-friendly.
///
/// Accounting charges the store a garbage-collected manager would keep
/// for the retained sets: 16 bytes per live decision node (shared nodes
/// once) plus a 4-byte handle per retained root. A node is live while
/// its reference count — retained roots naming it plus live parents
/// pointing at it — is non-zero, so `live` equals the number of nodes
/// reachable from the retained roots without walking them.
pub struct BddBackend {
    mgr: BddManager,
    /// Per-node reference counts, grown lazily to `node_count()`.
    refs: Vec<u32>,
    /// Nodes with a non-zero count.
    live: usize,
    /// Retained non-empty roots (terminal `TRUE` included).
    roots: usize,
    /// Reused work stack for count cascades.
    stack: Vec<NodeId>,
}

impl BddBackend {
    /// `id_bits` bounds the representable input indices (`2^id_bits`).
    pub fn new(id_bits: u32) -> BddBackend {
        BddBackend {
            mgr: BddManager::new(id_bits),
            refs: Vec::new(),
            live: 0,
            roots: 0,
            stack: Vec::new(),
        }
    }

    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable manager access — the shard-compose path absorbs private
    /// per-epoch arenas into this primary manager.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }
}

impl LineageBackend for BddBackend {
    type Set = NodeId;

    fn empty(&mut self) -> NodeId {
        FALSE
    }

    fn singleton(&mut self, input_index: u64) -> NodeId {
        self.mgr.singleton(input_index)
    }

    fn union(&mut self, a: &NodeId, b: &NodeId) -> (NodeId, u64) {
        (self.mgr.union(*a, *b), crate::costs::BDD_UNION)
    }

    fn is_empty(&self, s: &NodeId) -> bool {
        *s == FALSE
    }

    fn elements(&self, s: &NodeId) -> Vec<u64> {
        self.mgr.elements(*s)
    }

    fn elements_up_to(&self, s: &NodeId, limit: usize) -> Vec<u64> {
        // The manager's bounded walk is O(limit · nvars) even on sets
        // whose full enumeration would be astronomical.
        self.mgr.elements_up_to(*s, limit)
    }

    fn len(&self, s: &NodeId) -> u64 {
        self.mgr.count(*s)
    }

    fn retain(&mut self, s: &NodeId) {
        if *s == FALSE {
            return;
        }
        self.roots += 1;
        if self.refs.len() < self.mgr.node_count() {
            self.refs.resize(self.mgr.node_count(), 0);
        }
        // A 0→1 node turns live and takes a reference on its children.
        self.stack.push(*s);
        while let Some(n) = self.stack.pop() {
            let Some((lo, hi)) = self.mgr.children(n) else { continue };
            let r = &mut self.refs[n as usize];
            *r += 1;
            if *r == 1 {
                self.live += 1;
                self.stack.extend([lo, hi]);
            }
        }
    }

    fn release(&mut self, s: &NodeId) {
        if *s == FALSE {
            return;
        }
        self.roots -= 1;
        // A 1→0 node dies and drops its references on its children.
        self.stack.push(*s);
        while let Some(n) = self.stack.pop() {
            let Some((lo, hi)) = self.mgr.children(n) else { continue };
            let r = &mut self.refs[n as usize];
            *r -= 1;
            if *r == 0 {
                self.live -= 1;
                self.stack.extend([lo, hi]);
            }
        }
    }

    fn live_bytes(&self) -> usize {
        self.live * 16 + self.roots * 4
    }

    fn name(&self) -> &'static str {
        "robdd"
    }
}

/// Naive baseline: a materialized ordered set per shadow location.
/// `Arc` keeps clones cheap during propagation, but the *memory
/// accounting* deliberately charges each stored set as if unshared —
/// that is what a per-location `std::set` implementation (the paper's
/// baseline) pays: 24 bytes of header plus 8 per element.
#[derive(Default)]
pub struct NaiveBackend {
    /// Running sum of the retained sets' charges.
    bytes: usize,
}

impl NaiveBackend {
    pub fn new() -> NaiveBackend {
        NaiveBackend::default()
    }

    fn charge(s: &BTreeSet<u64>) -> usize {
        24 + s.len() * 8
    }
}

impl LineageBackend for NaiveBackend {
    type Set = Arc<BTreeSet<u64>>;

    fn empty(&mut self) -> Self::Set {
        Arc::new(BTreeSet::new())
    }

    fn singleton(&mut self, input_index: u64) -> Self::Set {
        Arc::new([input_index].into_iter().collect())
    }

    fn union(&mut self, a: &Self::Set, b: &Self::Set) -> (Self::Set, u64) {
        if a.is_empty() {
            return (b.clone(), crate::costs::NAIVE_UNION_BASE);
        }
        if b.is_empty() {
            return (a.clone(), crate::costs::NAIVE_UNION_BASE);
        }
        let mut out: BTreeSet<u64> = (**a).clone();
        out.extend(b.iter().copied());
        let cost = crate::costs::NAIVE_UNION_BASE
            + crate::costs::NAIVE_PER_ELEM * (a.len() + b.len()) as u64;
        (Arc::new(out), cost)
    }

    fn is_empty(&self, s: &Self::Set) -> bool {
        s.is_empty()
    }

    fn elements(&self, s: &Self::Set) -> Vec<u64> {
        s.iter().copied().collect()
    }

    fn len(&self, s: &Self::Set) -> u64 {
        s.len() as u64
    }

    fn retain(&mut self, s: &Self::Set) {
        if !s.is_empty() {
            self.bytes += Self::charge(s);
        }
    }

    fn release(&mut self, s: &Self::Set) {
        if !s.is_empty() {
            self.bytes -= Self::charge(s);
        }
    }

    fn live_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: LineageBackend>(mut b: B) {
        let e = b.empty();
        assert!(b.is_empty(&e));
        let s1 = b.singleton(5);
        let s2 = b.singleton(9);
        let (u, _) = b.union(&s1, &s2);
        assert_eq!(b.elements(&u), vec![5, 9]);
        assert_eq!(b.len(&u), 2);
        let (u2, _) = b.union(&u, &e);
        assert_eq!(b.elements(&u2), vec![5, 9]);
        let (uu, _) = b.union(&u, &u);
        assert_eq!(b.elements(&uu), vec![5, 9], "idempotent");
    }

    #[test]
    fn bdd_backend_set_algebra() {
        exercise(BddBackend::new(16));
    }

    #[test]
    fn naive_backend_set_algebra() {
        exercise(NaiveBackend::new());
    }

    #[test]
    fn bdd_shares_overlapping_sets_naive_does_not() {
        let mut bdd = BddBackend::new(16);
        let mut naive = NaiveBackend::new();
        // Build 20 sets sharing a 256-element clustered base.
        let mut base_b = bdd.empty();
        let mut base_n = naive.empty();
        for i in 0..256u64 {
            let (nb, _) = {
                let s = bdd.singleton(i);
                bdd.union(&base_b, &s)
            };
            base_b = nb;
            let (nn, _) = {
                let s = naive.singleton(i);
                naive.union(&base_n, &s)
            };
            base_n = nn;
        }
        let mut bdd_sets = Vec::new();
        let mut naive_sets = Vec::new();
        for k in 0..20u64 {
            let s = bdd.singleton(1000 + k);
            bdd_sets.push(bdd.union(&base_b, &s).0);
            let s = naive.singleton(1000 + k);
            naive_sets.push(naive.union(&base_n, &s).0);
        }
        bdd_sets.iter().for_each(|s| bdd.retain(s));
        naive_sets.iter().for_each(|s| naive.retain(s));
        let bdd_bytes = bdd.live_bytes();
        let naive_bytes = naive.live_bytes();
        assert!(
            bdd_bytes * 2 < naive_bytes,
            "roBDD must win on overlap: {bdd_bytes} vs {naive_bytes}"
        );
    }

    #[test]
    fn union_costs_scale_differently() {
        let mut bdd = BddBackend::new(16);
        let mut naive = NaiveBackend::new();
        // A large clustered set union'ed with a singleton.
        let mut big_b = bdd.empty();
        let mut big_n = naive.empty();
        for i in 0..512u64 {
            big_b = {
                let s = bdd.singleton(i);
                bdd.union(&big_b, &s).0
            };
            big_n = {
                let s = naive.singleton(i);
                naive.union(&big_n, &s).0
            };
        }
        let sb = bdd.singleton(9999);
        let (_, cost_b) = bdd.union(&big_b, &sb);
        let sn = naive.singleton(9999);
        let (_, cost_n) = naive.union(&big_n, &sn);
        assert!(cost_b < cost_n, "bdd {cost_b} vs naive {cost_n}");
    }
}
