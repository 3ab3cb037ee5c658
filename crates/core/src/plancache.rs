//! Per-processor cache of communication plans.
//!
//! The data-parallel layer (fx-darray) computes interval-based
//! communication plans for redistribution, halo exchange, and
//! repartitioning. A plan depends only on static descriptors — array
//! distributions, group memberships, ranges and shifts — so an m-iteration
//! pipeline re-executing the same assignment can build the plan once and
//! replay it m−1 times. This module provides the cache those plans live
//! in, hung off [`crate::Cx`] (one per processor, like everything else in
//! the SPMD model, so no locking is involved).
//!
//! The cache is type-erased: fx-core cannot name fx-darray's plan or key
//! types, so keys are stored as `Box<dyn Any>` compared via downcast, and
//! values as `Arc<dyn Any + Send + Sync>`. Lookup is by *exact* key
//! equality (the stored 64-bit hash only skips the entries that cannot
//! match), so two distinct descriptors can never alias to the same plan.
//!
//! Admission is 2Q (Johnson & Shasha, VLDB 1994), so a plan is kept in
//! proportion to its reuse:
//!
//! * a plan seen for the first time enters **probation**, a FIFO of
//!   [`PROBATION`] plans;
//! * a hit in probation moves the plan to the **protected** segment, an
//!   LRU (by a monotone use tick) of [`PROTECTED`] plans;
//! * a plan pushed out of probation leaves only its key hash in a
//!   **ghost** list of [`GHOSTS`] hashes, and a miss whose hash
//!   is there is built straight into the protected segment.
//!
//! A ghost hash only decides admission; exact key equality still decides
//! every hit, so a collision can cost memory or a rebuild, never a wrong
//! plan. Hits and misses are a pure function of the processor's own
//! statement sequence.
//!
//! The sizes are measured on the benchmark's five workloads (seed 42),
//! not tuned. Probation holds 8 plans: `paper_apps`' deepest probation
//! hit finds its plan in the oldest of 8 slots, so no plan the paper's
//! programs or the benchmark reuse ever needs its ghost, and misses
//! equal a plain 64-plan LRU's on all five. A scan of one-off statements
//! (`redist_churn`: 6 144 misses, no hit) then keeps 8 plans per
//! processor resident instead of 64, about 8 KiB each at P = 64. A ghost
//! costs 8 bytes, so 256 of them are 2 KiB, a quarter of one such plan,
//! and four times the 64 plans a plain LRU can hold: any reuse a 64-plan
//! LRU would hit costs at most one rebuild before the plan is protected.
//! Protected keeps the 64 plans that bound the cache before admission
//! existed: enough for every distinct statement of the paper's
//! applications, while a runaway program (one redistributing arrays of a
//! fresh extent each iteration) cannot grow it without bound.
//!
//! A cached plan is also what lets dataflow barrier elision (DESIGN.md
//! §5) drop every statement's barrier: a plan moves exactly the
//! intervals its descriptors describe, through per-peer `(source, tag)`
//! receives that already order the consumer behind the producer. The
//! cache stores no dataflow state, so hits and misses cannot change
//! which barriers run.

use std::any::{Any, TypeId};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::hash::SplitMixHasher;

/// Plans held on their first sighting.
const PROBATION: usize = 8;
/// Key hashes remembered after their plans leave probation.
const GHOSTS: usize = 256;
/// Reused plans held, evicted least recently used first.
const PROTECTED: usize = 64;

/// A cache key, type-erased. Equality goes through `Any` downcast: keys of
/// different concrete types are never equal.
trait DynKey: Send {
    fn eq_key(&self, other: &dyn Any) -> bool;
}

impl<K: Eq + Send + 'static> DynKey for K {
    fn eq_key(&self, other: &dyn Any) -> bool {
        other.downcast_ref::<K>() == Some(self)
    }
}

struct Entry {
    hash: u64,
    key: Box<dyn DynKey>,
    value: Arc<dyn Any + Send + Sync>,
    /// The tick of the last use. A probationary plan is never used without
    /// being promoted, so in probation this is its arrival: FIFO order.
    last_used: u64,
    /// In the protected segment, not on probation.
    protected: bool,
}

/// An exact-key map from plan descriptors to cached plans, bounded by 2Q
/// admission (see the module doc).
#[derive(Default)]
pub struct PlanCache {
    /// Both segments' plans, in no particular order: a lookup scans the
    /// hashes, and a full segment gives up its oldest plan.
    entries: Vec<Entry>,
    /// Hashes of the plans pushed out of probation, oldest first: at most
    /// [`GHOSTS`].
    ghosts: VecDeque<u64>,
    /// Monotone use counter ordering both segments.
    tick: u64,
}

impl PlanCache {
    /// Look up the plan for `key`, building and inserting it on a miss.
    /// Returns the plan and whether this was a cache hit.
    pub fn get_or_build<K, P, F>(&mut self, key: K, build: F) -> (Arc<P>, bool)
    where
        K: Eq + Hash + Send + 'static,
        P: Send + Sync + 'static,
        F: FnOnce() -> P,
    {
        self.tick += 1;
        let tick = self.tick;
        // A deterministic hasher, and a cheap one: every lookup hashes the
        // whole key. Hits and misses depend on exact key equality alone.
        let mut hasher = SplitMixHasher::default();
        TypeId::of::<K>().hash(&mut hasher);
        key.hash(&mut hasher);
        let hash = hasher.finish();

        if let Some(i) = self.entries.iter().position(|e| e.hash == hash && e.key.eq_key(&key)) {
            let e = &mut self.entries[i];
            e.last_used = tick;
            let value = Arc::clone(&e.value)
                .downcast::<P>()
                .expect("PlanCache: equal keys must cache equal plan types");
            if !e.protected {
                let mut e = self.entries.swap_remove(i);
                e.protected = true;
                self.insert(e);
            }
            return (value, true);
        }

        let value = Arc::new(build());
        let ghost = self.ghosts.iter().position(|&g| g == hash);
        if let Some(g) = ghost {
            self.ghosts.remove(g);
        }
        let protected = ghost.is_some();
        self.insert(Entry { hash, key: Box::new(key), value: Arc::clone(&value) as _, last_used: tick, protected });
        (value, false)
    }

    /// Add `e` to its segment, evicting the segment's oldest plan first if
    /// it is full. A plan pushed out of probation leaves its hash behind.
    fn insert(&mut self, e: Entry) {
        let cap = if e.protected { PROTECTED } else { PROBATION };
        let segment = || self.entries.iter().enumerate().filter(|(_, x)| x.protected == e.protected);
        if segment().count() == cap {
            let (oldest, _) = segment().min_by_key(|(_, x)| x.last_used).expect("capacity is not zero");
            let out = self.entries.swap_remove(oldest);
            if !out.protected {
                if self.ghosts.len() == GHOSTS {
                    self.ghosts.pop_front();
                }
                self.ghosts.push_back(out.hash);
            }
        }
        self.entries.push(e);
    }

    /// Number of cached plans, probationary and protected.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Look `key` up, caching `key` itself as its plan; true on a hit.
    fn hit(c: &mut PlanCache, key: usize) -> bool {
        c.get_or_build(key, || key).1
    }

    /// Plans on probation and protected.
    fn segments(c: &PlanCache) -> (usize, usize) {
        let protected = c.entries.iter().filter(|e| e.protected).count();
        (c.len() - protected, protected)
    }

    /// Fill the protected segment with `keys`: a miss, then a hit in
    /// probation, which promotes.
    fn protect_all(c: &mut PlanCache, keys: std::ops::Range<usize>) {
        for k in keys {
            assert!(!hit(c, k) && hit(c, k), "key {k}: miss, then a probation hit");
        }
    }

    #[test]
    fn build_once_then_hit() {
        let mut c = PlanCache::default();
        let mut builds = 0;
        let (v1, hit1) = c.get_or_build((1u64, 2u64), || {
            builds += 1;
            "plan".to_string()
        });
        let (v2, hit2) = c.get_or_build((1u64, 2u64), || {
            builds += 1;
            "never".to_string()
        });
        assert!(!hit1 && hit2);
        assert_eq!(builds, 1);
        assert_eq!(*v1, "plan");
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn distinct_keys_distinct_plans() {
        let mut c = PlanCache::default();
        let (a, _) = c.get_or_build(1u32, || 10i64);
        let (b, _) = c.get_or_build(2u32, || 20i64);
        assert_eq!((*a, *b), (10, 20));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_value_different_key_types_do_not_alias() {
        let mut c = PlanCache::default();
        let (a, _) = c.get_or_build(7u32, || 1i8);
        let (b, hit) = c.get_or_build(7u64, || 2i8);
        assert!(!hit, "different key types must miss");
        assert_eq!((*a, *b), (1, 2));
    }

    #[test]
    fn one_off_keys_leave_only_probation_resident() {
        let mut c = PlanCache::default();
        for k in 0..1000 {
            assert!(!hit(&mut c, k));
            assert!(c.len() <= PROBATION);
        }
        assert_eq!(segments(&c), (PROBATION, 0));
        assert_eq!(c.ghosts.len(), GHOSTS, "the ghost list is bounded too");
    }

    #[test]
    fn a_plan_seen_again_after_probation_is_protected() {
        let mut c = PlanCache::default();
        assert!(!hit(&mut c, 0));
        for k in 1..=PROBATION {
            assert!(!hit(&mut c, k));
        }
        assert_eq!(c.ghosts.len(), 1, "key 0 left probation as a ghost");
        assert!(!hit(&mut c, 0), "evicted from probation: rebuilt once");
        assert_eq!(segments(&c), (PROBATION, 1), "a ghost hit goes straight to protected");
        assert!(c.ghosts.is_empty(), "and leaves the ghost list");
        for k in 1000..2000 {
            hit(&mut c, k);
        }
        assert!(hit(&mut c, 0), "protected outlives a scan");
    }

    #[test]
    fn protected_plans_survive_a_scan_of_one_off_keys() {
        let mut c = PlanCache::default();
        protect_all(&mut c, 0..PROTECTED);
        let mut builds = 0;
        for k in 1000..2000 {
            c.get_or_build(k, || builds += 1);
        }
        assert_eq!(builds, 1000, "every one-off key is built once");
        for k in 0..PROTECTED {
            assert!(hit(&mut c, k), "protected key {k} was evicted by the scan");
        }
        assert_eq!(c.len(), PROTECTED + PROBATION);
    }

    #[test]
    fn protected_evicts_least_recently_used() {
        let mut c = PlanCache::default();
        protect_all(&mut c, 0..PROTECTED);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(hit(&mut c, 0));
        protect_all(&mut c, PROTECTED..PROTECTED + 1);
        assert_eq!(segments(&c), (0, PROTECTED));
        assert!(hit(&mut c, 0), "recently used entry survived");
        assert!(!hit(&mut c, 1), "LRU entry was evicted");
    }
}
