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
//! Eviction is LRU by a monotone use tick, bounded by a fixed capacity —
//! enough for every distinct statement of the paper's applications while
//! keeping a runaway program (e.g. one redistributing arrays of a fresh
//! extent each iteration) from growing without bound.
//!
//! A cached plan is also what lets dataflow barrier elision (DESIGN.md
//! §5) drop every statement's barrier: a plan moves exactly the
//! intervals its descriptors describe, through per-peer `(source, tag)`
//! receives that already order the consumer behind the producer. The
//! cache stores no dataflow state, so hits and misses cannot change
//! which barriers run.

use std::any::{Any, TypeId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::hash::SplitMixHasher;

/// Maximum number of cached plans per processor before LRU eviction.
const PLAN_CACHE_CAP: usize = 64;

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
    last_used: u64,
}

/// An exact-key, LRU-bounded map from plan descriptors to cached plans.
#[derive(Default)]
pub struct PlanCache {
    /// At most [`PLAN_CACHE_CAP`] entries, in no particular order: a lookup
    /// scans the hashes, a miss on a full cache overwrites the LRU slot.
    entries: Vec<Entry>,
    /// Monotone use counter driving LRU eviction.
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

        if let Some(e) = self.entries.iter_mut().find(|e| e.hash == hash && e.key.eq_key(&key)) {
            e.last_used = tick;
            let value = Arc::clone(&e.value)
                .downcast::<P>()
                .expect("PlanCache: equal keys must cache equal plan types");
            return (value, true);
        }

        let value = Arc::new(build());
        let entry = Entry { hash, key: Box::new(key), value: Arc::clone(&value) as _, last_used: tick };
        if self.entries.len() < PLAN_CACHE_CAP {
            self.entries.push(entry);
        } else {
            let lru = self.entries.iter_mut().min_by_key(|e| e.last_used).expect("capacity is not zero");
            *lru = entry;
        }
        (value, false)
    }

    /// Number of cached plans.
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
    fn lru_evicts_oldest() {
        let mut c = PlanCache::default();
        for i in 0..PLAN_CACHE_CAP {
            c.get_or_build(i, || i);
        }
        assert_eq!(c.len(), PLAN_CACHE_CAP);
        // Touch key 0 so key 1 becomes the LRU victim.
        let (_, hit) = c.get_or_build(0usize, || usize::MAX);
        assert!(hit);
        c.get_or_build(PLAN_CACHE_CAP, || 0usize);
        assert_eq!(c.len(), PLAN_CACHE_CAP);
        let (_, hit0) = c.get_or_build(0usize, || usize::MAX);
        let (_, hit1) = c.get_or_build(1usize, || usize::MAX);
        assert!(hit0, "recently used entry survived");
        assert!(!hit1, "LRU entry was evicted");
    }
}
