//! Allocation regression tests for plans, under a per-thread counting
//! allocator.
//!
//! * `Plan::build`: a plan's runs live in one arena and its scratch in a
//!   fixed handful of vectors sized before they are filled, so a build
//!   makes the same small number of allocations whatever the number of
//!   processors — not one `Vec` per peer per dimension, as it once did
//!   (about 220 per build at P=64).
//! * `PlanCache`: one-off plans are held in probation only, so a scan of
//!   never-repeated statements leaves a bounded number of bytes live — a
//!   plain 64-plan LRU kept 64 plans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fx_core::{GroupHandle, PlanCache};
use fx_darray::plan::{Key, Plan, Side, Stmt};
use fx_darray::{DimMap, Dist, Remap};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// tests running beside this one do not count.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed. Wrapping: a
    /// block freed by another thread than the one that allocated it
    /// unbalances both, which a test that keeps to one thread never sees.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

/// Count one allocation of `grown` bytes that frees `shrunk` bytes.
fn count(grown: usize, shrunk: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|b| b.set(b.get().wrapping_add(grown).wrapping_sub(shrunk)));
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only `Cell`s that are
// const-initialised (no lazy allocation) and have no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|b| b.set(b.get().wrapping_sub(layout.size())));
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes live on this thread now.
fn live() -> usize {
    LIVE.with(Cell::get)
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one `Plan::build` makes on this thread.
fn build_allocs<const N: usize>(me: usize, s: &Side<N>, d: &Side<N>) -> usize {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity; N]);
    let before = ALLOCS.with(Cell::get);
    let plan = Plan::build(me, s, d, &stmt);
    let made = ALLOCS.with(Cell::get) - before;
    assert!(!plan.sends.is_empty() && !plan.recvs.is_empty(), "rank {me} takes part");
    made
}

/// Every sampled rank's count, which must be one number at both machine
/// sizes and at most `limit`. The extents are beyond what a debug build
/// checks against the per-element oracle, whose allocations are not the
/// build's.
fn same_few_allocations<const N: usize>(what: &str, limit: usize, sides: impl Fn(usize) -> (Side<N>, Side<N>)) {
    let mut seen = Vec::new();
    for p in [16, 64] {
        let (s, d) = sides(p);
        for me in [0, p / 2, p - 1] {
            seen.push((p, me, build_allocs(me, &s, &d)));
        }
    }
    let first = seen[0].2;
    assert!(first <= limit, "{what}: {first} allocations per build, more than {limit}");
    assert!(seen.iter().all(|&(.., n)| n == first), "{what}: allocations vary with (P, rank): {seen:?}");
}

fn group(p: usize) -> GroupHandle {
    GroupHandle::synthetic(1, (0..p).collect())
}

#[test]
fn matrix_redistribution_allocates_the_same_at_16_and_64() {
    same_few_allocations("(*,BLOCK) -> (BLOCK,*)", 8, |p| {
        let side = |q: [usize; 2], dists: [Dist; 2]| Side {
            group: group(p),
            maps: [DimMap::new(1 << 20, q[0], dists[0]), DimMap::new(1 << 20, q[1], dists[1])],
            replicated: false,
        };
        (side([1, p], [Dist::Star, Dist::Block]), side([p, 1], [Dist::Block, Dist::Star]))
    });
}

#[test]
fn vector_redistribution_allocates_the_same_at_16_and_64() {
    same_few_allocations("BLOCK -> CYCLIC", 8, |p| {
        let side = |dist| Side { group: group(p), maps: [DimMap::new(1 << 23, p, dist)], replicated: false };
        (side(Dist::Block), side(Dist::Cyclic))
    });
}

/// Plans a scan of one-off statements may leave resident, and the bytes
/// of the key hashes it may leave: the probation and ghost list the plan
/// cache's module doc sizes from measurement. A plain 64-plan LRU kept 64
/// plans.
const RESIDENT_PLANS: usize = 8;
const GHOST_BYTES: usize = 256 * std::mem::size_of::<u64>();

/// The P = 64 BLOCK -> CYCLIC statement on extent `n`, for rank `me`: its
/// cache key and its plan's builder.
fn block_to_cyclic(me: usize, n: usize) -> (Key<1>, impl FnOnce() -> Plan<1>) {
    let side = |dist| Side { group: group(64), maps: [DimMap::new(n, 64, dist)], replicated: false };
    let (s, d) = (side(Dist::Block), side(Dist::Cyclic));
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    (Key::new(&s, &d, stmt), move || Plan::build(me, &s, &d, &stmt))
}

#[test]
fn a_scan_of_one_off_plans_retains_only_probation() {
    // Extents beyond what a debug build checks against the per-element
    // oracle, each seen once.
    const STATEMENTS: usize = 300;
    let extents = |me: usize| (0..STATEMENTS).map(move |i| (1 << 23) + 4099 * i + me);
    for me in [0, 31, 63] {
        // What one plan costs a cache that holds only it: the plan, its
        // `Arc`, its boxed key and the cache's slots for it.
        let largest = extents(me)
            .map(|n| {
                let before = live();
                let mut one = PlanCache::default();
                let (key, build) = block_to_cyclic(me, n);
                drop(one.get_or_build(key, build));
                let held = live().wrapping_sub(before);
                drop(one);
                held
            })
            .max()
            .expect("statements");

        let before = live();
        let mut cache = PlanCache::default();
        for n in extents(me) {
            let (key, build) = block_to_cyclic(me, n);
            let (plan, hit) = cache.get_or_build(key, build);
            assert!(!hit && !plan.sends.is_empty(), "rank {me}, n = {n}: a fresh plan that sends");
        }
        let retained = live().wrapping_sub(before);
        let bound = RESIDENT_PLANS * largest + GHOST_BYTES;
        assert!(
            retained <= bound,
            "rank {me}: {STATEMENTS} one-off plans leave {retained} bytes live, more than \
             {RESIDENT_PLANS} plans of at most {largest} bytes and the ghost list ({bound} bytes)"
        );
        drop(cache);
        assert_eq!(live(), before, "rank {me}: dropping the cache frees what it held");
    }
}
