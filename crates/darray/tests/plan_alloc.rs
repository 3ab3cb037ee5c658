//! Allocation-count regression test for `Plan::build`: a plan's runs live
//! in one arena and its scratch in a fixed handful of vectors sized before
//! they are filled, so a build makes the same small number of allocations
//! whatever the number of processors — not one `Vec` per peer per
//! dimension, as it once did (about 220 per build at P=64).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fx_core::GroupHandle;
use fx_darray::plan::{Plan, Side, Stmt};
use fx_darray::{DimMap, Dist, Remap};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// tests running beside this one do not count.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a `Cell` that is
// const-initialised (no lazy allocation) and has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
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
