//! A small message allocates nothing. An 8-byte payload travels inside
//! its envelope and a lane keeps its two oldest envelopes inline, so a
//! ring round at P = 64 adds no allocation, and an `allreduce` + `barrier`
//! round adds only the `Arc` each broadcast's root wraps its value in.
//! Boxing every payload cost one allocation per ring message, and a lane
//! buffer per collective lane.
//!
//! The counter is process-wide, because a pooled worker, not the test
//! thread, runs the processors; this file holds one test so that nothing
//! else allocates beside it. Each count is a difference of two runs that
//! differ only in their number of rounds, so set-up cancels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fx_core::spmd;
use fx_runtime::{Executor, Machine, MachineModel};

/// Allocations and reallocations made by the process.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting is one relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: usize = 64;

/// Allocations of one `spmd` at P = 64 on one pooled worker that runs
/// `ring` rounds of a `u64` ring, then `coll` rounds of `allreduce` +
/// `barrier`.
fn allocs_of(machine: &Machine, ring: usize, coll: usize) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    spmd(machine, |cx| {
        let me = cx.id();
        let mut token = me as u64;
        for _ in 0..ring {
            cx.send_v((me + 1) % P, 1, token);
            token = cx.recv_v((me + P - 1) % P, 1);
        }
        for k in 0..coll {
            let sum = cx.allreduce(token ^ k as u64, u64::wrapping_add);
            cx.barrier();
            token = token.wrapping_add(sum);
        }
        token
    });
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn ring_rounds_allocate_nothing_and_collective_rounds_only_their_roots() {
    const ROUNDS: usize = 16;
    let machine = Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    // The first run maps the stacks and builds the lanes the later ones reuse.
    allocs_of(&machine, 2, 2);
    let base = allocs_of(&machine, 2, 2);
    let ring = allocs_of(&machine, 2 + ROUNDS, 2).wrapping_sub(base);
    let coll = allocs_of(&machine, 2, 2 + ROUNDS).wrapping_sub(base);
    eprintln!("allocations per round at P = {P}: ring {}, allreduce + barrier {}", ring / ROUNDS, coll / ROUNDS);
    assert_eq!(ring, 0, "{ROUNDS} u64 ring rounds allocated");
    assert_eq!(coll, 2 * ROUNDS, "{ROUNDS} allreduce + barrier rounds: one Arc per broadcast root is all they may allocate");
}
