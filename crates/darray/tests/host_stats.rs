//! Regression tests for the pooled-buffer transport underneath the
//! darray communication plans: a steady-state pipeline iteration must
//! make zero transport allocations — every chunk acquire is a pool hit
//! once the pools have warmed up.

use std::sync::Arc;

use fx_core::{spmd, Machine};
use fx_darray::{assign1, assign2, remap2, DArray1, DArray2, Dist, Dist1, Remap};
use fx_runtime::Telemetry;

/// Run a symmetric block→cyclic→block round trip for `iters` iterations
/// and return each processor's (pool_hits, pool_misses).
///
/// The round trip is what makes steady state reachable: every buffer a
/// processor ships out in the scatter leg comes back to it in the
/// gather leg, so pools stop growing after the first iteration.
fn pool_counters(iters: usize) -> Vec<(u64, u64)> {
    let rep = spmd(&Machine::real(4), move |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..64).collect();
        let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
        let mut cyc = DArray1::new(cx, &g, 64, Dist1::Cyclic, 0u64);
        let mut back = DArray1::new(cx, &g, 64, Dist1::Block, 0u64);
        for _ in 0..iters {
            assign1(cx, &mut cyc, &src);
            assign1(cx, &mut back, &cyc);
        }
        back.to_global(cx)
    });
    for r in &rep.results {
        assert_eq!(*r, (0..64u64).collect::<Vec<_>>());
    }
    rep.counters.iter().map(|h| (h.pool_hits, h.pool_misses)).collect()
}

#[test]
fn steady_state_redistribution_makes_zero_transport_allocations() {
    let short = pool_counters(3);
    let long = pool_counters(30);
    for (p, (s, l)) in short.iter().zip(&long).enumerate() {
        // Misses happen only during warm-up: 27 extra iterations add no
        // allocations, so the steady-state hit rate is 100%.
        assert_eq!(s.1, l.1, "proc {p}: pool misses grew with iteration count");
        // The extra iterations are served entirely from the pool.
        assert!(l.0 > s.0, "proc {p}: longer run must add pool hits");
    }
}

/// The pool keeps an all-to-all's worth of buffers, not a fixed sixteen:
/// in a 64-processor (\*,BLOCK)→(BLOCK,\*) `assign2` every processor ships
/// 63 chunks and gets 63 back, so the first statement allocates them and
/// every later one is served from the pool.
#[test]
fn p64_all_to_all_allocates_in_its_first_iteration_only() {
    const P: usize = 64;
    let run = |iters: usize| {
        spmd(&Machine::real(P), move |cx| {
            let g = cx.group();
            let data: Vec<u64> = (0..(2 * P * 2 * P) as u64).collect();
            let cols = DArray2::from_global(cx, &g, [2 * P, 2 * P], (Dist::Star, Dist::Block), &data);
            let mut rows = DArray2::new(cx, &g, [2 * P, 2 * P], (Dist::Block, Dist::Star), 0u64);
            for _ in 0..iters {
                assign2(cx, &mut rows, &cols);
            }
            rows.to_global(cx) == data
        })
    };
    let (one, many) = (run(1), run(6));
    for p in 0..P {
        assert!(one.results[p] && many.results[p], "proc {p}: data survived the redistribution");
        let (o, m) = (&one.counters[p], &many.counters[p]);
        assert_eq!(m.chunk_msgs - o.chunk_msgs, 5 * (P as u64 - 1), "proc {p}: one chunk per peer per statement");
        assert_eq!(o.pool_misses, m.pool_misses, "proc {p}: pool misses grew after the first iteration");
        assert_eq!(m.pool_hits - o.pool_hits, 5 * (P as u64 - 1), "proc {p}: every later chunk is a pool hit");
    }
}

/// A structured remap statement is planned once: its second and later
/// executions are plan-cache hits, ride the chunk path, and — in a
/// symmetric there-and-back shift, where every buffer shipped out comes
/// home — make zero transport allocations.
#[test]
fn repeated_structured_remap_hits_the_plan_cache_and_the_pool() {
    let run = |iters: u64| {
        spmd(&Machine::real(4), move |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..6 * 16).collect();
            let dist = (Dist::Star, Dist::Block);
            let src = DArray2::from_global(cx, &g, [6, 16], dist, &data);
            let mut out = DArray2::new(cx, &g, [6, 16], dist, 0u32);
            let mut back = DArray2::new(cx, &g, [6, 16], dist, 0u32);
            for _ in 0..iters {
                remap2(cx, &mut out, &src, Remap::Identity, Remap::Cyclic(3));
                remap2(cx, &mut back, &out, Remap::Identity, Remap::Cyclic(-3));
            }
            back.to_global(cx)
        })
    };
    let (short, long) = (run(3), run(30));
    for rep in [&short, &long] {
        for r in &rep.results {
            assert_eq!(*r, (0..6 * 16u32).collect::<Vec<_>>(), "shift there and back");
        }
    }
    for p in 0..4 {
        // Two statements, two plans; every later execution replays them.
        let (s, l) = (&short.counters[p], &long.counters[p]);
        assert_eq!(l.plan_misses, 2, "proc {p}: each statement plans exactly once");
        assert_eq!(l.plan_hits, 2 * 29, "proc {p}");
        // Each statement ships one chunk to one neighbour.
        assert_eq!(l.chunk_msgs, 2 * 30, "proc {p}: remap payloads ride chunks");
        assert_eq!(s.pool_misses, l.pool_misses, "proc {p}: pool misses grew with iteration count");
        assert!(l.pool_hits > s.pool_hits, "proc {p}: longer run must add pool hits");
    }
}

#[test]
fn chunk_traffic_is_counted_and_timed_only_for_a_reader() {
    // Host durations have one reader, the telemetry registry: they are
    // measured with one attached and read 0 (no clock reads) without.
    for observed in [false, true] {
        let machine = match observed {
            true => Machine::real(4).with_telemetry(Arc::new(Telemetry::new())),
            false => Machine::real(4),
        };
        let rep = spmd(&machine, |cx| {
            let g = cx.group();
            let data: Vec<u64> = (0..64).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let mut cyc = DArray1::new(cx, &g, 64, Dist1::Cyclic, 0u64);
            assign1(cx, &mut cyc, &src);
            cyc.to_global(cx)
        });
        for h in &rep.counters {
            // Every remote redistribution leg rides the chunk path.
            assert!(h.chunk_msgs > 0, "redistribution should use chunk transport");
            assert_eq!(h.chunk_bytes % 8, 0, "u64 payloads are whole elements");
            // Wall-clock counters tick (real-time mode, actual threads).
            assert_eq!(h.send_ns > 0, observed, "send_ns {} with observed = {observed}", h.send_ns);
            assert_eq!(h.pack_ns > 0, observed, "pack_ns {} with observed = {observed}", h.pack_ns);
        }
    }
}
