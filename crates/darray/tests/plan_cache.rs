//! Regression tests for the per-processor communication-plan cache: an
//! m-iteration pipeline must build each statement's plan exactly once
//! and replay it from the cache for the remaining m-1 iterations.

use fx_core::{spmd, Machine};
use fx_darray::{
    assign1, assign3, exchange_row_halo, transpose2, DArray1, DArray2, DArray3, Dist, Dist1,
};

#[test]
fn hundred_iteration_pipeline_builds_each_plan_once() {
    const ITERS: u64 = 100;
    let rep = spmd(&Machine::real(4), |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..64).collect();
        let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
        let mut mid = DArray1::new(cx, &g, 64, Dist1::Cyclic, 0u64);
        let mut m1 = DArray2::new(cx, &g, [8, 8], (Dist::Block, Dist::Star), 1u64);
        let mut m2 = DArray2::new(cx, &g, [8, 8], (Dist::Star, Dist::Block), 0u64);
        for _ in 0..ITERS {
            assign1(cx, &mut mid, &src); // statement 1: a rank-1 plan
            transpose2(cx, &mut m2, &m1); // statement 2: a rank-2 plan
        }
        let _ = &mut m1;
        mid.to_global(cx)
    });
    for r in &rep.results {
        assert_eq!(*r, (0..64u64).collect::<Vec<_>>());
    }
    // Two distinct statements per processor: each misses once and then
    // hits on every later iteration.
    for (p, ps) in rep.counters.iter().enumerate() {
        assert_eq!(ps.plan_misses, 2, "proc {p}: each statement plans exactly once");
        assert_eq!(ps.plan_hits, 2 * (ITERS - 1), "proc {p}");
    }
}

#[test]
fn halo_and_3d_assignment_plans_are_cached_too() {
    const ITERS: u64 = 50;
    let rep = spmd(&Machine::real(3), |cx| {
        let g = cx.group();
        let a = DArray2::from_global(
            cx,
            &g,
            [9, 4],
            (Dist::Block, Dist::Star),
            &(0..36u32).collect::<Vec<_>>(),
        );
        let mut s3 =
            DArray3::new(cx, &g, [2, 6, 2], (Dist::Star, Dist::Block, Dist::Star), 0u32);
        s3.for_each_owned(|i0, i1, i2, v| *v = (i0 * 100 + i1 * 10 + i2) as u32);
        let mut d3 =
            DArray3::new(cx, &g, [2, 6, 2], (Dist::Block, Dist::Star, Dist::Star), 0u32);
        let mut acc = 0u64;
        for _ in 0..ITERS {
            let h = exchange_row_halo(cx, &a, 1); // statement 1: halo plan
            assign3(cx, &mut d3, &s3); // statement 2: a rank-3 plan
            acc += h.top.len() as u64 + h.bottom.len() as u64;
        }
        acc
    });
    for ps in &rep.counters {
        assert_eq!(ps.plan_misses, 2, "halo + assign3 plan exactly once each");
        assert_eq!(ps.plan_hits, 2 * (ITERS - 1));
    }
}

#[test]
fn changing_the_statement_shape_changes_the_plan() {
    // Same arrays, different ranges: each distinct (range, shift) is its
    // own plan, but repeats of the same range hit the cache.
    let rep = spmd(&Machine::real(2), |cx| {
        let g = cx.group();
        let src = DArray1::from_global(cx, &g, 16, Dist1::Block, &(0..16i64).collect::<Vec<_>>());
        let mut dst = DArray1::new(cx, &g, 16, Dist1::Cyclic, 0i64);
        for _ in 0..4 {
            fx_darray::copy_shift1_range(
                cx,
                &mut dst,
                0..8,
                &src,
                0,
                fx_darray::Participation::Minimal,
            );
            fx_darray::copy_shift1_range(
                cx,
                &mut dst,
                8..16,
                &src,
                0,
                fx_darray::Participation::Minimal,
            );
        }
        dst.to_global(cx)
    });
    for r in &rep.results {
        assert_eq!(*r, (0..16i64).collect::<Vec<_>>());
    }
    for ps in &rep.counters {
        assert_eq!(ps.plan_misses, 2, "two ranges, two plans");
        assert_eq!(ps.plan_hits, 2 * 3);
    }
}
