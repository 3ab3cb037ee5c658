//! Property tests for 2-D distributed arrays: redistribution between
//! arbitrary distributions/grids preserves content; transposition is an
//! involution; halos always match the neighbours' data.

use fx_core::{spmd, Machine, MachineModel, Size};
use fx_darray::{
    assign2, exchange_col_halo, exchange_row_halo, transpose2, DArray2, Dist,
};
use proptest::prelude::*;

fn arb_dist2() -> impl Strategy<Value = (Dist, Dist)> {
    let d = || {
        prop_oneof![
            Just(Dist::Block),
            Just(Dist::Cyclic),
            (1usize..4).prop_map(Dist::BlockCyclic),
        ]
    };
    prop_oneof![
        d().prop_map(|x| (Dist::Star, x)),
        d().prop_map(|x| (x, Dist::Star)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// assign2 between any two single-axis distributions over any group
    /// split preserves every element.
    #[test]
    fn assign2_preserves_contents(
        rows in 1usize..12,
        cols in 1usize..12,
        p in 1usize..6,
        sd in arb_dist2(),
        dd in arb_dist2(),
        cross_groups in any::<bool>(),
    ) {
        let data: Vec<u64> = (0..rows * cols).map(|i| (i * 31 + 7) as u64).collect();
        let expect = data.clone();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            if cross_groups && p >= 2 {
                let part = cx.task_partition(&[("a", Size::Procs(1)), ("b", Size::Rest)]);
                let ga = part.group("a");
                let gb = part.group("b");
                let src = DArray2::from_global(cx, &ga, [rows, cols], sd, &data);
                let mut dst = DArray2::new(cx, &gb, [rows, cols], dd, 0u64);
                assign2(cx, &mut dst, &src);
                dst.fold_owned(Vec::new(), |mut acc, r, c, v| {
                    acc.push((r, c, v));
                    acc
                })
            } else {
                let g = cx.group();
                let src = DArray2::from_global(cx, &g, [rows, cols], sd, &data);
                let mut dst = DArray2::new(cx, &g, [rows, cols], dd, 0u64);
                assign2(cx, &mut dst, &src);
                dst.fold_owned(Vec::new(), |mut acc, r, c, v| {
                    acc.push((r, c, v));
                    acc
                })
            }
        });
        let mut seen = vec![false; rows * cols];
        for per_proc in rep.results {
            for (r, c, v) in per_proc {
                prop_assert_eq!(v, expect[r * cols + c], "({}, {})", r, c);
                prop_assert!(!seen[r * cols + c], "element owned twice");
                seen[r * cols + c] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some element unowned");
    }

    /// transpose(transpose(a)) == a for any shape and group size.
    #[test]
    fn transpose_is_an_involution(
        rows in 1usize..10,
        cols in 1usize..10,
        p in 1usize..5,
    ) {
        let data: Vec<i64> = (0..rows * cols).map(|i| i as i64 * 3 - 7).collect();
        let expect = data.clone();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            let g = cx.group();
            let a = DArray2::from_global(cx, &g, [rows, cols], (Dist::Block, Dist::Star), &data);
            let mut t = DArray2::new(cx, &g, [cols, rows], (Dist::Block, Dist::Star), 0i64);
            transpose2(cx, &mut t, &a);
            let mut back = DArray2::new(cx, &g, [rows, cols], (Dist::Block, Dist::Star), 0i64);
            transpose2(cx, &mut back, &t);
            back.to_global(cx)
        });
        for r in rep.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Row halos always contain exactly the neighbour's boundary rows.
    #[test]
    fn row_halo_matches_neighbour_rows(
        rows in 2usize..16,
        cols in 1usize..6,
        p in 1usize..5,
        width in 1usize..3,
    ) {
        // Keep every non-empty member's block at least `width` rows
        // (including the possibly short last block).
        let block = rows.div_ceil(p);
        prop_assume!(block >= width && (rows % block == 0 || rows % block >= width));
        let data: Vec<u32> = (0..rows * cols).map(|i| i as u32).collect();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            let g = cx.group();
            let a = DArray2::from_global(cx, &g, [rows, cols], (Dist::Block, Dist::Star), &data);
            let h = exchange_row_halo(cx, &a, width);
            let (lr, _) = a.local_dims();
            let first = if lr > 0 { a.global_of_local(0, 0).0 } else { 0 };
            (first, lr, h.top, h.bottom)
        });
        for (first, lr, top, bottom) in rep.results {
            if lr == 0 {
                prop_assert!(top.is_empty() && bottom.is_empty());
                continue;
            }
            if first > 0 {
                let expect: Vec<u32> = ((first - width) * cols..first * cols)
                    .map(|i| i as u32)
                    .collect();
                prop_assert_eq!(&top, &expect);
            } else {
                prop_assert!(top.is_empty());
            }
            let last = first + lr;
            if last < rows {
                let expect: Vec<u32> =
                    (last * cols..(last + width) * cols).map(|i| i as u32).collect();
                prop_assert_eq!(&bottom, &expect);
            } else {
                prop_assert!(bottom.is_empty());
            }
        }
    }

    /// Column halos always contain exactly the neighbour's boundary cols.
    #[test]
    fn col_halo_matches_neighbour_cols(
        rows in 1usize..6,
        cols in 2usize..16,
        p in 1usize..5,
        width in 1usize..3,
    ) {
        let block = cols.div_ceil(p);
        prop_assume!(block >= width && (cols % block == 0 || cols % block >= width));
        let data: Vec<u32> = (0..rows * cols).map(|i| i as u32).collect();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            let g = cx.group();
            let a = DArray2::from_global(cx, &g, [rows, cols], (Dist::Star, Dist::Block), &data);
            let h = exchange_col_halo(cx, &a, width);
            let (_, lc) = a.local_dims();
            let first = if lc > 0 { a.global_of_local(0, 0).1 } else { 0 };
            (first, lc, h.left, h.right)
        });
        for (first, lc, left, right) in rep.results {
            if lc == 0 {
                continue;
            }
            if first > 0 {
                let expect: Vec<u32> = (0..rows)
                    .flat_map(|r| (first - width..first).map(move |c| (r * cols + c) as u32))
                    .collect();
                prop_assert_eq!(&left, &expect);
            } else {
                prop_assert!(left.is_empty());
            }
            let last = first + lc;
            if last < cols {
                let expect: Vec<u32> = (0..rows)
                    .flat_map(|r| (last..last + width).map(move |c| (r * cols + c) as u32))
                    .collect();
                prop_assert_eq!(&right, &expect);
            } else {
                prop_assert!(right.is_empty());
            }
        }
    }
}
