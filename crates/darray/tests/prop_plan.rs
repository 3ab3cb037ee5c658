//! Property tests for the communication-plan engine: for random
//! placements, the interval-based plan expands to *exactly* the legacy
//! per-element communication sets (same peers, same element order, no
//! empty messages) — on every rank, in release builds too (debug builds
//! additionally self-verify inside `Plan*::build`).

use fx_core::GroupHandle;
use fx_darray::plan::{CommSets1, Plan1, Plan2, Plan3, Side1, Side2, Side3};
use fx_darray::{DimMap, Dist, Remap};
use proptest::prelude::*;

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..5).prop_map(Dist::BlockCyclic),
    ]
}

/// Index maps that are in range for any equal-extent dimension pair.
fn arb_remap() -> impl Strategy<Value = Remap> {
    prop_oneof![
        Just(Remap::Identity),
        (-14isize..15).prop_map(Remap::ClampShift),
        (-14isize..15).prop_map(Remap::Cyclic),
    ]
}

fn check_no_empty(cs: &CommSets1) {
    for (_, slots) in cs.sends.iter().chain(cs.recvs.iter()) {
        assert!(!slots.is_empty(), "empty message in plan");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// 1-D shifted range copies between arbitrary distributions, group
    /// overlaps, and replicated endpoints.
    #[test]
    fn plan1_equals_legacy(
        n in 0usize..70,
        sq in 1usize..7,
        dq in 1usize..7,
        sd in arb_dist(),
        dd in arb_dist(),
        srep in any::<bool>(),
        drep in any::<bool>(),
        shift in -5isize..6,
        lo in 0usize..40,
        span in 0usize..70,
        soff in 0usize..3,
        doff in 0usize..3,
    ) {
        let sgroup = GroupHandle::synthetic(1, (soff..soff + sq).collect());
        let dgroup = GroupHandle::synthetic(2, (doff..doff + dq).collect());
        let smap = if srep { DimMap::new(n, 1, Dist::Star) } else { DimMap::new(n, sq, sd) };
        let dmap = if drep { DimMap::new(n, 1, Dist::Star) } else { DimMap::new(n, dq, dd) };
        let s = Side1 { group: sgroup, map: smap, replicated: srep };
        let d = Side1 { group: dgroup, map: dmap, replicated: drep };
        let lo = lo.min(n);
        let hi = (lo + span).min(n);
        for me in 0..(soff + sq).max(doff + dq) + 1 {
            let plan = Plan1::build(me, &s, &d, lo..hi, shift);
            let got = CommSets1::of_plan(&plan);
            let want = CommSets1::legacy(me, &s, &d, lo..hi, Remap::Shift(shift));
            prop_assert_eq!(&got, &want, "rank {}", me);
            check_no_empty(&got);
        }
    }

    /// 2-D copies, transpositions and per-dimension remaps (many-to-one
    /// clamped tails, cyclic wraps) over random axis splits.
    #[test]
    fn plan2_equals_legacy(
        rows in 1usize..12,
        cols in 1usize..12,
        sp in 1usize..5,
        dp in 1usize..5,
        s_on_rows in any::<bool>(),
        d_on_rows in any::<bool>(),
        sd in arb_dist(),
        dd in arb_dist(),
        transposed in any::<bool>(),
        remap in (arb_remap(), arb_remap()),
    ) {
        let star = |n: usize| DimMap::new(n, 1, Dist::Star);
        let (srows, scols) = if transposed { (cols, rows) } else { (rows, cols) };
        let (s_rmap, s_cmap) = if s_on_rows {
            (DimMap::new(srows, sp, sd), star(scols))
        } else {
            (star(srows), DimMap::new(scols, sp, sd))
        };
        let (d_rmap, d_cmap) = if d_on_rows {
            (DimMap::new(rows, dp, dd), star(cols))
        } else {
            (star(rows), DimMap::new(cols, dp, dd))
        };
        let s = Side2 {
            group: GroupHandle::synthetic(1, (0..sp).collect()),
            rmap: s_rmap,
            cmap: s_cmap,
        };
        let d = Side2 {
            group: GroupHandle::synthetic(2, (1..dp + 1).collect()),
            rmap: d_rmap,
            cmap: d_cmap,
        };
        for me in 0..sp.max(dp + 1) + 1 {
            let plan = Plan2::build(me, &s, &d, transposed, remap);
            let got = CommSets1::of_plan2(&plan);
            let want = CommSets1::legacy2(me, &s, &d, transposed, remap);
            prop_assert_eq!(&got, &want, "rank {}", me);
            check_no_empty(&got);
        }
    }

    /// 3-D assignments with one distributed dimension per side.
    #[test]
    fn plan3_equals_legacy(
        d0 in 1usize..6,
        d1 in 1usize..6,
        d2 in 1usize..6,
        p in 1usize..5,
        s_axis in 0usize..3,
        d_axis in 0usize..3,
        sd in arb_dist(),
        dd in arb_dist(),
    ) {
        let maps_for = |axis: usize, dist: Dist| -> [DimMap; 3] {
            let dims = [d0, d1, d2];
            [0, 1, 2].map(|k| {
                if k == axis {
                    DimMap::new(dims[k], p, dist)
                } else {
                    DimMap::new(dims[k], 1, Dist::Star)
                }
            })
        };
        let s = Side3 {
            group: GroupHandle::synthetic(1, (0..p).collect()),
            maps: maps_for(s_axis, sd),
        };
        let d = Side3 {
            group: GroupHandle::synthetic(2, (0..p).collect()),
            maps: maps_for(d_axis, dd),
        };
        for me in 0..p + 1 {
            let plan = Plan3::build(me, &s, &d);
            let got = CommSets1::of_plan3(&plan);
            let want = CommSets1::legacy3(me, &s, &d);
            prop_assert_eq!(&got, &want, "rank {}", me);
            check_no_empty(&got);
        }
    }
}
