//! Property tests for distribution index maps and redistribution.

use fx_core::{spmd, Machine, MachineModel};
use fx_darray::{assign1, remap1, DArray1, DimMap, Dist, Remap};
use proptest::prelude::*;

/// Every distribution of one dimension; `*` on a vector is replication.
fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..8).prop_map(Dist::BlockCyclic),
        Just(Dist::Star),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Global↔local maps are a bijection and lengths sum to n.
    #[test]
    fn dimmap_is_a_bijection(n in 0usize..200, q in 1usize..12, dist in arb_dist()) {
        // A `*` dimension is not spread: one grid position holds it all.
        let q = if dist == Dist::Star { 1 } else { q };
        let m = DimMap::new(n, q, dist);
        let mut seen = vec![false; n];
        for c in 0..q {
            let len = m.local_len(c);
            for li in 0..len {
                let g = m.global_of(c, li);
                prop_assert!(g < n, "global_of({c},{li}) = {g} out of range");
                prop_assert!(!seen[g], "index {g} owned twice");
                seen[g] = true;
                prop_assert_eq!(m.owner(g), c);
                prop_assert_eq!(m.local_of(g), li);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some index unowned");
    }

    /// Redistribution between arbitrary distributions preserves contents.
    #[test]
    fn assign_preserves_contents(
        n in 0usize..60,
        p in 1usize..6,
        sd in arb_dist(),
        dd in arb_dist(),
        seed in 0u64..1000,
    ) {
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed + 1)).collect();
        let expect = data.clone();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            let g = cx.group();
            let src = DArray1::from_global(cx, &g, data.len(), sd, &data);
            let mut dst = DArray1::new(cx, &g, n, dd, 0u64);
            assign1(cx, &mut dst, &src);
            dst.to_global(cx)
        });
        for r in rep.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// A remapped copy applies the index function everywhere.
    #[test]
    fn remap_applies_function(
        n in 1usize..50,
        p in 1usize..5,
        shift in 0usize..10,
        sd in arb_dist(),
        dd in arb_dist(),
    ) {
        let data: Vec<u32> = (0..n as u32).collect();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
            let g = cx.group();
            let src = DArray1::from_global(cx, &g, data.len(), sd, &data);
            let mut dst = DArray1::new(cx, &g, n, dd, 0u32);
            // Clamped shift: dst[i] = src[min(i + shift, n-1)].
            remap1(cx, &mut dst, &src, Remap::ClampShift(shift as isize));
            dst.to_global(cx)
        });
        let expect: Vec<u32> = (0..n).map(|i| ((i + shift).min(n - 1)) as u32).collect();
        for r in rep.results {
            prop_assert_eq!(&r, &expect);
        }
    }
}
