//! Property tests for the group collectives: any group size, any root,
//! arbitrary values — results must match the sequential definition.

use fx_core::{spmd, Machine, Size};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bcast_delivers_roots_value(p in 1usize..9, root_pick in 0usize..100, v in any::<u64>()) {
        let root = root_pick % p;
        let rep = spmd(&Machine::real(p), move |cx| {
            let mine = if cx.id() == root { v } else { 0 };
            cx.bcast(root, mine)
        });
        prop_assert!(rep.results.iter().all(|&r| r == v));
    }

    #[test]
    fn reduce_equals_sequential_fold(p in 1usize..9, root_pick in 0usize..100, vals in proptest::collection::vec(any::<i64>(), 8)) {
        let root = root_pick % p;
        let vals2 = vals.clone();
        let rep = spmd(&Machine::real(p), move |cx| {
            cx.reduce(root, vals2[cx.id()], |a, b| a.wrapping_add(b))
        });
        let expect: i64 = vals[..p].iter().fold(0i64, |a, &b| a.wrapping_add(b));
        for (i, r) in rep.results.iter().enumerate() {
            if i == root {
                prop_assert_eq!(*r, Some(expect));
            } else {
                prop_assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allreduce_min_max(p in 1usize..9, vals in proptest::collection::vec(any::<i32>(), 8)) {
        let vals2 = vals.clone();
        let rep = spmd(&Machine::real(p), move |cx| {
            let v = vals2[cx.id()];
            (cx.allreduce(v, i32::min), cx.allreduce(v, i32::max))
        });
        let lo = *vals[..p].iter().min().unwrap();
        let hi = *vals[..p].iter().max().unwrap();
        prop_assert!(rep.results.iter().all(|&(a, b)| a == lo && b == hi));
    }

    #[test]
    fn allgather_orders_by_rank(p in 1usize..9, seed in any::<u32>()) {
        let rep = spmd(&Machine::real(p), move |cx| {
            cx.allgather(seed.wrapping_add(cx.id() as u32))
        });
        let expect: Vec<u32> = (0..p as u32).map(|i| seed.wrapping_add(i)).collect();
        prop_assert!(rep.results.iter().all(|r| *r == expect));
    }

    #[test]
    fn scans_match_prefix_folds(p in 1usize..9, vals in proptest::collection::vec(-100i64..100, 8)) {
        let vals2 = vals.clone();
        let rep = spmd(&Machine::real(p), move |cx| {
            let v = vals2[cx.id()];
            (cx.scan(v, |a, b| a + b), cx.exscan(v, |a, b| a + b))
        });
        let mut run = 0i64;
        for (i, &(inc, exc)) in rep.results.iter().enumerate() {
            prop_assert_eq!(exc, if i == 0 { None } else { Some(run) });
            run += vals[i];
            prop_assert_eq!(inc, run);
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(p in 1usize..7, seed in any::<u16>()) {
        let rep = spmd(&Machine::real(p), move |cx| {
            let me = cx.id();
            let data: Vec<Vec<u32>> = (0..p)
                .map(|dst| vec![seed as u32 + (me * 10 + dst) as u32; (me + dst) % 3])
                .collect();
            cx.alltoallv(data)
        });
        for (me, out) in rep.results.iter().enumerate() {
            for (src, v) in out.iter().enumerate() {
                let expect = vec![seed as u32 + (src * 10 + me) as u32; (src + me) % 3];
                prop_assert_eq!(v, &expect);
            }
        }
    }

    #[test]
    fn partition_sizes_always_cover(p in 2usize..12, first in 1usize..6) {
        let first = first.min(p - 1);
        let rep = spmd(&Machine::real(p), move |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(first)), ("b", Size::Rest)]);
            (part.group("a").len(), part.group("b").len())
        });
        for (a, b) in rep.results {
            prop_assert_eq!(a + b, p);
            prop_assert_eq!(a, first);
        }
    }

    #[test]
    fn collectives_inside_partitions_stay_scoped(p in 2usize..9, cut in 1usize..8) {
        let cut = cut.min(p - 1);
        let rep = spmd(&Machine::real(p), move |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(cut)), ("b", Size::Rest)]);
            cx.task_region(&part, |cx, tr| {
                let a = tr.on(cx, "a", |cx| cx.allreduce(1u64, |x, y| x + y));
                let b = tr.on(cx, "b", |cx| cx.allreduce(1u64, |x, y| x + y));
                a.or(b).unwrap()
            })
        });
        for (i, &r) in rep.results.iter().enumerate() {
            let expect = if i < cut { cut } else { p - cut } as u64;
            prop_assert_eq!(r, expect);
        }
    }
}
