//! CI's plan-engine gate (`--release --ignored`): at P = 64, building every
//! rank's interval plan for a block↔cyclic assignment and running it once
//! must take under half of what the per-element oracle
//! (`CommSets::enumerate`, what every statement did before plans) takes on
//! the same statement. Two timings from one process, so host speed
//! cancels; a build step proportional to the extent shows first at the
//! small extents (n = 1024 reads 2.5× on the reference host).
//!
//! Both legs are thread-less: every rank's work runs in a loop on the
//! host with messages through an in-process map, so the ratio isolates
//! schedule cost from transport.

use std::collections::HashMap;
use std::time::Instant;

use fx_core::GroupHandle;
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, CommSets, Plan, Side, Stmt};
use fx_darray::{DimMap, Dist, Remap};
use fx_runtime::Chunk;

const P: usize = 64;

/// `d = s` through the oracle: enumerate, gather and scatter per element.
fn enumerate_and_move(s: &Side<1>, d: &Side<1>, srcs: &[Vec<f64>], dsts: &mut [Vec<f64>]) {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    let mut mail: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let sets: Vec<CommSets> = (0..P).map(|me| CommSets::enumerate(me, s, d, &stmt)).collect();
    for (me, cs) in sets.iter().enumerate() {
        for (peer, slots) in &cs.sends {
            mail.insert((me, *peer), slots.iter().map(|&sl| srcs[me][sl]).collect());
        }
        for &(ss, ds) in &cs.local {
            dsts[me][ds] = srcs[me][ss];
        }
    }
    for (me, cs) in sets.iter().enumerate() {
        for (peer, slots) in &cs.recvs {
            let buf = mail.remove(&(*peer, me)).expect("matching send");
            slots.iter().zip(buf).for_each(|(&slot, v)| dsts[me][slot] = v);
        }
    }
}

/// `d = s` through freshly built plans: pack, copy and unpack by runs.
fn build_and_move(s: &Side<1>, d: &Side<1>, srcs: &[Vec<f64>], dsts: &mut [Vec<f64>]) {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    let plans: Vec<Plan<1>> = (0..P).map(|me| Plan::build(me, s, d, &stmt)).collect();
    let mut mail: HashMap<(usize, usize), Chunk> = HashMap::new();
    for (me, pl) in plans.iter().enumerate() {
        if let Some((sl, dl)) = &pl.local {
            copy_local(&srcs[me], &pl.src_strides, sl.dims(&pl.runs), &mut dsts[me], &pl.dst_strides, dl.dims(&pl.runs));
        }
        for sp in &pl.sends {
            let mut chunk = Chunk::with_capacity::<f64>(sp.total);
            pack_into(&srcs[me], &pl.src_strides, sp.dims(&pl.runs), &mut chunk);
            mail.insert((me, sp.peer), chunk);
        }
    }
    for (me, pl) in plans.iter().enumerate() {
        for rp in &pl.recvs {
            let chunk = mail.remove(&(rp.peer, me)).expect("matching send");
            unpack_chunk(&mut dsts[me], &pl.dst_strides, rp.dims(&pl.runs), &chunk);
        }
    }
}

#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn plan_build_and_one_run_beat_enumeration_twofold_on_every_p64_row() {
    let mut worst = f64::INFINITY;
    for (dir, sdist, ddist) in [("block->cyclic", Dist::Block, Dist::Cyclic), ("cyclic->block", Dist::Cyclic, Dist::Block)] {
        for n in [10, 12, 14, 16, 18, 20].map(|k| 1usize << k) {
            let side = |dist| Side {
                group: GroupHandle::synthetic(1, (0..P).collect()),
                maps: [DimMap::new(n, P, dist)],
                replicated: false,
            };
            let (s, d) = (side(sdist), side(ddist));
            let srcs: Vec<Vec<f64>> =
                (0..P).map(|c| (0..s.maps[0].local_len(c)).map(|i| (c * n + i) as f64).collect()).collect();
            let zeroed = || (0..P).map(|c| vec![0.0; d.maps[0].local_len(c)]).collect::<Vec<_>>();
            let (mut by_plan, mut by_oracle) = (zeroed(), zeroed());
            // Best of three batches of at least 2¹⁸ elements each.
            let iters = ((1usize << 18) / n).max(1);
            let best = |pass: &mut dyn FnMut()| {
                (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        (0..iters).for_each(|_| pass());
                        t.elapsed().as_nanos() as f64 / iters as f64
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let planned = best(&mut || build_and_move(&s, &d, &srcs, &mut by_plan));
            let enumerated = best(&mut || enumerate_and_move(&s, &d, &srcs, &mut by_oracle));
            assert_eq!(by_plan, by_oracle, "{dir} n={n}: plan and oracle moved different data");
            println!("{dir} n={n}: build+run {planned:.0} ns, enumeration {enumerated:.0} ns ({:.1}x)", enumerated / planned);
            assert!(planned * 2.0 < enumerated, "{dir} n={n}: build+run {planned:.0} ns x 2 is not under {enumerated:.0} ns");
            worst = worst.min(enumerated / planned);
        }
    }
    println!("build+run at P = 64 is at least {worst:.2}x faster than enumeration on all 12 rows");
}

/// CI's cyclic build-cost gate (`--release --ignored`): building all 64
/// ranks' BLOCK→CYCLIC and CYCLIC→BLOCK plans at n = 2²⁰ takes at most
/// twice as long as at n = 2¹², best of 7 in one process. A build that
/// visits every owned index, as the walk before this gate did, reads over
/// 100×.
#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn cyclic_plans_build_in_time_independent_of_the_extent() {
    let statements = |n: usize| {
        let side = |dist| Side {
            group: GroupHandle::synthetic(1, (0..P).collect()),
            maps: [DimMap::new(n, P, dist)],
            replicated: false,
        };
        [(side(Dist::Block), side(Dist::Cyclic)), (side(Dist::Cyclic), side(Dist::Block))]
    };
    let (small, large) = (statements(1 << 12), statements(1 << 20));
    let build_all = |sides: &[(Side<1>, Side<1>); 2]| {
        let t = Instant::now();
        for (s, d) in sides {
            let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
            (0..P).for_each(|me| drop(std::hint::black_box(Plan::build(me, s, d, &stmt))));
        }
        t.elapsed().as_nanos() as f64
    };
    // The two sizes alternate round by round, so drift on the host reaches
    // both.
    let (mut at_small, mut at_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        at_small = at_small.min(build_all(&small));
        at_large = at_large.min(build_all(&large));
    }
    let ratio = at_large / at_small;
    println!("all 64 ranks' block<->cyclic plans: {at_small:.0} ns at n = 2^12, {at_large:.0} ns at n = 2^20 ({ratio:.2}x)");
    assert!(ratio <= 2.0, "n = 2^20 takes {at_large:.0} ns, more than twice {at_small:.0} ns at n = 2^12");
}
