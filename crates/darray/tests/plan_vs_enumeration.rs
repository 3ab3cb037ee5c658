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
//! schedule cost from transport. The last gate holds `pack_into` /
//! `unpack_chunk` against the per-piece loops they replaced, which live
//! only here.

use std::collections::HashMap;
use std::time::Instant;

use fx_core::GroupHandle;
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, CommSets, Plan, Seg, Side, Stmt};
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

/// The pack loop before runs moved a `Seg` at a time: one `push_slice`
/// per contiguous piece, and one one-element `push_slice` per element of
/// a piece under a permutation. A timing reference for the gate below;
/// nothing else uses it.
fn pack_by_pieces<T: Copy + Send + 'static, const N: usize>(
    src: &[T],
    strides: &[usize; N],
    dims: [&[Seg]; N],
    chunk: &mut Chunk,
) {
    for_each_piece(strides, &dims, 0, &mut |base, start, len, step| {
        if step == 1 {
            chunk.push_slice(&src[base + start..base + start + len]);
        } else {
            (start..start + len).for_each(|i| chunk.push_slice(&src[base + i * step..base + i * step + 1]));
        }
    });
}

/// The unpack loop of the same vintage: one `read_into` per contiguous
/// piece or per element.
fn unpack_by_pieces<T: Copy + Send + 'static, const N: usize>(
    dst: &mut [T],
    strides: &[usize; N],
    dims: [&[Seg]; N],
    chunk: &Chunk,
) {
    let mut off = 0;
    for_each_piece(strides, &dims, 0, &mut |base, start, len, step| {
        if step == 1 {
            chunk.read_into(off, &mut dst[base + start..base + start + len]);
        } else {
            for (j, i) in (start..start + len).enumerate() {
                chunk.read_into(off + j, &mut dst[base + i * step..base + i * step + 1]);
            }
        }
        off += len;
    });
}

/// Call `f(base, start, len, step)` for every contiguous piece of the
/// innermost dimension, outer indices in row-major order.
fn for_each_piece(strides: &[usize], dims: &[&[Seg]], base: usize, f: &mut impl FnMut(usize, usize, usize, usize)) {
    let (runs, rest) = dims.split_first().expect("at least one dimension");
    let pieces = runs.iter().flat_map(|s| (0..s.count).map(move |k| (s.start + k * s.stride, s.len)));
    for (start, len) in pieces {
        if rest.is_empty() {
            f(base, start, len, strides[0]);
        } else {
            for i in start..start + len {
                for_each_piece(&strides[1..], rest, base + i * strides[0], f);
            }
        }
    }
}

/// A pack loop, and the unpack loop that inverts it.
type Pack<T, const N: usize> = fn(&[T], &[usize; N], [&[Seg]; N], &mut Chunk);
type Unpack<T, const N: usize> = fn(&mut [T], &[usize; N], [&[Seg]; N], &Chunk);

/// Every rank's plan of one statement, with tiles to move it between.
struct Exchange<T, const N: usize> {
    p: usize,
    plans: Vec<Plan<N>>,
    srcs: Vec<Vec<T>>,
    dsts: Vec<Vec<T>>,
}

impl<T: Copy + Send + 'static, const N: usize> Exchange<T, N> {
    fn new(s: &Side<N>, d: &Side<N>, stmt: &Stmt<N>, value: impl Fn(usize, usize) -> T, zero: T) -> Self {
        let p = s.group.len();
        let plans: Vec<Plan<N>> = (0..p).map(|me| Plan::build(me, s, d, stmt)).collect();
        // Both statements spread one dimension over all p ranks in order.
        let len = |side: &Side<N>, me| side.maps.iter().map(|m| m.local_len(if m.q == p { me } else { 0 })).product();
        let srcs = (0..p).map(|me| (0..len(s, me)).map(|i| value(me, i)).collect()).collect();
        let dsts = (0..p).map(|me| vec![zero; len(d, me)]).collect();
        Exchange { p, plans, srcs, dsts }
    }

    /// Pack every rank's messages, then unpack them at their receivers,
    /// with the given pair of loops; nanoseconds taken.
    /// The statement `reps` times over; nanoseconds per time.
    fn run(&mut self, reps: usize, pack: Pack<T, N>, unpack: Unpack<T, N>) -> f64 {
        // Every message's storage is allocated before the clock starts.
        let p = self.p;
        let mut mail: Vec<Option<Chunk>> = (0..p * p).map(|_| None).collect();
        let sends = || self.plans.iter().flat_map(|pl| &pl.sends);
        let mut empty: Vec<Chunk> = (0..reps).flat_map(|_| sends()).map(|sp| Chunk::with_capacity::<T>(sp.total)).collect();
        let t = Instant::now();
        for _ in 0..reps {
            for (me, pl) in self.plans.iter().enumerate() {
                for sp in &pl.sends {
                    let mut chunk = empty.pop().expect("one chunk per message");
                    pack(&self.srcs[me], &pl.src_strides, sp.dims(&pl.runs), &mut chunk);
                    mail[me * p + sp.peer] = Some(chunk);
                }
            }
            for (me, pl) in self.plans.iter().enumerate() {
                for rp in &pl.recvs {
                    let chunk = mail[rp.peer * p + me].take().expect("matching send");
                    unpack(&mut self.dsts[me], &pl.dst_strides, rp.dims(&pl.runs), &chunk);
                }
            }
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    }
}

/// Required speed-up of `pack_into` + `unpack_chunk` over the per-piece
/// loops above, per statement: about half the measured gain. Best of 7
/// reads 1.5–2.2× on BLOCK→CYCLIC (median 1.65×) and 1.1–1.4× on the
/// transposition (median 1.22×: its source reads stride 256 bytes, so
/// memory, not calls, is most of both legs) on a 2-vCPU x86-64 host
/// shared with other work. A library call per element put back into
/// either reads 1.02×.
const RUN_SPEEDUP: [f64; 2] = [1.3, 1.1];

/// CI's pack/unpack gate (`--release --ignored`): packing and unpacking
/// every message of two statements that the per-piece loops moved one
/// element at a time — `redist_steady`'s BLOCK→CYCLIC on 2¹⁸ `f64`s at
/// P = 64, and a 256² complex (`[f64; 2]`) `transpose2` between
/// (*, BLOCK) tiles at P = 16, whose messages are 16 × 16 blocks — beats
/// those loops by `RUN_SPEEDUP`, best of 7 interleaved rounds in one
/// process.
#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn run_granular_pack_and_unpack_beat_a_call_per_element() {
    let group = || GroupHandle::synthetic(1, (0..P).collect());
    let n = 1 << 18;
    let vector = |dist| Side { group: group(), maps: [DimMap::new(n, P, dist)], replicated: false };
    let (s, d) = (vector(Dist::Block), vector(Dist::Cyclic));
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    let value = |me: usize, i: usize| (me * n + i) as f64;
    let (mut a1, mut b1) = (Exchange::new(&s, &d, &stmt, value, 0.0), Exchange::new(&s, &d, &stmt, value, 0.0));

    let (m, p) = (256, 16);
    let group = GroupHandle::synthetic(1, (0..p).collect());
    let cols = || Side { group: group.clone(), maps: [DimMap::new(m, 1, Dist::Star), DimMap::new(m, p, Dist::Block)], replicated: false };
    let (s, d) = (cols(), cols());
    let stmt = Stmt { axes: [1, 0], ..Stmt::whole(&d.maps, [Remap::Identity; 2]) };
    let value = |me: usize, i: usize| [me as f64, i as f64];
    let (mut a2, mut b2) = (Exchange::new(&s, &d, &stmt, value, [0.0; 2]), Exchange::new(&s, &d, &stmt, value, [0.0; 2]));

    let (mut by_runs, mut by_pieces) = ([f64::INFINITY; 2], [f64::INFINITY; 2]);
    for _ in 0..7 {
        by_runs[0] = by_runs[0].min(a1.run(4, pack_into, unpack_chunk));
        by_pieces[0] = by_pieces[0].min(b1.run(4, pack_by_pieces, unpack_by_pieces));
        by_runs[1] = by_runs[1].min(a2.run(16, pack_into, unpack_chunk));
        by_pieces[1] = by_pieces[1].min(b2.run(16, pack_by_pieces, unpack_by_pieces));
    }
    assert_eq!(a1.dsts, b1.dsts, "block->cyclic: the two loops moved different data");
    assert_eq!(a2.dsts, b2.dsts, "transpose2: the two loops moved different data");
    for (k, what) in ["block->cyclic n = 2^18", "transpose2 256^2"].iter().enumerate() {
        let ratio = by_pieces[k] / by_runs[k];
        println!("{what}: by runs {:.0} us, by pieces {:.0} us ({ratio:.2}x)", by_runs[k] / 1e3, by_pieces[k] / 1e3);
        assert!(
            by_runs[k] * RUN_SPEEDUP[k] < by_pieces[k],
            "{what}: pack+unpack by runs {:.0} ns x {} is not under {:.0} ns by pieces",
            by_runs[k],
            RUN_SPEEDUP[k],
            by_pieces[k]
        );
    }
}
