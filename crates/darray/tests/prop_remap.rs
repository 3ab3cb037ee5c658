//! Property tests for structured remaps: over random distributions,
//! explicit grids, placements and per-dimension index maps, `remap2` /
//! `remap1` are indistinguishable from the closure oracle ([`oracle`]: the
//! per-element walk `CommSets::enumerate_with` under the same index map,
//! replayed by hand) — same destination contents, bitwise-equal virtual
//! finish times on every processor, same message and byte counts — on a
//! worker per processor and on two workers. The observable protocol (op tag, skip rule, message
//! schedule, charges) is shared; only the host work differs.
//!
//! Below them, the closed-form `Remap::cut` against its per-index
//! definition, and a plan over an extent no per-index step could finish.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fx_core::{spmd, Cx, GroupHandle, Machine, MachineModel, Size};
use fx_darray::plan::{CommSets, Peer, Piece, Plan, Seg, Side, Stmt};
use fx_darray::{remap1, remap2, DArray, DArray1, DArray2, DimMap, Dist, Dist1, Remap};
use fx_runtime::Executor;
use proptest::prelude::*;

/// One dimension of a statement: the map and extents it is valid for.
#[derive(Debug, Clone, Copy)]
struct Dim {
    remap: Remap,
    dn: usize,
    sn: usize,
}

impl Dim {
    fn src_of(&self, i: usize) -> usize {
        self.remap.apply(i, self.sn).expect("generated maps are in range")
    }
}

/// A map together with destination/source extents it stays inside:
/// equal or larger sources for `Identity`/`Shift`, unrelated extents for
/// the clamped (many-to-one tail) and cyclic (wrapping) maps.
fn arb_dim() -> impl Strategy<Value = Dim> {
    prop_oneof![
        (1usize..12, 0usize..3).prop_map(|(dn, extra)| Dim {
            remap: Remap::Identity,
            dn,
            sn: dn + extra
        }),
        (1usize..12, 0usize..6, 0usize..3).prop_map(|(dn, by, extra)| Dim {
            remap: Remap::Shift(by as isize),
            dn,
            sn: dn + by + extra
        }),
        (1usize..12, 1usize..14, -7isize..8).prop_map(|(dn, sn, by)| Dim {
            remap: Remap::ClampShift(by),
            dn,
            sn
        }),
        (1usize..12, 1usize..14, -20isize..21).prop_map(|(dn, sn, by)| Dim {
            remap: Remap::Cyclic(by),
            dn,
            sn
        }),
    ]
}

/// `dst[i] = src[f(i)]` the slow way, under a remap statement's protocol:
/// one op tag on every caller, owners only, the per-element communication
/// sets (`CommSets::enumerate_with`) replayed as the local copy, its
/// charge, the sends ascending by destination, then the receives ascending
/// by source — each message scattered into its slots in order.
fn oracle<const N: usize>(
    cx: &mut Cx,
    dst: &mut DArray<u32, N>,
    src: &DArray<u32, N>,
    f: impl Fn([usize; N]) -> [usize; N],
) {
    let tag = cx.next_op_tag();
    if !src.is_member() && !dst.is_member() {
        return;
    }
    let side = |a: &DArray<u32, N>| {
        let (shape, grid, dist) = (a.shape(), a.grid(), a.dist());
        let maps = std::array::from_fn(|k| DimMap::new(shape[k], grid[k], dist[k]));
        Side { group: a.group().clone(), maps, replicated: N == 1 && dist[0] == Dist::Star }
    };
    let whole = dst.shape().map(|n| (0, n));
    let sets = CommSets::enumerate_with(cx.phys_rank(), &side(src), &side(dst), whole, f);
    let (src, dst) = (src.local(), dst.local_mut());
    for &(ss, ds) in &sets.local {
        dst[ds] = src[ss];
    }
    cx.charge_mem_bytes(2.0 * (sets.local.len() * std::mem::size_of::<u32>()) as f64);
    for (dp, slots) in &sets.sends {
        let mut chunk = cx.chunk_for::<u32>(slots.len());
        slots.iter().for_each(|&slot| chunk.push_slice(&src[slot..slot + 1]));
        cx.send_chunk_phys(*dp, tag, chunk);
    }
    for (sp, slots) in &sets.recvs {
        let chunk = cx.recv_chunk_phys(*sp, tag);
        for (k, &slot) in slots.iter().enumerate() {
            chunk.read_into(k, &mut dst[slot..slot + 1]);
        }
        cx.release_chunk(chunk);
    }
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..4).prop_map(Dist::BlockCyclic),
    ]
}

/// Where the two arrays live on a `p`-processor machine.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Both on the whole machine.
    Same,
    /// Source on the first `k` processors, destination on the rest.
    Disjoint(usize),
    /// Source on the whole machine, destination on the last `p - k`.
    Nested(usize),
}

fn arb_placement() -> impl Strategy<Value = (usize, Placement)> {
    (2usize..7).prop_flat_map(|p| {
        (Just(p), prop_oneof![
            Just(Placement::Same),
            (1..p).prop_map(Placement::Disjoint),
            (1..p).prop_map(Placement::Nested),
        ])
    })
}

fn groups(cx: &mut Cx, placement: Placement) -> (GroupHandle, GroupHandle) {
    match placement {
        Placement::Same => (cx.group(), cx.group()),
        Placement::Disjoint(k) | Placement::Nested(k) => {
            let part = cx.task_partition(&[("a", Size::Procs(k)), ("b", Size::Rest)]);
            let a = if matches!(placement, Placement::Nested(_)) { cx.group() } else { part.group("a") };
            (a, part.group("b"))
        }
    }
}

/// An explicit `pr x pc` grid for a group of `len` processors (`pick`
/// selects among the divisors), with `*` on some undivided dimensions.
fn grid_and_dist(len: usize, pick: usize, (d0, d1): (Dist, Dist), star: bool) -> ((usize, usize), (Dist, Dist)) {
    let divisors: Vec<usize> = (1..=len).filter(|d| len.is_multiple_of(*d)).collect();
    let pr = divisors[pick % divisors.len()];
    let pc = len / pr;
    let d0 = if pr == 1 && star { Dist::Star } else { d0 };
    let d1 = if pc == 1 && star && d0 != Dist::Star { Dist::Star } else { d1 };
    ((pr, pc), (d0, d1))
}

fn machine(p: usize, executor: Executor) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_executor(executor)
}

/// One worker per processor (4096 is clamped to P), and two.
const EXECUTORS: [Executor; 2] = [Executor::Pooled { workers: 4096 }, Executor::Pooled { workers: 2 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn remap2_is_indistinguishable_from_the_closure_oracle(
        rows in arb_dim(),
        cols in arb_dim(),
        placed in arb_placement(),
        sd in (arb_dist(), arb_dist()),
        dd in (arb_dist(), arb_dist()),
        picks in (0usize..8, 0usize..8, any::<bool>(), any::<bool>()),
    ) {
        let (p, placement) = placed;
        let run = |structured: bool, executor: Executor| {
            spmd(&machine(p, executor), move |cx| {
                let (gs, gd) = groups(cx, placement);
                let (s_grid, s_dist) = grid_and_dist(gs.len(), picks.0, sd, picks.2);
                let (d_grid, d_dist) = grid_and_dist(gd.len(), picks.1, dd, picks.3);
                let mut src = DArray2::with_grid(cx, &gs, [rows.sn, cols.sn], s_dist, s_grid, 0u32);
                src.for_each_owned(|r, c, v| *v = (r * 100 + c + 1) as u32);
                let mut dst = DArray2::with_grid(cx, &gd, [rows.dn, cols.dn], d_dist, d_grid, 0u32);
                // Stagger the clocks so message timing is not trivially symmetric.
                cx.charge_seconds(cx.phys_rank() as f64 * 1e-4);
                // Twice: the second structured statement replays the cached plan.
                for _ in 0..2 {
                    if structured {
                        remap2(cx, &mut dst, &src, rows.remap, cols.remap);
                    } else {
                        oracle(cx, &mut dst, &src, |[r, c]| [rows.src_of(r), cols.src_of(c)]);
                    }
                }
                dst.fold_owned(Vec::new(), |mut acc, r, c, v| {
                    acc.push((r, c, v));
                    acc
                })
            })
        };
        let oracle = run(false, EXECUTORS[0]);
        let mut owned = 0;
        for per_proc in &oracle.results {
            for &(r, c, v) in per_proc {
                prop_assert_eq!(v, (rows.src_of(r) * 100 + cols.src_of(c) + 1) as u32, "dst[{}][{}]", r, c);
                owned += 1;
            }
        }
        prop_assert_eq!(owned, rows.dn * cols.dn);
        let oracle_bits: Vec<u64> = oracle.times.iter().map(|t| t.to_bits()).collect();
        for executor in EXECUTORS {
            for structured in [true, false] {
                let rep = run(structured, executor);
                prop_assert_eq!(&rep.results, &oracle.results, "contents ({}, {})", structured, executor);
                let bits: Vec<u64> = rep.times.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&bits, &oracle_bits, "virtual times ({}, {})", structured, executor);
                prop_assert_eq!(&rep.traffic, &oracle.traffic, "msgs/bytes ({}, {})", structured, executor);
            }
        }
    }

    #[test]
    fn remap1_is_indistinguishable_from_the_closure_oracle(
        dim in arb_dim(),
        placed in arb_placement(),
        sd in arb_dist(),
        dd in arb_dist(),
        replicated in (any::<bool>(), any::<bool>()),
    ) {
        let (p, placement) = placed;
        let dist1 = |d: Dist, rep: bool| match (rep, d) {
            (true, _) => Dist1::Star,
            (_, Dist::Cyclic) => Dist1::Cyclic,
            (_, Dist::BlockCyclic(b)) => Dist1::BlockCyclic(b),
            _ => Dist1::Block,
        };
        // One replicated endpoint in four: planned like the rest.
        let (sd, dd) = (dist1(sd, replicated.0 && replicated.1), dist1(dd, replicated.0 && !replicated.1));
        let run = |structured: bool, executor: Executor| {
            spmd(&machine(p, executor), move |cx| {
                let (gs, gd) = groups(cx, placement);
                let data: Vec<u32> = (0..dim.sn).map(|i| (i * 7 + 1) as u32).collect();
                let src = DArray1::from_global(cx, &gs, data.len(), sd, &data);
                let mut dst = DArray1::new(cx, &gd, dim.dn, dd, 0u32);
                cx.charge_seconds(cx.phys_rank() as f64 * 1e-4);
                for _ in 0..2 {
                    if structured {
                        remap1(cx, &mut dst, &src, dim.remap);
                    } else {
                        oracle(cx, &mut dst, &src, |[i]| [dim.src_of(i)]);
                    }
                }
                dst.fold_owned(Vec::new(), |mut acc, i, v| {
                    acc.push((i, v));
                    acc
                })
            })
        };
        let oracle = run(false, EXECUTORS[0]);
        for per_proc in &oracle.results {
            for &(i, v) in per_proc {
                prop_assert_eq!(v, (dim.src_of(i) * 7 + 1) as u32, "dst[{}]", i);
            }
        }
        let oracle_bits: Vec<u64> = oracle.times.iter().map(|t| t.to_bits()).collect();
        for executor in EXECUTORS {
            for structured in [true, false] {
                let rep = run(structured, executor);
                prop_assert_eq!(&rep.results, &oracle.results, "contents ({}, {})", structured, executor);
                let bits: Vec<u64> = rep.times.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&bits, &oracle_bits, "virtual times ({}, {})", structured, executor);
                prop_assert_eq!(&rep.traffic, &oracle.traffic, "msgs/bytes ({}, {})", structured, executor);
            }
        }
    }
}

/// How a statement of rank `rank` names its dimension `dim` when it
/// rejects a map.
fn dim_name(rank: usize, dim: usize) -> String {
    match (rank, dim) {
        (1, _) => "index".to_string(),
        (2, 0) => "row".to_string(),
        (2, 1) => "column".to_string(),
        _ => format!("dimension {dim}"),
    }
}

/// What `Remap::cut` is defined to return: walk the destination indices
/// one by one; an index extends the last piece where it continues it (a
/// piece of one index takes its step, 0 or 1, from the second), and
/// starts a piece otherwise. `Err` is the first index the map sends
/// outside the source.
fn cut_by_index(remap: Remap, (lo, hi): (usize, usize), sn: usize) -> Result<Vec<Piece>, usize> {
    let mut out: Vec<Piece> = Vec::new();
    for i in lo..hi {
        let s = remap.apply(i, sn).ok_or(i)?;
        match out.last_mut() {
            Some(p) if p.len == 1 && (s == p.src || s == p.src + 1) => {
                p.step = s - p.src;
                p.len = 2;
            }
            Some(p) if p.len > 1 && s == p.src + p.len * p.step => p.len += 1,
            _ => out.push(Piece { dst: i, len: 1, src: s, step: 1 }),
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// All four maps; shifts from far below to far above the extents (fully
    /// clamped ranges, shifts that leave the source at either end); source
    /// extents from 0 and 1 up; ranges that are empty, inverted, or several
    /// sources long (a `Cyclic` wraps many times).
    #[test]
    fn cut_equals_its_per_index_definition(
        kind in 0usize..4,
        by in -70isize..71,
        sn in 0usize..14,
        range in (0usize..70, 0usize..70),
        rank in 1usize..4,
        dim in 0usize..3,
    ) {
        let remap = [Remap::Identity, Remap::Shift(by), Remap::ClampShift(by), Remap::Cyclic(by)][kind];
        let dim = dim % rank;
        let got = catch_unwind(|| remap.cut(range, sn, rank, dim));
        match cut_by_index(remap, range, sn) {
            Ok(want) => prop_assert_eq!(got.ok(), Some(want), "{:?} over {:?} of {}", remap, range, sn),
            Err(i) => {
                let msg = panic_message(got.expect_err("an index leaves the source"));
                let want = format!(
                    "remap{rank}: {} map {remap:?} sends destination index {i} outside the source extent {sn}",
                    dim_name(rank, dim)
                );
                prop_assert_eq!(msg, want);
            }
        }
    }
}

/// `big` is `small` with dimension `k` stretched `by[k]`-fold: same peers,
/// every run and stride scaled — BLOCK and `*` shares are single runs, so
/// the factor applies to starts and lengths alike.
fn assert_scaled<const N: usize>(big: &Plan<N>, small: &Plan<N>, by: [usize; N]) {
    let peer = |b: &Peer<N>, s: &Peer<N>| {
        assert_eq!((b.peer, b.total), (s.peer, s.total * by.iter().product::<usize>()));
        for (k, &f) in by.iter().enumerate() {
            let want: Vec<Seg> = s.dims(&small.runs)[k]
                .iter()
                .map(|r| Seg { start: r.start * f, len: r.len * f, stride: r.stride * f, count: r.count })
                .collect();
            assert_eq!(b.dims(&big.runs)[k], want, "peer {} dimension {k}", b.peer);
        }
    };
    for (b, s) in [(&big.sends, &small.sends), (&big.recvs, &small.recvs)] {
        assert_eq!(b.len(), s.len());
        b.iter().zip(s).for_each(|(b, s)| peer(b, s));
    }
    assert_eq!(big.local.is_some(), small.local.is_some());
    for ((bs, bd), (ss, sd)) in big.local.iter().zip(&small.local) {
        peer(bs, ss);
        peer(bd, sd);
    }
    for k in 0..N {
        let inner: usize = by[k + 1..].iter().product();
        assert_eq!(big.src_strides[k], small.src_strides[k] * inner);
        assert_eq!(big.dst_strides[k], small.dst_strides[k] * inner);
    }
}

/// How many of the indices `lo..hi` `hit` picks, where `hit` repeats
/// every `period` indices: one period by brute force, times the whole
/// periods, plus the rest by brute force.
fn count_periodic(lo: usize, hi: usize, period: usize, hit: impl Fn(usize) -> bool) -> usize {
    let brute = |a: usize, b: usize| (a..b).filter(|&i| hit(i)).count();
    let whole = hi.saturating_sub(lo) / period;
    let once = if whole > 0 { brute(lo, lo + period) } else { 0 };
    once * whole + brute(lo + whole * period, hi.max(lo))
}

/// The range holding every global index coordinate `c` of `map` owns, and
/// the period with which `map`'s ownership repeats inside it.
fn span_and_period(map: &DimMap, c: usize) -> (usize, usize, usize) {
    match map.dist {
        Dist::Block => {
            let b = map.n.div_ceil(map.q);
            ((c * b).min(map.n), ((c + 1) * b).min(map.n), 1)
        }
        Dist::Cyclic => (0, map.n, map.q),
        Dist::BlockCyclic(b) => (0, map.n, b * map.q),
        Dist::Star => (0, map.n, 1),
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// On each of 64 ranks, the plan of the rank-1 `stmt` gives each peer the
/// share the two maps say: the destination indices that one side's
/// coordinate owns and whose source the other side's coordinate owns. The
/// share is counted from the maps, piece by piece of the statement's cut,
/// one joint period at a time.
fn assert_shares(s: &Side<1>, d: &Side<1>, stmt: &Stmt<1>, what: &str) {
    let (sm, dm) = (s.maps[0], d.maps[0]);
    let pieces = stmt.remap[0].cut(stmt.range[0], sm.n, 1, 0);
    let share = |c: usize, j: usize| -> usize {
        let ((s_lo, s_hi, sp), (d_lo, d_hi, dp)) = (span_and_period(&sm, c), span_and_period(&dm, j));
        let piece = |p: &Piece| {
            // The destination indices of the piece whose source lies in
            // the source span, and in the destination span.
            let (a, e) = match p.step {
                0 if (s_lo..s_hi).contains(&p.src) => (p.dst, p.dst + p.len),
                0 => (p.dst, p.dst),
                _ => ((s_lo + p.dst).saturating_sub(p.src), (s_hi + p.dst).saturating_sub(p.src)),
            };
            let (a, e) = (a.max(p.dst).max(d_lo), e.min(p.dst + p.len).min(d_hi));
            let period = if p.step == 0 { dp } else { sp / gcd(sp, dp) * dp };
            let src_of = |i: usize| p.src + (i - p.dst) * p.step;
            count_periodic(a, e, period, |i| dm.owner(i) == j && sm.owner(src_of(i)) == c)
        };
        pieces.iter().map(piece).sum()
    };
    for me in 0..64 {
        let plan = Plan::build(me, s, d, stmt);
        let got = |peers: &[Peer<1>], peer: usize| peers.iter().find(|p| p.peer == peer).map_or(0, |p| p.total);
        let local = plan.local.as_ref().map_or(0, |(sl, _)| sl.total);
        if let Some(c) = s.group.vrank_of_phys(me) {
            for j in 0..dm.q {
                let (peer, want) = (d.group.phys(j), share(c, j));
                let have = if peer == me { local } else { got(&plan.sends, peer) };
                assert_eq!(have, want, "{what}: rank {me} sends to destination coordinate {j}");
            }
        }
        if let Some(j) = d.group.vrank_of_phys(me) {
            for c in 0..sm.q {
                let (peer, want) = (s.group.phys(c), share(c, j));
                let have = if peer == me { local } else { got(&plan.recvs, peer) };
                assert_eq!(have, want, "{what}: rank {me} receives from source coordinate {c}");
            }
        }
    }
}

/// The functional proof that a build has no step proportional to the
/// extent, for every map: 2⁴⁰ indices per dimension at P=64 plan at once —
/// on every rank, debug builds included. BLOCK plans give the 2¹⁰ plan,
/// scaled; cyclic and block-cyclic plans, one shifted, give each peer the
/// share the two maps say, as does a clamped tail 2³⁰ long.
#[test]
fn every_map_plans_over_a_huge_extent() {
    const P: usize = 64;
    const N: usize = 1 << 40;
    let all = GroupHandle::synthetic(1, (0..P).collect());
    // BLOCK over the 64 onto BLOCK over 16 of them, in reverse order: four
    // source blocks per destination block.
    let few = GroupHandle::synthetic(2, (0..16).rev().map(|v| 3 * v + 1).collect());
    let vector = |n| {
        let s = Side { group: all.clone(), maps: [DimMap::new(n, P, Dist::Block)], replicated: false };
        let d = Side { group: few.clone(), maps: [DimMap::new(n, 16, Dist::Block)], replicated: false };
        (s, d)
    };
    // (*, BLOCK) onto (BLOCK, *): an all-to-all.
    let matrix = |[rows, cols]: [usize; 2]| {
        let side = |q: [usize; 2], dists: [Dist; 2]| Side {
            group: all.clone(),
            maps: [DimMap::new(rows, q[0], dists[0]), DimMap::new(cols, q[1], dists[1])],
            replicated: false,
        };
        (side([1, P], [Dist::Star, Dist::Block]), side([P, 1], [Dist::Block, Dist::Star]))
    };
    for me in 0..P {
        let plan1 = |n| {
            let (s, d) = vector(n);
            Plan::build(me, &s, &d, &Stmt::whole(&d.maps, [Remap::Identity]))
        };
        let big = plan1(N);
        assert_eq!(big.sends.len() + big.local.iter().len(), 1, "rank {me}'s block has one owner");
        assert_scaled(&big, &plan1(1 << 10), [1 << 30]);

        let plan2 = |shape| {
            let (s, d) = matrix(shape);
            Plan::build(me, &s, &d, &Stmt::whole(&d.maps, [Remap::Identity; 2]))
        };
        let big = plan2([N, 1 << 20]);
        assert_eq!((big.sends.len(), big.recvs.len()), (P - 1, P - 1));
        assert_scaled(&big, &plan2([1 << 10, 1 << 6]), [1 << 30, 1 << 14]);
    }

    let side = |group: &GroupHandle, dist| {
        Side { group: group.clone(), maps: [DimMap::new(N, group.len(), dist)], replicated: false }
    };
    let sixteen = GroupHandle::synthetic(3, (0..16).map(|v| 4 * v + 2).collect());
    for (what, s, d) in [
        ("BLOCK -> CYCLIC", side(&all, Dist::Block), side(&all, Dist::Cyclic)),
        ("CYCLIC -> BLOCK", side(&all, Dist::Cyclic), side(&all, Dist::Block)),
        ("CYCLIC over 64 -> CYCLIC over 16", side(&all, Dist::Cyclic), side(&sixteen, Dist::Cyclic)),
        ("BLOCK -> CYCLIC(3)", side(&all, Dist::Block), side(&all, Dist::BlockCyclic(3))),
    ] {
        assert_shares(&s, &d, &Stmt::whole(&d.maps, [Remap::Identity]), what);
    }
    // Both maps repeat, and the source's blocks of three start one index
    // off the destination's period.
    let (s, d) = (side(&all, Dist::BlockCyclic(3)), side(&all, Dist::Cyclic));
    let shifted = Stmt { range: [(0, N - 1)], ..Stmt::whole(&d.maps, [Remap::Shift(1)]) };
    assert_shares(&s, &d, &shifted, "CYCLIC(3) -> CYCLIC, shifted by one");
    // CYCLIC over two onto CYCLIC(3) over 64: a receiver's block of three
    // comes from both sources, so each share of a period is two runs,
    // which join the next period's into one strided family.
    let two = GroupHandle::synthetic(4, vec![5, 9]);
    let (s, d) = (side(&two, Dist::Cyclic), side(&all, Dist::BlockCyclic(3)));
    let from_one = Stmt { range: [(1, N)], ..Stmt::whole(&d.maps, [Remap::Identity]) };
    assert_shares(&s, &d, &from_one, "CYCLIC over 2 -> CYCLIC(3) over 64, from index 1");
    // dst[i] = src[min(i + 2³⁰, n − 1)]: the last 2³⁰ destination indices
    // all read the source's last element, which one rank sends to one
    // destination block.
    let clamp = Remap::ClampShift(1 << 30);
    let tail = *clamp.cut((0, N), N, 1, 0).last().expect("a tail piece");
    assert_eq!((tail.len, tail.step), (1 << 30, 0), "the clamped tail");
    let (s, d) = (side(&all, Dist::Block), side(&few, Dist::Block));
    assert_shares(&s, &d, &Stmt::whole(&d.maps, [clamp]), "a clamped shift");
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// An index map that leaves the source extent is rejected when the plan
/// is built, naming the statement, the dimension and the first offending
/// index. CI also runs this suite with `--release`, where the closure
/// path's old `debug_assert!` used to compile out.
#[test]
fn out_of_range_shift_panics_at_plan_build() {
    let g = GroupHandle::synthetic(1, vec![0, 1]);
    let side = |rows, cols| Side {
        group: g.clone(),
        maps: [DimMap::new(rows, 1, Dist::Star), DimMap::new(cols, 2, Dist::Block)],
        replicated: false,
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        let stmt = Stmt::whole(&side(4, 8).maps, [Remap::Identity, Remap::Shift(3)]);
        Plan::build(0, &side(4, 8), &side(4, 8), &stmt)
    }))
    .expect_err("columns 5.. shift past the source");
    let msg = panic_message(err);
    assert!(
        msg.contains("remap2: column map Shift(3) sends destination index 5 outside the source extent 8"),
        "got: {msg}"
    );

    let side1 = |n| Side { group: g.clone(), maps: [DimMap::new(n, 2, Dist::Cyclic)], replicated: false };
    let err = catch_unwind(AssertUnwindSafe(|| {
        Plan::build(1, &side1(6), &side1(6), &Stmt::whole(&side1(6).maps, [Remap::Shift(-1)]))
    }))
    .expect_err("index 0 shifts below the source");
    let msg = panic_message(err);
    assert!(
        msg.contains("remap1: index map Shift(-1) sends destination index 0 outside the source extent 6"),
        "got: {msg}"
    );
}

/// The same mistake through the statement itself: it refuses — in
/// release builds too — instead of reading a wrong slot.
#[test]
fn out_of_range_statements_panic_in_every_profile() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(std::time::Duration::from_secs(10));
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, move |cx| {
            let g = cx.group();
            let src = DArray2::new(cx, &g, [3, 8], (Dist::Star, Dist::Block), 1u8);
            let mut dst = DArray2::new(cx, &g, [3, 8], (Dist::Star, Dist::Block), 0u8);
            remap2(cx, &mut dst, &src, Remap::Identity, Remap::Shift(2));
        })
    }))
    .expect_err("shift leaves the source");
    let msg = panic_message(err);
    assert!(msg.contains("outside the source extent 8") || msg.contains("another processor panicked"), "got: {msg}");
}
