//! Property tests for the communication-plan engine, written once over
//! the rank and instantiated at 1, 2 and 3: for random distributions,
//! explicit grids, group placements, index maps, sub-ranges and axis
//! permutations, the interval-based plan expands to *exactly* the
//! per-element enumeration (same peers, same element order, no empty
//! message, peers ascending), and packing / unpacking / the local copy
//! along its runs move exactly the enumerated slots — on every rank, in
//! release builds too (debug builds additionally self-verify inside
//! `Plan::build`). Named cases then pin each way a `Seg` can move (long
//! and short contiguous runs, one-element and short-run strided
//! families, stride-0 repeats, permuted axes) for 1-, 8- and 16-byte
//! elements: a whole statement moved by plans equals the same statement
//! moved by the enumeration.

use std::collections::HashMap;

use fx_core::GroupHandle;
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, CommSets, Plan, Seg, Side, Stmt};
use fx_darray::{DimMap, Dist, Remap};
use fx_runtime::Chunk;
use proptest::collection::vec;
use proptest::prelude::*;

/// `N` independent draws of `s`, as an array.
fn arr<S: Strategy, const N: usize>(s: S) -> impl Strategy<Value = [S::Value; N]>
where
    S::Value: std::fmt::Debug,
{
    vec(s, N).prop_map(|v| <[S::Value; N]>::try_from(v).expect("vec of length N"))
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..5).prop_map(Dist::BlockCyclic),
    ]
}

/// One destination dimension of a statement: its extent, the source
/// extent it reads, the sub-range written and an index map that stays
/// inside the source over that sub-range.
#[derive(Debug, Clone, Copy)]
struct Dim {
    remap: Remap,
    dn: usize,
    sn: usize,
    range: (usize, usize),
}

/// All four maps over extents below `max`; half the dimensions are
/// written whole, the rest over a random (possibly empty) sub-range. The
/// source grows until the map fits, and a shift is clamped to the shifts
/// that are in range — which includes the negative ones a sub-range
/// leaves room for.
fn arb_dim(max: usize) -> impl Strategy<Value = Dim> {
    let raw = (0..max, 0..max + 2, 0..max + 1, 0..max + 1, any::<bool>(), 0usize..4, -14isize..15);
    raw.prop_map(|(dn, sn, a, b, whole, kind, by)| {
        let (lo, hi) = if whole { (0, dn) } else { (a.min(b).min(dn), a.max(b).min(dn)) };
        let (remap, sn) = match kind {
            0 => (Remap::Identity, sn.max(hi)),
            1 => {
                let sn = sn.max(hi - lo);
                (Remap::Shift(by.clamp(-(lo as isize), sn as isize - hi as isize)), sn)
            }
            2 => (Remap::ClampShift(by), sn.max(1)),
            _ => (Remap::Cyclic(by), sn.max(1)),
        };
        Dim { remap, dn, sn, range: (lo, hi) }
    })
}

/// Where one side lives: `p` processors from physical rank `off`, an
/// explicit grid (`picks` choose among the divisors, so two and three
/// distributed dimensions occur), a distribution per dimension, `*` on
/// some undivided dimensions, or — rank 1 only — replication.
#[derive(Debug, Clone, Copy)]
struct Place<const N: usize> {
    p: usize,
    off: usize,
    picks: [usize; N],
    dists: [Dist; N],
    star: [bool; N],
    replicated: bool,
}

fn arb_place<const N: usize>() -> impl Strategy<Value = Place<N>> {
    (1usize..9, 0usize..3, arr(0usize..8), arr(arb_dist()), arr(any::<bool>()), 0usize..4).prop_map(
        |(p, off, picks, dists, star, rep)| Place { p, off, picks, dists, star, replicated: N == 1 && rep == 0 },
    )
}

impl<const N: usize> Place<N> {
    fn side(&self, gid: u64, extents: [usize; N]) -> Side<N> {
        let group = GroupHandle::synthetic(gid, (self.off..self.off + self.p).collect());
        if self.replicated {
            let maps = extents.map(|n| DimMap::new(n, 1, Dist::Star));
            return Side { group, maps, replicated: true };
        }
        let mut left = self.p;
        let maps = std::array::from_fn(|k| {
            let divisors: Vec<usize> = (1..=left).filter(|q| left.is_multiple_of(*q)).collect();
            let q = if k == N - 1 { left } else { divisors[self.picks[k] % divisors.len()] };
            left /= q;
            let dist = if q == 1 && self.star[k] { Dist::Star } else { self.dists[k] };
            DimMap::new(extents[k], q, dist)
        });
        Side { group, maps, replicated: false }
    }
}

/// The `pick`-th permutation of `0..N`.
fn permutation<const N: usize>(mut pick: usize) -> [usize; N] {
    let mut rest: Vec<usize> = (0..N).collect();
    std::array::from_fn(|k| {
        let at = pick % (N - k);
        pick /= N - k;
        rest.remove(at)
    })
}

/// A statement between two placements, and how many ranks to check it on
/// (every member of either group, plus one outsider).
type Case<const N: usize> = (Side<N>, Side<N>, Stmt<N>, usize);

fn arb_case<const N: usize>() -> impl Strategy<Value = Case<N>> {
    // Long vectors (several block-cyclic periods), small cubes.
    let max = [70, 20, 10][N - 1];
    (arr::<_, N>(arb_dim(max)), arb_place::<N>(), arb_place::<N>(), 0usize..6).prop_map(
        |(dims, sp, dp, pick)| {
            let axes = permutation::<N>(pick);
            let mut s_extents = [0; N];
            for k in 0..N {
                s_extents[axes[k]] = dims[k].sn;
            }
            let stmt = Stmt { remap: dims.map(|d| d.remap), range: dims.map(|d| d.range), axes };
            let ranks = (sp.off + sp.p).max(dp.off + dp.p) + 1;
            (sp.side(1, s_extents), dp.side(2, dims.map(|d| d.dn)), stmt, ranks)
        },
    )
}

/// On every rank: plan expansion == per-element oracle, no empty message,
/// sends and receives ascending by peer.
fn plan_equals_enumeration<const N: usize>((s, d, stmt, ranks): Case<N>) -> Result<(), TestCaseError> {
    for me in 0..ranks {
        let plan = Plan::build(me, &s, &d, &stmt);
        let want = CommSets::enumerate(me, &s, &d, &stmt);
        prop_assert_eq!(&CommSets::of_plan(&plan), &want, "rank {}", me);
        for side in [&plan.sends, &plan.recvs] {
            prop_assert!(side.iter().all(|p| p.total > 0), "rank {}: empty message planned", me);
            prop_assert!(side.windows(2).all(|w| w[0].peer < w[1].peer), "rank {}: peers not ascending", me);
        }
        for (_, slots) in want.sends.iter().chain(&want.recvs) {
            prop_assert!(!slots.is_empty(), "rank {}: empty message enumerated", me);
        }
    }
    Ok(())
}

/// An element type the checks can fill: a value naming a slot. `u8`
/// names wrap at 256, so 1-byte cases keep their tiles that short.
trait Named: Copy + Send + PartialEq + std::fmt::Debug + 'static {
    fn named(slot: usize) -> Self;
}

impl Named for u8 {
    fn named(slot: usize) -> u8 {
        slot as u8
    }
}

impl Named for u32 {
    fn named(slot: usize) -> u32 {
        slot as u32
    }
}

impl Named for f64 {
    fn named(slot: usize) -> f64 {
        slot as f64
    }
}

/// A 16-byte element, laid out as the kernels' complex numbers are.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Complex {
    re: f64,
    im: f64,
}

impl Named for Complex {
    fn named(slot: usize) -> Complex {
        Complex { re: slot as f64, im: -(slot as f64) }
    }
}

/// How long rank `me`'s source and destination tiles must be for every
/// slot the enumeration names.
fn tile_lens(want: &CommSets) -> (usize, usize) {
    let s_slots = want.sends.iter().flat_map(|(_, v)| v.iter().copied());
    let d_slots = want.recvs.iter().flat_map(|(_, v)| v.iter().copied());
    let s_len = s_slots.chain(want.local.iter().map(|p| p.0)).max().map_or(0, |m| m + 1);
    let d_len = d_slots.chain(want.local.iter().map(|p| p.1)).max().map_or(0, |m| m + 1);
    (s_len, d_len)
}

/// On every rank: `pack_into` reads exactly the enumerated send slots in
/// order, `unpack_chunk` writes message element `j` to the `j`-th
/// enumerated receive slot, `copy_local` moves the enumerated pairs.
fn runs_move_the_enumerated_slots<T: Named, const N: usize>(
    (s, d, stmt, ranks): &Case<N>,
) -> Result<(), TestCaseError> {
    let sentinel = T::named(usize::MAX);
    for me in 0..*ranks {
        let plan = Plan::build(me, s, d, stmt);
        let want = CommSets::enumerate(me, s, d, stmt);
        // A source tile that holds its own slot numbers and a destination
        // tile length, both long enough for every slot the statement names.
        let (s_len, d_len) = tile_lens(&want);
        let src: Vec<T> = (0..s_len).map(T::named).collect();

        for (p, (_, slots)) in plan.sends.iter().zip(&want.sends) {
            let mut chunk = Chunk::with_capacity::<T>(p.total);
            pack_into(&src, &plan.src_strides, p.dims(&plan.runs), &mut chunk);
            let want: Vec<T> = slots.iter().map(|&slot| T::named(slot)).collect();
            prop_assert_eq!(chunk.to_vec::<T>(), want, "rank {} pack for {}", me, p.peer);
        }
        for (p, (_, slots)) in plan.recvs.iter().zip(&want.recvs) {
            let mut chunk = Chunk::with_capacity::<T>(p.total);
            chunk.push_slice(&(0..p.total).map(T::named).collect::<Vec<_>>());
            let mut dst = vec![sentinel; d_len];
            unpack_chunk(&mut dst, &plan.dst_strides, p.dims(&plan.runs), &chunk);
            let mut expect = vec![sentinel; d_len];
            for (j, &slot) in slots.iter().enumerate() {
                expect[slot] = T::named(j);
            }
            prop_assert_eq!(dst, expect, "rank {} unpack from {}", me, p.peer);
        }
        if let Some((sl, dl)) = &plan.local {
            let mut dst = vec![sentinel; d_len];
            copy_local(&src, &plan.src_strides, sl.dims(&plan.runs), &mut dst, &plan.dst_strides, dl.dims(&plan.runs));
            let mut expect = vec![sentinel; d_len];
            for &(from, to) in &want.local {
                expect[to] = T::named(from);
            }
            prop_assert_eq!(dst, expect, "rank {} local leg", me);
        }
    }
    Ok(())
}

/// The whole statement on every rank, twice: packed, sent and unpacked
/// (and copied locally) along the plans, and moved slot by slot along the
/// enumeration. Every destination tile must come out the same.
fn plans_move_the_statement_like_the_oracle<T: Named, const N: usize>((s, d, stmt, ranks): &Case<N>) {
    let plans: Vec<Plan<N>> = (0..*ranks).map(|me| Plan::build(me, s, d, stmt)).collect();
    let sets: Vec<CommSets> = (0..*ranks).map(|me| CommSets::enumerate(me, s, d, stmt)).collect();
    let lens: Vec<(usize, usize)> = sets.iter().map(tile_lens).collect();
    let srcs: Vec<Vec<T>> = lens.iter().enumerate().map(|(me, l)| (0..l.0).map(|i| T::named(i * ranks + me)).collect()).collect();
    let blank = || lens.iter().map(|l| vec![T::named(usize::MAX); l.1]).collect::<Vec<_>>();

    let mut by_oracle = blank();
    let mut mail: HashMap<(usize, usize), Vec<T>> = HashMap::new();
    for (me, cs) in sets.iter().enumerate() {
        for (peer, slots) in &cs.sends {
            mail.insert((me, *peer), slots.iter().map(|&slot| srcs[me][slot]).collect());
        }
        cs.local.iter().for_each(|&(from, to)| by_oracle[me][to] = srcs[me][from]);
    }
    for (me, cs) in sets.iter().enumerate() {
        for (peer, slots) in &cs.recvs {
            let msg = mail.remove(&(*peer, me)).expect("a matching send");
            slots.iter().zip(msg).for_each(|(&slot, v)| by_oracle[me][slot] = v);
        }
    }

    let mut by_plan = blank();
    let mut mail: HashMap<(usize, usize), Chunk> = HashMap::new();
    for (me, pl) in plans.iter().enumerate() {
        if let Some((sl, dl)) = &pl.local {
            copy_local(&srcs[me], &pl.src_strides, sl.dims(&pl.runs), &mut by_plan[me], &pl.dst_strides, dl.dims(&pl.runs));
        }
        for p in &pl.sends {
            let mut chunk = Chunk::with_capacity::<T>(0);
            pack_into(&srcs[me], &pl.src_strides, p.dims(&pl.runs), &mut chunk);
            assert_eq!(chunk.elems(), p.total);
            mail.insert((me, p.peer), chunk);
        }
    }
    for (me, pl) in plans.iter().enumerate() {
        for p in &pl.recvs {
            let chunk = mail.remove(&(p.peer, me)).expect("a matching send");
            unpack_chunk(&mut by_plan[me], &pl.dst_strides, p.dims(&pl.runs), &chunk);
        }
    }
    assert!(mail.is_empty(), "a packed message nobody unpacked");
    assert_eq!(by_plan, by_oracle, "{} element", std::any::type_name::<T>());
}

/// Every innermost `Seg` a case's plans move, with the element step of
/// the tile it walks: its sends and source runs at the source's step, its
/// receives and destination runs at 1.
fn inner_segs<const N: usize>((s, d, stmt, ranks): &Case<N>) -> Vec<(Seg, usize)> {
    let mut out = Vec::new();
    for me in 0..*ranks {
        let plan = Plan::build(me, s, d, stmt);
        let (s_step, d_step) = (plan.src_strides[N - 1], plan.dst_strides[N - 1]);
        let local = plan.local.iter().flat_map(|(sl, dl)| [(sl, s_step), (dl, d_step)]);
        let legs = plan.sends.iter().map(|p| (p, s_step)).chain(plan.recvs.iter().map(|p| (p, d_step))).chain(local);
        for (p, step) in legs {
            out.extend(p.dims(&plan.runs)[N - 1].iter().map(|&seg| (seg, step)));
        }
    }
    out
}

/// Check `case` against the oracle for 1-, 8- and 16-byte elements, after
/// checking that its plans hold a `Seg` of the shape it is named for.
fn check_shape<const N: usize>(case: Case<N>, shape: &str, is_shape: impl Fn(&Seg, usize) -> bool) {
    assert!(inner_segs(&case).iter().any(|(seg, step)| is_shape(seg, *step)), "no {shape} in the plans");
    plans_move_the_statement_like_the_oracle::<u8, N>(&case);
    plans_move_the_statement_like_the_oracle::<f64, N>(&case);
    plans_move_the_statement_like_the_oracle::<Complex, N>(&case);
    for result in [
        runs_move_the_enumerated_slots::<u8, N>(&case),
        runs_move_the_enumerated_slots::<f64, N>(&case),
        runs_move_the_enumerated_slots::<Complex, N>(&case),
    ] {
        result.unwrap_or_else(|e| panic!("{shape}: {e}"));
    }
}

/// A side over processors `0..p`, one map per dimension.
fn side<const N: usize>(gid: u64, p: usize, maps: [DimMap; N]) -> Side<N> {
    Side { group: GroupHandle::synthetic(gid, (0..p).collect()), maps, replicated: false }
}

/// A whole-array, unpermuted statement between two rank-1 sides.
fn vector_case(s: [DimMap; 1], d: [DimMap; 1], remap: Remap, p: usize) -> Case<1> {
    let stmt = Stmt::whole(&d, [remap]);
    (side(1, p, s), side(2, p, d), stmt, p)
}

#[test]
fn long_contiguous_runs_move_like_the_oracle() {
    // BLOCK → BLOCK shifted by 40: each rank's 256 elements leave in two
    // runs of 216 and 40.
    let m = |q| [DimMap::new(1024, q, Dist::Block)];
    let case = (side(1, 4, m(4)), side(2, 4, m(4)), Stmt { remap: [Remap::Shift(40)], range: [(0, 984)], axes: [0] }, 4);
    check_shape(case, "long contiguous run", |seg, step| step == 1 && seg.len >= 64);
}

#[test]
fn short_contiguous_runs_move_like_the_oracle() {
    // (*, BLOCK) → (BLOCK, *) over 8: every message is 4 rows of 4.
    let s = [DimMap::new(32, 1, Dist::Star), DimMap::new(32, 8, Dist::Block)];
    let d = [DimMap::new(32, 8, Dist::Block), DimMap::new(32, 1, Dist::Star)];
    let case = (side(1, 8, s), side(2, 8, d), Stmt::whole(&d, [Remap::Identity; 2]), 8);
    check_shape(case, "short contiguous run", |seg, step| step == 1 && seg.count == 1 && (2..=4).contains(&seg.len));
}

#[test]
fn one_element_strided_families_move_like_the_oracle() {
    for (from, to) in [(Dist::Block, Dist::Cyclic), (Dist::Cyclic, Dist::Block)] {
        let case = vector_case([DimMap::new(256, 8, from)], [DimMap::new(256, 8, to)], Remap::Identity, 8);
        check_shape(case, "one-element family", |seg, _| seg.len == 1 && seg.count > 1 && seg.stride > 1);
    }
}

#[test]
fn short_run_families_move_like_the_oracle() {
    // CYCLIC(3) → BLOCK: runs of 3 at a stride of 12.
    let case = vector_case([DimMap::new(240, 4, Dist::BlockCyclic(3))], [DimMap::new(240, 4, Dist::Block)], Remap::Identity, 4);
    check_shape(case, "short-run family", |seg, _| (2..=4).contains(&seg.len) && seg.count > 1 && seg.stride > seg.len);
}

#[test]
fn stride_0_repeats_move_like_the_oracle() {
    // The last 20 destination indices all read source index 63: a
    // stride-0 repeat in rank 3's message to rank 2 and in its local leg.
    let m = [DimMap::new(64, 4, Dist::Block)];
    check_shape(vector_case(m, m, Remap::ClampShift(20), 4), "stride-0 repeat", |seg, _| seg.stride == 0 && seg.count > 1);
}

#[test]
fn permuted_axes_move_like_the_oracle() {
    // transpose2 of a 12 x 20 (BLOCK, *) matrix into (*, BLOCK): the inner
    // destination dimension strides through the source tile by 20.
    let s = [DimMap::new(12, 4, Dist::Block), DimMap::new(20, 1, Dist::Star)];
    let d = [DimMap::new(20, 1, Dist::Star), DimMap::new(12, 4, Dist::Block)];
    let stmt = Stmt { axes: [1, 0], ..Stmt::whole(&d, [Remap::Identity; 2]) };
    check_shape((side(1, 4, s), side(2, 4, d), stmt, 4), "permuted run", |_, step| step > 1);
    // Three axes rotated, over a 2 x 2 source grid and a 4-way destination.
    let s = [DimMap::new(6, 2, Dist::Block), DimMap::new(8, 2, Dist::Cyclic), DimMap::new(5, 1, Dist::Star)];
    let d = [DimMap::new(5, 1, Dist::Star), DimMap::new(6, 4, Dist::Cyclic), DimMap::new(8, 1, Dist::Star)];
    let stmt = Stmt { axes: [2, 0, 1], ..Stmt::whole(&d, [Remap::Identity; 3]) };
    check_shape((side(1, 4, s), side(2, 4, d), stmt, 4), "permuted run", |_, step| step > 1);
    // A family of runs under a permutation: BLOCK over 2 transposed into
    // CYCLIC(2) over 4, so each sender's rows leave in pairs, 8 apart.
    let s = [DimMap::new(32, 2, Dist::Block), DimMap::new(6, 1, Dist::Star)];
    let d = [DimMap::new(6, 1, Dist::Star), DimMap::new(32, 4, Dist::BlockCyclic(2))];
    let stmt = Stmt { axes: [1, 0], ..Stmt::whole(&d, [Remap::Identity; 2]) };
    let case = (side(1, 2, s), side(2, 4, d), stmt, 4);
    check_shape(case, "permuted family of runs", |seg, step| step > 1 && seg.len > 1 && seg.count > 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Rank 1: shifted sub-range copies, remaps and replicated endpoints.
    #[test]
    fn plan1_equals_enumeration(case in arb_case::<1>()) {
        plan_equals_enumeration(case)?;
    }

    /// Rank 2: copies, transpositions and per-dimension remaps (many-to-one
    /// clamped tails, cyclic wraps) over random grids.
    #[test]
    fn plan2_equals_enumeration(case in arb_case::<2>()) {
        plan_equals_enumeration(case)?;
    }

    /// Rank 3: one, two and three distributed dimensions per side, all six
    /// axis permutations.
    #[test]
    fn plan3_equals_enumeration(case in arb_case::<3>()) {
        plan_equals_enumeration(case)?;
    }

    #[test]
    fn runs1_move_the_enumerated_slots(case in arb_case::<1>()) {
        runs_move_the_enumerated_slots::<u32, 1>(&case)?;
        runs_move_the_enumerated_slots::<Complex, 1>(&case)?;
    }

    #[test]
    fn runs2_move_the_enumerated_slots(case in arb_case::<2>()) {
        runs_move_the_enumerated_slots::<u32, 2>(&case)?;
        runs_move_the_enumerated_slots::<Complex, 2>(&case)?;
    }

    #[test]
    fn runs3_move_the_enumerated_slots(case in arb_case::<3>()) {
        runs_move_the_enumerated_slots::<u32, 3>(&case)?;
        runs_move_the_enumerated_slots::<Complex, 3>(&case)?;
    }
}

#[test]
fn a_family_of_runs_under_a_stride_packs_and_unpacks_in_order() {
    // Runs of 2 at a stride of 3, in a dimension whose index i sits at
    // offset 4 i: offsets 0, 4, 12, 16. Destination tiles of a statement
    // are row-major, so only a caller's own strides reach this unpack.
    let fam = [Seg { start: 0, len: 2, stride: 3, count: 2 }];
    let src: Vec<Complex> = (0..20).map(Complex::named).collect();
    let mut chunk = Chunk::with_capacity::<Complex>(4);
    pack_into(&src, &[4], [&fam], &mut chunk);
    assert_eq!(chunk.to_vec::<Complex>(), [0, 4, 12, 16].map(Complex::named));
    let mut dst = vec![Complex::named(99); 20];
    unpack_chunk(&mut dst, &[4], [&fam], &chunk);
    let expect: Vec<Complex> = (0..20).map(|i| Complex::named(if [0, 4, 12, 16].contains(&i) { i } else { 99 })).collect();
    assert_eq!(dst, expect);
}
