//! Property tests for the communication-plan engine, written once over
//! the rank and instantiated at 1, 2 and 3: for random distributions,
//! explicit grids, group placements, index maps, sub-ranges and axis
//! permutations, the interval-based plan expands to *exactly* the
//! per-element enumeration (same peers, same element order, no empty
//! message, peers ascending), and packing / unpacking / the local copy
//! along its runs move exactly the enumerated slots — on every rank, in
//! release builds too (debug builds additionally self-verify inside
//! `Plan::build`).

use fx_core::GroupHandle;
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, CommSets, Plan, Side, Stmt};
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

/// On every rank: `pack_into` reads exactly the enumerated send slots in
/// order, `unpack_chunk` writes message element `j` to the `j`-th
/// enumerated receive slot, `copy_local` moves the enumerated pairs.
fn runs_move_the_enumerated_slots<const N: usize>((s, d, stmt, ranks): Case<N>) -> Result<(), TestCaseError> {
    for me in 0..ranks {
        let plan = Plan::build(me, &s, &d, &stmt);
        let want = CommSets::enumerate(me, &s, &d, &stmt);
        // A source tile that holds its own slot numbers and a destination
        // tile length, both long enough for every slot the statement names.
        let s_slots = want.sends.iter().flat_map(|(_, v)| v.iter().copied());
        let d_slots = want.recvs.iter().flat_map(|(_, v)| v.iter().copied());
        let s_len = s_slots.chain(want.local.iter().map(|p| p.0)).max().map_or(0, |m| m + 1);
        let d_len = d_slots.chain(want.local.iter().map(|p| p.1)).max().map_or(0, |m| m + 1);
        let src: Vec<u32> = (0..s_len as u32).collect();

        for (p, (_, slots)) in plan.sends.iter().zip(&want.sends) {
            let mut chunk = Chunk::with_capacity::<u32>(p.total);
            pack_into(&src, &plan.src_strides, p.dims(&plan.runs), &mut chunk);
            let want: Vec<u32> = slots.iter().map(|&slot| slot as u32).collect();
            prop_assert_eq!(chunk.to_vec::<u32>(), want, "rank {} pack for {}", me, p.peer);
        }
        for (p, (_, slots)) in plan.recvs.iter().zip(&want.recvs) {
            let mut chunk = Chunk::with_capacity::<u32>(p.total);
            chunk.push_slice(&(0..p.total as u32).collect::<Vec<_>>());
            let mut dst = vec![u32::MAX; d_len];
            unpack_chunk(&mut dst, &plan.dst_strides, p.dims(&plan.runs), &chunk);
            let mut expect = vec![u32::MAX; d_len];
            for (j, &slot) in slots.iter().enumerate() {
                expect[slot] = j as u32;
            }
            prop_assert_eq!(dst, expect, "rank {} unpack from {}", me, p.peer);
        }
        if let Some((sl, dl)) = &plan.local {
            let mut dst = vec![u32::MAX; d_len];
            copy_local(&src, &plan.src_strides, sl.dims(&plan.runs), &mut dst, &plan.dst_strides, dl.dims(&plan.runs));
            let mut expect = vec![u32::MAX; d_len];
            for &(from, to) in &want.local {
                expect[to] = from as u32;
            }
            prop_assert_eq!(dst, expect, "rank {} local leg", me);
        }
    }
    Ok(())
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
        runs_move_the_enumerated_slots(case)?;
    }

    #[test]
    fn runs2_move_the_enumerated_slots(case in arb_case::<2>()) {
        runs_move_the_enumerated_slots(case)?;
    }

    #[test]
    fn runs3_move_the_enumerated_slots(case in arb_case::<3>()) {
        runs_move_the_enumerated_slots(case)?;
    }
}
