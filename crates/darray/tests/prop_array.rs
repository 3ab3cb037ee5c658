//! One property for every rank of the one array type, run at N = 1, 2, 3
//! (rank 1 including the replicated `*` placement) with and without
//! callers outside the array's group:
//!
//! * tiles partition the index space (a replicated array: every member
//!   holds all of it; a non-member: nothing);
//! * `for_each_owned` visits, in local order, exactly the global indices
//!   the per-dimension [`DimMap`]s give the caller's grid coordinate, and
//!   `from_global` put the right element in each slot;
//! * `to_global(from_global(x)) == x` on every member;
//! * `aligned_with` shares owners.

use fx_core::{spmd, Cx, Global, GroupHandle, Machine, Size};
use fx_darray::{DArray, DArray1, DArray2, DArray3, DimMap, Dist};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The per-rank `for_each_owned` spellings behind one signature: the
/// global index vectors of the caller's tile, in local order.
trait Owned<const N: usize> {
    fn owned(&mut self) -> Vec<[usize; N]>;
}

impl Owned<1> for DArray1<u64> {
    fn owned(&mut self) -> Vec<[usize; 1]> {
        let mut out = Vec::new();
        self.for_each_owned(|i, _| out.push([i]));
        out
    }
}

impl Owned<2> for DArray2<u64> {
    fn owned(&mut self) -> Vec<[usize; 2]> {
        let mut out = Vec::new();
        self.for_each_owned(|r, c, _| out.push([r, c]));
        out
    }
}

impl Owned<3> for DArray3<u64> {
    fn owned(&mut self) -> Vec<[usize; 3]> {
        let mut out = Vec::new();
        self.for_each_owned(|i0, i1, i2, _| out.push([i0, i1, i2]));
        out
    }
}

/// What one processor saw of the array.
struct View<const N: usize> {
    vrank: Option<usize>,
    member: bool,
    grid: [usize; N],
    owned: Vec<[usize; N]>,
    local: Vec<u64>,
    twin_owned: Vec<[usize; N]>,
    /// `to_global`, on members.
    global: Option<Global<u64>>,
}

fn ravel<const N: usize>(idx: [usize; N], lens: [usize; N]) -> usize {
    (0..N).fold(0, |v, k| v * lens[k] + idx[k])
}

fn replicated<const N: usize>(dist: [Dist; N]) -> bool {
    N == 1 && dist[0] == Dist::Star
}

/// The collective, run inside the array's group.
fn collect<const N: usize>(cx: &mut Cx, a: &DArray<u64, N>, view: &mut View<N>) {
    view.global = Some(a.to_global(cx));
}

fn observe<const N: usize>(
    cx: &mut Cx,
    g: &GroupHandle,
    shape: [usize; N],
    dist: [Dist; N],
    data: &[u64],
) -> (DArray<u64, N>, View<N>)
where
    DArray<u64, N>: Owned<N>,
{
    let mut a = DArray::from_global(cx, g, shape, dist, data);
    let mut twin = DArray::aligned_with(cx, &a, 0u64);
    let view = View {
        vrank: g.vrank_of_phys(cx.phys_rank()),
        member: a.is_member(),
        grid: a.grid(),
        owned: a.owned(),
        local: a.local().to_vec(),
        twin_owned: twin.owned(),
        global: None,
    };
    (a, view)
}

fn check<const N: usize>(
    p: usize,
    outsiders: usize,
    shape: [usize; N],
    dist: [Dist; N],
) -> Result<(), TestCaseError>
where
    DArray<u64, N>: Owned<N>,
{
    let total: usize = shape.iter().product();
    let data: Vec<u64> = (0..total as u64).map(|i| i * 7 + 3).collect();
    let rep = spmd(&Machine::real(p + outsiders), |cx| {
        if outsiders == 0 {
            let g = cx.group();
            let (a, mut view) = observe(cx, &g, shape, dist, &data);
            collect(cx, &a, &mut view);
            return view;
        }
        // Outsiders first, so members' physical ranks differ from their
        // virtual ones.
        let part = cx.task_partition(&[("out", Size::Procs(outsiders)), ("a", Size::Rest)]);
        let (a, mut view) = observe(cx, &part.group("a"), shape, dist, &data);
        cx.task_region(&part, |cx, tr| tr.on(cx, "a", |cx| collect(cx, &a, &mut view)));
        view
    });

    let rep_all = replicated(dist);
    let mut holders = vec![0usize; total];
    for (phys, view) in rep.results.iter().enumerate() {
        let Some(v) = view.vrank else {
            prop_assert!(!view.member && view.owned.is_empty() && view.local.is_empty());
            prop_assert!(view.twin_owned.is_empty() && view.global.is_none());
            continue;
        };
        prop_assert!(view.member, "processor {} is in the group", phys);
        let maps: [DimMap; N] =
            std::array::from_fn(|k| DimMap::new(shape[k], view.grid[k], dist[k]));
        // Virtual rank v stands at row-major grid position v; every member
        // of a replicated array at position 0.
        let mut coord = [0; N];
        let mut rest = if rep_all { 0 } else { v };
        for k in (0..N).rev() {
            coord[k] = rest % view.grid[k];
            rest /= view.grid[k];
        }
        let extents: [usize; N] = std::array::from_fn(|k| maps[k].local_len(coord[k]));
        prop_assert_eq!(view.owned.len(), extents.iter().product::<usize>());
        prop_assert_eq!(view.local.len(), view.owned.len());
        for (slot, &g) in view.owned.iter().enumerate() {
            for k in 0..N {
                prop_assert_eq!(maps[k].owner(g[k]), coord[k], "{:?} dim {}", g, k);
            }
            let l: [usize; N] = std::array::from_fn(|k| maps[k].local_of(g[k]));
            prop_assert_eq!(ravel(l, extents), slot, "{:?} is out of local order", g);
            prop_assert_eq!(view.local[slot], data[ravel(g, shape)]);
            holders[ravel(g, shape)] += 1;
        }
        prop_assert_eq!(&view.twin_owned, &view.owned, "aligned_with moved an owner");
        prop_assert_eq!(view.global.as_deref(), Some(&data[..]));
    }
    let copies = if rep_all { p } else { 1 };
    prop_assert!(holders.iter().all(|&h| h == copies), "holders per element: {:?}", holders);
    Ok(())
}

fn spread() -> impl Strategy<Value = Dist> {
    prop_oneof![Just(Dist::Block), Just(Dist::Cyclic), (1usize..4).prop_map(Dist::BlockCyclic)]
}

/// Distributions the default grid accepts: one distributed dimension; at
/// rank 2 possibly both; at rank 1 possibly none (replication).
fn arb_dists<const N: usize>() -> impl Strategy<Value = [Dist; N]> {
    (0..N, spread(), spread(), any::<bool>()).prop_map(|(k, d, second, flip)| {
        let mut out = [Dist::Star; N];
        out[k] = d;
        if N == 2 && flip {
            out[1 - k] = second;
        }
        if N == 1 && flip {
            out[0] = Dist::Star;
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rank1(p in 1usize..5, out in 0usize..3, n in 0usize..24, dist in arb_dists::<1>()) {
        check(p, out, [n], dist)?;
    }

    #[test]
    fn rank2(
        p in 1usize..5,
        out in 0usize..3,
        shape in (0usize..8, 0usize..8),
        dist in arb_dists::<2>(),
    ) {
        check(p, out, shape.into(), dist)?;
    }

    #[test]
    fn rank3(
        p in 1usize..5,
        out in 0usize..3,
        shape in (0usize..5, 0usize..5, 0usize..5),
        dist in arb_dists::<3>(),
    ) {
        check(p, out, shape.into(), dist)?;
    }
}
