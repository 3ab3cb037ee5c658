//! Distributed arrays over a processor grid.
//!
//! One type, [`DArray`], generic over the rank: construction, ownership
//! queries, owner-computes iteration and reassembly are written once over
//! an N-d index walk. [`DArray1`] (vectors), [`DArray2`] (matrices) and
//! [`DArray3`] (the Airshed concentration array `layers x gridpoints x
//! species`, paper §5.2) are its instantiations, each with thin `i` /
//! `(r, c)` / `(i0, i1, i2)` accessors on top.
//!
//! Replication is a placement, not a type: a rank-1 array distributed `*`
//! (the paper's `a(*)`, "not distributed") has every member of its group
//! at coordinate 0 of a one-position map, so every member holds the whole
//! extent. That is [`Side::replicated`], and the one place it is decided
//! is the constructor.

use fx_core::{Cx, Global, GroupHandle};

use crate::dist::{for_each_index, ravel, unravel, DimMap, Dist};
use crate::plan::Side;

/// Element types storable in distributed arrays. `Sync` lets collectives
/// share one broadcast payload across processor threads.
pub trait Elem: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Elem for T {}

/// One value per dimension, as the constructors take extents,
/// distributions and grids: the array `[X; N]`, the matching tuple, or —
/// at rank 1 — the bare scalar (`DArray1::new(cx, &g, n, Dist::Block, 0)`).
pub trait PerDim<X, const N: usize> {
    /// The values as an array, dimension 0 first.
    fn per_dim(self) -> [X; N];
}

impl<X, const N: usize> PerDim<X, N> for [X; N] {
    fn per_dim(self) -> [X; N] {
        self
    }
}

impl<X> PerDim<X, 2> for (X, X) {
    fn per_dim(self) -> [X; 2] {
        self.into()
    }
}

impl<X> PerDim<X, 3> for (X, X, X) {
    fn per_dim(self) -> [X; 3] {
        self.into()
    }
}

impl PerDim<usize, 1> for usize {
    fn per_dim(self) -> [usize; 1] {
        [self]
    }
}

impl PerDim<Dist, 1> for Dist {
    fn per_dim(self) -> [Dist; 1] {
        [self]
    }
}

/// An `N`-dimensional array mapped onto a processor group arranged as an
/// `N`-dimensional grid (`SUBGROUP(g) :: a` + `DISTRIBUTE a(BLOCK, *)` in
/// the paper's notation): one [`Dist`] per dimension, virtual rank `v` at
/// row-major grid position `v`, each member's tile stored row-major.
///
/// Every processor in the *enclosing scope* may hold the descriptor — the
/// metadata is replicated, which is what lets parent-scope statements
/// compute communication sets — but only group members store elements.
///
/// The grid shape defaults to putting all processors on the one
/// distributed dimension: `(*, BLOCK)` → `1 x p`, `(BLOCK, *)` → `p x 1`.
/// A matrix with two distributed dimensions gets the near-square
/// factorization; anything else needs an explicit grid via `with_grid`.
#[derive(Debug, Clone)]
pub struct DArray<T, const N: usize> {
    /// Where the array lives: its group and per-dimension index maps
    /// (extent, grid positions, distribution) — the placement descriptor
    /// communication plans are built from.
    side: Side<N>,
    my_coord: Option<[usize; N]>,
    /// Row-major local tile (empty on non-members).
    local: Vec<T>,
}

/// A vector of extent `n` over `p` grid positions — or, distributed `*`,
/// replicated on every member.
pub type DArray1<T> = DArray<T, 1>;

/// The distribution of a [`DArray1`]'s one dimension.
pub type Dist1 = Dist;

/// A matrix: `rows x cols` over a `pr x pc` grid.
pub type DArray2<T> = DArray<T, 2>;

/// A `d0 x d1 x d2` array over a `p0 x p1 x p2` grid.
pub type DArray3<T> = DArray<T, 3>;

fn default_grid<const N: usize>(dist: [Dist; N], p: usize) -> [usize; N] {
    let spread: Vec<usize> = (0..N).filter(|&k| dist[k] != Dist::Star).collect();
    let mut grid = [1; N];
    match spread[..] {
        // `a(*)` at rank 1 is replication: any group size, one position.
        [] => assert!(N == 1 || p == 1, "a fully '*' (serial) array needs a single-processor group"),
        [k] => grid[k] = p,
        [a, b] if N == 2 => {
            // Near-square factorization: largest divisor ≤ sqrt(p).
            let mut pr = ((p as f64).sqrt() as usize).max(1);
            while !p.is_multiple_of(pr) {
                pr -= 1;
            }
            (grid[a], grid[b]) = (pr, p / pr);
        }
        _ => panic!(
            "the default grid of a rank-{N} array supports one distributed dimension \
             (got {dist:?}); use an explicit grid via with_grid for more"
        ),
    }
    grid
}

/// Visit the tile of grid coordinate `coord` in local row-major order as
/// `(global index vector, flat local slot)`.
fn walk_tile<const N: usize>(
    maps: &[DimMap; N],
    coord: [usize; N],
    mut f: impl FnMut([usize; N], usize),
) {
    let globals: [Vec<usize>; N] =
        std::array::from_fn(|k| maps[k].owned_globals(coord[k]).collect());
    let mut slot = 0;
    for_each_index::<N>(std::array::from_fn(|k| globals[k].len()), |l| {
        f(std::array::from_fn(|k| globals[k][l[k]]), slot);
        slot += 1;
    });
}

/// Visit the tile of grid coordinate `coord` as maximal runs of
/// consecutive elements, in local row-major order: `f(global row-major
/// start, local slot start, len)`. Consecutive along the last dimension
/// means one run per owned block of it, and runs that continue each other
/// in the global order too (a tile spanning whole rows) merge.
fn walk_runs<const N: usize>(
    maps: &[DimMap; N],
    coord: [usize; N],
    mut f: impl FnMut(usize, usize, usize),
) {
    let shape = maps.map(|m| m.n);
    let mut globals: [Vec<usize>; N] =
        std::array::from_fn(|k| maps[k].owned_globals(coord[k]).collect());
    // The last dimension as (first global, len) blocks.
    let last = maps[N - 1];
    let mut blocks = Vec::new();
    let mut i = 0;
    while let Some(&g) = globals[N - 1].get(i) {
        let len = last.block_end(g) - g;
        blocks.push((g, len));
        i += len;
    }
    globals[N - 1] = blocks.iter().map(|b| b.0).collect();
    let mut slot = 0;
    let mut run: Option<(usize, usize, usize)> = None;
    for_each_index::<N>(std::array::from_fn(|k| globals[k].len()), |l| {
        let at = ravel(std::array::from_fn(|k| globals[k][l[k]]), shape);
        let len = blocks[l[N - 1]].1;
        match &mut run {
            Some((start, _, n)) if *start + *n == at => *n += len,
            _ => {
                if let Some((start, from, n)) = run.replace((at, slot, len)) {
                    f(start, from, n);
                }
            }
        }
        slot += len;
    });
    if let Some((start, from, n)) = run {
        f(start, from, n);
    }
}

impl<T: Elem, const N: usize> DArray<T, N> {
    /// Create an array of extents `shape` filled with `fill`, using the
    /// default grid for `dist`. No communication; every caller builds its
    /// view.
    ///
    /// ```
    /// use fx_core::{spmd, Machine};
    /// use fx_darray::{DArray1, Dist1};
    ///
    /// spmd(&Machine::real(2), |cx| {
    ///     let g = cx.group();
    ///     let mut a = DArray1::new(cx, &g, 6, Dist1::Block, 0.0f64);
    ///     a.for_each_owned(|gi, v| *v = gi as f64); // owner computes
    ///     assert_eq!(a.local().len(), 3);
    /// });
    /// ```
    pub fn new(
        cx: &Cx,
        group: &GroupHandle,
        shape: impl PerDim<usize, N>,
        dist: impl PerDim<Dist, N>,
        fill: T,
    ) -> Self {
        let dist = dist.per_dim();
        Self::with_grid(cx, group, shape, dist, default_grid(dist, group.len()), fill)
    }

    /// Create with an explicit processor grid (its extents must multiply
    /// to the group size).
    pub fn with_grid(
        cx: &Cx,
        group: &GroupHandle,
        shape: impl PerDim<usize, N>,
        dist: impl PerDim<Dist, N>,
        grid: impl PerDim<usize, N>,
        fill: T,
    ) -> Self {
        let mut a = Self::placed(cx, group, shape.per_dim(), dist.per_dim(), grid.per_dim());
        a.local = vec![fill; a.local_extents().iter().product()];
        a
    }

    /// The descriptor of an array placed on `grid`, its tile still empty.
    fn placed(
        cx: &Cx,
        group: &GroupHandle,
        shape: [usize; N],
        dist: [Dist; N],
        grid: [usize; N],
    ) -> Self {
        let maps: [DimMap; N] = std::array::from_fn(|k| DimMap::new(shape[k], grid[k], dist[k]));
        let replicated = N == 1 && dist[0] == Dist::Star;
        assert!(
            replicated || grid.iter().product::<usize>() == group.len(),
            "grid {grid:?} does not match group size {}",
            group.len()
        );
        let side = Side { group: group.clone(), maps, replicated };
        DArray {
            my_coord: side.coord_of(cx.phys_rank()),
            side,
            local: Vec::new(),
        }
    }

    /// Create from globally known row-major contents: each member
    /// extracts its part. No communication — use this when every member
    /// can generate or already knows the data (workload setup, replicated
    /// inputs).
    pub fn from_global(
        cx: &Cx,
        group: &GroupHandle,
        shape: impl PerDim<usize, N>,
        dist: impl PerDim<Dist, N>,
        data: &[T],
    ) -> Self {
        let (shape, dist) = (shape.per_dim(), dist.per_dim());
        assert_eq!(data.len(), shape.iter().product::<usize>());
        let mut a = Self::placed(cx, group, shape, dist, default_grid(dist, group.len()));
        if let Some(c) = a.my_coord {
            walk_runs(&a.side.maps, c, |at, _, len| a.local.extend_from_slice(&data[at..at + len]));
        }
        a
    }

    /// Create an array aligned with `other` — same group, shape,
    /// distribution and grid, so element-wise operations between the two
    /// never communicate (the paper's `ALIGN` directive).
    pub fn aligned_with<U: Elem>(cx: &Cx, other: &DArray<U, N>, fill: T) -> Self {
        Self::with_grid(cx, other.group(), other.shape(), other.dist(), other.grid(), fill)
    }

    /// Global extents.
    pub fn shape(&self) -> [usize; N] {
        self.side.maps.map(|m| m.n)
    }

    /// Per-dimension distribution.
    pub fn dist(&self) -> [Dist; N] {
        self.side.maps.map(|m| m.dist)
    }

    /// Processor grid extents.
    pub fn grid(&self) -> [usize; N] {
        self.side.maps.map(|m| m.q)
    }

    /// The group the array is mapped onto.
    pub fn group(&self) -> &GroupHandle {
        &self.side.group
    }

    /// Is the calling processor a member of the array's group?
    pub fn is_member(&self) -> bool {
        self.my_coord.is_some()
    }

    /// Row-major local tile (empty on non-members).
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable view of the local tile.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Collect the whole array (row-major) on every member — a collective
    /// over the array's group. For validation and output stages, not
    /// inner loops. The gathered tiles are one buffer the group shares,
    /// read in place, and the row-major array is built once per group
    /// ([`Cx::replicated`]): every member gets the same [`Global`]. A
    /// replicated array shares its local copy the same way, so in debug
    /// builds members whose copies differ panic.
    pub fn to_global(&self, cx: &mut Cx) -> Global<T>
    where
        T: Default + PartialEq,
    {
        assert_eq!(
            cx.group().gid(),
            self.side.group.gid(),
            "to_global is a collective over the array's group"
        );
        if self.side.replicated {
            return cx.replicated(|| self.local.clone()).into(); // every member already holds it all
        }
        let parts = cx.allgather_vecs(self.local.clone());
        cx.replicated(|| {
            let mut out = vec![T::default(); self.shape().iter().product()];
            for (v, part) in parts.parts().enumerate() {
                self.walk_member(v, |at, slot, len| {
                    out[at..at + len].copy_from_slice(&part[slot..slot + len]);
                });
            }
            out
        })
        .into()
    }

    /// Visit the tile of virtual rank `v` in its local row-major order as
    /// maximal runs `(row-major global start, flat local slot start, len)`.
    pub(crate) fn walk_member(&self, v: usize, f: impl FnMut(usize, usize, usize)) {
        walk_runs(&self.side.maps, unravel(v, self.grid()), f);
    }

    pub(crate) fn maps(&self) -> &[DimMap; N] {
        &self.side.maps
    }

    /// The placement descriptor communication plans are built from.
    pub(crate) fn side(&self) -> &Side<N> {
        &self.side
    }

    /// Tile extents of the member at grid coordinate `coord`.
    fn tile_extents(&self, coord: [usize; N]) -> [usize; N] {
        std::array::from_fn(|k| self.side.maps[k].local_len(coord[k]))
    }

    /// This processor's tile extents (zeros on non-members).
    pub(crate) fn local_extents(&self) -> [usize; N] {
        self.my_coord.map_or([0; N], |c| self.tile_extents(c))
    }

    /// Physical owner of global element `idx`.
    fn owner_of(&self, idx: [usize; N]) -> usize {
        self.side.phys(std::array::from_fn(|k| self.side.maps[k].owner(idx[k])))
    }

    /// Global index vector of local element `l`.
    fn global_of(&self, l: [usize; N]) -> [usize; N] {
        let c = self.my_coord.expect("non-member has no local elements");
        std::array::from_fn(|k| self.side.maps[k].global_of(c[k], l[k]))
    }

    /// Apply `f(global index vector, &mut element)` to every owned
    /// element in local row-major order.
    pub(crate) fn each_owned(&mut self, mut f: impl FnMut([usize; N], &mut T)) {
        let Some(c) = self.my_coord else { return };
        let local = &mut self.local;
        walk_tile(&self.side.maps, c, |g, slot| f(g, &mut local[slot]));
    }

    /// Fold over owned elements as `(global index vector, element)`.
    fn fold_each<A>(&self, init: A, mut f: impl FnMut(A, [usize; N], T) -> A) -> A {
        let mut acc = Some(init);
        if let Some(c) = self.my_coord {
            walk_tile(&self.side.maps, c, |g, slot| acc = acc.take().map(|a| f(a, g, self.local[slot])));
        }
        acc.expect("the fold puts its accumulator back after every element")
    }
}

/// The vector view: scalar-index signatures over the generic core.
impl<T: Elem> DArray<T, 1> {
    /// Global extent.
    pub fn n(&self) -> usize {
        self.side.maps[0].n
    }

    /// Global index of local element `li` on this processor.
    pub fn global_of_local(&self, li: usize) -> usize {
        self.global_of([li])[0]
    }

    /// Apply `f(global_index, &mut element)` to every owned element, in
    /// ascending global order (the "owner computes" loop). Non-members do
    /// nothing.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, &mut T)) {
        self.each_owned(|[i], v| f(i, v));
    }

    /// Fold over owned elements as `(global_index, element)` pairs.
    pub fn fold_owned<A>(&self, init: A, mut f: impl FnMut(A, usize, T) -> A) -> A {
        self.fold_each(init, |acc, [i], v| f(acc, i, v))
    }

    /// Promotable owner-computes map: `dst[i] = f(cx, i, self[i])` for
    /// every global index, each element computed by its block owner by
    /// default but donatable to idle group peers on a virtual-time
    /// heartbeat (see `fx_core::Cx::pdo_promote`). Donated intervals ship
    /// the donor-owned source elements over the chunk transport and the
    /// results ride back the same way, so `f` may be arbitrarily skewed
    /// per element without stranding the subgroup behind one owner.
    ///
    /// `f` must be compute-only (`charge_*`, no communication) and a pure
    /// function of `(i, element)`; results are bit-identical with the
    /// heartbeat on or off. Both arrays must be `Block` over the current
    /// group, which every member must enter (this is a collective).
    pub fn promote_map<U: Elem>(
        &self,
        cx: &mut Cx,
        label: &str,
        dst: &mut DArray1<U>,
        f: impl Fn(&mut Cx, usize, T) -> U,
    ) {
        let group = &self.side.group;
        assert_eq!(
            cx.group().gid(),
            group.gid(),
            "promote_map is a collective over the array's group"
        );
        assert_eq!(self.dist(), [Dist::Block], "promote_map requires a Block source");
        assert_eq!(dst.dist(), [Dist::Block], "promote_map requires a Block destination");
        assert_eq!(dst.n(), self.n(), "promote_map arrays must share their extent");
        assert_eq!(dst.group().gid(), group.gid(), "promote_map arrays must share a group");
        let me = cx.id();
        // The promotable loop's block split is exactly the HPF Block
        // ownership map, so iteration `i` lands on `i`'s owner and local
        // indices are `i - base`.
        let my_block = fx_core::block_range(0..self.n(), cx.nprocs(), me);
        debug_assert_eq!(my_block.len(), self.local.len());
        let base = my_block.start;
        let src_local = &self.local;
        let dst_local = dst.local.as_mut_slice();
        cx.pdo_promote(
            label,
            0..self.n(),
            |_cx, i| vec![src_local[i - base]],
            |cx, i, ins| vec![f(cx, i, ins[0])],
            |_cx, i, outs: Vec<U>| dst_local[i - base] = outs[0],
        );
    }
}

/// The matrix view: `(row, col)` signatures over the generic core.
impl<T: Elem> DArray<T, 2> {
    /// Global row count.
    pub fn rows(&self) -> usize {
        self.side.maps[0].n
    }

    /// Global column count.
    pub fn cols(&self) -> usize {
        self.side.maps[1].n
    }

    /// Local tile dimensions `(local_rows, local_cols)`.
    pub fn local_dims(&self) -> (usize, usize) {
        self.local_extents().into()
    }

    /// One local row as a slice.
    pub fn local_row(&self, lr: usize) -> &[T] {
        let (_, lc) = self.local_dims();
        &self.local[lr * lc..(lr + 1) * lc]
    }

    /// One local row as a mutable slice.
    pub fn local_row_mut(&mut self, lr: usize) -> &mut [T] {
        let (_, lc) = self.local_dims();
        &mut self.local[lr * lc..(lr + 1) * lc]
    }

    /// Physical owner of global element `(r, c)`.
    pub fn owner_phys(&self, r: usize, c: usize) -> usize {
        self.owner_of([r, c])
    }

    /// Global `(row, col)` of local element `(lr, lc)`.
    pub fn global_of_local(&self, lr: usize, lc: usize) -> (usize, usize) {
        self.global_of([lr, lc]).into()
    }

    /// Local position of global `(r, c)` if this processor owns it.
    pub fn local_of_global(&self, r: usize, c: usize) -> Option<(usize, usize)> {
        let [rmap, cmap] = self.side.maps;
        (self.my_coord? == [rmap.owner(r), cmap.owner(c)])
            .then(|| (rmap.local_of(r), cmap.local_of(c)))
    }

    /// Apply `f(r, c, &mut element)` to every owned element in local
    /// row-major order.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        self.each_owned(|[r, c], v| f(r, c, v));
    }

    /// Fold over owned elements as `(r, c, element)`.
    pub fn fold_owned<A>(&self, init: A, mut f: impl FnMut(A, usize, usize, T) -> A) -> A {
        self.fold_each(init, |acc, [r, c], v| f(acc, r, c, v))
    }
}

/// The 3-D view: `(i0, i1, i2)` signatures over the generic core.
impl<T: Elem> DArray<T, 3> {
    /// Local extents `(l0, l1, l2)`.
    pub fn local_dims(&self) -> (usize, usize, usize) {
        self.local_extents().into()
    }

    /// Physical owner of global element `(i0, i1, i2)`.
    pub fn owner_phys(&self, i0: usize, i1: usize, i2: usize) -> usize {
        self.owner_of([i0, i1, i2])
    }

    /// Global indices of local element `(l0, l1, l2)`.
    pub fn global_of_local(&self, l0: usize, l1: usize, l2: usize) -> (usize, usize, usize) {
        self.global_of([l0, l1, l2]).into()
    }

    /// Apply `f(i0, i1, i2, &mut v)` over owned elements in local
    /// row-major order.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, usize, usize, &mut T)) {
        self.each_owned(|[i0, i1, i2], v| f(i0, i1, i2, v));
    }

    /// Fold over owned elements.
    pub fn fold_owned<A>(&self, init: A, mut f: impl FnMut(A, usize, usize, usize, T) -> A) -> A {
        self.fold_each(init, |acc, [i0, i1, i2], v| f(acc, i0, i1, i2, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, Size};
    use proptest::prelude::*;

    #[test]
    fn default_grids() {
        assert_eq!(default_grid([Dist::Star, Dist::Block], 6), [1, 6]);
        assert_eq!(default_grid([Dist::Block, Dist::Star], 6), [6, 1]);
        assert_eq!(default_grid([Dist::Block, Dist::Block], 12), [3, 4]);
        assert_eq!(default_grid([Dist::Cyclic, Dist::Block], 7), [1, 7]);
        assert_eq!(default_grid([Dist::Star, Dist::Star], 1), [1, 1]);
        assert_eq!(default_grid([Dist::Star, Dist::Cyclic, Dist::Star], 5), [1, 5, 1]);
        assert_eq!(default_grid([Dist::Star], 5), [1], "a(*) replicates over any group size");
    }

    /// Runs expanded to the `(global position, local slot)` pairs they
    /// cover must be exactly the element walk, in its order, and no two
    /// consecutive runs may continue each other.
    fn check_runs<const N: usize>(dims: [(usize, usize, Dist); N]) {
        let maps = dims.map(|(n, q, d)| DimMap::new(n, if d == Dist::Star { 1 } else { q }, d));
        let shape = maps.map(|m| m.n);
        for_each_index(maps.map(|m| m.q), |c| {
            let mut runs = Vec::new();
            walk_runs(&maps, c, |at, slot, len| runs.push((at, slot, len)));
            let covered: Vec<(usize, usize)> = runs
                .iter()
                .flat_map(|&(at, slot, len)| (0..len).map(move |i| (at + i, slot + i)))
                .collect();
            let mut elems = Vec::new();
            walk_tile(&maps, c, |g, slot| elems.push((ravel(g, shape), slot)));
            assert_eq!(covered, elems, "{maps:?} at {c:?}");
            for w in runs.windows(2) {
                assert!(w[0].2 > 0 && w[0].0 + w[0].2 != w[1].0, "{maps:?} at {c:?}: {runs:?}");
            }
        });
    }

    fn any_dist() -> impl Strategy<Value = Dist> {
        prop_oneof![
            Just(Dist::Block),
            Just(Dist::Cyclic),
            (1usize..4).prop_map(Dist::BlockCyclic),
            Just(Dist::Star)
        ]
    }

    proptest! {
        #[test]
        fn runs_cover_exactly_the_tile_walk(
            dims in proptest::collection::vec((0usize..9, 1usize..4, any_dist()), 3)
        ) {
            check_runs([dims[0]]);
            check_runs([dims[0], dims[1]]);
            check_runs([dims[0], dims[1], dims[2]]);
        }
    }

    #[test]
    fn star_vector_is_replicated_on_members_only() {
        let rep = spmd(&Machine::real(4), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(3)), ("b", Size::Rest)]);
            let a = DArray1::from_global(cx, &part.group("a"), 3, Dist::Star, &[5u8, 6, 7]);
            let twin = DArray1::aligned_with(cx, &a, 0u8);
            (a.is_member(), a.local().to_vec(), twin.local().len(), a.n())
        });
        for (v, r) in rep.results.iter().enumerate() {
            let expect = if v < 3 { (true, vec![5, 6, 7], 3, 3) } else { (false, vec![], 0, 3) };
            assert_eq!(*r, expect, "processor {v}");
        }
    }

    #[test]
    fn promote_map_matches_sequential_and_donates_on_skew() {
        use fx_core::{MachineModel, PromoteStats};
        let n = 512usize;
        let run = |hb: bool| {
            let m = Machine::simulated(6, MachineModel::paragon()).with_heartbeat(hb);
            spmd(&m, move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (0..n as u64).collect();
                let src = DArray1::from_global(cx, &g, n, Dist::Block, &data);
                let mut dst = DArray1::aligned_with(cx, &src, 0u64);
                src.promote_map(cx, "square", &mut dst, |cx, i, v| {
                    // Skewed: the last owner's elements cost the most.
                    cx.charge_flops(50.0 + (i as f64) * 30.0);
                    v * v + 1
                });
                dst.to_global(cx)
            })
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.results, on.results, "promotion changed promote_map results");
        for r in &on.results {
            for (i, v) in r.iter().enumerate() {
                assert_eq!(*v, (i as u64) * (i as u64) + 1);
            }
        }
        let total: PromoteStats = on.promote_total();
        assert!(total.taken > 0, "skewed promote_map never donated");
        assert!(on.makespan() < off.makespan(), "donation did not improve the makespan");
    }

    #[test]
    fn zero_length_array_is_fine() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 0, Dist::Block, 0u8);
            let mut hits = 0;
            a.for_each_owned(|_, _| hits += 1);
            (a.local().len(), hits, a.to_global(cx).len())
        });
        assert_eq!(rep.results[0], (0, 0, 0));
    }

    #[test]
    fn row_block_layout() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..24).collect(); // 6x4
            let a = DArray2::from_global(cx, &g, [6, 4], (Dist::Block, Dist::Star), &data);
            (a.local_dims(), a.local().to_vec())
        });
        assert_eq!(rep.results[0].0, (2, 4));
        assert_eq!(rep.results[0].1, (0..8).collect::<Vec<u32>>());
        assert_eq!(rep.results[2].1, (16..24).collect::<Vec<u32>>());
    }

    #[test]
    fn col_block_layout() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..12).collect(); // 3x4
            let a = DArray2::from_global(cx, &g, [3, 4], (Dist::Star, Dist::Block), &data);
            a.local().to_vec()
        });
        assert_eq!(rep.results[0], vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(rep.results[1], vec![2, 3, 6, 7, 10, 11]);
    }

    #[test]
    fn two_d_grid_tiles() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..16).collect(); // 4x4
            let a = DArray2::with_grid(
                cx,
                &g,
                [4, 4],
                (Dist::Block, Dist::Block),
                (2, 2),
                0,
            );
            let mut a = a;
            a.for_each_owned(|r, c, v| *v = data[r * 4 + c]);
            a.local().to_vec()
        });
        assert_eq!(rep.results[0], vec![0, 1, 4, 5]);
        assert_eq!(rep.results[1], vec![2, 3, 6, 7]);
        assert_eq!(rep.results[2], vec![8, 9, 12, 13]);
        assert_eq!(rep.results[3], vec![10, 11, 14, 15]);
    }

    #[test]
    fn to_global_round_trips() {
        for dist in [
            (Dist::Block, Dist::Star),
            (Dist::Star, Dist::Block),
            (Dist::Cyclic, Dist::Star),
        ] {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (0..35).collect(); // 5x7
                let a = DArray2::from_global(cx, &g, [5, 7], dist, &data);
                a.to_global(cx)
            });
            for r in rep.results {
                assert_eq!(r, (0..35).collect::<Vec<u64>>(), "dist = {dist:?}");
            }
        }
    }

    /// What `to_global` built before the group shared one buffer: every
    /// member's own copy, assembled from the gathered tiles.
    fn per_member_global<T: Elem + Default, const N: usize>(cx: &mut Cx, a: &DArray<T, N>) -> Vec<T> {
        let parts = cx.allgather_vecs(a.local().to_vec());
        let mut out = vec![T::default(); a.shape().iter().product()];
        for (v, part) in parts.parts().enumerate() {
            a.walk_member(v, |at, slot, len| out[at..at + len].copy_from_slice(&part[slot..slot + len]));
        }
        out
    }

    #[test]
    fn to_global_is_one_buffer_equal_to_the_per_member_assembly() {
        fn check<const N: usize>(shape: [usize; N], dist: [Dist; N]) {
            let data: Vec<u32> = (0..shape.iter().product::<usize>() as u32).map(|i| i * 7 + 1).collect();
            let expect = data.clone();
            let rep = spmd(&Machine::real(6), move |cx| {
                let g = cx.group();
                let a = DArray::<u32, N>::from_global(cx, &g, shape, dist, &data);
                (a.to_global(cx), per_member_global(cx, &a))
            });
            for (v, (shared, own)) in rep.results.iter().enumerate() {
                assert_eq!(*shared, *own, "{dist:?}: processor {v}");
                assert_eq!(*shared, expect, "{dist:?}: processor {v}");
                assert!(Global::ptr_eq(shared, &rep.results[0].0), "{dist:?}: processor {v} holds its own copy");
            }
        }
        check([37], [Dist::Block]);
        check([37], [Dist::Cyclic]);
        check([7, 9], [Dist::Block, Dist::Cyclic]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "replicated value differs on processor")]
    fn members_of_a_star_array_that_disagree_panic_in_to_global() {
        spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 4, Dist::Star, 0u8);
            if cx.id() == 2 {
                a.local_mut()[1] = 9;
            }
            a.to_global(cx);
        });
    }

    #[test]
    fn owner_and_local_of_global_agree() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let a = DArray2::new(cx, &g, [8, 8], (Dist::Block, Dist::Star), 0u8);
            let mut mine = Vec::new();
            for r in 0..8 {
                for c in 0..8 {
                    let owner = a.owner_phys(r, c);
                    let loc = a.local_of_global(r, c);
                    assert_eq!(owner == cx.phys_rank(), loc.is_some());
                    if loc.is_some() {
                        mine.push((r, c));
                    }
                }
            }
            mine.len()
        });
        assert_eq!(rep.results.iter().sum::<usize>(), 64);
    }

    #[test]
    fn subgroup_mapped_array() {
        let rep = spmd(&Machine::real(4), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let a = DArray2::new(cx, &g1, [4, 6], (Dist::Star, Dist::Block), 1.5f64);
            (a.is_member(), a.local().len())
        });
        assert_eq!(rep.results[0], (true, 12));
        assert_eq!(rep.results[1], (true, 12));
        assert_eq!(rep.results[2], (false, 0));
    }

    #[test]
    fn local_row_slices() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..12).collect();
            let mut a =
                DArray2::from_global(cx, &g, [4, 3], (Dist::Block, Dist::Star), &data);
            let row0 = a.local_row(0).to_vec();
            a.local_row_mut(1)[0] = 99;
            (row0, a.local_row(1).to_vec())
        });
        assert_eq!(rep.results[0].0, vec![0, 1, 2]);
        assert_eq!(rep.results[0].1, vec![99, 4, 5]);
        assert_eq!(rep.results[1].0, vec![6, 7, 8]);
    }

    #[test]
    fn layout_and_roundtrip() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let mut a = DArray3::new(cx, &g, [2, 9, 4], (Dist::Star, Dist::Block, Dist::Star), 0u32);
            a.for_each_owned(|i0, i1, i2, v| *v = (i0 * 100 + i1 * 10 + i2) as u32);
            (a.local_dims(), a.to_global(cx))
        });
        assert_eq!(rep.results[0].0, (2, 3, 4));
        let expect: Vec<u32> = (0..2)
            .flat_map(|i0| {
                (0..9).flat_map(move |i1| (0..4).map(move |i2| (i0 * 100 + i1 * 10 + i2) as u32))
            })
            .collect();
        for r in &rep.results {
            assert_eq!(r.1, expect);
        }
    }

    #[test]
    fn owner_matches_membership() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let a = DArray3::new(cx, &g, [3, 8, 2], (Dist::Star, Dist::Block, Dist::Star), 0u8);
            let mut mine = 0usize;
            for i0 in 0..3 {
                for i1 in 0..8 {
                    for i2 in 0..2 {
                        if a.owner_phys(i0, i1, i2) == cx.phys_rank() {
                            mine += 1;
                        }
                    }
                }
            }
            (mine, a.local().len())
        });
        for (mine, len) in rep.results {
            assert_eq!(mine, len);
        }
    }

    #[test]
    #[should_panic(expected = "one distributed dimension")]
    fn two_distributed_dims_need_explicit_grid() {
        spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            DArray3::new(cx, &g, [4, 4, 4], (Dist::Block, Dist::Block, Dist::Star), 0u8);
        });
    }

    #[test]
    fn explicit_grid_two_distributed_dims() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let mut a = DArray3::with_grid(
                cx,
                &g,
                [4, 4, 3],
                (Dist::Block, Dist::Block, Dist::Star),
                (2, 2, 1),
                0u32,
            );
            a.for_each_owned(|i0, i1, i2, v| *v = (i0 * 12 + i1 * 3 + i2) as u32);
            a.to_global(cx)
        });
        let expect: Vec<u32> = (0..48).collect();
        assert_eq!(rep.results[0], expect);
    }
}
