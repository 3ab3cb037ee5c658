//! Distributed arrays of rank two and up over a processor grid.
//!
//! One type, [`DArray`], generic over the rank: construction, ownership
//! queries, owner-computes iteration and reassembly are written once over
//! an N-d index walk. [`DArray2`] (matrices) and [`DArray3`] (the Airshed
//! concentration array `layers x gridpoints x species`, paper §5.2) are
//! its instantiations, each with thin `(r, c)` / `(i0, i1, i2)` accessors
//! on top. Rank-1 arrays keep their own type, [`crate::DArray1`]:
//! replication exists only there and special-cases every accessor.

use std::cell::RefCell;

use fx_core::{Cx, GroupHandle};

use crate::array1::Elem;
use crate::assign::Operand;
use crate::dist::{for_each_index, ravel, unravel, DimMap, Dist};
use crate::plan::{Side, VersionVec};

/// An `N`-dimensional array mapped onto a processor group arranged as an
/// `N`-dimensional grid: one [`Dist`] per dimension (`DISTRIBUTE a(BLOCK,
/// *)` etc.), virtual rank `v` at row-major grid position `v`, each
/// member's tile stored row-major.
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
    /// Replicated read/write version vector (dataflow classification).
    /// Statements on these arrays record whole-array footprints over the
    /// flattened extent.
    versions: RefCell<VersionVec>,
}

/// A matrix: `rows x cols` over a `pr x pc` grid.
pub type DArray2<T> = DArray<T, 2>;

/// A `d0 x d1 x d2` array over a `p0 x p1 x p2` grid.
pub type DArray3<T> = DArray<T, 3>;

fn default_grid<const N: usize>(dist: [Dist; N], p: usize) -> [usize; N] {
    let spread: Vec<usize> = (0..N).filter(|&k| dist[k] != Dist::Star).collect();
    let mut grid = [1; N];
    match spread[..] {
        [] => assert_eq!(p, 1, "a fully '*' (serial) array needs a single-processor group"),
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

impl<T: Elem, const N: usize> DArray<T, N> {
    /// Create an array of extents `shape` filled with `fill`, using the
    /// default grid for `dist` (a `[Dist; N]` or the matching tuple).
    pub fn new(
        cx: &Cx,
        group: &GroupHandle,
        shape: [usize; N],
        dist: impl Into<[Dist; N]>,
        fill: T,
    ) -> Self {
        let dist = dist.into();
        Self::with_grid(cx, group, shape, dist, default_grid(dist, group.len()), fill)
    }

    /// Create with an explicit processor grid (its extents must multiply
    /// to the group size).
    pub fn with_grid(
        cx: &Cx,
        group: &GroupHandle,
        shape: [usize; N],
        dist: impl Into<[Dist; N]>,
        grid: impl Into<[usize; N]>,
        fill: T,
    ) -> Self {
        let (dist, grid) = (dist.into(), grid.into());
        assert_eq!(
            grid.iter().product::<usize>(),
            group.len(),
            "grid {grid:?} does not match group size {}",
            group.len()
        );
        let maps: [DimMap; N] = std::array::from_fn(|k| DimMap::new(shape[k], grid[k], dist[k]));
        let my_coord = group.vrank_of_phys(cx.phys_rank()).map(|v| unravel(v, grid));
        let mut a = DArray {
            side: Side { group: group.clone(), maps, replicated: false },
            my_coord,
            local: Vec::new(),
            versions: RefCell::new(VersionVec::new(shape.iter().product())),
        };
        a.local = vec![fill; a.local_extents().iter().product()];
        a
    }

    /// Create from globally known row-major contents; each member
    /// extracts its part. No communication.
    pub fn from_global(
        cx: &Cx,
        group: &GroupHandle,
        shape: [usize; N],
        dist: impl Into<[Dist; N]>,
        data: &[T],
    ) -> Self
    where
        T: Default,
    {
        assert_eq!(data.len(), shape.iter().product::<usize>());
        let mut a = Self::new(cx, group, shape, dist, T::default());
        a.each_owned(|g, v| *v = data[ravel(g, shape)]);
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

    /// The array's read/write version vector (replicated metadata; the
    /// dataflow classifier records statement effects through it).
    pub fn versions(&self) -> &RefCell<VersionVec> {
        &self.versions
    }

    /// Collect the whole array (row-major) on every member — a collective
    /// over the array's group. For validation and output stages.
    pub fn to_global(&self, cx: &mut Cx) -> Vec<T>
    where
        T: Default,
    {
        assert_eq!(
            cx.group().gid(),
            self.side.group.gid(),
            "to_global is a collective over the array's group"
        );
        let parts: Vec<Vec<T>> = cx.allgather_vecs(self.local.clone());
        self.assemble(&parts)
    }

    /// The global row-major array whose per-member tiles are `parts`,
    /// indexed by virtual rank.
    pub(crate) fn assemble(&self, parts: &[Vec<T>]) -> Vec<T>
    where
        T: Default,
    {
        let shape = self.shape();
        let mut out = vec![T::default(); shape.iter().product()];
        for (v, part) in parts.iter().enumerate() {
            walk_tile(&self.side.maps, unravel(v, self.grid()), |g, slot| {
                out[ravel(g, shape)] = part[slot];
            });
        }
        out
    }

    pub(crate) fn maps(&self) -> &[DimMap; N] {
        &self.side.maps
    }

    pub(crate) fn side(&self) -> &Side<N> {
        &self.side
    }

    /// The array as a statement operand: its whole flattened footprint.
    pub(crate) fn operand(&self) -> Operand<'_> {
        Operand {
            group: &self.side.group,
            versions: &self.versions,
            footprint: 0..self.shape().iter().product(),
            member: self.is_member(),
        }
    }

    /// Tile extents of the member at grid coordinate `coord`.
    fn tile_extents(&self, coord: [usize; N]) -> [usize; N] {
        std::array::from_fn(|k| self.side.maps[k].local_len(coord[k]))
    }

    /// Tile extents of the member at virtual rank `vrank`.
    fn extents_of(&self, vrank: usize) -> [usize; N] {
        self.tile_extents(unravel(vrank, self.grid()))
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
    fn each_owned(&mut self, mut f: impl FnMut([usize; N], &mut T)) {
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

    /// Local tile dimensions of an arbitrary member, by virtual rank.
    pub fn local_dims_of(&self, vrank: usize) -> (usize, usize) {
        self.extents_of(vrank).into()
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

    /// Local extents of an arbitrary member by virtual rank.
    pub fn local_dims_of(&self, vrank: usize) -> (usize, usize, usize) {
        self.extents_of(vrank).into()
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

    #[test]
    fn default_grids() {
        assert_eq!(default_grid([Dist::Star, Dist::Block], 6), [1, 6]);
        assert_eq!(default_grid([Dist::Block, Dist::Star], 6), [6, 1]);
        assert_eq!(default_grid([Dist::Block, Dist::Block], 12), [3, 4]);
        assert_eq!(default_grid([Dist::Cyclic, Dist::Block], 7), [1, 7]);
        assert_eq!(default_grid([Dist::Star, Dist::Star], 1), [1, 1]);
        assert_eq!(default_grid([Dist::Star, Dist::Cyclic, Dist::Star], 5), [1, 5, 1]);
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
