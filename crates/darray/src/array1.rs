//! One-dimensional distributed arrays.

use std::cell::RefCell;
use std::ops::Range;

use fx_core::{Cx, GroupHandle};

use crate::assign::Operand;
use crate::dist::{DimMap, Dist};
use crate::plan::{Side, VersionVec};

/// Element types storable in distributed arrays. `Sync` lets collectives
/// share one broadcast payload across processor threads.
pub trait Elem: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Elem for T {}

/// Distribution of a 1-D array over its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist1 {
    /// Contiguous blocks (HPF `BLOCK`).
    Block,
    /// Round-robin elements (HPF `CYCLIC`).
    Cyclic,
    /// Round-robin blocks (HPF `CYCLIC(b)`).
    BlockCyclic(usize),
    /// Every group member holds the whole array.
    Replicated,
}

impl Dist1 {
    fn to_dim(self, n: usize, q: usize) -> DimMap {
        match self {
            Dist1::Block => DimMap::new(n, q, Dist::Block),
            Dist1::Cyclic => DimMap::new(n, q, Dist::Cyclic),
            Dist1::BlockCyclic(b) => DimMap::new(n, q, Dist::BlockCyclic(b)),
            // Replicated arrays use a Star map; ownership is special-cased.
            Dist1::Replicated => DimMap::new(n, 1, Dist::Star),
        }
    }
}

/// A 1-D array of extent `n` mapped onto a processor group
/// (`SUBGROUP(g) :: a` + `DISTRIBUTE a(BLOCK)` in the paper's notation).
///
/// Every processor in the *enclosing scope* may hold the descriptor — the
/// metadata is replicated, which is what lets parent-scope statements
/// compute communication sets — but only group members store elements.
#[derive(Debug, Clone)]
pub struct DArray1<T> {
    group: GroupHandle,
    dist: Dist1,
    map: DimMap,
    n: usize,
    /// This processor's virtual rank in `group`, if it is a member.
    my_vrank: Option<usize>,
    local: Vec<T>,
    /// Replicated read/write version vector (dataflow classification).
    versions: RefCell<VersionVec>,
}

impl<T: Elem> DArray1<T> {
    /// Create an array of extent `n` filled with `fill`, distributed as
    /// `dist` over `group`. No communication; every caller builds its view.
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
    pub fn new(cx: &Cx, group: &GroupHandle, n: usize, dist: Dist1, fill: T) -> Self {
        let map = dist.to_dim(n, group.len());
        let my_vrank = group.vrank_of_phys(cx.phys_rank());
        let local = match (my_vrank, dist) {
            (None, _) => Vec::new(),
            (Some(_), Dist1::Replicated) => vec![fill; n],
            (Some(v), _) => vec![fill; map.local_len(v)],
        };
        let versions = RefCell::new(VersionVec::new(n));
        DArray1 { group: group.clone(), dist, map, n, my_vrank, local, versions }
    }

    /// Create from globally known contents: each member extracts its part.
    /// No communication — use this when every member can generate or
    /// already knows the data (workload setup, replicated inputs).
    pub fn from_global(cx: &Cx, group: &GroupHandle, dist: Dist1, data: &[T]) -> Self {
        let n = data.len();
        let map = dist.to_dim(n, group.len());
        let my_vrank = group.vrank_of_phys(cx.phys_rank());
        let local = match (my_vrank, dist) {
            (None, _) => Vec::new(),
            (Some(_), Dist1::Replicated) => data.to_vec(),
            (Some(v), _) => map.owned_globals(v).map(|g| data[g]).collect(),
        };
        let versions = RefCell::new(VersionVec::new(n));
        DArray1 { group: group.clone(), dist, map, n, my_vrank, local, versions }
    }

    /// Create an array aligned with `other` — the same group, extent and
    /// distribution, so corresponding elements share owners and
    /// element-wise operations between the two are fully local (the
    /// paper's `ALIGN` directive among variables of one subgroup).
    pub fn aligned_with<U: Elem>(cx: &Cx, other: &DArray1<U>, fill: T) -> Self {
        Self::new(cx, &other.group, other.n, other.dist, fill)
    }

    /// Global extent.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distribution descriptor.
    pub fn dist(&self) -> Dist1 {
        self.dist
    }

    /// The group the array is mapped onto.
    pub fn group(&self) -> &GroupHandle {
        &self.group
    }

    pub(crate) fn map(&self) -> &DimMap {
        &self.map
    }

    /// The placement descriptor communication plans are built from.
    pub(crate) fn side(&self) -> Side<1> {
        Side {
            group: self.group.clone(),
            maps: [self.map],
            replicated: matches!(self.dist, Dist1::Replicated),
        }
    }

    /// The array as a statement operand touching `footprint`.
    pub(crate) fn operand(&self, footprint: Range<usize>) -> Operand<'_> {
        Operand {
            group: &self.group,
            versions: &self.versions,
            footprint,
            member: self.is_member(),
        }
    }

    /// The array's read/write version vector (replicated metadata; the
    /// dataflow classifier records statement effects through it).
    pub fn versions(&self) -> &RefCell<VersionVec> {
        &self.versions
    }

    /// Is the calling processor a member of the array's group?
    pub fn is_member(&self) -> bool {
        self.my_vrank.is_some()
    }

    /// This processor's virtual rank in the array's group, if a member.
    pub fn my_vrank(&self) -> Option<usize> {
        self.my_vrank
    }

    /// Locally stored elements (empty on non-members).
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable view of locally stored elements.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// Global index of local element `li` on virtual rank `vr` (any
    /// member, not just the caller).
    pub fn map_global(&self, vr: usize, li: usize) -> usize {
        match self.dist {
            Dist1::Replicated => li,
            _ => self.map.global_of(vr, li),
        }
    }

    /// Local element count of virtual rank `vr`.
    pub fn local_len_of(&self, vr: usize) -> usize {
        match self.dist {
            Dist1::Replicated => self.n,
            _ => self.map.local_len(vr),
        }
    }

    /// Global index of local element `li` on this processor.
    pub fn global_of_local(&self, li: usize) -> usize {
        match self.dist {
            Dist1::Replicated => li,
            _ => {
                let v = self.my_vrank.expect("non-member has no local elements");
                self.map.global_of(v, li)
            }
        }
    }

    /// Physical owner(s) of global index `gi`.
    pub fn owners_phys(&self, gi: usize) -> OwnerSet<'_> {
        match self.dist {
            Dist1::Replicated => OwnerSet::All(self.group.members()),
            _ => OwnerSet::One(self.group.phys(self.map.owner(gi))),
        }
    }

    /// Apply `f(global_index, &mut element)` to every owned element, in
    /// ascending global order (the "owner computes" loop). Non-members do
    /// nothing.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, &mut T)) {
        match (self.my_vrank, self.dist) {
            (None, _) => {}
            (Some(_), Dist1::Replicated) => {
                for (g, v) in self.local.iter_mut().enumerate() {
                    f(g, v);
                }
            }
            (Some(vr), _) => {
                for li in 0..self.local.len() {
                    let g = self.map.global_of(vr, li);
                    f(g, &mut self.local[li]);
                }
            }
        }
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
        assert_eq!(
            cx.group().gid(),
            self.group.gid(),
            "promote_map is a collective over the array's group"
        );
        assert_eq!(self.dist, Dist1::Block, "promote_map requires a Block source");
        assert_eq!(dst.dist, Dist1::Block, "promote_map requires a Block destination");
        assert_eq!(dst.n, self.n, "promote_map arrays must share their extent");
        assert_eq!(dst.group.gid(), self.group.gid(), "promote_map arrays must share a group");
        let me = cx.id();
        // The promotable loop's block split is exactly the HPF Block
        // ownership map, so iteration `i` lands on `i`'s owner and local
        // indices are `i - base`.
        let my_block = fx_core::block_range(0..self.n, cx.nprocs(), me);
        debug_assert_eq!(my_block.len(), self.local.len());
        let base = my_block.start;
        let src_local = &self.local;
        let dst_local = dst.local.as_mut_slice();
        cx.pdo_promote(
            label,
            0..self.n,
            |_cx, i| vec![src_local[i - base]],
            |cx, i, ins| vec![f(cx, i, ins[0])],
            |_cx, i, outs: Vec<U>| dst_local[i - base] = outs[0],
        );
    }

    /// Fold over owned elements as `(global_index, element)` pairs.
    pub fn fold_owned<A>(&self, init: A, mut f: impl FnMut(A, usize, T) -> A) -> A {
        let mut acc = init;
        match (self.my_vrank, self.dist) {
            (None, _) => {}
            (Some(_), Dist1::Replicated) => {
                for (g, v) in self.local.iter().enumerate() {
                    acc = f(acc, g, *v);
                }
            }
            (Some(vr), _) => {
                for (li, v) in self.local.iter().enumerate() {
                    acc = f(acc, self.map.global_of(vr, li), *v);
                }
            }
        }
        acc
    }

    /// Collect the whole array on every member (collective over the
    /// array's group; the current group must be the array's group).
    /// Intended for validation and output stages, not inner loops.
    pub fn to_global(&self, cx: &mut Cx) -> Vec<T>
    where
        T: Default,
    {
        assert_eq!(
            cx.group().gid(),
            self.group.gid(),
            "to_global is a collective over the array's group"
        );
        if matches!(self.dist, Dist1::Replicated) {
            // Everyone already holds the data, but keep collective symmetry
            // (no communication needed).
            return self.local.clone();
        }
        let parts: Vec<Vec<T>> = cx.allgather_vecs(self.local.clone());
        let mut out = vec![T::default(); self.n];
        for (vr, part) in parts.iter().enumerate() {
            for (li, v) in part.iter().enumerate() {
                out[self.map.global_of(vr, li)] = *v;
            }
        }
        out
    }
}

/// The owners of one global index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerSet<'a> {
    /// A single physical owner.
    One(usize),
    /// Replicated: every listed physical processor holds the element.
    All(&'a [usize]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine};

    #[test]
    fn from_global_slices_block_parts() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..10).collect();
            let a = DArray1::from_global(cx, &g, Dist1::Block, &data);
            (a.local().to_vec(), a.global_of_local(0))
        });
        // block = ceil(10/3) = 4 → [0..4), [4..8), [8..10)
        assert_eq!(rep.results[0].0, vec![0, 1, 2, 3]);
        assert_eq!(rep.results[1].0, vec![4, 5, 6, 7]);
        assert_eq!(rep.results[2].0, vec![8, 9]);
        assert_eq!(rep.results[1].1, 4);
    }

    #[test]
    fn cyclic_for_each_owned_sees_right_globals() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 7, Dist1::Cyclic, 0u32);
            a.for_each_owned(|gi, v| *v = gi as u32 * 10);
            a.local().to_vec()
        });
        assert_eq!(rep.results[0], vec![0, 20, 40, 60]);
        assert_eq!(rep.results[1], vec![10, 30, 50]);
    }

    #[test]
    fn replicated_everyone_holds_all() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data = vec![5u8, 6, 7];
            let a = DArray1::from_global(cx, &g, Dist1::Replicated, &data);
            a.local().to_vec()
        });
        for r in rep.results {
            assert_eq!(r, vec![5, 6, 7]);
        }
    }

    #[test]
    fn non_members_hold_metadata_only() {
        let rep = spmd(&Machine::real(4), |cx| {
            let part =
                cx.task_partition(&[("a", fx_core::Size::Procs(2)), ("b", fx_core::Size::Rest)]);
            let ga = part.group("a");
            let arr = DArray1::new(cx, &ga, 8, Dist1::Block, 0i64);
            (arr.is_member(), arr.local().len(), arr.n())
        });
        assert_eq!(rep.results[0], (true, 4, 8));
        assert_eq!(rep.results[3], (false, 0, 8));
    }

    #[test]
    fn to_global_reassembles() {
        for dist in [Dist1::Block, Dist1::Cyclic, Dist1::BlockCyclic(3)] {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (100..130).collect();
                let a = DArray1::from_global(cx, &g, dist, &data);
                a.to_global(cx)
            });
            for r in rep.results {
                assert_eq!(r, (100..130).collect::<Vec<u64>>(), "dist = {dist:?}");
            }
        }
    }

    #[test]
    fn fold_owned_sums_partition() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u64> = (0..50).collect();
            let a = DArray1::from_global(cx, &g, Dist1::Block, &data);
            a.fold_owned(0u64, |acc, _gi, v| acc + v)
        });
        assert_eq!(rep.results.iter().sum::<u64>(), (0..50).sum::<u64>());
    }

    #[test]
    fn owners_phys_replicated_vs_block() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let a = DArray1::new(cx, &g, 4, Dist1::Block, 0u8);
            let r = DArray1::new(cx, &g, 4, Dist1::Replicated, 0u8);
            let one = matches!(a.owners_phys(3), OwnerSet::One(1));
            let all = matches!(r.owners_phys(3), OwnerSet::All(m) if m == [0, 1]);
            one && all
        });
        assert!(rep.results.iter().all(|&b| b));
    }

    #[test]
    fn promote_map_matches_sequential_and_donates_on_skew() {
        use fx_core::{MachineModel, PromoteStats};
        let n = 512usize;
        let run = |hb: bool| {
            let m = Machine::simulated(6, MachineModel::paragon()).with_heartbeat(hb);
            spmd(&m, move |cx| {
                let g = cx.group();
                let src = DArray1::from_global(
                    cx,
                    &g,
                    Dist1::Block,
                    &(0..n as u64).collect::<Vec<_>>(),
                );
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
            let mut a = DArray1::new(cx, &g, 0, Dist1::Block, 0u8);
            let mut hits = 0;
            a.for_each_owned(|_, _| hits += 1);
            (a.local().len(), hits, a.to_global(cx).len())
        });
        assert_eq!(rep.results[0], (0, 0, 0));
    }
}
