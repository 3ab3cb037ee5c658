//! Halo (ghost-region) exchange along the block-distributed dimension.
//!
//! Window-sum and stencil kernels (the multibaseline-stereo error images,
//! the Airshed transport step) need a few rows, columns or planes owned
//! by the neighbouring processor. This is the standard nearest-neighbour
//! exchange, scoped — like all communication — to the array's group, and
//! written once over the rank: [`exchange_row_halo`],
//! [`exchange_col_halo`] and [`exchange_plane_halo`] name the axis.


use fx_core::{Cx, Membership};

use crate::array::{DArray, DArray2, DArray3};
use crate::array::Elem;
use crate::dataflow::sync_edge;
use crate::dist::{DimMap, Dist};
use crate::plan::{pack_into, Peer, Seg};

/// Cache key of a halo schedule: the array placement, the axis and the
/// halo width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SlabKey<const N: usize> {
    group: Membership,
    maps: [DimMap; N],
    axis: usize,
    width: usize,
}

/// The per-processor halo schedule: the slabs of my tile to pack for the
/// neighbours that exist. Each is a [`Peer`] (its `peer` the neighbour's
/// *virtual* rank) whose `axis` runs are the first or last `width`
/// indices and whose other dimensions are whole. Built once per
/// (placement, axis, width), then replayed every exchange.
struct SlabPlan<const N: usize> {
    /// The arena both slabs' spans index: every dimension whole, then the
    /// two `axis` runs.
    runs: Vec<Seg>,
    /// For the lower-index neighbour (up/left/before), if any.
    lead: Option<Peer<N>>,
    /// For the higher-index neighbour (down/right/after), if any.
    trail: Option<Peer<N>>,
    /// Row-major strides of my tile.
    strides: [usize; N],
}

/// Exchange `width` ghost indices of dimension `axis` between grid
/// neighbours of an array that is `BLOCK` along `axis` and `*` elsewhere.
/// Returns the slabs received from the lower and the higher neighbour,
/// each in the tile's own row-major order (its `axis` extent `width`),
/// empty at the array's edges.
///
/// Collective over the array's group; the caller's current group must be
/// that group (call it inside the owning `ON SUBGROUP` block). Every
/// member that owns any index of `axis` must own at least `width`.
fn exchange_halo<T: Elem, const N: usize>(
    cx: &mut Cx,
    a: &DArray<T, N>,
    axis: usize,
    width: usize,
) -> (Vec<T>, Vec<T>) {
    assert_eq!(
        cx.group().gid(),
        a.group().gid(),
        "halo exchange is a collective over the array's group"
    );
    let needs: [Dist; N] = std::array::from_fn(|k| if k == axis { Dist::Block } else { Dist::Star });
    assert_eq!(a.dist(), needs, "a halo along dimension {axis} needs BLOCK there and * elsewhere");
    let tag = cx.next_op_tag();
    sync_edge(cx, tag, a.group(), a.group());
    // BLOCK along `axis` and `*` elsewhere puts virtual rank `me` at
    // coordinate `me` of `axis`, so the grid neighbours are `me ± 1`.
    let (me, phys) = (cx.id(), cx.phys_rank());
    let lens = a.local_extents();
    let owned = lens[axis];
    // Members owning nothing (more processors than blocks) sit out; with a
    // BLOCK distribution they are always at the high end, so adjacency
    // below is well-defined without them.
    assert!(
        owned == 0 || owned >= width,
        "processor {me} owns {owned} indices of dimension {axis}, fewer than the halo width {width}"
    );
    if owned == 0 {
        return (Vec::new(), Vec::new());
    }
    let key = SlabKey { group: a.group().membership(), maps: *a.maps(), axis, width };
    let plan = cx.plan_cached(key, || {
        let run = |start, len| Seg { start, len, stride: 0, count: 1 };
        let ends = [run(0, width), run(owned - width, width)];
        // The slab whose `axis` run is `ends[end]`.
        let slab = |peer: usize, end: usize| Peer {
            peer,
            total: lens.iter().product::<usize>() / owned * width,
            spans: std::array::from_fn(|k| if k == axis { N + end..N + end + 1 } else { k..k + 1 }),
        };
        let map = a.maps()[axis];
        SlabPlan {
            runs: lens.iter().map(|&len| run(0, len)).chain(ends).collect(),
            lead: (map.global_of(me, 0) > 0).then(|| slab(me - 1, 0)),
            trail: (map.global_of(me, owned - 1) + 1 < map.n).then(|| slab(me + 1, 1)),
            strides: a.side().strides(phys),
        }
    });

    // Deposit sends first (non-blocking), then receive. Ghost slabs ride
    // the pooled chunk fast path; the halo API still hands out Vecs.
    cx.exchange_begins();
    for slab in plan.lead.iter().chain(&plan.trail) {
        let mut chunk = cx.chunk_for::<T>(slab.total);
        pack_into(a.local(), &plan.strides, slab.dims(&plan.runs), &mut chunk);
        cx.packed();
        cx.send_chunk_v(slab.peer, tag, chunk);
    }
    let recv = |cx: &mut Cx, slab: &Option<Peer<N>>| {
        let Some(slab) = slab else { return Vec::new() };
        let chunk = cx.recv_chunk_v(slab.peer, tag);
        let v = chunk.to_vec::<T>();
        cx.packed();
        cx.release_chunk(chunk);
        v
    };
    (recv(cx, &plan.lead), recv(cx, &plan.trail))
}

/// Ghost rows received from the neighbours above and below this
/// processor's block of rows. Row-major, `width x local_cols` each; empty
/// at the matrix edges.
#[derive(Debug, Clone)]
pub struct RowHalo<T> {
    /// Ghost rows from the neighbour above (empty at the top edge).
    pub top: Vec<T>,
    /// Ghost rows from the neighbour below (empty at the bottom edge).
    pub bottom: Vec<T>,
}

/// Exchange `width` ghost rows between vertical neighbours of a
/// `(BLOCK, *)`-distributed matrix.
///
/// Collective over the array's group; the caller's current group must be
/// that group (call it inside the owning `ON SUBGROUP` block). Every
/// member must own at least `width` rows.
pub fn exchange_row_halo<T: Elem>(cx: &mut Cx, a: &DArray2<T>, width: usize) -> RowHalo<T> {
    let (top, bottom) = cx.scoped("row_halo", |cx| exchange_halo(cx, a, 0, width));
    RowHalo { top, bottom }
}

/// Ghost columns received from the left/right neighbours of a
/// `(*, BLOCK)`-distributed matrix. Row-major `local_rows x width` each;
/// empty at the matrix edges.
#[derive(Debug, Clone)]
pub struct ColHalo<T> {
    /// Ghost columns from the left neighbour (empty at the left edge).
    pub left: Vec<T>,
    /// Ghost columns from the right neighbour (empty at the right edge).
    pub right: Vec<T>,
}

/// Exchange `width` ghost columns between horizontal neighbours of a
/// `(*, BLOCK)`-distributed matrix — the transposed twin of
/// [`exchange_row_halo`].
pub fn exchange_col_halo<T: Elem>(cx: &mut Cx, a: &DArray2<T>, width: usize) -> ColHalo<T> {
    let (left, right) = cx.scoped("col_halo", |cx| exchange_halo(cx, a, 1, width));
    ColHalo { left, right }
}

/// Ghost planes along dimension 1 (the distributed dimension of a
/// `(*, BLOCK, *)` array): `before`/`after` each hold `width` planes of
/// `l0 x l2` values, row-major `l0 x width x l2`; empty at the edges.
#[derive(Debug, Clone)]
pub struct PlaneHalo<T> {
    /// Ghost planes from the lower-index neighbour (empty at the edge).
    pub before: Vec<T>,
    /// Ghost planes from the higher-index neighbour (empty at the edge).
    pub after: Vec<T>,
}

/// Exchange `width` ghost planes between neighbours along dimension 1 of
/// a `(*, BLOCK, *)`-distributed array. Collective over the array's
/// group.
pub fn exchange_plane_halo<T: Elem>(cx: &mut Cx, a: &DArray3<T>, width: usize) -> PlaneHalo<T> {
    let (before, after) = cx.scoped("plane_halo", |cx| exchange_halo(cx, a, 1, width));
    PlaneHalo { before, after }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{for_each_index, ravel};
    use fx_core::{spmd, Global, Machine, MachineModel};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// What one member sees of an exchange: `(lower slab, higher slab,
    /// the whole array)`.
    type Seen = (Vec<u32>, Vec<u32>, Global<u32>);

    /// One public exchange on an array whose halo axis has extent `n`
    /// (elements numbered row-major): `(name, exchange(cx, n, width),
    /// halo axis, shape(n) padded to rank 3)`.
    type Case = (&'static str, fn(&mut Cx, usize, usize) -> Seen, usize, fn(usize) -> [usize; 3]);

    fn rows(cx: &mut Cx, n: usize, width: usize) -> Seen {
        let data: Vec<u32> = (0..(n * 4) as u32).collect();
        let a = DArray2::from_global(cx, &cx.group(), [n, 4], (Dist::Block, Dist::Star), &data);
        let h = exchange_row_halo(cx, &a, width);
        (h.top, h.bottom, a.to_global(cx))
    }

    fn cols(cx: &mut Cx, n: usize, width: usize) -> Seen {
        let data: Vec<u32> = (0..(3 * n) as u32).collect();
        let a = DArray2::from_global(cx, &cx.group(), [3, n], (Dist::Star, Dist::Block), &data);
        let h = exchange_col_halo(cx, &a, width);
        (h.left, h.right, a.to_global(cx))
    }

    fn planes(cx: &mut Cx, n: usize, width: usize) -> Seen {
        let data: Vec<u32> = (0..(2 * n * 3) as u32).collect();
        let dist = (Dist::Star, Dist::Block, Dist::Star);
        let a = DArray3::from_global(cx, &cx.group(), [2, n, 3], dist, &data);
        let h = exchange_plane_halo(cx, &a, width);
        (h.before, h.after, a.to_global(cx))
    }

    const CASES: [Case; 3] = [
        ("rows", rows, 0, |n| [n, 4, 1]),
        ("cols", cols, 1, |n| [3, n, 1]),
        ("planes", planes, 1, |n| [2, n, 3]),
    ];

    /// Indices `lo..hi` of `axis`, whole in every other dimension, out of
    /// the row-major `global` array — in row-major order.
    fn slab(global: &[u32], shape: [usize; 3], axis: usize, lo: usize, hi: usize) -> Vec<u32> {
        let mut lens = shape;
        lens[axis] = hi - lo;
        let mut out = Vec::new();
        for_each_index(lens, |mut i| {
            i[axis] += lo;
            out.push(global[ravel(i, shape)]);
        });
        out
    }

    #[test]
    fn every_axis_matches_its_neighbours_slabs() {
        const P: usize = 3;
        // BLOCK of 8 over 3 members: blocks of 3, 3 and 2.
        let n = 8;
        for (name, exchange, axis, shape) in CASES {
            for width in [1, 2] {
                let rep = spmd(&Machine::simulated(P, MachineModel::paragon()), move |cx| exchange(cx, n, width));
                for (v, (lead, trail, global)) in rep.results.iter().enumerate() {
                    let (lo, hi) = (3 * v, (3 * v + 3).min(n));
                    let slab = |lo, hi| slab(global, shape(n), axis, lo, hi);
                    let want_lead = if v == 0 { Vec::new() } else { slab(lo - width, lo) };
                    let want_trail = if v == P - 1 { Vec::new() } else { slab(hi, hi + width) };
                    assert_eq!(*lead, want_lead, "{name} width {width} proc {v}: lower slab");
                    assert_eq!(*trail, want_trail, "{name} width {width} proc {v}: higher slab");
                }
            }
        }
    }

    #[test]
    fn more_processors_than_blocks_sit_out() {
        // Two indices over four members: blocks of one on members 0 and 1,
        // nothing on 2 and 3, which neither send nor receive.
        for (name, exchange, axis, shape) in CASES {
            let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| exchange(cx, 2, 1));
            let global = &rep.results[0].2;
            assert_eq!(rep.results[0].0, Vec::<u32>::new(), "{name}");
            assert_eq!(rep.results[0].1, slab(global, shape(2), axis, 1, 2), "{name}");
            assert_eq!(rep.results[1].0, slab(global, shape(2), axis, 0, 1), "{name}");
            assert_eq!(rep.results[1].1, Vec::<u32>::new(), "{name}: member 2 owns nothing");
            for v in [2, 3] {
                assert!(rep.results[v].0.is_empty() && rep.results[v].1.is_empty(), "{name} proc {v}");
            }
        }
    }

    #[test]
    fn single_proc_halo_is_empty() {
        for (name, exchange, ..) in CASES {
            let rep = spmd(&Machine::simulated(1, MachineModel::paragon()), move |cx| exchange(cx, 4, 1));
            assert!(rep.results[0].0.is_empty() && rep.results[0].1.is_empty(), "{name}");
        }
    }

    #[test]
    fn owning_fewer_than_the_width_panics_on_every_axis() {
        for (name, exchange, ..) in CASES {
            let machine = Machine::simulated(4, MachineModel::paragon()).with_timeout(std::time::Duration::from_secs(10));
            let err = catch_unwind(AssertUnwindSafe(|| spmd(&machine, move |cx| exchange(cx, 4, 2))))
                .expect_err("one index each is thinner than a halo of two");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("fewer than the halo width 2") || msg.contains("another processor panicked"),
                "{name}: {msg}"
            );
        }
    }
}
