//! Root-centric gather/scatter — the I/O-stage pattern.
//!
//! The paper's applications read inputs and write outputs through a
//! single processor ("one simple solution is to have a single designated
//! I/O processor", §4 *Implication for I/O*). These collectives move a
//! whole distributed array to or from one member's memory, in global
//! order, for exactly that pattern: the Airshed hourly phases, result
//! output in the sensor programs, checkpointing.

use fx_core::Cx;

use crate::array1::{DArray1, Dist1, Elem};
use crate::array::DArray2;
use crate::plan::WriteKind;

/// Gather a distributed 1-D array into a global vector on virtual rank
/// `root` of the array's group. Collective over the array's group;
/// returns `Some(data)` on the root, `None` elsewhere.
pub fn gather_to_root1<T: Elem + Default>(
    cx: &mut Cx,
    a: &DArray1<T>,
    root: usize,
) -> Option<Vec<T>> {
    assert_eq!(
        cx.group().gid(),
        a.group().gid(),
        "gather_to_root1 is a collective over the array's group"
    );
    assert!(
        !matches!(a.dist(), Dist1::Replicated),
        "a replicated array is already global everywhere"
    );
    a.versions().borrow_mut().record_read(0..a.n());
    let mine = a.local().to_vec();
    let parts = cx.gather(root, mine)?;
    let mut out = vec![T::default(); a.n()];
    for (vr, part) in parts.iter().enumerate() {
        for (li, v) in part.iter().enumerate() {
            out[global_of(a, vr, li)] = *v;
        }
    }
    Some(out)
}

fn global_of<T: Elem>(a: &DArray1<T>, vr: usize, li: usize) -> usize {
    // Recompute through the public map: owners enumerate their globals in
    // local order, which matches the packed order of `local()`.
    a.map_global(vr, li)
}

/// Scatter a global vector from virtual rank `root` onto a distributed
/// 1-D array. Collective over the array's group; only the root's `data`
/// is read (`None` elsewhere is fine).
pub fn scatter_from_root1<T: Elem>(
    cx: &mut Cx,
    a: &mut DArray1<T>,
    root: usize,
    data: Option<&[T]>,
) {
    assert_eq!(
        cx.group().gid(),
        a.group().gid(),
        "scatter_from_root1 is a collective over the array's group"
    );
    assert!(
        !matches!(a.dist(), Dist1::Replicated),
        "scatter onto a replicated array is a broadcast; use bcast"
    );
    let tag = cx.next_op_tag();
    // Root I/O writes through point-to-point sends no later statement can
    // piggyback on: taint the whole array (an opaque write).
    a.versions().borrow_mut().record_write(0..a.n(), WriteKind::Opaque);
    let p = cx.nprocs();
    let me = cx.id();
    if me == root {
        let data = data.expect("the root must supply the data");
        assert_eq!(data.len(), a.n(), "scatter length mismatch");
        for v in 0..p {
            let count = a.local_len_of(v);
            if v == me {
                continue;
            }
            if count == 0 {
                continue;
            }
            let buf: Vec<T> = (0..count).map(|li| data[a.map_global(v, li)]).collect();
            cx.send_v(v, tag, buf);
        }
        let my_count = a.local_len_of(me);
        let mine: Vec<T> = (0..my_count).map(|li| data[a.map_global(me, li)]).collect();
        a.local_mut().copy_from_slice(&mine);
    } else if !a.local().is_empty() {
        let buf: Vec<T> = cx.recv_v(root, tag);
        a.local_mut().copy_from_slice(&buf);
    }
}

/// Gather a distributed matrix into a row-major global vector on virtual
/// rank `root`. Collective over the array's group.
pub fn gather_to_root2<T: Elem + Default>(
    cx: &mut Cx,
    a: &DArray2<T>,
    root: usize,
) -> Option<Vec<T>> {
    assert_eq!(
        cx.group().gid(),
        a.group().gid(),
        "gather_to_root2 is a collective over the array's group"
    );
    a.versions().borrow_mut().record_read(0..a.rows() * a.cols());
    let parts = cx.gather(root, a.local().to_vec())?;
    Some(a.assemble(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use fx_core::{spmd, Machine};

    #[test]
    fn gather1_reassembles_on_the_root_only() {
        for dist in [Dist1::Block, Dist1::Cyclic, Dist1::BlockCyclic(3)] {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u32> = (0..17).map(|i| i * 3).collect();
                let a = DArray1::from_global(cx, &g, dist, &data);
                gather_to_root1(cx, &a, 2)
            });
            for (i, r) in rep.results.iter().enumerate() {
                if i == 2 {
                    assert_eq!(r.as_ref().unwrap(), &(0..17).map(|i| i * 3).collect::<Vec<u32>>());
                } else {
                    assert!(r.is_none());
                }
            }
        }
    }

    #[test]
    fn scatter1_roundtrips_with_gather() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 11, Dist1::Cyclic, 0i64);
            let data: Vec<i64> = (0..11).map(|i| 100 - i).collect();
            let payload = (cx.id() == 1).then_some(data);
            scatter_from_root1(cx, &mut a, 1, payload.as_deref());
            gather_to_root1(cx, &a, 0)
        });
        assert_eq!(
            rep.results[0].as_ref().unwrap(),
            &(0..11).map(|i| 100 - i).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn gather2_reassembles_matrices() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u64> = (0..24).collect(); // 6x4
            let a = DArray2::from_global(cx, &g, [6, 4], (Dist::Block, Dist::Star), &data);
            gather_to_root2(cx, &a, 0)
        });
        assert_eq!(rep.results[0].as_ref().unwrap(), &(0..24).collect::<Vec<u64>>());
        assert!(rep.results[1].is_none());
    }

    #[test]
    fn scatter_with_empty_members_is_fine() {
        // 3 elements over 5 procs: two members own nothing.
        let rep = spmd(&Machine::real(5), |cx| {
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 3, Dist1::Block, 0u8);
            let payload = (cx.id() == 0).then(|| vec![7u8, 8, 9]);
            scatter_from_root1(cx, &mut a, 0, payload.as_deref());
            a.local().to_vec()
        });
        let all: Vec<u8> = rep.results.into_iter().flatten().collect();
        assert_eq!(all, vec![7, 8, 9]);
    }
}
