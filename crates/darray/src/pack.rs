//! Predicate-driven repartitioning: the `pick_less_than_pivot` /
//! `pick_greater_equal_to_pivot` operations of the paper's quicksort
//! (Figure 4).
//!
//! Elements of a distributed source array are split by a predicate into
//! two destination arrays — typically mapped onto the two subgroups of a
//! task partition — preserving the (owner-rank, local-index) order of the
//! source. Both sides of every transfer compute the communication sets
//! from the globally exchanged per-processor match counts, so only
//! processors that actually exchange elements communicate.

use fx_core::Cx;

use crate::array::{DArray1, Elem};
use crate::plan::{owned_runs, owned_segments, unpack_chunk};

/// Split `src` into `dst_true` (elements satisfying `pred`) and
/// `dst_false` (the rest). The destination extents must equal the global
/// match counts — compute them first with [`count_matching`].
///
/// Collective over the current group, which must contain all owners of
/// `src`, `dst_true` and `dst_false` (the parent scope of the task
/// region, in the paper's structure). Replicated arrays are not
/// supported here.
pub fn repartition_by<T: Elem>(
    cx: &mut Cx,
    src: &DArray1<T>,
    pred: impl Fn(&T) -> bool,
    dst_true: &mut DArray1<T>,
    dst_false: &mut DArray1<T>,
) {
    assert!(
        !(src.side().replicated || dst_true.side().replicated || dst_false.side().replicated),
        "repartition_by does not support replicated arrays"
    );
    cx.scoped("repartition", |cx| repartition_by_inner(cx, src, pred, dst_true, dst_false));
}

fn repartition_by_inner<T: Elem>(
    cx: &mut Cx,
    src: &DArray1<T>,
    pred: impl Fn(&T) -> bool,
    dst_true: &mut DArray1<T>,
    dst_false: &mut DArray1<T>,
) {
    // Local split, preserving local order.
    let (tvals, fvals): (Vec<T>, Vec<T>) = src.local().iter().copied().partition(|v| pred(v));

    // Everyone learns everyone's counts (parent-scope collective).
    let counts: Vec<(u64, u64)> = cx.allgather((tvals.len() as u64, fvals.len() as u64));
    let t_total: u64 = counts.iter().map(|c| c.0).sum();
    let f_total: u64 = counts.iter().map(|c| c.1).sum();
    assert_eq!(t_total as usize, dst_true.n(), "dst_true extent != match count");
    assert_eq!(f_total as usize, dst_false.n(), "dst_false extent != match count");

    let me_v = cx.group().vrank_of_phys(cx.phys_rank());
    let my_t_off: u64 = me_v.map_or(0, |v| counts[..v].iter().map(|c| c.0).sum());
    let my_f_off: u64 = me_v.map_or(0, |v| counts[..v].iter().map(|c| c.1).sum());

    let t_counts: Vec<u64> = counts.iter().map(|c| c.0).collect();
    let f_counts: Vec<u64> = counts.iter().map(|c| c.1).collect();
    scatter_side(cx, &tvals, my_t_off, &t_counts, dst_true);
    scatter_side(cx, &fvals, my_f_off, &f_counts, dst_false);
}

/// Count elements of `src` matching `pred`, globally (collective over the
/// current group; non-owners contribute zero).
pub fn count_matching<T: Elem>(cx: &mut Cx, src: &DArray1<T>, pred: impl Fn(&T) -> bool) -> usize {
    let local = src.local().iter().filter(|v| pred(v)).count() as u64;
    cx.allreduce(local, |a, b| a + b) as usize
}

/// Move this processor's matched values, which occupy global positions
/// `[off, off + vals.len())` of `dst`, to their owners; receive the values
/// destined for this processor from every contributing sender.
fn scatter_side<T: Elem>(
    cx: &mut Cx,
    vals: &[T],
    off: u64,
    counts: &[u64],
    dst: &mut DArray1<T>,
) {
    let tag = cx.next_op_tag();
    let me = cx.phys_rank();
    let d_group = dst.group().clone();
    let d_map = dst.maps()[0];

    // Send: my window [off, off+len) of the destination index space,
    // intersected with each owner's index set — contiguous slices of
    // `vals`, not per-element buckets. The window is data-dependent
    // (allgathered counts), so this schedule is computed fresh each call.
    let (lo, hi) = (off as usize, off as usize + vals.len());
    let mut segs: Vec<(usize, usize)> = Vec::new();
    let mut sends: Vec<(usize, fx_runtime::Chunk)> = Vec::new();
    for c in 0..d_map.q {
        segs.clear();
        owned_segments(&d_map, c, 0, lo, hi, &mut |g| segs.extend(g.runs()));
        if segs.is_empty() {
            continue;
        }
        let total: usize = segs.iter().map(|&(_, l)| l).sum();
        let dp = d_group.phys(c);
        if dp == me {
            // Each segment lies within one ownership block, so its local
            // image is contiguous.
            for &(s, l) in &segs {
                let at = d_map.local_of(s);
                dst.local_mut()[at..at + l].copy_from_slice(&vals[s - lo..s - lo + l]);
            }
        } else {
            // Remote legs ride pooled chunks; packing straight into the
            // message buffer keeps the single-copy discipline.
            let mut chunk = cx.chunk_for::<T>(total);
            for &(s, l) in &segs {
                chunk.push_slice(&vals[s - lo..s - lo + l]);
            }
            sends.push((dp, chunk));
        }
    }
    sends.sort_by_key(|s| s.0);
    for (dp, chunk) in sends {
        cx.send_chunk_phys(dp, tag, chunk);
    }

    // Receive: walk every sender's range in virtual-rank order, keeping
    // only the slots I own — as local runs rather than slot lists, every
    // sender's in the one `runs`.
    if dst.is_member() {
        let mut runs = Vec::new();
        let my_c = d_group.vrank_of_phys(me).expect("member has a coordinate");
        let cur_group = cx.group();
        let mut start = 0usize;
        for (v, &cnt) in counts.iter().enumerate() {
            let sp = cur_group.phys(v);
            let range = (start, start + cnt as usize);
            start += cnt as usize;
            if sp == me || cnt == 0 {
                continue;
            }
            let total = owned_runs(&d_map, my_c, range.0, range.1, &mut runs);
            if total == 0 {
                continue; // no empty messages — both sides know this
            }
            let chunk = cx.recv_chunk_phys(sp, tag);
            assert_eq!(chunk.elems(), total, "repartition set mismatch from {sp}");
            unpack_chunk(dst.local_mut(), &[1], [&runs], &chunk);
            cx.release_chunk(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dist1;
    use fx_core::{spmd, Machine, MachineModel, Size};

    #[test]
    fn split_within_one_group() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<i64> = vec![5, 1, 9, 3, 7, 2, 8, 4, 6, 0];
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let n_small = count_matching(cx, &src, |&v| v < 5);
            assert_eq!(n_small, 5);
            let mut small = DArray1::new(cx, &g, n_small, Dist1::Block, 0i64);
            let mut large = DArray1::new(cx, &g, data.len() - n_small, Dist1::Block, 0i64);
            repartition_by(cx, &src, |&v| v < 5, &mut small, &mut large);
            let s = small.to_global(cx);
            let l = large.to_global(cx);
            (s, l)
        });
        let (s, l) = &rep.results[0];
        let mut s_sorted = s.to_vec();
        s_sorted.sort_unstable();
        assert_eq!(s_sorted, vec![0, 1, 2, 3, 4]);
        let mut l_sorted = l.to_vec();
        l_sorted.sort_unstable();
        assert_eq!(l_sorted, vec![5, 6, 7, 8, 9]);
        // Order preservation: source local order on block boundaries.
        // blocks: [5,1,9] [3,7,2] [8,4] [6,0]
        assert_eq!(*s, vec![1, 3, 2, 4, 0]);
        assert_eq!(*l, vec![5, 9, 7, 8, 6]);
    }

    #[test]
    fn split_onto_disjoint_subgroups() {
        // The actual quicksort shape: src on the parent, destinations on
        // the two subgroups.
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            let data: Vec<i64> = (0..30).rev().collect();
            let g = cx.group();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let n_small = count_matching(cx, &src, |&v| v < 10);
            let part = cx.task_partition(&[("lo", Size::Procs(2)), ("hi", Size::Rest)]);
            let glo = part.group("lo");
            let ghi = part.group("hi");
            let mut small = DArray1::new(cx, &glo, n_small, Dist1::Block, 0i64);
            let mut large = DArray1::new(cx, &ghi, 30 - n_small, Dist1::Block, 0i64);
            repartition_by(cx, &src, |&v| v < 10, &mut small, &mut large);
            let mut mine: Vec<i64> = small.local().to_vec();
            mine.extend_from_slice(large.local());
            mine
        });
        // Subgroup "lo" (procs 0,1) collectively holds 0..10, "hi" 10..30.
        let mut lo: Vec<i64> = rep.results[..2].concat();
        lo.sort_unstable();
        assert_eq!(lo, (0..10).collect::<Vec<i64>>());
        let mut hi: Vec<i64> = rep.results[2..].concat();
        hi.sort_unstable();
        assert_eq!(hi, (10..30).collect::<Vec<i64>>());
    }

    #[test]
    fn all_elements_on_one_side() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..12).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let mut yes = DArray1::new(cx, &g, 12, Dist1::Block, 0u32);
            let mut no = DArray1::new(cx, &g, 0, Dist1::Block, 0u32);
            repartition_by(cx, &src, |_| true, &mut yes, &mut no);
            (yes.to_global(cx), no.to_global(cx))
        });
        assert_eq!(rep.results[0].0, (0..12).collect::<Vec<u32>>());
        assert!(rep.results[0].1.is_empty());
    }

    #[test]
    fn count_matching_counts_globally() {
        let rep = spmd(&Machine::simulated(5, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<i32> = (0..100).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Cyclic, &data);
            count_matching(cx, &src, |&v| v % 3 == 0)
        });
        assert!(rep.results.iter().all(|&c| c == 34));
    }
}
