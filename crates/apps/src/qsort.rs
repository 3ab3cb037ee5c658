//! Parallel quicksort with dynamically nested task parallelism —
//! Figure 4 of the paper.
//!
//! The executing processors recursively partition the keys around a pivot
//! and split themselves into two proportionate subgroups, one per
//! partition (`compute_subgroup_sizes` → `TASK_PARTITION qsortPart ::
//! lessG(p1), greaterEqG(p2)`). At `NUMBER_OF_PROCESSORS() == 1` the
//! remaining keys are sorted sequentially. On the way out of the
//! recursion the sorted sub-arrays are merged back with range
//! assignments (`merge_result`).
//!
//! Keys equal to the pivot are separated out (a three-way split) so that
//! heavily duplicated inputs still make progress — a detail the paper's
//! pseudocode leaves to `pick_pivot`.

use fx_core::{block_range, proportional_split, Cx, Global, Size};
use fx_darray::{copy_shift1_range, count_matching, repartition_by, DArray1, Dist1, Participation};

/// Sort a distributed array of keys in place. Must be called with the
/// current group equal to the array's group (the paper's `qsort(a, n)`
/// subroutine entry).
pub fn qsort(cx: &mut Cx, a: &mut DArray1<i64>) {
    qsort_with_leaf(cx, a, 1);
}

/// [`qsort`] with a promotable base case: the recursive subgroup split
/// stops at subgroups of `leaf_group` processors, which sort their range
/// with a bucket pass whose per-bucket sorts run as a heartbeat-promotable
/// loop ([`Cx::pdo_promote`]) — a member whose buckets drew a skewed share
/// of the keys donates its tail to peers that finished early.
/// `leaf_group <= 1` reproduces [`qsort`] exactly.
pub fn qsort_with_leaf(cx: &mut Cx, a: &mut DArray1<i64>, leaf_group: usize) {
    assert_eq!(
        cx.group().gid(),
        a.group().gid(),
        "qsort executes on the array's processor group"
    );
    let n = a.n();
    if n <= 1 {
        return;
    }
    if cx.nprocs() == 1 {
        // Sequential base case: sort the local (complete) copy.
        let local = a.local_mut();
        local.sort_unstable();
        let flops = (n as f64) * (n as f64).log2().max(1.0) * 4.0;
        cx.charge_flops(flops);
        return;
    }
    if cx.nprocs() <= leaf_group.max(1) {
        return bucket_sort_leaf(cx, a);
    }

    let pivot = sample_pivot(cx, a);
    let n_less = count_matching(cx, a, |&v| v < pivot);
    let n_eq = count_matching(cx, a, |&v| v == pivot);
    let n_gtr = n - n_less - n_eq;
    debug_assert!(n_eq >= 1, "pivot is always a present key");

    if n_less == 0 && n_gtr == 0 {
        return; // all keys equal
    }

    if n_less == 0 || n_gtr == 0 {
        // Degenerate split: peel off the pivot-equal keys and recurse on
        // the single non-empty side with the whole group. Progress is
        // guaranteed because n_eq >= 1.
        let side_n = n_less.max(n_gtr);
        let g = cx.group();
        let mut side = DArray1::new(cx, &g, side_n, Dist1::Block, 0i64);
        let mut eq = DArray1::new(cx, &g, n_eq, Dist1::Block, 0i64);
        if n_less > 0 {
            repartition_by(cx, a, |&v| v < pivot, &mut side, &mut eq);
            qsort_with_leaf(cx, &mut side, leaf_group);
            merge_result(cx, a, &side, &eq, pivot, n_less, n_eq);
        } else {
            repartition_by(cx, a, |&v| v > pivot, &mut side, &mut eq);
            qsort_with_leaf(cx, &mut side, leaf_group);
            merge_result_high(cx, a, &side, pivot, n_eq);
        }
        return;
    }

    // compute_subgroup_sizes: processors proportional to work.
    let sizes = proportional_split(cx.nprocs(), &[n_less as f64, n_gtr as f64]);
    let part = cx.task_partition(&[
        ("lessG", Size::Procs(sizes[0])),
        ("greaterEqG", Size::Procs(sizes[1])),
    ]);
    let g_less = part.group("lessG");
    let g_gtr = part.group("greaterEqG");
    // SUBGROUP(lessG) :: aLess ; SUBGROUP(greaterEqG) :: aGreaterEq
    let mut a_less = DArray1::new(cx, &g_less, n_less, Dist1::Block, 0i64);
    let mut a_gtr = DArray1::new(cx, &g_gtr, n_gtr, Dist1::Block, 0i64);
    let mut a_eq = DArray1::new(cx, &g_gtr, n_eq, Dist1::Block, 0i64);

    cx.task_region(&part, |cx, tr| {
        // pick_less_than_pivot / pick_greater_equal_to_pivot: parent scope.
        let mut a_geq = DArray1::new(cx, &g_gtr, n_gtr + n_eq, Dist1::Block, 0i64);
        repartition_by(cx, a, |&v| v < pivot, &mut a_less, &mut a_geq);
        // Separate the equals inside greaterEqG only.
        tr.on(cx, "greaterEqG", |cx| {
            repartition_by(cx, &a_geq, |&v| v > pivot, &mut a_gtr, &mut a_eq);
        });
        // Recurse on disjoint subgroups — the dynamically nested regions.
        tr.on(cx, "lessG", |cx| qsort_with_leaf(cx, &mut a_less, leaf_group));
        tr.on(cx, "greaterEqG", |cx| qsort_with_leaf(cx, &mut a_gtr, leaf_group));
        // merge_result: parent scope range assignments.
        copy_shift1_range(cx, a, 0..n_less, &a_less, 0, Participation::Minimal);
        fill_range(cx, a, n_less, n_eq, pivot);
        let off = n_less + n_eq;
        copy_shift1_range(cx, a, off..n, &a_gtr, -(off as isize), Participation::Minimal);
    });
}

/// Uniform buckets per leaf-group member; more buckets than members is
/// what gives the heartbeat something to donate when keys skew (a member
/// can only part with whole buckets, so the bucket count bounds the
/// donation granularity).
const BUCKETS_PER_PROC: usize = 16;

/// Promotable leaf base case: replicate the subgroup's keys, split the
/// key range into `BUCKETS_PER_PROC * q` uniform buckets, and sort the
/// buckets in a promotable loop (each member owns a block of buckets; a
/// member whose buckets caught a skewed key mass donates its tail on a
/// heartbeat — the buckets are computable anywhere because the key set
/// is replicated, so donated iterations ship no input). The concatenated
/// sorted buckets are the sorted array. Replicated on the model, once on
/// the host: every member is charged for the bucketing scan, but the
/// gathered keys and the sorted result are one buffer the leaf shares and
/// the scan runs once per leaf ([`Cx::replicated`]).
fn bucket_sort_leaf(cx: &mut Cx, a: &mut DArray1<i64>) {
    let n = a.n();
    let q = cx.nprocs();
    // Replicate the leaf's keys (vrank concatenation = global order).
    let keys = cx.allgather_vecs(a.local().to_vec());
    debug_assert_eq!(keys.flat().len(), n);
    let nbuckets = BUCKETS_PER_PROC * q;
    let scan = cx.replicated(|| bucket_scan(keys.flat(), nbuckets));
    let Some((starts, by_bucket)) = &*scan else {
        return; // all keys equal: already sorted
    };
    // The replicated bucketing scan, charged on every member.
    cx.charge_flops(n as f64 * 2.0);

    let my_buckets = block_range(0..nbuckets, q, cx.id());
    let base = my_buckets.start;
    let mut parts: Vec<Vec<i64>> = vec![Vec::new(); my_buckets.len()];
    cx.pdo_promote(
        "bucketSort",
        0..nbuckets,
        |_cx, _b| Vec::<i64>::new(),
        |cx, b, _ins: &[i64]| {
            let mut vals = by_bucket[starts[b]..starts[b + 1]].to_vec();
            vals.sort_unstable();
            let len = vals.len() as f64;
            cx.charge_flops(len * len.log2().max(1.0) * 4.0);
            vals
        },
        |_cx, b, vals: Vec<i64>| parts[b - base] = vals,
    );

    // Reassemble: buckets ascend by value and members ascend by bucket,
    // so the vrank concatenation is the fully sorted array.
    let sorted = cx.allgather_vecs(parts.concat());
    debug_assert_eq!(sorted.flat().len(), n);
    a.for_each_owned(|gi, v| *v = sorted.flat()[gi]);
    cx.charge_mem_bytes(std::mem::size_of_val(a.local()) as f64);
}

/// The bucketing scan of [`bucket_sort_leaf`]: a counting sort of `keys`
/// into `nbuckets` uniform buckets over their range, so bucket `b` is
/// `by_bucket[starts[b]..starts[b + 1]]`. `None` when all keys are equal.
fn bucket_scan(keys: &[i64], nbuckets: usize) -> Option<(Vec<usize>, Vec<i64>)> {
    let min = *keys.iter().min().expect("leaf sorts a non-empty range");
    let max = *keys.iter().max().expect("leaf sorts a non-empty range");
    if min == max {
        return None;
    }
    let span = (max as i128 - min as i128 + 1) as u128;
    let bucket_of =
        |v: i64| (((v as i128 - min as i128) as u128 * nbuckets as u128 / span) as usize)
            .min(nbuckets - 1);
    let buckets: Vec<usize> = keys.iter().map(|&v| bucket_of(v)).collect();
    let mut starts = vec![0usize; nbuckets + 1];
    for &b in &buckets {
        starts[b + 1] += 1;
    }
    for b in 0..nbuckets {
        starts[b + 1] += starts[b];
    }
    let mut fill = starts.clone();
    let mut by_bucket = vec![0i64; keys.len()];
    for (&v, &b) in keys.iter().zip(&buckets) {
        by_bucket[fill[b]] = v;
        fill[b] += 1;
    }
    Some((starts, by_bucket))
}

/// Pick a pivot that is guaranteed to be a present key: the median of the
/// members' local medians (collective over the current group).
fn sample_pivot(cx: &mut Cx, a: &DArray1<i64>) -> i64 {
    let local = a.local();
    let sample = if local.is_empty() {
        (0u8, 0i64)
    } else {
        let mut v: Vec<i64> = local.to_vec();
        let mid = v.len() / 2;
        let (_, m, _) = v.select_nth_unstable(mid);
        (1u8, *m)
    };
    let samples = cx.allgather(sample);
    let mut valid: Vec<i64> =
        samples.into_iter().filter(|(ok, _)| *ok == 1).map(|(_, v)| v).collect();
    assert!(!valid.is_empty(), "pivot sampling on an empty array");
    let mid = valid.len() / 2;
    let (_, m, _) = valid.select_nth_unstable(mid);
    *m
}

/// Write `pivot` into `a[start .. start+len)` — owners write locally, no
/// communication (every processor knows the value: a replicated scalar).
fn fill_range(cx: &mut Cx, a: &mut DArray1<i64>, start: usize, len: usize, pivot: i64) {
    a.for_each_owned(|gi, v| {
        if gi >= start && gi < start + len {
            *v = pivot;
        }
    });
    cx.charge_mem_bytes((len * std::mem::size_of::<i64>()) as f64);
}

/// Merge for the degenerate low side: `a = sorted(side) ++ pivots`.
fn merge_result(
    cx: &mut Cx,
    a: &mut DArray1<i64>,
    side: &DArray1<i64>,
    _eq: &DArray1<i64>,
    pivot: i64,
    n_less: usize,
    n_eq: usize,
) {
    copy_shift1_range(cx, a, 0..n_less, side, 0, Participation::Minimal);
    fill_range(cx, a, n_less, n_eq, pivot);
}

/// Merge for the degenerate high side: `a = pivots ++ sorted(side)`.
fn merge_result_high(
    cx: &mut Cx,
    a: &mut DArray1<i64>,
    side: &DArray1<i64>,
    pivot: i64,
    n_eq: usize,
) {
    fill_range(cx, a, 0, n_eq, pivot);
    let n = a.n();
    copy_shift1_range(cx, a, n_eq..n, side, -(n_eq as isize), Participation::Minimal);
}

/// Convenience wrapper: sort a globally known vector on the current
/// group, returning the sorted result on every member (one array the
/// group shares, as [`DArray1::to_global`] returns it).
pub fn qsort_global(cx: &mut Cx, keys: &[i64]) -> Global<i64> {
    let g = cx.group();
    let mut a = DArray1::from_global(cx, &g, keys.len(), Dist1::Block, keys);
    qsort(cx, &mut a);
    a.to_global(cx)
}

/// [`qsort_global`] with promotable leaf base cases of `leaf_group`
/// processors (see [`qsort_with_leaf`]).
pub fn qsort_global_promoted(cx: &mut Cx, keys: &[i64], leaf_group: usize) -> Global<i64> {
    let g = cx.group();
    let mut a = DArray1::from_global(cx, &g, keys.len(), Dist1::Block, keys);
    qsort_with_leaf(cx, &mut a, leaf_group);
    a.to_global(cx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, MachineModel};

    fn check_sort(keys: Vec<i64>, p: usize) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| qsort_global(cx, &keys));
        for r in rep.results {
            assert_eq!(r, expect, "p = {p}");
        }
    }

    #[test]
    fn sorts_reversed_input() {
        for p in [1, 2, 3, 4, 7] {
            check_sort((0..100).rev().collect(), p);
        }
    }

    #[test]
    fn sorts_random_like_input() {
        let keys: Vec<i64> =
            (0..500).map(|i: i64| (i.wrapping_mul(2654435761) % 1000) - 500).collect();
        for p in [1, 2, 4, 8] {
            check_sort(keys.clone(), p);
        }
    }

    #[test]
    fn sorts_with_heavy_duplicates() {
        let keys: Vec<i64> = (0..200).map(|i| i % 3).collect();
        for p in [1, 2, 4] {
            check_sort(keys.clone(), p);
        }
    }

    #[test]
    fn sorts_all_equal() {
        check_sort(vec![7; 64], 4);
    }

    #[test]
    fn sorts_tiny_arrays_on_many_procs() {
        check_sort(vec![], 4);
        check_sort(vec![5], 4);
        check_sort(vec![2, 1], 4);
        check_sort(vec![3, 1, 2], 5);
    }

    #[test]
    fn sorts_already_sorted() {
        check_sort((0..64).collect(), 4);
    }

    #[test]
    fn promoted_leaves_sort_and_match_heartbeat_off() {
        use fx_core::{Agreement, MachineModel};
        let keys: Vec<i64> =
            (0..600).map(|i: i64| (i.wrapping_mul(2654435761) % 997) - 498).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        for (p, leaf) in [(4, 4), (8, 4), (6, 3)] {
            let m = Machine::simulated(p, MachineModel::paragon());
            let sort = |cx: &mut Cx| qsort_global_promoted(cx, &keys, leaf);
            let off = spmd(&m.clone().with_heartbeat(false), sort);
            let rep = spmd(&m.with_heartbeat(true), sort);
            rep.assert_agrees_with(&off, Agreement::SameAnswers);
            for r in &rep.results {
                assert_eq!(r, &expect, "p = {p}, leaf_group = {leaf}");
            }
        }
    }

    #[test]
    fn promoted_leaves_handle_duplicates_and_tiny_inputs() {
        use fx_core::MachineModel;
        for keys in [vec![], vec![5], vec![7; 64], (0..40).map(|i| i % 3).collect::<Vec<i64>>()] {
            let mut expect = keys.clone();
            expect.sort_unstable();
            let m = Machine::simulated(4, MachineModel::paragon());
            let rep = spmd(&m, move |cx| qsort_global_promoted(cx, &keys, 4));
            for r in rep.results {
                assert_eq!(r, expect);
            }
        }
    }

    #[test]
    fn processors_split_proportionally() {
        // Indirect check: recursion must terminate and sort correctly on a
        // skewed input where one side is much larger.
        let mut keys: Vec<i64> = vec![0; 10];
        keys.extend(0..500);
        check_sort(keys, 6);
    }
}
