//! Distributed array assignment — the parent-scope communication statement.
//!
//! `A2 = A1` between arrays mapped onto *different* subgroups is how data
//! crosses task boundaries in the paper (Figure 2's pipeline). Two of the
//! paper's §4 implementation points live here:
//!
//! * **Minimal processor subsets**: the participating processors of an
//!   array assignment are exactly the owners of the source and destination.
//!   Everyone else *skips past the statement without synchronizing* — the
//!   property that makes pipelined task parallelism possible. The
//!   [`Participation::WholeGroup`] mode disables the analysis (all current
//!   processors synchronize first), which is the ablation for the paper's
//!   claim that this optimization is essential.
//! * **Localization / no empty messages**: both sides compute the exact
//!   communication sets from distribution metadata, so a message is
//!   exchanged only between processors that actually share elements.
//!
//! Every statement shares one prologue (`enter`, a sync edge between
//! its source and destination groups), one cached rank-generic [`Plan`]
//! and one `replay`:
//!
//! * `assign*`, [`transpose2`], [`copy_shift1_range`];
//! * [`remap1`] / [`remap2`]: **structured remaps** — separable statements
//!   `dst[r][c] = src[fr(r)][fc(c)]` whose per-dimension maps are
//!   [`Remap`] descriptors (identity, shift, clamped shift, cyclic shift).
//!   Their oracle is the per-element walk
//!   [`CommSets::enumerate_with`](crate::plan::CommSets::enumerate_with)
//!   under the same map, replayed with the same protocol
//!   (`tests/prop_remap.rs`).

use std::ops::Range;
use std::sync::Arc;

use fx_core::{Cx, GroupHandle};

use crate::array::{DArray, DArray1, DArray2, DArray3, Elem};
use crate::dataflow::sync_edge;
use crate::plan::{copy_local, pack_into, unpack_chunk, Key, Plan, Remap, Side, Stmt};

/// Which processors take part in a parent-scope array statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participation {
    /// Only owners of source/destination elements participate; all other
    /// processors of the current group skip instantly (paper §4,
    /// "Identification of minimal processor subsets").
    Minimal,
    /// Pessimistic baseline: every processor of the current group
    /// synchronizes at the statement before the owners move data.
    WholeGroup,
}

// ---------------------------------------------------------------------------
// What every statement shares: prologue, plan lookup, replay
// ---------------------------------------------------------------------------

/// The prologue of every array statement. It runs on every caller —
/// members and skippers alike. The statement is a sync edge between its
/// source and destination groups ([`sync_edge`]); `WholeGroup`
/// synchronizes the whole current group instead.
fn enter(cx: &mut Cx, tag: u64, src: &GroupHandle, dst: &GroupHandle, mode: Participation) {
    if mode == Participation::WholeGroup {
        cx.barrier();
    } else {
        sync_edge(cx, tag, src, dst);
    }
}

/// This processor's cached plan for `stmt` between placements `s` and `d`.
fn plan_for<const N: usize>(cx: &mut Cx, s: &Side<N>, d: &Side<N>, stmt: Stmt<N>) -> Arc<Plan<N>> {
    let me = cx.phys_rank();
    cx.plan_cached(Key::new(s, d, stmt), || Plan::build(me, s, d, &stmt))
}

/// Execute a plan. Same observable schedule as the per-element
/// enumeration: memory charge for the local leg, sends ascending by
/// destination, then receives ascending by source. The charge precedes
/// the local copy (no virtual clock moves between them), so the exchange
/// begins after it and each copy, pack and unpack step ends with
/// `Cx::packed`: host time is measured only when a telemetry registry is
/// attached, and never includes a charge. Messages ride the chunk fast path:
/// pooled buffers, no boxing, bytes copied once on each side —
/// virtual-time charges are those of an equal-sized Vec. The local leg
/// copies tile to tile and borrows no chunk, so the pool counters see
/// messages only.
fn replay<T: Elem, const N: usize>(
    cx: &mut Cx,
    tag: u64,
    plan: &Plan<N>,
    dst: &mut [T],
    src: &[T],
) {
    let local_total = plan.local.as_ref().map_or(0, |(sl, _)| sl.total);
    cx.charge_mem_bytes(2.0 * (local_total * std::mem::size_of::<T>()) as f64);
    cx.exchange_begins();
    if let Some((sl, dl)) = &plan.local {
        copy_local(src, &plan.src_strides, sl.dims(&plan.runs), dst, &plan.dst_strides, dl.dims(&plan.runs));
        cx.packed();
    }
    for p in &plan.sends {
        let mut chunk = cx.chunk_for::<T>(p.total);
        pack_into(src, &plan.src_strides, p.dims(&plan.runs), &mut chunk);
        cx.packed();
        cx.send_chunk_phys(p.peer, tag, chunk);
    }
    for p in &plan.recvs {
        let chunk = cx.recv_chunk_phys(p.peer, tag);
        assert_eq!(chunk.elems(), p.total, "communication set mismatch from {}", p.peer);
        unpack_chunk(dst, &plan.dst_strides, p.dims(&plan.runs), &chunk);
        cx.packed();
        cx.release_chunk(chunk);
    }
}

/// One planned statement between two rank-`N` arrays.
fn planned<T: Elem, const N: usize>(
    cx: &mut Cx,
    dst: &mut DArray<T, N>,
    src: &DArray<T, N>,
    stmt: Stmt<N>,
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    enter(cx, tag, src.group(), dst.group(), mode);
    // Only owners take part; everyone else skips past the statement (the
    // minimal-subset rule).
    if !src.is_member() && !dst.is_member() {
        return;
    }
    let plan = plan_for(cx, src.side(), dst.side(), stmt);
    replay(cx, tag, &plan, dst.local_mut(), src.local());
}

// ---------------------------------------------------------------------------
// Planned statements
// ---------------------------------------------------------------------------

/// Plain distributed assignment `dst = src` (shapes must match).
///
/// ```
/// use fx_core::{spmd, Machine};
/// use fx_darray::{assign1, DArray1, Dist1};
///
/// spmd(&Machine::real(3), |cx| {
///     let g = cx.group();
///     let src = DArray1::from_global(cx, &g, 5, Dist1::Block, &[1u64, 2, 3, 4, 5]);
///     let mut dst = DArray1::new(cx, &g, 5, Dist1::Cyclic, 0u64);
///     assign1(cx, &mut dst, &src); // BLOCK -> CYCLIC redistribution
///     assert_eq!(dst.to_global(cx), vec![1, 2, 3, 4, 5]);
/// });
/// ```
pub fn assign1<T: Elem>(cx: &mut Cx, dst: &mut DArray1<T>, src: &DArray1<T>) {
    assert_eq!(dst.n(), src.n(), "assign1 shape mismatch");
    let n = dst.n();
    cx.scoped("assign1", |cx| copy_shift1_range(cx, dst, 0..n, src, 0, Participation::Minimal));
}

/// `dst[i] = src[i + shift]` for `i` in `range` — plain assignment,
/// sub-range merges, end-off shifts — executed through a cached
/// interval-based communication plan.
///
/// The shifted range must lie within the source extent (checked in every
/// build profile). Must be called by **every** member of the current
/// group (SPMD), even those that skip.
pub fn copy_shift1_range<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    range: Range<usize>,
    src: &DArray1<T>,
    shift: isize,
    mode: Participation,
) {
    assert!(range.end <= dst.n(), "range {range:?} exceeds dst extent {}", dst.n());
    if !range.is_empty() {
        let lo = range.start as isize + shift;
        assert!(
            lo >= 0 && lo as usize + range.len() <= src.n(),
            "copy_shift1_range: shift {shift:+} sends destination range {range:?} outside \
             the source extent {}",
            src.n()
        );
    }
    let stmt = Stmt { remap: [Remap::Shift(shift)], range: [(range.start, range.end)], axes: [0] };
    planned(cx, dst, src, stmt, mode);
}

/// Structured 1-D remap `dst[i] = src[remap(i)]` over the whole
/// destination: one op tag, owners only.
///
/// Panics — in every build profile, when the plan is first built — if
/// the map sends a destination index outside the source extent.
pub fn remap1<T: Elem>(cx: &mut Cx, dst: &mut DArray1<T>, src: &DArray1<T>, remap: Remap) {
    let stmt = Stmt::whole(dst.maps(), [remap]);
    planned(cx, dst, src, stmt, Participation::Minimal);
}

/// Plain distributed assignment `dst = src` for matrices (the statement
/// `A2 = A1` of Figure 2 — same global shape, possibly different
/// distributions *and* different processor subgroups).
pub fn assign2<T: Elem>(cx: &mut Cx, dst: &mut DArray2<T>, src: &DArray2<T>) {
    assign2_with(cx, dst, src, Participation::Minimal);
}

/// [`assign2`] with an explicit participation mode (the ablation knob).
pub fn assign2_with<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    mode: Participation,
) {
    assert_eq!(dst.rows(), src.rows(), "assign2 row mismatch");
    assert_eq!(dst.cols(), src.cols(), "assign2 col mismatch");
    let stmt = Stmt::whole(dst.maps(), [Remap::Identity; 2]);
    cx.scoped("assign2", |cx| planned(cx, dst, src, stmt, mode));
}

/// Distributed transposition `dst[r][c] = src[c][r]` (the radar corner
/// turn; also the data motion between column-FFT and row-FFT stages).
pub fn transpose2<T: Elem>(cx: &mut Cx, dst: &mut DArray2<T>, src: &DArray2<T>) {
    assert_eq!(dst.rows(), src.cols(), "transpose2 shape mismatch");
    assert_eq!(dst.cols(), src.rows(), "transpose2 shape mismatch");
    let stmt = Stmt { axes: [1, 0], ..Stmt::whole(dst.maps(), [Remap::Identity; 2]) };
    cx.scoped("transpose2", |cx| planned(cx, dst, src, stmt, Participation::Minimal));
}

/// Distributed assignment `dst = src` between 3-D arrays of the same
/// shape (any distributions/groups) — the 3-D analogue of [`assign2`],
/// with the same minimal-processor-subset skipping.
pub fn assign3<T: Elem>(cx: &mut Cx, dst: &mut DArray3<T>, src: &DArray3<T>) {
    assert_eq!(dst.shape(), src.shape(), "assign3 shape mismatch");
    let stmt = Stmt::whole(dst.maps(), [Remap::Identity; 3]);
    cx.scoped("assign3", |cx| planned(cx, dst, src, stmt, Participation::Minimal));
}

/// Structured 2-D remap `dst[r][c] = src[rows(r)][cols(c)]` for separable
/// maps [`Remap`] expresses (Stereo's disparity shift is
/// `(Identity, ClampShift(δ))`): one op tag, owners only.
///
/// Panics — in every build profile, when the plan is first built — if a
/// map sends a destination index outside the source extent.
pub fn remap2<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    rows: Remap,
    cols: Remap,
) {
    let stmt = Stmt::whole(dst.maps(), [rows, cols]);
    planned(cx, dst, src, stmt, Participation::Minimal);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Dist1;
    use crate::dist::Dist;
    use fx_core::{spmd, Machine, Size};

    #[test]
    fn assign1_between_distributions() {
        let cases = [
            (Dist1::Block, Dist1::Cyclic),
            (Dist1::Cyclic, Dist1::Block),
            (Dist1::Block, Dist1::BlockCyclic(3)),
            (Dist1::BlockCyclic(2), Dist1::BlockCyclic(5)),
        ];
        for (sd, dd) in cases {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (0..23).map(|i| i * 7).collect();
                let src = DArray1::from_global(cx, &g, data.len(), sd, &data);
                let mut dst = DArray1::new(cx, &g, 23, dd, 0u64);
                assign1(cx, &mut dst, &src);
                dst.to_global(cx)
            });
            for r in rep.results {
                assert_eq!(r, (0..23).map(|i| i * 7).collect::<Vec<u64>>(), "{sd:?}->{dd:?}");
            }
        }
    }

    #[test]
    fn assign1_across_disjoint_subgroups() {
        // The pipeline statement: src on G1, dst on G2.
        let rep = spmd(&Machine::real(6), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            let data: Vec<i64> = (0..17).map(|i| 1000 - i).collect();
            let src = DArray1::from_global(cx, &g1, data.len(), Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g2, 17, Dist1::Block, 0i64);
            assign1(cx, &mut dst, &src);
            if dst.is_member() {
                cx.task_region(&part, |cx, tr| {
                    tr.on(cx, "g2", |cx| dst.to_global(cx).to_vec()).unwrap()
                })
            } else {
                Vec::new()
            }
        });
        let expect: Vec<i64> = (0..17).map(|i| 1000 - i).collect();
        for r in &rep.results[2..] {
            assert_eq!(*r, expect);
        }
    }

    #[test]
    fn replicated_to_block_and_back() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..11).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Star, &data);
            let mut mid = DArray1::new(cx, &g, 11, Dist1::Block, 0u32);
            assign1(cx, &mut mid, &src);
            mid.for_each_owned(|_gi, v| *v += 100);
            let mut back = DArray1::new(cx, &g, 11, Dist1::Star, 0u32);
            assign1(cx, &mut back, &mid);
            back.local().to_vec()
        });
        let expect: Vec<u32> = (100..111).collect();
        for r in rep.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn shift_redistributes() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u16> = (0..9).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g, 9, Dist1::Cyclic, 0u16);
            copy_shift1_range(cx, &mut dst, 0..8, &src, 1, Participation::Minimal);
            dst.to_global(cx)
        });
        assert_eq!(rep.results[0], vec![1, 2, 3, 4, 5, 6, 7, 8, 0]);
    }

    #[test]
    fn range_assign_merges_subarrays() {
        // Figure 4's merge: a[0..k] = aLess, a[k..] = aGreaterEq.
        let rep = spmd(&Machine::real(4), |cx| {
            let part = cx.task_partition(&[("lo", Size::Procs(2)), ("hi", Size::Rest)]);
            let glo = part.group("lo");
            let ghi = part.group("hi");
            let less: Vec<i32> = vec![1, 2, 3];
            let geq: Vec<i32> = vec![7, 8, 9, 10];
            let a_less = DArray1::from_global(cx, &glo, less.len(), Dist1::Block, &less);
            let a_geq = DArray1::from_global(cx, &ghi, geq.len(), Dist1::Block, &geq);
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 7, Dist1::Block, 0i32);
            copy_shift1_range(cx, &mut a, 0..3, &a_less, 0, Participation::Minimal);
            copy_shift1_range(cx, &mut a, 3..7, &a_geq, -3, Participation::Minimal);
            a.to_global(cx)
        });
        for r in rep.results {
            assert_eq!(r, vec![1, 2, 3, 7, 8, 9, 10]);
        }
    }

    #[test]
    fn assign2_redistribution_and_cross_group() {
        let rep = spmd(&Machine::real(6), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            let data: Vec<u64> = (0..20).collect(); // 4x5
            let src = DArray2::from_global(cx, &g1, [4, 5], (Dist::Star, Dist::Block), &data);
            let mut dst = DArray2::new(cx, &g2, [4, 5], (Dist::Block, Dist::Star), 0u64);
            assign2(cx, &mut dst, &src);
            dst.fold_owned(0u64, |acc, r, c, v| {
                assert_eq!(v, (r * 5 + c) as u64);
                acc + v
            })
        });
        let total: u64 = rep.results.iter().sum();
        assert_eq!(total, (0..20).sum());
    }

    #[test]
    fn transpose2_matches_reference() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<i64> = (0..12).collect(); // 3x4
            let src = DArray2::from_global(cx, &g, [3, 4], (Dist::Block, Dist::Star), &data);
            let mut dst = DArray2::new(cx, &g, [4, 3], (Dist::Block, Dist::Star), 0i64);
            transpose2(cx, &mut dst, &src);
            dst.to_global(cx)
        });
        let mut expect = vec![0i64; 12];
        for r in 0..4 {
            for c in 0..3 {
                expect[r * 3 + c] = (c * 4 + r) as i64;
            }
        }
        assert_eq!(rep.results[0], expect);
    }

    #[test]
    fn minimal_participation_lets_outsiders_skip_in_virtual_time() {
        use fx_core::MachineModel;
        // Three groups; an assignment between g1 and g2 must not delay g3.
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[
                ("g1", Size::Procs(1)),
                ("g2", Size::Procs(1)),
                ("g3", Size::Rest),
            ]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            // g1 does heavy work first, so the assignment finishes late.
            cx.task_region(&part, |cx, tr| {
                tr.on(cx, "g1", |cx| cx.charge_seconds(5.0));
                let data = vec![1u8; 100];
                let src = DArray1::from_global(cx, &g1, data.len(), Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_shift1_range(cx, &mut dst, 0..100, &src, 0, Participation::Minimal);
            });
            cx.now()
        });
        assert!(rep.results[0] >= 5.0);
        assert!(rep.results[1] >= 5.0, "receiver waits for sender: {}", rep.results[1]);
        assert!(rep.results[2] < 1.0, "g3 should skip instantly, got {}", rep.results[2]);
    }

    #[test]
    fn whole_group_participation_stalls_everyone() {
        use fx_core::MachineModel;
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[
                ("g1", Size::Procs(1)),
                ("g2", Size::Procs(1)),
                ("g3", Size::Rest),
            ]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            cx.task_region(&part, |cx, tr| {
                tr.on(cx, "g1", |cx| cx.charge_seconds(5.0));
                let data = vec![1u8; 100];
                let src = DArray1::from_global(cx, &g1, data.len(), Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_shift1_range(cx, &mut dst, 0..100, &src, 0, Participation::WholeGroup);
            });
            cx.now()
        });
        assert!(rep.results[2] >= 5.0, "g3 must stall in WholeGroup mode, got {}", rep.results[2]);
    }

    #[test]
    fn assign3_across_groups() {
        let rep = spmd(&Machine::real(5), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
            let ga = part.group("a");
            let gb = part.group("b");
            let mut src = DArray3::new(cx, &ga, [2, 6, 3], (Dist::Star, Dist::Block, Dist::Star), 0u64);
            src.for_each_owned(|i0, i1, i2, v| *v = (i0 * 36 + i1 * 6 + i2) as u64);
            let mut dst = DArray3::new(cx, &gb, [2, 6, 3], (Dist::Star, Dist::Block, Dist::Star), 0u64);
            assign3(cx, &mut dst, &src);
            dst.fold_owned(true, |ok, i0, i1, i2, v| ok && v == (i0 * 36 + i1 * 6 + i2) as u64)
        });
        assert!(rep.results.iter().all(|&ok| ok));
    }

    #[test]
    fn assign3_dim0_redistribution() {
        // (BLOCK, *, *) → (*, BLOCK, *): a genuine all-to-all in 3-D.
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let mut src = DArray3::new(cx, &g, [4, 4, 2], (Dist::Block, Dist::Star, Dist::Star), 0i32);
            src.for_each_owned(|a, b, c, v| *v = (a * 8 + b * 2 + c) as i32);
            let mut dst = DArray3::new(cx, &g, [4, 4, 2], (Dist::Star, Dist::Block, Dist::Star), 0i32);
            assign3(cx, &mut dst, &src);
            dst.to_global(cx)
        });
        let expect: Vec<i32> = (0..32).collect();
        assert_eq!(rep.results[0], expect);
    }

    /// In release builds the old `debug_assert!` compiled out and the
    /// planner clipped the range instead: the last three elements stayed
    /// stale with no diagnostic.
    #[test]
    #[should_panic(expected = "copy_shift1_range: shift +3 sends destination range 0..10 outside the source extent 10")]
    fn shift_past_the_source_panics_in_every_profile() {
        spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let src = DArray1::new(cx, &g, 10, Dist1::Block, 1u8);
            let mut dst = DArray1::new(cx, &g, 10, Dist1::Cyclic, 0u8);
            copy_shift1_range(cx, &mut dst, 0..10, &src, 3, Participation::Minimal);
        });
    }

    /// A message shorter than the plan says is refused at every rank, in
    /// release builds too (the 3-D replay used to `debug_assert!` this).
    #[test]
    #[should_panic(expected = "communication set mismatch from 0")]
    fn short_message_is_refused_in_every_profile() {
        use crate::plan::{Peer, Seg};
        let machine = Machine::real(2).with_timeout(std::time::Duration::from_secs(10));
        spmd(&machine, |cx| {
            let tag = cx.next_op_tag();
            // Processor 0 ships 2x2x1 elements; processor 1 expects 2x2x2:
            // arena entry `len - 1` is the whole of a dimension of `len`.
            let runs = [1, 2].map(|len| Seg { start: 0, len, stride: 0, count: 1 }).to_vec();
            let share = |peer, last| Peer { peer, total: 4 * last, spans: [1..2, 1..2, last - 1..last] };
            let mut plan = Plan { runs, sends: vec![], recvs: vec![], local: None, src_strides: [4, 2, 1], dst_strides: [4, 2, 1] };
            if cx.phys_rank() == 0 {
                plan.sends.push(share(1, 1));
            } else {
                plan.recvs.push(share(0, 2));
            }
            replay(cx, tag, &plan, &mut [0u16; 8], &[7u16; 8]);
        });
    }
}
