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
//! Three tiers of statement, from most to least planned:
//!
//! * `assign*`, [`transpose2`], [`copy_shift1_range`]: cached interval
//!   plans, recorded as *covered* writes (their receives order the data,
//!   so the next statement's barrier can be elided).
//! * [`remap1`] / [`remap2`]: **structured remaps** — separable statements
//!   `dst[r][c] = src[fr(r)][fc(c)]` whose per-dimension maps are
//!   [`Remap`] descriptors (identity, shift, clamped shift, cyclic shift).
//!   Planned, cached and replayed like the first tier, but keeping the
//!   closure statements' protocol: never a sync point, write recorded
//!   opaque.
//! * `copy_remap*`: `dst[i] = src[f(i)]` for an arbitrary closure `f` (and
//!   the 2-D analogue). The **fallback** for maps no descriptor expresses,
//!   and the oracle the structured path is tested against: it enumerates
//!   every destination index on every member, on every call.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use fx_core::Cx;
use fx_runtime::Chunk;

use crate::array1::{DArray1, Dist1, Elem};
use crate::array2::DArray2;
use crate::dataflow::sync_edge;
use crate::dist::DimMap;
use crate::plan::{
    copy_seg_runs, pack2, pack2_into, pack_seg_runs_into, unpack2, unpack2_chunk,
    unpack_seg_runs_chunk, Key1, Key2, KeyRemap1, Plan1, Plan2, Remap, Side1, Side2, WriteKind,
};

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

/// `dst[i] = src[f(i)]` for all `i` — whole-array remapped copy.
pub fn copy_remap1<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    src: &DArray1<T>,
    f: impl Fn(usize) -> usize,
) {
    let n = dst.n();
    copy_remap1_range(cx, dst, 0..n, src, f, Participation::Minimal);
}

/// Plain distributed assignment `dst = src` (shapes must match).
///
/// ```
/// use fx_core::{spmd, Machine};
/// use fx_darray::{assign1, DArray1, Dist1};
///
/// spmd(&Machine::real(3), |cx| {
///     let g = cx.group();
///     let src = DArray1::from_global(cx, &g, Dist1::Block, &[1u64, 2, 3, 4, 5]);
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

/// `dst[i] = src[i + shift]` for `i` in `range` — the affine special case
/// of [`copy_remap1_range`] (plain assignment, sub-range merges, end-off
/// shifts), executed through a cached interval-based communication plan.
///
/// The shifted range must lie within the source extent. Must be called by
/// **every** member of the current group (SPMD), even those that skip.
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
        let hi = (range.end - 1) as isize + shift;
        debug_assert!(
            lo >= 0 && (hi as usize) < src.n(),
            "shifted range {range:?}{shift:+} outside src extent {}",
            src.n()
        );
    }
    let tag = cx.next_op_tag();
    // Dataflow classification runs on every caller — members and
    // skippers alike — so the replicated version vectors stay in step.
    let s_range = if range.is_empty() {
        0..0
    } else {
        let lo = (range.start as isize + shift) as usize;
        lo..lo + range.len()
    };
    let tainted = src.versions().borrow().tainted(s_range.clone())
        || dst.versions().borrow().tainted(range.clone());
    if mode == Participation::WholeGroup {
        cx.barrier();
    } else {
        sync_edge(cx, tag, src.group(), dst.group(), tainted);
    }
    if tainted {
        src.versions().borrow_mut().clear_taint(s_range.clone());
        dst.versions().borrow_mut().clear_taint(range.clone());
    }
    src.versions().borrow_mut().record_read(s_range);
    dst.versions().borrow_mut().record_write(range.clone(), WriteKind::Covered);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let key = Key1 {
        sgid: src.group().gid(),
        smap: *src.map(),
        srep: matches!(src.dist(), Dist1::Replicated),
        dgid: dst.group().gid(),
        dmap: *dst.map(),
        drep: matches!(dst.dist(), Dist1::Replicated),
        range: (range.start, range.end),
        delta: shift,
    };
    let plan = {
        let s = Side1 { group: src.group().clone(), map: key.smap, replicated: key.srep };
        let d = Side1 { group: dst.group().clone(), map: key.dmap, replicated: key.drep };
        cx.plan_cached(key, move || Plan1::build(me, &s, &d, range, shift))
    };

    replay1(cx, tag, &plan, dst, src);
}

/// Execute a 1-D plan. Same observable schedule as the per-element
/// enumeration: local leg, memory charge, sends ascending by destination,
/// then receives ascending by source. Pack/unpack host time is reported
/// out-of-band. Messages ride the chunk fast path: pooled buffers, no
/// boxing, bytes copied once on each side — virtual-time charges are
/// those of an equal-sized Vec.
fn replay1<T: Elem>(cx: &mut Cx, tag: u64, plan: &Plan1, dst: &mut DArray1<T>, src: &DArray1<T>) {
    let mut pack_ns = 0u64;
    let t0 = Instant::now();
    copy_seg_runs(src.local(), &plan.local_src, dst.local_mut(), &plan.local_dst);
    pack_ns += t0.elapsed().as_nanos() as u64;
    cx.charge_mem_bytes(2.0 * (plan.local_total * std::mem::size_of::<T>()) as f64);
    for pr in &plan.sends {
        let t = Instant::now();
        let mut chunk = cx.chunk_for::<T>(pr.total);
        pack_seg_runs_into(src.local(), &pr.runs, &mut chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.send_chunk_phys(pr.peer, tag, chunk);
    }
    for pr in &plan.recvs {
        let chunk = cx.recv_chunk_phys(pr.peer, tag);
        assert_eq!(chunk.elems(), pr.total, "communication set mismatch from {}", pr.peer);
        let t = Instant::now();
        unpack_seg_runs_chunk(dst.local_mut(), &pr.runs, &chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.release_chunk(chunk);
    }
    cx.note_pack_ns(pack_ns);
}

/// Structured 1-D remap `dst[i] = src[remap(i)]` over the whole
/// destination: the plan-cached counterpart of [`copy_remap1`] for the
/// maps [`Remap`] expresses, with the closure statement's exact protocol
/// (same op tag, skip rule, message schedule, virtual charges and opaque
/// write). Replicated arrays take the closure fallback.
///
/// Panics — in every build profile, when the plan is first built — if
/// the map sends a destination index outside the source extent.
pub fn remap1<T: Elem>(cx: &mut Cx, dst: &mut DArray1<T>, src: &DArray1<T>, remap: Remap) {
    if matches!(src.dist(), Dist1::Replicated) || matches!(dst.dist(), Dist1::Replicated) {
        // An image outside the source becomes `n`, which the fallback's
        // own bounds assert rejects.
        let n = src.n();
        return copy_remap1(cx, dst, src, |i| remap.apply(i, n).unwrap_or(n));
    }
    let tag = cx.next_op_tag();
    src.versions().borrow_mut().record_read(0..src.n());
    dst.versions().borrow_mut().record_write(0..dst.n(), WriteKind::Opaque);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }
    let key = KeyRemap1 {
        sgid: src.group().gid(),
        smap: *src.map(),
        dgid: dst.group().gid(),
        dmap: *dst.map(),
        remap,
    };
    let plan = {
        let s = Side1 { group: src.group().clone(), map: key.smap, replicated: false };
        let d = Side1 { group: dst.group().clone(), map: key.dmap, replicated: false };
        cx.plan_cached(key, move || Plan1::build_remap(me, &s, &d, remap))
    };
    replay1(cx, tag, &plan, dst, src);
}

/// Immutable placement descriptor extracted from a 1-D array so that
/// communication planning never aliases the storage borrows.
struct Desc1 {
    group: fx_core::GroupHandle,
    map: DimMap,
    replicated: bool,
}

impl Desc1 {
    fn of<T: Elem>(a: &DArray1<T>) -> Self {
        Desc1 {
            group: a.group().clone(),
            map: *a.map(),
            replicated: matches!(a.dist(), Dist1::Replicated),
        }
    }

    /// Local slot of global index `gi` on its owner.
    #[inline]
    fn slot(&self, gi: usize) -> usize {
        if self.replicated {
            gi
        } else {
            self.map.local_of(gi)
        }
    }

    /// Physical owner serving `gi` to destination processor `dp`.
    #[inline]
    fn src_owner(&self, gi: usize, dp: usize) -> usize {
        if self.replicated {
            if self.group.contains_phys(dp) {
                dp
            } else {
                self.group.phys(dp % self.group.len())
            }
        } else {
            self.group.phys(self.map.owner(gi))
        }
    }
}

/// The exchange half of the closure fallback: ship the per-peer chunks
/// ascending by destination, then receive ascending by source and scatter
/// each message into its `slots` of `local`, in message order.
fn exchange_slots<T: Elem>(
    cx: &mut Cx,
    tag: u64,
    sends: BTreeMap<usize, Chunk>,
    recvs: BTreeMap<usize, Vec<usize>>,
    local: &mut [T],
) {
    for (dp, chunk) in sends {
        cx.send_chunk_phys(dp, tag, chunk);
    }
    for (sp, slots) in recvs {
        let chunk = cx.recv_chunk_phys(sp, tag);
        assert_eq!(chunk.elems(), slots.len(), "communication set mismatch from {sp}");
        for (k, slot) in slots.into_iter().enumerate() {
            chunk.read_into(k, &mut local[slot..slot + 1]);
        }
        cx.release_chunk(chunk);
    }
}

/// `dst[i] = src[f(i)]` for `i` in `range`, with explicit participation —
/// the general fallback for maps [`remap1`] cannot express.
///
/// Must be called by **every** member of the current group (SPMD), even
/// those that will skip — the operation tag is allocated collectively.
pub fn copy_remap1_range<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    range: Range<usize>,
    src: &DArray1<T>,
    f: impl Fn(usize) -> usize,
    mode: Participation,
) {
    assert!(range.end <= dst.n(), "range {range:?} exceeds dst extent {}", dst.n());
    let tag = cx.next_op_tag();
    if mode == Participation::WholeGroup {
        cx.barrier();
    }
    // The remap closure's communication pattern is opaque to the planner:
    // taint the destination footprint so the next plan statement reading
    // it keeps its barrier. Never a sync point itself, in any mode.
    src.versions().borrow_mut().record_read(0..src.n());
    dst.versions().borrow_mut().record_write(range.clone(), WriteKind::Opaque);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let s = Desc1::of(src);
    let d = Desc1::of(dst);
    let src_n = src.n();

    // Per-peer send buffers are pooled chunks (grown on demand: a peer's
    // share is unknown until the enumeration ends), so the payloads ride
    // the chunk path like every planned statement's.
    let mut sends: BTreeMap<usize, Chunk> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut local_bytes = 0usize;

    // Small reusable buffer for the destination owners of one element.
    let mut dsts: Vec<usize> = Vec::with_capacity(if d.replicated { d.group.len() } else { 1 });
    for gi in range {
        let sgi = f(gi);
        assert!(sgi < src_n, "copy_remap1: map sends {gi} to {sgi}, outside src extent {src_n}");
        dsts.clear();
        if d.replicated {
            dsts.extend_from_slice(d.group.members());
        } else {
            dsts.push(d.group.phys(d.map.owner(gi)));
        }
        for &dp in &dsts {
            let sp = s.src_owner(sgi, dp);
            if sp == me {
                let v = src.local()[s.slot(sgi)];
                if dp == me {
                    let slot = d.slot(gi);
                    dst.local_mut()[slot] = v;
                    local_bytes += std::mem::size_of::<T>();
                } else {
                    sends.entry(dp).or_insert_with(|| cx.chunk_for::<T>(0)).push_slice(&[v]);
                }
            } else if dp == me {
                recvs.entry(sp).or_default().push(d.slot(gi));
            }
        }
    }

    cx.charge_mem_bytes(2.0 * local_bytes as f64);
    exchange_slots(cx, tag, sends, recvs, dst.local_mut());
}

/// `dst[r][c] = src[f(r, c)]` for the whole destination.
pub fn copy_remap2<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    f: impl Fn(usize, usize) -> (usize, usize),
) {
    copy_remap2_with(cx, dst, src, f, Participation::Minimal);
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
    cx.scoped("assign2", |cx| plan_copy2(cx, dst, src, false, mode));
}

/// Distributed transposition `dst[r][c] = src[c][r]` (the radar corner
/// turn; also the data motion between column-FFT and row-FFT stages).
pub fn transpose2<T: Elem>(cx: &mut Cx, dst: &mut DArray2<T>, src: &DArray2<T>) {
    assert_eq!(dst.rows(), src.cols(), "transpose2 shape mismatch");
    assert_eq!(dst.cols(), src.rows(), "transpose2 shape mismatch");
    cx.scoped("transpose2", |cx| plan_copy2(cx, dst, src, true, Participation::Minimal));
}

/// Plan-cached 2-D copy: `dst[r][c] = src[r][c]` (or `src[c][r]` when
/// `transposed`), a sync edge recorded as a covered write.
fn plan_copy2<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    transposed: bool,
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    let s_range = 0..src.rows() * src.cols();
    let d_range = 0..dst.rows() * dst.cols();
    let tainted = src.versions().borrow().tainted(s_range.clone())
        || dst.versions().borrow().tainted(d_range.clone());
    if mode == Participation::WholeGroup {
        cx.barrier();
    } else {
        sync_edge(cx, tag, src.group(), dst.group(), tainted);
    }
    if tainted {
        src.versions().borrow_mut().clear_taint(s_range.clone());
        dst.versions().borrow_mut().clear_taint(d_range.clone());
    }
    src.versions().borrow_mut().record_read(s_range);
    dst.versions().borrow_mut().record_write(d_range, WriteKind::Covered);
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }
    let plan = plan2_for(cx, dst, src, transposed, (Remap::Identity, Remap::Identity));
    replay2(cx, tag, &plan, dst, src);
}

/// Structured 2-D remap `dst[r][c] = src[rows(r)][cols(c)]`: the
/// plan-cached counterpart of [`copy_remap2`] for separable maps
/// [`Remap`] expresses (Stereo's disparity shift is
/// `(Identity, ClampShift(δ))`). The statement keeps the closure
/// statement's exact protocol — same op tag, skip rule, message schedule
/// and virtual charges; never a sync point; write recorded opaque — so
/// swapping one for the other moves no virtual time.
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
    let tag = cx.next_op_tag();
    // Opaque write (see copy_remap1_range): taint source, never sync.
    src.versions().borrow_mut().record_read(0..src.rows() * src.cols());
    dst.versions().borrow_mut().record_write(0..dst.rows() * dst.cols(), WriteKind::Opaque);
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }
    let plan = plan2_for(cx, dst, src, false, (rows, cols));
    replay2(cx, tag, &plan, dst, src);
}

/// This processor's cached plan for `dst[r][c] = src[rows(r)][cols(c)]`
/// (through the transposed view of `src` when `transposed`).
fn plan2_for<T: Elem>(
    cx: &mut Cx,
    dst: &DArray2<T>,
    src: &DArray2<T>,
    transposed: bool,
    (row, col): (Remap, Remap),
) -> Arc<Plan2> {
    let me = cx.phys_rank();
    let (s_rmap, s_cmap) = src.maps();
    let (d_rmap, d_cmap) = dst.maps();
    let key = Key2 {
        sgid: src.group().gid(),
        s_rmap: *s_rmap,
        s_cmap: *s_cmap,
        dgid: dst.group().gid(),
        d_rmap: *d_rmap,
        d_cmap: *d_cmap,
        transposed,
        row,
        col,
    };
    let s = Side2 { group: src.group().clone(), rmap: key.s_rmap, cmap: key.s_cmap };
    let d = Side2 { group: dst.group().clone(), rmap: key.d_rmap, cmap: key.d_cmap };
    cx.plan_cached(key, move || Plan2::build(me, &s, &d, transposed, (row, col)))
}

/// Execute a 2-D plan: local leg, memory charge, sends ascending by
/// destination, receives ascending by source (see [`replay1`]).
fn replay2<T: Elem>(cx: &mut Cx, tag: u64, plan: &Plan2, dst: &mut DArray2<T>, src: &DArray2<T>) {
    let transposed = plan.transposed;
    let mut pack_ns = 0u64;
    let t0 = Instant::now();
    let mut local_total = 0usize;
    if let Some(l) = &plan.local {
        let tmp = pack2(src.local(), plan.src_pitch, &l.s_outer, &l.s_inner, l.total, transposed);
        unpack2(dst.local_mut(), plan.dst_pitch, &l.d_outer, &l.d_inner, &tmp);
        local_total = l.total;
    }
    pack_ns += t0.elapsed().as_nanos() as u64;
    cx.charge_mem_bytes(2.0 * (local_total * std::mem::size_of::<T>()) as f64);
    for p in &plan.sends {
        let t = Instant::now();
        let mut chunk = cx.chunk_for::<T>(p.total);
        pack2_into(src.local(), plan.src_pitch, &p.outer, &p.inner, transposed, &mut chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.send_chunk_phys(p.peer, tag, chunk);
    }
    for p in &plan.recvs {
        let chunk = cx.recv_chunk_phys(p.peer, tag);
        assert_eq!(chunk.elems(), p.total, "communication set mismatch from {}", p.peer);
        let t = Instant::now();
        unpack2_chunk(dst.local_mut(), plan.dst_pitch, &p.outer, &p.inner, &chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.release_chunk(chunk);
    }
    cx.note_pack_ns(pack_ns);
}

/// `dst[r][c] = src[f(r, c)]` with explicit participation mode — the
/// general fallback for maps [`remap2`] cannot express.
pub fn copy_remap2_with<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    f: impl Fn(usize, usize) -> (usize, usize),
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    if mode == Participation::WholeGroup {
        cx.barrier();
    }
    // Opaque write (see copy_remap1_range): taint source, never sync.
    src.versions().borrow_mut().record_read(0..src.rows() * src.cols());
    dst.versions().borrow_mut().record_write(0..dst.rows() * dst.cols(), WriteKind::Opaque);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let (s_rmap, s_cmap) = {
        let m = src.maps();
        (*m.0, *m.1)
    };
    let (d_rmap, d_cmap) = {
        let m = dst.maps();
        (*m.0, *m.1)
    };
    let s_group = src.group().clone();
    let d_group = dst.group().clone();
    let s_grid_cols = src.grid().1;
    let d_grid_cols = dst.grid().1;
    let s_local_cols = src.local_dims().1;
    let d_local_cols = dst.local_dims().1;

    let mut sends: BTreeMap<usize, Chunk> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut local_bytes = 0usize;

    for r in 0..dst.rows() {
        for c in 0..dst.cols() {
            let (sr, sc) = f(r, c);
            assert!(
                sr < src.rows() && sc < src.cols(),
                "copy_remap2: map sends ({r}, {c}) to ({sr}, {sc}), outside src shape {}x{}",
                src.rows(),
                src.cols()
            );
            let sp = s_group.phys(s_rmap.owner(sr) * s_grid_cols + s_cmap.owner(sc));
            let dp = d_group.phys(d_rmap.owner(r) * d_grid_cols + d_cmap.owner(c));
            if sp == me {
                let v = src.local()[s_rmap.local_of(sr) * s_local_cols + s_cmap.local_of(sc)];
                if dp == me {
                    let slot = d_rmap.local_of(r) * d_local_cols + d_cmap.local_of(c);
                    dst.local_mut()[slot] = v;
                    local_bytes += std::mem::size_of::<T>();
                } else {
                    sends.entry(dp).or_insert_with(|| cx.chunk_for::<T>(0)).push_slice(&[v]);
                }
            } else if dp == me {
                let slot = d_rmap.local_of(r) * d_local_cols + d_cmap.local_of(c);
                recvs.entry(sp).or_default().push(slot);
            }
        }
    }

    cx.charge_mem_bytes(2.0 * local_bytes as f64);
    exchange_slots(cx, tag, sends, recvs, dst.local_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let src = DArray1::from_global(cx, &g, sd, &data);
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
            let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g2, 17, Dist1::Block, 0i64);
            assign1(cx, &mut dst, &src);
            if dst.is_member() {
                cx.task_region(&part, |cx, tr| {
                    tr.on(cx, "g2", |cx| dst.to_global(cx)).unwrap()
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
            let src = DArray1::from_global(cx, &g, Dist1::Replicated, &data);
            let mut mid = DArray1::new(cx, &g, 11, Dist1::Block, 0u32);
            assign1(cx, &mut mid, &src);
            mid.for_each_owned(|_gi, v| *v += 100);
            let mut back = DArray1::new(cx, &g, 11, Dist1::Replicated, 0u32);
            assign1(cx, &mut back, &mid);
            back.local().to_vec()
        });
        let expect: Vec<u32> = (100..111).collect();
        for r in rep.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn remap_reverses() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u16> = (0..9).collect();
            let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g, 9, Dist1::Cyclic, 0u16);
            copy_remap1(cx, &mut dst, &src, |i| 8 - i);
            dst.to_global(cx)
        });
        assert_eq!(rep.results[0], vec![8, 7, 6, 5, 4, 3, 2, 1, 0]);
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
            let a_less = DArray1::from_global(cx, &glo, Dist1::Block, &less);
            let a_geq = DArray1::from_global(cx, &ghi, Dist1::Block, &geq);
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 7, Dist1::Block, 0i32);
            copy_remap1_range(cx, &mut a, 0..3, &a_less, |i| i, Participation::Minimal);
            copy_remap1_range(cx, &mut a, 3..7, &a_geq, |i| i - 3, Participation::Minimal);
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
                let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_remap1_range(cx, &mut dst, 0..100, &src, |i| i, Participation::Minimal);
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
                let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_remap1_range(cx, &mut dst, 0..100, &src, |i| i, Participation::WholeGroup);
            });
            cx.now()
        });
        assert!(rep.results[2] >= 5.0, "g3 must stall in WholeGroup mode, got {}", rep.results[2]);
    }
}
