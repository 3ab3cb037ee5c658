//! Cached interval-based communication plans.
//!
//! The legacy communication paths in this crate (`assign.rs`, `pack.rs`,
//! the halo exchanges) enumerate *every global element*, asking the
//! distribution metadata for its owner and bucketing values into
//! `BTreeMap`s — O(n) work with a large constant, re-done on every
//! iteration of a pipeline even though nothing about the placement
//! changes. This module computes the same communication sets as
//! **contiguous index runs** using a FALLS-style intersection of the
//! regular index sets a [`DimMap`] owns (a block-cyclic ownership set is a
//! family of evenly spaced segments), then compresses the per-peer local
//! index lists into strided runs ([`Seg`]) so packing is `extend_from_slice`
//! rather than a per-element push.
//!
//! Separable remap statements (`dst[r][c] = src[fr(r)][fc(c)]`) are
//! planned the same way from [`Remap`] descriptors: each dimension's map
//! is cut into affine/constant pieces, one 1-D routine turns a dimension
//! into per-peer runs, and a 2-D plan is the product of two dimensions.
//!
//! Plans depend only on static descriptors (distributions, group ids,
//! ranges, shifts, index maps), so they are cached per processor in
//! [`fx_core::PlanCache`] (via `Cx::plan_cached`) and replayed: an
//! m-iteration pipeline pays the planning cost once.
//!
//! **Semantics are bit-identical to the legacy paths**: same per-peer
//! buffer contents in the same order, same message schedule (no empty
//! messages, sends ascending by destination physical rank), same
//! virtual-time charges. Debug builds verify every freshly built plan
//! against the legacy per-element enumeration ([`CommSets1::legacy`] et
//! al.), so property tests exercise both implementations at once.

use std::ops::Range;

use fx_core::GroupHandle;
use fx_runtime::Chunk;

use crate::dist::{DimMap, Dist};

// ---------------------------------------------------------------------------
// Strided runs
// ---------------------------------------------------------------------------

/// A strided family of equal-length contiguous runs of local indices:
/// `count` runs of `len` indices, the k-th starting at `start + k*stride`.
///
/// One `Seg` describes e.g. "every q-th element" (len 1, stride q) or a
/// whole contiguous range (count 1) — the two shapes block/cyclic
/// redistributions produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// First index of the first run.
    pub start: usize,
    /// Length of each contiguous run.
    pub len: usize,
    /// Distance between successive run starts.
    pub stride: usize,
    /// Number of runs.
    pub count: usize,
}

impl Seg {
    /// Total number of indices covered.
    #[inline]
    pub fn total(&self) -> usize {
        self.len * self.count
    }
}

/// Total indices covered by a run list.
pub fn segs_total(segs: &[Seg]) -> usize {
    segs.iter().map(Seg::total).sum()
}

/// Iterator over the contiguous `(start, len)` pieces of a run list.
pub fn pieces(segs: &[Seg]) -> impl Iterator<Item = (usize, usize)> + '_ {
    segs.iter()
        .flat_map(|s| (0..s.count).map(move |k| (s.start + k * s.stride, s.len)))
}

/// Copy `total` elements out of `src` along `runs` into a fresh buffer
/// (message packing).
pub fn pack_seg_runs<T: Copy>(src: &[T], runs: &[Seg], total: usize) -> Vec<T> {
    let mut buf = Vec::with_capacity(total);
    for (start, len) in pieces(runs) {
        buf.extend_from_slice(&src[start..start + len]);
    }
    debug_assert_eq!(buf.len(), total);
    buf
}

/// Scatter `buf` into `dst` along `runs` (message unpacking).
pub fn unpack_seg_runs<T: Copy>(dst: &mut [T], runs: &[Seg], buf: &[T]) {
    let mut off = 0;
    for (start, len) in pieces(runs) {
        dst[start..start + len].copy_from_slice(&buf[off..off + len]);
        off += len;
    }
    debug_assert_eq!(off, buf.len());
}

/// Pack elements of `src` along `runs` into a pooled [`Chunk`] — the
/// zero-allocation analogue of [`pack_seg_runs`] (the chunk's storage
/// comes from the sender's buffer pool and is recycled by the receiver).
/// Identical buffer contents and ordering.
pub fn pack_seg_runs_into<T: Copy + Send + 'static>(src: &[T], runs: &[Seg], chunk: &mut Chunk) {
    for (start, len) in pieces(runs) {
        chunk.push_slice(&src[start..start + len]);
    }
}

/// Scatter a received [`Chunk`] into `dst` along `runs` — the chunk
/// analogue of [`unpack_seg_runs`].
pub fn unpack_seg_runs_chunk<T: Copy + Send + 'static>(dst: &mut [T], runs: &[Seg], chunk: &Chunk) {
    let mut off = 0;
    for (start, len) in pieces(runs) {
        chunk.read_into(off, &mut dst[start..start + len]);
        off += len;
    }
    debug_assert_eq!(off, chunk.elems());
}

/// Copy elements from `src` along `s_runs` to `dst` along `d_runs`
/// (the local leg of a redistribution). The two run lists cover the same
/// number of elements; piece boundaries may differ, so chunks are copied
/// at the finer granularity.
pub fn copy_seg_runs<T: Copy>(src: &[T], s_runs: &[Seg], dst: &mut [T], d_runs: &[Seg]) {
    let mut sit = pieces(s_runs);
    let mut dit = pieces(d_runs);
    let (mut sp, mut dp) = (sit.next(), dit.next());
    let (mut so, mut dof) = (0usize, 0usize);
    while let (Some((ss, sl)), Some((ds, dl))) = (sp, dp) {
        let chunk = (sl - so).min(dl - dof);
        dst[ds + dof..ds + dof + chunk].copy_from_slice(&src[ss + so..ss + so + chunk]);
        so += chunk;
        dof += chunk;
        if so == sl {
            sp = sit.next();
            so = 0;
        }
        if dof == dl {
            dp = dit.next();
            dof = 0;
        }
    }
    debug_assert!(sp.is_none() && dp.is_none(), "local run length mismatch");
}

/// Compress a list of contiguous `(start, len)` runs into strided
/// [`Seg`]s: adjacent runs merge, then equal-length runs at a constant
/// stride fold into one `Seg`. List order is kept, so the list need not
/// ascend: a run that steps backwards starts a new `Seg`, and a run
/// repeated in place folds at stride 0.
fn compress(runs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Seg> {
    // Fold one merged run into the output: equal-length runs at a
    // constant stride extend the last `Seg`.
    fn fold(out: &mut Vec<Seg>, (s, l): (usize, usize)) {
        match out.last_mut() {
            Some(seg)
                if seg.len == l
                    && ((seg.count == 1 && s > seg.start)
                        || s == seg.start + seg.count * seg.stride) =>
            {
                if seg.count == 1 {
                    seg.stride = s - seg.start;
                }
                seg.count += 1;
            }
            _ => out.push(Seg { start: s, len: l, stride: 0, count: 1 }),
        }
    }
    let mut out: Vec<Seg> = Vec::new();
    // The run being grown by adjacent pieces, not yet folded.
    let mut pending: Option<(usize, usize)> = None;
    for (s, l) in runs {
        if l == 0 {
            continue;
        }
        match &mut pending {
            Some((ps, pl)) if *ps + *pl == s => *pl += l,
            _ => {
                if let Some(run) = pending.replace((s, l)) {
                    fold(&mut out, run);
                }
            }
        }
    }
    if let Some(run) = pending {
        fold(&mut out, run);
    }
    out
}

// ---------------------------------------------------------------------------
// FALLS-style ownership segments and intersection
// ---------------------------------------------------------------------------

/// Append the ascending segments of `{ g in [lo, hi) : 0 <= g+delta < n
/// and map.owner(g+delta) == c }` — the global indices whose *shifted*
/// image lives on grid coordinate `c`. Each emitted segment lies within a
/// single ownership block of `map`, so its local image is contiguous.
pub fn owned_segments(
    map: &DimMap,
    c: usize,
    delta: isize,
    lo: usize,
    hi: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if lo >= hi || map.n == 0 {
        return;
    }
    let n = map.n as isize;
    let (lo_i, hi_i) = (lo as isize, hi as isize);
    let mut push_clipped = |a: isize, e: isize| {
        let a = a.max(lo_i);
        let e = e.min(hi_i);
        if e > a {
            out.push((a as usize, (e - a) as usize));
        }
    };
    // (base, blen, per): first block [base, base+blen), repeating at +per.
    let (base, blen, per) = match map.dist {
        Dist::Star => {
            push_clipped(-delta, n - delta);
            return;
        }
        Dist::Block => {
            let b = map.n.div_ceil(map.q).max(1) as isize;
            let start = c as isize * b;
            push_clipped(start - delta, (start + b).min(n) - delta);
            return;
        }
        Dist::Cyclic if map.q == 1 => {
            push_clipped(-delta, n - delta);
            return;
        }
        Dist::BlockCyclic(_) if map.q == 1 => {
            push_clipped(-delta, n - delta);
            return;
        }
        Dist::Cyclic => (c as isize, 1isize, map.q as isize),
        Dist::BlockCyclic(b) => {
            (c as isize * b as isize, b as isize, (b * map.q) as isize)
        }
    };
    // First block whose translated image ends after `lo`:
    // k*per + base + blen - delta > lo  ⇔  k > (lo + delta - base - blen)/per.
    let k0 = ((lo_i + delta - base - blen).div_euclid(per) + 1).max(0);
    let mut k = k0;
    loop {
        let s = k * per + base;
        if s >= n || s - delta >= hi_i {
            break;
        }
        push_clipped(s - delta, (s + blen).min(n) - delta);
        k += 1;
    }
}

/// Two-pointer intersection of two ascending disjoint segment lists.
fn intersect_segs(a: &[(usize, usize)], b: &[(usize, usize)], out: &mut Vec<(usize, usize)>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (as_, al) = a[i];
        let (bs, bl) = b[j];
        let (ae, be) = (as_ + al, bs + bl);
        let s = as_.max(bs);
        let e = ae.min(be);
        if e > s {
            out.push((s, e - s));
        }
        if ae <= be {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Convert ascending global segments (each within one ownership block of
/// `map` after shifting by `delta`) to compressed local runs.
pub fn local_runs(map: &DimMap, delta: isize, segs: &[(usize, usize)]) -> Vec<Seg> {
    compress(segs.iter().map(|&(s, l)| (map.local_of((s as isize + delta) as usize), l)))
}

// ---------------------------------------------------------------------------
// Structured per-dimension index maps
// ---------------------------------------------------------------------------

/// The index map of one dimension of a separable remap statement
/// `dst[i] = src[f(i)]`: a small hashable value, so the statement's
/// communication sets can be planned from metadata and cached like any
/// other plan's. `n` below is the source extent of the dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Remap {
    /// `f(i) = i`.
    Identity,
    /// `f(i) = i + δ`; every image must lie inside the source extent.
    Shift(isize),
    /// `f(i) = clamp(i + δ, 0, n − 1)`: a shift whose overhang repeats
    /// the edge element (Stereo's disparity shift `min(c + δ, n − 1)`).
    ClampShift(isize),
    /// `f(i) = (i + δ) mod n` (HPF `CSHIFT`).
    Cyclic(isize),
}

impl Remap {
    /// Source index of destination index `i` over a source extent `n`;
    /// `None` when it falls outside `0..n`.
    pub fn apply(self, i: usize, n: usize) -> Option<usize> {
        let (i, n) = (isize::try_from(i).ok()?, isize::try_from(n).ok()?);
        if n == 0 {
            return None;
        }
        let s = match self {
            Remap::Identity => i,
            Remap::Shift(d) => i.checked_add(d)?,
            Remap::ClampShift(d) => i.checked_add(d)?.clamp(0, n - 1),
            Remap::Cyclic(d) => i.checked_add(d)?.rem_euclid(n),
        };
        (0..n).contains(&s).then_some(s as usize)
    }

    /// Validate the map over destination extent `dn` / source extent `sn`
    /// and cut it into maximal [`Piece`]s, ascending by destination
    /// index. The one O(extent) step of a structured plan build, and where
    /// an out-of-range map is rejected — in every build profile.
    fn cut(self, dn: usize, sn: usize, stmt: &str, dim: &str) -> Vec<Piece> {
        let mut out: Vec<Piece> = Vec::new();
        for i in 0..dn {
            let Some(s) = self.apply(i, sn) else {
                panic!(
                    "{stmt}: {dim} map {self:?} sends destination index {i} outside \
                     the source extent {sn}"
                );
            };
            match out.last_mut() {
                Some(p) if p.len == 1 && (s == p.src || s == p.src + 1) => {
                    p.step = s - p.src;
                    p.len = 2;
                }
                Some(p) if p.len > 1 && s == p.src + p.len * p.step => p.len += 1,
                _ => out.push(Piece { dst: i, len: 1, src: s, step: 1 }),
            }
        }
        out
    }
}

/// Destination indices `dst..dst+len` of one dimension whose source
/// indices are `src, src+step, …`: `step` 1 is an affine stretch, `step`
/// 0 one source index read `len` times (the clamped tail of
/// [`Remap::ClampShift`] — a many-to-one map).
#[derive(Debug, Clone, Copy)]
struct Piece {
    dst: usize,
    len: usize,
    src: usize,
    step: usize,
}

/// Which side of the statement the planning processor stands on.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// It owns source indices; peers are destination grid coordinates and
    /// the runs index its source storage.
    Send,
    /// It owns destination indices; peers are source grid coordinates and
    /// the runs index its destination storage.
    Recv,
}

/// One dimension of a structured remap, seen from grid coordinate `coord`
/// of the `role` side: for every peer coordinate it shares indices with,
/// `(peer coordinate, index count, local runs)`, ascending by peer. Runs
/// follow ascending *destination* index, so a source run may step
/// backwards (a cyclic wrap) or repeat an index (a clamped tail).
///
/// My own indices come from the FALLS segments of my map and are split at
/// the peer map's block boundaries: O(extent/q + runs), no per-element
/// owner arithmetic.
fn dim_runs(
    cut: &[Piece],
    src: &DimMap,
    dst: &DimMap,
    role: Role,
    coord: usize,
) -> Vec<(usize, usize, Vec<Seg>)> {
    // `(peer coordinate, local start, len)` in ascending destination order.
    let mut shares: Vec<(usize, usize, usize)> = Vec::new();
    let mut mine: Vec<(usize, usize)> = Vec::new();
    for p in cut {
        let (lo, hi) = (p.dst, p.dst + p.len);
        let src_at = |i: usize| p.src + (i - p.dst) * p.step;
        mine.clear();
        match role {
            Role::Send => {
                // Destination indices whose source index I own ...
                if p.step == 1 {
                    owned_segments(src, coord, p.src as isize - p.dst as isize, lo, hi, &mut mine);
                } else if src.owner(p.src) == coord {
                    mine.push((lo, p.len));
                }
                // ... split where the destination's owner changes.
                for &(s, l) in &mine {
                    let mut i = s;
                    while i < s + l {
                        let e = dst.block_end(i).min(s + l);
                        let (peer, slot) = (dst.owner(i), src.local_of(src_at(i)));
                        if p.step == 1 {
                            shares.push((peer, slot, e - i));
                        } else {
                            shares.extend(std::iter::repeat_n((peer, slot, 1), e - i));
                        }
                        i = e;
                    }
                }
            }
            Role::Recv => {
                // Destination indices I own, split where the source's
                // owner changes (never, inside a constant piece).
                owned_segments(dst, coord, 0, lo, hi, &mut mine);
                for &(s, l) in &mine {
                    let mut i = s;
                    while i < s + l {
                        let same_block = if p.step == 1 { src.block_end(src_at(i)) - src_at(i) } else { l };
                        let e = (i + same_block).min(s + l);
                        shares.push((src.owner(src_at(i)), dst.local_of(i), e - i));
                        i = e;
                    }
                }
            }
        }
    }
    // Group by peer; the stable sort keeps each peer's destination order.
    shares.sort_by_key(|&(peer, ..)| peer);
    shares
        .chunk_by(|a, b| a.0 == b.0)
        .map(|g| {
            let runs = compress(g.iter().map(|&(_, s, l)| (s, l)));
            (g[0].0, g.iter().map(|&(.., l)| l).sum(), runs)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1-D plans
// ---------------------------------------------------------------------------

/// One peer's share of a plan: strided local-index runs covering `total`
/// elements, packed/unpacked in run order (ascending destination global
/// index — the legacy element order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerRuns {
    /// Physical rank of the peer.
    pub peer: usize,
    /// Total element count exchanged with this peer.
    pub total: usize,
    /// Local-index runs (into src storage for sends, dst storage for recvs).
    pub runs: Vec<Seg>,
}

/// Placement descriptor of one side of a 1-D redistribution.
#[derive(Debug, Clone)]
pub struct Side1 {
    /// The group the array lives on.
    pub group: GroupHandle,
    /// Index map (`Star` with `q == 1` for replicated arrays).
    pub map: DimMap,
    /// Fully replicated array (every member holds the whole extent)?
    pub replicated: bool,
}

impl Side1 {
    /// Physical processor serving global data to destination processor
    /// `dp` (the replicated-source rule of the legacy path).
    fn serve(&self, dp: usize) -> usize {
        debug_assert!(self.replicated);
        if self.group.contains_phys(dp) {
            dp
        } else {
            self.group.phys(dp % self.group.len())
        }
    }
}

/// Cache key for a 1-D shifted-copy plan (`dst[i] = src[i+delta]` over a
/// range). Group ids pin the member lists; the maps pin the index sets;
/// together they determine the plan for a given processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key1 {
    /// Source group id.
    pub sgid: u64,
    /// Source index map.
    pub smap: DimMap,
    /// Source replicated?
    pub srep: bool,
    /// Destination group id.
    pub dgid: u64,
    /// Destination index map.
    pub dmap: DimMap,
    /// Destination replicated?
    pub drep: bool,
    /// Destination index range `(start, end)`.
    pub range: (usize, usize),
    /// Shift: `dst[i] = src[i + delta]`.
    pub delta: isize,
}

/// A 1-D communication plan for one processor: who to send to / receive
/// from, as strided local runs, plus the purely local leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan1 {
    /// Outgoing messages, ascending by destination physical rank.
    pub sends: Vec<PeerRuns>,
    /// Incoming messages, ascending by source physical rank.
    pub recvs: Vec<PeerRuns>,
    /// Local-leg source runs (into src storage).
    pub local_src: Vec<Seg>,
    /// Local-leg destination runs (into dst storage).
    pub local_dst: Vec<Seg>,
    /// Local-leg element count.
    pub local_total: usize,
}

impl Plan1 {
    /// Build the plan for processor `me`: `dst[i] = src[i + delta]` for
    /// `i` in `range`. Debug builds verify the result against the legacy
    /// per-element enumeration.
    pub fn build(me: usize, s: &Side1, d: &Side1, range: Range<usize>, delta: isize) -> Plan1 {
        let mut plan = Plan1 {
            sends: Vec::new(),
            recvs: Vec::new(),
            local_src: Vec::new(),
            local_dst: Vec::new(),
            local_total: 0,
        };
        let (lo, hi) = (range.start, range.end);
        let mut d_segs: Vec<(usize, usize)> = Vec::new();
        let mut inter: Vec<(usize, usize)> = Vec::new();

        // --- Sender role -------------------------------------------------
        let my_src_coord = if s.replicated {
            s.group.contains_phys(me).then_some(0)
        } else {
            s.group.vrank_of_phys(me)
        };
        if let Some(sc) = my_src_coord {
            let mut my_src: Vec<(usize, usize)> = Vec::new();
            owned_segments(&s.map, sc, delta, lo, hi, &mut my_src);
            // Destination targets: every member for replicated dst, one
            // grid coordinate otherwise. Ownership set of a replicated
            // member is its whole (Star) map.
            let targets: Vec<(usize, usize)> = if d.replicated {
                d.group.members().iter().map(|&p| (p, 0)).collect()
            } else {
                (0..d.map.q).map(|c| (d.group.phys(c), c)).collect()
            };
            for (dp, dc) in targets {
                if s.replicated && s.serve(dp) != me {
                    continue;
                }
                d_segs.clear();
                owned_segments(&d.map, dc, 0, lo, hi, &mut d_segs);
                inter.clear();
                intersect_segs(&my_src, &d_segs, &mut inter);
                if inter.is_empty() {
                    continue;
                }
                if dp == me {
                    plan.local_src = local_runs(&s.map, delta, &inter);
                    plan.local_dst = local_runs(&d.map, 0, &inter);
                    plan.local_total = inter.iter().map(|&(_, l)| l).sum();
                } else {
                    plan.sends.push(PeerRuns {
                        peer: dp,
                        total: inter.iter().map(|&(_, l)| l).sum(),
                        runs: local_runs(&s.map, delta, &inter),
                    });
                }
            }
            plan.sends.sort_by_key(|p| p.peer);
        }

        // --- Receiver role -----------------------------------------------
        let my_dst_coord = if d.replicated {
            d.group.contains_phys(me).then_some(0)
        } else {
            d.group.vrank_of_phys(me)
        };
        if let Some(dc) = my_dst_coord {
            let mut my_dst: Vec<(usize, usize)> = Vec::new();
            owned_segments(&d.map, dc, 0, lo, hi, &mut my_dst);
            let sources: Vec<usize> = if s.replicated {
                vec![s.serve(me)]
            } else {
                (0..s.map.q).map(|c| s.group.phys(c)).collect()
            };
            let mut s_segs: Vec<(usize, usize)> = Vec::new();
            for (cs, &sp) in sources.iter().enumerate() {
                if sp == me {
                    continue; // local leg handled by the sender role
                }
                s_segs.clear();
                owned_segments(&s.map, if s.replicated { 0 } else { cs }, delta, lo, hi, &mut s_segs);
                inter.clear();
                intersect_segs(&my_dst, &s_segs, &mut inter);
                if inter.is_empty() {
                    continue;
                }
                plan.recvs.push(PeerRuns {
                    peer: sp,
                    total: inter.iter().map(|&(_, l)| l).sum(),
                    runs: local_runs(&d.map, 0, &inter),
                });
            }
            plan.recvs.sort_by_key(|p| p.peer);
        }

        #[cfg(debug_assertions)]
        {
            let reference = CommSets1::legacy(me, s, d, lo..hi, Remap::Shift(delta));
            let got = CommSets1::of_plan(&plan);
            debug_assert_eq!(got, reference, "plan1 disagrees with legacy enumeration");
        }
        plan
    }

    /// Build the plan of the whole-array structured remap
    /// `dst[i] = src[remap(i)]` for processor `me`. Neither side may be
    /// replicated (such statements take the closure fallback). Panics if
    /// the map leaves the source extent.
    pub fn build_remap(me: usize, s: &Side1, d: &Side1, remap: Remap) -> Plan1 {
        assert!(!s.replicated && !d.replicated, "structured remaps plan distributed arrays only");
        let cut = remap.cut(d.map.n, s.map.n, "remap1", "index");
        let mut plan = Plan1 {
            sends: Vec::new(),
            recvs: Vec::new(),
            local_src: Vec::new(),
            local_dst: Vec::new(),
            local_total: 0,
        };
        if let Some(sc) = s.group.vrank_of_phys(me) {
            for (dc, total, runs) in dim_runs(&cut, &s.map, &d.map, Role::Send, sc) {
                let peer = d.group.phys(dc);
                if peer == me {
                    plan.local_src = runs;
                    plan.local_total = total;
                } else {
                    plan.sends.push(PeerRuns { peer, total, runs });
                }
            }
            plan.sends.sort_by_key(|p| p.peer);
        }
        if let Some(dc) = d.group.vrank_of_phys(me) {
            for (sc, total, runs) in dim_runs(&cut, &s.map, &d.map, Role::Recv, dc) {
                let peer = s.group.phys(sc);
                if peer == me {
                    plan.local_dst = runs;
                } else {
                    plan.recvs.push(PeerRuns { peer, total, runs });
                }
            }
            plan.recvs.sort_by_key(|p| p.peer);
        }

        #[cfg(debug_assertions)]
        {
            let reference = CommSets1::legacy(me, s, d, 0..d.map.n, remap);
            let got = CommSets1::of_plan(&plan);
            debug_assert_eq!(got, reference, "remap plan disagrees with legacy enumeration");
        }
        plan
    }
}

/// Cache key for a 1-D structured remap plan (`dst[i] = src[remap(i)]`
/// over the whole destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRemap1 {
    /// Source group id.
    pub sgid: u64,
    /// Source index map.
    pub smap: DimMap,
    /// Destination group id.
    pub dgid: u64,
    /// Destination index map.
    pub dmap: DimMap,
    /// The index map of the statement.
    pub remap: Remap,
}

// ---------------------------------------------------------------------------
// Reference enumeration (verification + benchmarking)
// ---------------------------------------------------------------------------

/// Fully expanded 1-D communication sets — the legacy per-element view of
/// a plan, used for debug verification, property tests, and as the
/// "legacy" leg of the redistribution microbenchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSets1 {
    /// `(peer, src local slots in send order)`, ascending peer.
    pub sends: Vec<(usize, Vec<usize>)>,
    /// `(peer, dst local slots in receive order)`, ascending peer.
    pub recvs: Vec<(usize, Vec<usize>)>,
    /// `(src slot, dst slot)` local-leg pairs in element order.
    pub local: Vec<(usize, usize)>,
}

impl CommSets1 {
    /// The legacy per-element enumeration: walk every global index of the
    /// range, resolve owners through the distribution metadata, bucket by
    /// peer — exactly the loop `copy_remap1_range` runs with `f = remap`.
    pub fn legacy(me: usize, s: &Side1, d: &Side1, range: Range<usize>, remap: Remap) -> CommSets1 {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut local = Vec::new();
        if !s.group.contains_phys(me) && !d.group.contains_phys(me) {
            return CommSets1 { sends: Vec::new(), recvs: Vec::new(), local };
        }
        let slot = |side: &Side1, gi: usize| -> usize {
            if side.replicated { gi } else { side.map.local_of(gi) }
        };
        for gi in range {
            // Indices whose image leaves the source extent move nothing.
            let Some(sgi) = remap.apply(gi, s.map.n) else { continue };
            let dsts: Vec<usize> = if d.replicated {
                d.group.members().to_vec()
            } else {
                vec![d.group.phys(d.map.owner(gi))]
            };
            for dp in dsts {
                let sp = if s.replicated {
                    s.serve(dp)
                } else {
                    s.group.phys(s.map.owner(sgi))
                };
                if sp == me {
                    if dp == me {
                        local.push((slot(s, sgi), slot(d, gi)));
                    } else {
                        sends.entry(dp).or_default().push(slot(s, sgi));
                    }
                } else if dp == me {
                    recvs.entry(sp).or_default().push(slot(d, gi));
                }
            }
        }
        CommSets1 {
            sends: sends.into_iter().collect(),
            recvs: recvs.into_iter().collect(),
            local,
        }
    }

    /// Expand a plan's strided runs back to per-element sets.
    pub fn of_plan(plan: &Plan1) -> CommSets1 {
        let expand = |runs: &[Seg]| -> Vec<usize> {
            pieces(runs).flat_map(|(s, l)| s..s + l).collect()
        };
        CommSets1 {
            sends: plan.sends.iter().map(|p| (p.peer, expand(&p.runs))).collect(),
            recvs: plan.recvs.iter().map(|p| (p.peer, expand(&p.runs))).collect(),
            local: expand(&plan.local_src)
                .into_iter()
                .zip(expand(&plan.local_dst))
                .collect(),
        }
    }
}

/// Expand a run list to individual indices (test/verification helper).
pub fn expand_runs(runs: &[Seg]) -> Vec<usize> {
    pieces(runs).flat_map(|(s, l)| s..s + l).collect()
}

// ---------------------------------------------------------------------------
// 2-D plans
// ---------------------------------------------------------------------------

/// Placement descriptor of one side of a 2-D redistribution. The grid is
/// implied by the maps: `rmap.q x cmap.q`, virtual rank `v` at
/// `(v / cmap.q, v % cmap.q)`.
#[derive(Debug, Clone)]
pub struct Side2 {
    /// The group the matrix lives on.
    pub group: GroupHandle,
    /// Row index map.
    pub rmap: DimMap,
    /// Column index map.
    pub cmap: DimMap,
}

impl Side2 {
    fn coord_of(&self, me: usize) -> Option<(usize, usize)> {
        self.group
            .vrank_of_phys(me)
            .map(|v| (v / self.cmap.q, v % self.cmap.q))
    }

    fn phys(&self, r: usize, c: usize) -> usize {
        self.group.phys(r * self.cmap.q + c)
    }
}

/// One peer's share of a 2-D plan: the element set is the cross product
/// of the `outer` and `inner` local-index runs, visited outer-major (the
/// destination's row-major order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer2 {
    /// Physical rank of the peer.
    pub peer: usize,
    /// Total element count (`|outer| * |inner|`).
    pub total: usize,
    /// Outer-dimension local runs.
    pub outer: Vec<Seg>,
    /// Inner-dimension local runs.
    pub inner: Vec<Seg>,
}

/// The local leg of a 2-D plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Local2 {
    /// Source outer/inner local runs.
    pub s_outer: Vec<Seg>,
    /// Source inner local runs.
    pub s_inner: Vec<Seg>,
    /// Destination outer local runs.
    pub d_outer: Vec<Seg>,
    /// Destination inner local runs.
    pub d_inner: Vec<Seg>,
    /// Element count.
    pub total: usize,
}

/// Cache key for a 2-D assignment/transposition plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key2 {
    /// Source group id.
    pub sgid: u64,
    /// Source row map.
    pub s_rmap: DimMap,
    /// Source column map.
    pub s_cmap: DimMap,
    /// Destination group id.
    pub dgid: u64,
    /// Destination row map.
    pub d_rmap: DimMap,
    /// Destination column map.
    pub d_cmap: DimMap,
    /// Transposition (`dst[r][c] = src[c][r]`) instead of assignment?
    pub transposed: bool,
    /// Index map of the destination's row dimension.
    pub row: Remap,
    /// Index map of the destination's column dimension.
    pub col: Remap,
}

/// A 2-D communication plan: `dst[r][c] = src[row(r)][col(c)]`, read
/// through the transposed view of `src` when `transposed` (plain
/// assignment and transposition are the identity maps).
///
/// For sends of a transposed plan, `outer` runs index the source's
/// *column* dimension and `inner` runs its *row* dimension, so packing
/// reads `src[i * pitch + o]` — a strided column walk that still emits
/// values in the receiver's row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan2 {
    /// Outgoing messages, ascending by destination physical rank.
    pub sends: Vec<Peer2>,
    /// Incoming messages, ascending by source physical rank.
    pub recvs: Vec<Peer2>,
    /// The purely local leg, if any.
    pub local: Option<Local2>,
    /// Row pitch of my source tile (0 if not a source member).
    pub src_pitch: usize,
    /// Row pitch of my destination tile (0 if not a destination member).
    pub dst_pitch: usize,
    /// Transposition plan?
    pub transposed: bool,
}

/// Pack the cross product `outer x inner` of a row-major tile into a
/// fresh buffer. With `transposed`, `outer` indexes columns and `inner`
/// rows (`src[i * pitch + o]`).
pub fn pack2<T: Copy>(
    src: &[T],
    pitch: usize,
    outer: &[Seg],
    inner: &[Seg],
    total: usize,
    transposed: bool,
) -> Vec<T> {
    let mut buf = Vec::with_capacity(total);
    for (os, ol) in pieces(outer) {
        for o in os..os + ol {
            if transposed {
                for (is_, il) in pieces(inner) {
                    for i in is_..is_ + il {
                        buf.push(src[i * pitch + o]);
                    }
                }
            } else {
                let row = o * pitch;
                for (is_, il) in pieces(inner) {
                    buf.extend_from_slice(&src[row + is_..row + is_ + il]);
                }
            }
        }
    }
    debug_assert_eq!(buf.len(), total);
    buf
}

/// Scatter a packed buffer into the cross product `outer x inner` of a
/// row-major tile (destination side — always row-major orientation).
pub fn unpack2<T: Copy>(dst: &mut [T], pitch: usize, outer: &[Seg], inner: &[Seg], buf: &[T]) {
    let mut off = 0;
    for (os, ol) in pieces(outer) {
        for o in os..os + ol {
            let row = o * pitch;
            for (is_, il) in pieces(inner) {
                dst[row + is_..row + is_ + il].copy_from_slice(&buf[off..off + il]);
                off += il;
            }
        }
    }
    debug_assert_eq!(off, buf.len());
}

/// Pack the cross product `outer x inner` of a row-major tile into a
/// pooled [`Chunk`] — the zero-allocation analogue of [`pack2`], with
/// identical buffer contents and ordering.
pub fn pack2_into<T: Copy + Send + 'static>(
    src: &[T],
    pitch: usize,
    outer: &[Seg],
    inner: &[Seg],
    transposed: bool,
    chunk: &mut Chunk,
) {
    for (os, ol) in pieces(outer) {
        for o in os..os + ol {
            if transposed {
                for (is_, il) in pieces(inner) {
                    for i in is_..is_ + il {
                        chunk.push_slice(&src[i * pitch + o..i * pitch + o + 1]);
                    }
                }
            } else {
                let row = o * pitch;
                for (is_, il) in pieces(inner) {
                    chunk.push_slice(&src[row + is_..row + is_ + il]);
                }
            }
        }
    }
}

/// Scatter a received [`Chunk`] into the cross product `outer x inner` of
/// a row-major tile — the chunk analogue of [`unpack2`].
pub fn unpack2_chunk<T: Copy + Send + 'static>(
    dst: &mut [T],
    pitch: usize,
    outer: &[Seg],
    inner: &[Seg],
    chunk: &Chunk,
) {
    let mut off = 0;
    for (os, ol) in pieces(outer) {
        for o in os..os + ol {
            let row = o * pitch;
            for (is_, il) in pieces(inner) {
                chunk.read_into(off, &mut dst[row + is_..row + is_ + il]);
                off += il;
            }
        }
    }
    debug_assert_eq!(off, chunk.elems());
}

impl Plan2 {
    /// Build the 2-D plan for processor `me`: the product of the two
    /// per-dimension results of [`dim_runs`]. Shapes are implied by the
    /// maps (`d_rmap.n x d_cmap.n` destination elements). Panics if an
    /// index map leaves the source extent; debug builds verify against
    /// the legacy per-element enumeration.
    pub fn build(me: usize, s: &Side2, d: &Side2, transposed: bool, (row, col): (Remap, Remap)) -> Plan2 {
        let my_s = s.coord_of(me);
        let my_d = d.coord_of(me);
        let mut plan = Plan2 {
            sends: Vec::new(),
            recvs: Vec::new(),
            local: None,
            src_pitch: my_s.map_or(0, |(_, b)| s.cmap.local_len(b)),
            dst_pitch: my_d.map_or(0, |(_, dc)| d.cmap.local_len(dc)),
            transposed,
        };

        // The source-side maps governing destination row/col indices:
        // rows of dst come from src rows (identity) or src cols
        // (transposed), and symmetrically for columns.
        let (srow_map, scol_map) = if transposed { (&s.cmap, &s.rmap) } else { (&s.rmap, &s.cmap) };
        let row_cut = row.cut(d.rmap.n, srow_map.n, "remap2", "row");
        let col_cut = col.cut(d.cmap.n, scol_map.n, "remap2", "column");
        // One peer's share: the product of a row result and a column result.
        type Dim = (usize, usize, Vec<Seg>);
        let product = |peer, (_, nr, outer): &Dim, (_, nc, inner): &Dim| Peer2 {
            peer,
            total: nr * nc,
            outer: outer.clone(),
            inner: inner.clone(),
        };
        let (mut s_local, mut d_local) = (None, None);

        // --- Sender role -------------------------------------------------
        // My src coordinate along the destination's axes.
        if let Some((ra, ca)) = my_s.map(|(a, b)| if transposed { (b, a) } else { (a, b) }) {
            let rows = dim_runs(&row_cut, srow_map, &d.rmap, Role::Send, ra);
            let cols = dim_runs(&col_cut, scol_map, &d.cmap, Role::Send, ca);
            for r in &rows {
                for c in &cols {
                    let p = product(d.phys(r.0, c.0), r, c);
                    if p.peer == me {
                        s_local = Some(p);
                    } else {
                        plan.sends.push(p);
                    }
                }
            }
            plan.sends.sort_by_key(|p| p.peer);
        }

        // --- Receiver role -----------------------------------------------
        if let Some((dr, dc)) = my_d {
            let rows = dim_runs(&row_cut, srow_map, &d.rmap, Role::Recv, dr);
            let cols = dim_runs(&col_cut, scol_map, &d.cmap, Role::Recv, dc);
            for r in &rows {
                for c in &cols {
                    // Translate axis coords back to the src grid layout.
                    let (ga, gb) = if transposed { (c.0, r.0) } else { (r.0, c.0) };
                    let p = product(s.phys(ga, gb), r, c);
                    if p.peer == me {
                        d_local = Some(p);
                    } else {
                        plan.recvs.push(p);
                    }
                }
            }
            plan.recvs.sort_by_key(|p| p.peer);
        }

        // Both roles see the local leg; each contributes its own side's runs.
        if let (Some(sl), Some(dl)) = (s_local, d_local) {
            debug_assert_eq!(sl.total, dl.total, "local leg sides disagree");
            plan.local = Some(Local2 {
                s_outer: sl.outer,
                s_inner: sl.inner,
                d_outer: dl.outer,
                d_inner: dl.inner,
                total: sl.total,
            });
        }

        #[cfg(debug_assertions)]
        {
            let reference = CommSets1::legacy2(me, s, d, transposed, (row, col));
            let got = CommSets1::of_plan2(&plan);
            debug_assert_eq!(got, reference, "plan2 disagrees with legacy enumeration");
        }
        plan
    }
}

impl CommSets1 {
    /// Legacy per-element enumeration for the 2-D case (the
    /// `copy_remap2_with` loop with `f = (row, col)`, through the
    /// transposed view of `src` when `transposed`).
    pub fn legacy2(
        me: usize,
        s: &Side2,
        d: &Side2,
        transposed: bool,
        (row, col): (Remap, Remap),
    ) -> CommSets1 {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut local = Vec::new();
        if !s.group.contains_phys(me) && !d.group.contains_phys(me) {
            return CommSets1 { sends: Vec::new(), recvs: Vec::new(), local };
        }
        let s_pitch = s
            .coord_of(me)
            .map_or(0, |(_, b)| s.cmap.local_len(b));
        let d_pitch = d
            .coord_of(me)
            .map_or(0, |(_, dc)| d.cmap.local_len(dc));
        for r in 0..d.rmap.n {
            for c in 0..d.cmap.n {
                let (srow_n, scol_n) = if transposed { (s.cmap.n, s.rmap.n) } else { (s.rmap.n, s.cmap.n) };
                let (Some(fr), Some(fc)) = (row.apply(r, srow_n), col.apply(c, scol_n)) else {
                    panic!("remap ({row:?}, {col:?}) sends ({r}, {c}) outside the source");
                };
                let (sr, sc) = if transposed { (fc, fr) } else { (fr, fc) };
                let sp = s.phys(s.rmap.owner(sr), s.cmap.owner(sc));
                let dp = d.phys(d.rmap.owner(r), d.cmap.owner(c));
                let s_slot = || s.rmap.local_of(sr) * s_pitch + s.cmap.local_of(sc);
                let d_slot = || d.rmap.local_of(r) * d_pitch + d.cmap.local_of(c);
                if sp == me {
                    if dp == me {
                        local.push((s_slot(), d_slot()));
                    } else {
                        sends.entry(dp).or_default().push(s_slot());
                    }
                } else if dp == me {
                    recvs.entry(sp).or_default().push(d_slot());
                }
            }
        }
        CommSets1 {
            sends: sends.into_iter().collect(),
            recvs: recvs.into_iter().collect(),
            local,
        }
    }

    /// Expand a 2-D plan back to per-element flat-slot sets.
    pub fn of_plan2(plan: &Plan2) -> CommSets1 {
        let cross = |outer: &[Seg], inner: &[Seg], pitch: usize, transposed: bool| -> Vec<usize> {
            let mut out = Vec::new();
            for o in expand_runs(outer) {
                for i in expand_runs(inner) {
                    out.push(if transposed { i * pitch + o } else { o * pitch + i });
                }
            }
            out
        };
        let local = plan.local.as_ref().map_or(Vec::new(), |l| {
            cross(&l.s_outer, &l.s_inner, plan.src_pitch, plan.transposed)
                .into_iter()
                .zip(cross(&l.d_outer, &l.d_inner, plan.dst_pitch, false))
                .collect()
        });
        CommSets1 {
            sends: plan
                .sends
                .iter()
                .map(|p| (p.peer, cross(&p.outer, &p.inner, plan.src_pitch, plan.transposed)))
                .collect(),
            recvs: plan
                .recvs
                .iter()
                .map(|p| (p.peer, cross(&p.outer, &p.inner, plan.dst_pitch, false)))
                .collect(),
            local,
        }
    }
}

// ---------------------------------------------------------------------------
// 3-D plans
// ---------------------------------------------------------------------------

/// Placement descriptor of one side of a 3-D assignment. The grid is
/// implied by the maps (`maps[k].q`), virtual rank `v` at
/// `(v / (p1*p2), (v / p2) % p1, v % p2)`.
#[derive(Debug, Clone)]
pub struct Side3 {
    /// The group the array lives on.
    pub group: GroupHandle,
    /// Per-dimension index maps.
    pub maps: [DimMap; 3],
}

impl Side3 {
    fn coord_of(&self, me: usize) -> Option<(usize, usize, usize)> {
        let (p1, p2) = (self.maps[1].q, self.maps[2].q);
        self.group
            .vrank_of_phys(me)
            .map(|v| (v / (p1 * p2), (v / p2) % p1, v % p2))
    }

    fn phys(&self, c0: usize, c1: usize, c2: usize) -> usize {
        let (p1, p2) = (self.maps[1].q, self.maps[2].q);
        self.group.phys(c0 * p1 * p2 + c1 * p2 + c2)
    }
}

/// One peer's share of a 3-D plan: the cross product of the three
/// per-dimension run lists, visited dim-0-major (the destination's
/// row-major order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer3 {
    /// Physical rank of the peer.
    pub peer: usize,
    /// Total element count (product of the three dimension counts).
    pub total: usize,
    /// Per-dimension local runs.
    pub dims: [Vec<Seg>; 3],
}

/// Cache key for a 3-D assignment plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key3 {
    /// Source group id.
    pub sgid: u64,
    /// Source per-dimension maps.
    pub smaps: [DimMap; 3],
    /// Destination group id.
    pub dgid: u64,
    /// Destination per-dimension maps.
    pub dmaps: [DimMap; 3],
}

/// A 3-D communication plan (`dst = src`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan3 {
    /// Outgoing messages, ascending by destination physical rank.
    pub sends: Vec<Peer3>,
    /// Incoming messages, ascending by source physical rank.
    pub recvs: Vec<Peer3>,
    /// Local leg: source runs, destination runs, element count.
    pub local: Option<(Box<Peer3>, Box<Peer3>)>,
    /// My source tile pitches `(l1, l2)` (0 if not a source member).
    pub src_pitch: (usize, usize),
    /// My destination tile pitches `(l1, l2)`.
    pub dst_pitch: (usize, usize),
}

/// Pack the cross product of three run lists out of a row-major
/// `_ x l1 x l2` tile.
pub fn pack3<T: Copy>(src: &[T], (l1, l2): (usize, usize), dims: &[Vec<Seg>; 3], total: usize) -> Vec<T> {
    let mut buf = Vec::with_capacity(total);
    for e0 in expand_runs(&dims[0]) {
        for e1 in expand_runs(&dims[1]) {
            let base = (e0 * l1 + e1) * l2;
            for (s, l) in pieces(&dims[2]) {
                buf.extend_from_slice(&src[base + s..base + s + l]);
            }
        }
    }
    debug_assert_eq!(buf.len(), total);
    buf
}

/// Scatter a packed buffer into the cross product of three run lists of a
/// row-major tile.
pub fn unpack3<T: Copy>(dst: &mut [T], (l1, l2): (usize, usize), dims: &[Vec<Seg>; 3], buf: &[T]) {
    let mut off = 0;
    for e0 in expand_runs(&dims[0]) {
        for e1 in expand_runs(&dims[1]) {
            let base = (e0 * l1 + e1) * l2;
            for (s, l) in pieces(&dims[2]) {
                dst[base + s..base + s + l].copy_from_slice(&buf[off..off + l]);
                off += l;
            }
        }
    }
    debug_assert_eq!(off, buf.len());
}

/// Pack the cross product of three run lists out of a row-major tile
/// into a pooled [`Chunk`] — the zero-allocation analogue of [`pack3`],
/// with identical buffer contents and ordering.
pub fn pack3_into<T: Copy + Send + 'static>(
    src: &[T],
    (l1, l2): (usize, usize),
    dims: &[Vec<Seg>; 3],
    chunk: &mut Chunk,
) {
    for e0 in expand_runs(&dims[0]) {
        for e1 in expand_runs(&dims[1]) {
            let base = (e0 * l1 + e1) * l2;
            for (s, l) in pieces(&dims[2]) {
                chunk.push_slice(&src[base + s..base + s + l]);
            }
        }
    }
}

/// Scatter a received [`Chunk`] into the cross product of three run lists
/// of a row-major tile — the chunk analogue of [`unpack3`].
pub fn unpack3_chunk<T: Copy + Send + 'static>(
    dst: &mut [T],
    (l1, l2): (usize, usize),
    dims: &[Vec<Seg>; 3],
    chunk: &Chunk,
) {
    let mut off = 0;
    for e0 in expand_runs(&dims[0]) {
        for e1 in expand_runs(&dims[1]) {
            let base = (e0 * l1 + e1) * l2;
            for (s, l) in pieces(&dims[2]) {
                chunk.read_into(off, &mut dst[base + s..base + s + l]);
                off += l;
            }
        }
    }
    debug_assert_eq!(off, chunk.elems());
}

impl Plan3 {
    /// Build the 3-D assignment plan for processor `me`. Debug builds
    /// verify against the legacy per-element enumeration.
    pub fn build(me: usize, s: &Side3, d: &Side3) -> Plan3 {
        let shape = [d.maps[0].n, d.maps[1].n, d.maps[2].n];
        let my_s = s.coord_of(me);
        let my_d = d.coord_of(me);
        let mut plan = Plan3 {
            sends: Vec::new(),
            recvs: Vec::new(),
            local: None,
            src_pitch: my_s.map_or((0, 0), |(_, c1, c2)| {
                (s.maps[1].local_len(c1), s.maps[2].local_len(c2))
            }),
            dst_pitch: my_d.map_or((0, 0), |(_, c1, c2)| {
                (d.maps[1].local_len(c1), d.maps[2].local_len(c2))
            }),
        };

        // Intersections of my ownership with every peer coordinate, one
        // dimension at a time; peers then combine per-dimension results.
        let per_dim = |my: [usize; 3], mine: &Side3, other: &Side3| -> [Vec<Vec<(usize, usize)>>; 3] {
            std::array::from_fn(|k| {
                let mut own: Vec<(usize, usize)> = Vec::new();
                owned_segments(&mine.maps[k], my[k], 0, 0, shape[k], &mut own);
                (0..other.maps[k].q)
                    .map(|c| {
                        let mut segs = Vec::new();
                        owned_segments(&other.maps[k], c, 0, 0, shape[k], &mut segs);
                        let mut inter = Vec::new();
                        intersect_segs(&own, &segs, &mut inter);
                        inter
                    })
                    .collect()
            })
        };
        let count = |segs: &[(usize, usize)]| -> usize { segs.iter().map(|&(_, l)| l).sum() };

        // --- Sender role -------------------------------------------------
        if let Some((a0, a1, a2)) = my_s {
            let dims = per_dim([a0, a1, a2], s, d);
            for b0 in 0..d.maps[0].q {
                for b1 in 0..d.maps[1].q {
                    for b2 in 0..d.maps[2].q {
                        let (i0, i1, i2) = (&dims[0][b0], &dims[1][b1], &dims[2][b2]);
                        let total = count(i0) * count(i1) * count(i2);
                        if total == 0 {
                            continue;
                        }
                        let dp = d.phys(b0, b1, b2);
                        let s_runs = [
                            local_runs(&s.maps[0], 0, i0),
                            local_runs(&s.maps[1], 0, i1),
                            local_runs(&s.maps[2], 0, i2),
                        ];
                        if dp == me {
                            let d_runs = [
                                local_runs(&d.maps[0], 0, i0),
                                local_runs(&d.maps[1], 0, i1),
                                local_runs(&d.maps[2], 0, i2),
                            ];
                            plan.local = Some((
                                Box::new(Peer3 { peer: me, total, dims: s_runs }),
                                Box::new(Peer3 { peer: me, total, dims: d_runs }),
                            ));
                        } else {
                            plan.sends.push(Peer3 { peer: dp, total, dims: s_runs });
                        }
                    }
                }
            }
            plan.sends.sort_by_key(|p| p.peer);
        }

        // --- Receiver role -----------------------------------------------
        if let Some((b0, b1, b2)) = my_d {
            let dims = per_dim([b0, b1, b2], d, s);
            for a0 in 0..s.maps[0].q {
                for a1 in 0..s.maps[1].q {
                    for a2 in 0..s.maps[2].q {
                        let sp = s.phys(a0, a1, a2);
                        if sp == me {
                            continue; // local leg handled by the sender role
                        }
                        let (i0, i1, i2) = (&dims[0][a0], &dims[1][a1], &dims[2][a2]);
                        let total = count(i0) * count(i1) * count(i2);
                        if total == 0 {
                            continue;
                        }
                        plan.recvs.push(Peer3 {
                            peer: sp,
                            total,
                            dims: [
                                local_runs(&d.maps[0], 0, i0),
                                local_runs(&d.maps[1], 0, i1),
                                local_runs(&d.maps[2], 0, i2),
                            ],
                        });
                    }
                }
            }
            plan.recvs.sort_by_key(|p| p.peer);
        }

        #[cfg(debug_assertions)]
        {
            let reference = CommSets1::legacy3(me, s, d);
            let got = CommSets1::of_plan3(&plan);
            debug_assert_eq!(got, reference, "plan3 disagrees with legacy enumeration");
        }
        plan
    }
}

impl CommSets1 {
    /// Legacy per-element enumeration for the 3-D case (the `assign3`
    /// loop).
    pub fn legacy3(me: usize, s: &Side3, d: &Side3) -> CommSets1 {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut local = Vec::new();
        if !s.group.contains_phys(me) && !d.group.contains_phys(me) {
            return CommSets1 { sends: Vec::new(), recvs: Vec::new(), local };
        }
        let (sl1, sl2) = s
            .coord_of(me)
            .map_or((0, 0), |(_, c1, c2)| (s.maps[1].local_len(c1), s.maps[2].local_len(c2)));
        let (dl1, dl2) = d
            .coord_of(me)
            .map_or((0, 0), |(_, c1, c2)| (d.maps[1].local_len(c1), d.maps[2].local_len(c2)));
        for i0 in 0..d.maps[0].n {
            for i1 in 0..d.maps[1].n {
                for i2 in 0..d.maps[2].n {
                    let sp = s.phys(s.maps[0].owner(i0), s.maps[1].owner(i1), s.maps[2].owner(i2));
                    let dp = d.phys(d.maps[0].owner(i0), d.maps[1].owner(i1), d.maps[2].owner(i2));
                    let s_slot = || {
                        (s.maps[0].local_of(i0) * sl1 + s.maps[1].local_of(i1)) * sl2
                            + s.maps[2].local_of(i2)
                    };
                    let d_slot = || {
                        (d.maps[0].local_of(i0) * dl1 + d.maps[1].local_of(i1)) * dl2
                            + d.maps[2].local_of(i2)
                    };
                    if sp == me {
                        if dp == me {
                            local.push((s_slot(), d_slot()));
                        } else {
                            sends.entry(dp).or_default().push(s_slot());
                        }
                    } else if dp == me {
                        recvs.entry(sp).or_default().push(d_slot());
                    }
                }
            }
        }
        CommSets1 {
            sends: sends.into_iter().collect(),
            recvs: recvs.into_iter().collect(),
            local,
        }
    }

    /// Expand a 3-D plan back to per-element flat-slot sets.
    pub fn of_plan3(plan: &Plan3) -> CommSets1 {
        let cross = |p: &Peer3, (l1, l2): (usize, usize)| -> Vec<usize> {
            let mut out = Vec::new();
            for e0 in expand_runs(&p.dims[0]) {
                for e1 in expand_runs(&p.dims[1]) {
                    for e2 in expand_runs(&p.dims[2]) {
                        out.push((e0 * l1 + e1) * l2 + e2);
                    }
                }
            }
            out
        };
        let local = plan.local.as_ref().map_or(Vec::new(), |(sl, dl)| {
            cross(sl, plan.src_pitch)
                .into_iter()
                .zip(cross(dl, plan.dst_pitch))
                .collect()
        });
        CommSets1 {
            sends: plan.sends.iter().map(|p| (p.peer, cross(p, plan.src_pitch))).collect(),
            recvs: plan.recvs.iter().map(|p| (p.peer, cross(p, plan.dst_pitch))).collect(),
            local,
        }
    }
}

// ---------------------------------------------------------------------------
// Read/write version vectors (dataflow barrier elision)
// ---------------------------------------------------------------------------

/// How a statement wrote an interval, for dependence classification.
///
/// Plan-based assignments move data through per-peer receives whose
/// `(source, tag)` matching already orders the consumer behind the
/// producer, so an interval they wrote is **covered**: a later statement
/// reading it needs no barrier. Writes whose communication pattern the
/// planner cannot see — `copy_remap*` closures, root I/O — are **opaque**
/// and taint the interval until the next kept barrier orders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Written by an interval plan; downstream receives provide ordering.
    Covered,
    /// Written by an unanalyzable pattern; requires a barrier to order.
    Opaque,
}

/// One interval of a [`VersionVec`]: `[start, end)` with the versions of
/// its last write and last read, and whether the last write was opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalVer {
    /// First global index of the interval.
    pub start: usize,
    /// One past the last global index.
    pub end: usize,
    /// Version stamp of the most recent write (0 = initial value).
    pub write_ver: u64,
    /// Version stamp of the most recent read (0 = never read).
    pub read_ver: u64,
    /// Last write was [`WriteKind::Opaque`].
    pub opaque: bool,
}

/// Per-distribution-interval read/write version vector of one distributed
/// array.
///
/// Every processor holding a descriptor replica evolves an identical copy
/// (statements record effects before any membership early-return), so the
/// dataflow classifier can decide *locally* — from metadata alone —
/// whether an inter-stage edge is interval-covered (elide the subset
/// barrier) or barrier-required (an opaque write overlaps the statement's
/// footprint). Intervals are kept disjoint, sorted and minimal: recording
/// an effect splits intervals at the footprint boundaries, so precision
/// follows the actual statement ranges (1-D assignments record true
/// sub-ranges; 2-D/3-D statements record whole-array footprints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionVec {
    ivs: Vec<IntervalVer>,
    next_ver: u64,
}

impl VersionVec {
    /// A fresh vector over `n` elements: one interval, version 0, clean.
    pub fn new(n: usize) -> Self {
        let ivs = if n == 0 {
            Vec::new()
        } else {
            vec![IntervalVer { start: 0, end: n, write_ver: 0, read_ver: 0, opaque: false }]
        };
        VersionVec { ivs, next_ver: 1 }
    }

    /// The current disjoint, sorted interval list.
    pub fn intervals(&self) -> &[IntervalVer] {
        &self.ivs
    }

    /// Split the interval containing `x` (if any) so `x` becomes a
    /// boundary.
    fn split_at(&mut self, x: usize) {
        if let Some(i) = self.ivs.iter().position(|iv| iv.start < x && x < iv.end) {
            let mut right = self.ivs[i].clone();
            right.start = x;
            self.ivs[i].end = x;
            self.ivs.insert(i + 1, right);
        }
    }

    /// Apply `f` to every interval inside `range`, splitting at the
    /// boundaries first so the edit is exact.
    fn apply(&mut self, range: Range<usize>, mut f: impl FnMut(&mut IntervalVer)) {
        if range.start >= range.end {
            return;
        }
        self.split_at(range.start);
        self.split_at(range.end);
        for iv in &mut self.ivs {
            if iv.start >= range.start && iv.end <= range.end {
                f(iv);
            }
        }
    }

    /// Record a write of `range` with the given kind, bumping the write
    /// version. A covered write clears any taint it overwrites.
    pub fn record_write(&mut self, range: Range<usize>, kind: WriteKind) {
        if range.start >= range.end {
            return;
        }
        let ver = self.next_ver;
        self.next_ver += 1;
        self.apply(range, |iv| {
            iv.write_ver = ver;
            iv.opaque = kind == WriteKind::Opaque;
        });
    }

    /// Record a read of `range`, bumping the read version.
    pub fn record_read(&mut self, range: Range<usize>) {
        if range.start >= range.end {
            return;
        }
        let ver = self.next_ver;
        self.next_ver += 1;
        self.apply(range, |iv| iv.read_ver = ver);
    }

    /// Does `range` overlap any interval whose last write was opaque?
    pub fn tainted(&self, range: Range<usize>) -> bool {
        self.ivs.iter().any(|iv| iv.opaque && iv.start < range.end && range.start < iv.end)
    }

    /// Clear the opaque flag on `range` (after a kept barrier ordered the
    /// offending writes). Does not bump versions.
    pub fn clear_taint(&mut self, range: Range<usize>) {
        self.apply(range, |iv| iv.opaque = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(gid: u64, members: &[usize]) -> GroupHandle {
        GroupHandle::synthetic(gid, members.to_vec())
    }

    fn side1(gid: u64, members: &[usize], n: usize, q: usize, dist: Dist) -> Side1 {
        Side1 { group: group(gid, members), map: DimMap::new(n, q, dist), replicated: false }
    }

    fn side1_rep(gid: u64, members: &[usize], n: usize) -> Side1 {
        Side1 { group: group(gid, members), map: DimMap::new(n, 1, Dist::Star), replicated: true }
    }

    #[test]
    fn compress_merges_and_strides() {
        // Adjacent runs merge.
        assert_eq!(
            compress([(0, 2), (2, 3)]),
            vec![Seg { start: 0, len: 5, stride: 0, count: 1 }]
        );
        // Equal-length runs at constant stride fold.
        assert_eq!(
            compress([(0, 1), (4, 1), (8, 1), (12, 1)]),
            vec![Seg { start: 0, len: 1, stride: 4, count: 4 }]
        );
        // Mixed: a fold followed by an adjacent-merged irregular run.
        assert_eq!(
            compress([(0, 2), (6, 2), (12, 2), (14, 3)]),
            vec![
                Seg { start: 0, len: 2, stride: 6, count: 2 },
                Seg { start: 12, len: 5, stride: 0, count: 1 },
            ]
        );
    }

    #[test]
    fn owned_segments_match_bruteforce() {
        let dists = [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(3), Dist::BlockCyclic(1)];
        for dist in dists {
            for n in [0usize, 1, 7, 16, 23] {
                for q in [1usize, 2, 3, 5] {
                    let map = DimMap::new(n, q, dist);
                    for delta in [-5isize, -1, 0, 1, 4] {
                        for (lo, hi) in [(0usize, n), (2, n.saturating_sub(1)), (0, 3.min(n))] {
                            for c in 0..q {
                                let mut segs = Vec::new();
                                owned_segments(&map, c, delta, lo, hi, &mut segs);
                                let got: Vec<usize> =
                                    segs.iter().flat_map(|&(s, l)| s..s + l).collect();
                                let want: Vec<usize> = (lo..hi)
                                    .filter(|&g| {
                                        let t = g as isize + delta;
                                        t >= 0 && t < n as isize && map.owner(t as usize) == c
                                    })
                                    .collect();
                                assert_eq!(got, want, "{dist:?} n={n} q={q} c={c} d={delta} [{lo},{hi})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_matches_bruteforce() {
        let a = vec![(0usize, 3usize), (5, 2), (10, 4)];
        let b = vec![(2usize, 5usize), (11, 1)];
        let mut out = Vec::new();
        intersect_segs(&a, &b, &mut out);
        let got: Vec<usize> = out.iter().flat_map(|&(s, l)| s..s + l).collect();
        assert_eq!(got, vec![2, 5, 6, 11]);
    }

    #[test]
    fn remap_cuts_at_clamps_and_wraps() {
        let shape = |r: Remap, dn, sn| -> Vec<(usize, usize, usize, usize)> {
            r.cut(dn, sn, "test", "index").iter().map(|p| (p.dst, p.len, p.src, p.step)).collect()
        };
        assert_eq!(shape(Remap::Identity, 5, 7), vec![(0, 5, 0, 1)]);
        assert_eq!(shape(Remap::Shift(2), 5, 7), vec![(0, 5, 2, 1)]);
        // Both clamped ends read one edge element repeatedly.
        assert_eq!(shape(Remap::ClampShift(2), 6, 6), vec![(0, 4, 2, 1), (4, 2, 5, 0)]);
        assert_eq!(shape(Remap::ClampShift(-3), 6, 6), vec![(0, 4, 0, 0), (4, 2, 1, 1)]);
        assert_eq!(shape(Remap::ClampShift(9), 3, 6), vec![(0, 3, 5, 0)]);
        // A cyclic shift wraps once per source extent.
        assert_eq!(shape(Remap::Cyclic(-2), 5, 5), vec![(0, 2, 3, 1), (2, 3, 0, 1)]);
        assert_eq!(shape(Remap::Cyclic(1), 7, 3), vec![(0, 2, 1, 1), (2, 3, 0, 1), (5, 2, 0, 1)]);
        assert_eq!(Remap::Shift(-1).apply(0, 4), None);
        assert_eq!(Remap::Cyclic(3).apply(0, 0), None, "nothing to read from an empty source");
    }

    #[test]
    fn dim_runs_repeat_the_clamped_edge() {
        // dst[i] = src[min(i + 3, 7)] between two BLOCK maps over 2 coords:
        // sources 3 4 5 6 7 7 7 7.
        let map = DimMap::new(8, 2, Dist::Block);
        let cut = Remap::ClampShift(3).cut(8, 8, "test", "index");
        let one = |start, len| Seg { start, len, stride: 0, count: 1 };
        assert_eq!(
            dim_runs(&cut, &map, &map, Role::Send, 0),
            vec![(0, 1, vec![one(3, 1)])]
        );
        assert_eq!(
            dim_runs(&cut, &map, &map, Role::Send, 1),
            vec![(0, 3, vec![one(0, 3)]), (1, 4, vec![Seg { start: 3, len: 1, stride: 0, count: 4 }])]
        );
        assert_eq!(
            dim_runs(&cut, &map, &map, Role::Recv, 0),
            vec![(0, 1, vec![one(0, 1)]), (1, 3, vec![one(1, 3)])]
        );
        assert_eq!(dim_runs(&cut, &map, &map, Role::Recv, 1), vec![(1, 4, vec![one(0, 4)])]);
    }

    // Plan1::build self-verifies against the legacy enumeration in debug
    // builds, so these tests are a battery of configurations driven
    // through the builder on every processor.
    #[test]
    fn plan1_matches_legacy_across_dists_and_groups() {
        let dists = [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(2), Dist::BlockCyclic(5)];
        let g_all: &[usize] = &[0, 1, 2, 3];
        let g_lo: &[usize] = &[0, 1];
        let g_hi: &[usize] = &[2, 3];
        for &sd in &dists {
            for &dd in &dists {
                for (smem, dmem) in [(g_all, g_all), (g_lo, g_hi), (g_all, g_lo)] {
                    for n in [0usize, 1, 13, 32] {
                        for delta in [0isize, -3, 7] {
                            let s = side1(1, smem, n, smem.len(), sd);
                            let d = side1(2, dmem, n, dmem.len(), dd);
                            let lo = 3.min(n);
                            for me in 0..4 {
                                let p = Plan1::build(me, &s, &d, 0..n, delta);
                                let q = Plan1::build(me, &s, &d, lo..n, delta);
                                // Sends and recvs never carry zero elements.
                                for pr in p.sends.iter().chain(&p.recvs).chain(&q.sends).chain(&q.recvs) {
                                    assert!(pr.total > 0, "empty message planned");
                                    assert_eq!(segs_total(&pr.runs), pr.total);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan1_replicated_endpoints() {
        let g_all: &[usize] = &[0, 1, 2];
        let g_sub: &[usize] = &[1, 2];
        for n in [0usize, 5, 11] {
            // Replicated -> distributed, both group layouts.
            for (smem, dmem) in [(g_all, g_all), (g_sub, g_all), (g_all, g_sub)] {
                let s = side1_rep(1, smem, n);
                let d = side1(2, dmem, n, dmem.len(), Dist::Block);
                for me in 0..3 {
                    Plan1::build(me, &s, &d, 0..n, 0);
                }
                // Distributed -> replicated.
                let s2 = side1(3, smem, n, smem.len(), Dist::Cyclic);
                let d2 = side1_rep(4, dmem, n);
                for me in 0..3 {
                    Plan1::build(me, &s2, &d2, 0..n, 0);
                }
            }
        }
    }

    #[test]
    fn plan2_matches_legacy_identity_and_transpose() {
        let layouts = [
            ((Dist::Block, Dist::Star), (1usize, 1usize)),
            ((Dist::Star, Dist::Block), (1, 1)),
            ((Dist::Block, Dist::Block), (2, 2)),
            ((Dist::Cyclic, Dist::Star), (1, 1)),
        ];
        for &((sd0, sd1), _) in &layouts {
            for &((dd0, dd1), _) in &layouts {
                for (rows, cols) in [(6usize, 8usize), (5, 3)] {
                    let mk = |gid, d0: Dist, d1: Dist, r, c| {
                        let (q0, q1) = match (d0, d1) {
                            (Dist::Star, Dist::Star) => (1, 1),
                            (Dist::Star, _) => (1, 4),
                            (_, Dist::Star) => (4, 1),
                            _ => (2, 2),
                        };
                        Side2 {
                            group: group(gid, &[0, 1, 2, 3]),
                            rmap: DimMap::new(r, q0, d0),
                            cmap: DimMap::new(c, q1, d1),
                        }
                    };
                    let s = mk(1, sd0, sd1, rows, cols);
                    let d = mk(2, dd0, dd1, rows, cols);
                    for me in 0..4 {
                        Plan2::build(me, &s, &d, false, (Remap::Identity, Remap::Identity));
                    }
                    // Transpose: dst shape is swapped.
                    let dt = mk(3, dd0, dd1, cols, rows);
                    for me in 0..4 {
                        Plan2::build(me, &s, &dt, true, (Remap::Identity, Remap::Identity));
                    }
                }
            }
        }
    }

    #[test]
    fn plan3_matches_legacy() {
        let g = &[0usize, 1, 2, 3];
        let mk = |gid, d: (Dist, Dist, Dist), shape: [usize; 3], grid: (usize, usize, usize)| Side3 {
            group: group(gid, g),
            maps: [
                DimMap::new(shape[0], grid.0, d.0),
                DimMap::new(shape[1], grid.1, d.1),
                DimMap::new(shape[2], grid.2, d.2),
            ],
        };
        let shape = [4usize, 6, 5];
        let cases = [
            ((Dist::Block, Dist::Star, Dist::Star), (4usize, 1usize, 1usize)),
            ((Dist::Star, Dist::Block, Dist::Star), (1, 4, 1)),
            ((Dist::Star, Dist::Star, Dist::Cyclic), (1, 1, 4)),
            ((Dist::Block, Dist::Block, Dist::Star), (2, 2, 1)),
        ];
        for &(sd, sg) in &cases {
            for &(dd, dg) in &cases {
                let s = mk(1, sd, shape, sg);
                let d = mk(2, dd, shape, dg);
                for me in 0..4 {
                    Plan3::build(me, &s, &d);
                }
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let src: Vec<u32> = (0..40).collect();
        let runs = vec![
            Seg { start: 1, len: 2, stride: 10, count: 3 },
            Seg { start: 35, len: 4, stride: 0, count: 1 },
        ];
        let total = segs_total(&runs);
        let buf = pack_seg_runs(&src, &runs, total);
        assert_eq!(buf, vec![1, 2, 11, 12, 21, 22, 35, 36, 37, 38]);
        let mut dst = vec![0u32; 40];
        unpack_seg_runs(&mut dst, &runs, &buf);
        for (i, &v) in dst.iter().enumerate() {
            let expected = if buf.contains(&(i as u32)) { i as u32 } else { 0 };
            assert_eq!(v, expected);
        }
        // copy with differing piece boundaries
        let s_runs = vec![Seg { start: 0, len: 6, stride: 0, count: 1 }];
        let d_runs = vec![Seg { start: 10, len: 2, stride: 3, count: 3 }];
        let mut dst2 = vec![0u32; 20];
        copy_seg_runs(&src, &s_runs, &mut dst2, &d_runs);
        assert_eq!(&dst2[10..12], &[0, 1]);
        assert_eq!(&dst2[13..15], &[2, 3]);
        assert_eq!(&dst2[16..18], &[4, 5]);
    }

    #[test]
    fn version_vec_splits_on_overlap() {
        let mut vv = VersionVec::new(10);
        assert_eq!(vv.intervals().len(), 1);
        vv.record_write(2..6, WriteKind::Opaque);
        let ivs = vv.intervals();
        assert_eq!(
            ivs.iter().map(|iv| (iv.start, iv.end, iv.opaque)).collect::<Vec<_>>(),
            vec![(0, 2, false), (2, 6, true), (6, 10, false)]
        );
        assert!(vv.tainted(0..10));
        assert!(vv.tainted(5..6));
        assert!(!vv.tainted(0..2));
        assert!(!vv.tainted(6..10));
        assert!(!vv.tainted(2..2), "empty range never tainted");
    }

    #[test]
    fn covered_write_clears_overwritten_taint() {
        let mut vv = VersionVec::new(8);
        vv.record_write(0..8, WriteKind::Opaque);
        vv.record_write(2..5, WriteKind::Covered);
        assert!(vv.tainted(0..2));
        assert!(!vv.tainted(2..5));
        assert!(vv.tainted(5..8));
    }

    #[test]
    fn clear_taint_is_range_exact() {
        let mut vv = VersionVec::new(8);
        vv.record_write(0..8, WriteKind::Opaque);
        vv.clear_taint(3..5);
        assert!(vv.tainted(0..3));
        assert!(!vv.tainted(3..5));
        assert!(vv.tainted(5..8));
    }

    #[test]
    fn versions_advance_monotonically() {
        let mut vv = VersionVec::new(4);
        vv.record_write(0..4, WriteKind::Covered);
        let w1 = vv.intervals()[0].write_ver;
        vv.record_read(0..2);
        vv.record_write(0..4, WriteKind::Covered);
        let w2 = vv.intervals()[0].write_ver;
        assert!(w2 > w1);
        // reads bump read_ver only
        assert_eq!(vv.intervals()[0].read_ver, w1 + 1);
    }

    #[test]
    fn zero_length_array_is_inert() {
        let mut vv = VersionVec::new(0);
        vv.record_write(0..0, WriteKind::Opaque);
        vv.record_read(0..0);
        assert!(!vv.tainted(0..0));
        assert!(vv.intervals().is_empty());
    }
}
