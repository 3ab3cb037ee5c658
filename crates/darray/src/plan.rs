//! Cached interval-based communication plans, generic over array rank.
//!
//! The paper's §4 "minimal processor subsets" and "localization" are one
//! analysis: intersect, dimension by dimension, the index sets two HPF
//! distributions own. This module does it once for every array statement
//! of the crate — assignment, transposition, shifted sub-range copies and
//! separable remaps, at any rank:
//!
//! * **One builder.** A statement is a [`Stmt`]: per destination
//!   dimension a [`Remap`] (identity, shift, clamped shift, cyclic shift)
//!   and the destination sub-range it writes, plus an axis permutation
//!   (destination dimension `k` reads source dimension `axes[k]`;
//!   transposition is `[1, 0]`). [`Plan::build`] cuts each dimension's map
//!   into affine/constant pieces in closed form ([`Remap::cut`]), turns
//!   each dimension into per-peer **strided runs** ([`Seg`]s) with one 1-D
//!   routine (`View::walk`: the FALLS families a [`DimMap`] owns,
//!   intersected with the other side's), and takes the `N`-fold product: a
//!   peer's element set is the cross product of its per-dimension runs,
//!   visited in the destination's row-major order.
//! * **One arena.** A build costs what the plan's description costs, not
//!   what its data costs. A `Block` map has one block per coordinate, and
//!   a `Cyclic` or `BlockCyclic` map repeats with its period, so a piece
//!   costs O(peers) where one side is `Block`, and O(peers × a few joint
//!   periods) where both repeat; only a pattern that puts `Seg`s in every
//!   joint period costs its runs, which are then its description. A build
//!   makes a handful of allocations whatever the extents or the number of
//!   processors. Every `Seg` of a plan lives in its `runs` vector; a
//!   dimension's share for a peer coordinate is stored there once, and
//!   each [`Peer`] of the product holds `N` spans into it.
//! * **Replication** (rank 1 only) is a peer-enumeration rule on top of
//!   the same runs: a replicated side stands at coordinate 0 of a `Star`
//!   map, every member of a replicated destination receives the share,
//!   and `Side::serve` picks which member of a replicated source serves a
//!   given destination processor.
//! * **One pack/unpack/copy.** [`pack_into`], [`unpack_chunk`] and
//!   [`copy_local`] walk the outer dimensions index by index. Pack and
//!   unpack move each innermost `Seg` by its shape, not piece by piece:
//!   contiguous runs of two or more elements as one slice copy per run,
//!   and anything else — a family of one-element runs (BLOCK↔CYCLIC), a
//!   stride-0 repeat, any run under a permutation, where the inner
//!   destination dimension strides through the source tile — as one
//!   typed gather or scatter loop over the `Seg`'s `count × len` elements
//!   ([`Chunk::push_iter`] / [`Chunk::iter_from`]), with no library call
//!   per element. The local copy moves a one-element span inline too.
//! * **One oracle.** [`CommSets::enumerate`] is the reference
//!   implementation: it walks every destination index, asks the
//!   distribution metadata for the owners and buckets slots by peer —
//!   O(elements); [`CommSets::enumerate_with`] is the same walk under any
//!   index map. Debug builds check freshly built plans against it (up to
//!   `ORACLE_MAX_ELEMS` elements), the property tests do so in release
//!   builds too, and `tests/plan_vs_enumeration.rs` times it against plan
//!   build and one run.
//!
//! Plans depend only on static descriptors (distributions, member lists,
//! ranges, index maps, permutation), so they are cached per processor in
//! [`fx_core::PlanCache`] (via `Cx::plan_cached`, keyed by [`Key`]) and
//! replayed: an m-iteration pipeline pays the planning cost once. The
//! contract with the enumeration is exact: same per-peer buffer contents
//! in the same order, same message schedule (no empty messages, sends
//! ascending by destination physical rank), same virtual-time charges.

use std::ops::Range;

use fx_core::{GroupHandle, Membership};
use fx_runtime::Chunk;

use crate::dist::{for_each_index, ravel, unravel, DimMap, Dist};

// ---------------------------------------------------------------------------
// Strided runs
// ---------------------------------------------------------------------------

/// A strided family of equal-length contiguous runs of local indices:
/// `count` runs of `len` indices, the k-th starting at `start + k*stride`.
///
/// One `Seg` describes e.g. "every q-th element" (len 1, stride q) or a
/// whole contiguous range (count 1) — the two shapes block/cyclic
/// redistributions produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// The contiguous `(start, len)` runs, in order.
    pub(crate) fn runs(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.count).map(move |k| (self.start + k * self.stride, self.len))
    }
}

/// Iterator over the contiguous `(start, len)` pieces of a run list.
fn pieces(segs: &[Seg]) -> impl Iterator<Item = (usize, usize)> + '_ {
    segs.iter().flat_map(|s| s.runs())
}

/// Streaming compression of contiguous `(start, len)` runs into strided
/// [`Seg`]s: adjacent runs merge, then equal-length runs at a constant
/// stride fold into one `Seg`. Feed order is kept, so the runs need not
/// ascend: a run that steps backwards starts a new `Seg`, and a run
/// repeated in place folds at stride 0. A finished `Seg` goes to the
/// caller's `put` with its position, so one pass can count a share's
/// `Seg`s and the next write them at their place in an arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fold {
    /// Indices fed so far.
    total: usize,
    /// The run being grown by adjacent pieces (none while its length is 0).
    pending: (usize, usize),
    /// The `Seg` being grown by equal runs (none while its `count` is 0).
    open: Seg,
    /// Position of the first `Seg` put, and of the next one.
    from: usize,
    at: usize,
    /// Where the fold stood when the current period of a periodic walk
    /// began.
    mark: Tip,
}

/// The part of a [`Fold`] that feeding moves: its total, its pending run,
/// its open `Seg`'s count and the next `Seg`'s position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tip {
    total: usize,
    pending: (usize, usize),
    count: usize,
    at: usize,
}

impl Fold {
    /// Feed the runs of `seg` in turn, in time independent of its count:
    /// once one run moves the fold by a translation of `seg.stride`, so
    /// does every later one, and the rest are added at once. That takes at
    /// most four runs.
    fn feed_seg(&mut self, seg: Seg, put: &mut impl FnMut(usize, Seg)) {
        for j in 0..seg.count {
            let was = self.tip();
            self.feed(seg.start + j * seg.stride, seg.len, put);
            if self.translated(was, seg.stride) {
                return self.advance(was, seg.count - 1 - j);
            }
        }
    }

    /// The part of the fold that feeding moves.
    fn tip(&self) -> Tip {
        Tip { total: self.total, pending: self.pending, count: self.open.count, at: self.at }
    }

    /// Did what was fed since the fold stood at `was` move it by a
    /// translation of `step` slots, so that feeding the same again, `step`
    /// slots further on, moves it the same way? Yes if nothing was fed.
    /// Otherwise no `Seg` was put, and either the pending run grew by
    /// `step`, or the open `Seg` grew by `step` slots' worth of runs while
    /// the pending run moved `step` on.
    fn translated(&self, was: Tip, step: usize) -> bool {
        self.total == was.total
            || self.at == was.at
                && match self.open.count - was.count {
                    0 => self.pending == (was.pending.0, was.pending.1 + step),
                    grown => grown * self.open.stride == step && self.pending == (was.pending.0 + step, was.pending.1),
                }
    }

    /// Move the fold on as if what was fed since `was` were fed `times`
    /// more times, `step` slots further on each time.
    fn advance(&mut self, was: Tip, times: usize) {
        self.total += times * (self.total - was.total);
        self.open.count += times * (self.open.count - was.count);
        self.pending.0 += times * (self.pending.0 - was.pending.0);
        self.pending.1 += times * (self.pending.1 - was.pending.1);
    }

    /// Feed the next run.
    fn feed(&mut self, s: usize, l: usize, put: &mut impl FnMut(usize, Seg)) {
        self.total += l;
        if self.pending.1 > 0 && self.pending.0 + self.pending.1 == s {
            self.pending.1 += l;
        } else if l > 0 {
            let run = std::mem::replace(&mut self.pending, (s, l));
            self.fold(run, put);
        }
    }

    /// Fold one merged run into the open `Seg`: an equal-length run at a
    /// constant stride extends it, any other finishes it.
    fn fold(&mut self, (s, l): (usize, usize), put: &mut impl FnMut(usize, Seg)) {
        let seg = &mut self.open;
        let extends = (seg.count == 1 && s > seg.start) || s == seg.start + seg.count * seg.stride;
        if l > 0 && seg.len == l && extends {
            if seg.count == 1 {
                seg.stride = s - seg.start;
            }
            seg.count += 1;
        } else if l > 0 {
            self.put_open(put);
            self.open = Seg { start: s, len: l, stride: 0, count: 1 };
        }
    }

    fn put_open(&mut self, put: &mut impl FnMut(usize, Seg)) {
        if self.open.count > 0 {
            put(self.at, std::mem::take(&mut self.open));
            self.at += 1;
        }
    }

    /// No more runs: put what is still open.
    fn finish(&mut self, put: &mut impl FnMut(usize, Seg)) {
        if self.total > 0 {
            let run = std::mem::take(&mut self.pending);
            self.fold(run, put);
            self.put_open(put);
        }
    }
}

// ---------------------------------------------------------------------------
// FALLS-style ownership segments
// ---------------------------------------------------------------------------

/// Call `out` with `{ g in [lo, hi) : 0 <= g+delta < n and map.owner(g+delta)
/// == c }` — the global indices whose *shifted* image lives on grid
/// coordinate `c` — as at most three ascending strided families of
/// contiguous runs: the first block of `map` there, clipped at `lo`; the
/// whole blocks after it, one `Seg` at the map's period; and the last
/// block, clipped at `hi` or the extent. Each run lies within a single
/// ownership block of `map`, so its local image is contiguous. This is
/// FALLS (Ramaswamy & Banerjee) in closed form: its cost does not grow with
/// the number of blocks.
pub(crate) fn owned_segments(map: &DimMap, c: usize, delta: isize, lo: usize, hi: usize, out: &mut impl FnMut(Seg)) {
    if lo >= hi || map.n == 0 {
        return;
    }
    let n = map.n as isize;
    let (lo_i, hi_i) = (lo as isize, hi as isize);
    // Block `k` of coordinate `c` is `[k*per + base, k*per + base + blen)`.
    let (base, blen, per) = match map.dist {
        _ if map.q == 1 || map.dist == Dist::Star => (0, n, n),
        Dist::Block => (c as isize * map.block() as isize, map.block() as isize, n),
        Dist::Star => unreachable!("taken by the arm above"),
        Dist::Cyclic => (c as isize, 1isize, map.q as isize),
        Dist::BlockCyclic(b) => (c as isize * b as isize, b as isize, (b * map.q) as isize),
    };
    // Blocks `k0..k1` meet the translated range: `k0` is the first whose
    // image ends after `lo`, `k1` the first that starts at or after its end.
    let end = n.min(hi_i + delta);
    let k0 = ((lo_i + delta - base - blen).div_euclid(per) + 1).max(0);
    let k1 = (end - base + per - 1).div_euclid(per).max(0);
    let clipped = |k: isize| {
        let s = k * per + base - delta;
        let (a, e) = (s.max(lo_i), (s + blen).min(end - delta));
        (e > a).then(|| Seg { start: a as usize, len: (e - a) as usize, stride: 0, count: 1 })
    };
    if k1 <= k0 {
        return;
    }
    let whole = (k1 - k0 > 2).then(|| Seg {
        start: ((k0 + 1) * per + base - delta) as usize,
        len: blen as usize,
        stride: per as usize,
        count: (k1 - k0 - 2) as usize,
    });
    let last = if k1 - k0 > 1 { clipped(k1 - 1) } else { None };
    [clipped(k0), whole, last].into_iter().flatten().for_each(out);
}

/// Replace `out` with the compressed local runs of the indices of
/// `lo..hi` that coordinate `c` of `map` owns; returns their number. They
/// are consecutive in its storage, so they are one run.
pub(crate) fn owned_runs(map: &DimMap, c: usize, lo: usize, hi: usize, out: &mut Vec<Seg>) -> usize {
    out.clear();
    let (a, e) = (map.owned_before(c, lo), map.owned_before(c, hi));
    if e > a {
        out.push(Seg { start: a, len: e - a, stride: 0, count: 1 });
    }
    e - a
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

    /// Validate the map over destination indices `lo..hi` / source extent
    /// `sn` and cut it into maximal [`Piece`]s, ascending by destination
    /// index — in closed form: at most three pieces for the shifts, one
    /// per wrap for [`Remap::Cyclic`], whatever the extent. An out-of-range
    /// map is rejected here — in every build profile — naming the statement
    /// by its `rank`, the dimension `dim` and the first offending index.
    pub fn cut(self, (lo, hi): (usize, usize), sn: usize, rank: usize, dim: usize) -> Vec<Piece> {
        let mut out: Vec<Piece> = Vec::new();
        if lo >= hi {
            return out;
        }
        // The indices a map accepts form an interval, so checking its two
        // ends checks the range; a failing range is bisected for the first
        // index outside.
        let ok = |i: usize| self.apply(i, sn).is_some();
        if !(ok(lo) && ok(hi - 1)) {
            let (mut good, mut bad) = (lo, if ok(lo) { hi - 1 } else { lo });
            while bad - good > 1 {
                let mid = good + (bad - good) / 2;
                if ok(mid) {
                    good = mid;
                } else {
                    bad = mid;
                }
            }
            let dim = match (rank, dim) {
                (1, _) => "index".to_string(),
                (2, 0) => "row".to_string(),
                (2, 1) => "column".to_string(),
                _ => format!("dimension {dim}"),
            };
            panic!(
                "remap{rank}: {dim} map {self:?} sends destination index {bad} outside \
                 the source extent {sn}"
            );
        }
        let src_of = |i: usize| self.apply(i, sn).expect("checked above");
        let mut stretch = |from: usize, to: usize, step: usize| {
            if from < to {
                push_piece(&mut out, Piece { dst: from, len: to - from, src: src_of(from), step });
            }
        };
        match self {
            Remap::Identity | Remap::Shift(_) => stretch(lo, hi, 1),
            Remap::ClampShift(d) => {
                // `lo..below` reads index 0, `above..hi` index `sn - 1`.
                let edge = |at: i128| (at - d as i128).clamp(lo as i128, hi as i128) as usize;
                let (below, above) = (edge(0), edge(sn as i128));
                stretch(lo, below, 0);
                stretch(below, above, 1);
                stretch(above, hi, 0);
            }
            Remap::Cyclic(_) => {
                let mut i = lo;
                while i < hi {
                    let e = hi.min(i + (sn - src_of(i)));
                    stretch(i, e, 1);
                    i = e;
                }
            }
        }
        out
    }
}

/// Append destination index `i`, reading source index `s`, to a cut: it
/// extends the last piece where it continues it (a piece of one index
/// takes its step from the second), and starts a piece otherwise.
fn push_index(out: &mut Vec<Piece>, i: usize, s: usize) {
    match out.last_mut() {
        Some(p) if p.len == 1 && (s == p.src || s == p.src + 1) => {
            p.step = s - p.src;
            p.len = 2;
        }
        Some(p) if p.len > 1 && s == p.src + p.len * p.step => p.len += 1,
        _ => out.push(Piece { dst: i, len: 1, src: s, step: 1 }),
    }
}

/// Append a whole stretch, with the result of [`push_index`] on each of
/// its indices in turn: after three of them the last piece holds at least
/// two of the stretch and so has its step, and the rest only lengthen it.
fn push_piece(out: &mut Vec<Piece>, r: Piece) {
    let single = r.len.min(3);
    for j in 0..single {
        push_index(out, r.dst + j, r.src + j * r.step);
    }
    if let Some(p) = out.last_mut() {
        p.len += r.len - single;
    }
}

/// Destination indices `dst..dst+len` of one dimension whose source
/// indices are `src, src+step, …`: `step` 1 is an affine stretch, `step`
/// 0 one source index read `len` times (the clamped tail of
/// [`Remap::ClampShift`] — a many-to-one map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// First destination index.
    pub dst: usize,
    /// Number of destination indices.
    pub len: usize,
    /// Source index of the first.
    pub src: usize,
    /// Source step per destination index: 1 or 0.
    pub step: usize,
}

/// Which side of the statement the planning processor stands on. A sender
/// owns source indices: its peers are destination grid coordinates and its
/// runs index its source storage. A receiver, the reverse.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role { Send, Recv }

/// One dimension of a statement, seen from grid coordinate `coord` of the
/// `role` side.
struct View<'a> {
    cut: &'a [Piece],
    src: &'a DimMap,
    dst: &'a DimMap,
    role: Role,
    coord: usize,
}

impl View<'_> {
    /// My map and the peers'.
    fn maps(&self) -> (&DimMap, &DimMap) {
        match self.role {
            Role::Send => (self.src, self.dst),
            Role::Recv => (self.dst, self.src),
        }
    }

    /// Number of peer coordinates along this dimension.
    fn peers(&self) -> usize {
        self.maps().1.q
    }

    /// Feed each peer's share of my indices to its fold, in ascending
    /// *destination* order — so a peer's source runs may step backwards (a
    /// cyclic wrap) or repeat an index (a clamped tail).
    ///
    /// My indices and each peer's are FALLS families of the two maps, and
    /// a family costs its description, not its blocks ([`owned_segments`]).
    /// Along a piece, a `Cyclic` or `BlockCyclic` map's ownership repeats
    /// with its period; a `Block` map has one block per coordinate, and a
    /// clamped tail reads one source index throughout. So where my side has
    /// one block, each peer's share of it is at most three families of
    /// theirs. Where theirs has one block per peer, each peer's share is my
    /// indices in it: one run of my storage. Both cost O(peers) per piece.
    /// Where both repeat, the runs repeat with the joint period, and the
    /// walk takes whole periods at once once every fold moves by a
    /// translation per period ([`View::periodic`]); a pattern that puts a
    /// `Seg` in every period is walked run by run, and those `Seg`s are its
    /// description.
    fn walk<const N: usize>(&self, to: &mut Shares<N, impl FnMut(usize, Seg)>) {
        let (send, (mine, theirs)) = (self.role == Role::Send, self.maps());
        for p in self.cut {
            let (lo, hi, fixed) = (p.dst, p.dst + p.len, p.step == 0);
            match (period(mine, send && fixed), period(theirs, !send && fixed)) {
                (None, None) => self.runs(p, (lo, hi), to),
                (None, Some(_)) => {
                    let mut one = None;
                    self.mine(p, (lo, hi), &mut |g| one = Some((g.start, g.start + g.len)));
                    if let Some(w) = one {
                        self.their_blocks(p, w, to);
                    }
                }
                (Some(_), None) => {
                    // Each block of theirs reaches one peer, and my indices
                    // there are the next run of my storage.
                    let ((mut c, mut e), block) = (self.theirs(p, lo), theirs.block());
                    let (mut s, mut slot) = (lo, self.slot(p, lo));
                    while s < hi {
                        let end = self.slot(p, e.min(hi));
                        if end > slot {
                            to.feed(c, Seg { start: slot, len: end - slot, stride: 0, count: 1 });
                        }
                        (s, slot, e) = (e, end, e + block);
                        c = if c + 1 == theirs.q { 0 } else { c + 1 };
                    }
                }
                (Some(pm), Some(pt)) => match (pm / gcd(pm, pt)).checked_mul(pt) {
                    Some(l) => self.periodic(p, (lo, hi), (l, l / pm * mine.block()), to),
                    None => self.runs(p, (lo, hi), to),
                },
            }
        }
    }

    /// Feed my one segment `a..e` of piece `p`, contiguous in my storage
    /// (one slot, for a clamped tail), over which the peer map's blocks
    /// cycle. Each peer's share is at most three families: the rest of the
    /// block holding `a`, its whole blocks one period apart as one `Seg`,
    /// and the part block that ends at `e`.
    fn their_blocks<const N: usize>(
        &self,
        p: &Piece,
        (a, e): (usize, usize),
        to: &mut Shares<N, impl FnMut(usize, Seg)>,
    ) {
        let theirs = self.maps().1;
        let (q, block, slot) = (theirs.q, theirs.block(), self.slot(p, a));
        // The block holding `a` ends at `x`; whole blocks follow, the first
        // of them coordinate `c`'s.
        let (head, x) = self.theirs(p, a);
        let (x, mut c) = (x.min(e), if head + 1 == q { 0 } else { head + 1 });
        let (whole, part) = ((e - x) / block, (e - x) % block);
        let mut give = |c: usize, at: usize, len: usize, count: usize| {
            if len * count > 0 {
                to.feed(c, match p.step {
                    0 => Seg { start: slot, len: 1, stride: 0, count: len * count },
                    _ => Seg { start: slot + (at - a), len, stride: q * block, count },
                });
            }
        };
        give(head, a, x - a, 1);
        let (rounds, extra) = (whole / q, whole % q);
        for i in 0..q.min(whole + 1) {
            give(c, x + i * block, block, rounds + usize::from(i < extra));
            if i == extra {
                give(c, x + whole * block, part, 1);
            }
            c = if c + 1 == q { 0 } else { c + 1 };
        }
    }

    /// Feed the window `w0..w1` of piece `p`, over which my runs repeat
    /// every `period` destination indices, `step` local slots on: a period
    /// at a time, run by run, until every peer's fold moved by a
    /// translation in the last one (checked after periods 1, 2, 4, 8, …, so
    /// a pattern that never settles costs its runs plus O(peers) per
    /// doubling). Then each fold takes the whole periods left at once, and
    /// the rest is walked run by run.
    fn periodic<const N: usize>(
        &self,
        p: &Piece,
        (w0, w1): (usize, usize),
        (period, step): (usize, usize),
        to: &mut Shares<N, impl FnMut(usize, Seg)>,
    ) {
        let (peers, mut at) = (0..self.peers(), w0);
        for walked in 1usize.. {
            if (w1 - at) / period < 2 {
                break;
            }
            let check = walked.is_power_of_two();
            if check {
                for c in peers.clone() {
                    let f = to.fold(c);
                    f.mark = f.tip();
                }
            }
            self.runs(p, (at, at + period), to);
            at += period;
            let settled = |f: &mut Fold| f.translated(f.mark, step);
            if check && peers.clone().all(|c| settled(to.fold(c))) {
                let times = (w1 - at) / period;
                for c in peers {
                    let f = to.fold(c);
                    f.advance(f.mark, times);
                }
                at += times * period;
                break;
            }
        }
        self.runs(p, (at, w1), to);
    }

    /// Feed the runs of my indices of `w0..w1` in piece `p` one by one: my
    /// segments there, split where the peer map's owner changes.
    fn runs<const N: usize>(&self, p: &Piece, w: (usize, usize), to: &mut Shares<N, impl FnMut(usize, Seg)>) {
        let theirs = self.maps().1;
        let block = theirs.block();
        let mut split = |s: usize, l: usize| {
            // Destination indices `s..s + l` are contiguous in my storage:
            // step through the peer's blocks (one block, reading a constant).
            let ((mut peer, end), slot) = (self.theirs(p, s), self.slot(p, s));
            let (mut i, mut e) = (0, (end - s).min(l));
            loop {
                to.feed(peer, match (self.role, p.step) {
                    // A clamped tail sends one slot over and over.
                    (Role::Send, 0) => Seg { start: slot, len: 1, stride: 0, count: e - i },
                    _ => Seg { start: slot + i, len: e - i, stride: 0, count: 1 },
                });
                if e == l {
                    break;
                }
                (i, e) = (e, (e + block).min(l));
                peer = if peer + 1 == theirs.q { 0 } else { peer + 1 };
            }
        };
        self.mine(p, w, &mut |g| g.runs().for_each(|(s, l)| split(s, l)));
    }

    /// Call `out` with my indices of `lo..hi` in piece `p`, as ascending
    /// families of runs, each run contiguous in my storage. A sender owns
    /// the destination indices whose source it owns.
    fn mine(&self, p: &Piece, (lo, hi): (usize, usize), out: &mut impl FnMut(Seg)) {
        let delta = p.src as isize - p.dst as isize;
        match (self.role, p.step) {
            (Role::Send, 0) => {
                if self.src.owner(p.src) == self.coord && lo < hi {
                    out(Seg { start: lo, len: hi - lo, stride: 0, count: 1 });
                }
            }
            (Role::Send, _) => owned_segments(self.src, self.coord, delta, lo, hi, out),
            (Role::Recv, _) => owned_segments(self.dst, self.coord, 0, lo, hi, out),
        }
    }

    /// My local slot of my first index from destination index `s` of piece
    /// `p` on (of `s` itself, when I own it).
    fn slot(&self, p: &Piece, s: usize) -> usize {
        match self.role {
            Role::Send => self.src.owned_before(self.coord, p.src + (s - p.dst) * p.step),
            Role::Recv => self.dst.owned_before(self.coord, s),
        }
    }

    /// The peer coordinate that shares destination index `s` of piece `p`,
    /// and the destination index where its block ends.
    fn theirs(&self, p: &Piece, s: usize) -> (usize, usize) {
        match (self.role, p.step) {
            (Role::Send, _) => (self.dst.owner(s), self.dst.block_end(s)),
            (Role::Recv, 0) => (self.src.owner(p.src), p.dst + p.len),
            (Role::Recv, _) => {
                let t = p.src + (s - p.dst);
                (self.src.owner(t), s + (self.src.block_end(t) - t))
            }
        }
    }
}

/// The destination indices after which `map`'s ownership repeats, for
/// `Cyclic` and `BlockCyclic` maps spread over more than one position;
/// `None` for a map read at one index throughout (`fixed`) or with one
/// block per position.
fn period(map: &DimMap, fixed: bool) -> Option<usize> {
    match map.dist {
        Dist::Cyclic | Dist::BlockCyclic(_) if map.q > 1 && !fixed => Some(map.block() * map.q),
        _ => None,
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 { a } else { gcd(b, a % b) }
}

/// Where a view's runs go: the folds of dimension `k`, one per peer
/// coordinate, putting finished `Seg`s with `put`.
struct Shares<'a, const N: usize, P> {
    folds: &'a mut [[Fold; N]],
    k: usize,
    put: &'a mut P,
}

impl<const N: usize, P: FnMut(usize, Seg)> Shares<'_, N, P> {
    fn fold(&mut self, c: usize) -> &mut Fold {
        &mut self.folds[c][self.k]
    }

    fn feed(&mut self, c: usize, seg: Seg) {
        self.folds[c][self.k].feed_seg(seg, self.put);
    }
}

/// Plan one role of a statement for processor `me`: its messages ascending
/// by peer, and its side of the local leg. `folds[c][k]` compresses what
/// [`View::walk`] gives peer coordinate `c` of dimension `k` onto the end
/// of the arena `runs` — grouped by a counting placement, a coordinate
/// being a small integer: the first pass counts each share's `Seg`s, the
/// second writes them where the counts put them. The peers are every
/// combination of one non-empty share per dimension; `ranks_at(peer
/// coordinates, visit)` names the processors (at most `fan`) there.
fn plan_role<const N: usize>(
    views: [View; N],
    (me, fan): (usize, usize),
    folds: &mut Vec<[Fold; N]>,
    runs: &mut Vec<Seg>,
    ranks_at: impl Fn([usize; N], &mut dyn FnMut(usize)),
) -> (Vec<Peer<N>>, Option<Peer<N>>) {
    let grid = views.each_ref().map(View::peers);
    folds.clear();
    folds.resize(grid.into_iter().max().unwrap_or(0), [Fold::default(); N]);
    for pass in 0..2 {
        let mut put = |at: usize, seg| if pass == 1 { runs[at] = seg };
        for (k, v) in views.iter().enumerate() {
            v.walk(&mut Shares { folds: &mut folds[..], k, put: &mut put });
        }
        folds.iter_mut().flatten().for_each(|f| f.finish(&mut put));
        if pass == 0 {
            let mut at = runs.len();
            for f in folds.iter_mut().flatten() {
                let segs = std::mem::take(f).at;
                (f.from, f.at) = (at, at);
                at += segs;
            }
            runs.resize(at, Seg::default());
        }
    }
    let shared = |k: usize| folds.iter().filter(|f| f[k].total > 0).count();
    let (mut out, mut local) = (Vec::with_capacity((0..N).map(shared).product::<usize>() * fan), None);
    for_each_index(grid, |c| {
        let shares: [&Fold; N] = std::array::from_fn(|k| &folds[c[k]][k]);
        let total: usize = shares.iter().map(|f| f.total).product();
        if total > 0 {
            ranks_at(c, &mut |peer| {
                let share = Peer { peer, total, spans: shares.map(|f| f.from..f.at) };
                if peer == me {
                    local = Some(share);
                } else {
                    out.push(share);
                }
            });
        }
    });
    out.sort_unstable_by_key(|p| p.peer);
    (out, local)
}

// ---------------------------------------------------------------------------
// Rank-generic plans
// ---------------------------------------------------------------------------

/// Placement descriptor of one side of an `N`-dimensional statement. The
/// processor grid is implied by the maps: `maps[k].q` positions along
/// dimension `k`, virtual ranks laid out row-major over it.
#[derive(Debug, Clone)]
pub struct Side<const N: usize> {
    /// The group the array lives on.
    pub group: GroupHandle,
    /// Per-dimension index maps (`Star` with `q == 1` when replicated).
    pub maps: [DimMap; N],
    /// Every member holds the whole extent (rank-1 arrays only).
    pub replicated: bool,
}

impl<const N: usize> Side<N> {
    fn grid(&self) -> [usize; N] {
        self.maps.map(|m| m.q)
    }

    /// Grid coordinate of physical processor `me`, if it holds elements.
    /// Every member of a replicated side stands at coordinate 0 of its
    /// `Star` map.
    pub(crate) fn coord_of(&self, me: usize) -> Option<[usize; N]> {
        if self.replicated {
            return self.group.contains_phys(me).then_some([0; N]);
        }
        self.group.vrank_of_phys(me).map(|v| unravel(v, self.grid()))
    }

    /// Physical processor at grid coordinate `coord`.
    pub(crate) fn phys(&self, coord: [usize; N]) -> usize {
        self.group.phys(ravel(coord, self.grid()))
    }

    /// Member of a replicated side that serves its data to destination
    /// processor `dp`: `dp` itself when it is a member, else the members
    /// round-robin.
    pub(crate) fn serve(&self, dp: usize) -> usize {
        debug_assert!(self.replicated);
        if self.group.contains_phys(dp) {
            dp
        } else {
            self.group.phys(dp % self.group.len())
        }
    }

    /// Physical processor that provides global element `idx` to
    /// destination processor `dp`.
    pub(crate) fn owner(&self, idx: [usize; N], dp: usize) -> usize {
        if self.replicated {
            self.serve(dp)
        } else {
            self.phys(std::array::from_fn(|k| self.maps[k].owner(idx[k])))
        }
    }

    /// Row-major element strides of `me`'s tile (zeros on non-members).
    pub(crate) fn strides(&self, me: usize) -> [usize; N] {
        let Some(c) = self.coord_of(me) else { return [0; N] };
        let mut strides = [1; N];
        for k in (1..N).rev() {
            strides[k - 1] = strides[k] * self.maps[k].local_len(c[k]);
        }
        strides
    }

    /// Flat slot of global element `idx` in its owner's tile, given that
    /// tile's `strides`.
    pub(crate) fn slot(&self, idx: [usize; N], strides: &[usize; N]) -> usize {
        (0..N).map(|k| self.maps[k].local_of(idx[k]) * strides[k]).sum()
    }
}

/// What a statement does along each destination dimension:
/// `dst[i₀, …] = src[j₀, …]` with `j[axes[k]] = remap[k](i[k])` for every
/// `i[k]` in `range[k]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stmt<const N: usize> {
    /// Index map of each destination dimension.
    pub remap: [Remap; N],
    /// Destination index range `(start, end)` written in each dimension.
    pub range: [(usize, usize); N],
    /// Axis permutation: destination dimension `k` reads source dimension
    /// `axes[k]` (`[1, 0]` is a transposition).
    pub axes: [usize; N],
}

impl<const N: usize> Stmt<N> {
    /// `dst[i₀, …] = src[remap₀(i₀), …]` over the whole destination
    /// `dmaps`, axes in order.
    pub fn whole(dmaps: &[DimMap; N], remap: [Remap; N]) -> Self {
        Stmt { remap, range: dmaps.map(|m| (0, m.n)), axes: std::array::from_fn(|k| k) }
    }
}

/// Cache key of a plan: the member lists (not the group ids — a partition
/// mints those afresh on every call, and a plan does not depend on them),
/// the maps that pin the index sets and the statement that pins what
/// moves; together they determine the plan for a given processor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key<const N: usize> {
    sgroup: Membership,
    smaps: [DimMap; N],
    srep: bool,
    dgroup: Membership,
    dmaps: [DimMap; N],
    drep: bool,
    stmt: Stmt<N>,
}

impl<const N: usize> Key<N> {
    /// The key of `stmt` between placements `s` and `d`.
    pub fn new(s: &Side<N>, d: &Side<N>, stmt: Stmt<N>) -> Self {
        Key {
            sgroup: s.group.membership(),
            smaps: s.maps,
            srep: s.replicated,
            dgroup: d.group.membership(),
            dmaps: d.maps,
            drep: d.replicated,
            stmt,
        }
    }
}

/// One peer's share of a plan: the cross product of the per-dimension
/// local-index runs, visited in the destination's row-major order (so
/// packed buffers hold ascending destination indices — the enumeration's
/// element order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peer<const N: usize> {
    /// Physical rank of the peer.
    pub peer: usize,
    /// Total element count (product of the per-dimension counts).
    pub total: usize,
    /// Where the local-index runs of each *destination* dimension (into
    /// source storage for sends, destination storage for receives) lie in
    /// the plan's arena. A dimension's share is stored once there, however
    /// many peers of the product it is part of.
    pub spans: [Range<usize>; N],
}

impl<const N: usize> Peer<N> {
    /// Each destination dimension's runs, out of the plan's arena `runs`.
    pub fn dims<'a>(&self, runs: &'a [Seg]) -> [&'a [Seg]; N] {
        std::array::from_fn(|k| &runs[self.spans[k].clone()])
    }
}

/// The communication plan of one statement for one processor: who to send
/// to and receive from, as strided local runs, plus the purely local leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<const N: usize> {
    /// The arena every share's runs live in: per role, per dimension, per
    /// peer coordinate, one contiguous span of `Seg`s.
    pub runs: Vec<Seg>,
    /// Outgoing messages, ascending by destination physical rank.
    pub sends: Vec<Peer<N>>,
    /// Incoming messages, ascending by source physical rank.
    pub recvs: Vec<Peer<N>>,
    /// The local leg, if any: its runs in my source tile and in my
    /// destination tile.
    pub local: Option<(Peer<N>, Peer<N>)>,
    /// Element stride in my source tile of one step along each
    /// *destination* dimension — the source tile's row-major strides
    /// permuted by the statement's axes, so under a transposition the
    /// innermost stride is the source pitch, not 1.
    pub src_strides: [usize; N],
    /// Row-major element strides of my destination tile.
    pub dst_strides: [usize; N],
}

/// Debug builds check a fresh plan against [`CommSets::enumerate`] up to
/// this many elements: the enumeration costs what the data costs.
const ORACLE_MAX_ELEMS: usize = 1 << 22;

impl<const N: usize> Plan<N> {
    /// Build the plan of `stmt` between placements `s` and `d` for
    /// processor `me`: the `N`-fold product of the per-dimension shares, in
    /// time and space proportional to the `Seg`s it holds (`View::walk`
    /// states the one exception) and a fixed number of allocations.
    /// Panics — in every
    /// build profile — if an index map leaves the source extent; debug
    /// builds verify the result against [`CommSets::enumerate`].
    pub fn build(me: usize, s: &Side<N>, d: &Side<N>, stmt: &Stmt<N>) -> Plan<N> {
        assert!(N == 1 || !(s.replicated || d.replicated), "only rank-1 arrays replicate");
        let ax = stmt.axes;
        // Per destination dimension: the source map it reads, and its
        // index map cut into pieces.
        let smaps: [DimMap; N] = std::array::from_fn(|k| s.maps[ax[k]]);
        let cuts: [Vec<Piece>; N] =
            std::array::from_fn(|k| stmt.remap[k].cut(stmt.range[k], smaps[k].n, N, k));
        let view = |role, k: usize, coord| View { cut: &cuts[k], src: &smaps[k], dst: &d.maps[k], role, coord };
        let (mut runs, mut folds) = (Vec::new(), Vec::new());
        let (mut sends, mut recvs, mut s_local, mut d_local) = (Vec::new(), Vec::new(), None, None);
        if let Some(c) = s.coord_of(me) {
            // My source coordinate along the destination's axes.
            let views = std::array::from_fn(|k| view(Role::Send, k, c[ax[k]]));
            let fan = if d.replicated { d.group.len() } else { 1 };
            (sends, s_local) = plan_role(views, (me, fan), &mut folds, &mut runs, |dc, visit| {
                // Every member of a replicated destination gets the share;
                // of a replicated source, only the serving member sends it.
                let one = [d.phys(dc)];
                let targets = if d.replicated { d.group.members() } else { &one[..] };
                targets.iter().filter(|&&dp| !s.replicated || s.serve(dp) == me).for_each(|&dp| visit(dp));
            });
        }
        if let Some(c) = d.coord_of(me) {
            let views = std::array::from_fn(|k| view(Role::Recv, k, c[k]));
            (recvs, d_local) = plan_role(views, (me, 1), &mut folds, &mut runs, |c, visit| {
                // Translate the per-axis coordinates back to the source
                // grid's own layout.
                let mut sc = [0; N];
                for k in 0..N {
                    sc[ax[k]] = c[k];
                }
                visit(if s.replicated { s.serve(me) } else { s.phys(sc) });
            });
        }
        let s_strides = s.strides(me);
        let plan = Plan {
            runs,
            sends,
            recvs,
            // Both roles see the local leg; each contributes its own side's runs.
            local: s_local.zip(d_local),
            src_strides: std::array::from_fn(|k| s_strides[ax[k]]),
            dst_strides: d.strides(me),
        };
        debug_assert!(
            plan.local.as_ref().is_none_or(|(sl, dl)| sl.total == dl.total),
            "local leg sides disagree"
        );
        let elems = || stmt.range.iter().try_fold(1usize, |n, &(lo, hi)| n.checked_mul(hi.saturating_sub(lo)));
        debug_assert!(
            elems().is_none_or(|n| n > ORACLE_MAX_ELEMS)
                || CommSets::of_plan(&plan) == CommSets::enumerate(me, s, d, stmt),
            "plan disagrees with the per-element enumeration"
        );
        plan
    }
}

// ---------------------------------------------------------------------------
// Pack, unpack, local copy
// ---------------------------------------------------------------------------

/// Call `f` with the flat base offset of every combination of indices of
/// the (outer) dimensions `dims`, in row-major order. The last of them is
/// walked in place rather than by one more call per index: its indices
/// are the rows of a matrix statement, often only a few elements long.
fn for_each_outer(dims: &[&[Seg]], strides: &[usize], base: usize, f: &mut impl FnMut(usize)) {
    let Some((runs, rest)) = dims.split_first() else { return f(base) };
    for (start, len) in pieces(runs) {
        for i in start..start + len {
            if rest.is_empty() {
                f(base + i * strides[0]);
            } else {
                for_each_outer(rest, &strides[1..], base + i * strides[0], f);
            }
        }
    }
}

/// Whether the runs of `seg`, at element step `step`, move as one slice
/// copy each: contiguous runs of two or more elements. Anything else — a
/// family of one-element runs, a stride-0 repeat, any run under a
/// permutation — moves as one typed gather or scatter loop over the whole
/// `Seg`. A copy call per run costs about what moving two or three
/// elements one at a time does (experiments/pr-45.md), so only
/// one-element runs gain from the loop.
fn by_slices(seg: &Seg, step: usize) -> bool {
    step == 1 && seg.len > 1
}

impl Seg {
    /// The offsets of this `Seg`'s elements as one arithmetic progression
    /// (first, gap) at element step `step`, if they form one: one run, or
    /// one-element runs. A gather or scatter along it is one flat loop;
    /// through the loop nest of a family it reads `redist_steady` 14 %
    /// slower end to end (experiments/pr-45.md).
    fn line(&self, step: usize) -> Option<(usize, usize)> {
        match (self.count, self.len) {
            (1, _) => Some((self.start * step, step)),
            (_, 1) => Some((self.start * step, self.stride * step)),
            _ => None,
        }
    }
}

/// Pack the cross product `dims` of a tile with element `strides` into a
/// pooled [`Chunk`] (message packing; the chunk's storage comes from the
/// sender's buffer pool and is recycled by the receiver). Each innermost
/// `Seg` is one [`Chunk::push_iter`] gather over its elements, or one
/// slice copy per run when its runs are contiguous and longer than one
/// element.
pub fn pack_into<T: Copy + Send + 'static, const N: usize>(
    src: &[T],
    strides: &[usize; N],
    dims: [&[Seg]; N],
    chunk: &mut Chunk,
) {
    let (inner, step) = (dims[N - 1], strides[N - 1]);
    for_each_outer(&dims[..N - 1], &strides[..N - 1], 0, &mut |base| {
        for seg in inner {
            let n = seg.count * seg.len;
            if by_slices(seg, step) {
                seg.runs().for_each(|(start, len)| chunk.push_slice(&src[base + start..][..len]));
            } else if let Some((first, gap)) = seg.line(step) {
                chunk.push_iter(n, (0..n).map(|k| src[base + first + k * gap]));
            } else {
                let elems = seg.runs().flat_map(|(start, len)| (start..start + len).map(|i| src[base + i * step]));
                chunk.push_iter(n, elems);
            }
        }
    });
}

/// Scatter a received [`Chunk`] into the cross product `dims` of a tile
/// with element `strides` — the inverse of [`pack_into`], with the same
/// choice per `Seg`.
pub fn unpack_chunk<T: Copy + Send + 'static, const N: usize>(
    dst: &mut [T],
    strides: &[usize; N],
    dims: [&[Seg]; N],
    chunk: &Chunk,
) {
    let (inner, step) = (dims[N - 1], strides[N - 1]);
    let mut off = 0;
    for_each_outer(&dims[..N - 1], &strides[..N - 1], 0, &mut |base| {
        for seg in inner {
            let n = seg.count * seg.len;
            if by_slices(seg, step) {
                for (k, (start, len)) in seg.runs().enumerate() {
                    chunk.read_into(off + k * len, &mut dst[base + start..][..len]);
                }
            } else if let Some((first, gap)) = seg.line(step) {
                (0..n).zip(chunk.iter_from(off, n)).for_each(|(k, v)| dst[base + first + k * gap] = v);
            } else {
                let mut vals = chunk.iter_from(off, n);
                let slots = seg.runs().flat_map(|(start, len)| start..start + len);
                slots.for_each(|i| dst[base + i * step] = vals.next().expect("a Seg holds count x len elements"));
            }
            off += n;
        }
    });
    debug_assert_eq!(off, chunk.elems());
}

/// The local leg of a statement: copy the cross product `s_dims` of `src`
/// onto the cross product `d_dims` of `dst` directly, with no staging
/// buffer. Both sides describe the same destination indices, so in every
/// dimension the two run lists cover equal counts: outer indices pair up
/// one to one and the innermost dimension is a 1-D run-to-run copy. The
/// destination tile is row-major (innermost stride 1).
pub fn copy_local<T: Copy, const N: usize>(
    src: &[T],
    s_strides: &[usize; N],
    s_dims: [&[Seg]; N],
    dst: &mut [T],
    d_strides: &[usize; N],
    d_dims: [&[Seg]; N],
) {
    debug_assert_eq!(d_strides[N - 1], 1, "destination tiles are row-major");
    copy_dims(src, s_strides, &s_dims, dst, d_strides, &d_dims);
}

/// [`copy_local`] from dimension `N - dims.len()` inwards, `src` and `dst`
/// starting at the outer dimensions' current indices.
fn copy_dims<T: Copy>(
    src: &[T],
    s_strides: &[usize],
    s_dims: &[&[Seg]],
    dst: &mut [T],
    d_strides: &[usize],
    d_dims: &[&[Seg]],
) {
    if let ([s_runs], [d_runs]) = (s_dims, d_dims) {
        return copy_seg_runs(src, s_strides[0], s_runs, dst, d_runs);
    }
    let indices = |runs| pieces(runs).flat_map(|(start, len)| start..start + len);
    for (i, j) in indices(s_dims[0]).zip(indices(d_dims[0])) {
        let (src, dst) = (&src[i * s_strides[0]..], &mut dst[j * d_strides[0]..]);
        copy_dims(src, &s_strides[1..], &s_dims[1..], dst, &d_strides[1..], &d_dims[1..]);
    }
}

/// Copy elements of `src` along `s_runs` (index `i` at `src[i * step]`)
/// to `dst` along `d_runs`. The two run lists cover the same number of
/// elements; piece boundaries may differ, so spans are copied at the finer
/// granularity — as slices when `step` is 1 and the span is longer than
/// one element, element by element otherwise.
fn copy_seg_runs<T: Copy>(src: &[T], step: usize, s_runs: &[Seg], dst: &mut [T], d_runs: &[Seg]) {
    let mut sit = pieces(s_runs);
    let mut dit = pieces(d_runs);
    let (mut sp, mut dp) = (sit.next(), dit.next());
    let (mut so, mut dof) = (0usize, 0usize);
    while let (Some((ss, sl)), Some((ds, dl))) = (sp, dp) {
        let span = (sl - so).min(dl - dof);
        let (from, to) = (ss + so, ds + dof);
        if step == 1 && span > 1 {
            dst[to..to + span].copy_from_slice(&src[from..from + span]);
        } else {
            for j in 0..span {
                dst[to + j] = src[(from + j) * step];
            }
        }
        so += span;
        dof += span;
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

// ---------------------------------------------------------------------------
// Reference enumeration (verification + benchmarking)
// ---------------------------------------------------------------------------

/// Fully expanded communication sets — the per-element view of a plan,
/// used for debug verification, property tests, and as the "legacy" leg
/// of the redistribution microbenchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSets {
    /// `(peer, src local slots in send order)`, ascending peer.
    pub sends: Vec<(usize, Vec<usize>)>,
    /// `(peer, dst local slots in receive order)`, ascending peer.
    pub recvs: Vec<(usize, Vec<usize>)>,
    /// `(src slot, dst slot)` local-leg pairs in element order.
    pub local: Vec<(usize, usize)>,
}

impl CommSets {
    /// The reference implementation of [`Plan::build`]: the per-element
    /// walk ([`CommSets::enumerate_with`]) under the statement's map.
    pub fn enumerate<const N: usize>(
        me: usize,
        s: &Side<N>,
        d: &Side<N>,
        stmt: &Stmt<N>,
    ) -> CommSets {
        CommSets::enumerate_with(me, s, d, stmt.range, |di| {
            let mut si = [0; N];
            for (k, &i) in di.iter().enumerate() {
                let a = stmt.axes[k];
                si[a] = stmt.remap[k].apply(i, s.maps[a].n).unwrap_or_else(|| {
                    panic!("{:?} sends destination index {i} outside the source", stmt.remap[k])
                });
            }
            si
        })
    }

    /// Walk every destination index of `range` in row-major order, map it
    /// to its source index with `f`, resolve both owners through the
    /// distribution metadata and bucket flat tile slots by peer — the
    /// oracle behind [`CommSets::enumerate`], and the closure oracle the
    /// structured remaps are tested against.
    pub fn enumerate_with<const N: usize>(
        me: usize,
        s: &Side<N>,
        d: &Side<N>,
        range: [(usize, usize); N],
        f: impl Fn([usize; N]) -> [usize; N],
    ) -> CommSets {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut local = Vec::new();
        if !s.group.contains_phys(me) && !d.group.contains_phys(me) {
            return CommSets { sends: Vec::new(), recvs: Vec::new(), local };
        }
        let (s_strides, d_strides) = (s.strides(me), d.strides(me));
        for_each_index(range.map(|(lo, hi)| hi.saturating_sub(lo)), |off| {
            let di: [usize; N] = std::array::from_fn(|k| range[k].0 + off[k]);
            let si = f(di);
            let one;
            let targets = if d.replicated {
                d.group.members()
            } else {
                one = [d.owner(di, me)];
                &one[..]
            };
            for &dp in targets {
                let sp = s.owner(si, dp);
                if sp == me {
                    if dp == me {
                        local.push((s.slot(si, &s_strides), d.slot(di, &d_strides)));
                    } else {
                        sends.entry(dp).or_default().push(s.slot(si, &s_strides));
                    }
                } else if dp == me {
                    recvs.entry(sp).or_default().push(d.slot(di, &d_strides));
                }
            }
        });
        CommSets {
            sends: sends.into_iter().collect(),
            recvs: recvs.into_iter().collect(),
            local,
        }
    }

    /// Expand a plan's strided runs back to per-element flat-slot sets.
    pub fn of_plan<const N: usize>(plan: &Plan<N>) -> CommSets {
        let slots = |p: &Peer<N>, strides: &[usize; N]| -> Vec<usize> {
            let per_dim: [Vec<usize>; N] =
                p.dims(&plan.runs).map(|r| pieces(r).flat_map(|(s, l)| s..s + l).collect());
            let mut out = Vec::with_capacity(p.total);
            for_each_index::<N>(std::array::from_fn(|k| per_dim[k].len()), |i| {
                out.push((0..N).map(|k| per_dim[k][i[k]] * strides[k]).sum());
            });
            out
        };
        let side = |peers: &[Peer<N>], strides| peers.iter().map(|p| (p.peer, slots(p, strides))).collect();
        CommSets {
            sends: side(&plan.sends, &plan.src_strides),
            recvs: side(&plan.recvs, &plan.dst_strides),
            local: plan.local.as_ref().map_or(Vec::new(), |(sl, dl)| {
                slots(sl, &plan.src_strides).into_iter().zip(slots(dl, &plan.dst_strides)).collect()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Fold`] a whole run list.
    fn compress(runs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Seg> {
        let (mut fold, mut out) = (Fold::default(), Vec::new());
        let mut put = |at, seg| {
            assert_eq!(at, out.len(), "positions count up from the fold's start");
            out.push(seg)
        };
        runs.into_iter().for_each(|(s, l)| fold.feed(s, l, &mut put));
        fold.finish(&mut put);
        assert_eq!((fold.from, fold.at), (0, out.len()));
        out
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
    fn a_fed_seg_is_its_runs_fed_in_turn() {
        // Fold states to start from: empty, a pending run, an open `Seg`
        // of one run or of several, at strides the `Seg` may continue.
        let states: [&[(usize, usize)]; 6] = [
            &[],
            &[(3, 2)],
            &[(0, 1), (4, 1)],
            &[(0, 1), (4, 1), (8, 1)],
            &[(9, 1), (9, 1), (9, 1)],
            &[(1, 2), (5, 2)],
        ];
        for before in states {
            for (start, len, stride, count) in quads(0..12, 1..4, 0..7, 1..10) {
                // The walk feeds no runs that overlap: one slot over and
                // over, or distinct runs.
                if (stride == 0 && len > 1) || (stride > 0 && stride < len) {
                    continue;
                }
                let seg = Seg { start, len, stride, count };
                let run = |whole: bool| {
                    let (mut fold, mut puts) = (Fold::default(), Vec::new());
                    let mut put = |at, seg| puts.push((at, seg));
                    before.iter().for_each(|&(s, l)| fold.feed(s, l, &mut put));
                    if whole {
                        fold.feed_seg(seg, &mut put);
                    } else {
                        pieces(&[seg]).for_each(|(s, l)| fold.feed(s, l, &mut put));
                    }
                    (Fold { mark: Tip::default(), ..fold }, puts)
                };
                assert_eq!(run(true), run(false), "{seg:?} after {before:?}");
            }
        }
    }

    #[test]
    fn a_translated_period_advances_as_walking_on() {
        // One peer's runs in each period, `step` slots further on each
        // time, fed after runs of earlier pieces that may touch the first.
        let patterns: [&[(usize, usize)]; 7] = [
            &[(0, 1)],
            &[(0, 2)],
            &[(1, 1)],
            &[(0, 1), (2, 1)],
            &[(0, 2), (3, 1)],
            &[(0, 1), (1, 2)],
            &[(1, 2), (4, 2)],
        ];
        let befores: [&[(usize, usize)]; 7] = [
            &[],
            &[(9, 1)],
            &[(8, 2)],
            &[(3, 1), (6, 1), (9, 1)],
            &[(1, 1), (5, 1), (9, 1)],
            &[(7, 1), (8, 1)],
            &[(2, 2), (6, 2)],
        ];
        for (before, pattern, step) in quads(0..7, 0..7, 1..9, 0..1).map(|(b, p, s, _)| (befores[b], patterns[p], s)) {
            if pattern.iter().any(|&(o, l)| o + l > step) {
                continue;
            }
            let period = |k: usize| pattern.iter().map(move |&(o, l)| (10 + k * step + o, l));
            let (mut fold, mut put) = (Fold::default(), |_, _| {});
            before.iter().for_each(|&(s, l)| fold.feed(s, l, &mut put));
            for k in 0..8 {
                let was = fold.tip();
                period(k).for_each(|(s, l)| fold.feed(s, l, &mut put));
                if fold.translated(was, step) {
                    let (mut jumped, mut walked, mut puts) = (fold, fold, 0);
                    jumped.advance(was, 5);
                    (k + 1..k + 6).flat_map(period).for_each(|(s, l)| walked.feed(s, l, &mut |_, _| puts += 1));
                    let what = format!("{pattern:?} every {step} after {before:?}, period {k}");
                    assert_eq!((jumped, puts), (walked, 0), "{what}");
                }
            }
        }
    }

    /// Every `(a, b, c, d)` of four ranges, the last varying fastest.
    fn quads(
        a: Range<usize>,
        b: Range<usize>,
        c: Range<usize>,
        d: Range<usize>,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        a.flat_map(move |w| {
            let (c, d) = (c.clone(), d.clone());
            b.clone().flat_map(move |x| {
                let d = d.clone();
                c.clone().flat_map(move |y| d.clone().map(move |z| (w, x, y, z)))
            })
        })
    }

    #[test]
    fn periodic_walks_plan_as_enumerated() {
        // Every pair of maps over extents that hold many periods of both,
        // between overlapping groups, under every kind of piece: windows
        // start and end mid-period, and a peer's share of a period is one
        // run or several.
        let dists = [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(2), Dist::BlockCyclic(3), Dist::BlockCyclic(7)];
        for (sd, dd) in dists.iter().flat_map(|&a| dists.map(|b| (a, b))) {
            for (sq, dq) in [(4, 4), (4, 3), (2, 5), (3, 1)] {
                let s_group = GroupHandle::synthetic(1, (0..sq).collect());
                let d_group = GroupHandle::synthetic(2, (1..1 + dq).rev().collect());
                for n in [29usize, 96, 131] {
                    let (s, d) = (
                        Side { group: s_group.clone(), maps: [DimMap::new(n, sq, sd)], replicated: false },
                        Side { group: d_group.clone(), maps: [DimMap::new(n, dq, dd)], replicated: false },
                    );
                    let stmts = [
                        (Remap::Identity, (0, n)),
                        (Remap::Identity, (5, n - 6)),
                        (Remap::Shift(3), (0, n - 3)),
                        (Remap::Shift(-4), (4, n)),
                        (Remap::ClampShift(n as isize / 2), (0, n)),
                        (Remap::ClampShift(-(n as isize) / 3), (2, n)),
                        (Remap::Cyclic(11), (0, n)),
                        (Remap::Cyclic(-(n as isize) / 2), (0, n)),
                    ];
                    for (remap, range) in stmts {
                        let stmt = Stmt { remap: [remap], range: [range], axes: [0] };
                        for me in 0..=sq.max(1 + dq) {
                            let plan = Plan::build(me, &s, &d, &stmt);
                            assert_eq!(
                                CommSets::of_plan(&plan),
                                CommSets::enumerate(me, &s, &d, &stmt),
                                "{sd:?}/{sq} -> {dd:?}/{dq}, n = {n}, {remap:?} over {range:?}, rank {me}"
                            );
                        }
                    }
                }
            }
        }
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
                                owned_segments(&map, c, delta, lo, hi, &mut |g| segs.extend(g.runs()));
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
    fn remap_cuts_at_clamps_and_wraps() {
        let shape = |r: Remap, dn, sn| -> Vec<(usize, usize, usize, usize)> {
            r.cut((0, dn), sn, 1, 0).iter().map(|p| (p.dst, p.len, p.src, p.step)).collect()
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

    /// One view's shares `(peer coordinate, index count, runs)`, planned
    /// onto a non-empty arena so spans are seen to start where it ended.
    fn dim_runs(cut: &[Piece], src: &DimMap, dst: &DimMap, role: Role, coord: usize) -> Vec<(usize, usize, Vec<Seg>)> {
        let (mut folds, mut runs) = (Vec::new(), vec![Seg::default(); 3]);
        let views = [View { cut, src, dst, role, coord }];
        let (peers, local) = plan_role(views, (usize::MAX, 1), &mut folds, &mut runs, |[c], visit| visit(c));
        assert!(local.is_none(), "no coordinate is `me`");
        assert_eq!(peers.capacity(), peers.len(), "reserved exactly");
        let out: Vec<_> = peers.iter().map(|p| (p.peer, p.total, p.dims(&runs)[0].to_vec())).collect();
        assert_eq!(runs.len(), 3 + out.iter().map(|s| s.2.len()).sum::<usize>(), "no gap, no spare");
        out
    }

    #[test]
    fn dim_runs_repeat_the_clamped_edge() {
        // dst[i] = src[min(i + 3, 7)] between two BLOCK maps over 2 coords:
        // sources 3 4 5 6 7 7 7 7.
        let map = DimMap::new(8, 2, Dist::Block);
        let cut = Remap::ClampShift(3).cut((0, 8), 8, 1, 0);
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

    #[test]
    fn shares_interleaved_in_destination_order_land_grouped_by_peer() {
        // CYCLIC(2) -> CYCLIC(3) over 2 coordinates each: coordinate 0 owns
        // sources 0 1 4 5 8 9, whose destination owners alternate.
        let (src, dst) = (DimMap::new(10, 2, Dist::BlockCyclic(2)), DimMap::new(10, 2, Dist::BlockCyclic(3)));
        let cut = Remap::Identity.cut((0, 10), 10, 1, 0);
        let seg = |start, len, stride, count| Seg { start, len, stride, count };
        // Destination owners 0 0 1 1 0 1 of its slots 0..6.
        assert_eq!(
            dim_runs(&cut, &src, &dst, Role::Send, 0),
            vec![(0, 3, vec![seg(0, 2, 0, 1), seg(4, 1, 0, 1)]), (1, 3, vec![seg(2, 2, 0, 1), seg(5, 1, 0, 1)])]
        );
        // Coordinate 1 owns destinations 3 4 5 9, read from 1 0 0 0.
        assert_eq!(
            dim_runs(&cut, &src, &dst, Role::Recv, 1),
            vec![(0, 3, vec![seg(1, 3, 0, 1)]), (1, 1, vec![seg(0, 1, 0, 1)])]
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let src: Vec<u32> = (0..40).collect();
        let runs = [&[
            Seg { start: 1, len: 2, stride: 10, count: 3 },
            Seg { start: 35, len: 4, stride: 0, count: 1 },
        ][..]];
        let mut chunk = Chunk::with_capacity::<u32>(10);
        pack_into(&src, &[1], runs, &mut chunk);
        let buf = chunk.to_vec::<u32>();
        assert_eq!(buf, vec![1, 2, 11, 12, 21, 22, 35, 36, 37, 38]);
        let mut dst = vec![0u32; 40];
        unpack_chunk(&mut dst, &[1], runs, &chunk);
        for (i, &v) in dst.iter().enumerate() {
            let expected = if buf.contains(&(i as u32)) { i as u32 } else { 0 };
            assert_eq!(v, expected);
        }
        // copy with differing piece boundaries
        let s_runs = [&[Seg { start: 0, len: 6, stride: 0, count: 1 }][..]];
        let d_runs = [&[Seg { start: 10, len: 2, stride: 3, count: 3 }][..]];
        let mut dst2 = vec![0u32; 20];
        copy_local(&src, &[1], s_runs, &mut dst2, &[1], d_runs);
        assert_eq!(&dst2[10..12], &[0, 1]);
        assert_eq!(&dst2[13..15], &[2, 3]);
        assert_eq!(&dst2[16..18], &[4, 5]);
    }
}
