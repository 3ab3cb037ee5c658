//! Root-centric gather/scatter — the I/O-stage pattern.
//!
//! The paper's applications read inputs and write outputs through a
//! single processor ("one simple solution is to have a single designated
//! I/O processor", §4 *Implication for I/O*). These collectives move a
//! whole distributed array of any rank to or from one member's memory, in
//! global row-major order, for exactly that pattern: the Airshed hourly
//! phases, result output in the sensor programs, checkpointing.
//!
//! Tiles travel as chunks on the schedule of the boxed collectives they
//! replace — same messages, bytes and virtual times as `Cx::gather` of
//! the tiles and as a root loop of `send_v`s.

use fx_core::Cx;

use crate::array::{DArray, Elem};
use crate::dist::ravel;
use crate::plan::WriteKind;

/// What both directions require of their array and caller.
fn check<T: Elem, const N: usize>(cx: &Cx, a: &DArray<T, N>, root: usize, what: &str) {
    assert_eq!(cx.group().gid(), a.group().gid(), "{what} is a collective over the array's group");
    assert!(!a.side().replicated, "{what}: a replicated array is already global on every member");
    assert!(root < cx.nprocs(), "{what} root {root} out of range for group of {}", cx.nprocs());
}

/// Gather a distributed array into a global row-major vector on virtual
/// rank `root` of the array's group. Collective over the array's group;
/// returns `Some(data)` on the root, `None` elsewhere.
pub fn gather_to_root<T: Elem + Default, const N: usize>(
    cx: &mut Cx,
    a: &DArray<T, N>,
    root: usize,
) -> Option<Vec<T>> {
    check(cx, a, root, "gather_to_root");
    let tag = cx.next_op_tag();
    a.versions().borrow_mut().record_read(a.whole());
    let me = cx.id();
    if me != root {
        // Every non-root sends, an empty tile included (the gather
        // collective's schedule).
        let mut chunk = cx.chunk_for::<T>(a.local().len());
        chunk.push_slice(a.local());
        cx.send_chunk_v(root, tag, chunk);
        return None;
    }
    let mut out = vec![T::default(); a.whole().end];
    let mut tile = Vec::new();
    for v in 0..cx.nprocs() {
        let part = if v == me {
            a.local()
        } else {
            tile.resize(a.extents_of(v).iter().product(), T::default());
            recv_tile(cx, v, tag, &mut tile);
            &tile
        };
        a.walk_member(v, |at, slot, len| out[at..at + len].copy_from_slice(&part[slot..slot + len]));
    }
    Some(out)
}

/// Scatter a global row-major vector from virtual rank `root` onto a
/// distributed array. Collective over the array's group; only the root's
/// `data` is read (`None` elsewhere is fine).
pub fn scatter_from_root<T: Elem, const N: usize>(
    cx: &mut Cx,
    a: &mut DArray<T, N>,
    root: usize,
    data: Option<&[T]>,
) {
    check(cx, a, root, "scatter_from_root");
    let tag = cx.next_op_tag();
    // Root I/O writes through point-to-point sends no later statement can
    // piggyback on: taint the whole array (an opaque write).
    a.versions().borrow_mut().record_write(a.whole(), WriteKind::Opaque);
    let me = cx.id();
    if me != root {
        // No empty messages: a member that owns nothing is not sent to.
        if !a.local().is_empty() {
            recv_tile(cx, root, tag, a.local_mut());
        }
        return;
    }
    let data = data.expect("the root must supply the data");
    assert_eq!(data.len(), a.whole().end, "scatter length mismatch");
    for v in (0..cx.nprocs()).filter(|&v| v != me) {
        let count = a.extents_of(v).iter().product();
        if count == 0 {
            continue;
        }
        let mut chunk = cx.chunk_for::<T>(count);
        a.walk_member(v, |at, _, len| chunk.push_slice(&data[at..at + len]));
        cx.send_chunk_v(v, tag, chunk);
    }
    let shape = a.shape();
    a.each_owned(|g, v| *v = data[ravel(g, shape)]);
}

/// Receive the tile virtual rank `from` sent on `tag` into `into`.
fn recv_tile<T: Elem>(cx: &mut Cx, from: usize, tag: u64, into: &mut [T]) {
    let chunk = cx.recv_chunk_v(from, tag);
    assert_eq!(chunk.elems(), into.len(), "root I/O tile size mismatch from member {from}");
    chunk.read_into(0, into);
    cx.release_chunk(chunk);
}
