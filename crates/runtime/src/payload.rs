//! Message payloads.
//!
//! The simulator needs to know how many bytes each message occupies on the
//! (virtual) wire, so every type sent through the runtime implements
//! [`Payload`]. Payloads travel between threads in one of three forms —
//! "direct deposit" into the receiver's mailbox, mirroring the Fx/Paragon
//! communication layer where the sender writes straight into the receiver's
//! memory space:
//!
//! * **Inline** — a value of at most 16 bytes with alignment ≤ 8 (every
//!   scalar, `()`, an `Arc`, small tuples and `Option`s) travels inside
//!   the envelope itself, beside its `TypeId` and, only when it has any,
//!   its drop glue. No allocation: the message is one record in one place.
//! * **Boxed** — `Box<dyn Any + Send>`, one allocation per message. The
//!   general path for a value that does not fit inline, recovered by
//!   downcast on receive.
//! * **Chunk** — a typed byte buffer drawn from a per-processor
//!   [`BufferPool`] and recycled across pipeline iterations. The fast path
//!   for plan-driven bulk transfers (`fx-darray` pack/unpack loops): no
//!   per-message allocation once the pool is warm, no `Box<dyn Any>`
//!   indirection, bytes copied exactly twice (pack in, unpack out).
//!
//! Every form charges the same wire size, so virtual time is identical
//! whichever path a program uses. Either way the payload rides inside a
//! mailbox `Envelope` alongside its metadata — including the 8-byte
//! causal trace id piggyback ([`crate::Event::trace`]), which is
//! host-side bookkeeping and never part of the charged wire size.

use std::any::{Any, TypeId};
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};

/// A value that can be sent between (virtual) processors.
///
/// `nbytes` is the wire size charged by the cost model; it should reflect
/// the payload's semantic size, not Rust allocation overheads.
pub trait Payload: Send + 'static {
    /// Number of bytes this value occupies on the wire.
    fn nbytes(&self) -> usize;
}

macro_rules! scalar_payload {
    ($($t:ty),* $(,)?) => {
        $(impl Payload for $t {
            #[inline]
            fn nbytes(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}

scalar_payload!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

impl Payload for () {
    #[inline]
    fn nbytes(&self) -> usize {
        0
    }
}

// Clone (not Copy) elements: messages are moved into the mailbox, never
// duplicated, so the runtime only needs value-like elements. The wire size
// counts each element's inline size; element-owned heap storage (for types
// like `Vec<Vec<T>>`) is not charged — flatten before sending if the cost
// model should see those bytes.
impl<T: Clone + Send + 'static> Payload for Vec<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: Clone + Send + 'static> Payload for Box<[T]> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes()
    }
}

impl<T: Payload> Payload for Option<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        // One flag byte plus the contents, if any.
        1 + self.as_ref().map_or(0, Payload::nbytes)
    }
}

// A shared payload charges the wire size of its contents: the `Arc` is a
// host-side aliasing trick (a broadcast forwards one allocation instead of
// deep-cloning at every tree level), invisible to the cost model. `T: Sync`
// because the same allocation becomes reachable from several processor
// threads at once.
impl<T: Payload + Sync> Payload for std::sync::Arc<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

/// Type-erased payload as stored in a mailbox.
pub(crate) type AnyPayload = Box<dyn Any + Send>;

/// The three wire formats a message body can take.
pub(crate) enum MsgBody {
    /// Small path: the value itself, inside the envelope.
    Inline(Inline),
    /// General path: a boxed `dyn Any` payload, recovered by downcast.
    Boxed(AnyPayload),
    /// Fast path: a pooled, typed byte buffer (plan-driven bulk data).
    Chunk(Chunk),
}

/// Storage of an inline payload: 16 bytes, 8-aligned.
type InlineBytes = MaybeUninit<[u64; 2]>;

/// A payload small enough to travel inside its envelope: the value's
/// bytes, its type and, when it needs one, its destructor. The marker
/// keeps the body `Send` but not `Sync`, like the box it replaces.
pub(crate) struct Inline {
    bytes: InlineBytes,
    ty: TypeId,
    drop: Option<unsafe fn(*mut InlineBytes)>,
    _unsync: PhantomData<std::cell::Cell<()>>,
}

impl Inline {
    /// Whether a `T` travels inline (decided per type at compile time).
    const fn fits<T>() -> bool {
        std::mem::size_of::<T>() <= std::mem::size_of::<InlineBytes>()
            && std::mem::align_of::<T>() <= std::mem::align_of::<InlineBytes>()
    }

    /// Store `value`. Panics unless a `T` fits ([`Inline::fits`]); per
    /// type the check is a constant, so it folds away.
    fn new<T: Payload>(value: T) -> Self {
        /// Drop the `T` stored in `bytes`.
        ///
        /// # Safety
        /// `bytes` holds a live `T`, dropped nowhere else.
        unsafe fn drop_as<T>(bytes: *mut InlineBytes) {
            // SAFETY: the caller's contract.
            unsafe { std::ptr::drop_in_place(bytes.cast::<T>()) }
        }
        assert!(Self::fits::<T>(), "inline payload too large");
        let mut bytes = InlineBytes::uninit();
        // SAFETY: `fits` bounds `T`'s size and alignment by the storage's,
        // so the write stays inside `bytes` and is aligned.
        unsafe { bytes.as_mut_ptr().cast::<T>().write(value) };
        let drop = std::mem::needs_drop::<T>().then_some(drop_as::<T> as unsafe fn(*mut InlineBytes));
        Inline { bytes, ty: TypeId::of::<T>(), drop, _unsync: PhantomData }
    }

    /// The stored value, if it is a `T`.
    fn take<T: Payload>(self) -> Option<T> {
        if self.ty != TypeId::of::<T>() {
            return None;
        }
        let me = ManuallyDrop::new(self);
        // SAFETY: the type check above says `bytes` holds a live `T`
        // (written by `new`); `ManuallyDrop` keeps `Drop` from dropping
        // it a second time.
        Some(unsafe { me.bytes.as_ptr().cast::<T>().read() })
    }
}

impl Drop for Inline {
    fn drop(&mut self) {
        if let Some(drop) = self.drop {
            // SAFETY: `drop` is the glue `new` stored for the `T` it
            // wrote; a value moved out by `take` never reaches here.
            unsafe { drop(&mut self.bytes) }
        }
    }
}

/// Erase a payload, retaining its wire size: inline when it fits,
/// boxed otherwise.
pub(crate) fn erase<T: Payload>(value: T) -> (MsgBody, usize) {
    let n = value.nbytes();
    if Inline::fits::<T>() {
        (MsgBody::Inline(Inline::new(value)), n)
    } else {
        (MsgBody::Boxed(Box::new(value)), n)
    }
}

/// Recover a payload of a concrete type; panics on a type mismatch, which
/// indicates mismatched send/recv pairs in an SPMD program (a program bug,
/// analogous to an MPI datatype mismatch). The text is the same whichever
/// form the message took.
pub(crate) fn unerase<T: Payload>(body: MsgBody, src: usize, tag: u64) -> T {
    let value = match body {
        MsgBody::Inline(v) => v.take::<T>(),
        MsgBody::Boxed(b) => b.downcast::<T>().ok().map(|b| *b),
        MsgBody::Chunk(_) => panic!(
            "recv type mismatch for message from processor {src} tag {tag:#x}: \
             expected {}, got a byte chunk (receive it with recv_chunk)",
            std::any::type_name::<T>()
        ),
    };
    value.unwrap_or_else(|| {
        panic!(
            "recv type mismatch for message from processor {src} tag {tag:#x}: \
             expected {}",
            std::any::type_name::<T>()
        )
    })
}

/// A typed byte buffer for plan-driven bulk transfers.
///
/// A chunk is a flat `Vec<u8>` tagged with the element type it carries.
/// Senders pack it a strided run family at a time: a contiguous run as
/// one byte copy ([`Chunk::push_slice`]), anything else as one typed
/// gather loop ([`Chunk::push_iter`]). Receivers read it back the same
/// two ways ([`Chunk::read_into`], [`Chunk::iter_from`]) and return the
/// storage to their [`BufferPool`]. Each call checks the type and the
/// bounds once; inside a loop elements move by unaligned typed stores
/// and loads — the buffer is never reinterpreted as `&[T]`, so element
/// alignment never constrains the pooled storage.
///
/// Elements must be `Copy`: a chunk is a byte image, so it can only carry
/// plain values with no drop glue or owned heap storage. A chunk holds at
/// most `u32::MAX` elements; a push past that panics.
pub struct Chunk {
    bytes: Vec<u8>,
    ty: TypeId,
    elems: u32,
    /// Rank whose pool the storage came from ([`STANDALONE`]: none).
    home: u32,
}

/// The `home` of a chunk whose storage belongs to no pool.
const STANDALONE: u32 = u32::MAX;

impl Chunk {
    /// An empty chunk for elements of type `T`, with room for `elems`
    /// elements before reallocating. Standalone constructor for tests;
    /// inside a running program use `ProcCtx::chunk_for`, which draws the
    /// storage from the processor's buffer pool instead of the allocator.
    pub fn with_capacity<T: Copy + Send + 'static>(elems: usize) -> Self {
        Self::from_bytes::<T>(Vec::with_capacity(elems * std::mem::size_of::<T>()), None)
    }

    /// Wrap pool storage of processor `home` as an empty chunk for `T`.
    pub(crate) fn from_bytes<T: Copy + Send + 'static>(mut bytes: Vec<u8>, home: Option<u32>) -> Self {
        bytes.clear();
        Chunk { bytes, ty: TypeId::of::<T>(), elems: 0, home: home.unwrap_or(STANDALONE) }
    }

    /// The element type check.
    fn check_type<T: Copy + Send + 'static>(&self) {
        assert!(
            self.ty == TypeId::of::<T>(),
            "chunk element type mismatch: expected {}",
            std::any::type_name::<T>()
        );
        debug_assert_eq!(self.bytes.len(), self.elems() * std::mem::size_of::<T>(), "chunk length");
    }

    /// Panics unless `n` more elements keep the count within `u32::MAX`.
    fn check_room(&self, n: usize) {
        assert!(n <= (u32::MAX - self.elems) as usize, "chunk push: more than u32::MAX elements");
    }

    /// Append the `n` elements `items` yields (the pack half of a
    /// transfer): one type check and one `reserve` per call, then one
    /// unaligned typed store per element. `items` is driven by internal
    /// iteration, so a gather over nested runs compiles to nested loops
    /// with no call per element. Panics, leaving the chunk as it was, if
    /// `items` yields more or fewer than `n`.
    #[inline]
    pub fn push_iter<T: Copy + Send + 'static>(&mut self, n: usize, items: impl IntoIterator<Item = T>) {
        self.check_type::<T>();
        let len = self.bytes.len();
        let nbytes = n.checked_mul(std::mem::size_of::<T>()).expect("chunk push: size overflows usize");
        self.check_room(n);
        self.bytes.reserve(nbytes);
        let free = self.bytes.spare_capacity_mut().as_mut_ptr().cast::<T>();
        let mut k = 0;
        items.into_iter().for_each(|item| {
            assert!(k < n, "chunk push: more than {n} items");
            // SAFETY: `k < n`, and `reserve` left room for `n` elements'
            // bytes past `len`; an unaligned store needs no alignment, and
            // `T: Copy` has no drop glue to skip.
            unsafe { free.add(k).write_unaligned(item) };
            k += 1;
        });
        assert_eq!(k, n, "chunk push: the items ran out");
        // SAFETY: the `n` elements' `nbytes` bytes past `len` were all
        // written above.
        unsafe { self.bytes.set_len(len + nbytes) };
        self.elems += n as u32;
    }

    /// The `n` elements from element `offset` on, in order (the unpack
    /// half of a transfer): one type check and one bounds check per call,
    /// then one unaligned typed load per element.
    #[inline]
    pub fn iter_from<T: Copy + Send + 'static>(&self, offset: usize, n: usize) -> impl ExactSizeIterator<Item = T> + '_ {
        let from = self.bytes_of::<T>(offset, n).as_ptr().cast::<T>();
        // SAFETY: `bytes_of` checked that `n` elements' initialized bytes
        // start at `from`, each pushed as a `T`, and they stay borrowed
        // while the iterator lives; an unaligned load needs no alignment.
        (0..n).map(move |k| unsafe { from.add(k).read_unaligned() })
    }

    /// The bytes of the `n` elements from element `offset` on, after the
    /// type check and the bounds check.
    fn bytes_of<T: Copy + Send + 'static>(&self, offset: usize, n: usize) -> &[u8] {
        self.check_type::<T>();
        assert!(
            offset.checked_add(n).is_some_and(|end| end <= self.elems()),
            "chunk read out of bounds: {}..+{} of {} elems",
            offset,
            n,
            self.elems()
        );
        let size = std::mem::size_of::<T>();
        &self.bytes[offset * size..(offset + n) * size]
    }

    /// Append a run of elements as one byte copy (the slice counterpart
    /// of [`Chunk::push_iter`], up to twice as fast on a run of 16 or more
    /// elements).
    #[inline]
    pub fn push_slice<T: Copy + Send + 'static>(&mut self, src: &[T]) {
        self.check_type::<T>();
        self.check_room(src.len());
        let nb = std::mem::size_of_val(src);
        self.bytes.reserve(nb);
        // SAFETY: `reserve` guarantees `nb` spare bytes past `len`; the
        // source slice is `nb` valid bytes of `Copy` data; the regions
        // cannot overlap (the Vec owns its storage exclusively).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr().cast::<u8>(),
                self.bytes.as_mut_ptr().add(self.bytes.len()),
                nb,
            );
            self.bytes.set_len(self.bytes.len() + nb);
        }
        self.elems += src.len() as u32;
    }

    /// Copy `dst.len()` elements starting at element `offset` into `dst`
    /// as one byte copy (the slice counterpart of [`Chunk::iter_from`]).
    #[inline]
    pub fn read_into<T: Copy + Send + 'static>(&self, offset: usize, dst: &mut [T]) {
        let from = self.bytes_of::<T>(offset, dst.len());
        // SAFETY: `from` is exactly `dst`'s byte length of initialized
        // bytes, each element pushed as a `T`; `dst` is a valid `&mut [T]`
        // and cannot overlap the chunk's own storage.
        unsafe { std::ptr::copy_nonoverlapping(from.as_ptr(), dst.as_mut_ptr().cast::<u8>(), from.len()) };
    }

    /// All elements as a freshly allocated `Vec<T>`.
    pub fn to_vec<T: Copy + Send + 'static>(&self) -> Vec<T> {
        self.iter_from(0, self.elems()).collect()
    }

    /// Number of elements packed so far.
    #[inline]
    pub fn elems(&self) -> usize {
        self.elems as usize
    }

    /// True when no elements have been packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// Wire size in bytes (what the cost model charges) — identical to
    /// sending the same elements as a `Vec<T>`.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.bytes.len()
    }

    /// Surrender the storage and its home (for recycling into a pool).
    pub(crate) fn into_parts(self) -> (Vec<u8>, Option<usize>) {
        (self.bytes, (self.home != STANDALONE).then_some(self.home as usize))
    }
}

/// Buffers receivers gave back to a processor's pool, not yet taken in.
pub(crate) type Returned = parking_lot::Mutex<Vec<Vec<u8>>>;

/// Per-processor freelist of message buffers, keyed by power-of-two size
/// class. Senders draw pack buffers from here; a receiver keeps unpacked
/// storage only in a class it acquires itself (an all-to-all, a halo) and
/// otherwise gives it back to its home's [`Returned`] list. So in a steady
/// state every transfer finds a recycled buffer and a sink holds none.
#[derive(Default)]
pub(crate) struct BufferPool {
    /// `classes[c]` holds idle buffers with capacity ≥ 2^c bytes.
    classes: Vec<Vec<Vec<u8>>>,
    /// Bit c set once the owner has acquired a buffer of class c.
    used: u32,
}

/// Smallest pooled class: 2^6 = 64 bytes (sub-cacheline buffers are not
/// worth tracking).
const MIN_CLASS: usize = 6;
/// Largest pooled class: 2^31 = 2 GiB per buffer.
const MAX_CLASS: usize = 31;
/// Idle bytes retained per class (and 16 buffers of any size), so that an
/// all-to-all's P−1 chunks all come back; extras are dropped to bound footprint.
const CLASS_BYTES: usize = 1 << 20;

impl BufferPool {
    /// A buffer with capacity ≥ `nbytes`, and whether it was recycled (a hit,
    /// taking in what was `returned` first) or freshly allocated (a miss).
    pub fn acquire(&mut self, nbytes: usize, returned: &Returned) -> (Vec<u8>, bool) {
        let c = Self::class_ceil(nbytes);
        self.used |= 1 << c;
        if self.classes.get(c).is_none_or(Vec::is_empty) {
            std::mem::take(&mut *returned.lock()).into_iter().for_each(|b| self.release(b));
        }
        match self.classes.get_mut(c).and_then(Vec::pop) {
            Some(b) => (b, true),
            None => (Vec::with_capacity(1usize << c), false),
        }
    }

    /// Return a buffer to the pool (dropped if its class is full or its
    /// capacity is too small to classify).
    pub fn release(&mut self, mut bytes: Vec<u8>) {
        bytes.clear();
        let cap = bytes.capacity();
        if cap < (1 << MIN_CLASS) {
            return;
        }
        // Floor class: a buffer in class c is guaranteed to have
        // capacity ≥ 2^c, so it can serve any acquire of class ≤ c.
        let c = ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(MAX_CLASS);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        if self.classes[c].len() < (CLASS_BYTES >> c).max(16) {
            self.classes[c].push(bytes);
        }
    }

    /// Whether the owner acquires buffers of the class `cap` bytes fill.
    pub fn uses(&self, cap: usize) -> bool {
        self.used & (1 << Self::class_ceil(cap)) != 0
    }

    /// Size class whose buffers can hold `nbytes`: ceil(log2), clamped.
    fn class_ceil(nbytes: usize) -> usize {
        let nb = nbytes.max(1);
        let c = (usize::BITS - (nb - 1).leading_zeros()) as usize;
        c.clamp(MIN_CLASS, MAX_CLASS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(3.0f64.nbytes(), 8);
        assert_eq!(1u32.nbytes(), 4);
        assert_eq!(().nbytes(), 0);
        assert_eq!(true.nbytes(), 1);
    }

    #[test]
    fn vec_and_slice_sizes() {
        assert_eq!(vec![0f64; 10].nbytes(), 80);
        let b: Box<[u32]> = vec![1u32; 5].into_boxed_slice();
        assert_eq!(b.nbytes(), 20);
    }

    #[test]
    fn tuple_and_option_sizes() {
        assert_eq!((1u64, 2u32).nbytes(), 12);
        assert_eq!((1u8, 2u8, vec![0u8; 3]).nbytes(), 5);
        assert_eq!(Some(7u64).nbytes(), 9);
        assert_eq!(None::<u64>.nbytes(), 1);
    }

    #[test]
    fn arc_charges_inner_size() {
        let v = std::sync::Arc::new(vec![0f64; 10]);
        assert_eq!(v.nbytes(), 80);
    }

    #[test]
    fn erase_roundtrip() {
        let (any, n) = erase(vec![1u32, 2, 3]);
        assert_eq!(n, 12);
        let v: Vec<u32> = unerase(any, 0, 0);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn unerase_wrong_type_panics() {
        let (any, _) = erase(1u32);
        let _: f64 = unerase(any, 3, 7);
    }

    #[test]
    fn small_values_travel_inline_and_the_rest_boxed() {
        let inline = |b: &MsgBody| matches!(b, MsgBody::Inline(_));
        assert!(inline(&erase(7u64).0) && inline(&erase(()).0) && inline(&erase(Some(7u64)).0));
        assert!(inline(&erase((1u32, 2.0f64)).0) && inline(&erase(std::sync::Arc::new(vec![0u8; 99])).0));
        // Alignment 16, and 24 bytes: boxed, and back whole.
        let (wide, n) = erase(u128::MAX - 3);
        assert!(!inline(&wide) && n == 16);
        assert_eq!(unerase::<u128>(wide, 0, 0), u128::MAX - 3);
        let (triple, n) = erase((1u64, -2.5f64, 3usize));
        assert!(!inline(&triple) && n == 24);
        assert_eq!(unerase::<(u64, f64, usize)>(triple, 0, 0), (1, -2.5, 3));
        assert!(!inline(&erase(vec![1u8]).0));
    }

    #[test]
    fn a_mismatch_reads_the_same_inline_or_boxed() {
        let text = |body: MsgBody| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unerase::<f64>(body, 3, 7)));
            *err.expect_err("a mismatch panics").downcast::<String>().expect("a formatted message")
        };
        let (inline, boxed) = (text(erase(1u64).0), text(erase(1u128).0));
        assert_eq!(inline, boxed);
        assert_eq!(inline, "recv type mismatch for message from processor 3 tag 0x7: expected f64");
    }

    #[test]
    fn an_inline_value_is_dropped_once_whether_taken_or_not() {
        let a = std::sync::Arc::new(5u64);
        let (kept, _) = erase(std::sync::Arc::clone(&a));
        let (taken, _) = erase(std::sync::Arc::clone(&a));
        assert_eq!(std::sync::Arc::strong_count(&a), 3);
        drop(kept);
        assert_eq!(std::sync::Arc::strong_count(&a), 2);
        let back: std::sync::Arc<u64> = unerase(taken, 0, 0);
        assert_eq!(std::sync::Arc::strong_count(&a), 2);
        drop(back);
        assert_eq!(std::sync::Arc::strong_count(&a), 1);
    }

    #[test]
    fn chunk_pack_unpack_roundtrip() {
        let mut c = Chunk::with_capacity::<u32>(8);
        c.push_slice(&[1u32, 2, 3]);
        c.push_slice(&[4u32, 5]);
        assert_eq!(c.elems(), 5);
        assert_eq!(c.nbytes(), 20);
        let mut head = [0u32; 3];
        c.read_into(0, &mut head);
        assert_eq!(head, [1, 2, 3]);
        let mut tail = [0u32; 2];
        c.read_into(3, &mut tail);
        assert_eq!(tail, [4, 5]);
        assert_eq!(c.to_vec::<u32>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn chunk_gathers_and_scatters_in_one_call_per_family() {
        // Every third element of a 1-byte, an 8-byte and a 16-byte tile,
        // out and back: what a one-element strided family packs.
        fn family<T: Copy + Send + PartialEq + std::fmt::Debug + 'static>(tile: &[T]) {
            let mut c = Chunk::with_capacity::<T>(0);
            c.push_iter(tile.len() / 3, (0..tile.len() / 3).map(|k| tile[3 * k]));
            assert_eq!(c.elems(), tile.len() / 3);
            let mut back = tile.to_vec();
            back.iter_mut().step_by(3).zip(c.iter_from::<T>(0, c.elems())).for_each(|(d, v)| *d = v);
            assert_eq!(back, tile);
            assert_eq!(c.iter_from::<T>(2, 3).collect::<Vec<_>>(), [tile[6], tile[9], tile[12]]);
        }
        family(&(0..40u8).collect::<Vec<_>>());
        family(&(0..40).map(f64::from).collect::<Vec<_>>());
        family(&(0..40u32).map(|i| [f64::from(i), -f64::from(i)]).collect::<Vec<_>>());
    }

    #[test]
    fn a_short_push_leaves_the_chunk_as_it_was() {
        let mut c = Chunk::with_capacity::<u16>(8);
        c.push_slice(&[7u16, 8]);
        let short = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.push_iter(5, [1u16, 2, 3])));
        assert!(short.is_err());
        assert_eq!((c.elems(), c.to_vec::<u16>()), (2, vec![7, 8]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_read_whose_end_wraps_panics() {
        let mut c = Chunk::with_capacity::<u64>(4);
        c.push_slice(&[1u64, 2]);
        // offset + n wraps to 0: without a checked add the range would
        // pass the bounds check and the loads would leave the buffer.
        c.iter_from::<u64>(usize::MAX, 1 << 61).for_each(drop);
    }

    #[test]
    #[should_panic(expected = "size overflows")]
    fn a_push_whose_size_wraps_panics() {
        Chunk::with_capacity::<u64>(4).push_iter(1 << 61, std::iter::repeat(7u64));
    }

    #[test]
    fn a_chunk_stays_small() {
        // A chunk rides in every mailbox envelope that carries one.
        assert!(std::mem::size_of::<Chunk>() <= 48, "{}", std::mem::size_of::<Chunk>());
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX elements")]
    fn a_push_past_u32_max_elements_panics() {
        let mut c = Chunk::with_capacity::<()>(0);
        c.push_slice(&vec![(); u32::MAX as usize]);
        assert_eq!(c.elems(), u32::MAX as usize);
        c.push_iter(1, [()]);
    }

    #[test]
    #[should_panic(expected = "chunk element type mismatch")]
    fn chunk_wrong_type_panics() {
        let mut c = Chunk::with_capacity::<u32>(4);
        c.push_slice(&[1.0f64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn chunk_read_out_of_bounds_panics() {
        let mut c = Chunk::with_capacity::<u8>(4);
        c.push_slice(&[1u8, 2]);
        let mut dst = [0u8; 3];
        c.read_into(0, &mut dst);
    }

    #[test]
    fn pool_recycles_by_size_class() {
        let (mut p, back) = (BufferPool::default(), Returned::default());
        let (b, hit) = p.acquire(1000, &back); // class 10 (1024)
        assert!(!hit && b.capacity() >= 1000);
        p.release(b);
        let (b2, hit) = p.acquire(700, &back); // still class 10
        assert!(hit && b2.capacity() >= 1024);
        let (_b3, hit) = p.acquire(2000, &back); // class 11: fresh allocation
        assert!(!hit);
    }

    #[test]
    fn pool_depth_is_bounded_by_bytes() {
        // (buffer size, buffers retained): 1 MiB per class for small
        // buffers, never fewer than 16 for large ones.
        for (size, depth) in [(256usize, 4096u64), (1 << 16, 16), (1 << 20, 16)] {
            let (mut p, back) = (BufferPool::default(), Returned::default());
            for _ in 0..depth + 4 {
                p.release(Vec::with_capacity(size));
            }
            let hits = (0..depth + 4).filter(|_| p.acquire(size, &back).1).count();
            assert_eq!(hits as u64, depth, "size {size}: the other 4 acquires allocate");
        }
    }

    #[test]
    fn pool_keeps_every_chunk_of_a_64_way_all_to_all() {
        let (mut p, back) = (BufferPool::default(), Returned::default());
        for round in 0..3 {
            let held: Vec<_> = (0..63).map(|_| p.acquire(256, &back)).collect();
            let hits = held.iter().filter(|(_, hit)| *hit).count();
            assert_eq!(hits, if round == 0 { 0 } else { 63 }, "round {round}: only the first round allocates");
            held.into_iter().for_each(|(b, _)| p.release(b));
        }
    }

    #[test]
    fn a_miss_takes_in_returned_buffers_under_the_class_cap() {
        let (mut p, back) = (BufferPool::default(), Returned::default());
        assert!(!p.uses(1 << 16));
        let (b, hit) = p.acquire(1 << 16, &back);
        assert!(!hit && p.uses(b.capacity()) && !p.uses(1 << 17));
        // A receiver gave back 20 buffers of the class: the next miss takes
        // them in, keeps the class's 16 and leaves the list empty.
        back.lock().extend((0..20).map(|_| Vec::with_capacity(1 << 16)));
        let hits = (0..17).filter(|_| p.acquire(1 << 16, &back).1).count();
        assert_eq!((hits, back.lock().len()), (16, 0));
        // A hit takes no returned buffer in.
        p.release(b);
        back.lock().push(Vec::with_capacity(1 << 16));
        assert!(p.acquire(1 << 16, &back).1 && back.lock().len() == 1);
    }

    #[test]
    fn pool_ignores_tiny_buffers() {
        let (mut p, back) = (BufferPool::default(), Returned::default());
        p.release(Vec::with_capacity(8));
        assert!(!p.acquire(8, &back).1);
    }
}
