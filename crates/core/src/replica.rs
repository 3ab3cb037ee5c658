//! Replicated on the model, once on the host.
//!
//! The paper replicates scalars and tree tops, and "computations execute
//! redundantly on all processors". [`Cx::replicated`] keeps that program:
//! every member of the current group calls it, at the same point of its
//! SPMD order, and each pays its own virtual charges around it. On the
//! host the first member to arrive runs the closure and the others share
//! its `Arc`, so a group of 64 holds one copy of a replicated tree instead
//! of 64.
//!
//! The run's one [`Replicas`] table is built by `spmd` beside the world
//! group and cloned into every [`Cx`]. A slot is keyed by the current
//! group's id and a fresh op tag, and leaves the table when the group's
//! last member takes it. A group entered twice at the same sequence number
//! (an HPF `ON PROCESSORS` block run twice) draws the same key twice, so a
//! key holds a queue of generations and a member takes the oldest one it
//! has not taken yet. A promotable loop's board is shared the same way
//! ([`Cx::shared`], under the loop's first op tag), without the debug
//! comparison: it is mutable rendezvous state, not a replicated value.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::cx::Cx;

type Shared = Arc<dyn Any + Send + Sync>;
/// Slots by (group id, op tag), oldest generation first.
type Table = HashMap<(u64, u64), VecDeque<Slot>>;

/// One computed value and which members have taken it.
struct Slot {
    value: Shared,
    /// Bit `v` is set once virtual rank `v` has taken the value.
    taken: Vec<u64>,
    /// Members that have not taken it yet.
    left: usize,
}

impl Slot {
    fn new(value: Shared, members: usize) -> Slot {
        Slot { value, taken: vec![0; members.div_ceil(64)], left: members }
    }

    fn has_taken(&self, v: usize) -> bool {
        self.taken[v / 64] >> (v % 64) & 1 == 1
    }

    /// Virtual rank `v` takes the value.
    fn take(&mut self, v: usize) -> Shared {
        self.taken[v / 64] |= 1 << (v % 64);
        self.left -= 1;
        Arc::clone(&self.value)
    }
}

/// The run's table of replicated values in flight, shared by every
/// processor's [`Cx`].
#[derive(Default)]
pub(crate) struct Replicas {
    slots: Mutex<Table>,
}

impl Replicas {
    /// Take the oldest generation under `key` that virtual rank `v` has
    /// not taken yet.
    fn take(&self, key: (u64, u64), v: usize) -> Option<Shared> {
        Self::take_locked(&mut self.lock(), key, v)
    }

    /// Publish `value` as a new generation under `key` for the other
    /// `n - 1` members of the group — unless a racing member published
    /// first, whose value is then taken and returned instead: the first
    /// insert wins, since the values are equal by contract.
    fn publish(&self, key: (u64, u64), v: usize, n: usize, value: Shared) -> Shared {
        let mut slots = self.lock();
        if let Some(first) = Self::take_locked(&mut slots, key, v) {
            return first;
        }
        let mut slot = Slot::new(value, n);
        let value = slot.take(v);
        if slot.left > 0 {
            slots.entry(key).or_default().push_back(slot);
        }
        value
    }

    fn take_locked(slots: &mut Table, key: (u64, u64), v: usize) -> Option<Shared> {
        let gens = slots.get_mut(&key)?;
        let at = gens.iter().position(|s| !s.has_taken(v))?;
        let value = gens[at].take(v);
        if gens[at].left == 0 {
            gens.remove(at);
            if gens.is_empty() {
                slots.remove(&key);
            }
        }
        Some(value)
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // A member that panicked while holding the lock left the map
        // consistent (no step above can panic half way), and its run is
        // being torn down anyway.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Slots not yet taken by every member of their group.
    #[cfg(test)]
    fn outstanding(&self) -> usize {
        self.lock().values().map(VecDeque::len).sum()
    }
}

/// A whole array every member of a group holds: the one read-only buffer
/// [`Cx::replicated`] built for the group, read as a slice. Cloning shares
/// the buffer; a caller that must own the data calls `.to_vec()`.
pub struct Global<T>(Arc<Vec<T>>);

impl<T> Global<T> {
    /// Do `a` and `b` read the same buffer?
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T> From<Arc<Vec<T>>> for Global<T> {
    fn from(shared: Arc<Vec<T>>) -> Self {
        Global(shared)
    }
}

impl<T> Deref for Global<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> Clone for Global<T> {
    fn clone(&self) -> Self {
        Global(Arc::clone(&self.0))
    }
}

impl<T: PartialEq> PartialEq for Global<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for Global<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: fmt::Debug> fmt::Debug for Global<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

impl Cx<'_> {
    /// A value every member of the current group computes identically:
    /// the paper's redundant replicated computation, run once on the host.
    ///
    /// Every member must call this at the same point of its SPMD order (it
    /// draws an op tag, like a collective). The first member to arrive runs
    /// `f`; the others share its result. `f` gets no [`Cx`], so it can
    /// neither charge nor communicate: a caller keeps the virtual charge of
    /// the computation on every member, beside the call. Nothing `f`
    /// computes may depend on the member — never wrap anything that reads
    /// `cx.id()`, charges or communicates.
    ///
    /// Debug builds run `f` on every member too and panic, naming the
    /// processor and the group, when a member's value differs from the
    /// shared one. Release builds run it once per group, or once per racing
    /// member when threads arrive together (the first insert wins). Never
    /// parks.
    ///
    /// ```
    /// use fx_core::{spmd, Machine};
    ///
    /// let rep = spmd(&Machine::real(4), |cx| cx.replicated(|| (0..1000u64).sum::<u64>()));
    /// assert!(rep.results.iter().all(|r| std::sync::Arc::ptr_eq(r, &rep.results[0])));
    /// ```
    pub fn replicated<T, F>(&mut self, f: F) -> Arc<T>
    where
        T: PartialEq + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let tag = self.next_op_tag();
        let mut f = Some(f);
        let mut compute = || Arc::new(f.take().expect("the closure runs once per member")());
        let mine = cfg!(debug_assertions).then(&mut compute);
        let shared = self.shared(tag, || mine.clone().unwrap_or_else(compute));
        if let Some(own) = mine {
            let (me, v, gid) = (self.phys_rank(), self.id(), self.top().handle.gid());
            assert!(
                *own == *shared,
                "replicated value differs on processor {me} (rank {v} of group {gid:#x}): \
                 the closure depends on the member"
            );
        }
        shared
    }

    /// The current group's one `T` under op tag `tag`: the first member to
    /// arrive publishes `make()`, every member (the publisher included)
    /// takes it once, and the table forgets it when the last one has.
    /// Never parks.
    pub(crate) fn shared<T: Send + Sync + 'static>(&mut self, tag: u64, make: impl FnOnce() -> Arc<T>) -> Arc<T> {
        let gid = self.top().handle.gid();
        let (key, v, n) = ((gid, tag), self.id(), self.nprocs());
        let shared = match self.replicas.take(key, v) {
            Some(shared) => shared,
            None => self.replicas.publish(key, v, n, make() as Shared),
        };
        let me = self.phys_rank();
        shared
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("a replicated value of another type on processor {me} of group {gid:#x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_runtime::Machine;

    #[test]
    fn a_reentered_group_takes_its_generations_in_order() {
        // Both ON blocks name the same section, so both calls draw the
        // same key; rank 0 runs both before rank 1 starts under one
        // worker, and each member must still read its own block's value.
        let rep = crate::spmd(&Machine::real(2).with_executor(fx_runtime::Executor::Pooled { workers: 1 }), |cx| {
            let a = cx.on_processors(0..2, |cx| *cx.replicated(|| 1u32)).unwrap();
            let b = cx.on_processors(0..2, |cx| *cx.replicated(|| 2u32)).unwrap();
            (a, b)
        });
        assert_eq!(rep.results, vec![(1, 2), (1, 2)]);
    }

    #[test]
    fn a_bit_per_rank_past_one_word() {
        let r = Replicas::default();
        let (key, n) = ((1, 2), 130);
        assert!(r.take(key, 129).is_none());
        r.publish(key, 129, n, Arc::new(7u8));
        assert!(r.take(key, 129).is_none(), "the publisher has taken its own");
        for v in 0..129 {
            assert_eq!(r.outstanding(), 1, "before rank {v}");
            let got = r.take(key, v).expect("published");
            assert_eq!(*got.downcast::<u8>().unwrap(), 7);
        }
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn a_racing_publisher_takes_the_first_insert() {
        let r = Replicas::default();
        let first = r.publish((3, 4), 0, 2, Arc::new(1u8));
        let second = r.publish((3, 4), 1, 2, Arc::new(1u8));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(r.outstanding(), 0);
    }
}
