//! Per-processor mailboxes, sharded into per-source lanes.
//!
//! Each simulated processor owns one mailbox. A send *deposits* the message
//! directly into the destination mailbox (no rendezvous), mirroring the
//! direct-deposit communication layer of Fx on the Paragon [Stricker et
//! al. '95]. Receives match on `(source, tag)` and are FIFO per channel,
//! which — together with the absence of a wildcard source — makes virtual
//! time fully deterministic.
//!
//! The mailbox is **sharded by sender**: one lane (a mutex around one
//! queue) per source rank, so concurrent senders depositing into the same
//! receiver never contend on a shared lock, and the receiver — there is no
//! wildcard receive — waits on exactly the lane it matches.
//!
//! * **One FIFO per lane, scanned by tag.** A lane holds its source's
//!   undelivered messages in deposit order. Deposits are serialised by the
//!   lane lock, so the first envelope carrying `tag` *is* the oldest of
//!   channel `(src, tag)`: first match = FIFO per channel. Nearly every
//!   statement and collective draws a fresh tag and depth is typically
//!   0–2, so a take is a `pop_front`: no hashing, no per-tag allocation,
//!   and the ring buffer is reused for the life of the lane, so a delivered
//!   message leaves nothing behind. Accepted worst case: draining a lane in
//!   reverse deposit order is O(depth) per take (no program here does it).
//! * **A sender-sparse lane table.** Lanes come in blocks of 32 senders. A
//!   mailbox holds one 16-byte slot per block (32 at P = 1024); a block is
//!   built with the first lane in it, and a lane by the first deposit
//!   from, or wait on, its source. So setting up P mailboxes writes P²/32
//!   slots, not P², and a mailbox's heap grows with the senders it hears
//!   from, not with P. `probe` and the observers read an absent lane as
//!   empty and build nothing.
//! * **A backlog makes a sender yield** (`ProcCtx::catch_up`): a
//!   deposit reports whether its sender's previous message was still queued.
//!
//! ## The wakeup protocol
//!
//! One protocol. A receiver that finds no match *registers* the tag it
//! needs in the lane (`waiting_tag`, written under the lane lock) and
//! parks through the `park` closure its context supplies; a deposit that
//! matches the registered tag clears it and wakes the owning processor
//! ([`Parkers::wake`]). Registration-under-lock closes the race with a
//! concurrent deposit: the depositor either sees the registration (and
//! wakes) or deposited before it (and the wake is not needed: the
//! receiver's next look at the lane finds the message). A wake that
//! arrives before the park commits is latched, so the park aborts — see
//! [`crate::parker`] for the latch, for what parking and waking mean,
//! and for the watchdog, which latches a `timed_out` flag and wakes the
//! processor; it re-checks its lane and raises the deadlock diagnostic
//! from its own context. A deposit nobody is registered for wakes nobody:
//! no system call, and nothing shared is written but the lane.
//!
//! `poison` sets the flag, then *materialises* each lane and bumps its
//! lock, then wakes the owner unconditionally. The wake alone is not
//! enough: a receiver may consume a stale latched `NOTIFIED` — one left
//! by an earlier wake, not the poisoner's — and so run without having
//! synchronised with the poisoner at all. The lock bump is what orders
//! the flag against that receiver: it is either past its flag check
//! holding the lane lock (and will park → the poisoner's wake, which
//! comes after the bump, reaches it or aborts its park) or takes the lock
//! after the bump (and sees the flag). A receiver only ever waits on a
//! lane it has fetched, and a slot is initialised once, so whichever side
//! built the lane `poison` locks the very mutex the receiver checked the
//! flag under: the argument holds for a lane that did not exist at the
//! panic.
//!
//! ## Message ages
//!
//! A deposit is stamped from the run's coarse clock
//! ([`crate::clock::CoarseClock`]: one relaxed load, advanced once per
//! watchdog period), not from the host clock. The only reader is the
//! depth snapshot behind the deadlock dump, the stall report and the
//! registry's queue gauges, whose caller refreshes the clock first: an
//! age is the true one plus at most one period (`recv_timeout / 8`,
//! 5–250 ms), ample for telling "being drained" from "queued long ago".

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::debug_counters::MAX_LANE_DEPTH;
use crate::parker::Parkers;
use crate::payload::MsgBody;

/// A message at rest in a mailbox.
pub(crate) struct Envelope {
    /// Physical rank of the sender.
    pub src: usize,
    /// Channel tag (runtime-internal; composed from group id + sequence).
    pub tag: u64,
    /// Virtual time at which the message may be received (already includes
    /// wire latency).
    pub arrival: f64,
    /// Wire size used for receiver-side cost accounting.
    pub nbytes: usize,
    /// Coarse-clock nanoseconds at the deposit, so diagnostics can report
    /// how long the message has been waiting unreceived.
    pub enqueued: u64,
    /// Causal trace id piggybacked by the sender (`0` = untraced). The
    /// receiver adopts a non-zero trace on take, which is how a logical
    /// operation's identity crosses processor boundaries — identically
    /// for boxed and chunk payloads, and invisible to the cost model.
    pub trace: u64,
    /// The message body (type-erased box or pooled byte chunk).
    pub payload: MsgBody,
}

/// One non-empty `(src, tag)` channel of a mailbox at a point in time:
/// its depth and how long its oldest (front, FIFO) message has been
/// queued unreceived. The oldest-wait distinguishes "this channel is
/// being drained normally" from "these messages arrived long ago and
/// nobody is receiving them" at a glance in deadlock dumps.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneDepth {
    /// Sender rank of the channel.
    pub src: usize,
    /// Channel tag.
    pub tag: u64,
    /// Messages queued.
    pub count: usize,
    /// Age of the oldest queued message.
    pub oldest_wait: Duration,
    /// Payload bytes of the channel's queued chunks (the registry's
    /// chunk-bytes-in-flight gauge); not part of the dump's text.
    pub chunk_bytes: u64,
}

impl std::fmt::Debug for LaneDepth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(src={}, tag={:#x}, n={}, oldest={:.1?})",
            self.src, self.tag, self.count, self.oldest_wait
        )
    }
}

/// Queue depths of one mailbox at a point in time, one entry per
/// non-empty `(src, tag)` channel, ascending by source then tag.
pub(crate) type DepthSnapshot = Vec<LaneDepth>;

#[derive(Default)]
struct LaneState {
    /// Every undelivered message of this lane's source, in deposit order.
    queue: VecDeque<Envelope>,
    /// Payload bytes deposited on this lane so far (host observability).
    bytes: u64,
    /// The tag the owning processor is parked on (`None` when it is not
    /// waiting on this lane). Written by the receiver under the lane lock
    /// before parking; cleared by the matching deposit (which then wakes
    /// the owner) or by the receiver itself on a successful pop.
    waiting_tag: Option<u64>,
}

impl LaneState {
    /// Take the oldest queued message carrying `tag` (usually the front).
    fn pop_tag(&mut self, tag: u64) -> Option<Envelope> {
        if self.queue.front()?.tag == tag {
            return self.queue.pop_front();
        }
        let at = self.queue.iter().position(|e| e.tag == tag)?;
        self.queue.remove(at)
    }
}

/// One sender's shard of a mailbox.
type Lane = Mutex<LaneState>;

/// Senders per block of a lane table.
const BLOCK: usize = 32;

/// The lane slots of [`BLOCK`] consecutive senders.
type Block = [OnceLock<Box<Lane>>; BLOCK];

/// Mailbox of one physical processor: a sender-sparse lane table.
pub(crate) struct Mailbox {
    /// Slot `b` holds the lanes of senders `32b..32b + 32`, once one of
    /// them is built.
    blocks: Box<[OnceLock<Box<Block>>]>,
    /// Possible senders (the machine's processors).
    nprocs: usize,
    /// Physical rank of the one processor that receives here.
    owner: usize,
    /// The run's park latches (to wake `owner`), recv timeout, and the
    /// coarse clock that stamped every queued envelope.
    parkers: Arc<Parkers>,
    /// Set when some processor panicked: everyone blocked here must unwind
    /// too so the whole run fails instead of hanging.
    poisoned: AtomicBool,
}

impl Mailbox {
    /// The mailbox of processor `owner`, able to receive from `nprocs`
    /// senders (including itself).
    pub fn new(nprocs: usize, owner: usize, parkers: Arc<Parkers>) -> Self {
        let blocks = (0..nprocs.div_ceil(BLOCK)).map(|_| OnceLock::new()).collect();
        Mailbox { blocks, nprocs, owner, parkers, poisoned: AtomicBool::new(false) }
    }

    /// The lane of sender `src`, built (with its block) on first use.
    fn lane(&self, src: usize) -> &Lane {
        let block = self.blocks[src / BLOCK].get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        block[src % BLOCK].get_or_init(Box::default)
    }

    /// The lane of sender `src`, if it is built.
    fn built(&self, src: usize) -> Option<&Lane> {
        Some(&**self.blocks[src / BLOCK].get()?[src % BLOCK].get()?)
    }

    /// The lanes built so far, each with its sender rank, ascending.
    fn live_lanes(&self) -> impl Iterator<Item = (usize, &Lane)> {
        let blocks = self.blocks.iter().enumerate().filter_map(|(b, block)| Some((b * BLOCK, block.get()?)));
        blocks.flat_map(|(first, block)| {
            block.iter().enumerate().filter_map(move |(i, l)| Some((first + i, &**l.get()?)))
        })
    }

    /// Deposit a message (called by the *sender*). Only the sender's own
    /// lane is locked, so concurrent senders never serialize on each other.
    ///
    /// Wakes the owner only when it is registered on this lane for this
    /// tag: only the owning processor ever blocks in [`Mailbox::take`]
    /// (sends never wait), and it waits on exactly one `(src, tag)`.
    ///
    /// Returns whether the lane lock was already held when the deposit
    /// arrived (the receiver draining, or a same-source deposit racing
    /// through another group context). The cost is identical either way —
    /// `try_lock` succeeding *is* the uncontended lock fast path — so the
    /// telemetry lane-contention counter is free when nobody reads it.
    /// Second, whether the lane still held a message of the sender's (its backlog).
    pub fn deposit(&self, env: Envelope) -> (bool, bool) {
        let lane = self.lane(env.src);
        let (mut st, contended) = match lane.try_lock() {
            Some(st) => (st, false),
            None => (lane.lock(), true),
        };
        let (tag, backlog) = (env.tag, !st.queue.is_empty());
        st.bytes += env.nbytes as u64;
        st.queue.push_back(env);
        if cfg!(debug_assertions) {
            MAX_LANE_DEPTH.fetch_max(st.queue.len() as u64, Ordering::Relaxed);
        }
        // Consume a matching wait registration under the lane lock, then
        // wake the owner.
        let wake_owner = st.waiting_tag.take_if(|t| *t == tag).is_some();
        drop(st);
        if wake_owner {
            self.parkers.wake(self.owner);
        }
        (contended, backlog)
    }

    /// Block until a message from `src` with `tag` is available and take
    /// it. `park` is the context's way to block the owning processor
    /// until its next wake (see the module header for the protocol).
    ///
    /// The run's recv timeout bounds the wait; exceeding it indicates a
    /// deadlock in the SPMD program (mismatched send/recv or collective)
    /// and panics with a per-`(src, tag)` queue-depth snapshot of every
    /// lane, so a stuck pipeline shows at a glance what *is* pending and
    /// from whom.
    pub fn take(&self, src: usize, tag: u64, mut park: impl FnMut()) -> Envelope {
        let (lane, me) = (self.lane(src), self.owner);
        loop {
            {
                let mut st = lane.lock();
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("processor {me}: aborting recv, another processor panicked");
                }
                if let Some(env) = st.pop_tag(tag) {
                    st.waiting_tag = None;
                    drop(st);
                    // Drop any stale watchdog latch: the message won.
                    self.parkers.clear_timeout(me);
                    return env;
                }
                // Register the wait under the lane lock, so a concurrent
                // deposit either sees it (and wakes us) or already
                // enqueued (and the next loop iteration pops it).
                st.waiting_tag = Some(tag);
            }
            park();
            // Woken: matching deposit, poison, or the watchdog. The loop
            // re-checks the lane first — progress wins over a timeout that
            // raced a late delivery.
            if self.parkers.take_timed_out(me)
                && !self.probe(src, tag)
                && !self.poisoned.load(Ordering::Acquire)
            {
                let pending = self.depth_snapshot(self.parkers.clock.refresh());
                let timeout = self.parkers.recv_timeout;
                panic!(
                    "processor {me}: recv(src={src}, tag={tag:#x}) timed out after \
                     {timeout:?} — likely deadlock. Pending per (src, tag) with depth \
                     and oldest-message age: {pending:?}"
                );
            }
        }
    }

    /// Non-blocking probe: is a message from `src` with `tag` waiting?
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        self.built(src).is_some_and(|l| l.lock().queue.iter().any(|e| e.tag == tag))
    }

    /// True once some processor panicked and poisoned this mailbox.
    /// Host-spin loops that wait on shared state other than the mailbox
    /// (a promotable loop's board) poll this so they unwind instead of hanging.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Release the owner with a poison flag after a panic elsewhere: set
    /// the flag, bump every lane's lock, wake the owner (see the module
    /// header for why all three).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for src in 0..self.nprocs {
            drop(self.lane(src).lock());
        }
        self.parkers.wake(self.owner);
    }

    /// Number of undelivered messages (used by the run harness to detect
    /// programs that exit leaving messages unreceived).
    pub fn undelivered(&self) -> usize {
        self.live_lanes().map(|(_, l)| l.lock().queue.len()).sum()
    }

    /// Depths of every non-empty `(src, tag)` queue, ascending by source
    /// then tag, each with the age at coarse-clock time `now` of its
    /// oldest queued message — the deadlock diagnostic and debugging view.
    pub fn depth_snapshot(&self, now: u64) -> DepthSnapshot {
        let mut out: DepthSnapshot = Vec::new();
        for (src, lane) in self.live_lanes() {
            let mut tags: BTreeMap<u64, LaneDepth> = BTreeMap::new();
            for e in &lane.lock().queue {
                // Deposit order: the first message met per tag is its oldest.
                let oldest_wait = Duration::from_nanos(now.saturating_sub(e.enqueued));
                let fresh = LaneDepth { src, tag: e.tag, count: 0, oldest_wait, chunk_bytes: 0 };
                let d = tags.entry(e.tag).or_insert(fresh);
                d.count += 1;
                if matches!(e.payload, MsgBody::Chunk(_)) {
                    d.chunk_bytes += e.nbytes as u64;
                }
            }
            out.extend(tags.into_values());
        }
        out
    }

    /// The `(src, tag)` the owner is registered to wait on, if any: the
    /// wait edge of a parked receive, read where the receive keeps it.
    pub fn waiting(&self) -> Option<(usize, u64)> {
        self.live_lanes().find_map(|(src, lane)| Some((src, lane.lock().waiting_tag?)))
    }

    /// `(sender rank, payload bytes deposited since the run began)` of
    /// every lane built so far, ascending by sender. A lane nobody built
    /// received nothing; reporting it would make the run report O(P²).
    pub fn lane_bytes(&self) -> Vec<(usize, u64)> {
        self.live_lanes().map(|(src, l)| (src, l.lock().bytes)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{spawn_ticker, tick_period, CoarseClock, TickGuard};
    use crate::payload::erase;
    use crate::pool::Pool;

    /// The mailbox of processor 0 of a one-processor run: its
    /// park latch, a coarse clock of its own, and a ticker playing the
    /// run's watchdog for as long as the harness lives.
    struct Harness {
        mb: Arc<Mailbox>,
        _watchdog: TickGuard,
    }

    impl std::ops::Deref for Harness {
        type Target = Mailbox;
        fn deref(&self) -> &Mailbox {
            &self.mb
        }
    }

    fn harness(nprocs: usize, timeout: Duration) -> Harness {
        let clock = Arc::new(CoarseClock::new());
        let parkers = Parkers::new(1, Pool::new(1, 1), timeout, Arc::clone(&clock));
        let mb = Arc::new(Mailbox::new(nprocs, 0, Arc::clone(&parkers)));
        let expire = move |now, slack| parkers.expire_parked(now, slack, |_, _| ());
        Harness { mb, _watchdog: spawn_ticker("fx-tick", clock, tick_period(timeout), expire) }
    }

    fn mailbox(nprocs: usize) -> Harness {
        harness(nprocs, Duration::from_secs(10))
    }

    /// Processor 0 (the calling thread) receives, standing in for the
    /// worker of a one-worker pool: it commits the park and then waits
    /// for a wake to put processor 0 on the run queue.
    fn take(mb: &Mailbox, src: usize, tag: u64) -> Envelope {
        mb.take(src, tag, || {
            if mb.parkers.commit_park(0) {
                while mb.parkers.pool.find_work(0).is_none() {
                    std::thread::yield_now();
                }
            }
        })
    }

    /// Deposit `v` from `src` on `tag`, stamped as a send would stamp it.
    fn put(mb: &Mailbox, src: usize, tag: u64, v: u32) {
        let (payload, nbytes) = erase(v);
        mb.deposit(Envelope {
            src,
            tag,
            arrival: 0.0,
            nbytes,
            enqueued: mb.parkers.clock.now_ns(),
            trace: 0,
            payload: MsgBody::Boxed(payload),
        });
    }

    impl Mailbox {
        /// The depth snapshot at the host's now.
        fn depths_now(&self) -> DepthSnapshot {
            self.depth_snapshot(self.parkers.clock.refresh())
        }

        /// Lanes built so far (at most one per sender that deposited or
        /// was waited on).
        fn materialised_lanes(&self) -> usize {
            self.live_lanes().count()
        }

        /// Envelope slots held by all queues, full or empty.
        fn retained_slots(&self) -> usize {
            self.live_lanes().map(|(_, l)| l.lock().queue.capacity()).sum()
        }

        /// Heap bytes of the lane table: the block slots, the blocks built
        /// and the lanes built (not what their queues hold).
        fn table_bytes(&self) -> usize {
            let built = self.blocks.iter().filter(|b| b.get().is_some()).count();
            std::mem::size_of_val(&*self.blocks)
                + built * std::mem::size_of::<Block>()
                + self.materialised_lanes() * std::mem::size_of::<Lane>()
        }
    }

    fn take_u32(mb: &Mailbox, src: usize, tag: u64) -> u32 {
        let e = take(mb, src, tag);
        match e.payload {
            MsgBody::Boxed(b) => crate::payload::unerase(b, src, tag),
            MsgBody::Chunk(_) => panic!("expected boxed payload"),
        }
    }

    #[test]
    fn fifo_per_channel() {
        let mb = mailbox(4);
        put(&mb, 1, 7, 10);
        put(&mb, 1, 7, 20);
        assert_eq!(take_u32(&mb, 1, 7), 10);
        assert_eq!(take_u32(&mb, 1, 7), 20);
    }

    #[test]
    fn channels_are_independent() {
        let mb = mailbox(4);
        put(&mb, 1, 7, 10);
        put(&mb, 2, 7, 20);
        assert_eq!(take_u32(&mb, 2, 7), 20);
        assert!(mb.probe(1, 7));
        assert!(!mb.probe(2, 7));
        assert_eq!(mb.undelivered(), 1);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn take_times_out_with_diagnostic() {
        let mb = harness(4, Duration::from_millis(20));
        put(&mb, 3, 9, 1);
        take(&mb, 1, 7);
    }

    #[test]
    fn timeout_diagnostic_reports_lane_depths_and_oldest_age() {
        let mb = harness(4, Duration::from_millis(20));
        put(&mb, 3, 9, 1);
        std::thread::sleep(Duration::from_millis(30));
        put(&mb, 3, 9, 2);
        put(&mb, 2, 5, 7);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            take(&mb, 1, 7);
        }))
        .expect_err("must time out");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("src=2, tag=0x5, n=1"), "snapshot missing lane 2: {msg}");
        assert!(msg.contains("src=3, tag=0x9, n=2"), "snapshot missing depth-2 queue: {msg}");
        assert!(msg.contains("oldest="), "snapshot missing oldest-message age: {msg}");
    }

    #[test]
    fn depth_snapshot_tracks_oldest_message_age() {
        let mb = mailbox(4);
        put(&mb, 3, 9, 1);
        std::thread::sleep(Duration::from_millis(40));
        mb.parkers.clock.refresh();
        put(&mb, 3, 9, 2); // newer message must not reset the age
        let snap = mb.depths_now();
        assert_eq!(snap.len(), 1);
        assert_eq!((snap[0].src, snap[0].tag, snap[0].count), (3, 9, 2));
        assert!(
            snap[0].oldest_wait >= Duration::from_millis(40),
            "oldest_wait should reflect the front (oldest) message, got {:?}",
            snap[0].oldest_wait
        );
        // Draining the oldest message shrinks the reported age.
        let _ = take(&mb, 3, 9);
        let snap = mb.depths_now();
        assert_eq!(snap[0].count, 1);
        assert!(snap[0].oldest_wait < Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "another processor panicked")]
    fn poison_unblocks_with_panic() {
        let mb = mailbox(4);
        let mb2 = Arc::clone(&mb.mb);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            mb2.poison();
        });
        take(&mb, 0, 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = mailbox(8);
        let mb2 = Arc::clone(&mb.mb);
        let h = std::thread::spawn(move || {
            put(&mb2, 5, 1, 42);
        });
        let e = take(&mb, 5, 1);
        h.join().unwrap();
        let v: u32 = match e.payload {
            MsgBody::Boxed(b) => crate::payload::unerase(b, 5, 1),
            MsgBody::Chunk(_) => panic!("expected boxed payload"),
        };
        assert_eq!(v, 42);
    }

    #[test]
    fn a_waiting_receive_names_its_edge_until_the_deposit_clears_it() {
        let mb = mailbox(4);
        assert_eq!(mb.waiting(), None);
        let mb2 = Arc::clone(&mb.mb);
        let h = std::thread::spawn(move || {
            while mb2.waiting() != Some((2, 7)) {
                std::thread::yield_now();
            }
            put(&mb2, 2, 7, 5);
        });
        assert_eq!(take_u32(&mb, 2, 7), 5);
        h.join().unwrap();
        assert_eq!(mb.waiting(), None);
    }

    #[test]
    fn lane_bytes_accumulate_per_source() {
        let mb = mailbox(3);
        put(&mb, 1, 7, 10); // 4 bytes
        put(&mb, 1, 8, 20); // 4 bytes
        put(&mb, 2, 7, 30); // 4 bytes
        assert_eq!(mb.lane_bytes(), vec![(1, 8), (2, 4)]);
    }

    #[test]
    fn interleaved_tags_report_their_own_first_deposit() {
        let mb = mailbox(2);
        put(&mb, 1, 0xa, 1);
        std::thread::sleep(Duration::from_millis(40));
        mb.parkers.clock.refresh();
        put(&mb, 1, 0xb, 2);
        put(&mb, 1, 0xa, 3);
        let snap = mb.depths_now();
        assert_eq!(snap.iter().map(|d| (d.src, d.tag, d.count)).collect::<Vec<_>>(), [(1, 0xa, 2), (1, 0xb, 1)]);
        assert!(snap[0].oldest_wait >= snap[1].oldest_wait + Duration::from_millis(40));
        // A younger tag is taken past an older one; each channel stays FIFO.
        assert_eq!(take_u32(&mb, 1, 0xb), 2);
        assert_eq!(take_u32(&mb, 1, 0xa), 1);
        assert_eq!(take_u32(&mb, 1, 0xa), 3);
        assert_eq!(mb.undelivered(), 0);
    }

    #[test]
    fn fresh_tags_retain_nothing_and_build_one_lane() {
        let mb = mailbox(1024);
        assert_eq!((mb.materialised_lanes(), mb.lane_bytes().len()), (0, 0));
        for tag in 0..10_000u64 {
            put(&mb, 7, tag, tag as u32);
            assert_eq!(take_u32(&mb, 7, tag), tag as u32);
        }
        assert!(mb.retained_slots() <= 8, "retained {} slots", mb.retained_slots());
        assert_eq!(mb.materialised_lanes(), 1);
        // Observers do not build lanes either.
        assert!(!mb.probe(9, 0));
        assert_eq!((mb.undelivered(), mb.depths_now().len(), mb.materialised_lanes()), (0, 0, 1));
    }

    /// At P = 4096 a mailbox that hears from three senders in three blocks
    /// holds three blocks and three lanes over 128 block slots: under
    /// 4 KiB, where one slot per possible sender was 64 KiB before a lane
    /// existed.
    #[test]
    fn three_senders_of_4096_build_three_lanes() {
        const P: usize = 4096;
        let mb = mailbox(P);
        let empty = mb.table_bytes();
        assert_eq!(empty, P / BLOCK * std::mem::size_of::<OnceLock<Box<Block>>>());
        for src in [5, 700, P - 1] {
            put(&mb, src, 1, src as u32);
        }
        assert!(!mb.probe(6, 1) && !mb.probe(701, 1), "observers build nothing");
        assert_eq!(mb.materialised_lanes(), 3);
        let per_sender = std::mem::size_of::<Block>() + std::mem::size_of::<Lane>();
        assert_eq!(mb.table_bytes(), empty + 3 * per_sender);
        assert!(mb.table_bytes() < P * std::mem::size_of::<OnceLock<Box<Lane>>>() / 8, "{} bytes", mb.table_bytes());
        for src in [5, 700, P - 1] {
            assert_eq!(take_u32(&mb, src, 1), src as u32);
        }
        assert_eq!(mb.lane_bytes(), vec![(5, 4), (700, 4), (P - 1, 4)]);
    }

    /// The accepted worst case: every take scans the whole queue.
    #[test]
    fn reverse_drain_of_4096_tags_returns_each_value_once() {
        const N: u64 = 4096;
        let mb = mailbox(2);
        for tag in 0..N {
            put(&mb, 1, tag, tag as u32);
        }
        let t0 = std::time::Instant::now();
        for tag in (0..N).rev() {
            assert!(mb.probe(1, tag));
            assert_eq!(take_u32(&mb, 1, tag), tag as u32);
            assert!(!mb.probe(1, tag));
        }
        eprintln!("reverse drain of {N} tags: {:?}", t0.elapsed());
        assert_eq!(mb.undelivered(), 0);
    }

    #[test]
    fn poison_reaches_lanes_built_after_it() {
        let mb = mailbox(4);
        mb.poison();
        assert!(mb.is_poisoned());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            take(&mb, 3, 1);
        }))
        .expect_err("a poisoned mailbox must not wait");
        assert!(err.downcast_ref::<String>().is_some_and(|m| m.contains("another processor panicked")));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const SRCS: usize = 4;
        const TAGS: u64 = 6;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The scanned lane against the structure it replaced, one
            /// FIFO per `(src, tag)` in a hash map: same value taken, same
            /// probe answer and same observer views after every step.
            #[test]
            fn scanned_lanes_match_the_map_of_queues(
                ops in proptest::collection::vec((0..3u8, 0..SRCS, 0..TAGS, any::<u32>()), 0..200)
            ) {
                let mb = mailbox(SRCS);
                let mut model: HashMap<(usize, u64), VecDeque<u32>> = HashMap::new();
                let mut bytes = [0u64; SRCS];
                for (op, src, tag, v) in ops {
                    let queued = model.get(&(src, tag)).is_some_and(|q| !q.is_empty());
                    prop_assert_eq!(mb.probe(src, tag), queued);
                    match op {
                        0 => {
                            put(&mb, src, tag, v);
                            model.entry((src, tag)).or_default().push_back(v);
                            bytes[src] += 4;
                        }
                        // A take only when the model holds one (it would
                        // block otherwise) — often past older other tags.
                        1 if queued => {
                            let want = model.get_mut(&(src, tag)).and_then(VecDeque::pop_front);
                            prop_assert_eq!(Some(take_u32(&mb, src, tag)), want);
                        }
                        _ => {}
                    }
                    let mut depths: Vec<(usize, u64, usize)> =
                        model.iter().filter(|(_, q)| !q.is_empty()).map(|(&(s, t), q)| (s, t, q.len())).collect();
                    depths.sort_unstable();
                    let snap: Vec<_> = mb.depths_now().iter().map(|d| (d.src, d.tag, d.count)).collect();
                    prop_assert_eq!(snap, depths);
                    prop_assert_eq!(mb.undelivered(), model.values().map(VecDeque::len).sum::<usize>());
                    // Only a deposit builds a lane here, and each adds bytes.
                    let live: Vec<(usize, u64)> = bytes.iter().copied().enumerate().filter(|&(_, b)| b > 0).collect();
                    prop_assert_eq!(mb.lane_bytes(), live);
                }
            }
        }
    }
}
