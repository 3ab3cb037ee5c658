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
//! * **Lanes on first use.** A mailbox holds a 16-byte slot per possible
//!   sender; the lane is built by the first deposit from, or wait on, that
//!   source. `probe` and the observers read an absent lane as empty.
//!
//! ## Dual wakeup protocol
//!
//! How a waiting receiver learns that a deposit (or poison) landed
//! depends on the executor that owns the mailbox:
//!
//! * **Threaded** ([`Mailbox::new`]): each lane carries a condvar. `take`
//!   parks the receiver's dedicated OS thread on the lane it matches;
//!   `deposit` does `notify_one` after releasing the lane lock (each
//!   mailbox has exactly one consumer, so one notify suffices, and the
//!   condvar counts its waiters, so a deposit nobody is blocked on makes
//!   no system call); `poison` locks each lane and `notify_all`s so the
//!   flag is seen no matter which lane the receiver is parked on.
//!
//! * **Pooled** ([`Mailbox::new_pooled`]): no condvars exist at all —
//!   the owning processor is a coroutine, and parking a worker thread on
//!   its behalf would defeat the pool. Instead the receiver *registers*
//!   the tag it needs in the lane (`waiting_tag`, written under the lane
//!   lock) and suspends into the scheduler; a deposit that matches the
//!   registered tag clears it and wakes the owning processor through
//!   [`Pool::wake`]. Registration-under-lock closes the race with a
//!   concurrent deposit: the depositor either sees the registration (and
//!   wakes) or deposited before it (and the receiver's pre-suspend
//!   re-check finds the message). `poison` sets the flag, bumps each
//!   lane's lock (so a registering receiver is past its flag check or
//!   not yet suspended-committed), and wakes the owner unconditionally.
//!   [`Pool::wake`] is a queue push; it reaches the kernel only when a
//!   worker thread is asleep (the pool's sleeper gate). Recv timeouts
//!   cannot use `Condvar::wait_for` here; the run's tick thread latches a
//!   `timed_out` flag and wakes the processor, which re-checks its lane
//!   and raises the *same* deadlock diagnostic as the threaded path.
//!
//! `poison` is the cold path and *materialises* each lane before bumping
//! its lock. A receiver only ever waits on a lane it has fetched, and a
//! slot is initialised once, so whichever side built the lane `poison`
//! locks the very mutex the receiver checked the flag under: both
//! arguments above hold for a lane that did not exist at the panic.
//!
//! ## Message ages
//!
//! A deposit is stamped from the run's coarse clock
//! ([`crate::clock::CoarseClock`]: one relaxed load, advanced once per
//! watchdog period), not from the host clock. The only reader is the
//! depth snapshot behind the deadlock dump, the stall report and the
//! `fx_oldest_queued_seconds` gauge, which refreshes the clock first: an
//! age is the true one plus at most one period (`recv_timeout / 8`,
//! 5–250 ms), ample for telling "being drained" from "queued long ago".

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::clock::CoarseClock;
use crate::coro::{YieldKind, Yielder};
use crate::payload::MsgBody;
use crate::pool::Pool;
use crate::span::TraceCtx;

/// A message at rest in a mailbox.
pub(crate) struct Envelope {
    /// Physical rank of the sender.
    pub src: usize,
    /// Channel tag (runtime-internal; composed from group id + sequence).
    pub tag: u64,
    /// Virtual time at which the message may be received (already includes
    /// wire latency). Zero in real-time mode.
    pub arrival: f64,
    /// Wire size used for receiver-side cost accounting.
    pub nbytes: usize,
    /// Coarse-clock nanoseconds at the deposit, so diagnostics can report
    /// how long the message has been waiting unreceived.
    pub enqueued: u64,
    /// Causal trace context piggybacked by the sender (`id == 0` =
    /// untraced). The receiver adopts a non-zero trace on take, which is
    /// how a logical operation's identity crosses processor boundaries —
    /// identically for boxed and chunk payloads, and invisible to the
    /// cost model.
    pub trace: TraceCtx,
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
    /// Pooled mode only: the tag the owning processor is suspended on
    /// (`None` when it is not waiting on this lane). Written by the
    /// receiver under the lane lock before suspending; cleared by the
    /// matching deposit (which then wakes the owner) or by the receiver
    /// itself on a successful pop. Always `None` in threaded mode.
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
struct Lane {
    state: Mutex<LaneState>,
    /// `Some` in threaded mode only. Pooled mailboxes allocate no condvar
    /// and never notify one: lane wakeups go through the scheduler.
    cvar: Option<Condvar>,
}

/// How deposits into this mailbox wake its (single) waiting consumer.
enum WakePolicy {
    /// Threaded executor: notify the lane condvar.
    Condvar,
    /// Pooled executor: wake the owning processor through the scheduler.
    Pool { pool: Arc<Pool>, owner: usize },
}

/// Mailbox of one physical processor: one lane slot per possible sender.
pub(crate) struct Mailbox {
    lanes: Vec<OnceLock<Box<Lane>>>,
    wake: WakePolicy,
    /// The run's coarse clock, which stamped every queued envelope.
    clock: Arc<CoarseClock>,
    /// Set when some processor panicked: everyone blocked here must unwind
    /// too so the whole run fails instead of hanging.
    poisoned: AtomicBool,
}

impl Mailbox {
    /// A mailbox able to receive from `nprocs` senders (including self),
    /// for the threaded executor: per-lane condvar wakeups.
    pub fn new(nprocs: usize, clock: Arc<CoarseClock>) -> Self {
        Self::with_wake(nprocs, WakePolicy::Condvar, clock)
    }

    /// A mailbox owned by pooled processor `owner`: no condvars; deposits
    /// wake the owner through `pool`'s scheduler.
    pub fn new_pooled(nprocs: usize, owner: usize, pool: Arc<Pool>) -> Self {
        let clock = Arc::clone(pool.clock());
        Self::with_wake(nprocs, WakePolicy::Pool { pool, owner }, clock)
    }

    fn with_wake(nprocs: usize, wake: WakePolicy, clock: Arc<CoarseClock>) -> Self {
        let lanes = (0..nprocs).map(|_| OnceLock::new()).collect();
        Mailbox { lanes, wake, clock, poisoned: AtomicBool::new(false) }
    }

    /// The lane of sender `src`, built on first use.
    fn lane(&self, src: usize) -> &Lane {
        self.lanes[src].get_or_init(|| {
            let cvar = matches!(self.wake, WakePolicy::Condvar).then(Condvar::new);
            Box::new(Lane { state: Mutex::default(), cvar })
        })
    }

    /// The lanes built so far, each with its sender rank.
    fn live_lanes(&self) -> impl Iterator<Item = (usize, &Lane)> {
        self.lanes.iter().enumerate().filter_map(|(src, l)| Some((src, &**l.get()?)))
    }

    /// Deposit a message (called by the *sender*). Only the sender's own
    /// lane is locked, so concurrent senders never serialize on each other.
    ///
    /// Wakes at most one waiter: only the owning processor ever blocks in
    /// [`Mailbox::take`] (sends never wait), so `notify_one` suffices.
    /// `poison`, by contrast, notifies every lane — it is the one event
    /// that must reach the waiter no matter which lane it blocks on.
    ///
    /// Returns whether the lane lock was already held when the deposit
    /// arrived (the receiver draining, or a same-source deposit racing
    /// through another group context). The cost is identical either way —
    /// `try_lock` succeeding *is* the uncontended lock fast path — so the
    /// telemetry lane-contention counter is free when nobody reads it.
    pub fn deposit(&self, env: Envelope) -> bool {
        let lane = self.lane(env.src);
        let (mut st, contended) = match lane.state.try_lock() {
            Some(st) => (st, false),
            None => (lane.state.lock(), true),
        };
        let tag = env.tag;
        st.bytes += env.nbytes as u64;
        st.queue.push_back(env);
        // Pooled mode: consume a matching wait registration under the
        // lane lock, then wake the owner through the scheduler.
        let wake_owner = st.waiting_tag.take_if(|t| *t == tag).is_some();
        drop(st);
        match &self.wake {
            WakePolicy::Condvar => {
                lane.cvar.as_ref().expect("threaded lane has a condvar").notify_one();
            }
            WakePolicy::Pool { pool, owner } if wake_owner => pool.wake(*owner),
            WakePolicy::Pool { .. } => {}
        }
        contended
    }

    /// Block until a message from `src` with `tag` is available and take it.
    ///
    /// `timeout` bounds the wait; exceeding it indicates a deadlock in the
    /// SPMD program (mismatched send/recv or collective) and panics with a
    /// per-`(src, tag)` queue-depth snapshot of every lane, so a stuck
    /// pipeline shows at a glance what *is* pending and from whom.
    ///
    /// `idle` is the receiving processor's declared-idle flag (see
    /// [`crate::ProcCtx::set_idle`]): while it reads true the timeout is
    /// forgiven and the wait simply continues, because a serving loop
    /// legitimately quiesces between request arrivals and that must not
    /// be diagnosed as a deadlock. The flag is re-read on every timeout
    /// expiry, so a processor that leaves idle state re-arms the watchdog
    /// within one timeout period.
    pub fn take(&self, src: usize, tag: u64, me: usize, timeout: Duration, idle: &AtomicBool) -> Envelope {
        let lane = self.lane(src);
        let cvar = lane.cvar.as_ref().expect("Mailbox::take on a pooled mailbox");
        let mut st = lane.state.lock();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                panic!("processor {me}: aborting recv, another processor panicked");
            }
            if let Some(env) = st.pop_tag(tag) {
                return env;
            }
            if cvar.wait_for(&mut st, timeout).timed_out() {
                if idle.load(Ordering::Acquire) {
                    continue; // declared idle: quiescence is legitimate, keep waiting
                }
                drop(st);
                self.deadlock(src, tag, me, timeout);
            }
        }
    }

    /// The watchdog's verdict, shared by both executors.
    fn deadlock(&self, src: usize, tag: u64, me: usize, timeout: Duration) -> ! {
        let pending = self.depth_snapshot();
        panic!(
            "processor {me}: recv(src={src}, tag={tag:#x}) timed out after \
             {timeout:?} — likely deadlock. Pending per (src, tag) with depth \
             and oldest-message age: {pending:?}"
        );
    }

    /// Pooled-executor counterpart of [`Mailbox::take`]: same matching,
    /// FIFO order, poison check, timeout diagnostic, and declared-idle
    /// forgiveness, but blocking suspends the calling coroutine into
    /// `pool`'s scheduler instead of parking an OS thread (see the module
    /// header for the protocol).
    #[allow(clippy::too_many_arguments)]
    pub fn take_pooled(
        &self,
        src: usize,
        tag: u64,
        me: usize,
        timeout: Duration,
        pool: &Pool,
        proc: usize,
        yielder: &Yielder,
        idle: &AtomicBool,
    ) -> Envelope {
        let lane = self.lane(src);
        loop {
            {
                let mut st = lane.state.lock();
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("processor {me}: aborting recv, another processor panicked");
                }
                if let Some(env) = st.pop_tag(tag) {
                    st.waiting_tag = None;
                    drop(st);
                    // Drop any stale watchdog latch: the message won.
                    pool.clear_timeout(proc);
                    return env;
                }
                // Register the wait under the lane lock, so a concurrent
                // deposit either sees it (and wakes us) or already
                // enqueued (and the next loop iteration pops it).
                st.waiting_tag = Some(tag);
            }
            yielder.suspend(YieldKind::Blocked);
            // Woken: matching deposit, poison, or the watchdog. The loop
            // re-checks the lane first — progress wins over a timeout that
            // raced a late delivery.
            if pool.take_timed_out(proc)
                && !idle.load(Ordering::Acquire)
                && !self.probe(src, tag)
                && !self.poisoned.load(Ordering::Acquire)
            {
                self.deadlock(src, tag, me, timeout);
            }
        }
    }

    /// Non-blocking probe: is a message from `src` with `tag` waiting?
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        self.lanes[src].get().is_some_and(|l| l.state.lock().queue.iter().any(|e| e.tag == tag))
    }

    /// True once some processor panicked and poisoned this mailbox.
    /// Host-spin loops that wait on shared state other than the mailbox
    /// (the heartbeat board) poll this so they unwind instead of hanging.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Wake all waiters with a poison flag after a panic elsewhere.
    ///
    /// Locking each lane before notifying closes the race with a receiver
    /// that checked the flag and is about to wait: it is either still
    /// pre-check (and will see the flag) or already parked (and will be
    /// notified) — on any lane, since each is materialised first.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        for src in 0..self.lanes.len() {
            let lane = self.lane(src);
            drop(lane.state.lock());
            if let Some(cvar) = &lane.cvar {
                cvar.notify_all();
            }
        }
        // Pooled: with every lane lock bumped, a receiver inside take_pooled
        // is either past its flag check holding the lock (and will suspend
        // → our wake reaches it, or its park aborts on the latched NOTIFY)
        // or will re-check and see the flag. Wake the single owner
        // unconditionally.
        if let WakePolicy::Pool { pool, owner } = &self.wake {
            pool.wake(*owner);
        }
    }

    /// Number of undelivered messages (used by the run harness to detect
    /// programs that exit leaving messages unreceived).
    pub fn undelivered(&self) -> usize {
        self.live_lanes().map(|(_, l)| l.state.lock().queue.len()).sum()
    }

    /// Depths of every non-empty `(src, tag)` queue, ascending by source
    /// then tag, each with the age of its oldest queued message — the
    /// deadlock diagnostic and debugging view.
    pub fn depth_snapshot(&self) -> DepthSnapshot {
        let now = self.clock.refresh();
        let mut out: DepthSnapshot = Vec::new();
        for (src, lane) in self.live_lanes() {
            let mut tags: BTreeMap<u64, (usize, Duration)> = BTreeMap::new();
            for e in &lane.state.lock().queue {
                // Deposit order: the first message met per tag is its oldest.
                let age = Duration::from_nanos(now.saturating_sub(e.enqueued));
                tags.entry(e.tag).or_insert((0, age)).0 += 1;
            }
            out.extend(
                tags.into_iter()
                    .map(|(tag, (count, oldest_wait))| LaneDepth { src, tag, count, oldest_wait }),
            );
        }
        out
    }

    /// `(sender rank, payload bytes deposited since the run began)` of
    /// every lane built so far, ascending by sender. A lane nobody built
    /// received nothing; reporting it would make the run report O(P²).
    pub fn lane_bytes(&self) -> Vec<(usize, u64)> {
        self.live_lanes().map(|(src, l)| (src, l.state.lock().bytes)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::erase;

    /// A threaded-mode mailbox on a clock of its own. No tick thread
    /// runs here: a test that sleeps plays the tick with `clock.refresh()`.
    fn mailbox(nprocs: usize) -> Mailbox {
        Mailbox::new(nprocs, Arc::new(CoarseClock::new()))
    }

    /// Deposit `v` from `src` on `tag`, stamped as a send would stamp it.
    fn put(mb: &Mailbox, src: usize, tag: u64, v: u32) {
        let (payload, nbytes) = erase(v);
        mb.deposit(Envelope {
            src,
            tag,
            arrival: 0.0,
            nbytes,
            enqueued: mb.clock.now_ns(),
            trace: TraceCtx::NONE,
            payload: MsgBody::Boxed(payload),
        });
    }

    static NOT_IDLE: AtomicBool = AtomicBool::new(false);

    impl Mailbox {
        /// Lanes built so far (at most one per sender that deposited or
        /// was waited on).
        fn materialised_lanes(&self) -> usize {
            self.live_lanes().count()
        }

        /// Envelope slots held by all queues, full or empty.
        fn retained_slots(&self) -> usize {
            self.live_lanes().map(|(_, l)| l.state.lock().queue.capacity()).sum()
        }
    }

    fn take_u32(mb: &Mailbox, src: usize, tag: u64) -> u32 {
        let e = mb.take(src, tag, 0, Duration::from_secs(1), &NOT_IDLE);
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
        let mb = mailbox(4);
        put(&mb, 3, 9, 1);
        mb.take(1, 7, 0, Duration::from_millis(20), &NOT_IDLE);
    }

    #[test]
    fn timeout_diagnostic_reports_lane_depths_and_oldest_age() {
        let mb = mailbox(4);
        put(&mb, 3, 9, 1);
        std::thread::sleep(Duration::from_millis(30));
        put(&mb, 3, 9, 2);
        put(&mb, 2, 5, 7);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mb.take(1, 7, 0, Duration::from_millis(20), &NOT_IDLE);
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
        mb.clock.refresh();
        put(&mb, 3, 9, 2); // newer message must not reset the age
        let snap = mb.depth_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!((snap[0].src, snap[0].tag, snap[0].count), (3, 9, 2));
        assert!(
            snap[0].oldest_wait >= Duration::from_millis(40),
            "oldest_wait should reflect the front (oldest) message, got {:?}",
            snap[0].oldest_wait
        );
        // Draining the oldest message shrinks the reported age.
        let _ = mb.take(3, 9, 0, Duration::from_millis(50), &NOT_IDLE);
        let snap = mb.depth_snapshot();
        assert_eq!(snap[0].count, 1);
        assert!(snap[0].oldest_wait < Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "another processor panicked")]
    fn poison_unblocks_with_panic() {
        let mb = std::sync::Arc::new(mailbox(4));
        let mb2 = mb.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            mb2.poison();
        });
        mb.take(0, 0, 1, Duration::from_secs(10), &NOT_IDLE);
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = std::sync::Arc::new(mailbox(8));
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            put(&mb2, 5, 1, 42);
        });
        let e = mb.take(5, 1, 0, Duration::from_secs(5), &NOT_IDLE);
        h.join().unwrap();
        let v: u32 = match e.payload {
            MsgBody::Boxed(b) => crate::payload::unerase(b, 5, 1),
            MsgBody::Chunk(_) => panic!("expected boxed payload"),
        };
        assert_eq!(v, 42);
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
        mb.clock.refresh();
        put(&mb, 1, 0xb, 2);
        put(&mb, 1, 0xa, 3);
        let snap = mb.depth_snapshot();
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
        assert_eq!((mb.undelivered(), mb.depth_snapshot().len(), mb.materialised_lanes()), (0, 0, 1));
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
            mb.take(3, 1, 0, Duration::from_secs(10), &NOT_IDLE);
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
                    let snap: Vec<_> = mb.depth_snapshot().iter().map(|d| (d.src, d.tag, d.count)).collect();
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
