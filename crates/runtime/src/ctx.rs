//! The per-processor execution context.
//!
//! Every physical processor of the simulated multicomputer runs the same
//! SPMD closure with its own [`ProcCtx`]. The context carries the
//! processor's identity, its (virtual) clock, its event log, and the
//! endpoints for direct-deposit messaging. It is the one producer of the
//! processor's events ([`crate::event`]: every instrumented site calls
//! `emit`) and the one writer of its counter block ([`crate::counters`],
//! owned by the [`World`]): every `note_*` is one bump of that block,
//! whether or not anyone observes the run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clock::{ns_since, tick_period};
use crate::coro::{YieldKind, Yielder};
use crate::counters::{bump, Counters};
use crate::event::{Event, EventKind, Labels, Log};
use crate::mailbox::{Envelope, Mailbox};
use crate::model::MachineModel;
use crate::parker::Parkers;
use crate::payload::{erase, unerase, BufferPool, Chunk, MsgBody, Payload, Returned};
use crate::run::{DataflowMode, ProcOutcome};
use crate::telemetry::{ProcShard, Telemetry};

/// Shared state of one run of the machine.
pub(crate) struct World {
    pub nprocs: usize,
    pub model: MachineModel,
    pub mailboxes: Vec<Mailbox>,
    /// Every processor's park latch, the recv timeout that expires a
    /// park, and the run's coarse clock, which also stamps every deposit
    /// (see [`crate::parker`], [`crate::clock`]).
    pub parkers: Arc<Parkers>,
    /// Every processor's counter block (see [`crate::counters`]): always
    /// there, written only by the owning [`ProcCtx`], read by the report
    /// and — through its own handles on the same allocations — by the
    /// telemetry registry, during the run and after it.
    pub counters: Vec<Arc<Counters>>,
    /// Every processor's label table (see [`crate::event`]): written only
    /// by the owning [`ProcCtx`], read by the report's logs and — handed
    /// over at `begin_run` like the counter blocks — by the telemetry
    /// registry, which is what lets a post-mortem flight dump name scopes.
    pub labels: Vec<Arc<Labels>>,
    /// Every processor's chunk storage given back by receivers ([`BufferPool`]).
    pub returned: Vec<Returned>,
    /// Set by the first processor to panic, which poisons every mailbox;
    /// later (secondary) panickers find it set and skip the walk.
    pub poisoned: AtomicBool,
    /// Retain duration events (see [`crate::Event`]) in the processors'
    /// logs.
    pub profile: bool,
    /// Propagate causal trace ids (see [`crate::Event::trace`]) on every
    /// message and adopt them on receive. Host-side only: tracing
    /// never moves the virtual clock.
    pub tracing: bool,
    /// Live telemetry registry (see [`crate::Telemetry`]); `None` keeps
    /// every hot path on the seed code shape.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Resolved barrier-elision mode for this run (`Off` or `On`;
    /// `Validate` is split into two runs before the world is built).
    pub dataflow: DataflowMode,
    /// Heartbeat promotion armed (see [`crate::Machine::heartbeat`]).
    pub heartbeat: bool,
    /// Virtual seconds of charged compute between heartbeats.
    pub heartbeat_period: f64,
}

impl World {
    /// A processor panicked: unblock everyone else, once per run.
    ///
    /// One [`Mailbox::poison`] walks P lanes and the world has P
    /// mailboxes, so the walk is O(P²) lock bumps. Every processor it
    /// releases panics in turn ("another processor panicked") and lands
    /// here again; without the guard a P-wide cascade repeats the walk P
    /// times. The winner of the swap is running (it is the caller), so it
    /// finishes the walk no matter what the skippers go on to do.
    pub fn poison_all(&self) {
        if !self.poisoned.swap(true, Ordering::SeqCst) {
            for mb in &self.mailboxes {
                mb.poison();
            }
        }
    }
}

/// Set in a lap by a compute charge: the next step also cuts at its start.
/// Readings (ns since the run began) stay far below it, so `cut` returns 0.
const CHARGED: u64 = 1 << 63;

/// Set in a lap by a run-ahead yield: the next cut returns 0, reading nothing more.
const YIELDED: u64 = 1 << 62;

/// A cut of a lap (the rule is in [`crate::counters`]), the message path's
/// one clock read: the interval since the previous cut, 0 across a charge.
#[inline]
fn cut(lap: &mut u64, start: Instant) -> u64 {
    let now = ns_since(start);
    now.saturating_sub(std::mem::replace(lap, now))
}

/// Execution context of one physical processor (one per coroutine).
pub struct ProcCtx {
    rank: usize,
    world: Arc<World>,
    /// Suspends this processor's coroutine back into its pool worker: every
    /// blocking point and yield goes through it.
    yielder: Yielder,
    /// Virtual clock (seconds).
    clock: f64,
    /// Host instant the run began: the origin of the lap's readings.
    start: Instant,
    /// The lap: host ns since `start` of this processor's latest clock read,
    /// [`CHARGED`] set by a charge since. Read only with a registry attached.
    lap: u64,
    /// What this processor retains of its own events (see
    /// [`ProcCtx::emit`]), with its label table.
    log: Log,
    /// This processor's counter block (the world's, shared with whoever
    /// reads it). The context is its only writer.
    counters: Arc<Counters>,
    /// Recycled message-buffer storage for the chunk fast path.
    pool: BufferPool,
    /// True when the machine profiles: duration events are retained in
    /// the log.
    profile: bool,
    /// True when someone reads more than marks: the machine profiles or a
    /// telemetry registry is attached. The one check on every
    /// instrumented path of a run nobody observes.
    observed: bool,
    /// True when trace ids are piggybacked on sends and adopted on
    /// receives (`Machine::with_tracing` / `FX_TRACE`).
    tracing: bool,
    /// The causal trace id active on this processor (`0` when untraced).
    /// Set at a trace origin via [`ProcCtx::set_trace`], replaced by
    /// adoption whenever a traced message is received.
    trace: u64,
    /// Label id of each open task-region/subgroup scope, innermost last
    /// (maintained only when observed).
    scopes: Vec<u32>,
    /// This processor's telemetry shard (`None` when telemetry is off).
    tl: Option<Arc<ProcShard>>,
    /// Virtual seconds of charged compute since the last heartbeat reset.
    /// Pure accumulation alongside the clock: it never feeds back into
    /// any charge, so arming the heartbeat cannot move virtual time.
    hb_acc: f64,
    /// A lane a send found still holding our previous message, until we yield.
    ahead: Option<usize>,
}

impl ProcCtx {
    pub(crate) fn new(rank: usize, world: Arc<World>, start: Instant, yielder: Yielder) -> Self {
        let profile = world.profile;
        let tracing = world.tracing;
        let tl = world.telemetry.as_ref().map(|t| t.shard(rank));
        let counters = Arc::clone(&world.counters[rank]);
        let log = Log::new(Vec::new(), Arc::clone(&world.labels[rank]));
        ProcCtx {
            rank,
            world,
            yielder,
            clock: 0.0,
            start,
            lap: CHARGED,
            log,
            counters,
            pool: BufferPool::default(),
            profile,
            observed: profile || tl.is_some(),
            tracing,
            trace: 0,
            scopes: Vec::new(),
            tl,
            hb_acc: 0.0,
            ahead: None,
        }
    }

    /// An instant event here and now: the virtual clock, the innermost
    /// open scope, the active trace. Every emitted event is this with its
    /// own fields filled in.
    #[inline(always)]
    fn here(&self, kind: EventKind) -> Event {
        Event {
            kind,
            label: self.scopes.last().copied().unwrap_or(0),
            peer: u32::MAX,
            tag: 0,
            bytes: 0,
            start: self.clock,
            end: self.clock,
            arrival: 0.0,
            trace: self.trace,
        }
    }

    /// The one producer of this processor's events. Where a record goes
    /// is what retains it: the processor's own log keeps marks always and
    /// duration events when profiling; the registry's flight ring, when
    /// one is attached, keeps the newest message, barrier and scope events
    /// beside the lap, so a stamp is never ahead of its event. Compute
    /// intervals and marks stay out of the ring: a charge merges into the
    /// previous one in place, which a ring read from other threads cannot
    /// do. Nobody observing and not a mark: one branch.
    #[inline(always)]
    fn emit(&mut self, ev: Event) {
        if !self.observed && ev.kind != EventKind::Mark {
            return;
        }
        if ev.kind == EventKind::Mark || (self.profile && ev.is_span()) {
            self.log.push(ev);
        }
        if let Some(sh) = &self.tl {
            if matches!(ev.kind, EventKind::Compute | EventKind::Mark) {
                return;
            }
            if ev.kind == EventKind::Send {
                sh.msg_bytes_hist.record(ev.bytes);
            }
            sh.flight.push(self.lap & !(CHARGED | YIELDED), &ev);
        }
    }

    /// Physical rank of this processor, `0..nprocs()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of physical processors in the machine.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.world.nprocs
    }

    /// The machine's cost model (shared by all processors).
    #[inline]
    pub fn model(&self) -> &MachineModel {
        &self.world.model
    }

    /// This processor's virtual clock, in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance this processor's virtual clock to at least `t` (no-op when
    /// already past `t`).
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Charge `n` floating point operations of local compute.
    #[inline]
    pub fn charge_flops(&mut self, n: f64) {
        self.charge(self.world.model.flops(n));
    }

    /// Charge `n` bytes of local memory traffic (memory-bound kernels).
    #[inline]
    pub fn charge_mem_bytes(&mut self, n: f64) {
        self.charge(self.world.model.mem_bytes(n));
    }

    /// Charge a raw amount of virtual seconds (e.g. a modeled I/O phase).
    #[inline]
    pub fn charge_seconds(&mut self, s: f64) {
        self.charge(s);
    }

    /// Advance the virtual clock by `s` seconds of local compute.
    #[inline]
    fn charge(&mut self, s: f64) {
        self.catch_up();
        let t0 = self.clock;
        self.clock += s;
        self.hb_acc += self.clock - t0;
        self.lap |= CHARGED;
        self.emit(Event { start: t0, ..self.here(EventKind::Compute) });
    }

    /// Advance the clock for an outgoing message of `nbytes` and return
    /// its arrival time at the destination. Shared by both send paths so
    /// the chunk fast path charges exactly what the boxed path charges.
    #[inline]
    fn charge_send(&mut self, nbytes: usize) -> f64 {
        let m = &self.world.model;
        self.clock += m.send_busy(nbytes);
        m.arrival(self.clock)
    }

    /// Send `value` to physical processor `dst` on channel `tag`.
    ///
    /// Direct deposit: the call enqueues into `dst`'s mailbox and returns;
    /// the sender is only charged its CPU overhead plus the per-byte gap.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u64, value: T) {
        let (payload, nbytes) = erase(value);
        self.post(dst, tag, nbytes, MsgBody::Boxed(payload));
    }

    /// The one post routine behind [`ProcCtx::send`] and
    /// [`ProcCtx::send_chunk`]: same virtual-time charge, event, counters
    /// and deposit for either payload path; a chunk additionally counts
    /// as chunk traffic.
    fn post(&mut self, dst: usize, tag: u64, nbytes: usize, payload: MsgBody) {
        assert!(dst < self.world.nprocs, "send to nonexistent processor {dst}");
        if self.tl.is_some() && self.lap & CHARGED != 0 {
            cut(&mut self.lap, self.start);
        }
        if self.ahead == Some(dst) {
            self.catch_up();
        }
        let chunk = matches!(payload, MsgBody::Chunk(_));
        let v0 = self.clock;
        let arrival = self.charge_send(nbytes);
        let (contended, backlog) = self.world.mailboxes[dst].deposit(Envelope {
            src: self.rank,
            tag,
            arrival,
            nbytes,
            enqueued: self.world.parkers.clock.now_ns(),
            trace: self.trace,
            payload,
        });
        let c = &self.counters;
        bump(&c.sends, 1);
        bump(&c.send_bytes, nbytes as u64);
        if chunk {
            bump(&c.chunk_msgs, 1);
            bump(&c.chunk_bytes, nbytes as u64);
        }
        if contended {
            bump(&c.lane_contention, 1);
        }
        if self.tl.is_some() {
            bump(&c.send_ns, cut(&mut self.lap, self.start));
        }
        let send = Event { peer: dst as u32, tag, bytes: nbytes as u64, start: v0, arrival, ..self.here(EventKind::Send) };
        self.emit(send);
        self.ahead = backlog.then_some(dst).or(self.ahead);
    }

    /// A send found its previous message still queued: the processor
    /// yields its worker once, at its next receive, charge or send into that
    /// lane, so a burst of sends (an all-to-all) is never cut in half.
    #[inline]
    fn catch_up(&mut self) {
        if self.ahead.take().is_some() {
            self.yielder.suspend(YieldKind::Yielded);
            self.lap |= YIELDED;
        }
    }

    /// Receive a `T` from physical processor `src` on channel `tag`,
    /// blocking until it arrives. Matching is FIFO per `(src, tag)`.
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        let env = self.take_env(src, tag);
        match env.payload {
            MsgBody::Boxed(b) => unerase(b, src, tag),
            MsgBody::Chunk(_) => panic!(
                "recv type mismatch for message from processor {src} tag {tag:#x}: \
                 expected {}, got a byte chunk (receive it with recv_chunk)",
                std::any::type_name::<T>()
            ),
        }
    }

    /// An empty chunk for `elems` elements of type `T`, drawn from this
    /// processor's buffer pool (no allocation once the pool is warm).
    pub fn chunk_for<T: Copy + Send + 'static>(&mut self, elems: usize) -> Chunk {
        let (bytes, hit) = self.pool.acquire(elems * std::mem::size_of::<T>(), &self.world.returned[self.rank]);
        let c = &self.counters;
        bump(if hit { &c.pool_hits } else { &c.pool_misses }, 1);
        Chunk::from_bytes::<T>(bytes, Some(self.rank as u32))
    }

    /// Recycle a chunk's storage: here if it is ours, standalone or of a size
    /// class we send in, otherwise back to the pool it came from.
    pub fn release_chunk(&mut self, chunk: Chunk) {
        let (bytes, home) = chunk.into_parts();
        match home.filter(|&h| h != self.rank).and_then(|h| self.world.returned.get(h)) {
            Some(back) if !self.pool.uses(bytes.capacity()) => back.lock().push(bytes),
            _ => self.pool.release(bytes),
        }
    }

    /// Send a packed [`Chunk`] to processor `dst` on channel `tag`.
    ///
    /// The fast path for plan-driven bulk transfers: same virtual-time
    /// charges, message counters, and FIFO ordering as [`ProcCtx::send`]
    /// of an equal-sized `Vec<T>`, but no `Box<dyn Any>` allocation — the
    /// pooled buffer itself moves into the receiver's mailbox.
    pub fn send_chunk(&mut self, dst: usize, tag: u64, chunk: Chunk) {
        self.post(dst, tag, chunk.nbytes(), MsgBody::Chunk(chunk));
    }

    /// Receive a [`Chunk`] from processor `src` on channel `tag`. After
    /// unpacking, hand the chunk to [`ProcCtx::release_chunk`] so its
    /// storage recycles through this processor's pool.
    pub fn recv_chunk(&mut self, src: usize, tag: u64) -> Chunk {
        let env = self.take_env(src, tag);
        match env.payload {
            MsgBody::Chunk(c) => c,
            MsgBody::Boxed(_) => panic!(
                "recv type mismatch for message from processor {src} tag {tag:#x}: \
                 expected a byte chunk, got a boxed payload (receive it with recv)"
            ),
        }
    }

    /// Receive a chunk of exactly `dst.len()` elements from `src` and
    /// unpack it contiguously into `dst`; the chunk's storage goes back to
    /// this processor's pool. The receive half of a dense transfer.
    pub fn recv_chunk_into<T: Copy + Send + 'static>(
        &mut self,
        src: usize,
        tag: u64,
        dst: &mut [T],
    ) {
        let chunk = self.recv_chunk(src, tag);
        assert!(
            chunk.elems() == dst.len(),
            "recv_chunk_into length mismatch from processor {src} tag {tag:#x}: \
             chunk has {} elems, destination holds {}",
            chunk.elems(),
            dst.len()
        );
        chunk.read_into(0, dst);
        self.release_chunk(chunk);
    }

    /// Blocking mailbox take with receive-side clock update and, when a
    /// registry is attached and the receive parks, host wait-time
    /// accounting (common to `recv` and `recv_chunk`).
    fn take_env(&mut self, src: usize, tag: u64) -> Envelope {
        assert!(src < self.world.nprocs, "recv from nonexistent processor {src}");
        self.catch_up();
        let (world, yielder, tl, start, lap) = (&self.world, &self.yielder, &self.tl, self.start, &mut self.lap);
        let mut parked = false;
        let env = world.mailboxes[self.rank].take(src, tag, || {
            if tl.is_some() && *lap & (CHARGED | YIELDED) != 0 {
                cut(lap, start);
            }
            parked = true;
            yielder.suspend(YieldKind::Blocked);
        });
        let c = &self.counters;
        bump(&c.recvs, 1);
        bump(&c.recv_bytes, env.nbytes as u64);
        if let (Some(sh), true) = (&self.tl, parked) {
            let waited = cut(&mut self.lap, self.start);
            bump(&c.recv_wait_ns, waited);
            sh.recv_wait_hist.record(waited);
        }
        // Adopt a piggybacked trace id *before* making the recv event, so
        // the busy half of the receive — the first local work done on
        // behalf of the incoming operation — is already tagged with its
        // trace. Untraced messages leave the active id alone.
        if self.tracing && env.trace != 0 {
            self.trace = env.trace;
        }
        // The wait `[clock, ready]` is left as a gap (idle); only the busy
        // half `[ready, t]` is the event's interval.
        let ready = self.clock.max(env.arrival);
        self.clock = ready + self.world.model.recv_busy(env.nbytes);
        let recv = Event {
            peer: src as u32,
            tag,
            bytes: env.nbytes as u64,
            start: ready,
            arrival: env.arrival,
            ..self.here(EventKind::Recv)
        };
        self.emit(recv);
        env
    }

    /// True if a message from `src` with `tag` is already deposited.
    ///
    /// A negative probe yields this processor (see [`ProcCtx::yield_now`]):
    /// probe-driven poll loops would otherwise spin a pool worker forever
    /// and starve the very sender they are polling for when processors
    /// outnumber workers.
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        let found = self.world.mailboxes[self.rank].probe(src, tag);
        if !found {
            self.yield_now();
        }
        found
    }

    /// Let other runnable processors use this processor's worker: a
    /// cooperative reschedule to the back of the run queue. Poll loops
    /// must call this — a spinning processor otherwise occupies a worker
    /// that the peer it is waiting for may need.
    pub fn yield_now(&self) {
        self.yielder.suspend(YieldKind::Yielded);
    }

    /// Mark an instant at the current time on this processor's log.
    /// Harnesses match on the label's text.
    pub fn record(&mut self, label: impl AsRef<str>) {
        let t = self.now();
        let label = self.log.labels().intern(label.as_ref());
        self.emit(Event { label, start: t, end: t, ..self.here(EventKind::Mark) });
    }

    // ----- scopes and the log ----------------------------------------------

    /// True when duration events are being retained (the machine enabled
    /// profiling).
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// Push a component onto the scope path (`"G1"`, `"assign2"`, …).
    /// Subsequent events are labelled `parent/…/name` until the matching
    /// [`ProcCtx::pop_scope`]. Counts one region entry; the scope itself
    /// is tracked only when profiling or telemetry is active.
    pub fn push_scope(&mut self, name: &str) {
        bump(&self.counters.region_enters, 1);
        if !self.observed {
            return;
        }
        let parent = self.scopes.last().copied().unwrap_or(0);
        self.scopes.push(self.log.labels().enter(parent, name));
        self.emit(self.here(EventKind::Enter));
    }

    /// Pop the innermost scope component. No-op when no scope is open
    /// (always so when neither profiling nor telemetry is active).
    pub fn pop_scope(&mut self) {
        if !self.scopes.is_empty() {
            self.emit(self.here(EventKind::Exit));
            self.scopes.pop();
        }
    }

    /// What this processor has retained of its events so far: marks, and
    /// duration events when profiling. The complete
    /// log lands in [`crate::RunReport::logs`].
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Index of the next event to be retained — a mark for later windowed
    /// queries with [`Log::window_breakdown`].
    #[inline]
    pub fn log_mark(&self) -> usize {
        self.log.events.len()
    }

    // ----- causal tracing --------------------------------------------------

    /// True when trace contexts are being propagated
    /// (`Machine::with_tracing(true)` / `FX_TRACE=1`).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Start (or switch to) trace `id` at this processor: subsequent
    /// events are tagged with it and subsequent sends piggyback it. A
    /// no-op when tracing is off, so origin stamping can stay
    /// unconditional in application code. `0` clears the context.
    #[inline]
    pub fn set_trace(&mut self, id: u64) {
        if self.tracing {
            self.trace = id;
        }
    }

    /// Clear the active trace id (e.g. after a request batch, so
    /// scheduler machinery is not attributed to the last request).
    #[inline]
    pub fn clear_trace(&mut self) {
        self.trace = 0;
    }

    /// The trace id active on this processor (`0` = untraced).
    #[inline]
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Count one communication-plan cache hit (plan replayed).
    #[inline]
    pub fn note_plan_hit(&mut self) {
        bump(&self.counters.plan_hits, 1);
    }

    /// Count one communication-plan cache miss (plan built).
    #[inline]
    pub fn note_plan_miss(&mut self) {
        bump(&self.counters.plan_misses, 1);
    }

    /// A plan replay or halo exchange begins: a cut whose interval (plan
    /// lookup or build, dataflow classification) counts in no duration.
    /// Reads no clock unless a registry is attached.
    #[inline]
    pub fn exchange_begins(&mut self) {
        if self.tl.is_some() {
            cut(&mut self.lap, self.start);
        }
    }

    /// A pack or unpack step of a plan replay or halo exchange ended: a
    /// cut whose interval is `pack_ns`. Same condition.
    #[inline]
    pub fn packed(&mut self) {
        if self.tl.is_some() {
            bump(&self.counters.pack_ns, cut(&mut self.lap, self.start));
        }
    }

    /// Count one group-barrier entry (called by the collectives layer).
    #[inline]
    pub fn note_barrier(&mut self) {
        bump(&self.counters.barriers, 1);
        self.emit(self.here(EventKind::Barrier));
    }

    /// The run's resolved barrier-elision mode (never
    /// [`DataflowMode::Validate`] — a validate machine launches two
    /// resolved runs). The data-parallel layer consults this at every
    /// statement sync point.
    #[inline]
    pub fn dataflow(&self) -> DataflowMode {
        self.world.dataflow
    }

    /// True when scope pushes are observed (profiling or telemetry is
    /// active), so callers can skip building descriptive scope labels on
    /// unobserved runs.
    #[inline]
    pub fn scopes_active(&self) -> bool {
        self.observed
    }

    /// Count one sync point whose subset barrier was elided.
    #[inline]
    pub fn note_barrier_elided(&mut self) {
        bump(&self.counters.barriers_elided, 1);
    }

    /// Count one sync point where the subset barrier actually ran.
    #[inline]
    pub fn note_barrier_kept(&mut self) {
        bump(&self.counters.barriers_kept, 1);
    }

    // ----- heartbeat promotion --------------------------------------------

    /// True when promotable loops should run the promotion protocol (the
    /// machine armed the heartbeat).
    #[inline]
    pub fn heartbeat_active(&self) -> bool {
        self.world.heartbeat
    }

    /// Virtual seconds of charged compute between heartbeat checks.
    #[inline]
    pub fn heartbeat_period(&self) -> f64 {
        self.world.heartbeat_period
    }

    /// Charged compute accumulated since the last
    /// [`ProcCtx::heartbeat_reset`] (monotone between resets; never fed
    /// back into the clock).
    #[inline]
    pub fn heartbeat_elapsed(&self) -> f64 {
        self.hb_acc
    }

    /// Restart the heartbeat accumulator (loop entry, or right after a
    /// heartbeat fired).
    #[inline]
    pub fn heartbeat_reset(&mut self) {
        self.hb_acc = 0.0;
    }

    /// True once some processor panicked and poisoned the mailboxes.
    /// A promotable loop's spin-waits poll this so a promotion
    /// rendezvous never hangs on a dead peer.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.world.mailboxes[self.rank].is_poisoned()
    }

    /// Arm a watchdog for a poll-wait that starts now (a promotable
    /// loop's spin-waits, so a wedged promotion rendezvous dies with a
    /// diagnostic instead of hanging the run): the coarse-clock time past
    /// which [`ProcCtx::watchdog_expired`] reads true. That is the
    /// machine's recv timeout plus one tick, since the coarse clock may be
    /// a tick behind now: like every other watchdog it reads no host
    /// clock and is never early.
    #[inline]
    pub fn watchdog_deadline(&self) -> u64 {
        let timeout = self.world.parkers.recv_timeout;
        let ns = timeout.saturating_add(tick_period(timeout)).as_nanos();
        self.world.parkers.clock.now_ns().saturating_add(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Whether a poll-wait armed with [`ProcCtx::watchdog_deadline`] has
    /// outlived the recv timeout.
    #[inline]
    pub fn watchdog_expired(&self, deadline: u64) -> bool {
        self.world.parkers.clock.now_ns() > deadline
    }

    /// Count one heartbeat that published an announcement.
    #[inline]
    pub fn note_promotion_attempted(&mut self) {
        bump(&self.counters.promotions_attempted, 1);
    }

    /// Count `n` grants written by one heartbeat (one per victim).
    #[inline]
    pub fn note_promotions_taken(&mut self, n: u64) {
        bump(&self.counters.promotions_taken, n);
    }

    /// Count one heartbeat that donated nothing (no eligible victim, or
    /// the remaining range failed the profitability bound).
    #[inline]
    pub fn note_promotion_declined(&mut self) {
        bump(&self.counters.promotions_declined, 1);
    }

    /// Count one skipped task region (this processor was not a member of
    /// the region's subgroup).
    #[inline]
    pub fn note_region_skip(&mut self) {
        bump(&self.counters.region_skips, 1);
    }

    /// The processor is done: what it hands back besides its counters,
    /// which stay in the world's block.
    pub(crate) fn finish<R>(self, value: R) -> ProcOutcome<R> {
        ProcOutcome { value, time: self.now(), log: self.log }
    }
}
