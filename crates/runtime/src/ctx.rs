//! The per-processor execution context.
//!
//! Every physical processor of the simulated multicomputer runs the same
//! SPMD closure with its own [`ProcCtx`]. The context carries the
//! processor's identity, its (virtual) clock, its event log, and the
//! endpoints for direct-deposit messaging. It is also the one writer of
//! the processor's counter block ([`crate::counters`], owned by the
//! [`World`]): every `note_*` is one bump of that block, whether or not
//! anyone observes the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clock::{host_now, ns_since, tick_period, HostTimer};
use crate::coro::{YieldKind, Yielder};
use crate::counters::{bump, Counters};
use crate::heartbeat::{HeartbeatBoard, HeartbeatMode};
use crate::mailbox::{Envelope, Mailbox};
use crate::model::TimeMode;
use crate::parker::Parkers;
use crate::payload::{erase, unerase, BufferPool, Chunk, MsgBody, Payload};
use crate::run::{DataflowMode, ProcOutcome};
use crate::span::{span_ref, Span, SpanKind, SpanLog, TraceCtx};
use crate::telemetry::{ProcShard, Telemetry};
use crate::trace::EventLog;

/// Shared state of one run of the machine.
pub(crate) struct World {
    pub nprocs: usize,
    pub mode: TimeMode,
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
    /// Set by the first processor to panic, which poisons every mailbox;
    /// later (secondary) panickers find it set and skip the walk.
    pub poisoned: AtomicBool,
    /// Record duration spans (see [`crate::Span`]) during the run.
    pub profile: bool,
    /// Propagate causal trace contexts (see [`crate::TraceCtx`]) on
    /// every message and adopt them on receive. Host-side only: tracing
    /// never moves the virtual clock.
    pub tracing: bool,
    /// Live telemetry registry (see [`crate::Telemetry`]); `None` keeps
    /// every hot path on the seed code shape.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Resolved barrier-elision mode for this run (`Off` or `On`;
    /// `Validate` is split into two runs before the world is built).
    pub dataflow: DataflowMode,
    /// Resolved heartbeat promotion mode (`Off` unless simulating).
    pub heartbeat: HeartbeatMode,
    /// Virtual seconds of charged compute between heartbeats.
    pub heartbeat_period: f64,
    /// Rendezvous board for promotable loops (one slot per processor;
    /// inert unless a promotable loop runs with the heartbeat on).
    pub hb_board: HeartbeatBoard,
    /// Per-processor declared-idle flags (see [`ProcCtx::set_idle`]): a
    /// processor that reads true is legitimately quiescent — waiting for
    /// work to arrive, not deadlocked — so recv timeouts are forgiven and
    /// the stall sampler skips it.
    pub idle: Vec<AtomicBool>,
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

/// How this processor's blocking points are implemented: by parking the
/// dedicated OS thread (threaded executor) or by suspending the
/// processor's coroutine back into the worker-pool scheduler (pooled
/// executor). Everything else — registration, wakeup, the watchdog,
/// matching, FIFO order, virtual-time accounting — is shared, which is
/// what makes the two executors bit-identical in virtual time.
pub(crate) enum ExecCtx {
    /// One dedicated OS thread; blocking parks it.
    Thread,
    /// Coroutine multiplexed on the worker pool; blocking suspends.
    Pooled(Yielder),
}

/// Execution context of one physical processor (one per SPMD thread).
pub struct ProcCtx {
    rank: usize,
    world: Arc<World>,
    /// Blocking/yield strategy (threaded vs pooled executor).
    exec: ExecCtx,
    /// Virtual clock (seconds). Unused in real-time mode.
    clock: f64,
    /// Wall-clock start, for real-time mode.
    start: Instant,
    events: EventLog,
    /// This processor's counter block (the world's, shared with whoever
    /// reads it). The context is its only writer.
    counters: Arc<Counters>,
    /// Recycled message-buffer storage for the chunk fast path.
    pool: BufferPool,
    /// True when the machine profiles and time is simulated: duration
    /// spans are recorded on the virtual clock.
    profile: bool,
    /// True when trace contexts are piggybacked on sends and adopted on
    /// receives (`Machine::with_tracing` / `FX_TRACE`).
    tracing: bool,
    /// The causal trace context active on this processor (`NONE` when
    /// untraced). Set at a trace origin via [`ProcCtx::set_trace`],
    /// replaced by adoption whenever a traced message is received.
    trace: TraceCtx,
    /// Virtual-time duration spans (empty unless profiling).
    spans: SpanLog,
    /// Byte offsets into `scope_path` marking each open scope's start.
    scope_stack: Vec<usize>,
    /// `/`-joined task-region/subgroup nesting path for span tagging.
    scope_path: String,
    /// Cached shared copy of `scope_path`; invalidated on push/pop.
    scope_arc: Option<Arc<str>>,
    /// This processor's telemetry shard (`None` when telemetry is off —
    /// the zero-cost check on every instrumented path).
    tl: Option<Arc<ProcShard>>,
    /// Local cache of interned scope-path label ids, so only the first
    /// entry into a given region path touches the global intern table.
    scope_ids: HashMap<String, u32>,
    /// Interned label id of each open scope, parallel to `scope_stack`
    /// (maintained only when telemetry is on).
    scope_id_stack: Vec<u32>,
    /// Virtual seconds of charged compute since the last heartbeat reset.
    /// Pure accumulation alongside the clock: it never feeds back into
    /// any charge, so arming the heartbeat cannot move virtual time.
    hb_acc: f64,
}

impl ProcCtx {
    pub(crate) fn new(rank: usize, world: Arc<World>, start: Instant, exec: ExecCtx) -> Self {
        let profile = world.profile && world.mode.is_simulated();
        let tracing = world.tracing;
        let tl = world.telemetry.as_ref().map(|t| t.shard(rank));
        let counters = Arc::clone(&world.counters[rank]);
        ProcCtx {
            rank,
            world,
            exec,
            clock: 0.0,
            start,
            events: EventLog::default(),
            counters,
            pool: BufferPool::default(),
            profile,
            tracing,
            trace: TraceCtx::NONE,
            spans: SpanLog::default(),
            scope_stack: Vec::new(),
            scope_path: String::new(),
            scope_arc: None,
            tl,
            scope_ids: HashMap::new(),
            scope_id_stack: Vec::new(),
            hb_acc: 0.0,
        }
    }

    /// Virtual time as stored bits for flight-recorder timestamps (0.0 in
    /// real-time mode, where only the wall clock is meaningful).
    #[inline]
    fn vbits(&self) -> u64 {
        match self.world.mode {
            TimeMode::Real => 0,
            TimeMode::Simulated(_) => self.clock.to_bits(),
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

    /// The machine's time mode (shared by all processors).
    #[inline]
    pub fn time_mode(&self) -> TimeMode {
        self.world.mode
    }

    /// Current time in seconds: virtual time when simulating, wall-clock
    /// time since machine start otherwise.
    #[inline]
    pub fn now(&self) -> f64 {
        match self.world.mode {
            TimeMode::Real => host_now().duration_since(self.start).as_secs_f64(),
            TimeMode::Simulated(_) => self.clock,
        }
    }

    /// Advance this processor's virtual clock to at least `t`
    /// (no-op in real-time mode or when already past `t`).
    #[inline]
    pub fn advance_to(&mut self, t: f64) {
        if self.world.mode.is_simulated() && t > self.clock {
            self.clock = t;
        }
    }

    /// Charge `n` floating point operations of local compute.
    #[inline]
    pub fn charge_flops(&mut self, n: f64) {
        if let TimeMode::Simulated(m) = self.world.mode {
            let t0 = self.clock;
            self.clock += m.flops(n);
            self.hb_acc += self.clock - t0;
            self.span_compute(t0);
        }
    }

    /// Charge `n` bytes of local memory traffic (memory-bound kernels).
    #[inline]
    pub fn charge_mem_bytes(&mut self, n: f64) {
        if let TimeMode::Simulated(m) = self.world.mode {
            let t0 = self.clock;
            self.clock += m.mem_bytes(n);
            self.hb_acc += self.clock - t0;
            self.span_compute(t0);
        }
    }

    /// Charge a raw amount of virtual seconds (e.g. a modeled I/O phase).
    #[inline]
    pub fn charge_seconds(&mut self, s: f64) {
        if self.world.mode.is_simulated() {
            let t0 = self.clock;
            self.clock += s;
            self.hb_acc += self.clock - t0;
            self.span_compute(t0);
        }
    }

    /// Record `[t0, clock]` as a compute span when profiling.
    #[inline]
    fn span_compute(&mut self, t0: f64) {
        if self.profile {
            let path = self.current_path();
            let end = self.clock;
            let trace = self.trace.id;
            self.spans.push_compute(t0, end, path, trace);
        }
    }

    /// The trace context to piggyback on an outgoing message: the active
    /// context with `parent` pointing at the send span just recorded (or
    /// the context as-is when spans are off). `NONE` when tracing is off
    /// or no trace is active.
    #[inline]
    fn outgoing_trace(&self) -> TraceCtx {
        if !self.tracing || self.trace.id == 0 {
            return TraceCtx::NONE;
        }
        let parent = if self.profile && !self.spans.is_empty() {
            span_ref(self.rank, self.spans.len() - 1)
        } else {
            self.trace.parent
        };
        TraceCtx { id: self.trace.id, parent }
    }

    /// Advance the clock for an outgoing message of `nbytes` and return
    /// its arrival time at the destination. Shared by both send paths so
    /// the chunk fast path charges exactly what the boxed path charges.
    #[inline]
    fn charge_send(&mut self, nbytes: usize) -> f64 {
        match self.world.mode {
            TimeMode::Real => 0.0,
            TimeMode::Simulated(m) => {
                self.clock += m.send_busy(nbytes);
                m.arrival(self.clock)
            }
        }
    }

    /// Send `value` to physical processor `dst` on channel `tag`.
    ///
    /// Direct deposit: the call enqueues into `dst`'s mailbox and returns;
    /// the sender is only charged its CPU overhead plus the per-byte gap.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u64, value: T) {
        let t0 = self.host_timer();
        let (payload, nbytes) = erase(value);
        self.post(t0, dst, tag, nbytes, MsgBody::Boxed(payload));
    }

    /// A stopwatch for a host duration that a counter reports (`send_ns`,
    /// `recv_wait_ns`, `pack_ns`): it runs — two reads of the host clock —
    /// only when a telemetry registry is attached to the run, the one
    /// reader of those durations, and reads 0 otherwise.
    #[inline]
    pub fn host_timer(&self) -> HostTimer {
        HostTimer(self.tl.as_ref().map(|_| host_now()))
    }

    /// The one post routine behind [`ProcCtx::send`] and
    /// [`ProcCtx::send_chunk`]: same virtual-time charge, span, counters
    /// and deposit for either payload path; a chunk additionally counts
    /// as chunk traffic.
    fn post(&mut self, t0: HostTimer, dst: usize, tag: u64, nbytes: usize, payload: MsgBody) {
        assert!(dst < self.world.nprocs, "send to nonexistent processor {dst}");
        let chunk = matches!(payload, MsgBody::Chunk(_));
        let v0 = self.clock;
        let arrival = self.charge_send(nbytes);
        self.span_send(v0, dst, tag, arrival);
        let contended = self.world.mailboxes[dst].deposit(Envelope {
            src: self.rank,
            tag,
            arrival,
            nbytes,
            enqueued: self.world.parkers.clock.now_ns(),
            trace: self.outgoing_trace(),
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
        // Host-time accounting, when someone is looking; the wall stamp
        // reuses `t0`.
        if let (Some(sh), Some(t0)) = (&self.tl, t0.0) {
            bump(&c.send_ns, ns_since(t0));
            let wall = t0.duration_since(self.start).as_nanos() as u64;
            sh.on_send(nbytes as u64, chunk, wall, self.vbits(), dst, tag);
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
        let (bytes, hit) = self.pool.acquire(elems * std::mem::size_of::<T>());
        let c = &self.counters;
        bump(if hit { &c.pool_hits } else { &c.pool_misses }, 1);
        Chunk::from_bytes::<T>(bytes)
    }

    /// Return a chunk's storage to this processor's buffer pool so the
    /// next transfer of a similar size reuses it.
    pub fn release_chunk(&mut self, chunk: Chunk) {
        self.pool.release(chunk.into_bytes());
    }

    /// Send a packed [`Chunk`] to processor `dst` on channel `tag`.
    ///
    /// The fast path for plan-driven bulk transfers: same virtual-time
    /// charges, message counters, and FIFO ordering as [`ProcCtx::send`]
    /// of an equal-sized `Vec<T>`, but no `Box<dyn Any>` allocation — the
    /// pooled buffer itself moves into the receiver's mailbox.
    pub fn send_chunk(&mut self, dst: usize, tag: u64, chunk: Chunk) {
        let t0 = self.host_timer();
        self.post(t0, dst, tag, chunk.nbytes(), MsgBody::Chunk(chunk));
    }

    /// Receive a [`Chunk`] from processor `src` on channel `tag`. After
    /// unpacking, hand the chunk to [`ProcCtx::release_chunk`] so its
    /// storage recycles through this processor's pool.
    pub fn recv_chunk(&mut self, src: usize, tag: u64) -> Chunk {
        let env = self.take_env(src, tag);
        match env.payload {
            MsgBody::Chunk(c) => {
                if let Some(sh) = &self.tl {
                    sh.on_recv_chunk_bytes(env.nbytes as u64);
                }
                c
            }
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
    /// registry is attached, host wait-time accounting (common to `recv`
    /// and `recv_chunk`).
    fn take_env(&mut self, src: usize, tag: u64) -> Envelope {
        assert!(src < self.world.nprocs, "recv from nonexistent processor {src}");
        let t0 = self.host_timer();
        if let Some(sh) = &self.tl {
            // Published before blocking so the stall sampler can name the
            // (src, tag) this processor is parked on; cleared by on_recv.
            // Left set on a watchdog panic, which is exactly what the
            // post-mortem flight dump wants to show.
            sh.begin_wait(src, tag);
        }
        let world = &self.world;
        let env = world.mailboxes[self.rank].take(src, tag, &world.idle[self.rank], || match &self.exec {
            ExecCtx::Thread => world.parkers.park_thread(self.rank),
            ExecCtx::Pooled(yielder) => yielder.suspend(YieldKind::Blocked),
        });
        let c = &self.counters;
        bump(&c.recvs, 1);
        bump(&c.recv_bytes, env.nbytes as u64);
        if let (Some(sh), Some(t0)) = (&self.tl, t0.0) {
            let waited = ns_since(t0);
            bump(&c.recv_wait_ns, waited);
            let wall = t0.duration_since(self.start).as_nanos() as u64 + waited;
            sh.on_recv(env.nbytes as u64, waited, wall, self.vbits(), src, tag);
        }
        // Adopt a piggybacked trace context *before* recording the recv
        // span, so the busy half of the receive — the first local work
        // done on behalf of the incoming operation — is already tagged
        // with its trace. Untraced messages leave the context alone.
        if self.tracing && env.trace.id != 0 {
            self.trace = env.trace;
        }
        if let TimeMode::Simulated(m) = self.world.mode {
            let ready = self.clock.max(env.arrival);
            let t = ready + m.recv_busy(env.nbytes);
            if self.profile {
                // The wait `[clock, ready]` is left as a gap (idle); only
                // the busy half `[ready, t]` becomes a span.
                let path = self.current_path();
                let trace = self.trace.id;
                self.spans.push_msg(Span {
                    start: ready,
                    end: t,
                    kind: SpanKind::Recv,
                    path,
                    peer: src as u32,
                    tag,
                    arrival: env.arrival,
                    trace,
                });
            }
            self.clock = t;
        }
        env
    }

    /// Record the busy half of a send as a span when profiling.
    #[inline]
    fn span_send(&mut self, v0: f64, dst: usize, tag: u64, arrival: f64) {
        if self.profile {
            let path = self.current_path();
            let trace = self.trace.id;
            self.spans.push_msg(Span {
                start: v0,
                end: self.clock,
                kind: SpanKind::Send,
                path,
                peer: dst as u32,
                tag,
                arrival,
                trace,
            });
        }
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
            if let ExecCtx::Pooled(yielder) = &self.exec {
                yielder.suspend(YieldKind::Yielded);
            }
        }
        found
    }

    /// Let other runnable processors use this processor's execution
    /// resource: the OS scheduler's `yield_now` under the threaded
    /// executor, a cooperative reschedule (to the back of the run queue)
    /// under the pooled one. Poll loops must call this — under the pooled
    /// executor a spinning processor otherwise occupies a worker that the
    /// peer it is waiting for may need.
    pub fn yield_now(&self) {
        match &self.exec {
            ExecCtx::Thread => std::thread::yield_now(),
            ExecCtx::Pooled(yielder) => yielder.suspend(YieldKind::Yielded),
        }
    }

    /// Mark an event at the current time on this processor's log.
    pub fn record(&mut self, label: impl Into<String>) {
        let t = self.now();
        self.events.record(t, label);
    }

    // ----- span profiling --------------------------------------------------

    /// True when duration spans are being recorded (the machine enabled
    /// profiling and time is simulated). Callers use this to skip scope
    /// bookkeeping entirely on unprofiled runs.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profile
    }

    /// Push a component onto the span scope path (`"G1"`, `"assign2"`,
    /// …). Subsequent spans are tagged `parent/…/name` until the matching
    /// [`ProcCtx::pop_scope`]. Counts one region entry; the path itself is
    /// maintained only when profiling or telemetry is active.
    pub fn push_scope(&mut self, name: &str) {
        bump(&self.counters.region_enters, 1);
        if !self.profile && self.tl.is_none() {
            return;
        }
        self.scope_stack.push(self.scope_path.len());
        if !self.scope_path.is_empty() {
            self.scope_path.push('/');
        }
        self.scope_path.push_str(name);
        self.scope_arc = None;
        if self.tl.is_some() {
            self.telemetry_scope_enter();
        }
    }

    /// Pop the innermost span scope component. No-op when neither
    /// profiling nor telemetry is active (or when the scope stack is
    /// empty).
    pub fn pop_scope(&mut self) {
        if !self.profile && self.tl.is_none() {
            return;
        }
        if let Some(len) = self.scope_stack.pop() {
            if let (Some(sh), Some(id)) = (&self.tl, self.scope_id_stack.pop()) {
                let wall = ns_since(self.start);
                sh.on_region_exit(id, wall, self.vbits());
            }
            self.scope_path.truncate(len);
            self.scope_arc = None;
        }
    }

    /// Telemetry bookkeeping for a just-pushed scope: intern the full path
    /// (through the per-processor id cache), count the entry under its
    /// subgroup path, and drop an enter event into the flight ring.
    fn telemetry_scope_enter(&mut self) {
        let id = match self.scope_ids.get(&self.scope_path) {
            Some(&id) => id,
            None => {
                let t = self.world.telemetry.as_ref().expect("tl implies telemetry");
                let id = t.intern(&self.scope_path);
                self.scope_ids.insert(self.scope_path.clone(), id);
                id
            }
        };
        self.scope_id_stack.push(id);
        let wall = ns_since(self.start);
        let vbits = self.vbits();
        if let Some(sh) = &self.tl {
            sh.on_region_enter(id, wall, vbits);
        }
    }

    /// The spans recorded so far (empty unless profiling under simulated
    /// time). The complete log lands in [`crate::RunReport::spans`].
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Index of the next span to be recorded — a mark for later windowed
    /// queries with [`SpanLog::window_breakdown`].
    #[inline]
    pub fn span_mark(&self) -> usize {
        self.spans.len()
    }

    // ----- causal tracing --------------------------------------------------

    /// True when trace contexts are being propagated
    /// (`Machine::with_tracing(true)` / `FX_TRACE=1`).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Start (or switch to) trace `id` at this processor: subsequent
    /// spans are tagged with it and subsequent sends piggyback it. A
    /// no-op when tracing is off, so origin stamping can stay
    /// unconditional in application code. `0` clears the context.
    #[inline]
    pub fn set_trace(&mut self, id: u64) {
        if self.tracing {
            self.trace = TraceCtx::root(id);
        }
    }

    /// Clear the active trace context (e.g. after a request batch, so
    /// scheduler machinery is not attributed to the last request).
    #[inline]
    pub fn clear_trace(&mut self) {
        self.trace = TraceCtx::NONE;
    }

    /// The trace id active on this processor (`0` = untraced).
    #[inline]
    pub fn trace(&self) -> u64 {
        self.trace.id
    }

    /// The full active trace context, including the causal parent link
    /// adopted from the last traced message received.
    #[inline]
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace
    }

    /// Shared copy of the current scope path (`None` at top level).
    fn current_path(&mut self) -> Option<Arc<str>> {
        if self.scope_path.is_empty() {
            return None;
        }
        if self.scope_arc.is_none() {
            self.scope_arc = Some(Arc::from(self.scope_path.as_str()));
        }
        self.scope_arc.clone()
    }

    /// Number of messages this processor has sent so far.
    pub fn sent_msgs(&self) -> u64 {
        self.counters.sends.load(Ordering::Relaxed)
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

    /// Accumulate host nanoseconds spent packing/unpacking along plan runs.
    #[inline]
    pub fn add_pack_ns(&mut self, ns: u64) {
        bump(&self.counters.pack_ns, ns);
    }

    /// Count one group-barrier entry (called by the collectives layer).
    #[inline]
    pub fn note_barrier(&mut self) {
        bump(&self.counters.barriers, 1);
        if let Some(sh) = &self.tl {
            let wall = ns_since(self.start);
            sh.on_barrier(wall, self.vbits());
        }
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
        self.profile || self.tl.is_some()
    }

    /// Count one sync point classified interval-covered (barrier elided).
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

    /// True when promotable loops should run the promotion protocol:
    /// the machine armed the heartbeat *and* time is simulated (idle
    /// detection and profitability are virtual-clock predicates; a
    /// real-time machine always behaves as `FX_HEARTBEAT=off`).
    #[inline]
    pub fn heartbeat_active(&self) -> bool {
        self.world.heartbeat == HeartbeatMode::On && self.world.mode.is_simulated()
    }

    /// Virtual seconds of charged compute between heartbeat checks.
    #[inline]
    pub fn heartbeat_period(&self) -> f64 {
        self.world.heartbeat_period
    }

    /// The machine-wide promotion rendezvous board.
    #[inline]
    pub fn heartbeat_board(&self) -> &HeartbeatBoard {
        &self.world.hb_board
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
    /// Board spin-waits poll this so a promotion rendezvous never hangs
    /// on a dead peer.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.world.mailboxes[self.rank].is_poisoned()
    }

    /// Arm a watchdog for a poll-wait that starts now (the heartbeat
    /// board's spin-waits, so a wedged promotion rendezvous dies with a
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

    /// Declare this processor idle (`true`) or active (`false`).
    ///
    /// A serving loop legitimately quiesces between request arrivals:
    /// its processors block in receives with nothing in flight, which is
    /// exactly the signature the deadlock watchdog and the stall sampler
    /// are built to report. While a processor is declared idle its recv
    /// timeouts are forgiven (the wait just continues) and the stall
    /// sampler skips it. Clearing the flag re-arms both within one
    /// timeout period. The flag is per-processor, starts `false`, and
    /// must only be set while the processor is genuinely waiting for new
    /// work — a deadlock inside request processing still triggers the
    /// full diagnostic because the serving loop clears the flag before
    /// dispatching a batch.
    #[inline]
    pub fn set_idle(&self, on: bool) {
        self.world.idle[self.rank].store(on, std::sync::atomic::Ordering::Release);
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
        ProcOutcome { value, time: self.now(), events: self.events, spans: self.spans }
    }
}
