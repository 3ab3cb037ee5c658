//! The pooled executor: P simulated processors multiplexed onto a fixed
//! pool of worker threads.
//!
//! Each processor runs as a stackful coroutine ([`crate::coro`]). Workers
//! pull runnable processors from per-worker run queues (plus a shared
//! injector) and resume them; a processor that blocks on an empty mailbox
//! lane suspends back into its worker, which moves on to other runnable
//! processors. A send to a parked processor re-enqueues it on the
//! *sender's* worker queue (locality: the message is hot in that core's
//! cache); idle workers steal from the back of their peers' queues.
//!
//! ## Processor scheduling states
//!
//! Each processor carries a one-byte atomic state:
//!
//! * `IDLE` — running on some worker, or sitting in a run queue.
//! * `BLOCKED` — parked on an empty mailbox lane; exactly one wake
//!   transitions it back to `IDLE` and enqueues it.
//! * `NOTIFIED` — a wake arrived while the processor was `IDLE` (still
//!   running, or already queued). The wake is latched: when the worker
//!   tries to commit the park (`IDLE → BLOCKED`), the CAS fails and the
//!   processor is re-enqueued instead of parked.
//!
//! The park commit happens on the *worker*, after the coroutine has fully
//! suspended (its registers are parked on its own stack and the `Coro`
//! handle is back in its slot) — so by the time any other worker can
//! observe `BLOCKED` and steal the processor, the coroutine is complete,
//! inert data. That ordering plus the latched `NOTIFIED` state makes lost
//! wakeups impossible without any per-lane condvar.
//!
//! ## The sleeper gate
//!
//! Making a processor runnable is a queue push. It becomes a system call
//! only when a worker is actually asleep: `sleepers` counts the workers
//! inside [`Pool::park`], and an enqueue touches `idle_lock`/`idle_cv`
//! only when the count is non-zero. The worker raises the count *before*
//! it re-checks the queues and the enqueuer pushes *before* it loads the
//! count (SeqCst on both sides, and the queue mutex orders the push
//! against the re-check), so one of the two always sees the other: either
//! the parking worker finds the push, or the enqueuer finds the sleeper
//! and takes the condvar path, which `idle_lock` makes race-free as
//! before. In the steady state of a busy run — every worker running or
//! draining its queue — a wake never enters the kernel.
//!
//! ## Deadlock watchdog
//!
//! Threaded mode gets recv timeouts for free from `Condvar::wait_for`. A
//! parked coroutine has no thread to time out on, so the run's tick
//! thread ([`crate::clock::spawn_ticker`], within the "num_cpus +
//! constant" budget) scans parked processors' park stamps once per tick
//! ([`Pool::expire_parked`]). Stamp and comparison both use the run's
//! coarse clock, so parking reads no host clock; the tick's slack term
//! keeps the coarse stamp from ever firing a timeout early, and bounds it
//! to two tick periods late. On expiry the scan latches a `timed_out`
//! flag and wakes the processor; the processor itself re-checks its lane
//! (progress wins over timeout) and otherwise panics with the same
//! diagnostic text as the threaded path, so existing tooling and tests
//! match either executor.
//!
//! ## Determinism
//!
//! Scheduling order affects host wall-clock only. Virtual time is
//! per-processor state advanced by local charges and by message
//! causality (`recv` takes `max(own clock, arrival)`), and message
//! matching is FIFO per `(src, tag)` with no wildcard receive — so the
//! virtual-time results are bit-identical to the threaded executor no
//! matter how processors interleave on workers.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::clock::{debug_counters, CoarseClock};
use crate::coro::{stack_bytes_from_env, Coro, YieldKind, Yielder};
use crate::ctx::{ExecCtx, ProcCtx, World};
use crate::run::{run_proc, ProcOutcome, RawOutcomes};

/// Running (on a worker) or waiting in a run queue.
const IDLE: u8 = 0;
/// Parked on an empty mailbox lane.
const BLOCKED: u8 = 1;
/// A wake arrived while `IDLE`; the next park attempt aborts.
const NOTIFIED: u8 = 2;

/// `blocked_at_ns` sentinel: not currently parked.
const NOT_BLOCKED: u64 = u64::MAX;

thread_local! {
    /// Index of the pool worker running on this thread (`usize::MAX` on
    /// non-worker threads). Used to route wakes to the waker's own queue.
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Per-processor scheduling state, cache-line padded: `wake` from a
/// sender must not false-share with neighbouring processors' parks.
#[repr(align(64))]
struct ProcSched {
    state: AtomicU8,
    /// Latched by the watchdog when a park outlives the recv timeout.
    timed_out: AtomicBool,
    /// Coarse-clock nanoseconds when the park was committed
    /// (`NOT_BLOCKED` while runnable). Watchdog bookkeeping, keyed by
    /// processor id — not by thread identity, which is meaningless here.
    blocked_at_ns: AtomicU64,
}

/// Scheduler state shared by workers, mailboxes (for wakes) and the
/// watchdog. The coroutines themselves are *not* in here — they borrow
/// from the run's stack frame and live in `execute`'s locals.
pub(crate) struct Pool {
    /// Per-worker run queues: owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Shared injector: wakes from non-worker threads, cooperative yields.
    global: Mutex<VecDeque<usize>>,
    procs: Vec<ProcSched>,
    /// Workers park here when every queue is empty.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Workers inside [`Pool::park`] (see "The sleeper gate").
    sleepers: AtomicUsize,
    /// Processors that have not finished yet; 0 triggers shutdown.
    live: AtomicUsize,
    shutdown: AtomicBool,
    recv_timeout: Duration,
    /// The run's coarse clock: park stamps come from it.
    clock: Arc<CoarseClock>,
}

impl Pool {
    pub(crate) fn new(
        nprocs: usize,
        workers: usize,
        recv_timeout: Duration,
        clock: Arc<CoarseClock>,
    ) -> Arc<Pool> {
        assert!(workers >= 1, "pooled executor needs at least one worker");
        Arc::new(Pool {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            global: Mutex::new(VecDeque::new()),
            procs: (0..nprocs)
                .map(|_| ProcSched {
                    state: AtomicU8::new(IDLE),
                    timed_out: AtomicBool::new(false),
                    blocked_at_ns: AtomicU64::new(NOT_BLOCKED),
                })
                .collect(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            live: AtomicUsize::new(nprocs),
            shutdown: AtomicBool::new(false),
            recv_timeout,
            clock,
        })
    }

    /// The run's coarse clock (shared with this pool's mailboxes).
    pub(crate) fn clock(&self) -> &Arc<CoarseClock> {
        &self.clock
    }

    /// Make `proc` runnable (called by senders on deposit, by `poison`,
    /// and by the watchdog). Lost-wakeup-free: a park that races this is
    /// either already committed (`BLOCKED` → we enqueue) or not yet
    /// (`IDLE` → we latch `NOTIFIED` and the park commit aborts).
    pub(crate) fn wake(&self, proc: usize) {
        let ps = &self.procs[proc];
        loop {
            match ps.state.compare_exchange(BLOCKED, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    ps.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    self.enqueue(proc);
                    return;
                }
                Err(NOTIFIED) => return, // wake already latched
                Err(_) => {
                    // IDLE: running or queued — latch the wake and let the
                    // park commit abort. CAS failure means the processor
                    // just parked; retry the outer loop.
                    if ps
                        .state
                        .compare_exchange(IDLE, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Consume the watchdog's timeout latch for `proc`. Nearly every
    /// resume finds it clear, so look before paying for the locked swap.
    pub(crate) fn take_timed_out(&self, proc: usize) -> bool {
        let latch = &self.procs[proc].timed_out;
        latch.load(Ordering::Acquire) && latch.swap(false, Ordering::AcqRel)
    }

    /// Drop a stale timeout latch (a message arrived after all).
    pub(crate) fn clear_timeout(&self, proc: usize) {
        self.procs[proc].timed_out.store(false, Ordering::Relaxed);
    }

    /// Push a runnable processor onto the waker's own queue (locality) or
    /// the shared injector when the waker is not a pool worker.
    fn enqueue(&self, proc: usize) {
        let w = CURRENT_WORKER.get();
        if w < self.queues.len() {
            self.queues[w].lock().push_back(proc);
        } else {
            self.global.lock().push_back(proc);
        }
        self.notify_one_worker();
    }

    /// Wake one parked worker, if there is one (call after the push; see
    /// "The sleeper gate"). Taking `idle_lock` first closes the race with
    /// a worker that re-checked the queues and is about to wait: it is
    /// either pre-check (sees our push) or parked (gets the notify).
    fn notify_one_worker(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        debug_counters::bump(&debug_counters::WORKER_NOTIFIES);
        drop(self.idle_lock.lock());
        self.idle_cv.notify_one();
    }

    /// Pop runnable work: own queue front, then the injector, then steal
    /// from the back of the other workers' queues.
    fn find_work(&self, widx: usize) -> Option<usize> {
        if let Some(p) = self.queues[widx].lock().pop_front() {
            return Some(p);
        }
        if let Some(p) = self.global.lock().pop_front() {
            return Some(p);
        }
        let n = self.queues.len();
        for off in 1..n {
            if let Some(p) = self.queues[(widx + off) % n].lock().pop_back() {
                return Some(p);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        if !self.global.lock().is_empty() {
            return true;
        }
        self.queues.iter().any(|q| !q.lock().is_empty())
    }

    /// Park this worker until new work is enqueued. The count goes up
    /// before the re-check (see "The sleeper gate"). The timeout is a
    /// belt-and-braces backstop; wakes normally arrive via the condvar,
    /// and debug builds count an expiry that finds work waiting — an
    /// enqueue that woke nobody.
    fn park(&self) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut g = self.idle_lock.lock();
        if !self.shutdown.load(Ordering::Acquire) && !self.has_work() {
            let expired = self.idle_cv.wait_for(&mut g, Duration::from_millis(50)).timed_out();
            if cfg!(debug_assertions) && expired && self.has_work() {
                debug_counters::bump(&debug_counters::BACKSTOP_FOUND_WORK);
            }
        }
        drop(g);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Last processor finished (or a worker is unwinding): release every
    /// parked worker.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.idle_lock.lock());
        self.idle_cv.notify_all();
    }

    /// Watchdog scan, once per tick of the run's tick thread: latch
    /// `timed_out` on every processor parked for the recv timeout and
    /// wake it, so *it* raises the deadlock panic from its own context
    /// (where the diagnostic belongs). Park stamps are coarse — up to
    /// `slack` behind the host time they were taken at — so a park only
    /// expires once `slack` more than the timeout has passed since its
    /// stamp (see [`crate::clock::spawn_ticker`]).
    pub(crate) fn expire_parked(&self, now: u64, slack: u64) {
        let lim = u64::try_from(self.recv_timeout.as_nanos()).unwrap_or(u64::MAX).saturating_add(slack);
        for (i, ps) in self.procs.iter().enumerate() {
            let b = ps.blocked_at_ns.load(Ordering::Relaxed);
            if b != NOT_BLOCKED && now.saturating_sub(b) >= lim {
                ps.timed_out.store(true, Ordering::Release);
                self.wake(i);
            }
        }
    }
}

/// One worker: resume runnable processors until shutdown.
fn worker_loop(pool: &Pool, coros: &[Mutex<Option<Coro>>], widx: usize) {
    CURRENT_WORKER.set(widx);
    loop {
        if pool.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(p) = pool.find_work(widx) else {
            pool.park();
            continue;
        };
        let mut coro = coros[p].lock().take().expect("runnable processor has no coroutine");
        match coro.resume() {
            YieldKind::Done => {
                drop(coro); // free the stack eagerly: matters at P=4096
                if pool.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    pool.begin_shutdown();
                }
            }
            YieldKind::Yielded => {
                // Cooperative yield (probe poll): go to the back of the
                // shared injector so peers on this worker are not starved.
                *coros[p].lock() = Some(coro);
                pool.global.lock().push_back(p);
                pool.notify_one_worker();
            }
            YieldKind::Blocked => {
                // Park commit. The coroutine is fully suspended; return it
                // to its slot *before* publishing BLOCKED, so a waker that
                // observes BLOCKED can immediately hand it to any worker.
                *coros[p].lock() = Some(coro);
                let ps = &pool.procs[p];
                ps.blocked_at_ns.store(pool.clock.now_ns(), Ordering::Relaxed);
                if ps
                    .state
                    .compare_exchange(IDLE, BLOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // NOTIFIED: a wake raced the park. Consume it and keep
                    // the processor runnable on this worker.
                    ps.state.store(IDLE, Ordering::Release);
                    ps.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    pool.queues[widx].lock().push_back(p);
                    pool.notify_one_worker();
                }
            }
        }
    }
}

/// Run the SPMD closure over all processors of `world` on this pool:
/// each coroutine runs the per-processor harness the threaded executor's
/// threads run ([`run_proc`]) and the same per-rank outcomes come back
/// for the shared report-assembly code in `run`.
pub(crate) fn execute<R, F>(
    pool: &Arc<Pool>,
    world: &Arc<World>,
    start: Instant,
    f: &F,
) -> RawOutcomes<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    let nprocs = world.nprocs;
    let workers = pool.queues.len();
    let stack_bytes = stack_bytes_from_env();
    type Slot<R> = Mutex<Option<Result<ProcOutcome<R>, Box<dyn Any + Send>>>>;
    // Outcome slots are declared before the coroutines: coroutines borrow
    // them, and drop order (reverse declaration) tears the borrowers down
    // first — the guarantee `Coro::new_scoped` requires.
    let slots: Vec<Slot<R>> = (0..nprocs).map(|_| Mutex::new(None)).collect();
    let coros: Vec<Mutex<Option<Coro>>> = (0..nprocs)
        .map(|rank| {
            let pool = Arc::clone(pool);
            let slot = &slots[rank];
            let entry = Box::new(move |y: &Yielder| {
                let exec = ExecCtx::Pooled { pool, proc: rank, yielder: *y };
                *slot.lock() = Some(run_proc(rank, world, exec, start, f));
            });
            Mutex::new(Some(unsafe { Coro::new_scoped(stack_bytes, entry) }))
        })
        .collect();
    // Seed the run queues round-robin before any worker starts.
    for rank in 0..nprocs {
        pool.queues[rank % workers].lock().push_back(rank);
    }
    std::thread::scope(|scope| {
        for w in 0..workers {
            let pool = Arc::clone(pool);
            let coros = &coros;
            scope.spawn(move || {
                // If a worker dies on a scheduler invariant, release the
                // others so the scope can join and propagate the panic
                // instead of hanging.
                struct ShutdownOnPanic<'p>(&'p Pool);
                impl Drop for ShutdownOnPanic<'_> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.0.begin_shutdown();
                        }
                    }
                }
                let _guard = ShutdownOnPanic(&pool);
                worker_loop(&pool, coros, w);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner()).collect()
}
