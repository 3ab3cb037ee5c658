//! The executor: P simulated processors multiplexed onto a fixed pool of
//! worker threads.
//!
//! Each processor runs as a stackful coroutine ([`crate::coro`]). Workers
//! pull runnable processors from per-worker run queues (plus a shared
//! injector) and resume them; a processor that blocks on an empty mailbox
//! lane suspends back into its worker, which moves on to other runnable
//! processors. A send to a parked processor re-enqueues it on the
//! *sender's* worker queue (locality: the message is hot in that core's
//! cache); idle workers steal from the back of their peers' queues.
//! This module is about *workers* only: when a processor parks and what
//! wakes it is the per-processor latch of [`crate::parker`], which calls
//! [`Pool::enqueue`] to make a processor runnable again.
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
//! ## Deadlock
//!
//! The same count decides when a run can never progress. Only a running
//! processor deposits or wakes, and a worker pushes only to its own queue
//! or the injector. A worker parks only after a [`Pool::find_work`] that
//! found both empty after its last push, and only it pushes to its own
//! queue. So at the instant the last worker's increment brings `sleepers`
//! up to the worker count, no processor is running, every queue is empty
//! and nothing can ever become runnable again. If a processor is
//! unfinished then, every such processor is parked on a receive that no
//! deposit can satisfy: the run is deadlocked — exactly, and at once,
//! whatever the host clock says. That worker does not sleep: it has the
//! run's diagnosis built and declared ([`crate::stall::declare`]), which
//! releases every parked processor to raise it. A processor that never
//! parks (a compute loop, a `probe` poll, a promotable loop's board spin)
//! stays runnable and is never declared; of those, only the board spin
//! has a deadline ([`crate::clock::SpinDeadline`]).
//!
//! ## Determinism
//!
//! Scheduling order affects host wall-clock only. Virtual time is
//! per-processor state advanced by local charges and by message
//! causality (`recv` takes `max(own clock, arrival)`), and message
//! matching is FIFO per `(src, tag)` with no wildcard receive — so the
//! virtual-time results are bit-identical whatever the worker count and
//! however processors interleave on workers. One worker is a cooperative
//! schedule; one worker per processor gives each its own preempted thread.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::clock::debug_counters;
use crate::coro::{Coro, YieldKind, Yielder};
use crate::ctx::{ProcCtx, World};
use crate::run::{run_proc, ProcOutcome, RawOutcomes};
use crate::stall;

thread_local! {
    /// Index of the pool worker running on this thread (`usize::MAX` on
    /// non-worker threads). Used to route wakes to the waker's own queue.
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Scheduler state shared by the workers and whoever makes a processor
/// runnable. The coroutines themselves are *not* in here — they borrow
/// from the run's stack frame and live in `execute`'s locals.
pub(crate) struct Pool {
    /// Per-worker run queues: owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Shared injector: wakes from non-worker threads, cooperative yields.
    global: Mutex<VecDeque<usize>>,
    /// Workers park here when every queue is empty.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Workers inside [`Pool::park`] (see "The sleeper gate").
    sleepers: AtomicUsize,
    /// Processors that have not finished yet; 0 triggers shutdown.
    live: AtomicUsize,
    shutdown: AtomicBool,
}

impl Pool {
    pub(crate) fn new(nprocs: usize, workers: usize) -> Arc<Pool> {
        assert!(workers >= 1, "the executor needs at least one worker");
        Arc::new(Pool {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            global: Mutex::new(VecDeque::new()),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            live: AtomicUsize::new(nprocs),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Push a runnable processor onto the waker's own queue (locality) or
    /// the shared injector when the waker is not a pool worker.
    pub(crate) fn enqueue(&self, proc: usize) {
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
    pub(crate) fn find_work(&self, widx: usize) -> Option<usize> {
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
    /// enqueue that woke nobody. True, without sleeping, when this worker
    /// is the last to go idle with a processor unfinished: the run is
    /// deadlocked (see "Deadlock").
    fn park(&self) -> bool {
        let last = self.sleepers.fetch_add(1, Ordering::SeqCst) + 1 == self.queues.len();
        let mut g = self.idle_lock.lock();
        let idle = !self.shutdown.load(Ordering::Acquire) && !self.has_work();
        let deadlocked = idle && last && self.live.load(Ordering::Acquire) > 0;
        if idle && !deadlocked {
            let expired = self.idle_cv.wait_for(&mut g, Duration::from_millis(50)).timed_out();
            if cfg!(debug_assertions) && expired && self.has_work() {
                debug_counters::bump(&debug_counters::BACKSTOP_FOUND_WORK);
            }
        }
        drop(g);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        deadlocked
    }

    /// Last processor finished (or a worker is unwinding): release every
    /// parked worker.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.idle_lock.lock());
        self.idle_cv.notify_all();
    }
}

/// One worker: resume runnable processors until shutdown, and declare
/// the run deadlocked when it is (see "Deadlock").
fn worker_loop(pool: &Pool, world: &World, start: Instant, coros: &[Mutex<Option<Coro>>], widx: usize) {
    CURRENT_WORKER.set(widx);
    loop {
        if pool.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(p) = pool.find_work(widx) else {
            if pool.park() {
                stall::declare(world, start);
            }
            continue;
        };
        let mut coro = coros[p].lock().take().expect("runnable processor has no coroutine");
        match coro.resume() {
            YieldKind::Done => {
                // Hand the stack back to the free list now (coro.rs): a
                // run started on another thread meanwhile can take it.
                drop(coro);
                if pool.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    pool.begin_shutdown();
                }
            }
            YieldKind::Yielded => {
                // Cooperative yield (a probe poll, a run-ahead send): go to the
                // back of the shared injector so peers on this worker run first.
                *coros[p].lock() = Some(coro);
                pool.global.lock().push_back(p);
                pool.notify_one_worker();
            }
            YieldKind::Blocked => {
                // Park commit. The coroutine is fully suspended; return it
                // to its slot *before* publishing BLOCKED, so a waker that
                // observes BLOCKED can immediately hand it to any worker.
                *coros[p].lock() = Some(coro);
                if !world.parkers.commit_park(p) {
                    // A wake raced the park: keep the processor runnable
                    // on this worker.
                    pool.enqueue(p);
                }
            }
        }
    }
}

/// Run the SPMD closure over all processors of `world` on this pool:
/// each coroutine runs the per-processor harness ([`run_proc`]) and the
/// per-rank outcomes come back for the report assembly in `run`.
pub(crate) fn execute<R, F>(
    pool: &Arc<Pool>,
    world: &Arc<World>,
    stack_bytes: usize,
    start: Instant,
    f: &F,
) -> RawOutcomes<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    let nprocs = world.nprocs;
    let workers = pool.queues.len();
    type Slot<R> = Mutex<Option<Result<ProcOutcome<R>, Box<dyn Any + Send>>>>;
    // Outcome slots are declared before the coroutines: coroutines borrow
    // them, and drop order (reverse declaration) tears the borrowers down
    // first — the guarantee `Coro::new_scoped` requires.
    let slots: Vec<Slot<R>> = (0..nprocs).map(|_| Mutex::new(None)).collect();
    let coros: Vec<Mutex<Option<Coro>>> = (0..nprocs)
        .map(|rank| {
            let slot = &slots[rank];
            let entry = Box::new(move |y: &Yielder| {
                *slot.lock() = Some(run_proc(rank, world, *y, start, f));
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
                worker_loop(&pool, world, start, coros, w);
            });
        }
    });
    slots.into_iter().map(|m| m.into_inner()).collect()
}
