//! The one wait/wake protocol: a park latch per processor, and the one
//! watchdog that expires it.
//!
//! A receiver that finds its lane empty registers there and *parks*; the
//! deposit that consumes the registration *wakes* it ([`crate::mailbox`]
//! has that half; poison and the watchdog borrow the same wake). Parking
//! is two-phase: the coroutine suspends into its worker, the worker
//! commits the park ([`Parkers::commit_park`]), and a wake puts the
//! processor back on a run queue ([`Pool::enqueue`]).
//!
//! ## Processor scheduling states
//!
//! Each processor carries a one-byte atomic state:
//!
//! * `IDLE` — running, or sitting in a run queue.
//! * `BLOCKED` — parked on an empty mailbox lane; exactly one wake
//!   transitions it back to `IDLE` and makes it runnable.
//! * `NOTIFIED` — a wake arrived while the processor was `IDLE` (still
//!   running, or already queued). The wake is latched: the park commit
//!   (`IDLE → BLOCKED`) fails its CAS and the processor stays runnable.
//!
//! The commit happens on the *worker*, after the coroutine has fully
//! suspended — so by the time any other worker can observe `BLOCKED` and
//! steal the processor, the coroutine is complete. That ordering plus the
//! latched `NOTIFIED` state makes lost wakeups impossible with no condvar
//! anywhere on the message path. The unit tests check the latch on every
//! interleaving of a commit with two wakes and an expiry.
//!
//! ## Deadlock watchdog
//!
//! A parked processor has nothing to time out on, so the run's tick
//! thread ([`crate::clock::spawn_ticker`]) scans the park stamps once per
//! tick ([`Parkers::expire_parked`]). Stamp and comparison both use the
//! run's coarse clock, so parking reads no host clock; the tick's slack
//! term keeps the coarse stamp from ever firing a timeout early, and
//! bounds it to two tick periods late. On expiry the scan latches a
//! `timed_out` flag and wakes the processor; the processor itself
//! re-checks its lane (progress wins over timeout) and otherwise raises
//! the deadlock diagnostic from its own context. The same pass hands every
//! younger park to the stall detector ([`crate::stall`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::CoarseClock;
use crate::pool::Pool;

/// Running, or waiting in a run queue.
const IDLE: u8 = 0;
/// Parked on an empty mailbox lane.
const BLOCKED: u8 = 1;
/// A wake arrived while `IDLE`; the next park attempt aborts.
const NOTIFIED: u8 = 2;

/// `blocked_at_ns` sentinel: not currently parked.
const NOT_BLOCKED: u64 = u64::MAX;

/// One processor's park latch, cache-line padded: `wake` from a sender
/// must not false-share with neighbouring processors' parks.
#[repr(align(64))]
struct Slot {
    state: AtomicU8,
    /// Latched by the watchdog when a park outlives the recv timeout.
    timed_out: AtomicBool,
    /// Coarse-clock nanoseconds when the park was committed
    /// (`NOT_BLOCKED` while runnable). Keyed by processor id — not by
    /// thread identity, which means nothing to a migrating coroutine.
    blocked_at_ns: AtomicU64,
}

/// The park latches of one run's processors.
pub(crate) struct Parkers {
    slots: Vec<Slot>,
    /// Where a woken processor goes: back on this pool's run queues.
    pub pool: Arc<Pool>,
    /// How long a park may last before the watchdog expires it.
    pub recv_timeout: Duration,
    /// The run's coarse clock: park stamps come from it.
    pub clock: Arc<CoarseClock>,
}

impl Parkers {
    pub fn new(
        nprocs: usize,
        pool: Arc<Pool>,
        recv_timeout: Duration,
        clock: Arc<CoarseClock>,
    ) -> Arc<Parkers> {
        let slots = (0..nprocs)
            .map(|_| Slot {
                state: AtomicU8::new(IDLE),
                timed_out: AtomicBool::new(false),
                blocked_at_ns: AtomicU64::new(NOT_BLOCKED),
            })
            .collect();
        Arc::new(Parkers { slots, pool, recv_timeout, clock })
    }

    /// Make `proc` runnable (called by senders on deposit, by `poison`,
    /// and by the watchdog). Lost-wakeup-free: a park that races this is
    /// either already committed (`BLOCKED` → we resume it) or not yet
    /// (`IDLE` → we latch `NOTIFIED` and the park commit aborts).
    pub fn wake(&self, proc: usize) {
        let slot = &self.slots[proc];
        loop {
            step();
            match slot.state.compare_exchange(BLOCKED, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    step();
                    slot.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    self.pool.enqueue(proc);
                    return;
                }
                Err(NOTIFIED) => return, // wake already latched
                Err(_) => {
                    // IDLE: running or queued — latch the wake and let the
                    // park commit abort. CAS failure means the processor
                    // just parked; retry the outer loop.
                    step();
                    if slot
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

    /// Commit `proc`'s park: stamp it and publish `BLOCKED`. False when a
    /// wake raced the park (`NOTIFIED`): the latch is consumed and the
    /// processor must stay runnable.
    pub fn commit_park(&self, proc: usize) -> bool {
        let slot = &self.slots[proc];
        step();
        slot.blocked_at_ns.store(self.clock.now_ns(), Ordering::Relaxed);
        step();
        let parked =
            slot.state.compare_exchange(IDLE, BLOCKED, Ordering::AcqRel, Ordering::Acquire).is_ok();
        if !parked {
            step();
            slot.state.store(IDLE, Ordering::Release);
            step();
            slot.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
        }
        parked
    }

    /// Consume the watchdog's timeout latch for `proc`. Nearly every
    /// resume finds it clear, so look before paying for the locked swap.
    pub fn take_timed_out(&self, proc: usize) -> bool {
        let latch = &self.slots[proc].timed_out;
        latch.load(Ordering::Acquire) && latch.swap(false, Ordering::AcqRel)
    }

    /// Drop a stale timeout latch (a message arrived after all).
    pub fn clear_timeout(&self, proc: usize) {
        self.slots[proc].timed_out.store(false, Ordering::Relaxed);
    }

    /// Watchdog scan, once per tick of the run's tick thread: latch
    /// `timed_out` on every processor parked for the recv timeout and
    /// wake it, so *it* raises the deadlock panic from its own context
    /// (where the diagnostic belongs). Park stamps are coarse — up to
    /// `slack` behind the host time they were taken at — so a park only
    /// expires once `slack` more than the timeout has passed since its
    /// stamp (see [`crate::clock::spawn_ticker`]). Every park the scan
    /// leaves in place is handed to `parked` with its stamp's age: the
    /// stall detector's view of the same pass ([`crate::stall`]).
    pub fn expire_parked(&self, now: u64, slack: u64, mut parked: impl FnMut(usize, u64)) {
        let lim = u64::try_from(self.recv_timeout.as_nanos()).unwrap_or(u64::MAX).saturating_add(slack);
        for (proc, slot) in self.slots.iter().enumerate() {
            step();
            let b = slot.blocked_at_ns.load(Ordering::Relaxed);
            if b == NOT_BLOCKED {
                continue;
            }
            let age = now.saturating_sub(b);
            if age >= lim {
                step();
                slot.timed_out.store(true, Ordering::Release);
                self.wake(proc);
            } else {
                parked(proc, age);
            }
        }
    }
}

/// A point between two atomic steps of the latch. Nothing outside the unit
/// tests, which run each operation on a coroutine of its own and interleave
/// them here one step at a time.
#[inline(always)]
fn step() {
    #[cfg(test)]
    tests::step();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::{Coro, YieldKind, Yielder};
    use std::cell::Cell;

    const TIMEOUT: Duration = Duration::from_millis(200);

    /// One processor's latch on a one-worker pool and a clock nobody ticks.
    fn one() -> Arc<Parkers> {
        Parkers::new(1, Pool::new(1, 1), TIMEOUT, Arc::new(CoarseClock::new()))
    }

    /// How many times a wake put the processor on the run queues (this
    /// takes it off them again).
    fn enqueued(p: &Parkers) -> usize {
        std::iter::from_fn(|| p.pool.find_work(0)).count()
    }

    fn state(p: &Parkers) -> u8 {
        p.slots[0].state.load(Ordering::Acquire)
    }

    #[test]
    fn wake_before_park_aborts_the_park_and_a_second_wake_is_absorbed() {
        let p = one();
        p.wake(0);
        p.wake(0); // already NOTIFIED: absorbed, not a second latch
        assert!(!p.commit_park(0), "the latched wake aborts the park");
        assert!(p.commit_park(0), "one latch aborts one park");
        assert_eq!(enqueued(&p), 0, "a park that aborted stays with its worker");
    }

    #[test]
    fn wake_after_park_enqueues_exactly_once() {
        let p = one();
        assert!(p.commit_park(0));
        p.wake(0);
        assert_eq!((state(&p), enqueued(&p)), (IDLE, 1), "one wake, one enqueue");
        p.wake(0); // the processor is queued, not parked: the wake latches
        assert_eq!((state(&p), enqueued(&p)), (NOTIFIED, 0));
        assert!(!p.commit_park(0) && p.commit_park(0), "the latch aborts the next park only");
    }

    #[test]
    fn expire_parked_never_fires_before_the_timeout_on_a_coarse_stamp() {
        let p = one();
        let lim = TIMEOUT.as_nanos() as u64;
        let slack = 25_000_000;
        assert!(p.commit_park(0)); // stamped 0: taken anywhere in [0, slack]
        let mut seen = Vec::new();
        p.expire_parked(lim + slack - 1, slack, |proc, age| seen.push((proc, age)));
        assert!(!p.take_timed_out(0), "the park may be younger than the timeout");
        assert_eq!(seen, [(0, lim + slack - 1)], "a park left in place is reported with its age");
        p.expire_parked(lim + slack, slack, |_, _| panic!("an expired park is not left in place"));
        assert!(p.take_timed_out(0) && !p.take_timed_out(0), "latched once");
        assert_eq!(enqueued(&p), 1, "the expiry woke the processor");
        assert!(p.commit_park(0), "it was IDLE again");
        p.clear_timeout(0);
        p.wake(0);
        p.expire_parked(u64::MAX - 1, slack, |_, _| panic!("a runnable processor is not parked"));
        assert!(!p.take_timed_out(0), "a runnable processor has no park to expire");
    }

    thread_local! {
        /// The coroutine a schedule is stepping on this thread, if any.
        static STEPPING: Cell<Option<Yielder>> = const { Cell::new(None) };
    }

    /// [`super::step`] under a schedule: hand control back to it.
    pub(super) fn step() {
        if let Some(y) = STEPPING.get() {
            y.suspend(YieldKind::Yielded);
            STEPPING.set(Some(y));
        }
    }

    /// One schedule of a park commit (operation 0), `wakes` wakes and, if
    /// `expiry`, a watchdog pass that finds every stamp expired, run from
    /// fresh state on coroutines of this thread. Each operation first runs
    /// up to its first step; then decision `d` resumes the `prefix[d]`-th
    /// unfinished operation (the first one past the prefix) for one atomic
    /// step. Returns every decision as (choice, operations unfinished),
    /// and checks the latch's four promises on the outcome.
    fn interleave(wakes: usize, expiry: bool, prefix: &[usize]) -> Vec<(usize, usize)> {
        let p = one();
        let parked = AtomicBool::new(false);
        let mut ops: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| parked.store(p.commit_park(0), Ordering::Relaxed))];
        ops.extend((0..wakes).map(|_| Box::new(|| p.wake(0)) as Box<dyn FnOnce() + Send>));
        if expiry {
            ops.push(Box::new(|| p.expire_parked(u64::MAX, 0, |_, _| ())));
        }
        let mut coros: Vec<Option<Coro>> = ops
            .into_iter()
            .map(|op| {
                let entry = Box::new(move |y: &Yielder| {
                    STEPPING.set(Some(*y));
                    op();
                });
                // SAFETY: every coroutine finishes below, before `p` and
                // `parked` go out of scope.
                Some(unsafe { Coro::new_scoped(64 * 1024, entry) })
            })
            .collect();
        let resume = |coros: &mut Vec<Option<Coro>>, i: usize| {
            if coros[i].as_mut().expect("an unfinished operation").resume() == YieldKind::Done {
                coros[i] = None;
            }
            STEPPING.set(None);
        };
        (0..coros.len()).for_each(|i| resume(&mut coros, i));
        let mut trail = Vec::new();
        loop {
            let live: Vec<usize> = (0..coros.len()).filter(|&i| coros[i].is_some()).collect();
            if live.is_empty() {
                break;
            }
            let pick = prefix.get(trail.len()).copied().unwrap_or(0);
            trail.push((pick, live.len()));
            resume(&mut coros, live[pick]);
        }
        let parked = parked.into_inner();
        let fired = p.take_timed_out(0);
        let woke = wakes + fired as usize;
        let (end, enq) = (state(&p), enqueued(&p));
        let stamped = p.slots[0].blocked_at_ns.load(Ordering::Relaxed) != NOT_BLOCKED;
        let at = format!("{wakes} wakes, expiry {expiry}, schedule {trail:?}");
        assert!(woke == 0 || end != BLOCKED, "a wake was lost: {at}");
        assert!(!fired || end != BLOCKED, "the expiry left the processor BLOCKED: {at}");
        assert!(parked || woke > 0, "a park aborted with no wake: {at}");
        assert_eq!(enq, (parked && woke > 0) as usize, "a BLOCKED processor is enqueued once, a runnable one never: {at}");
        assert_eq!(stamped, end == BLOCKED, "the watchdog's stamp is there exactly while BLOCKED: {at}");
        if end != BLOCKED {
            // Each wake had one effect — a resume, an aborted park or a latch
            // left for the next park — or coalesced into another's latch.
            let left = end == NOTIFIED;
            let effects = enq + !parked as usize + left as usize;
            assert!((1..=woke).contains(&effects), "{effects} effects of {woke} wakes: {at}");
            assert_eq!(p.commit_park(0), !left, "a latch left over aborts the next park: {at}");
            assert!(left <= p.commit_park(0), "and only that one: {at}");
        }
        trail
    }

    /// The four promises on every interleaving, at the granularity of the
    /// latch's atomic operations, of one park commit with up to two wakes
    /// and one watchdog expiry (a depth-first walk of the schedule tree).
    #[test]
    fn every_interleaving_of_a_park_with_two_wakes_and_an_expiry_keeps_the_latch() {
        let mut schedules = 0;
        for (wakes, expiry) in [(0, true), (1, false), (1, true), (2, false), (2, true)] {
            let mut prefix = Vec::new();
            loop {
                let trail = interleave(wakes, expiry, &prefix);
                schedules += 1;
                let Some(d) = trail.iter().rposition(|&(pick, live)| pick + 1 < live) else { break };
                prefix = trail[..d].iter().map(|&(pick, _)| pick).collect();
                prefix.push(trail[d].0 + 1);
            }
        }
        eprintln!("{schedules} schedules");
        assert!(schedules > 1000, "the walk covered {schedules} schedules");
    }
}
