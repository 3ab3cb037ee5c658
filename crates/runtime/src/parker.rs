//! The one wait/wake protocol: a park latch per processor, and the one
//! watchdog that expires it.
//!
//! A receiver that finds its lane empty registers there and *parks*; the
//! deposit that consumes the registration *wakes* it ([`crate::mailbox`]
//! has that half; poison and the watchdog borrow the same wake). The
//! executor contributes only what the two words mean. **Pooled**: the
//! coroutine suspends into its worker, the worker commits the park
//! ([`Parkers::commit_park`]), and a wake puts the processor back on a
//! run queue ([`Pool::enqueue`]). **Threaded**: the processor commits its
//! own park and sleeps in `std::thread::park` ([`Parkers::park_thread`]);
//! a wake `unpark`s the thread it bound at its first park.
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
//! Under the pooled executor the commit happens on the *worker*, after
//! the coroutine has fully suspended — so by the time any other worker
//! can observe `BLOCKED` and steal the processor, the coroutine is
//! complete. That ordering plus the latched `NOTIFIED` state makes lost
//! wakeups impossible with no condvar anywhere on the message path.
//!
//! ## Deadlock watchdog
//!
//! A parked processor has nothing to time out on, so the run's tick
//! thread ([`crate::clock::spawn_ticker`]) scans the park stamps once per
//! tick ([`Parkers::expire_parked`]), under either executor. Stamp and
//! comparison both use the run's coarse clock, so parking reads no host
//! clock; the tick's slack term keeps the coarse stamp from ever firing a
//! timeout early, and bounds it to two tick periods late. On expiry the
//! scan latches a `timed_out` flag and wakes the processor; the processor
//! itself re-checks its lane (progress wins over timeout) and otherwise
//! raises the deadlock diagnostic from its own context. The same pass
//! hands every younger park to the stall detector ([`crate::stall`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
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
    /// thread identity, which means nothing under the pooled executor.
    blocked_at_ns: AtomicU64,
    /// Threaded executor: the processor's dedicated thread, bound at its
    /// first park (before `BLOCKED` is published, so a waker that
    /// observes `BLOCKED` finds it).
    thread: OnceLock<Thread>,
}

/// The park latches of one run's processors.
pub(crate) struct Parkers {
    slots: Vec<Slot>,
    /// Where a woken processor goes: back on this pool's run queues, or
    /// (`None`, the threaded executor) its own thread is unparked.
    pool: Option<Arc<Pool>>,
    /// How long a park may last before the watchdog expires it.
    pub recv_timeout: Duration,
    /// The run's coarse clock: park stamps come from it.
    pub clock: Arc<CoarseClock>,
}

impl Parkers {
    pub fn new(
        nprocs: usize,
        pool: Option<Arc<Pool>>,
        recv_timeout: Duration,
        clock: Arc<CoarseClock>,
    ) -> Arc<Parkers> {
        let slots = (0..nprocs)
            .map(|_| Slot {
                state: AtomicU8::new(IDLE),
                timed_out: AtomicBool::new(false),
                blocked_at_ns: AtomicU64::new(NOT_BLOCKED),
                thread: OnceLock::new(),
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
            match slot.state.compare_exchange(BLOCKED, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    slot.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    match &self.pool {
                        Some(pool) => pool.enqueue(proc),
                        None => slot.thread.get().expect("a parked thread bound itself first").unpark(),
                    }
                    return;
                }
                Err(NOTIFIED) => return, // wake already latched
                Err(_) => {
                    // IDLE: running or queued — latch the wake and let the
                    // park commit abort. CAS failure means the processor
                    // just parked; retry the outer loop.
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
        slot.blocked_at_ns.store(self.clock.now_ns(), Ordering::Relaxed);
        let parked =
            slot.state.compare_exchange(IDLE, BLOCKED, Ordering::AcqRel, Ordering::Acquire).is_ok();
        if !parked {
            slot.state.store(IDLE, Ordering::Release);
            slot.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
        }
        parked
    }

    /// Park the calling thread as processor `proc` until a wake (threaded
    /// executor). Returns at once when a wake is already latched.
    pub fn park_thread(&self, proc: usize) {
        let slot = &self.slots[proc];
        slot.thread.get_or_init(std::thread::current);
        if self.commit_park(proc) {
            // `park` may return spuriously or on a stale token; only the
            // waker's `BLOCKED → IDLE` ends the wait.
            while slot.state.load(Ordering::Acquire) == BLOCKED {
                std::thread::park();
            }
        }
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
            let b = slot.blocked_at_ns.load(Ordering::Relaxed);
            if b == NOT_BLOCKED {
                continue;
            }
            let age = now.saturating_sub(b);
            if age >= lim {
                slot.timed_out.store(true, Ordering::Release);
                self.wake(proc);
            } else {
                parked(proc, age);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const TIMEOUT: Duration = Duration::from_millis(200);

    /// One threaded processor's latch on a clock nobody ticks.
    fn one() -> Arc<Parkers> {
        Parkers::new(1, None, TIMEOUT, Arc::new(CoarseClock::new()))
    }

    #[test]
    fn wake_before_park_aborts_the_park_and_a_second_wake_is_absorbed() {
        let p = one();
        p.wake(0);
        p.wake(0); // already NOTIFIED: absorbed, not a second latch
        assert!(!p.commit_park(0), "the latched wake aborts the park");
        assert!(p.commit_park(0), "one latch aborts one park");
    }

    #[test]
    fn wake_after_park_resumes_exactly_once() {
        let p = one();
        let resumed = Arc::new(AtomicUsize::new(0));
        let (p2, r2) = (Arc::clone(&p), Arc::clone(&resumed));
        let h = std::thread::spawn(move || {
            p2.park_thread(0);
            r2.fetch_add(1, Ordering::SeqCst);
            p2.park_thread(0); // parks again: the first wake left nothing behind
            r2.fetch_add(1, Ordering::SeqCst);
        });
        let parked = |p: &Parkers| p.slots[0].state.load(Ordering::Acquire) == BLOCKED;
        while !parked(&p) {
            std::thread::yield_now();
        }
        p.wake(0);
        while resumed.load(Ordering::SeqCst) == 0 || !parked(&p) {
            std::thread::yield_now();
        }
        assert_eq!(resumed.load(Ordering::SeqCst), 1, "one wake, one resume");
        p.wake(0);
        h.join().expect("parked thread");
        assert_eq!(resumed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn expire_parked_never_fires_before_the_timeout_on_a_coarse_stamp() {
        let p = one();
        let lim = TIMEOUT.as_nanos() as u64;
        let slack = 25_000_000;
        p.slots[0].thread.get_or_init(std::thread::current); // whom the expiry unparks
        assert!(p.commit_park(0)); // stamped 0: taken anywhere in [0, slack]
        let mut seen = Vec::new();
        p.expire_parked(lim + slack - 1, slack, |proc, age| seen.push((proc, age)));
        assert!(!p.take_timed_out(0), "the park may be younger than the timeout");
        assert_eq!(seen, [(0, lim + slack - 1)], "a park left in place is reported with its age");
        p.expire_parked(lim + slack, slack, |_, _| panic!("an expired park is not left in place"));
        assert!(p.take_timed_out(0) && !p.take_timed_out(0), "latched once");
        assert!(p.commit_park(0), "the expiry woke the processor: it was IDLE again");
        p.clear_timeout(0);
        p.wake(0);
        p.expire_parked(u64::MAX - 1, slack, |_, _| panic!("a runnable processor is not parked"));
        assert!(!p.take_timed_out(0), "a runnable processor has no park to expire");
    }
}
