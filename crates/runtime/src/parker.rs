//! The one wait/wake protocol: a park latch per processor, and the
//! deadlock declaration that releases every parked one.
//!
//! A receiver that finds its lane empty registers there and *parks*; the
//! deposit that consumes the registration *wakes* it ([`crate::mailbox`]
//! has that half; poison and the deadlock declaration borrow the same
//! wake). Parking is two-phase: the coroutine suspends into its worker,
//! the worker commits the park ([`Parkers::commit_park`]), and a wake puts
//! the processor back on a run queue ([`Pool::enqueue`]).
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
//! interleaving of a commit with two wakes and a deadlock declaration, and
//! the lane protocol on every interleaving of a registration, a park, a
//! deposit and a poison.
//!
//! ## Deadlock
//!
//! A parked processor has nothing to time out on, and needs nothing: the
//! pool sees the run deadlocked the moment every worker is idle with a
//! processor unfinished (`pool.rs`, "Deadlock"), and hands the diagnosis
//! to [`Parkers::declare_deadlock`]. The declaration latches a
//! `deadlocked` flag on every `BLOCKED` processor and wakes it; the first
//! to run takes the diagnosis and raises it from its own context, and its
//! panic poisons the run, which ends the others' receives. Nothing stamps
//! a park and nothing scans one.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::pool::Pool;

/// Running, or waiting in a run queue.
const IDLE: u8 = 0;
/// Parked on an empty mailbox lane.
const BLOCKED: u8 = 1;
/// A wake arrived while `IDLE`; the next park attempt aborts.
const NOTIFIED: u8 = 2;

/// One processor's park latch, cache-line padded: `wake` from a sender
/// must not false-share with neighbouring processors' parks.
#[repr(align(64))]
struct Slot {
    state: AtomicU8,
    /// Latched by a deadlock declaration that found the processor parked.
    deadlocked: AtomicBool,
}

/// The park latches of one run's processors.
pub(crate) struct Parkers {
    slots: Vec<Slot>,
    /// Where a woken processor goes: back on this pool's run queues.
    pub pool: Arc<Pool>,
    /// The diagnosis of the deadlock declared last, until a processor it
    /// released takes it to raise.
    diagnosis: Mutex<Option<String>>,
}

impl Parkers {
    pub fn new(nprocs: usize, pool: Arc<Pool>) -> Arc<Parkers> {
        let slots =
            (0..nprocs).map(|_| Slot { state: AtomicU8::new(IDLE), deadlocked: AtomicBool::new(false) }).collect();
        Arc::new(Parkers { slots, pool, diagnosis: Mutex::new(None) })
    }

    /// Make `proc` runnable (called by senders on deposit, by `poison`,
    /// and by a deadlock declaration). Lost-wakeup-free: a park that races
    /// this is either already committed (`BLOCKED` → we resume it) or not
    /// yet (`IDLE` → we latch `NOTIFIED` and the park commit aborts).
    pub fn wake(&self, proc: usize) {
        let slot = &self.slots[proc];
        loop {
            step();
            match slot.state.compare_exchange(BLOCKED, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
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

    /// Commit `proc`'s park: publish `BLOCKED`. False when a wake raced the
    /// park (`NOTIFIED`): the latch is consumed and the processor must stay
    /// runnable.
    pub fn commit_park(&self, proc: usize) -> bool {
        let slot = &self.slots[proc];
        step();
        let parked =
            slot.state.compare_exchange(IDLE, BLOCKED, Ordering::AcqRel, Ordering::Acquire).is_ok();
        if !parked {
            step();
            slot.state.store(IDLE, Ordering::Release);
        }
        parked
    }

    /// Consume the deadlock latch for `proc`. Nearly every resume finds it
    /// clear, so look before paying for the locked swap.
    pub fn take_deadlocked(&self, proc: usize) -> bool {
        let latch = &self.slots[proc].deadlocked;
        latch.load(Ordering::Acquire) && latch.swap(false, Ordering::AcqRel)
    }

    /// The run is deadlocked (the pool saw every worker idle with a
    /// processor unfinished, so nothing runs and nothing can deposit):
    /// keep `diagnosis`, then latch `deadlocked` on every `BLOCKED`
    /// processor and wake it, so that the first to run raises the
    /// diagnosis from its own context.
    pub fn declare_deadlock(&self, diagnosis: String) {
        *self.diagnosis.lock() = Some(diagnosis);
        for (proc, slot) in self.slots.iter().enumerate() {
            step();
            if slot.state.load(Ordering::Acquire) == BLOCKED {
                step();
                slot.deadlocked.store(true, Ordering::Release);
                self.wake(proc);
            }
        }
    }

    /// The diagnosis of the deadlock declared last, to the first
    /// processor that asks.
    pub fn take_diagnosis(&self) -> Option<String> {
        self.diagnosis.lock().take()
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

    /// One processor's latch on a one-worker pool.
    fn one() -> Arc<Parkers> {
        Parkers::new(1, Pool::new(1, 1))
    }

    /// How many times a wake put the processor on the run queues (this
    /// takes it off them again).
    fn queued(p: &Parkers) -> usize {
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
        assert_eq!(queued(&p), 0, "a park that aborted stays with its worker");
    }

    #[test]
    fn wake_after_park_enqueues_exactly_once() {
        let p = one();
        assert!(p.commit_park(0));
        p.wake(0);
        assert_eq!((state(&p), queued(&p)), (IDLE, 1), "one wake, one enqueue");
        p.wake(0); // the processor is queued, not parked: the wake latches
        assert_eq!((state(&p), queued(&p)), (NOTIFIED, 0));
        assert!(!p.commit_park(0) && p.commit_park(0), "the latch aborts the next park only");
    }

    #[test]
    fn a_declaration_latches_and_wakes_only_a_parked_processor() {
        let p = one();
        p.declare_deadlock("first".into());
        assert!(!p.take_deadlocked(0), "a runnable processor is not latched");
        assert_eq!((state(&p), queued(&p)), (IDLE, 0), "nor woken");
        assert!(p.commit_park(0));
        p.declare_deadlock("second".into());
        assert!(p.take_deadlocked(0) && !p.take_deadlocked(0), "latched once");
        assert_eq!((state(&p), queued(&p)), (IDLE, 1), "the declaration woke the processor");
        assert_eq!(p.take_diagnosis().as_deref(), Some("second"), "the processor raises the last diagnosis");
        assert_eq!(p.take_diagnosis(), None, "and only one processor raises it");
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

    /// An operation of a schedule: it runs on a coroutine of its own.
    type Op<'a> = Box<dyn FnOnce() + Send + 'a>;

    /// Run `ops` under one schedule, on coroutines of this thread. Each
    /// operation first runs up to its first step; then decision `d`
    /// resumes the `prefix[d]`-th unfinished operation (the first one past
    /// the prefix) for one atomic step. Returns every decision as (choice,
    /// operations unfinished).
    fn schedule(ops: Vec<Op<'_>>, prefix: &[usize]) -> Vec<(usize, usize)> {
        let mut coros: Vec<Option<Coro>> = ops
            .into_iter()
            .map(|op| {
                let entry = Box::new(move |y: &Yielder| {
                    STEPPING.set(Some(*y));
                    op();
                });
                // SAFETY: every coroutine finishes below, before what the
                // operations borrow goes out of scope.
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
                return trail;
            }
            let pick = prefix.get(trail.len()).copied().unwrap_or(0);
            trail.push((pick, live.len()));
            resume(&mut coros, live[pick]);
        }
    }

    /// Every schedule of the operations `one` runs (a depth-first walk of
    /// the schedule tree; `one` runs one schedule from fresh state, checks
    /// its outcome and returns its trail). Returns how many there were.
    fn every_schedule(mut one: impl FnMut(&[usize]) -> Vec<(usize, usize)>) -> usize {
        let mut schedules = 0;
        let mut prefix = Vec::new();
        loop {
            let trail = one(&prefix);
            schedules += 1;
            let Some(d) = trail.iter().rposition(|&(pick, live)| pick + 1 < live) else { return schedules };
            prefix = trail[..d].iter().map(|&(pick, _)| pick).collect();
            prefix.push(trail[d].0 + 1);
        }
    }

    /// One schedule of a park commit (operation 0), `wakes` wakes and, if
    /// `declared`, a deadlock declaration, from fresh state; checks the
    /// latch's promises on the outcome.
    fn latch_schedule(wakes: usize, declared: bool, prefix: &[usize]) -> Vec<(usize, usize)> {
        let p = one();
        let parked = AtomicBool::new(false);
        let mut ops: Vec<Op<'_>> = vec![Box::new(|| parked.store(p.commit_park(0), Ordering::Relaxed))];
        ops.extend((0..wakes).map(|_| Box::new(|| p.wake(0)) as Op<'_>));
        if declared {
            ops.push(Box::new(|| p.declare_deadlock(String::new())));
        }
        let trail = schedule(ops, prefix);
        let parked = parked.into_inner();
        let fired = p.take_deadlocked(0);
        let woke = wakes + fired as usize;
        let (end, enq) = (state(&p), queued(&p));
        let at = format!("{wakes} wakes, declaration {declared}, schedule {trail:?}");
        assert!(woke == 0 || end != BLOCKED, "a wake was lost: {at}");
        assert!(!fired || end != BLOCKED, "the declaration left the processor BLOCKED: {at}");
        assert!(parked || woke > 0, "a park aborted with no wake: {at}");
        assert_eq!(enq, (parked && woke > 0) as usize, "a BLOCKED processor is enqueued once, a runnable one never: {at}");
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

    /// The latch's promises on every interleaving, at the granularity of
    /// its atomic operations, of one park commit with up to two wakes and
    /// one deadlock declaration.
    #[test]
    fn every_interleaving_of_a_park_with_two_wakes_and_a_declaration_keeps_the_latch() {
        let mut schedules = 0;
        for (wakes, declared) in [(0, true), (1, false), (1, true), (2, false), (2, true)] {
            schedules += every_schedule(|prefix| latch_schedule(wakes, declared, prefix));
        }
        eprintln!("{schedules} schedules");
        assert!(schedules > 1000, "the walk covered {schedules} schedules");
    }

    /// What one lane of the mailbox holds, for the lane model: whether the
    /// sender's message is queued and whether the receiver is registered.
    #[derive(Default)]
    struct Lane {
        message: bool,
        registered: bool,
    }

    /// One schedule of the locked lane's protocol (`Mailbox::take`,
    /// `deposit` and `poison`) from fresh state, or with a `stale` latch
    /// an earlier wake left. The receiver checks the poison flag and the
    /// lane and registers under the lane lock, then commits its park, and
    /// goes round again when the commit aborts; a sender, if `deposit`,
    /// deposits under the lock and wakes the receiver if it consumed the
    /// registration; a poisoner, if `poison`, sets the flag, bumps the
    /// lane lock and wakes the receiver. A critical section is one step:
    /// under the lock nothing else touches the lane. Checks that the
    /// receiver is never left parked, and is queued once if it parked.
    fn lane_schedule(stale: bool, deposit: bool, poison: bool, prefix: &[usize]) -> Vec<(usize, usize)> {
        let (p, lane, poisoned) = (one(), Mutex::new(Lane::default()), AtomicBool::new(false));
        if stale {
            p.wake(0);
        }
        let parked = AtomicBool::new(false);
        let mut ops: Vec<Op<'_>> = vec![Box::new(|| loop {
            step();
            let mut l = lane.lock();
            if poisoned.load(Ordering::Acquire) || l.message {
                return;
            }
            l.registered = true;
            drop(l);
            if p.commit_park(0) {
                parked.store(true, Ordering::Relaxed);
                return;
            }
        })];
        if deposit {
            ops.push(Box::new(|| {
                step();
                let mut l = lane.lock();
                l.message = true;
                let wake = std::mem::take(&mut l.registered);
                drop(l);
                if wake {
                    p.wake(0);
                }
            }));
        }
        if poison {
            ops.push(Box::new(|| {
                step();
                poisoned.store(true, Ordering::Release);
                step();
                drop(lane.lock());
                p.wake(0);
            }));
        }
        let trail = schedule(ops, prefix);
        let at = format!("stale {stale}, deposit {deposit}, poison {poison}, schedule {trail:?}");
        let (end, enq) = (state(&p), queued(&p));
        assert_ne!(end, BLOCKED, "the receiver was left parked: {at}");
        assert_eq!(enq, parked.into_inner() as usize, "a parked receiver is queued once, a runnable one never: {at}");
        trail
    }

    /// The lane protocol on every interleaving of a registration under
    /// the lane lock and its park with a deposit, a poison or both, with
    /// and without a stale latch: the receiver is never left parked.
    #[test]
    fn every_interleaving_of_a_registration_a_deposit_and_a_poison_wakes_the_receiver() {
        let mut schedules = 0;
        for stale in [false, true] {
            for (deposit, poison) in [(true, false), (false, true), (true, true)] {
                schedules += every_schedule(|prefix| lane_schedule(stale, deposit, poison, prefix));
            }
        }
        eprintln!("{schedules} schedules");
        assert!(schedules > 100, "the walk covered {schedules} schedules");
    }
}
