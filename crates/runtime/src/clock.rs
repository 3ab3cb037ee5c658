//! The host clock, and who is allowed to read it.
//!
//! The host clock (`clock_gettime` through the vDSO, ~20 ns a read) is
//! not free next to a ~200 ns message, and nothing about a message needs
//! it: virtual time is the machine's only clock, and a deadlock is a
//! state of the run ([`crate::pool`], "Deadlock"), not an age. Two things
//! read it:
//!
//! * **The lap** (one `u64` per [`crate::ProcCtx`]): host *durations*
//!   (`send_ns`, `recv_wait_ns`, `pack_ns`, the wait histogram, flight
//!   stamps) have one reader, the telemetry registry, so only an attached
//!   one makes a processor read the clock: once per cut ([`crate::counters`]).
//! * **A spin's deadline** ([`SpinDeadline`]): a promotable loop's board
//!   poll keeps its processor runnable, so no run state can tell a wedged
//!   poll from a slow peer. It alone is bounded by host time, the
//!   machine's [`crate::Machine::spin_timeout`], and reads the clock a
//!   logarithmic number of times in the length of the wait.
//!
//! Every read of the host clock in this crate goes through [`host_now`],
//! which debug builds count ([`debug_counters`]) so a test can pin "an
//! unobserved run reads the clock O(1) times".

use std::time::{Duration, Instant};

/// Debug-build event counters behind the "nothing per message" tests.
/// Process-wide and only ever incremented; always 0 in release builds.
#[doc(hidden)]
pub mod debug_counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Host clock reads through this crate.
    pub static CLOCK_READS: AtomicU64 = AtomicU64::new(0);
    /// Pool enqueues that found a worker asleep and notified it.
    pub static WORKER_NOTIFIES: AtomicU64 = AtomicU64::new(0);
    /// Worker parks that ran to their backstop timeout and then found
    /// runnable work: an enqueue that notified nobody.
    pub static BACKSTOP_FOUND_WORK: AtomicU64 = AtomicU64::new(0);
    /// Coroutine stacks mapped (rather than taken from the free list).
    pub static STACK_MAPS: AtomicU64 = AtomicU64::new(0);
    /// The most messages any mailbox lane has held (a high-water mark).
    pub static MAX_LANE_DEPTH: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        if cfg!(debug_assertions) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Read the host clock.
#[inline]
pub(crate) fn host_now() -> Instant {
    debug_counters::bump(&debug_counters::CLOCK_READS);
    Instant::now()
}

/// Host nanoseconds from `t0` to now.
#[inline]
pub(crate) fn ns_since(t0: Instant) -> u64 {
    host_now().duration_since(t0).as_nanos() as u64
}

/// The polls a spin makes before its deadline first reads the clock.
const FIRST_READ: u64 = 1024;

/// The host-time bound of one spin-wait (see the module docs), armed when
/// the wait starts. It reads the clock at the 1 024th poll, which starts
/// its limit, and then once at each doubling of the poll count: a
/// wait of n polls reads it about log2(n / 1 024) times. Since the limit
/// starts no earlier than the wait, the deadline never expires early; and
/// a wait whose polls come at a steady rate expires within about twice
/// the limit.
#[derive(Debug, Clone)]
pub struct SpinDeadline {
    limit: Duration,
    polls: u64,
    since: Option<Instant>,
}

impl SpinDeadline {
    pub(crate) fn new(limit: Duration) -> Self {
        SpinDeadline { limit, polls: 0, since: None }
    }

    /// Count one poll of the wait: true once the wait has outlived its
    /// limit.
    pub fn expired(&mut self) -> bool {
        self.polls += 1;
        if self.polls < FIRST_READ || !self.polls.is_power_of_two() {
            return false;
        }
        let now = host_now();
        now.duration_since(*self.since.get_or_insert(now)) >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls up to the first read count nothing, the first read starts the
    /// limit, and the next read waits for the next doubling however much
    /// time has passed.
    #[test]
    fn a_spin_deadline_reads_the_clock_at_the_1024th_poll_and_then_at_each_doubling() {
        let mut d = SpinDeadline::new(Duration::from_millis(2));
        assert!((1..FIRST_READ).all(|_| !d.expired()), "no read before poll 1 024");
        std::thread::sleep(Duration::from_millis(5));
        assert!(!d.expired(), "poll 1 024 starts the limit");
        std::thread::sleep(Duration::from_millis(5));
        assert!((FIRST_READ + 1..2 * FIRST_READ).all(|_| !d.expired()), "no read before poll 2 048");
        assert!(d.expired(), "poll 2 048 reads the clock and finds the limit passed");
        let mut zero = SpinDeadline::new(Duration::ZERO);
        assert_eq!((1..=2 * FIRST_READ).filter(|_| zero.expired()).count(), 2, "a zero limit expires at each read");
    }
}
