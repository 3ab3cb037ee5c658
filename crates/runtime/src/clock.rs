//! Host clocks of a run, and who is allowed to read them.
//!
//! The host clock (`clock_gettime` through the vDSO, ~20 ns a read) is
//! not free next to a ~200 ns message, so the message path reads it in
//! one of two ways and never directly:
//!
//! * **The coarse clock** ([`CoarseClock`]): one `AtomicU64` of
//!   nanoseconds since the run began, advanced by the run's tick thread
//!   ([`spawn_ticker`]) once per watchdog period and read with a relaxed
//!   load. It serves the uses that only ever needed watchdog resolution:
//!   the deposit stamp behind the deadlock dump's oldest-message ages,
//!   the park stamp of a blocked processor and the tick's comparisons
//!   against it — the watchdog's expiry ([`crate::parker`]) and the stall
//!   report ([`crate::stall`]) — and the board poll-waits' deadlines. A
//!   stamp is never ahead of the host clock and at most one tick interval
//!   behind; cold readers (a dump, a snapshot, the tick itself)
//!   [`CoarseClock::refresh`] first, so an age errs only towards older, by
//!   less than one period —
//!   `recv_timeout / 8`, clamped to 5–250 ms: a quarter second on the
//!   default 60 s timeout, which is what a diagnostic of "these were
//!   queued long ago and nobody is receiving them" needs.
//! * **The lap** (one `u64` per [`crate::ProcCtx`]): host *durations*
//!   (`send_ns`, `recv_wait_ns`, `pack_ns`, the wait histogram, flight
//!   stamps) have one reader, the telemetry registry, so only an attached
//!   one makes a processor read the clock: once per cut ([`crate::counters`]).
//!
//! Every read of the host clock in this crate goes through [`host_now`],
//! which debug builds count ([`debug_counters`]) so a test can pin "an
//! unobserved run reads the clock O(1) times".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

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

/// Nanoseconds since the run began, at watchdog resolution.
pub(crate) struct CoarseClock {
    epoch: Instant,
    now_ns: AtomicU64,
}

impl CoarseClock {
    pub fn new() -> Self {
        CoarseClock { epoch: host_now(), now_ns: AtomicU64::new(0) }
    }

    /// The last published time: one relaxed load, never ahead of the host
    /// clock, behind it by at most one tick interval.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Read the host clock, publish it and return it (the tick, and cold
    /// paths that want an exact "now" to subtract a stamp from).
    pub fn refresh(&self) -> u64 {
        let now = ns_since(self.epoch);
        self.now_ns.fetch_max(now, Ordering::Relaxed);
        now
    }
}

/// How often the coarse clock advances (and the watchdog scans) under
/// `recv_timeout`.
pub(crate) fn tick_period(recv_timeout: Duration) -> Duration {
    (recv_timeout / 8).clamp(Duration::from_millis(5), Duration::from_millis(250))
}

/// Stops and joins a [`spawn_ticker`] thread on drop.
pub(crate) struct TickGuard {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for TickGuard {
    fn drop(&mut self) {
        *self.stop.0.lock() = true;
        self.stop.1.notify_all();
        if let Some(h) = self.handle.take() {
            // If a tick body did panic, the run's own outcome is the one
            // to report, and `drop` must not panic over it.
            let _ = h.join();
        }
    }
}

/// Start a periodic service thread called `name` (a run's one, its
/// watchdog tick, is started in [`crate::run`]): every `period` it
/// advances `clock` and calls `on_tick(now, slack)`, until the guard
/// drops — which interrupts the wait, so stopping never sleeps out a
/// period.
///
/// `slack` is the longest interval between two ticks so far. A stamp `s`
/// taken from the coarse clock was published by some tick and replaced by
/// the next, so the host time it was taken at lies in `[s, s + slack]`:
/// `now - s >= limit + slack` proves that at least `limit` has really
/// passed. With punctual ticks that fires between `limit` and
/// `limit + 2 * period` after the stamp was taken — never early.
pub(crate) fn spawn_ticker(
    name: &str,
    clock: Arc<CoarseClock>,
    period: Duration,
    mut on_tick: impl FnMut(u64, u64) + Send + 'static,
) -> TickGuard {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let (lock, cvar) = &*stop2;
            // Stamps taken before the first tick read 0, the epoch.
            let (mut prev, mut slack) = (0u64, 0u64);
            let mut stopped = lock.lock();
            while !*stopped {
                cvar.wait_for(&mut stopped, period);
                if *stopped {
                    return;
                }
                let now = clock.refresh();
                slack = slack.max(now - prev);
                prev = now;
                on_tick(now, slack);
            }
        })
        .expect("spawn service thread");
    TickGuard { stop, handle: Some(handle) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_clock_moves_only_when_refreshed() {
        let c = CoarseClock::new();
        assert_eq!(c.now_ns(), 0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(c.now_ns(), 0, "nobody ticked");
        let t = c.refresh();
        assert!(t >= 5_000_000);
        assert_eq!(c.now_ns(), t);
    }

    #[test]
    fn ticker_advances_the_clock_and_reports_slack_no_less_than_a_gap() {
        let clock = Arc::new(CoarseClock::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let guard = spawn_ticker("fx-tick", Arc::clone(&clock), Duration::from_millis(5), move |now, slack| {
            seen2.lock().push((now, slack));
        });
        while seen.lock().len() < 3 {
            std::thread::yield_now();
        }
        drop(guard);
        let ticks = seen.lock().clone();
        assert!(clock.now_ns() >= ticks.last().expect("three ticks").0);
        let mut prev = 0;
        for &(now, slack) in &ticks {
            assert!(slack >= now - prev, "slack {slack} under the gap {prev}..{now}");
            prev = now;
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(seen.lock().len(), ticks.len(), "a dropped guard has joined the thread");
    }
}
