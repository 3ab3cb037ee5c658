//! The stall detector: the run's watchdog tick, read early.
//!
//! The deadlock watchdog ([`crate::parker`]) only fires after the full
//! receive timeout (default 60 s) and kills the run; the stall detector
//! is its early-warning view of the same pass. When the attached registry
//! asks for it ([`crate::TelemetryConfig::stall`]), the tick's one scan of
//! the park stamps also collects every processor parked for
//! [`STALL_TICKS`] watchdog periods — 1 s at the default timeout — under
//! the watchdog's rule: never early, at most two periods late. Each is
//! reported with the `(src, tag)` it waits on, read from the registration
//! its mailbox lane holds, whether that source is itself stalled (a
//! cycle — the classic mismatched-exchange deadlock), and the queue-depth
//! snapshot of its mailbox showing what *did* arrive. An unchanged set of
//! stalls is reported once.
//!
//! Reports land in the [`crate::Telemetry`] handle, so they are readable
//! while the run executes ([`crate::Telemetry::stall_reports`]) and
//! survive a run that dies to the watchdog panic.
//!
//! All diagnostics here are keyed by **processor id**, never by thread
//! identity: park stamps, wait registrations and queue snapshots live in
//! per-processor slots and mailboxes indexed by rank. That is what keeps
//! who-blocks-on-whom dumps correct when many processors share (and migrate between) a few worker threads and
//! a thread id means nothing.

use std::sync::Arc;
use std::time::Duration;

use crate::ctx::World;
use crate::telemetry::Telemetry;

/// A park this many watchdog periods old is a stall.
const STALL_TICKS: u32 = 4;

/// One processor flagged by the stall detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledProc {
    /// Physical rank of the stalled processor.
    pub proc: usize,
    /// Source rank it is blocked receiving from.
    pub src: usize,
    /// Tag of the blocking receive.
    pub tag: u64,
    /// How long the processor has been parked (its coarse park stamp's
    /// age: at most one watchdog period more than the true wait).
    pub stalled_for: Duration,
}

/// A stall-detector diagnosis: which processors are blocked, on whom, and
/// what is actually queued in their mailboxes.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Wall-clock time since run start when the report was emitted.
    pub at: Duration,
    /// The stalled processors, ascending by rank.
    pub stalled: Vec<StalledProc>,
    /// Human-readable diagnosis (who is blocked on whom by `(src, tag)`,
    /// cycles called out, per-mailbox queue depths with oldest-message
    /// ages).
    pub diagnosis: String,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.1?}] {}", self.at, self.diagnosis)
    }
}

/// The stall detector of one run, owned by its tick.
pub(crate) struct StallWatch {
    world: Arc<World>,
    telemetry: Arc<Telemetry>,
    /// Park age, in coarse-clock nanoseconds, that makes a stall.
    window: u64,
    /// The `(proc, src, tag)` set last reported, to avoid re-reporting an
    /// unchanged stall every tick.
    reported: Vec<(usize, usize, u64)>,
}

impl StallWatch {
    /// The detector for `world`'s run, ticking every `period`; `None`
    /// unless its registry asks for one.
    pub fn new(world: &Arc<World>, period: Duration) -> Option<StallWatch> {
        let telemetry = world.telemetry.as_ref().filter(|t| t.config().stall)?;
        Some(StallWatch {
            world: Arc::clone(world),
            telemetry: Arc::clone(telemetry),
            window: u64::try_from((period * STALL_TICKS).as_nanos()).unwrap_or(u64::MAX),
            reported: Vec::new(),
        })
    }

    /// One tick (see [`crate::clock::spawn_ticker`] for `now` and `slack`):
    /// the watchdog's scan, and a report of the parks it leaves in place
    /// that are older than the window.
    pub fn tick(&mut self, now: u64, slack: u64) {
        let (world, lim) = (&self.world, self.window.saturating_add(slack));
        let mut stalled = Vec::new();
        world.parkers.expire_parked(now, slack, |proc, age| {
            // A processor woken since the stamp was read has no
            // registration left: not a stall.
            let edge = if age >= lim { world.mailboxes[proc].waiting() } else { None };
            if let Some((src, tag)) = edge {
                stalled.push(StalledProc { proc, src, tag, stalled_for: Duration::from_nanos(age) });
            }
        });
        let key: Vec<(usize, usize, u64)> = stalled.iter().map(|s| (s.proc, s.src, s.tag)).collect();
        if key == self.reported {
            return;
        }
        self.reported = key;
        if !stalled.is_empty() {
            let diagnosis = diagnose(&stalled, world, now);
            self.telemetry.push_stall_report(StallReport { at: Duration::from_nanos(now), stalled, diagnosis });
        }
    }
}

/// Build the who-is-blocked-on-whom story, reusing the watchdog's
/// queue-depth snapshot for the "what actually arrived" half.
fn diagnose(stalled: &[StalledProc], world: &World, now: u64) -> String {
    let mut out = String::new();
    for (i, s) in stalled.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        out.push_str(&format!(
            "processor {} parked for {:.1?} in recv(src={}, tag={:#x})",
            s.proc, s.stalled_for, s.src, s.tag
        ));
        if let Some(peer) = stalled.iter().find(|o| o.proc == s.src) {
            out.push_str(&format!(
                " — its source {} is itself parked in recv(src={}, tag={:#x})",
                peer.proc, peer.src, peer.tag
            ));
            if peer.src == s.proc {
                out.push_str(" [cycle]");
            }
        }
    }
    for s in stalled {
        let depths = world.mailboxes[s.proc].depth_snapshot(now);
        out.push_str(&format!("; queued for processor {}: {:?}", s.proc, depths));
    }
    out
}
