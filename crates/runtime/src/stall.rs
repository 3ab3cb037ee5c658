//! The stall detector: a sampler thread that watches per-processor
//! progress counters during a run and diagnoses who is blocked on whom.
//!
//! The deadlock watchdog ([`crate::parker`]) only fires after the full
//! receive timeout (default 60 s) and kills the run; the stall detector
//! is its early-warning sibling. Every `stall_sample_every` it reads each
//! processor's monotone progress count (the sum of its send, receive,
//! barrier and region-entry counters). A processor whose count has not
//! moved within `stall_window` *and* which is parked in a blocking
//! receive is reported as stalled, together with the `(src, tag)` it is
//! waiting on, whether that source is itself stalled (a cycle — the
//! classic mismatched-exchange deadlock), and the queue-depth snapshot of
//! its mailbox showing what *did* arrive.
//!
//! Reports land in the [`crate::Telemetry`] handle, so they are readable
//! while the run executes (e.g. via the scrape endpoint) and survive a
//! run that dies to the watchdog panic.
//!
//! All diagnostics here are keyed by **processor id**, never by thread
//! identity: progress counters, wait edges and queue snapshots live in
//! per-processor blocks and shards indexed by rank. That is what keeps
//! who-blocks-on-whom dumps correct under the pooled executor, where
//! many processors share (and migrate between) a few worker threads and
//! a thread id means nothing.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{spawn_ticker, TickGuard};
use crate::ctx::World;
use crate::telemetry::{Telemetry, NO_WAIT};

/// One processor flagged by the stall detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledProc {
    /// Physical rank of the stalled processor.
    pub proc: usize,
    /// Source rank it is blocked receiving from.
    pub src: usize,
    /// Tag of the blocking receive.
    pub tag: u64,
    /// How long the processor has made no progress.
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

/// Start the sampler for one run: a periodic service thread on the
/// run's coarse clock, whose windows and report times are therefore
/// nanoseconds since the run began. The guard must be dropped before the
/// run harness reads final mailbox state; dropping it interrupts the
/// sampler's wait, so an observed run never sleeps out a sample period.
pub(crate) fn spawn(telemetry: Arc<Telemetry>, world: Arc<World>) -> TickGuard {
    let (counters, shards) = (telemetry.counters(), telemetry.shards());
    let window = telemetry.config().stall_window;
    let every = telemetry.config().stall_sample_every;
    let mut last_progress: Vec<u64> = counters.iter().map(|c| c.progress()).collect();
    let mut last_moved: Vec<u64> = vec![world.parkers.clock.refresh(); shards.len()];
    // The (proc, src, tag) set already reported, to avoid re-reporting an
    // unchanged stall every sample.
    let mut reported: Vec<(usize, usize, u64)> = Vec::new();

    spawn_ticker("fx-stall-detector", Arc::clone(&world.parkers.clock), every, move |now, _slack| {
        let mut stalled = Vec::new();
        for (p, shard) in shards.iter().enumerate() {
            let prog = counters[p].progress();
            if prog != last_progress[p] {
                last_progress[p] = prog;
                last_moved[p] = now;
                continue;
            }
            let src = shard.wait_src.load(Ordering::Relaxed);
            if src == NO_WAIT {
                continue; // not blocked: compute-bound, not a messaging stall
            }
            let stalled_for = Duration::from_nanos(now - last_moved[p]);
            if stalled_for >= window {
                let tag = shard.wait_tag.load(Ordering::Relaxed);
                stalled.push(StalledProc { proc: p, src, tag, stalled_for });
            }
        }
        let key: Vec<(usize, usize, u64)> = stalled.iter().map(|s| (s.proc, s.src, s.tag)).collect();
        if stalled.is_empty() {
            reported.clear();
            return;
        }
        if key == reported {
            return; // same stall as last reported; don't spam
        }
        reported = key;
        let diagnosis = diagnose(&stalled, &world);
        telemetry.push_stall_report(StallReport { at: Duration::from_nanos(now), stalled, diagnosis });
    })
}

/// Build the who-is-blocked-on-whom story, reusing the watchdog's
/// queue-depth snapshot for the "what actually arrived" half.
fn diagnose(stalled: &[StalledProc], world: &World) -> String {
    let mut out = String::new();
    for (i, s) in stalled.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        out.push_str(&format!(
            "processor {} made no progress for {:.1?}, blocked in recv(src={}, tag={:#x})",
            s.proc, s.stalled_for, s.src, s.tag
        ));
        if let Some(peer) = stalled.iter().find(|o| o.proc == s.src) {
            out.push_str(&format!(
                " — its source {} is itself blocked on recv(src={}, tag={:#x})",
                peer.proc, peer.src, peer.tag
            ));
            if peer.src == s.proc {
                out.push_str(" [cycle]");
            }
        }
    }
    for s in stalled {
        let depths = world.mailboxes[s.proc].depth_snapshot();
        out.push_str(&format!("; queued for processor {}: {:?}", s.proc, depths));
    }
    out
}
