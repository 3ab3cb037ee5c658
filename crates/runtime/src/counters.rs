//! The per-processor counter store: one declaration, one writer, many
//! readers.
//!
//! In the paper's machine a processor's state is private, so a fact about
//! a processor has exactly one owner. Every per-processor counter of the
//! runtime is therefore declared once, in the [`declare_counters!`] table
//! below — field name, OpenMetrics family, help text — and everything
//! else is derived from that table:
//!
//! * [`Counters`], the block of relaxed atomics the run's `World` owns for
//!   every processor, observed or not. Its only writer is the owning
//!   [`crate::ProcCtx`] (see [`bump`]); anyone may read it at any time.
//! * [`ProcTotals`], the plain row a [`crate::RunReport`] and a
//!   [`crate::TelemetrySnapshot`] both hold — the same block read twice,
//!   so the two are equal by construction — with its `merge`, `Display`
//!   and JSON object.
//! * [`ProcTotals::COUNTERS`], the table itself, which the OpenMetrics
//!   exporter walks to emit one `counter` family per entry.
//!
//! Counting never touches the virtual clock. The three host durations
//! (`send_ns`, `recv_wait_ns`, `pack_ns`) are taken only while a
//! telemetry registry is attached and read 0 otherwise: an unobserved
//! message reads no host clock. Observed, each processor keeps one
//! **lap**, the host time of its latest clock read (a *cut*):
//!
//! * **One read per cut.** Cuts come at the end of every send, pack step
//!   and unpack step; at the resume of every receive that parked; at the
//!   start of a plan replay or halo exchange; and at the start of the
//!   first send or parking receive after a compute charge, so kernel
//!   time and plan builds stay out of message durations.
//! * **An interval belongs to the step that ends it.** `send_ns` sums
//!   those that end at a send, `pack_ns` at a pack or unpack step, and
//!   `recv_wait_ns` at the resume of a parked receive: the blocked time. A
//!   receive whose message is already queued reads no clock and waits 0.
//! * **Flight events carry the latest stamp**, never ahead of the event:
//!   barrier, scope and non-parking receive events read nothing.
//! * **A run-ahead yield is dropped, not read.** The next cut's interval,
//!   which holds the time off the worker, counts in no duration, and a
//!   receive that parks next also cuts at its start, as after a charge.

use std::sync::atomic::{AtomicU64, Ordering};

/// Single-writer counter increment: a relaxed load+store pair instead of
/// a locked read-modify-write. Every counter of a [`Counters`] block (and
/// every per-processor histogram of the registry) is written only by its
/// owning *processor* — an invariant about the simulated processor, not
/// about OS-thread identity. The processor may migrate between worker
/// threads, but only at suspension points, and the scheduler's
/// run-queue locks establish happens-before between the worker that
/// wrote last and the worker that resumes next — so writes never race
/// and the unlocked form stays exact. It is roughly 3× cheaper than
/// `fetch_add` on x86.
#[inline]
pub(crate) fn bump(a: &AtomicU64, v: u64) {
    a.store(a.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
}

/// One entry of the counter declaration: what a counter is called in a
/// [`ProcTotals`] row (and as a JSON key), which OpenMetrics family
/// exports it, and the family's help text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// Field name in [`ProcTotals`]; also the key in the JSON rendering.
    pub name: &'static str,
    /// OpenMetrics family (samples are `<family>_total{proc="…"}`).
    pub family: &'static str,
    /// Help text (the family's `# HELP` line and the field's rustdoc).
    pub help: &'static str,
}

macro_rules! declare_counters {
    ($($field:ident, $family:literal, $help:literal;)*) => {
        /// One processor's counters as plain integers — or, merged, the
        /// machine's. A [`crate::RunReport`] holds one per processor in
        /// `counters` and a [`crate::TelemetrySnapshot`] in `per_proc`;
        /// both are reads of the same per-processor block, so after a run
        /// they are equal. Generated from the counter declaration in
        /// `counters.rs`, as are `merge`, `Display` and the exporters'
        /// rows.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct ProcTotals {
            $(#[doc = $help] pub $field: u64,)*
        }

        /// One processor's live counters. Cache-line aligned so that
        /// neighbouring processors' blocks never false-share.
        #[derive(Default)]
        #[repr(align(64))]
        pub(crate) struct Counters {
            $(pub $field: AtomicU64,)*
        }

        impl Counters {
            /// A point-in-time plain copy (relaxed loads; exact once the
            /// owning processor has finished).
            pub fn row(&self) -> ProcTotals {
                ProcTotals { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }

        impl ProcTotals {
            /// The counter declaration, in row order.
            pub const COUNTERS: &'static [CounterDef] = &[
                $(CounterDef { name: stringify!($field), family: $family, help: $help },)*
            ];

            /// The row's values, in declaration order.
            pub fn values(&self) -> [u64; Self::COUNTERS.len()] {
                [$(self.$field,)*]
            }

            /// Accumulate another row into this one.
            pub fn merge(&mut self, other: &ProcTotals) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

declare_counters! {
    sends, "fx_sends", "Messages sent (both payload paths).";
    send_bytes, "fx_send_bytes", "Payload bytes sent.";
    chunk_msgs, "fx_chunk_msgs", "Messages sent via the chunk fast path.";
    chunk_bytes, "fx_chunk_bytes", "Payload bytes sent via the chunk fast path.";
    send_ns, "fx_send_ns", "Host nanoseconds of the lap intervals that end at a send (0 unless a telemetry registry is attached).";
    recvs, "fx_recvs", "Messages received.";
    recv_bytes, "fx_recv_bytes", "Payload bytes received.";
    recv_wait_ns, "fx_recv_wait_ns", "Host nanoseconds blocked in receives that parked (0 unless a telemetry registry is attached).";
    barriers, "fx_barriers", "Group barriers entered.";
    barriers_elided, "fx_barriers_elided", "Statement sync points whose subset barrier was elided.";
    barriers_kept, "fx_barriers_kept", "Statement sync points whose subset barrier ran.";
    promotions_attempted, "fx_promotions_attempted", "Heartbeats that published a promotion announcement.";
    promotions_taken, "fx_promotions_taken", "Loop-tail grants donated to idle subgroup peers.";
    promotions_declined, "fx_promotions_declined", "Heartbeats that donated nothing (no victim or unprofitable).";
    region_enters, "fx_region_enters", "Task-region scopes entered.";
    region_skips, "fx_region_skips", "Task regions skipped (processor not a member).";
    pool_hits, "fx_pool_hits", "Buffer-pool hits (buffer recycled).";
    pool_misses, "fx_pool_misses", "Buffer-pool misses (allocator invoked).";
    plan_hits, "fx_plan_hits", "Communication-plan cache hits.";
    plan_misses, "fx_plan_misses", "Communication-plan cache misses.";
    pack_ns, "fx_plan_pack_ns", "Host nanoseconds of the lap intervals that end at a plan pack or unpack step (0 unless a telemetry registry is attached).";
    lane_contention, "fx_lane_contention", "Mailbox lane deposits that found the lane lock held.";
}

// The block is paid for by every processor of every run: keep it small.
const _: () = assert!(std::mem::size_of::<Counters>() <= 256);

impl ProcTotals {
    /// `(declaration, value)` for every counter of the row.
    fn entries(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> {
        Self::COUNTERS.iter().zip(self.values())
    }

    /// The row as a JSON object, one key per declared counter.
    pub(crate) fn to_json(&self) -> String {
        let fields: Vec<String> = self.entries().map(|(c, v)| format!("\"{}\":{v}", c.name)).collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The three promotion counters under the names
    /// [`crate::RunReport::promote_total`] has always reported them.
    pub(crate) fn promote(&self) -> PromoteStats {
        PromoteStats {
            attempted: self.promotions_attempted,
            taken: self.promotions_taken,
            declined: self.promotions_declined,
        }
    }
}

/// Every non-zero counter as `name=value`, in declaration order.
impl std::fmt::Display for ProcTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        for (c, v) in self.entries().filter(|&(_, v)| v != 0) {
            write!(f, "{sep}{}={v}", c.name)?;
            sep = " ";
        }
        Ok(())
    }
}

/// The heartbeat-promotion counters of a [`ProcTotals`] row under short
/// names: a projection computed by [`crate::RunReport::promote_total`],
/// not a second store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PromoteStats {
    /// Heartbeats that published an announcement (the processor looked
    /// for victims).
    pub attempted: u64,
    /// Grants written: one per (heartbeat, victim) pair that actually
    /// received a donated range.
    pub taken: u64,
    /// Announcements that donated nothing — no peer was parked early
    /// enough, or the remaining range failed the profitability bound.
    pub declined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_merge_display_and_json_follow_the_declaration() {
        let block = Counters::default();
        for (i, c) in ProcTotals::COUNTERS.iter().enumerate() {
            assert!(c.family.starts_with("fx_") && !c.help.is_empty(), "{c:?}");
            assert_eq!(ProcTotals::COUNTERS.iter().filter(|o| o.name == c.name || o.family == c.family).count(), 1);
            assert_eq!(block.row().values()[i], 0);
        }
        bump(&block.sends, 3);
        bump(&block.lane_contention, 1);
        let mut total = block.row();
        total.merge(&block.row());
        let n = ProcTotals::COUNTERS.len();
        assert_eq!((total.values()[0], total.values()[n - 1], total.values().iter().sum::<u64>()), (6, 2, 8));
        assert_eq!(total.to_string(), "sends=6 lane_contention=2");
        assert!(total.to_json().starts_with("{\"sends\":6,\"send_bytes\":0,"));
        assert_eq!(total.to_json().matches(':').count(), n);
    }
}
