//! The per-processor counter row: one declaration, one owner.
//!
//! In the paper's machine a processor's state is private, so a fact about
//! a processor has exactly one owner. Every per-processor counter of the
//! runtime is therefore declared once, in the [`declare_counters!`] table
//! below — field name, OpenMetrics family, help text — and everything
//! else is derived from that table:
//!
//! * [`ProcTotals`], the plain row of integers. While a processor runs,
//!   its row is a field of its [`crate::ProcCtx`], the only writer, and a
//!   count is a `+=` on it. When the processor is done — returned or
//!   unwinding — the row is handed over once: to the run's report, and to
//!   an attached registry, so a [`crate::RunReport`]'s `counters` and a
//!   [`crate::TelemetrySnapshot`]'s `per_proc` are the same rows. Its
//!   `merge`, `Display` and JSON object are generated too.
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
        /// both are the row the processor handed over when it was done, so
        /// they are equal. Generated from the counter declaration in
        /// `counters.rs`, as are `merge`, `Display` and the exporters'
        /// rows.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct ProcTotals {
            $(#[doc = $help] pub $field: u64,)*
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

// The row is part of every processor's context in every run: keep it small.
const _: () = assert!(std::mem::size_of::<ProcTotals>() <= 256);

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
        let mut row = ProcTotals::default();
        for (i, c) in ProcTotals::COUNTERS.iter().enumerate() {
            assert!(c.family.starts_with("fx_") && !c.help.is_empty(), "{c:?}");
            assert_eq!(ProcTotals::COUNTERS.iter().filter(|o| o.name == c.name || o.family == c.family).count(), 1);
            assert_eq!(row.values()[i], 0);
        }
        row.sends += 3;
        row.lane_contention += 1;
        let mut total = row.clone();
        total.merge(&row);
        let n = ProcTotals::COUNTERS.len();
        assert_eq!((total.values()[0], total.values()[n - 1], total.values().iter().sum::<u64>()), (6, 2, 8));
        assert_eq!(total.to_string(), "sends=6 lane_contention=2");
        assert!(total.to_json().starts_with("{\"sends\":6,\"send_bytes\":0,"));
        assert_eq!(total.to_json().matches(':').count(), n);
    }
}
