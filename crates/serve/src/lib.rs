#![warn(missing_docs)]

//! # fx-serve — Fx as a service
//!
//! The paper's programs are batch jobs: compile a task/data-parallel
//! mapping, push a fixed stream of data sets through it, report
//! throughput and latency (Table 1). This crate wraps the same compiled
//! pipelines in a **long-lived cluster object**: requests arrive on an
//! open-loop (Poisson or trace-driven) schedule, are admitted into a
//! bounded queue or shed under overload, batched through the pipeline,
//! and answered with per-tenant latency SLO accounting: exact
//! p50/p99/p999 order statistics, folded from the completions the run
//! returns.
//!
//! The load-bearing invariant: **serving changes scheduling, never
//! answers.** Every request's output is bit-identical to the same
//! computation run one-shot, whatever the offered load, batch size,
//! queue depth, shed policy, worker count, or mapping. Batching and
//! queueing reorder *when* work happens, not *what* it computes.
//!
//! ## One procedure, one ledger
//!
//! The admission loop is a *replicated* decision procedure on the virtual
//! clock: every processor runs the same rounds, agreeing on the round
//! time via `allreduce(now, max)` and jumping its clock over an idle gap
//! to the next arrival. Admission, shedding and batch formation are
//! pure functions of the agreed round time, so every processor makes
//! identical decisions without a coordinator or a message beyond the
//! agreement — and the whole serve run is bit-identical across worker
//! counts and hosts, like every other Fx program.
//! Nobody is parked in a receive across a gap, so the deadlock watchdog
//! needs no exemption for a quiet server.
//!
//! What a run knows about its tenants is one fold over the trace, the
//! shed list and the completions ([`ServeReport::tenants`]). A telemetry registry
//! attached to the machine is handed the same rows after the run, for its
//! exporters; without one the run is unobserved.
//!
//! ## Knobs
//!
//! A [`ServeConfig`] — admission queue capacity, requests per pipeline
//! batch, what to shed when the queue is full — is a value handed to
//! [`Server::with_config`]; no environment variable sets it.

mod arrivals;
mod report;
mod servable;
mod server;

pub use report::{ComponentStats, RequestTrace, ServeReport};
pub use servable::{FftHistServable, Servable, StreamServable};
pub use server::{ProcServe, Server};
pub use arrivals::{poisson_trace, ServeRequest, TenantSpec};

/// What to drop when a request arrives and the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the arriving request (tail drop). Preserves FIFO latency of
    /// already-admitted work; overload shows up as shed count, not as
    /// inflated tail latency.
    DropNewest,
    /// Shed the oldest queued request to make room for the arrival.
    /// Bounds staleness at the cost of wasted queueing of the victim.
    DropOldest,
}

/// Admission-control knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded admission queue capacity (requests). Arrivals beyond
    /// this are shed per [`ShedPolicy`].
    pub queue_cap: usize,
    /// Maximum requests drained into one pipeline batch.
    pub batch_max: usize,
    /// What to drop when the queue is full.
    pub shed: ShedPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_cap: 16, batch_max: 4, shed: ShedPolicy::DropNewest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_cap >= 1 && c.batch_max >= 1);
        assert_eq!(c.shed, ShedPolicy::DropNewest);
    }
}
