#![warn(missing_docs)]

//! # fx-runtime — a simulated multicomputer
//!
//! Substrate for the Fx integrated task/data parallelism model (Subhlok &
//! Yang, PPoPP '97). The paper's results were measured on a 64-node Intel
//! Paragon; this crate stands in for that machine:
//!
//! * **SPMD execution** — `run(machine, f)` executes the same closure
//!   once per simulated processor, each with its own [`ProcCtx`], as a
//!   stackful coroutine on a fixed pool of worker threads ([`Executor`]).
//! * **Direct-deposit messaging** — [`ProcCtx::send`] deposits a typed
//!   payload straight into the destination mailbox (the Fx communication
//!   style); [`ProcCtx::recv`] matches on `(source, tag)` FIFO channels.
//! * **Deterministic virtual time** — each processor keeps its own clock, advanced only by explicit
//!   `charge_*` calls and by the LogGP-style costs of the messages it sends
//!   and receives ([`MachineModel`]). Clocks couple *only* through
//!   messages, so pipelined task parallelism overlaps in virtual time
//!   exactly as it would on real hardware, and results are bit-identical
//!   across runs and host machines.
//! * **One event record** — [`ProcCtx::record`] marks instants and the
//!   runtime itself records compute, sends and receives as [`Event`]s;
//!   [`RunReport`] computes stream throughput and latency from the marks,
//!   which is how every experiment in the paper is measured, and span
//!   accounting, the critical path and the Chrome trace from the rest.
//!
//! Higher layers build the paper's model on top: `fx-core` adds processor
//! subgroups, task regions and group collectives; `fx-darray` adds
//! HPF-style distributed arrays.

mod clock;
mod coro;
mod counters;
mod critical;
mod ctx;
pub mod env;
mod event;
mod flight;
mod mailbox;
mod model;
mod parker;
mod payload;
mod pool;
mod run;
mod stall;
mod telemetry;
mod trace;

#[doc(hidden)]
pub use clock::debug_counters;
pub use counters::{CounterDef, ProcTotals, PromoteStats};
pub use critical::{critical_path, CriticalPathReport, PathKind, PathSegment, StageAttribution};
pub use ctx::ProcCtx;
pub use event::{request_trace_id, Event, EventKind, Label, Labels, Log, WindowBreakdown};
pub use model::MachineModel;
pub use payload::{Chunk, Payload};
pub use run::{run, DataflowMode, Executor, Machine, RunReport};
pub use stall::{StallReport, StalledProc};
pub use telemetry::{
    ExemplarTrace, Histogram, HistogramSnapshot, Telemetry, TelemetryConfig, TelemetrySnapshot,
    TenantTotals,
};
pub use trace::chrome_trace;
