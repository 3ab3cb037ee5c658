#![warn(missing_docs)]

//! # fx-core — the Fx integrated task/data parallelism model
//!
//! This crate is the primary contribution of *"A New Model for Integrated
//! Nested Task and Data Parallel Programming"* (Subhlok & Yang, PPoPP '97)
//! rebuilt as an embedded Rust DSL on top of the `fx-runtime` simulated
//! multicomputer.
//!
//! | Paper directive | Here |
//! |---|---|
//! | `TASK_PARTITION p :: a(n), b(REST)` | [`Cx::task_partition`] |
//! | `SUBGROUP(a) :: vars` | attach data to [`GroupHandle`] = `part.group("a")` (see `fx-darray`) |
//! | `BEGIN/END TASK_REGION` | [`Cx::task_region`] |
//! | `ON SUBGROUP a … END ON` | [`TaskRegion::on`] |
//! | `NUMBER_OF_PROCESSORS()` | [`Cx::nprocs`] |
//!
//! The execution model follows §2.2 of the paper:
//!
//! * every processor executes the SPMD program; non-members *skip past*
//!   `ON SUBGROUP` blocks instantly;
//! * parent-scope code runs on all current processors, but operations that
//!   can compute a smaller participating set let the others skip
//!   (see `fx-darray::assign` for the array-assignment special case the
//!   paper §4 singles out);
//! * scalars are replicated per processor (in Rust: thread-local stack
//!   variables) and scalar computation is performed redundantly without
//!   synchronization — the paper's replication rule falls out of the
//!   embedding for free; a large replicated value (a tree top, a gathered
//!   key set) is computed once per group on the host by
//!   [`Cx::replicated`], while every member is still charged for it;
//! * groups nest dynamically through procedures executing on subgroups,
//!   and every processor carries a stack of virtual→physical mappings
//!   ([`Cx`]'s group stack).
//!
//! Collectives (subset barrier, broadcast, reduce, gather, all-to-all, …)
//! are always scoped to the current group, giving the localization
//! property of §4.

mod coll;
mod cx;
mod group;
mod hash;
mod hpf;
mod pdo;
mod partition;
mod plancache;
mod promote;
mod region;
mod replica;

pub use coll::{format_phys_ranges, Gathered};
pub use replica::Global;
pub use cx::{spmd, Cx};
pub use plancache::PlanCache;
pub use group::{GroupHandle, Membership};
pub use partition::{proportional_split, Size, Subgroup, TaskPartition};
pub use pdo::{block_range, IterSched};
pub use region::TaskRegion;

// Re-export the runtime surface users need alongside the model.
pub use fx_runtime::{
    request_trace_id, Agreement, DataflowMode, Machine, MachineModel, Payload, ProcCtx, ProcTotals,
    PromoteStats, RunReport, WindowBreakdown,
};
