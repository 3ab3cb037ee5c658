#![warn(missing_docs)]

//! # fx-mapping — automatic mapping of data-parallel pipelines
//!
//! The mapping machinery behind Figure 5 and Table 1 of the paper: given
//! per-stage cost profiles `T_i(p)` (measured on the simulated machine by
//! `fx-bench`) and the data volumes crossing stage boundaries, find the
//! latency-optimal combination of **pipelining** (contiguous chain
//! segments on disjoint processor subsets) and **replication**
//! (independent modules processing the stream round-robin) subject to a
//! minimum-throughput constraint — the algorithms of the paper's
//! references \[21] (Subhlok & Vondran, PPoPP '95) and \[22] (SPAA '96).
//!
//! Pure model-side computation; no runtime dependency. `fx-bench`
//! couples it to the simulator: it derives [`NetParams`] from the
//! `MachineModel` it profiles on, profiles a stream program's stages →
//! searches mappings → re-runs the chosen mapping and compares predicted
//! vs simulated.

mod chain;
mod frontier;
mod profile;

pub use chain::{evaluate, Boundary, ChainModel, Evaluated, Mapping, NetParams, Segment};
pub use frontier::{best_mapping, fastest_for, tradeoff_frontier};
pub use profile::StageProfile;
