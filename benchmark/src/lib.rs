//! The repo's benchmark: five workloads timed on both clocks.
//!
//! fx-rs is a simulated multicomputer, so every run has two times:
//! *virtual* time is the paper's result and must not depend on the host,
//! *host* time is what producing it costs. This package measures both
//! from outside — it only calls public functions of the seven library
//! crates and reads the counters their reports already expose. See
//! `README.md` next to this package for the metric and workload tables.

pub mod cli;
pub mod json;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workload;
pub mod workloads;
