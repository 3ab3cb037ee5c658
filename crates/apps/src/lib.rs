#![warn(missing_docs)]

//! # fx-apps — the paper's applications
//!
//! Every program evaluated in *"A New Model for Integrated Nested Task
//! and Data Parallel Programming"* (Subhlok & Yang, PPoPP '97), written
//! against the Fx model (`fx-core` + `fx-darray`) and validated against
//! sequential oracles:
//!
//! | Module | Paper reference | Task structure |
//! |---|---|---|
//! | [`ffthist`] | Figures 2, 3, 5; Table 1 | data-parallel pipeline, replication, hybrids |
//! | [`radar`] | Table 1 (narrowband tracking radar) | the same mappings, replication best |
//! | [`stereo`] | Table 1 (multibaseline stereo) | the same mappings, replication best |
//! | [`airshed`] | §5.2, Figure 6 | separated I/O tasks |
//! | [`qsort`] | Figure 4 | dynamically nested partitions |
//! | [`barnes_hut`] | §5.3, Figure 7 | nested partitions + worklists |
//!
//! The three stream programs and Airshed are each one program text under
//! one shared mapping value ([`util::Segments`], [`util::Placement`]), and
//! one value names them ([`stream::Stream`]), run one-shot or served. All
//! record `set start` / `set done` events, from which the benchmark
//! harnesses compute the throughput and latency numbers the paper reports.

pub mod airshed;
pub mod barnes_hut;
pub mod ffthist;
pub mod multiblock;
pub mod qsort;
pub mod radar;
pub mod stereo;
pub mod stream;
pub mod util;
