#![warn(missing_docs)]

//! # fx — integrated nested task and data parallel programming
//!
//! A Rust reproduction of the Fx model from *"A New Model for Integrated
//! Nested Task and Data Parallel Programming"* (Subhlok & Yang,
//! PPoPP '97), on a simulated multicomputer standing in for the paper's
//! 64-node Intel Paragon.
//!
//! ```
//! use fx::prelude::*;
//!
//! // Four processors run the same SPMD program; two subgroups work
//! // independently, then combine.
//! let report = spmd(&Machine::real(4), |cx| {
//!     let part = cx.task_partition(&[("left", Size::Procs(2)), ("right", Size::Rest)]);
//!     let mine = cx.task_region(&part, |cx, tr| {
//!         let l = tr.on(cx, "left", |cx| cx.allreduce(1u64, |a, b| a + b));
//!         let r = tr.on(cx, "right", |cx| cx.allreduce(10u64, |a, b| a + b));
//!         l.or(r).unwrap()
//!     });
//!     // Parent scope: everyone combines the subgroup results.
//!     cx.allreduce(mine, |a, b| a + b)
//! });
//! assert_eq!(report.results[0], 2 * 2 + 2 * 20);
//! ```
//!
//! The layers (each its own crate, re-exported here):
//!
//! * [`runtime`] — the simulated multicomputer: SPMD threads,
//!   direct-deposit messaging, deterministic LogGP virtual time;
//! * [`core`] — the paper's model: processor subgroups, task partitions,
//!   task regions, `ON SUBGROUP`, group collectives;
//! * [`darray`] — HPF-style distributed arrays over subgroups;
//! * [`kernels`] — the sequential numeric kernels of the applications;
//! * [`apps`] — the paper's programs: FFT-Hist, radar, stereo, Airshed,
//!   quicksort, Barnes-Hut;
//! * [`mapping`] — automatic latency/throughput mapping of pipelines.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured results of every table and figure.

pub use fx_apps as apps;
pub use fx_core as core;
pub use fx_darray as darray;
pub use fx_kernels as kernels;
pub use fx_mapping as mapping;
pub use fx_runtime as runtime;

/// The items almost every Fx program needs.
pub mod prelude {
    pub use fx_core::{
        proportional_split, spmd, Cx, GroupHandle, Machine, MachineModel, Size, TaskPartition,
        TaskRegion, TimeMode,
    };
    pub use fx_darray::{
        assign1, assign2, copy_shift1_range, count_matching, exchange_col_halo, exchange_row_halo,
        remap1, remap2, repartition_by, transpose2, DArray1, DArray2, Dist, Dist1, Participation,
        Remap,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_covers_the_basics() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let a = DArray1::from_global(cx, &g, 4, Dist1::Block, &[1u64, 2, 3, 4]);
            a.fold_owned(0, |acc, _g, v| acc + v)
        });
        assert_eq!(rep.results.iter().sum::<u64>(), 10);
    }
}
