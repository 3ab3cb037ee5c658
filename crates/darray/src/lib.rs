#![warn(missing_docs)]

//! # fx-darray — HPF-style distributed arrays over processor subgroups
//!
//! The data-parallel substrate of the Fx model (Subhlok & Yang,
//! PPoPP '97). Arrays are *mapped onto a processor group* — the paper's
//! `SUBGROUP(g) :: a` — and *distributed* within it with the HPF
//! distributions Fx supports (`BLOCK`, `CYCLIC`, `CYCLIC(b)`, `*`,
//! replication). Every processor in scope can hold the descriptor; only
//! group members hold elements, which is what lets parent-scope statements
//! plan communication while everyone else skips.
//!
//! Arrays: one rank-generic type, [`DArray`], with [`DArray1`] /
//! [`DArray2`] / [`DArray3`] as its vector, matrix and 3-D
//! instantiations. A rank-1 array distributed `*` over a multi-member
//! group is replicated: every member holds the whole extent.
//!
//! Key operations:
//!
//! * [`assign1`] / [`assign2`] / [`assign3`] — the parent-scope array
//!   assignment `A2 = A1` between arbitrary distributions and (sub)groups,
//!   with the paper's minimal-processor-subset participation (see
//!   [`Participation`]);
//! * [`transpose2`] — the distributed corner turn;
//! * [`remap1`] / [`remap2`] — separable shifted assignments
//!   `dst[r][c] = src[fr(r)][fc(c)]` planned from [`Remap`] descriptors;
//! * [`exchange_row_halo`] / [`exchange_col_halo`] /
//!   [`exchange_plane_halo`] — ghost regions for window/stencil kernels;
//! * [`repartition_by`] / [`count_matching`] — predicate splits onto
//!   subgroups (quicksort, Barnes-Hut);
//! * owner-computes iteration (`for_each_owned`) and reassembly
//!   (`to_global`) on the array type itself.
//!
//! Every assignment, transposition and remap is one statement shape to
//! the [`plan`] module: a cached rank-generic communication plan, built by
//! one builder, replayed by one loop and checked against one per-element
//! oracle. Each statement is also one sync edge between its source and
//! destination groups: its receives order it, so `FX_DATAFLOW=on` elides
//! the barrier that `off` runs at every statement.

mod array;
mod assign;
mod dataflow;
mod dist;
mod halo;
mod intrinsics;
mod pack;
// Public so benchmarks and property tests can drive planning directly.
pub mod plan;

pub use array::{DArray, DArray1, DArray2, DArray3, Dist1, Elem, PerDim};
pub use assign::{
    assign1, assign2, assign2_with, assign3, copy_shift1_range, remap1, remap2, transpose2,
    Participation,
};
pub use dist::{DimMap, Dist};
pub use halo::{
    exchange_col_halo, exchange_plane_halo, exchange_row_halo, ColHalo, PlaneHalo, RowHalo,
};
pub use intrinsics::{cshift1, eoshift1, max1, min1, sum1, sum2, sum_along_cols, sum_along_rows};
pub use pack::{count_matching, repartition_by};
pub use plan::Remap;
