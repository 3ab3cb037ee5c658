//! Multiblock mesh computation — the paper's §1 motivating class
//! ("multiblock codes containing irregularly structured regular meshes
//! are more naturally programmed as interacting tasks with each task
//! representing a regular mesh, rather than as a single large irregular
//! application") and the concrete structure of Figure 1.
//!
//! Two regular 2-D Jacobi blocks of *different sizes* are coupled along
//! one edge: block A's right boundary is block B's left boundary. The
//! task-parallel program gives each block its own processor subgroup
//! sized by its area (`proportional_split`), iterates both blocks
//! independently in `ON SUBGROUP` blocks, and exchanges the interface
//! columns in parent scope each step — Figure 1's
//! `proca / procb / transfer` pattern exactly.
//!
//! The data-parallel alternative runs the blocks one after another on
//! all processors; for blocks too small to use the whole machine, the
//! task version wins — the paper's reason multiblock codes want task
//! parallelism.

use fx_core::{proportional_split, Cx, Size};
use fx_darray::{assign1, exchange_col_halo, DArray1, DArray2, Dist, Dist1};

/// Problem parameters: two coupled blocks sharing an interface of
/// `rows` cells.
#[derive(Debug, Clone, Copy)]
pub struct MultiblockConfig {
    /// Rows of both blocks (the interface length).
    pub rows: usize,
    /// Columns of block A.
    pub cols_a: usize,
    /// Columns of block B.
    pub cols_b: usize,
    /// Coupled Jacobi iterations.
    pub steps: usize,
    /// Fixed boundary values on the far edges.
    pub left_bc: f64,
    /// Boundary value on B's right edge.
    pub right_bc: f64,
}

impl MultiblockConfig {
    /// A small asymmetric pair (B three times wider than A).
    pub fn demo() -> Self {
        MultiblockConfig { rows: 32, cols_a: 16, cols_b: 48, steps: 40, left_bc: 1.0, right_bc: 0.0 }
    }
}

/// One Jacobi sweep of a `(*, BLOCK)` column-distributed block with
/// prescribed ghost columns on its outer edges.
///
/// `left_ghost` / `right_ghost` are full columns (length `rows`) supplied
/// by either a physical boundary condition or the neighbouring block's
/// interface; interior block boundaries come from the halo exchange.
fn jacobi_sweep(
    cx: &mut Cx,
    a: &mut DArray2<f64>,
    left_ghost: &[f64],
    right_ghost: &[f64],
) {
    let halo = exchange_col_halo(cx, a, 1);
    let (lr, lc) = a.local_dims();
    if lc == 0 {
        return;
    }
    let rows = a.rows();
    assert_eq!(lr, rows, "(*, BLOCK) keeps whole columns local");
    let first_col = a.global_of_local(0, 0).1;
    let last_col = a.global_of_local(0, lc - 1).1;
    let total_cols = a.cols();
    let read = a.local().to_vec();
    let at = |r: usize, c: isize| -> f64 {
        if c < 0 {
            if first_col == 0 {
                left_ghost[r]
            } else {
                halo.left[r]
            }
        } else if (c as usize) < lc {
            read[r * lc + c as usize]
        } else if last_col + 1 == total_cols {
            right_ghost[r]
        } else {
            halo.right[r]
        }
    };
    let local = a.local_mut();
    for r in 0..rows {
        for c in 0..lc {
            // Top/bottom edges reflect (insulated rows); left/right couple.
            let up = if r == 0 { read[r * lc + c] } else { read[(r - 1) * lc + c] };
            let down = if r + 1 == rows { read[r * lc + c] } else { read[(r + 1) * lc + c] };
            let left = at(r, c as isize - 1);
            let right = at(r, c as isize + 1);
            local[r * lc + c] = 0.25 * (up + down + left + right);
        }
    }
    cx.charge_flops(4.0 * (rows * lc) as f64);
}

/// Task-parallel coupled solve (Figure 1's structure). Returns the
/// checksums `(sum_a, sum_b)` on every processor.
pub fn multiblock_tp(cx: &mut Cx, cfg: &MultiblockConfig) -> (f64, f64) {
    let p = cx.nprocs();
    assert!(p >= 2, "need at least two processors for two block tasks");
    let sizes = proportional_split(p, &[(cfg.rows * cfg.cols_a) as f64, (cfg.rows * cfg.cols_b) as f64]);
    let part = cx.task_partition(&[
        ("Agroup", Size::Procs(sizes[0])),
        ("Bgroup", Size::Procs(sizes[1])),
    ]);
    let ga = part.group("Agroup");
    let gb = part.group("Bgroup");
    let dist = (Dist::Star, Dist::Block);
    // SUBGROUP(Agroup) :: A ; SUBGROUP(Bgroup) :: B
    let mut a = DArray2::new(cx, &ga, [cfg.rows, cfg.cols_a], dist, 0.0);
    let mut b = DArray2::new(cx, &gb, [cfg.rows, cfg.cols_b], dist, 0.0);
    // Interface staging: the boundary column of each block, mapped to the
    // *owner's* subgroup, shipped to the other side in parent scope.
    let mut a_edge = DArray1::new(cx, &ga, cfg.rows, Dist1::Star, cfg.left_bc);
    let mut b_edge = DArray1::new(cx, &gb, cfg.rows, Dist1::Star, cfg.right_bc);
    let mut a_ghost = DArray1::new(cx, &ga, cfg.rows, Dist1::Star, cfg.right_bc);
    let mut b_ghost = DArray1::new(cx, &gb, cfg.rows, Dist1::Star, cfg.left_bc);
    let left_bc = vec![cfg.left_bc; cfg.rows];
    let right_bc = vec![cfg.right_bc; cfg.rows];

    cx.task_region(&part, |cx, tr| {
        for _step in 0..cfg.steps {
            // CALL proca(A): one sweep, then stage the interface column.
            tr.on(cx, "Agroup", |cx| {
                let ghost = a_ghost.local().to_vec();
                jacobi_sweep(cx, &mut a, &left_bc, &ghost);
                stage_edge(cx, &a, cfg.cols_a - 1, &mut a_edge);
            });
            // CALL procb(B).
            tr.on(cx, "Bgroup", |cx| {
                let ghost = b_ghost.local().to_vec();
                jacobi_sweep(cx, &mut b, &ghost, &right_bc);
                stage_edge(cx, &b, 0, &mut b_edge);
            });
            // CALL transfer(A, B): parent scope — the two interface
            // columns swap sides; only the owners participate.
            assign1(cx, &mut b_ghost, &a_edge);
            assign1(cx, &mut a_ghost, &b_edge);
        }
    });

    let sum_a = cx.allreduce(a.fold_owned(0.0, |s, _, _, v| s + v), |x, y| x + y);
    let sum_b = cx.allreduce(b.fold_owned(0.0, |s, _, _, v| s + v), |x, y| x + y);
    (sum_a, sum_b)
}

/// Stage a block's interface column into a replicated edge array
/// (collective over the block's subgroup: the owner broadcasts).
fn stage_edge(cx: &mut Cx, a: &DArray2<f64>, col: usize, edge: &mut DArray1<f64>) {
    let rows = a.rows();
    let owner_phys = a.owner_phys(0, col);
    let owner_v = a
        .group()
        .vrank_of_phys(owner_phys)
        .expect("column owner is a group member");
    let mine: Vec<f64> = if cx.phys_rank() == owner_phys {
        let (lr, lc) = a.local_dims();
        let (_, lc0) = a.local_of_global(0, col).expect("owner holds the column");
        (0..lr).map(|r| a.local()[r * lc + lc0]).collect()
    } else {
        Vec::new()
    };
    let col_vals = cx.bcast(owner_v, mine);
    assert_eq!(col_vals.len(), rows);
    edge.local_mut().copy_from_slice(&col_vals);
}

/// Sequential oracle: the same coupled iteration on two in-memory blocks.
pub fn reference_checksums(cfg: &MultiblockConfig) -> (f64, f64) {
    let (rows, ca, cb) = (cfg.rows, cfg.cols_a, cfg.cols_b);
    let mut a = vec![0.0f64; rows * ca];
    let mut b = vec![0.0f64; rows * cb];
    let mut a_ghost = vec![cfg.right_bc; rows]; // B's interface col as seen by A
    let mut b_ghost = vec![cfg.left_bc; rows]; // A's interface col as seen by B
    let sweep = |m: &mut Vec<f64>, cols: usize, left: &[f64], right: &[f64]| {
        let read = m.clone();
        for r in 0..rows {
            for c in 0..cols {
                let up = if r == 0 { read[r * cols + c] } else { read[(r - 1) * cols + c] };
                let down =
                    if r + 1 == rows { read[r * cols + c] } else { read[(r + 1) * cols + c] };
                let l = if c == 0 { left[r] } else { read[r * cols + c - 1] };
                let rr = if c + 1 == cols { right[r] } else { read[r * cols + c + 1] };
                m[r * cols + c] = 0.25 * (up + down + l + rr);
            }
        }
    };
    let left_bc = vec![cfg.left_bc; rows];
    let right_bc = vec![cfg.right_bc; rows];
    for _ in 0..cfg.steps {
        sweep(&mut a, ca, &left_bc, &a_ghost);
        sweep(&mut b, cb, &b_ghost, &right_bc);
        // transfer: stage the post-sweep interface columns.
        for r in 0..rows {
            b_ghost[r] = a[r * ca + (ca - 1)];
            a_ghost[r] = b[r * cb];
        }
    }
    (a.iter().sum(), b.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, MachineModel};

    #[test]
    fn tp_matches_sequential_reference() {
        let cfg = MultiblockConfig { rows: 8, cols_a: 5, cols_b: 11, steps: 12, left_bc: 1.0, right_bc: -0.5 };
        let (ea, eb) = reference_checksums(&cfg);
        for p in [2usize, 3, 6] {
            let rep = spmd(&Machine::real(p), move |cx| multiblock_tp(cx, &cfg));
            for &(sa, sb) in &rep.results {
                assert!((sa - ea).abs() < 1e-9 * ea.abs().max(1.0), "p={p}: A {sa} vs {ea}");
                assert!((sb - eb).abs() < 1e-9 * eb.abs().max(1.0), "p={p}: B {sb} vs {eb}");
            }
        }
    }

    #[test]
    fn heat_flows_across_the_interface() {
        // With a hot left boundary and cold right boundary, both blocks
        // end up with interior values strictly between the two.
        let cfg = MultiblockConfig { rows: 8, cols_a: 6, cols_b: 6, steps: 200, left_bc: 1.0, right_bc: 0.0 };
        let (sa, sb) = reference_checksums(&cfg);
        let mean_a = sa / (cfg.rows * cfg.cols_a) as f64;
        let mean_b = sb / (cfg.rows * cfg.cols_b) as f64;
        assert!(mean_a > mean_b, "heat gradient direction: {mean_a} vs {mean_b}");
        assert!(mean_a > 0.3 && mean_a < 1.0, "A mean {mean_a}");
        assert!(mean_b > 0.0 && mean_b < 0.7, "B mean {mean_b}");
    }

    #[test]
    fn subgroups_are_sized_by_block_area() {
        let cfg = MultiblockConfig { rows: 8, cols_a: 4, cols_b: 12, steps: 1, left_bc: 0.0, right_bc: 0.0 };
        let rep = spmd(&Machine::real(8), move |cx| {
            multiblock_tp(cx, &cfg);
            cx.nprocs()
        });
        // After the region exits the group is the world again; the split
        // itself (2 vs 6 for areas 32 vs 96) is checked via proportional_split.
        assert!(rep.results.iter().all(|&n| n == 8));
        // Largest-remainder with a mandatory processor each: 1+1.5 -> 3, 1+4.5 -> 5.
        assert_eq!(proportional_split(8, &[32.0, 96.0]), vec![3, 5]);
    }

    #[test]
    fn blocks_iterate_concurrently_in_virtual_time() {
        // The two block tasks must overlap: total time ~ max(block times),
        // not their sum.
        let cfg = MultiblockConfig { rows: 32, cols_a: 24, cols_b: 24, steps: 20, left_bc: 1.0, right_bc: 0.0 };
        let rep = spmd(&Machine::simulated(2, MachineModel::zero_comm(1e-6)), move |cx| {
            multiblock_tp(cx, &cfg);
            cx.now()
        });
        // Each block: 4 flops x 32x24 cells x 20 steps = 61440 flops = 61.4ms.
        // Concurrent: ~61 ms; serialized would be ~123 ms.
        let t = rep.results.iter().cloned().fold(0.0f64, f64::max);
        assert!(t < 0.1, "blocks did not overlap: {t} s");
    }
}
