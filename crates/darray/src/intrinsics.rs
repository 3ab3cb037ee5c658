//! HPF-flavoured array intrinsics over distributed arrays.
//!
//! Fx supports the data-parallel array operations of HPF (the paper
//! defers to [18] for the details); the applications and examples use
//! this subset: circular and end-off shifts, global reductions, and
//! dimension reductions.

use fx_core::Cx;

use crate::array::{DArray1, DArray2, Elem};
use crate::assign::{copy_shift1_range, remap1, Participation};
use crate::dist::Dist;
use crate::plan::Remap;

/// HPF `CSHIFT`: `dst[i] = src[(i + shift) mod n]` (circular shift).
pub fn cshift1<T: Elem>(cx: &mut Cx, dst: &mut DArray1<T>, src: &DArray1<T>, shift: isize) {
    assert_eq!(dst.n(), src.n(), "cshift shape mismatch");
    if dst.n() == 0 {
        // Still allocate the op tag for SPMD consistency.
        let _ = cx.next_op_tag();
        return;
    }
    remap1(cx, dst, src, Remap::Cyclic(shift));
}

/// HPF `EOSHIFT`: `dst[i] = src[i + shift]` where defined, `fill`
/// elsewhere (end-off shift).
pub fn eoshift1<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    src: &DArray1<T>,
    shift: isize,
    fill: T,
) {
    assert_eq!(dst.n(), src.n(), "eoshift shape mismatch");
    let n = dst.n();
    // Owners fill their out-of-range cells locally (no communication).
    dst.for_each_owned(|gi, v| {
        let s = gi as isize + shift;
        if s < 0 || s >= n as isize {
            *v = fill;
        }
    });
    // The in-range window is one range-remap.
    let lo = (-shift).max(0) as usize;
    let hi = (n as isize).min(n as isize - shift).max(0) as usize;
    let range = lo.min(n)..hi.clamp(lo.min(n), n);
    copy_shift1_range(cx, dst, range, src, shift, Participation::Minimal);
}

/// Global sum of a 1-D array over its group (collective over the current
/// group, which must be the array's group).
pub fn sum1<T: Elem + Into<f64>>(cx: &mut Cx, a: &DArray1<T>) -> f64 {
    assert_group(cx, a.group().gid(), "sum1");
    let local = a.fold_owned(0.0f64, |acc, _g, v| acc + v.into());
    cx.allreduce(local, |x, y| x + y)
}

/// Global minimum of a 1-D array.
pub fn min1(cx: &mut Cx, a: &DArray1<f64>) -> f64 {
    assert_group(cx, a.group().gid(), "min1");
    let local = a.fold_owned(f64::INFINITY, |acc, _g, v| acc.min(v));
    cx.allreduce(local, f64::min)
}

/// Global maximum of a 1-D array.
pub fn max1(cx: &mut Cx, a: &DArray1<f64>) -> f64 {
    assert_group(cx, a.group().gid(), "max1");
    let local = a.fold_owned(f64::NEG_INFINITY, |acc, _g, v| acc.max(v));
    cx.allreduce(local, f64::max)
}

/// Global sum of a 2-D array.
pub fn sum2<T: Elem + Into<f64>>(cx: &mut Cx, a: &DArray2<T>) -> f64 {
    assert_group(cx, a.group().gid(), "sum2");
    let local = a.fold_owned(0.0f64, |acc, _r, _c, v| acc + v.into());
    cx.allreduce(local, |x, y| x + y)
}

/// HPF `SUM(a, DIM=2)` for a `(BLOCK, *)` matrix: per-row sums, returned
/// as a `BLOCK` 1-D array aligned with the matrix rows (fully local —
/// rows are whole on their owners).
pub fn sum_along_rows(cx: &mut Cx, a: &DArray2<f64>) -> DArray1<f64> {
    assert_eq!(a.dist(), [Dist::Block, Dist::Star], "sum_along_rows needs (BLOCK, *)");
    let mut out = DArray1::new(cx, a.group(), a.rows(), Dist::Block, 0.0f64);
    let (lr, lc) = a.local_dims();
    debug_assert_eq!(out.local().len(), lr, "row alignment broke");
    for r in 0..lr {
        let s: f64 = a.local_row(r).iter().sum();
        out.local_mut()[r] = s;
    }
    cx.charge_flops((lr * lc) as f64);
    out
}

/// HPF `SUM(a, DIM=1)` for a `(*, BLOCK)` matrix: per-column sums as a
/// `BLOCK` 1-D array aligned with the matrix columns (fully local).
pub fn sum_along_cols(cx: &mut Cx, a: &DArray2<f64>) -> DArray1<f64> {
    assert_eq!(a.dist(), [Dist::Star, Dist::Block], "sum_along_cols needs (*, BLOCK)");
    let mut out = DArray1::new(cx, a.group(), a.cols(), Dist::Block, 0.0f64);
    let (lr, lc) = a.local_dims();
    debug_assert_eq!(out.local().len(), lc, "column alignment broke");
    for c in 0..lc {
        let mut s = 0.0;
        for r in 0..lr {
            s += a.local()[r * lc + c];
        }
        out.local_mut()[c] = s;
    }
    cx.charge_flops((lr * lc) as f64);
    out
}

fn assert_group(cx: &Cx, gid: u64, what: &str) {
    assert_eq!(
        cx.group().gid(),
        gid,
        "{what} is a collective over the array's group"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dist1;
    use fx_core::{spmd, Machine, MachineModel};

    #[test]
    fn cshift_wraps_both_directions() {
        for shift in [-3isize, -1, 0, 1, 4, 9] {
            let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), move |cx| {
                let g = cx.group();
                let data: Vec<u32> = (0..9).collect();
                let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g, 9, Dist1::Block, 0u32);
                cshift1(cx, &mut dst, &src, shift);
                dst.to_global(cx)
            });
            let expect: Vec<u32> =
                (0..9).map(|i| (((i + shift) % 9 + 9) % 9) as u32).collect();
            assert_eq!(rep.results[0], expect, "shift = {shift}");
        }
    }

    #[test]
    fn eoshift_fills_the_ends() {
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<i32> = (1..=6).collect();
            let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
            let mut left = DArray1::new(cx, &g, 6, Dist1::Block, 0i32);
            let mut right = DArray1::new(cx, &g, 6, Dist1::Block, 0i32);
            eoshift1(cx, &mut left, &src, 2, -9);
            eoshift1(cx, &mut right, &src, -2, -9);
            (left.to_global(cx), right.to_global(cx))
        });
        assert_eq!(rep.results[0].0, vec![3, 4, 5, 6, -9, -9]);
        assert_eq!(rep.results[0].1, vec![-9, -9, 1, 2, 3, 4]);
    }

    #[test]
    fn eoshift_larger_than_extent_is_all_fill() {
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let src = DArray1::from_global(cx, &g, 3, Dist1::Block, &[1i32, 2, 3]);
            let mut dst = DArray1::new(cx, &g, 3, Dist1::Block, 0i32);
            eoshift1(cx, &mut dst, &src, 5, 7);
            dst.to_global(cx)
        });
        assert_eq!(rep.results[0], vec![7, 7, 7]);
    }

    #[test]
    fn global_reductions() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<f64> = (1..=10).map(|i| i as f64).collect();
            let a = DArray1::from_global(cx, &g, data.len(), Dist1::Cyclic, &data);
            (sum1(cx, &a), min1(cx, &a), max1(cx, &a))
        });
        for (s, lo, hi) in rep.results {
            assert_eq!(s, 55.0);
            assert_eq!(lo, 1.0);
            assert_eq!(hi, 10.0);
        }
    }

    #[test]
    fn dimension_sums_match_reference() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<f64> = (0..24).map(|i| i as f64).collect(); // 6x4
            let by_rows = {
                let a = DArray2::from_global(cx, &g, [6, 4], (Dist::Block, Dist::Star), &data);
                let s = sum_along_rows(cx, &a);
                s.to_global(cx)
            };
            let by_cols = {
                let a = DArray2::from_global(cx, &g, [6, 4], (Dist::Star, Dist::Block), &data);
                // 4 cols over 3 procs: block = 2, last proc empty — fine.
                let s = sum_along_cols(cx, &a);
                s.to_global(cx)
            };
            (by_rows, by_cols)
        });
        let (rows, cols) = &rep.results[0];
        let expect_rows: Vec<f64> =
            (0..6).map(|r| (0..4).map(|c| (r * 4 + c) as f64).sum()).collect();
        let expect_cols: Vec<f64> =
            (0..4).map(|c| (0..6).map(|r| (r * 4 + c) as f64).sum()).collect();
        assert_eq!(rows, &expect_rows);
        assert_eq!(cols, &expect_cols);
    }

    #[test]
    fn sum2_totals_the_matrix() {
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let g = cx.group();
            let data: Vec<f64> = vec![1.5; 12];
            let a = DArray2::from_global(cx, &g, [3, 4], (Dist::Block, Dist::Star), &data);
            sum2(cx, &a)
        });
        assert!((rep.results[0] - 18.0).abs() < 1e-12);
    }
}
