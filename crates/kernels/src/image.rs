//! Image kernels for the multibaseline stereo application.
//!
//! Stereo depth extraction (Okutomi & Kanade; Webb '93) per the paper's
//! description: for each candidate disparity, (1) difference images —
//! sum of squared differences between corresponding pixels of shifted
//! match images; (2) error images — sum over a surrounding pixel window;
//! (3) depth image — per-pixel argmin over disparities. This module holds
//! the window sums of (2), with and without halos, and the flop counts;
//! (1) and (3) are fused into `fx-apps`' per-pixel loops.

/// Horizontal box sum of half-width `w`: `out[r][c] = sum img[r][c-w ..= c+w]`
/// (clamped at edges). One half of the separable window sum; fully local
/// to a row.
pub fn box_sum_rows(img: &[f32], rows: usize, cols: usize, w: usize) -> Vec<f32> {
    assert_eq!(img.len(), rows * cols);
    let mut out = vec![0f32; rows * cols];
    for r in 0..rows {
        let row = &img[r * cols..(r + 1) * cols];
        for c in 0..cols {
            let lo = c.saturating_sub(w);
            let hi = (c + w).min(cols - 1);
            out[r * cols + c] = row[lo..=hi].iter().sum();
        }
    }
    out
}

/// Vertical box sum of half-width `w` over a tile that has `top`/`bottom`
/// ghost rows supplied by the neighbours (each `ghost_rows x cols`,
/// possibly fewer than `w` rows at the matrix edges). This is the half of
/// the separable window that crosses a `(BLOCK, *)` distribution.
pub fn box_sum_cols_with_halo(
    tile: &[f32],
    rows: usize,
    cols: usize,
    w: usize,
    top: &[f32],
    bottom: &[f32],
) -> Vec<f32> {
    assert_eq!(tile.len(), rows * cols);
    assert_eq!(top.len() % cols.max(1), 0);
    assert_eq!(bottom.len() % cols.max(1), 0);
    let top_rows = top.len().checked_div(cols).unwrap_or(0);
    let bot_rows = bottom.len().checked_div(cols).unwrap_or(0);
    let at = |r: isize, c: usize| -> f32 {
        if r < 0 {
            let tr = top_rows as isize + r; // r = -1 → last ghost row
            if tr < 0 {
                0.0
            } else {
                top[tr as usize * cols + c]
            }
        } else if (r as usize) < rows {
            tile[r as usize * cols + c]
        } else {
            let br = r as usize - rows;
            if br < bot_rows {
                bottom[br * cols + c]
            } else {
                0.0
            }
        }
    };
    let mut out = vec![0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = 0.0;
            for dr in -(w as isize)..=(w as isize) {
                acc += at(r as isize + dr, c);
            }
            out[r * cols + c] = acc;
        }
    }
    out
}

/// Horizontal box sum of half-width `w` over a tile that has `left` /
/// `right` ghost *columns* from the neighbours (each `rows x ghost_cols`,
/// row-major; possibly fewer than `w` columns at the matrix edges). The
/// half of the separable window that crosses a `(*, BLOCK)` distribution.
pub fn box_sum_rows_with_halo(
    tile: &[f32],
    rows: usize,
    cols: usize,
    w: usize,
    left: &[f32],
    right: &[f32],
) -> Vec<f32> {
    assert_eq!(tile.len(), rows * cols);
    assert_eq!(left.len() % rows.max(1), 0);
    assert_eq!(right.len() % rows.max(1), 0);
    let lw = left.len().checked_div(rows).unwrap_or(0);
    let rw = right.len().checked_div(rows).unwrap_or(0);
    let at = |r: usize, c: isize| -> f32 {
        if c < 0 {
            let lc = lw as isize + c; // c = -1 → last ghost column
            if lc < 0 {
                0.0
            } else {
                left[r * lw + lc as usize]
            }
        } else if (c as usize) < cols {
            tile[r * cols + c as usize]
        } else {
            let rc = c as usize - cols;
            if rc < rw {
                right[r * rw + rc]
            } else {
                0.0
            }
        }
    };
    let mut out = vec![0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = 0.0;
            for dc in -(w as isize)..=(w as isize) {
                acc += at(r, c as isize + dc);
            }
            out[r * cols + c] = acc;
        }
    }
    out
}

/// Sequential reference: full-image box window sum (2w+1)² with zero
/// padding outside the image — the oracle for the distributed error-image
/// computation.
pub fn window_sum_reference(img: &[f32], rows: usize, cols: usize, w: usize) -> Vec<f32> {
    assert_eq!(img.len(), rows * cols);
    let mut out = vec![0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = 0.0;
            for dr in -(w as isize)..=(w as isize) {
                let rr = r as isize + dr;
                if rr < 0 || rr >= rows as isize {
                    continue;
                }
                let lo = c.saturating_sub(w);
                let hi = (c + w).min(cols - 1);
                for cc in lo..=hi {
                    acc += img[rr as usize * cols + cc];
                }
            }
            out[r * cols + c] = acc;
        }
    }
    out
}

/// Flops for the SSD stage over `n` pixels and one disparity.
pub fn ssd_flops(n: usize) -> f64 {
    3.0 * n as f64
}

/// Flops for a separable window sum of half-width `w` over `n` pixels.
pub fn window_flops(n: usize, w: usize) -> f64 {
    (2 * (2 * w + 1)) as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A processor that owns no column of a `(*, BLOCK)` image (256
    /// columns over 21 processors leaves the last one none) sums nothing.
    #[test]
    fn empty_tiles_sum_to_nothing() {
        assert!(box_sum_cols_with_halo(&[], 240, 0, 2, &[], &[]).is_empty());
        assert!(box_sum_rows_with_halo(&[], 240, 0, 2, &[], &[]).is_empty());
    }

    #[test]
    fn box_sum_rows_matches_manual() {
        // 1x5 [1,2,3,4,5], w=1 → [3,6,9,12,9]
        let img = [1f32, 2.0, 3.0, 4.0, 5.0];
        let s = box_sum_rows(&img, 1, 5, 1);
        assert_eq!(s, vec![3.0, 6.0, 9.0, 12.0, 9.0]);
    }

    #[test]
    fn separable_equals_reference() {
        let rows = 7;
        let cols = 6;
        let img: Vec<f32> = (0..rows * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        for w in [0usize, 1, 2] {
            let expect = window_sum_reference(&img, rows, cols, w);
            let horiz = box_sum_rows(&img, rows, cols, w);
            let got = box_sum_cols_with_halo(&horiz, rows, cols, w, &[], &[]);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 1e-4, "w={w}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn halo_version_matches_reference_when_split() {
        let rows = 8;
        let cols = 5;
        let w = 2;
        let img: Vec<f32> = (0..rows * cols).map(|i| (i * i % 13) as f32).collect();
        let horiz = box_sum_rows(&img, rows, cols, w);
        let expect = window_sum_reference(&img, rows, cols, w);
        // Split into two 4-row tiles with 2-row halos.
        let (t0, t1) = horiz.split_at(4 * cols);
        let top_halo_of_t1 = &t0[2 * cols..]; // last 2 rows of t0
        let bottom_halo_of_t0 = &t1[..2 * cols]; // first 2 rows of t1
        let out0 = box_sum_cols_with_halo(t0, 4, cols, w, &[], bottom_halo_of_t0);
        let out1 = box_sum_cols_with_halo(t1, 4, cols, w, top_halo_of_t1, &[]);
        let got: Vec<f32> = out0.into_iter().chain(out1).collect();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn column_split_halo_matches_plain_row_sum() {
        let rows = 3;
        let cols = 10;
        let w = 2;
        let img: Vec<f32> = (0..rows * cols).map(|i| (i * 7 % 11) as f32).collect();
        let expect = box_sum_rows(&img, rows, cols, w);
        // Split into two 5-column tiles with 2-column halos.
        let cut = 5;
        let slice_cols = |lo: usize, hi: usize| -> Vec<f32> {
            let mut v = Vec::new();
            for r in 0..rows {
                v.extend_from_slice(&img[r * cols + lo..r * cols + hi]);
            }
            v
        };
        let t0 = slice_cols(0, cut);
        let t1 = slice_cols(cut, cols);
        let right0 = slice_cols(cut, cut + w);
        let left1 = slice_cols(cut - w, cut);
        let out0 = box_sum_rows_with_halo(&t0, rows, cut, w, &[], &right0);
        let out1 = box_sum_rows_with_halo(&t1, rows, cols - cut, w, &left1, &[]);
        for r in 0..rows {
            for c in 0..cols {
                let got = if c < cut {
                    out0[r * cut + c]
                } else {
                    out1[r * (cols - cut) + (c - cut)]
                };
                assert!(
                    (got - expect[r * cols + c]).abs() < 1e-4,
                    "({r},{c}): {got} vs {}",
                    expect[r * cols + c]
                );
            }
        }
    }
}
