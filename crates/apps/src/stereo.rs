//! Multibaseline stereo (Okutomi & Kanade; Webb '93 — Table 1 row 4).
//!
//! Input: a reference image plus `n_match` match images from cameras
//! along a horizontal baseline. Per the paper, the major steps are:
//! **difference images** (sum of squared differences between
//! corresponding pixels of the match images for each candidate
//! disparity), **error images** (sum over a surrounding window of
//! pixels), and the **depth image** (per-pixel minimum across
//! disparities).
//!
//! Images are `(*, BLOCK)` column-distributed — the baseline direction.
//! Each candidate disparity *shifts* the match images along columns, an
//! array assignment that crosses block boundaries (real communication
//! every disparity, as in the HPF formulation); the horizontal half of
//! the separable window sum uses a column-halo exchange, the vertical
//! half is local.
//!
//! The program is written once, [`stereo_sets`], as three stages under a
//! [`Segments`] value — difference image (shift and SSD), error image
//! (halo and window sums), depth (argmin) — run per disparity, so a
//! pipeline ships one difference image and one error image per
//! disparity; [`stereo_stream`] is its data-parallel mapping, and
//! [`run_mapped`](crate::util::run_mapped) deals it over replicated
//! modules.

use fx_core::Cx;
use fx_darray::{exchange_col_halo, remap2, DArray2, Dist, Remap};
use fx_kernels::image::{
    box_sum_cols_with_halo, box_sum_rows_with_halo, ssd_flops, window_flops,
    window_sum_reference,
};

use crate::util::{hop, real_input, stage_chain, Segments, SET_DONE, SET_START};

/// Problem parameters for multibaseline stereo.
#[derive(Debug, Clone, Copy)]
pub struct StereoConfig {
    /// Image rows.
    pub rows: usize,
    /// Image columns (the baseline direction).
    pub cols: usize,
    /// Number of match images (the paper uses three or more cameras, so
    /// two or more match images).
    pub n_match: usize,
    /// Candidate disparities `0 .. max_disp`.
    pub max_disp: usize,
    /// Window half-width of the error-image stage.
    pub window: usize,
    /// Image sets in the stream.
    pub datasets: usize,
}

impl StereoConfig {
    /// The paper's data-set scale: 256x240 images.
    pub fn paper() -> Self {
        StereoConfig { rows: 240, cols: 256, n_match: 2, max_disp: 8, window: 2, datasets: 16 }
    }
}

/// Pixel of match image `m` (1-based camera index) for dataset `d`: an
/// inverse warp of the reference scene by `m * truth_disparity`, so that
/// sampling the match image at `c + m * truth` recovers the reference
/// pixel (away from disparity-band boundaries) and depth recovery is
/// verifiable.
fn match_input(cfg: &StereoConfig, d: usize, m: usize, r: usize, c: usize) -> f32 {
    let disp = truth_disparity(cfg, r, c) as usize;
    let sc = c.saturating_sub(m * disp);
    real_input(d, r, sc)
}

/// The known piecewise-constant disparity field used to synthesize match
/// images (diagonal bands wide enough that the error window fits inside).
pub fn truth_disparity(cfg: &StereoConfig, r: usize, c: usize) -> u16 {
    (((r + c) / 16) % cfg.max_disp) as u16
}

/// Sequential oracle: the depth image of dataset `d`.
pub fn reference_depth(cfg: &StereoConfig, d: usize) -> Vec<u16> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let npix = rows * cols;
    let reference: Vec<f32> = (0..npix).map(|i| real_input(d, i / cols, i % cols)).collect();
    let mut best = vec![f32::INFINITY; npix];
    let mut depth = vec![0u16; npix];
    for disp in 0..cfg.max_disp {
        let mut diff = vec![0f32; npix];
        for m in 1..=cfg.n_match {
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    let shifted_c = (c + m * disp).min(cols - 1);
                    let mv = match_input(cfg, d, m, r, shifted_c);
                    let e = reference[i] - mv;
                    diff[i] += e * e;
                }
            }
        }
        let err = window_sum_reference(&diff, rows, cols, cfg.window);
        for i in 0..npix {
            if err[i] < best[i] {
                best[i] = err[i];
                depth[i] = disp as u16;
            }
        }
    }
    depth
}

/// The disparity shift `shifted[r][c] = img[r][min(c + by, cols − 1)]`:
/// a structured remap along the baseline, clamped at the image edge.
fn shift_cols(cx: &mut Cx, shifted: &mut DArray2<f32>, img: &DArray2<f32>, by: usize) {
    remap2(cx, shifted, img, Remap::Identity, Remap::ClampShift(by as isize));
}

/// Stereo over the data sets `sets`, on the current group under `segs`:
/// the one program text. Returns, per dataset, this processor's local
/// depth columns as `(dataset, local_depth)` (row-major `rows x
/// local_cols`) on the members of the argmin stage's segment, empty
/// elsewhere.
pub fn stereo_sets(
    cx: &mut Cx,
    cfg: &StereoConfig,
    segs: &Segments,
    sets: &[usize],
) -> Vec<(usize, Vec<u16>)> {
    stage_chain(cx, segs, |cx, st| {
        let s = segs.seg_of_stage;
        let image = |cx: &mut Cx, k: usize| {
            DArray2::new(cx, st.group(k), [cfg.rows, cfg.cols], (Dist::Star, Dist::Block), 0f32)
        };
        // A stage reads its predecessor's image where it lies unless it
        // has a segment of its own.
        let mut reference = image(cx, 0);
        let mut matches: Vec<DArray2<f32>> = (0..cfg.n_match).map(|_| image(cx, 0)).collect();
        let mut shifted = image(cx, 0);
        let mut diff = image(cx, 0);
        let mut diff_copy = (s[1] != s[0]).then(|| image(cx, 1));
        let mut err = image(cx, 1);
        let mut err_copy = (s[2] != s[1]).then(|| image(cx, 2));
        let mut out = Vec::new();
        for &d in sets {
            st.on(cx, 0, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                // Camera feed: each owner generates its columns of every image.
                reference.for_each_owned(|r, c, v| *v = real_input(d, r, c));
                for (mi, img) in matches.iter_mut().enumerate() {
                    img.for_each_owned(|r, c, v| *v = match_input(cfg, d, mi + 1, r, c));
                }
                cx.charge_mem_bytes(((cfg.n_match + 1) * reference.local().len() * 4) as f64);
            });
            let npix = err_copy.as_ref().unwrap_or(&err).local().len();
            let mut best = vec![f32::INFINITY; npix];
            let mut depth = vec![0u16; npix];
            for disp in 0..cfg.max_disp {
                // Difference image: SSD across the shifted match images.
                // The shift is an array assignment that crosses column
                // blocks.
                st.on(cx, 0, |cx| {
                    diff.local_mut().fill(0.0);
                    for (mi, img) in matches.iter().enumerate() {
                        shift_cols(cx, &mut shifted, img, (mi + 1) * disp);
                        let pairs = reference.local().iter().zip(shifted.local());
                        for (dv, (rv, sv)) in diff.local_mut().iter_mut().zip(pairs) {
                            let e = rv - sv;
                            *dv += e * e;
                        }
                    }
                    cx.charge_flops(ssd_flops(diff.local().len()) * cfg.n_match as f64);
                });
                // Error image: horizontal sum with column halos, vertical
                // sum local (columns hold all rows).
                let diff_in = hop(cx, &mut diff_copy, &diff, segs.mode);
                st.on(cx, 1, |cx| {
                    let (lr, lc) = diff_in.local_dims();
                    let halo = exchange_col_halo(cx, diff_in, cfg.window);
                    let (w, left, right) = (cfg.window, &halo.left, &halo.right);
                    let horiz = box_sum_rows_with_halo(diff_in.local(), lr, lc, w, left, right);
                    let e = box_sum_cols_with_halo(&horiz, lr, lc, w, &[], &[]);
                    err.local_mut().copy_from_slice(&e);
                    cx.charge_flops(window_flops(lr * lc, cfg.window));
                });
                // Depth: running argmin.
                let err_in = hop(cx, &mut err_copy, &err, segs.mode);
                st.on(cx, 2, |cx| {
                    for (i, &e) in err_in.local().iter().enumerate() {
                        if e < best[i] {
                            best[i] = e;
                            depth[i] = disp as u16;
                        }
                    }
                    cx.charge_flops(npix as f64);
                });
            }
            let done = st.on(cx, 2, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
            });
            if done.is_some() {
                out.push((d, depth));
            }
        }
        out
    })
}

/// Data-parallel stereo over the given data sets on the current group.
/// Returns, per dataset, this processor's local depth columns as
/// `(dataset, local_depth)` (row-major `rows x local_cols`).
pub fn stereo_stream(cx: &mut Cx, cfg: &StereoConfig, sets: &[usize]) -> Vec<(usize, Vec<u16>)> {
    stereo_sets(cx, cfg, &Segments::fused(cx.nprocs()), sets)
}

/// Reassemble per-processor local depth tiles (column blocks, in
/// virtual-rank order) into the global image.
pub fn assemble_depth(
    tiles: &[Vec<u16>],
    rows: usize,
    cols: usize,
) -> Vec<u16> {
    let p = tiles.len();
    let block = cols.div_ceil(p);
    let mut img = vec![u16::MAX; rows * cols];
    for (v, tile) in tiles.iter().enumerate() {
        let first = v * block;
        let lc = block.min(cols.saturating_sub(first));
        assert_eq!(tile.len(), rows * lc, "tile {v} has unexpected size");
        for r in 0..rows {
            for c in 0..lc {
                img[r * cols + first + c] = tile[r * lc + c];
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine};

    fn small_cfg() -> StereoConfig {
        StereoConfig { rows: 24, cols: 32, n_match: 2, max_disp: 4, window: 2, datasets: 2 }
    }

    fn depth_for(results: &[Vec<(usize, Vec<u16>)>], d: usize, rows: usize, cols: usize) -> Vec<u16> {
        let tiles: Vec<Vec<u16>> = results
            .iter()
            .map(|per_proc| {
                per_proc
                    .iter()
                    .find(|(ds, _)| *ds == d)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_default()
            })
            .collect();
        assemble_depth(&tiles, rows, cols)
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::real(p), move |cx| stereo_stream(cx, &cfg, &[0, 1]));
            for d in 0..cfg.datasets {
                let got = depth_for(&rep.results, d, cfg.rows, cfg.cols);
                let expect = reference_depth(&cfg, d);
                assert_eq!(got, expect, "p={p} d={d}");
            }
        }
    }

    #[test]
    fn paper_size_matches_reference() {
        // The 256 x 240 images of Table 1, one set: 16-column blocks, so
        // the larger disparity shifts reach past the neighbouring block.
        let cfg = StereoConfig { datasets: 1, ..StereoConfig::paper() };
        let machine = Machine::simulated(16, fx_core::MachineModel::paragon());
        let rep = spmd(&machine, move |cx| stereo_stream(cx, &cfg, &[0]));
        let got = depth_for(&rep.results, 0, cfg.rows, cfg.cols);
        assert_eq!(got, reference_depth(&cfg, 0));
    }

    #[test]
    fn processors_owning_no_column_still_match_reference() {
        // 32 columns over 12 processors: blocks of 3, the last one empty.
        let cfg = small_cfg();
        let rep = spmd(&Machine::real(12), move |cx| stereo_stream(cx, &cfg, &[0]));
        assert_eq!(depth_for(&rep.results, 0, cfg.rows, cfg.cols), reference_depth(&cfg, 0));
    }

    #[test]
    fn recovered_depth_tracks_truth_away_from_edges() {
        // With noiseless synthetic inputs the argmin should recover the
        // generating disparity over most interior pixels.
        let cfg = small_cfg();
        let depth = reference_depth(&cfg, 0);
        let mut hits = 0;
        let mut total = 0;
        for r in 4..cfg.rows - 4 {
            for c in 4..cfg.cols - 12 {
                total += 1;
                if depth[r * cfg.cols + c] == truth_disparity(&cfg, r, c) {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.6, "depth recovery too poor: {hits}/{total}");
    }

    #[test]
    fn shifts_cause_real_communication() {
        // The disparity shifts must move data between column blocks.
        let cfg = small_cfg();
        let rep = spmd(&Machine::real(4), move |cx| {
            stereo_stream(cx, &cfg, &[0]);
        });
        let msgs: u64 = rep.traffic.iter().map(|(m, _)| m).sum();
        assert!(msgs > 0, "expected shift/halo messages");
    }
}
