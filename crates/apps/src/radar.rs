//! Narrowband tracking radar (MIT Lincoln Laboratory benchmark; Table 1
//! row 3).
//!
//! Per the paper, processing one data set consists of four steps: a
//! **corner turn** to form the transposed matrix, independent **row
//! FFTs** (Doppler processing per range gate), **scaling**, and
//! **thresholding**. The paper's 512x10x4 data sets (512 range gates ×
//! 10 dwells × 4 channels) are modelled as 40-pulse × 512-range complex
//! matrices; the 40-point Doppler FFT runs through Bluestein's
//! arbitrary-length algorithm (`fx_kernels::fft::fft_any_in_place`).
//!
//! The program is written once, [`radar_program`], as three stages under a
//! [`Segments`] value — acquisition, Doppler FFT + scaling, thresholding +
//! the detection count's reduction — with the corner turn riding the
//! first hop; [`radar_sets`] runs it one-shot under any segments,
//! [`radar_stream`] data-parallel, and
//! [`run_mapped`](crate::util::run_mapped) deals it over replicated
//! modules.
//!
//! The data-parallel program cannot use more processors than there are
//! FFT batches profitably — which is exactly why the paper's best
//! task-parallel mapping (replication) tripled throughput *without* a
//! latency penalty: it soaked up processors the data-parallel structure
//! could not.

use fx_core::Cx;
use fx_darray::{transpose2, DArray2, Dist};
use fx_kernels::fft::{fft_any_flops, fft_any_in_place};
use fx_kernels::signal::{scale_flops, threshold_flops};
use fx_kernels::Complex;

use crate::util::{complex_input, hop, stage_chain, Segments, SET_DONE, SET_START};

/// Problem parameters for the radar pipeline.
#[derive(Debug, Clone, Copy)]
pub struct RadarConfig {
    /// Range gates (the paper's 512).
    pub ranges: usize,
    /// Pulses per dwell — the Doppler FFT length (any length; Bluestein
    /// handles non-powers-of-two).
    pub pulses: usize,
    /// Data sets in the stream.
    pub datasets: usize,
    /// Scaling gain.
    pub gain: f64,
    /// Detection threshold.
    pub threshold: f64,
}

impl RadarConfig {
    /// The paper's data-set scale: 512 range gates, 40 pulse-channels
    /// (10 dwells × 4 channels — the exact 512x10x4 shape).
    pub fn paper() -> Self {
        RadarConfig { ranges: 512, pulses: 40, datasets: 16, gain: 0.125, threshold: 0.8 }
    }
}

/// Sequential oracle: detection count for dataset `d`.
pub fn reference_detections(cfg: &RadarConfig, d: usize) -> u64 {
    let (p, r) = (cfg.pulses, cfg.ranges);
    // Input is pulses x ranges; corner turn to ranges x pulses.
    let mut work = vec![Complex::ZERO; p * r];
    for pr in 0..p {
        for rg in 0..r {
            work[rg * p + pr] = complex_input(d, pr, rg);
        }
    }
    let mut count = 0u64;
    let mut scratch = Vec::new();
    for rg in 0..r {
        let row = &mut work[rg * p..(rg + 1) * p];
        fft_any_in_place(row, false, &mut scratch);
        for z in row.iter_mut() {
            *z = z.scale(cfg.gain);
        }
        count += row.iter().filter(|z| z.abs() >= cfg.threshold).count() as u64;
    }
    count
}

/// Radar over a stream of `items`, on the current group under `segs`: the
/// one program text, with FFT-Hist's hooks
/// ([`fft_hist_program`](crate::ffthist::fft_hist_program)).
/// `finish(cx, item, detections)` runs on every member of the
/// thresholding stage's segment right after `set done`.
pub fn radar_program<I, R>(
    cx: &mut Cx,
    cfg: &RadarConfig,
    segs: &Segments,
    items: &[I],
    dataset: impl Fn(&I) -> usize,
    begin: impl Fn(&mut Cx, &I),
    finish: impl Fn(&mut Cx, &I, u64) -> Option<R>,
) -> Vec<R> {
    stage_chain(cx, segs, |cx, st| {
        let (p, r, s) = (cfg.pulses, cfg.ranges, segs.seg_of_stage);
        // The sensor delivers the dwell distributed *by pulse* — so at
        // most `pulses` processors hold input, the parallelization-structure
        // limit the paper cites for this program — and the corner turn to
        // the by-range-gate layout is a genuine all-to-all.
        let rows = (Dist::Block, Dist::Star);
        let mut input = DArray2::new(cx, st.group(0), [p, r], rows, Complex::ZERO);
        let mut work = DArray2::new(cx, st.group(1), [r, p], rows, Complex::ZERO);
        // Thresholding reads the Doppler output where it lies unless it
        // has a segment of its own.
        let fused = s[2] == s[1];
        let mut staged =
            (!fused).then(|| DArray2::new(cx, st.group(2), [r, p], rows, Complex::ZERO));
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for item in items {
            let d = dataset(item);
            begin(cx, item);
            st.on(cx, 0, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                // Sensor feed: each owner generates its slice of the dwell.
                input.for_each_owned(|pr, rg, v| *v = complex_input(d, pr, rg));
                cx.charge_mem_bytes(std::mem::size_of_val(input.local()) as f64);
            });
            // Corner turn, in the parent scope: the all-to-all
            // redistribution, across groups when acquisition has a
            // segment of its own.
            transpose2(cx, &mut work, &input);
            // Fused, the segment's work is charged once, where it ends:
            // one sum, in stage order.
            let carried = st.on(cx, 1, |cx| {
                let (lr, _) = work.local_dims();
                for row in 0..lr {
                    let slice = work.local_row_mut(row);
                    fft_any_in_place(slice, false, &mut scratch);
                    for z in slice.iter_mut() {
                        *z = z.scale(cfg.gain);
                    }
                }
                let flops = fft_any_flops(p) * lr as f64 + scale_flops(p * lr);
                if fused {
                    return flops;
                }
                cx.charge_flops(flops);
                0.0
            });
            let detect_input = hop(cx, &mut staged, &work, segs.mode);
            let kept = st.on(cx, 2, |cx| {
                let local = detect_input.local();
                let count = local.iter().filter(|z| z.abs() >= cfg.threshold).count() as u64;
                cx.charge_flops(carried.unwrap_or(0.0) + threshold_flops(local.len()));
                let t = cx.allreduce(count, |a, b| a + b);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                finish(cx, item, t)
            });
            out.extend(kept.flatten());
        }
        out
    })
}

/// Radar over the data sets `sets` under `segs`: `(dataset, detections)`
/// pairs on the members of the thresholding stage's segment, empty
/// elsewhere.
pub fn radar_sets(cx: &mut Cx, cfg: &RadarConfig, segs: &Segments, sets: &[usize]) -> Vec<(usize, u64)> {
    radar_program(cx, cfg, segs, sets, |&d| d, |_, _| (), |_, &d, t| Some((d, t)))
}

/// Data-parallel radar over the given data sets on the current group,
/// returning `(dataset, detections)` pairs (identical on every member).
pub fn radar_stream(cx: &mut Cx, cfg: &RadarConfig, sets: &[usize]) -> Vec<(usize, u64)> {
    radar_sets(cx, cfg, &Segments::fused(cx.nprocs()), sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, MachineModel};

    fn small_cfg() -> RadarConfig {
        RadarConfig { ranges: 32, pulses: 8, datasets: 3, gain: 0.25, threshold: 0.6 }
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| radar_stream(cx, &cfg, &[0, 1, 2]));
            let expect: Vec<_> = (0..3).map(|d| (d, reference_detections(&cfg, d))).collect();
            assert!(rep.results.iter().all(|r| r == &expect), "p={p}");
        }
    }

    #[test]
    fn detections_are_nontrivial() {
        // The synthetic stream should produce some but not all detections,
        // otherwise the threshold stage tests nothing.
        let cfg = small_cfg();
        let total: u64 = (0..cfg.datasets).map(|d| reference_detections(&cfg, d)).sum();
        let cells = (cfg.ranges * cfg.pulses * cfg.datasets) as u64;
        assert!(total > 0 && total < cells, "detections {total} of {cells}");
    }

    #[test]
    fn more_processors_than_rows_still_correct() {
        // 8-pulse input rows over 12 processors: several own nothing in
        // one of the two layouts; the corner turn must still be exact.
        let cfg = RadarConfig { ranges: 16, pulses: 8, datasets: 2, gain: 0.5, threshold: 0.5 };
        let rep = spmd(&Machine::simulated(12, MachineModel::paragon()), move |cx| radar_stream(cx, &cfg, &[0, 1]));
        let expect: Vec<_> = (0..2).map(|d| (d, reference_detections(&cfg, d))).collect();
        assert!(rep.results.iter().all(|r| r == &expect));
    }
}
