//! Narrowband tracking radar (MIT Lincoln Laboratory benchmark; Table 1
//! row 3).
//!
//! Per the paper, processing one data set consists of four steps: a
//! **corner turn** to form the transposed matrix, independent **row
//! FFTs** (Doppler processing per range gate), **scaling**, and
//! **thresholding**. The paper's 512x10x4 data sets (512 range gates ×
//! 10 dwells × 4 channels) are modelled as 40-pulse × 512-range complex
//! matrices; the 40-point Doppler FFT runs through Bluestein's
//! arbitrary-length algorithm (`fx_kernels::fft::fft_any`).
//!
//! The data-parallel program cannot use more processors than there are
//! FFT batches profitably — which is exactly why the paper's best
//! task-parallel mapping (replication) tripled throughput *without* a
//! latency penalty: it soaked up processors the data-parallel structure
//! could not.

use fx_core::Cx;
use fx_darray::{assign2, transpose2, DArray2, Dist};
use fx_kernels::fft::{fft_any_flops, fft_any_in_place};
use fx_kernels::signal::{scale_flops, threshold_flops};
use fx_kernels::Complex;

use crate::util::{complex_input, dealt, stage_chain, SET_DONE, SET_START};

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

/// Process the given data sets data-parallel on the current group,
/// returning `(dataset, detections)` pairs (identical on every member).
pub fn radar_stream(cx: &mut Cx, cfg: &RadarConfig, sets: &[usize]) -> Vec<(usize, u64)> {
    let g = cx.group();
    let (p, r) = (cfg.pulses, cfg.ranges);
    // The sensor delivers the dwell distributed *by pulse* — so at most
    // `pulses` processors hold input, the parallelization-structure limit
    // the paper cites for this program — and the corner turn to the
    // by-range-gate layout is a genuine all-to-all.
    let mut input = DArray2::new(cx, &g, [p, r], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut work = DArray2::new(cx, &g, [r, p], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut out = Vec::with_capacity(sets.len());
    let mut scratch = Vec::new();
    for &d in sets {
        if cx.id() == 0 {
            cx.record(SET_START);
        }
        // Sensor feed: each owner generates its slice of the dwell.
        input.for_each_owned(|pr, rg, v| *v = complex_input(d, pr, rg));
        cx.charge_mem_bytes(std::mem::size_of_val(input.local()) as f64);
        // Corner turn: the all-to-all redistribution.
        transpose2(cx, &mut work, &input);
        // Doppler FFT per range gate + scaling + thresholding, all local.
        let (lr, _) = work.local_dims();
        let mut local_count = 0u64;
        for row in 0..lr {
            let slice = work.local_row_mut(row);
            fft_any_in_place(slice, false, &mut scratch);
            for z in slice.iter_mut() {
                *z = z.scale(cfg.gain);
            }
            local_count += slice.iter().filter(|z| z.abs() >= cfg.threshold).count() as u64;
        }
        cx.charge_flops(
            fft_any_flops(p) * lr as f64 + scale_flops(p * lr) + threshold_flops(p * lr),
        );
        let total = cx.allreduce(local_count, |a, b| a + b);
        if cx.id() == 0 {
            cx.record(SET_DONE);
        }
        out.push((d, total));
    }
    out
}

/// Data-parallel radar over the whole stream.
pub fn radar_dp(cx: &mut Cx, cfg: &RadarConfig) -> Vec<u64> {
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    radar_stream(cx, cfg, &sets).into_iter().map(|(_, c)| c).collect()
}

/// Replicated radar: `replicas` modules, datasets dealt round-robin —
/// the paper's winning mapping for this program. Returns this module's
/// `(dataset, detections)` pairs.
pub fn radar_replicated(cx: &mut Cx, cfg: &RadarConfig, replicas: usize) -> Vec<(usize, u64)> {
    dealt(cx, replicas, 0..cfg.datasets, |cx, mine| radar_stream(cx, cfg, &mine))
}

/// Replication combined with pipelining — the paper presents exactly
/// this combination for the sensor applications (§3.3): `replicas`
/// modules, each an acquisition→FFT→threshold pipeline with the given
/// stage sizes. Returns this module's G3-held `(dataset, detections)`.
pub fn radar_replicated_pipeline(
    cx: &mut Cx,
    cfg: &RadarConfig,
    replicas: usize,
    stage_procs: [usize; 3],
) -> Vec<(usize, u64)> {
    dealt(cx, replicas, 0..cfg.datasets, |cx, mine| radar_pipeline(cx, cfg, stage_procs, &mine))
}

/// Pipelined radar: acquisition (G1) → Doppler FFT + scaling (G2) →
/// thresholding (G3), the corner turn riding the G1→G2 transfer.
/// Returns `(dataset, detections)` pairs on G3 members, empty elsewhere.
pub fn radar_pipeline(
    cx: &mut Cx,
    cfg: &RadarConfig,
    procs: [usize; 3],
    sets: &[usize],
) -> Vec<(usize, u64)> {
    stage_chain(cx, [0, 1, 2], &procs, |cx, st| {
        let (p, r) = (cfg.pulses, cfg.ranges);
        let rows = (Dist::Block, Dist::Star);
        let mut input = DArray2::new(cx, st.group(0), [p, r], rows, Complex::ZERO);
        let mut work = DArray2::new(cx, st.group(1), [r, p], rows, Complex::ZERO);
        let mut staged = DArray2::new(cx, st.group(2), [r, p], rows, Complex::ZERO);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for &d in sets {
            st.on(cx, 0, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                input.for_each_owned(|pr, rg, v| *v = complex_input(d, pr, rg));
                cx.charge_mem_bytes(std::mem::size_of_val(input.local()) as f64);
            });
            // Corner turn rides the cross-group transfer (parent scope).
            transpose2(cx, &mut work, &input);
            st.on(cx, 1, |cx| {
                let (lr, _) = work.local_dims();
                for row in 0..lr {
                    let slice = work.local_row_mut(row);
                    fft_any_in_place(slice, false, &mut scratch);
                    for z in slice.iter_mut() {
                        *z = z.scale(cfg.gain);
                    }
                }
                cx.charge_flops(fft_any_flops(p) * lr as f64 + scale_flops(p * lr));
            });
            assign2(cx, &mut staged, &work);
            if let Some(total) = st.on(cx, 2, |cx| {
                let local_count =
                    staged.local().iter().filter(|z| z.abs() >= cfg.threshold).count() as u64;
                cx.charge_flops(threshold_flops(staged.local().len()));
                let t = cx.allreduce(local_count, |a, b| a + b);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                t
            }) {
                out.push((d, total));
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine};

    fn small_cfg() -> RadarConfig {
        RadarConfig { ranges: 32, pulses: 8, datasets: 3, gain: 0.25, threshold: 0.6 }
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::real(p), move |cx| radar_dp(cx, &cfg));
            for results in &rep.results {
                for (d, &count) in results.iter().enumerate() {
                    assert_eq!(count, reference_detections(&cfg, d), "p={p} d={d}");
                }
            }
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
    fn replicated_matches_reference_and_partitions_stream() {
        let cfg = RadarConfig { datasets: 6, ..small_cfg() };
        let rep = spmd(&Machine::real(4), move |cx| radar_replicated(cx, &cfg, 2));
        let mut seen = vec![false; cfg.datasets];
        for results in &rep.results {
            for &(d, count) in results {
                assert_eq!(count, reference_detections(&cfg, d), "d={d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Modules got alternating datasets.
        let sets0: Vec<usize> = rep.results[0].iter().map(|(d, _)| *d).collect();
        assert_eq!(sets0, vec![0, 2, 4]);
    }

    #[test]
    fn pipeline_matches_reference() {
        let cfg = RadarConfig { datasets: 4, ..small_cfg() };
        let sets: Vec<usize> = (0..cfg.datasets).collect();
        let rep = spmd(&Machine::real(5), move |cx| radar_pipeline(cx, &cfg, [1, 3, 1], &sets));
        // G3 member (phys 4) holds the results.
        let results = &rep.results[4];
        assert_eq!(results.len(), cfg.datasets);
        for &(d, count) in results {
            assert_eq!(count, reference_detections(&cfg, d), "d={d}");
        }
        assert!(rep.results[..4].iter().all(|r| r.is_empty()));
    }

    #[test]
    fn replicated_pipeline_hybrid_matches_reference() {
        // Replication combined with pipelining: 2 modules x [1, 2, 1].
        let cfg = RadarConfig { datasets: 4, ..small_cfg() };
        let rep = spmd(&Machine::real(8), move |cx| {
            radar_replicated_pipeline(cx, &cfg, 2, [1, 2, 1])
        });
        let mut seen = vec![false; cfg.datasets];
        for results in &rep.results {
            for &(d, count) in results {
                assert_eq!(count, reference_detections(&cfg, d), "d={d}");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn more_processors_than_rows_still_correct() {
        // 8-pulse input rows over 12 processors: several own nothing in
        // one of the two layouts; the corner turn must still be exact.
        let cfg = RadarConfig { ranges: 16, pulses: 8, datasets: 2, gain: 0.5, threshold: 0.5 };
        let rep = spmd(&Machine::real(12), move |cx| radar_dp(cx, &cfg));
        for results in &rep.results {
            for (d, &count) in results.iter().enumerate() {
                assert_eq!(count, reference_detections(&cfg, d));
            }
        }
    }
}
