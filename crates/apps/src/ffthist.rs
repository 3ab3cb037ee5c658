//! FFT-Hist — the paper's running example (Figures 2, 3 and 5; Table 1
//! rows 1–2).
//!
//! A stream of `n x n` complex images; for each: column FFTs (`cffts`),
//! row FFTs (`rffts`), then a magnitude histogram (`hist`).
//!
//! The program is written once, [`fft_hist_program`], and its mapping is a
//! value beside it — the paper's claim: Figures 2(a) and 2(c) differ only
//! in `TASK_PARTITION` sizes and `ON SUBGROUP` brackets, Figures 3 and 5
//! only in the partition. A [`Segments`] says which adjacent stages share
//! a processor group, and a [`Placement`](crate::util::Placement)
//! replicates it over modules — the same value Radar, Stereo and Airshed
//! run under ([`Stream`](crate::stream::Stream)). The `fft_hist_*` entry
//! points are that one program under a particular mapping:
//! [`fft_hist_dp`] is one segment (Figure 2(a)), [`fft_hist_pipeline`]
//! three (Figure 2(c)), and [`fft_hist_sets`] any (what `fx-mapping`
//! searches). A served request runs the same program with a serving
//! layer's hooks.
//!
//! The stream records `set start` / `set done` events so the harness
//! measures throughput and latency the way the paper does, and hands each
//! histogram to its caller so tests can check it against the sequential
//! oracle ([`reference_histogram`]).

use fx_core::Cx;
use fx_darray::{assign2_with, DArray2, Dist};
use fx_kernels::fft::{fft2d_reference, fft_cols_in_place, fft_flops, fft_in_place};
use fx_kernels::hist::{hist_flops, histogram_magnitudes};
use fx_kernels::Complex;

use crate::util::{complex_input, hop, stage_chain, Placement, Segments, SET_DONE, SET_START};

/// Problem parameters for one FFT-Hist run.
#[derive(Debug, Clone, Copy)]
pub struct FftHistConfig {
    /// Image edge (power of two): the paper uses 256 and 512.
    pub n: usize,
    /// Number of images in the stream.
    pub datasets: usize,
    /// Histogram bins.
    pub nbins: usize,
    /// Histogram range.
    pub max_mag: f64,
}

impl FftHistConfig {
    /// Defaults: 64 histogram bins over `[0, 2n)` magnitudes.
    pub fn new(n: usize, datasets: usize) -> Self {
        FftHistConfig { n, datasets, nbins: 64, max_mag: 2.0 * n as f64 }
    }
}

/// A served FFT-Hist's mapping as `benchmark/`'s serve ladder spells it;
/// everything else takes a [`Placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftHistMapping {
    /// All processors data-parallel on every stage.
    DataParallel,
    /// `replicas` modules, each data-parallel or the given pipeline.
    Replicated {
        /// Number of independent modules.
        replicas: usize,
        /// Stage processor counts when each module is a pipeline.
        pipeline: Option<[usize; 3]>,
    },
}

impl FftHistMapping {
    /// The mapping on a group of `p` processors.
    pub fn placement(self, p: usize) -> Placement {
        match self {
            FftHistMapping::DataParallel => Placement::data_parallel(p),
            FftHistMapping::Replicated { replicas, pipeline } => {
                let segs = pipeline.map_or_else(|| Segments::fused(p / replicas), Segments::pipeline);
                Placement::replicated(replicas, segs)
            }
        }
    }
}

/// Sequential oracle: the histogram of dataset `d`.
pub fn reference_histogram(cfg: &FftHistConfig, d: usize) -> Vec<u64> {
    let n = cfg.n;
    let data: Vec<Complex> =
        (0..n * n).map(|i| complex_input(d, i / n, i % n)).collect();
    let transformed = fft2d_reference(&data, n, n);
    histogram_magnitudes(&transformed, cfg.nbins, cfg.max_mag)
}

/// `cffts`: in-place FFT of every locally owned column of a
/// `(*, BLOCK)`-distributed matrix, charging the cost model. (Public,
/// like the other stage kernels, for the benchmark's per-layer probes.)
pub fn cffts_local(cx: &mut Cx, a: &mut DArray2<Complex>) {
    let (rows, lc) = a.local_dims();
    if lc == 0 || rows == 0 {
        return;
    }
    fft_cols_in_place(a.local_mut(), rows, lc, false);
    cx.charge_flops(fft_flops(rows) * lc as f64);
    cx.charge_mem_bytes((2 * rows * lc * std::mem::size_of::<Complex>()) as f64);
}

/// `rffts`: in-place FFT of every locally owned row of a
/// `(BLOCK, *)`-distributed matrix.
pub fn rffts_local(cx: &mut Cx, a: &mut DArray2<Complex>) {
    let (lr, cols) = a.local_dims();
    if lr == 0 || cols == 0 {
        return;
    }
    for r in 0..lr {
        fft_in_place(a.local_row_mut(r), false);
    }
    cx.charge_flops(fft_flops(cols) * lr as f64);
}

/// `hist`: local histogram plus a subgroup reduction; every member of the
/// current group returns the full histogram.
pub fn hist_local(cx: &mut Cx, a: &DArray2<Complex>, nbins: usize, max_mag: f64) -> Vec<u64> {
    let local = histogram_magnitudes(a.local(), nbins, max_mag);
    cx.charge_flops(hist_flops(a.local().len()));
    cx.allreduce(local, |mut x, y| {
        fx_kernels::hist::merge_histograms(&mut x, &y);
        x
    })
}

/// Fill a distributed matrix with dataset `d`'s synthetic input; each
/// owner generates only its elements (a parallel sensor feed).
pub fn fill_input(cx: &mut Cx, a: &mut DArray2<Complex>, d: usize) {
    a.for_each_owned(|r, c, v| *v = complex_input(d, r, c));
    cx.charge_mem_bytes(std::mem::size_of_val(a.local()) as f64);
}

/// FFT-Hist over a stream of `items`, on the current group under `segs`
/// (stages fill + `cffts`, `rffts`, `hist`): the one program text.
/// `dataset(item)` names the image an item stands for. `begin(cx, item)`
/// runs on every processor before the item (a serving layer sets the
/// request's trace id there); `finish(cx, item, histogram)` runs on every
/// member of the `hist` segment right after `set done`, and what it
/// returns is collected — so `cx.id() == 0` there is the leader of the
/// group that produced the result.
pub fn fft_hist_program<I, R>(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    segs: &Segments,
    items: &[I],
    dataset: impl Fn(&I) -> usize,
    begin: impl Fn(&mut Cx, &I),
    finish: impl Fn(&mut Cx, &I, Vec<u64>) -> Option<R>,
) -> Vec<R> {
    stage_chain(cx, segs, |cx, st| {
        let (n, s) = (cfg.n, segs.seg_of_stage);
        // SUBGROUP(G1) :: A1, etc. — the paper's variable mapping. `hist`
        // reads A2 where it lies unless it has a segment of its own.
        let (cols, rows) = ((Dist::Star, Dist::Block), (Dist::Block, Dist::Star));
        let mut a1 = DArray2::new(cx, st.group(0), [n, n], cols, Complex::ZERO);
        let mut a2 = DArray2::new(cx, st.group(1), [n, n], rows, Complex::ZERO);
        let mut a3 =
            (s[2] != s[1]).then(|| DArray2::new(cx, st.group(2), [n, n], rows, Complex::ZERO));
        let mut out = Vec::new();
        for item in items {
            begin(cx, item);
            st.on(cx, 0, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                fill_input(cx, &mut a1, dataset(item));
                cffts_local(cx, &mut a1);
            });
            // Parent scope. The cffts → rffts redistribution crosses
            // groups when the stages sit in different segments (only
            // those two take part under Minimal) and is the in-group
            // transpose otherwise.
            assign2_with(cx, &mut a2, &a1, segs.mode);
            st.on(cx, 1, |cx| rffts_local(cx, &mut a2));
            let hist_input = hop(cx, &mut a3, &a2, segs.mode);
            let kept = st.on(cx, 2, |cx| {
                let h = hist_local(cx, hist_input, cfg.nbins, cfg.max_mag);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                finish(cx, item, h)
            });
            out.extend(kept.flatten());
        }
        out
    })
}

/// The one-shot stream over dataset ids: no per-item hook, and every
/// member of the `hist` segment keeps every histogram.
pub fn fft_hist_sets(cx: &mut Cx, cfg: &FftHistConfig, segs: &Segments, sets: &[usize]) -> Vec<Vec<u64>> {
    fft_hist_program(cx, cfg, segs, sets, |&d| d, |_, _| (), |_, _, h| Some(h))
}

fn all_sets(cfg: &FftHistConfig) -> Vec<usize> {
    (0..cfg.datasets).collect()
}

/// Pure data-parallel FFT-Hist on the current group. Returns one
/// histogram per dataset (identical on every member).
pub fn fft_hist_dp(cx: &mut Cx, cfg: &FftHistConfig) -> Vec<Vec<u64>> {
    fft_hist_dp_sets(cx, cfg, &all_sets(cfg))
}

/// Data-parallel FFT-Hist over an explicit list of dataset ids.
pub fn fft_hist_dp_sets(cx: &mut Cx, cfg: &FftHistConfig, sets: &[usize]) -> Vec<Vec<u64>> {
    fft_hist_sets(cx, cfg, &Segments::fused(cx.nprocs()), sets)
}

/// The 3-stage data-parallel pipeline of Figure 2(c). Returns the
/// histograms on members of the `hist` stage (G3); empty elsewhere.
pub fn fft_hist_pipeline(cx: &mut Cx, cfg: &FftHistConfig, procs: [usize; 3]) -> Vec<Vec<u64>> {
    fft_hist_pipeline_sets(cx, cfg, procs, &all_sets(cfg))
}

/// Pipelined FFT-Hist over an explicit list of dataset ids.
pub fn fft_hist_pipeline_sets(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    procs: [usize; 3],
    sets: &[usize],
) -> Vec<Vec<u64>> {
    fft_hist_sets(cx, cfg, &Segments::pipeline(procs), sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::run_mapped;
    use fx_core::{spmd, Machine, MachineModel};

    fn small_cfg() -> FftHistConfig {
        FftHistConfig { n: 16, datasets: 3, nbins: 16, max_mag: 64.0 }
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| fft_hist_dp(cx, &cfg));
            for proc_results in &rep.results {
                for (d, h) in proc_results.iter().enumerate() {
                    assert_eq!(h, &reference_histogram(&cfg, d), "p={p} dataset {d}");
                }
            }
        }
    }

    /// `cffts` transforms a processor's columns together; the oracle
    /// transforms all 64. Same bits either way, whatever the block shape:
    /// 22/21 local columns at P = 3, 4 at P = 16, and at P = 48 blocks of
    /// 2 with the last 16 processors owning nothing.
    #[test]
    fn dp_matches_reference_on_uneven_and_empty_column_blocks() {
        let cfg = FftHistConfig::new(64, 2);
        let expect: Vec<Vec<u64>> = (0..cfg.datasets).map(|d| reference_histogram(&cfg, d)).collect();
        for p in [3usize, 16, 48] {
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| fft_hist_dp(cx, &cfg));
            for proc_results in &rep.results {
                assert_eq!(proc_results, &expect, "p={p}");
            }
        }
    }

    #[test]
    fn pipeline_matches_reference() {
        let cfg = small_cfg();
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), move |cx| fft_hist_pipeline(cx, &cfg, [2, 3, 1]));
        // G3 members (phys 5) hold the results.
        let g3 = &rep.results[5];
        assert_eq!(g3.len(), cfg.datasets);
        for (d, h) in g3.iter().enumerate() {
            assert_eq!(h, &reference_histogram(&cfg, d), "dataset {d}");
        }
    }

    /// Figure 3 and its hybrids: the one program dealt over modules,
    /// each member returning its module's `(dataset, histogram)` pairs.
    fn dealt_sets(cx: &mut Cx, cfg: &FftHistConfig, placement: &Placement) -> Vec<(usize, Vec<u64>)> {
        let sets: Vec<usize> = (0..cfg.datasets).collect();
        run_mapped(cx, placement, &sets, |cx, segs, sets| {
            fft_hist_program(cx, cfg, segs, sets, |&d| d, |_, _| (), |_, &d, h| Some((d, h)))
        })
    }

    #[test]
    fn replicated_partitions_the_stream() {
        let cfg = FftHistConfig { datasets: 5, ..small_cfg() };
        let twice = FftHistMapping::Replicated { replicas: 2, pipeline: None }.placement(4);
        assert_eq!(twice, Placement::replicated(2, Segments::fused(2)));
        assert_eq!(FftHistMapping::DataParallel.placement(4), Placement::data_parallel(4));
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| dealt_sets(cx, &cfg, &twice));
        // Replica 0 (procs 0,1): datasets 0, 2, 4; replica 1: 1, 3.
        for proc in [0usize, 1] {
            let sets: Vec<usize> = rep.results[proc].iter().map(|(d, _)| *d).collect();
            assert_eq!(sets, vec![0, 2, 4]);
        }
        for proc in [2usize, 3] {
            let sets: Vec<usize> = rep.results[proc].iter().map(|(d, _)| *d).collect();
            assert_eq!(sets, vec![1, 3]);
        }
        for (d, h) in rep.results.iter().flatten() {
            assert_eq!(h, &reference_histogram(&cfg, *d), "dataset {d}");
        }
    }

    #[test]
    fn replicated_pipeline_hybrid_matches_reference() {
        let cfg = FftHistConfig { datasets: 4, ..small_cfg() };
        let hybrid = FftHistMapping::Replicated { replicas: 2, pipeline: Some([1, 1, 1]) }.placement(6);
        assert_eq!(hybrid, Placement::replicated(2, Segments::pipeline([1, 1, 1])));
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), move |cx| dealt_sets(cx, &cfg, &hybrid));
        // Within each module only the G3 member reports; others are empty.
        let mut seen = vec![false; cfg.datasets];
        for proc_results in &rep.results {
            for (d, h) in proc_results {
                assert_eq!(h, &reference_histogram(&cfg, *d));
                seen[*d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all datasets processed: {seen:?}");
    }

    #[test]
    fn segmented_mappings_match_reference() {
        let cfg = small_cfg();
        // [fill+cffts | rffts+hist] on 2+2, and [all fused] on 4.
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            let two = Segments { seg_of_stage: [0, 1, 1], procs: vec![2, 2], ..Segments::fused(4) };
            let two_seg = fft_hist_sets(cx, &cfg, &two, &sets);
            let fused = fft_hist_sets(cx, &cfg, &Segments::fused(4), &sets);
            (two_seg, fused)
        });
        // Hist segment members (phys 2, 3) hold the two-segment results.
        for (d, h) in rep.results[2].0.iter().enumerate() {
            assert_eq!(h, &reference_histogram(&cfg, d), "two-seg dataset {d}");
        }
        for r in &rep.results {
            for (d, h) in r.1.iter().enumerate() {
                assert_eq!(h, &reference_histogram(&cfg, d), "fused dataset {d}");
            }
        }
    }

    #[test]
    fn fused_first_two_stages_match_reference() {
        let cfg = small_cfg();
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            let segs = Segments { seg_of_stage: [0, 0, 1], procs: vec![2, 1], ..Segments::fused(3) };
            fft_hist_sets(cx, &cfg, &segs, &sets)
        });
        for (d, h) in rep.results[2].iter().enumerate() {
            assert_eq!(h, &reference_histogram(&cfg, d), "dataset {d}");
        }
    }

    #[test]
    fn pipeline_overlaps_in_virtual_time() {
        // With three 1-processor stages, steady-state throughput must
        // exceed 1/latency (i.e. the pipeline actually overlaps).
        let cfg = FftHistConfig { n: 32, datasets: 8, nbins: 16, max_mag: 128.0 };
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), move |cx| {
            fft_hist_pipeline(cx, &cfg, [1, 1, 1]);
        });
        let throughput = rep.throughput(SET_DONE, 2);
        let latency = rep.latency(SET_START, SET_DONE);
        assert!(
            throughput * latency > 1.5,
            "no pipeline overlap: thr={throughput} lat={latency}"
        );
    }

    #[test]
    fn dp_uses_all_processors_for_latency() {
        // Latency on 4 procs must beat latency on 1 proc (the point of
        // data parallelism under a compute-heavy model).
        let cfg = FftHistConfig { n: 64, datasets: 2, nbins: 16, max_mag: 256.0 };
        let lat = |p: usize| {
            let rep = spmd(
                &Machine::simulated(p, MachineModel::zero_comm(1e-7)),
                move |cx| {
                    fft_hist_dp(cx, &cfg);
                },
            );
            rep.latency(SET_START, SET_DONE)
        };
        let l1 = lat(1);
        let l4 = lat(4);
        assert!(l4 < l1 / 2.0, "dp speedup missing: l1={l1} l4={l4}");
    }
}
