//! FFT-Hist — the paper's running example (Figures 2, 3 and 5; Table 1
//! rows 1–2).
//!
//! A stream of `n x n` complex images; for each: column FFTs (`cffts`),
//! row FFTs (`rffts`), then a magnitude histogram (`hist`). Variants:
//!
//! * [`fft_hist_dp`] — pure data parallelism on the current group
//!   (Figure 2(a)'s program compiled the ordinary HPF way);
//! * [`fft_hist_pipeline`] — the 3-stage pipeline of Figure 2(c), one
//!   subgroup per stage, data crossing via `A2 = A1` assignments;
//! * [`fft_hist_replicated`] — Figure 3's replicated data parallelism;
//! * [`run_fft_hist`] with a [`FftHistMapping`] — any combination of
//!   replication and pipelining (the mappings Figure 5 explores).
//!
//! Every variant records `set start` / `set done` events so the harness
//! measures throughput and latency the way the paper does, and returns the
//! per-dataset histograms so tests can check them against the sequential
//! oracle ([`reference_histogram`]).

use fx_core::{Cx, Size};
use fx_darray::{assign2, assign2_with, DArray2, Dist, Participation};
use fx_kernels::fft::{fft2d_reference, fft_cols_in_place, fft_flops, fft_in_place};
use fx_kernels::hist::{hist_flops, histogram_magnitudes};
use fx_kernels::Complex;

use crate::util::{complex_input, ReqCompletion, SET_DONE, SET_START};

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

/// How FFT-Hist is mapped onto processors (the axis Figure 5 explores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftHistMapping {
    /// All processors data-parallel on every stage.
    DataParallel,
    /// Three pipeline stages with the given processor counts.
    Pipeline([usize; 3]),
    /// `replicas` independent modules, datasets dealt round-robin; each
    /// module runs the inner mapping.
    Replicated {
        /// Number of independent modules.
        replicas: usize,
        /// Stage processor counts when each module is itself a pipeline.
        pipeline: Option<[usize; 3]>,
    },
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
/// like the other stage kernels, for the profiling probes in `fx-bench`.)
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

/// Pure data-parallel FFT-Hist on the current group. Returns one
/// histogram per dataset (identical on every member).
pub fn fft_hist_dp(cx: &mut Cx, cfg: &FftHistConfig) -> Vec<Vec<u64>> {
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    fft_hist_dp_sets(cx, cfg, &sets)
}

/// Data-parallel FFT-Hist over an explicit list of dataset ids (used by
/// the replicated variants, whose modules each take a slice of the
/// stream).
pub fn fft_hist_dp_sets(cx: &mut Cx, cfg: &FftHistConfig, sets: &[usize]) -> Vec<Vec<u64>> {
    let g = cx.group();
    let n = cfg.n;
    let mut results = Vec::with_capacity(sets.len());
    let mut a1 = DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let mut a2 = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    for &d in sets {
        if cx.id() == 0 {
            cx.record(SET_START);
        }
        fill_input(cx, &mut a1, d);
        cffts_local(cx, &mut a1);
        assign2(cx, &mut a2, &a1);
        rffts_local(cx, &mut a2);
        let h = hist_local(cx, &a2, cfg.nbins, cfg.max_mag);
        if cx.id() == 0 {
            cx.record(SET_DONE);
        }
        results.push(h);
    }
    results
}

/// The 3-stage data-parallel pipeline of Figure 2(c). Returns the
/// histograms on members of the `hist` stage (G3); empty elsewhere.
pub fn fft_hist_pipeline(cx: &mut Cx, cfg: &FftHistConfig, procs: [usize; 3]) -> Vec<Vec<u64>> {
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    fft_hist_pipeline_sets(cx, cfg, procs, &sets)
}

/// Pipelined FFT-Hist over an explicit list of dataset ids.
pub fn fft_hist_pipeline_sets(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    procs: [usize; 3],
    sets: &[usize],
) -> Vec<Vec<u64>> {
    fft_hist_pipeline_mode(cx, cfg, procs, sets, Participation::Minimal)
}

/// Pipelined FFT-Hist with an explicit participation mode for the
/// cross-stage assignments — `Participation::WholeGroup` is the ablation
/// for the paper's §4 claim that minimal-processor-subset identification
/// is essential for pipelined task parallelism.
pub fn fft_hist_pipeline_mode(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    procs: [usize; 3],
    sets: &[usize],
    mode: Participation,
) -> Vec<Vec<u64>> {
    assert_eq!(
        procs.iter().sum::<usize>(),
        cx.nprocs(),
        "pipeline stage processors must sum to the group size"
    );
    let part = cx.task_partition(&[
        ("G1", Size::Procs(procs[0])),
        ("G2", Size::Procs(procs[1])),
        ("G3", Size::Procs(procs[2])),
    ]);
    let g1 = part.group("G1");
    let g2 = part.group("G2");
    let g3 = part.group("G3");
    let n = cfg.n;
    // SUBGROUP(G1) :: A1, etc. — the paper's variable mapping.
    let mut a1 = DArray2::new(cx, &g1, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let mut a2 = DArray2::new(cx, &g2, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut a3 = DArray2::new(cx, &g3, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut results = Vec::new();

    cx.task_region(&part, |cx, tr| {
        for &d in sets {
            tr.on(cx, "G1", |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                fill_input(cx, &mut a1, d);
                cffts_local(cx, &mut a1);
            });
            // Parent scope: only G1 ∪ G2 take part under Minimal.
            assign2_with(cx, &mut a2, &a1, mode);
            tr.on(cx, "G2", |cx| rffts_local(cx, &mut a2));
            // Only G2 ∪ G3 take part under Minimal.
            assign2_with(cx, &mut a3, &a2, mode);
            if let Some(h) = tr.on(cx, "G3", |cx| {
                let h = hist_local(cx, &a3, cfg.nbins, cfg.max_mag);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                h
            }) {
                results.push(h);
            }
        }
    });
    results
}

/// Run FFT-Hist under an arbitrary contiguous segmentation of its three
/// stages (fill+cffts, rffts, hist): `seg_of_stage[k]` gives the segment
/// index of stage `k` (non-decreasing, starting at 0) and `seg_procs[s]`
/// the processors of segment `s`. Adjacent stages in the same segment
/// are fused (no cross-group transfer; the cffts→rffts redistribution
/// then happens within the segment's own group). This is the executable
/// form of the mappings `fx-mapping` searches over.
pub fn fft_hist_segmented(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    sets: &[usize],
    seg_of_stage: [usize; 3],
    seg_procs: &[usize],
) -> Vec<Vec<u64>> {
    assert!(seg_of_stage[0] == 0, "segments start at 0");
    assert!(
        seg_of_stage.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
        "segments must be contiguous and non-decreasing"
    );
    let nseg = seg_of_stage[2] + 1;
    assert_eq!(seg_procs.len(), nseg, "one processor count per segment");
    assert_eq!(seg_procs.iter().sum::<usize>(), cx.nprocs(), "segments must use the whole group");
    if nseg == 1 {
        return fft_hist_dp_sets(cx, cfg, sets);
    }

    let names: Vec<String> = (0..nseg).map(|s| format!("S{s}")).collect();
    let spec: Vec<(&str, Size)> =
        names.iter().zip(seg_procs).map(|(n, &p)| (n.as_str(), Size::Procs(p))).collect();
    let part = cx.task_partition(&spec);
    let g: Vec<_> = names.iter().map(|n| part.group(n)).collect();
    let n = cfg.n;
    let mut a1 =
        DArray2::new(cx, &g[seg_of_stage[0]], [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let mut a2 =
        DArray2::new(cx, &g[seg_of_stage[1]], [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut a3 = (seg_of_stage[2] != seg_of_stage[1]).then(|| {
        DArray2::new(cx, &g[seg_of_stage[2]], [n, n], (Dist::Block, Dist::Star), Complex::ZERO)
    });
    let mut results = Vec::new();

    cx.task_region(&part, |cx, tr| {
        for &d in sets {
            tr.on(cx, &names[seg_of_stage[0]], |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                fill_input(cx, &mut a1, d);
                cffts_local(cx, &mut a1);
            });
            // cffts → rffts redistribution: cross-group when the stages
            // sit in different segments, in-group otherwise.
            assign2(cx, &mut a2, &a1);
            tr.on(cx, &names[seg_of_stage[1]], |cx| rffts_local(cx, &mut a2));
            let hist_input = match &mut a3 {
                Some(a3) => {
                    assign2(cx, a3, &a2);
                    &*a3
                }
                None => &a2,
            };
            if let Some(h) = tr.on(cx, &names[seg_of_stage[2]], |cx| {
                let h = hist_local(cx, hist_input, cfg.nbins, cfg.max_mag);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                h
            }) {
                results.push(h);
            }
        }
    });
    results
}

/// Figure 3: replicated data parallelism — `replicas` subgroups, each
/// running the full data-parallel computation on its share of the stream
/// (dataset `d` goes to replica `d % replicas`). With
/// `pipeline = Some(stage_procs)`, each replica is itself a pipeline
/// (the two-module mappings of Figure 5). Returns this member's module
/// results as `(dataset, histogram)` pairs.
pub fn fft_hist_replicated(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    replicas: usize,
    pipeline: Option<[usize; 3]>,
) -> Vec<(usize, Vec<u64>)> {
    crate::util::replicated_modules(cx, replicas, |cx, rep| {
        // My module processes datasets rep, rep+replicas, …
        let my_sets: Vec<usize> = (0..cfg.datasets).filter(|d| d % replicas == rep).collect();
        let hists = match pipeline {
            None => fft_hist_dp_sets(cx, cfg, &my_sets),
            Some(stage) => fft_hist_pipeline_sets(cx, cfg, stage, &my_sets),
        };
        // Within a pipelined module only the hist stage holds results;
        // pad so the zip below stays aligned for everyone else.
        if hists.is_empty() {
            Vec::new()
        } else {
            my_sets.into_iter().zip(hists).collect()
        }
    })
}

// ----- serving adapters ---------------------------------------------------
//
// The `_requests` variants run a *batch* of requests — `(request index,
// dataset id)` pairs — through the same stage kernels and report each
// request's completion virtual time on one canonical processor, so a
// serving layer can account per-request latency. They reuse the exact
// assignments and collectives of the one-shot variants: outputs are
// bit-identical to the equivalent one-shot run by construction.

/// Data-parallel FFT-Hist over a batch of requests. The group leader
/// (virtual rank 0) reports every completion; other members return an
/// empty vec.
pub fn fft_hist_dp_requests(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    reqs: &[(usize, usize)],
) -> Vec<ReqCompletion<Vec<u64>>> {
    let g = cx.group();
    let n = cfg.n;
    let mut out = Vec::new();
    let mut a1 = DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let mut a2 = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    for &(req, d) in reqs {
        // Every member tags its work with the request's causal trace id
        // (deterministic from `req`, so no coordination) — a no-op
        // unless the machine runs with tracing on.
        cx.set_trace(fx_core::request_trace_id(req));
        if cx.id() == 0 {
            cx.record(SET_START);
        }
        fill_input(cx, &mut a1, d);
        cffts_local(cx, &mut a1);
        assign2(cx, &mut a2, &a1);
        rffts_local(cx, &mut a2);
        let h = hist_local(cx, &a2, cfg.nbins, cfg.max_mag);
        if cx.id() == 0 {
            cx.record(SET_DONE);
            out.push(ReqCompletion { req, done: cx.now(), output: h });
        }
    }
    out
}

/// Segmented (pipelined) FFT-Hist over a batch of requests: same stage
/// segmentation contract as [`fft_hist_segmented`]. The last segment's
/// leader reports completions.
pub fn fft_hist_segmented_requests(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    reqs: &[(usize, usize)],
    seg_of_stage: [usize; 3],
    seg_procs: &[usize],
) -> Vec<ReqCompletion<Vec<u64>>> {
    assert!(seg_of_stage[0] == 0, "segments start at 0");
    assert!(
        seg_of_stage.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
        "segments must be contiguous and non-decreasing"
    );
    let nseg = seg_of_stage[2] + 1;
    assert_eq!(seg_procs.len(), nseg, "one processor count per segment");
    assert_eq!(seg_procs.iter().sum::<usize>(), cx.nprocs(), "segments must use the whole group");
    if nseg == 1 {
        return fft_hist_dp_requests(cx, cfg, reqs);
    }

    let names: Vec<String> = (0..nseg).map(|s| format!("S{s}")).collect();
    let spec: Vec<(&str, Size)> =
        names.iter().zip(seg_procs).map(|(n, &p)| (n.as_str(), Size::Procs(p))).collect();
    let part = cx.task_partition(&spec);
    let g: Vec<_> = names.iter().map(|n| part.group(n)).collect();
    let n = cfg.n;
    let mut a1 =
        DArray2::new(cx, &g[seg_of_stage[0]], [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let mut a2 =
        DArray2::new(cx, &g[seg_of_stage[1]], [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    let mut a3 = (seg_of_stage[2] != seg_of_stage[1]).then(|| {
        DArray2::new(cx, &g[seg_of_stage[2]], [n, n], (Dist::Block, Dist::Star), Complex::ZERO)
    });
    let mut out = Vec::new();

    cx.task_region(&part, |cx, tr| {
        for &(req, d) in reqs {
            // All segments walk the request stream in order, so each
            // processor tags its local work (and outgoing transfers)
            // with the current request's trace id.
            cx.set_trace(fx_core::request_trace_id(req));
            tr.on(cx, &names[seg_of_stage[0]], |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                fill_input(cx, &mut a1, d);
                cffts_local(cx, &mut a1);
            });
            assign2(cx, &mut a2, &a1);
            tr.on(cx, &names[seg_of_stage[1]], |cx| rffts_local(cx, &mut a2));
            let hist_input = match &mut a3 {
                Some(a3) => {
                    assign2(cx, a3, &a2);
                    &*a3
                }
                None => &a2,
            };
            if let Some(Some(c)) = tr.on(cx, &names[seg_of_stage[2]], |cx| {
                let h = hist_local(cx, hist_input, cfg.nbins, cfg.max_mag);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                    Some(ReqCompletion { req, done: cx.now(), output: h })
                } else {
                    None
                }
            }) {
                out.push(c);
            }
        }
    });
    out
}

/// Replicated FFT-Hist over a batch of requests: batch position `i` is
/// dealt to module `i % replicas` (a deterministic round-robin), and each
/// module's leader reports its own completions. With
/// `pipeline = Some(stage_procs)` every module is itself a pipeline.
pub fn fft_hist_replicated_requests(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    replicas: usize,
    pipeline: Option<[usize; 3]>,
    reqs: &[(usize, usize)],
) -> Vec<ReqCompletion<Vec<u64>>> {
    let reqs = reqs.to_vec();
    crate::util::replicated_modules(cx, replicas, move |cx, rep| {
        let mine: Vec<(usize, usize)> = reqs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % replicas == rep)
            .map(|(_, &r)| r)
            .collect();
        match pipeline {
            None => fft_hist_dp_requests(cx, cfg, &mine),
            Some(stage) => fft_hist_segmented_requests(cx, cfg, &mine, [0, 1, 2], &stage),
        }
    })
}

/// Serve a batch of requests under any mapping (the dispatch a serving
/// layer uses). Completions come back on the leader(s) of the group(s)
/// that produce results; collect across processors via the run report.
pub fn fft_hist_requests(
    cx: &mut Cx,
    cfg: &FftHistConfig,
    mapping: FftHistMapping,
    reqs: &[(usize, usize)],
) -> Vec<ReqCompletion<Vec<u64>>> {
    match mapping {
        FftHistMapping::DataParallel => fft_hist_dp_requests(cx, cfg, reqs),
        FftHistMapping::Pipeline(stage) => {
            fft_hist_segmented_requests(cx, cfg, reqs, [0, 1, 2], &stage)
        }
        FftHistMapping::Replicated { replicas, pipeline } => {
            fft_hist_replicated_requests(cx, cfg, replicas, pipeline, reqs)
        }
    }
}

/// Run FFT-Hist under any mapping (the dispatch used by the Table 1 and
/// Figure 5 harnesses).
pub fn run_fft_hist(cx: &mut Cx, cfg: &FftHistConfig, mapping: FftHistMapping) {
    match mapping {
        FftHistMapping::DataParallel => {
            fft_hist_dp(cx, cfg);
        }
        FftHistMapping::Pipeline(stage) => {
            fft_hist_pipeline(cx, cfg, stage);
        }
        FftHistMapping::Replicated { replicas, pipeline } => {
            fft_hist_replicated(cx, cfg, replicas, pipeline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, MachineModel};

    fn small_cfg() -> FftHistConfig {
        FftHistConfig { n: 16, datasets: 3, nbins: 16, max_mag: 64.0 }
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::real(p), move |cx| fft_hist_dp(cx, &cfg));
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
            let rep = spmd(&Machine::real(p), move |cx| fft_hist_dp(cx, &cfg));
            for proc_results in &rep.results {
                assert_eq!(proc_results, &expect, "p={p}");
            }
        }
    }

    #[test]
    fn pipeline_matches_reference() {
        let cfg = small_cfg();
        let rep = spmd(&Machine::real(6), move |cx| fft_hist_pipeline(cx, &cfg, [2, 3, 1]));
        // G3 members (phys 5) hold the results.
        let g3 = &rep.results[5];
        assert_eq!(g3.len(), cfg.datasets);
        for (d, h) in g3.iter().enumerate() {
            assert_eq!(h, &reference_histogram(&cfg, d), "dataset {d}");
        }
    }

    #[test]
    fn replicated_partitions_the_stream() {
        let cfg = FftHistConfig { datasets: 5, ..small_cfg() };
        let rep = spmd(&Machine::real(4), move |cx| fft_hist_replicated(cx, &cfg, 2, None));
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
        let rep = spmd(&Machine::real(6), move |cx| {
            fft_hist_replicated(cx, &cfg, 2, Some([1, 1, 1]))
        });
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
        let rep = spmd(&Machine::real(4), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            let two_seg = fft_hist_segmented(cx, &cfg, &sets, [0, 1, 1], &[2, 2]);
            let fused = fft_hist_segmented(cx, &cfg, &sets, [0, 0, 0], &[4]);
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
        let rep = spmd(&Machine::real(3), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            fft_hist_segmented(cx, &cfg, &sets, [0, 0, 1], &[2, 1])
        });
        for (d, h) in rep.results[2].iter().enumerate() {
            assert_eq!(h, &reference_histogram(&cfg, d), "dataset {d}");
        }
    }

    #[test]
    fn run_fft_hist_dispatches_every_mapping() {
        let cfg = FftHistConfig { n: 16, datasets: 2, nbins: 8, max_mag: 64.0 };
        let rep = spmd(&Machine::real(6), move |cx| {
            run_fft_hist(cx, &cfg, FftHistMapping::DataParallel);
            run_fft_hist(cx, &cfg, FftHistMapping::Pipeline([2, 2, 2]));
            run_fft_hist(cx, &cfg, FftHistMapping::Replicated { replicas: 2, pipeline: None });
            run_fft_hist(
                cx,
                &cfg,
                FftHistMapping::Replicated { replicas: 2, pipeline: Some([1, 1, 1]) },
            );
        });
        // 4 runs x 2 datasets each: every variant completed the stream.
        assert_eq!(rep.events_named(SET_DONE).len(), 8);
    }

    #[test]
    fn request_adapters_match_reference_and_report_leaders_only() {
        let cfg = small_cfg();
        let reqs: Vec<(usize, usize)> = vec![(10, 0), (11, 2), (12, 1)];
        let mappings = [
            FftHistMapping::DataParallel,
            FftHistMapping::Pipeline([2, 2, 2]),
            FftHistMapping::Replicated { replicas: 2, pipeline: None },
            FftHistMapping::Replicated { replicas: 2, pipeline: Some([1, 1, 1]) },
        ];
        for mapping in mappings {
            let reqs2 = reqs.clone();
            let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), move |cx| {
                fft_hist_requests(cx, &cfg, mapping, &reqs2)
            });
            let mut completions: Vec<_> = rep.results.iter().flatten().collect();
            completions.sort_by_key(|c| c.req);
            assert_eq!(
                completions.iter().map(|c| c.req).collect::<Vec<_>>(),
                vec![10, 11, 12],
                "{mapping:?}: every request completes exactly once"
            );
            for c in &completions {
                let d = reqs.iter().find(|(r, _)| *r == c.req).unwrap().1;
                assert_eq!(c.output, reference_histogram(&cfg, d), "{mapping:?} req {}", c.req);
                assert!(c.done > 0.0, "{mapping:?}: completion time must advance");
            }
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
