//! # fx-bench — the paper's experiment harnesses
//!
//! One binary per table/figure of the paper (see DESIGN.md §9), each
//! printing the committed `results/<name>.txt` byte for byte
//! (`tests/results_identity.rs`):
//!
//! * `table1`   — Table 1: data-parallel vs best task+data-parallel
//!   throughput/latency on 64 simulated Paragon nodes;
//! * `fig5_mappings` — Figure 5: latency-optimal FFT-Hist mappings under
//!   increasing throughput constraints;
//! * `fig6_airshed`  — Figure 6: Airshed speedup, DP vs task+data;
//! * `ablations`     — §4 implementation claims (minimal processor
//!   subsets, replicated scalars, exact communication sets);
//! * `tradeoff`, `scaling`, `machines` — the ref [22] frontier, the §5.3
//!   nested applications and the machine-balance study.
//!
//! Host-time and serving numbers are not measured here: they are metrics
//! of the `benchmark/` package, and every claim about them is a test in
//! the crate that owns the code.
//!
//! This library holds the shared measurement plumbing: running a stream
//! program on the simulated machine and extracting throughput/latency,
//! measuring per-stage cost profiles, and executing a mapping produced by
//! `fx-mapping`.

use fx_apps::ffthist::{
    cffts_local, fft_hist_dp_sets, fft_hist_sets, fill_input, hist_local, rffts_local,
    FftHistConfig, Segments,
};
use fx_apps::util::{dealt, SET_DONE, SET_START};
use fx_core::{spmd, Cx, Machine, MachineModel};
use fx_darray::{assign2, DArray2, Dist, Participation};
use fx_kernels::Complex;
use fx_mapping::{Boundary, ChainModel, Mapping, NetParams, ProfileTable, StageProfile};

/// The simulated 1996 Paragon the paper's numbers were measured on.
pub fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
}

/// Throughput/latency of one stream run.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Steady-state data sets per second.
    pub throughput: f64,
    /// Mean seconds from `set start` to `set done`.
    pub latency: f64,
    /// Completion time of the whole run.
    pub makespan: f64,
}

/// Run `f` on `p` simulated processors and measure the `set start` /
/// `set done` stream, skipping the first `skip` completions (pipeline
/// fill).
pub fn measure_stream<F>(p: usize, skip: usize, f: F) -> StreamStats
where
    F: Fn(&mut Cx) + Send + Sync,
{
    let rep = spmd(&paragon(p), |cx| f(cx));
    StreamStats {
        throughput: rep.throughput(SET_DONE, skip),
        latency: rep.latency(SET_START, SET_DONE),
        makespan: rep.makespan(),
    }
}

/// Measure the FFT-Hist stage cost profiles `T_i(p)` on the simulator:
/// one probe run per processor count, stages separated by barriers so
/// each stage's time is attributed cleanly. Returns the chain model the
/// mapping optimizer consumes.
pub fn fft_hist_chain_model(cfg: &FftHistConfig, p_values: &[usize]) -> ChainModel {
    let mut samples: [Vec<(usize, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for &p in p_values {
        let rep = spmd(&paragon(p), |cx| {
            let g = cx.group();
            let n = cfg.n;
            let mut a1 =
                DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
            let mut a2 =
                DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
            // Calibrate the barrier cost so it can be subtracted from the
            // stage attributions.
            cx.barrier();
            let tb0 = cx.now();
            cx.barrier();
            let tb = cx.now() - tb0;
            let t0 = cx.now();
            fill_input(cx, &mut a1, 0);
            cffts_local(cx, &mut a1);
            cx.barrier();
            let t1 = cx.now();
            assign2(cx, &mut a2, &a1);
            cx.barrier();
            let t2 = cx.now();
            rffts_local(cx, &mut a2);
            cx.barrier();
            let t3 = cx.now();
            let _ = hist_local(cx, &a2, cfg.nbins, cfg.max_mag);
            cx.barrier();
            let t4 = cx.now();
            // The redistribution time t2-t1 is represented in the chain
            // model by the boundary descriptor instead.
            let clean = |dt: f64| (dt - tb).max(1e-9);
            [clean(t1 - t0), clean(t2 - t1), clean(t3 - t2), clean(t4 - t3)]
        });
        let t = rep.results[0];
        samples[0].push((p, t[0]));
        samples[1].push((p, t[2]));
        samples[2].push((p, t[3]));
    }
    let stages = vec![
        StageProfile::from_samples("cffts", samples[0].clone()),
        StageProfile::from_samples("rffts", samples[1].clone()),
        StageProfile::from_samples("hist", samples[2].clone()),
    ];
    ChainModel::new(stages, fft_hist_boundaries(cfg), NetParams::paragon())
}

/// FFT-Hist boundary descriptors shared by both profile-extraction paths.
fn fft_hist_boundaries(cfg: &FftHistConfig) -> Vec<Boundary> {
    let volume = (cfg.n * cfg.n * std::mem::size_of::<Complex>()) as f64;
    vec![
        // cffts → rffts: the transpose — an all-to-all that happens even
        // when the stages are fused onto one group.
        Boundary { bytes: volume, all_to_all: true, fused_is_free: false },
        // rffts → hist: same (BLOCK, *) distribution on both sides —
        // aligned transfer, free when fused.
        Boundary { bytes: volume, all_to_all: false, fused_is_free: true },
    ]
}

/// Log-based FFT-Hist profile extraction: the same probe runs as
/// [`fft_hist_chain_model`], but measured from the profiled event
/// logs instead of barrier-bracketed stopwatches. Each stage's body
/// runs under a named scope; its `T_i(p)` sample is the widest
/// per-processor elapsed window of duration events made under that scope
/// (compute charges plus any communication inside the stage, excluding
/// the inter-stage barriers). Samples feed a [`ProfileTable`], so this is
/// the measurement-fed path into the chain optimizer.
pub fn fft_hist_chain_model_measured(cfg: &FftHistConfig, p_values: &[usize]) -> ChainModel {
    let mut table = ProfileTable::new();
    for &p in p_values {
        let machine = paragon(p).with_profiling(true);
        let rep = spmd(&machine, |cx| {
            let g = cx.group();
            let n = cfg.n;
            let mut a1 =
                DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
            let mut a2 =
                DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
            cx.barrier();
            cx.scoped("cffts", |cx| {
                fill_input(cx, &mut a1, 0);
                cffts_local(cx, &mut a1);
            });
            cx.barrier();
            // The redistribution is represented in the chain model by the
            // first boundary descriptor; run it unscoped so it lands in
            // no stage's window, mirroring the probe path.
            assign2(cx, &mut a2, &a1);
            cx.barrier();
            cx.scoped("rffts", |cx| rffts_local(cx, &mut a2));
            cx.barrier();
            cx.scoped("hist", |cx| {
                let _ = hist_local(cx, &a2, cfg.nbins, cfg.max_mag);
            });
            cx.barrier();
        });
        for stage in ["cffts", "rffts", "hist"] {
            let t = rep
                .logs
                .iter()
                .filter_map(|log| log.window_under(stage))
                .map(|(a, b)| b - a)
                .fold(0.0, f64::max)
                .max(1e-9);
            table.add(stage, p, t);
        }
    }
    ChainModel::new(table.into_profiles(), fft_hist_boundaries(cfg), NetParams::paragon())
}

/// Execute an `fx-mapping` mapping of FFT-Hist on the current group:
/// `modules` replicas of the chain under the mapping's [`Segments`],
/// datasets dealt round-robin. Processors beyond `mapping.procs_used()`
/// idle in a spare subgroup (the optimizer is allowed to leave processors
/// unused).
pub fn run_fft_hist_mapping(cx: &mut Cx, cfg: &FftHistConfig, mapping: &Mapping) {
    let used = mapping.procs_used();
    let total = cx.nprocs();
    assert!(used <= total, "mapping uses {used} of {total} processors");
    let mut segs = Segments {
        seg_of_stage: [0; 3],
        procs: mapping.segments.iter().map(|s| s.procs).collect(),
        mode: Participation::Minimal,
    };
    for (si, seg) in mapping.segments.iter().enumerate() {
        segs.seg_of_stage[seg.first..=seg.last].fill(si);
    }
    let run = |cx: &mut Cx| {
        dealt(cx, mapping.modules, 0..cfg.datasets, |cx, mine| {
            fft_hist_sets(cx, cfg, &segs, &mine);
        });
    };
    if used == total {
        run(cx);
    } else {
        let part = cx.task_partition(&[
            ("work", fx_core::Size::Procs(used)),
            ("idle", fx_core::Size::Rest),
        ]);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "work", run);
        });
    }
}

/// Run the pure data-parallel FFT-Hist stream (the Table 1 baseline).
pub fn run_fft_hist_dp(cx: &mut Cx, cfg: &FftHistConfig) {
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    fft_hist_dp_sets(cx, cfg, &sets);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_model_profiles_decrease_with_processors() {
        // Large enough that stage compute dominates the inter-stage
        // barriers the probe uses for attribution.
        let cfg = FftHistConfig::new(128, 1);
        let model = fft_hist_chain_model(&cfg, &[1, 2, 4]);
        // The FFT stages are compute-bound and must scale; hist on a tiny
        // image is reduction-latency-bound and may not (that is exactly
        // the non-scalability the paper's mappings exploit).
        for stage in &model.stages[..2] {
            assert!(
                stage.time(1) > stage.time(4),
                "{} does not scale: {} vs {}",
                stage.name,
                stage.time(1),
                stage.time(4)
            );
        }
        assert!(model.stages.iter().all(|s| s.time(1) > 0.0));
        assert_eq!(model.boundaries.len(), 2);
        assert!(model.boundaries[0].all_to_all && !model.boundaries[0].fused_is_free);
        assert!(model.boundaries[1].fused_is_free);
    }

    #[test]
    fn span_extracted_profiles_agree_with_probe_profiles() {
        // The acceptance bar for the measurement-fed path: auto-extracted
        // profiles must drive the optimizer to the same best mapping as
        // the barrier-probe profiles.
        let cfg = FftHistConfig::new(128, 1);
        let p_values = [1, 2, 4, 8, 16];
        let probe = fft_hist_chain_model(&cfg, &p_values);
        let measured = fft_hist_chain_model_measured(&cfg, &p_values);
        // Per-stage samples agree closely (same virtual runs, different
        // attribution mechanism — spans exclude the inter-stage barriers
        // the probe has to calibrate away).
        for (a, b) in probe.stages.iter().zip(&measured.stages) {
            assert_eq!(a.name, b.name);
            for &p in &p_values {
                let (ta, tb) = (a.time(p), b.time(p));
                assert!(
                    (ta - tb).abs() / ta.max(tb) < 0.05,
                    "{} at p={p}: probe {ta} vs spans {tb}",
                    a.name
                );
            }
        }
        let best_probe = fx_mapping::best_mapping(&probe, 16, None).unwrap();
        let best_spans = fx_mapping::best_mapping(&measured, 16, None).unwrap();
        assert_eq!(best_probe.mapping, best_spans.mapping);
    }

    #[test]
    fn measure_stream_reports_sane_numbers() {
        let cfg = FftHistConfig::new(16, 4);
        let stats = measure_stream(2, 1, |cx| run_fft_hist_dp(cx, &cfg));
        assert!(stats.throughput > 0.0);
        assert!(stats.latency > 0.0);
        assert!(stats.makespan >= stats.latency);
    }

    #[test]
    fn mapping_execution_handles_idle_processors() {
        use fx_mapping::Segment;
        let cfg = FftHistConfig::new(16, 4);
        let mapping = Mapping {
            modules: 1,
            segments: vec![Segment { first: 0, last: 2, procs: 3 }],
        };
        // 5 processors, 3 used, 2 idle.
        let rep = spmd(&paragon(5), |cx| run_fft_hist_mapping(cx, &cfg, &mapping));
        assert_eq!(rep.results.len(), 5);
        assert_eq!(rep.events_named(SET_DONE).len(), 4);
    }

    #[test]
    fn pipelined_mapping_executes() {
        use fx_mapping::Segment;
        let cfg = FftHistConfig::new(16, 6);
        let mapping = Mapping {
            modules: 2,
            segments: vec![
                Segment { first: 0, last: 1, procs: 2 },
                Segment { first: 2, last: 2, procs: 1 },
            ],
        };
        let rep = spmd(&paragon(6), |cx| run_fft_hist_mapping(cx, &cfg, &mapping));
        assert_eq!(rep.events_named(SET_DONE).len(), 6);
    }
}
