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
//! This library holds the one path every Table 1 row takes: a program's
//! stage [`boundaries`], the one chain-model builder that profiles it
//! ([`chain_model`]), the one translation of an `fx-mapping` mapping into
//! the [`Placement`] the program runs under ([`placement`]), and
//! [`measure_stream`], which reads throughput and latency off a run.

pub mod sampler;

use fx_apps::stream::Stream;
use fx_apps::util::{Placement, Segments, SET_DONE, SET_START};
use fx_core::{spmd, Cx, Machine, MachineModel};
use fx_darray::Participation;
use fx_kernels::Complex;
use fx_mapping::{Boundary, ChainModel, Mapping, NetParams, StageProfile};
use fx_runtime::Log;

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
pub fn measure_stream<R, F>(p: usize, skip: usize, f: F) -> StreamStats
where
    R: Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    let rep = spmd(&paragon(p), |cx| f(cx));
    StreamStats {
        throughput: rep.throughput(SET_DONE, skip),
        latency: rep.latency(SET_START, SET_DONE),
        makespan: rep.makespan(),
    }
}

/// What crosses each of `stream`'s stage boundaries per data set. A
/// redistribution (FFT-Hist's transpose, Radar's corner turn) is an
/// all-to-all that happens even when its two stages share a group; an
/// aligned hop (same distribution both sides) is free when they do.
pub fn boundaries(stream: &Stream) -> [Boundary; 2] {
    let redistribution = |bytes| Boundary { bytes, all_to_all: true, fused_is_free: false };
    let aligned = |bytes| Boundary { bytes, all_to_all: false, fused_is_free: true };
    let complex = std::mem::size_of::<Complex>();
    match *stream {
        Stream::FftHist(c) => {
            let image = (c.n * c.n * complex) as f64;
            [redistribution(image), aligned(image)]
        }
        Stream::Radar(c) => {
            let dwell = (c.pulses * c.ranges * complex) as f64;
            [redistribution(dwell), aligned(dwell)]
        }
        Stream::Stereo(c) => {
            // One difference and one error image a disparity, both
            // (*, BLOCK).
            let images = (c.rows * c.cols * std::mem::size_of::<f32>() * c.max_disp) as f64;
            [aligned(images), aligned(images)]
        }
        Stream::Airshed(c) => {
            // One processor's whole array to (*, BLOCK, *) and back.
            let conc = (c.cells() * std::mem::size_of::<f64>()) as f64;
            [redistribution(conc), redistribution(conc)]
        }
    }
}

/// A searched mapping as the value the programs run under:
/// `mapping.modules` copies of its segments (Figure 3); processors it
/// leaves unused idle ([`run_mapped`](fx_apps::util::run_mapped)).
pub fn placement(mapping: &Mapping) -> Placement {
    let mut seg_of_stage = [0; 3];
    for (si, seg) in mapping.segments.iter().enumerate() {
        seg_of_stage[seg.first..=seg.last].fill(si);
    }
    let procs = mapping.segments.iter().map(|s| s.procs).collect();
    Placement::replicated(mapping.modules, Segments { seg_of_stage, procs, mode: Participation::Minimal })
}

/// The network of a simulated machine as the chain model prices it. The
/// chain charges each side of a transfer one per-message overhead, so the
/// machine must charge its sender and receiver alike.
pub fn net_params(m: &MachineModel) -> NetParams {
    assert_eq!(m.o_send, m.o_recv, "one o_msg prices both sides of a message");
    NetParams { sec_per_byte: m.gap_per_byte, o_msg: m.o_send, latency: m.latency }
}

/// Profile `stream` into the chain model the mapping search consumes. For
/// each `p` in `p_values` one data set runs through the program's own code
/// under `Placement::pipeline([p; 3])` on `3p` simulated Paragon nodes, so
/// stage `k` runs on `p` processors under its own `G{k+1}` scope, and
/// `T_k(p)` is read from the profiled event log ([`stage_time`]). The
/// boundaries are priced with the network of the machine profiled.
pub fn chain_model(stream: &Stream, p_values: &[usize]) -> ChainModel {
    let machine = MachineModel::paragon();
    let mut samples: [Vec<(usize, f64)>; 3] = Default::default();
    for &p in p_values {
        let profiled = Machine::simulated(3 * p, machine).with_profiling(true);
        let rep = spmd(&profiled, |cx| stream.run(cx, &Placement::pipeline([p; 3]), 1));
        for (k, s) in samples.iter_mut().enumerate() {
            s.push((p, stage_time(&rep.logs, &format!("G{}", k + 1)).max(1e-9)));
        }
    }
    let stages = samples.into_iter().zip(stream.stages()).enumerate();
    let stages = stages.map(|(k, (s, name))| StageProfile {
        carries_state: matches!(stream, Stream::Airshed(_)) && k == 1,
        ..StageProfile::from_samples(name, s)
    });
    let stages = stages.collect();
    ChainModel::new(stages, boundaries(stream).to_vec(), net_params(&machine))
}

/// Virtual seconds a stage takes, from the logs of a run that enters its
/// scope `scope` the same number of times on each of its processors (once,
/// or once a disparity for Stereo). Entry `j` lasts from the last member's
/// first event in it to the last member's last event — a barrier-bracketed
/// stopwatch: a wait inside the entry (a collective's) counts, the skew its
/// members arrive with (the hop's, priced by the boundary) does not — and
/// the stage's time is the entries' sum.
fn stage_time(logs: &[Log], scope: &str) -> f64 {
    let entries: Vec<Vec<(f64, f64)>> = logs.iter().map(|log| log.entries_under(scope)).collect();
    let n = entries.iter().map(Vec::len).max().unwrap_or(0);
    let last = |j| {
        let windows = entries.iter().filter_map(|e| e.get(j));
        windows.fold((0.0f64, 0.0f64), |(s, e), &(a, b)| (s.max(a), e.max(b)))
    };
    (0..n).map(last).map(|(s, e)| e - s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_apps::airshed::{airshed_dp, airshed_tp, AirshedConfig};
    use fx_apps::ffthist::FftHistConfig;
    use fx_apps::radar::RadarConfig;
    use fx_apps::stereo::StereoConfig;
    use fx_mapping::{fastest_for, Segment};

    fn small_streams() -> [Stream; 3] {
        [
            Stream::FftHist(FftHistConfig::new(128, 1)),
            Stream::Radar(RadarConfig { datasets: 1, ..RadarConfig::paper() }),
            Stream::Stereo(StereoConfig { datasets: 1, ..StereoConfig::paper() }),
        ]
    }

    #[test]
    fn chain_model_profiles_decrease_with_processors() {
        // Per program: the stages that must scale, and each boundary's
        // (all_to_all, fused_is_free). A stage bound by a reduction on a
        // small image — FFT-Hist's histogram, Radar's detection count —
        // may not scale (that is the non-scalability the paper's mappings
        // exploit), nor may Airshed's serial I/O. A redistribution (the
        // transpose, the corner turn, Airshed's scatter and gather) is
        // all-to-all and costs even fused; an aligned hop is free fused.
        let redistribution = (true, false);
        let aligned = (false, true);
        for stream in small_streams().into_iter().chain([small_airshed()]) {
            let (scaling, kinds) = match stream {
                Stream::FftHist(_) => (0..2, [redistribution, aligned]),
                Stream::Radar(_) => (0..2, [redistribution, aligned]),
                Stream::Stereo(_) => (0..3, [aligned, aligned]),
                Stream::Airshed(_) => (1..2, [redistribution, redistribution]),
            };
            let model = chain_model(&stream, &[1, 2, 4]);
            assert_eq!(model.stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), stream.stages());
            assert!(model.stages.iter().all(|s| s.time(1) > 0.0), "{stream:?}");
            for stage in &model.stages[scaling] {
                assert!(
                    stage.time(1) > stage.time(4),
                    "{stream:?}: {} does not scale: {} vs {}",
                    stage.name,
                    stage.time(1),
                    stage.time(4)
                );
            }
            let declared = model.boundaries.iter().map(|b| (b.all_to_all, b.fused_is_free));
            assert_eq!(declared.collect::<Vec<_>>(), kinds, "{stream:?}");
            // Only Airshed's concentrations carry from one data set on.
            let carried: Vec<bool> = model.stages.iter().map(|s| s.carries_state).collect();
            assert_eq!(carried, [false, matches!(stream, Stream::Airshed(_)), false], "{stream:?}");
        }
    }

    fn small_airshed() -> Stream {
        Stream::Airshed(AirshedConfig { gridpoints: 240, ..AirshedConfig::paper() })
    }

    #[test]
    fn searched_airshed_mapping_never_loses_to_either() {
        // The fastest frontier mapping of Figure 6's chain, run for the
        // day's hours, against the two named mappings.
        let cfg = AirshedConfig {
            gridpoints: 64,
            layers: 2,
            species: 4,
            hours: 2,
            nsteps: 2,
            input_seconds: 0.4,
            output_seconds: 0.4,
            chem_flops_per_cell: 2000.0,
            trans_flops_per_cell: 200.0,
        };
        let stream = Stream::Airshed(cfg);
        let model = chain_model(&stream, &[1, 2, 4, 8, 16]);
        let makespan = |p, f: &(dyn Fn(&mut Cx) + Sync)| spmd(&paragon(p), |cx| f(cx)).makespan();
        for p in [4usize, 8, 16] {
            let best = fastest_for(&model, p, cfg.hours).mapping;
            assert_eq!(best.modules, 1, "p={p}: hours carry state");
            let t_dp = makespan(p, &|cx| {
                airshed_dp(cx, &cfg);
            });
            let t_tp = makespan(p, &|cx| {
                airshed_tp(cx, &cfg);
            });
            let t_best = makespan(p, &|cx| {
                stream.run(cx, &placement(&best), cfg.hours);
            });
            assert!(
                t_best <= t_dp.min(t_tp) * 1.05,
                "p={p}: {} takes {t_best:.3}, min(dp {t_dp:.3}, tp {t_tp:.3})",
                best.render(&model)
            );
        }
    }

    #[test]
    fn net_params_are_the_machine_models() {
        // `NetParams::paragon()` is a constant in fx-mapping; it must stay
        // the simulated Paragon's network.
        let (p, m) = (NetParams::paragon(), net_params(&MachineModel::paragon()));
        assert_eq!((p.sec_per_byte, p.o_msg, p.latency), (1.0 / 30e6, 300e-6, 60e-6));
        assert_eq!((p.sec_per_byte, p.o_msg, p.latency), (m.sec_per_byte, m.o_msg, m.latency));
        for m in [MachineModel::paragon(), MachineModel::fast_network(), MachineModel::zero_comm(1e-7)] {
            assert_eq!(m.o_send, m.o_recv, "{m:?} folds two overheads into one o_msg");
            let n = net_params(&m);
            assert_eq!((n.sec_per_byte, n.o_msg, n.latency), (m.gap_per_byte, m.o_send, m.latency));
        }
    }

    #[test]
    fn measure_stream_reports_sane_numbers() {
        let stream = Stream::FftHist(FftHistConfig::new(16, 4));
        let stats = measure_stream(2, 1, |cx| stream.run(cx, &Placement::data_parallel(2), 4));
        assert!(stats.throughput > 0.0);
        assert!(stats.latency > 0.0);
        assert!(stats.makespan >= stats.latency);
    }

    #[test]
    fn mapping_execution_handles_idle_processors() {
        let mapping = Mapping {
            modules: 1,
            segments: vec![Segment { first: 0, last: 2, procs: 3 }],
        };
        // 5 processors, 3 used, 2 idle.
        for stream in small_streams() {
            let rep = spmd(&paragon(5), |cx| stream.run(cx, &placement(&mapping), 2));
            assert_eq!(rep.results.len(), 5);
            assert_eq!(rep.events_named(SET_DONE).len(), 2, "{stream:?}");
        }
    }

    #[test]
    fn pipelined_mapping_executes() {
        let mapping = Mapping {
            modules: 2,
            segments: vec![
                Segment { first: 0, last: 1, procs: 2 },
                Segment { first: 2, last: 2, procs: 1 },
            ],
        };
        for stream in small_streams() {
            let rep = spmd(&paragon(6), |cx| stream.run(cx, &placement(&mapping), 3));
            assert_eq!(rep.events_named(SET_DONE).len(), 3, "{stream:?}");
        }
    }
}
