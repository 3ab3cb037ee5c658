//! The zero-cost bar for causal tracing: every benchmark workload must
//! produce **bit-identical virtual times** with tracing on and off, on
//! both executors, profiled and unprofiled.
//!
//! One test per benchmark binary flavor (table1, fig5_mappings,
//! fig6_airshed, ablations, machines, scaling, tradeoff), each running
//! a reduced-size but structurally faithful version of that binary's
//! workload. Trace contexts piggyback on every message envelope and
//! are adopted on receive, but none of that ever charges the virtual
//! clock — these tests are what make that claim enforceable.
//!
//! Executors and tracing are selected with explicit builder calls,
//! never via `FX_EXECUTOR`/`FX_TRACE`, so the suite is safe under the
//! parallel test runner.

use fx_apps::airshed::{airshed_dp, AirshedConfig};
use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::ffthist::{fft_hist_dp, fft_hist_pipeline_sets, FftHistConfig};
use fx_apps::qsort::qsort_global;
use fx_apps::radar::RadarConfig;
use fx_apps::stereo::StereoConfig;
use fx_apps::util::Placement;
use fx_apps::stream::Stream;
use fx_bench::{chain_model, paragon, placement};
use fx_core::{spmd, Cx, Machine, MachineModel};
use fx_mapping::{fastest_for, tradeoff_frontier, Mapping, Segment};
use fx_runtime::{Event, Executor, Log};

fn bits(ts: &[f64]) -> Vec<u64> {
    ts.iter().map(|t| t.to_bits()).collect()
}

/// `modules` replicas of a three-segment pipeline on `procs`.
fn pipeline(modules: usize, procs: [usize; 3]) -> Mapping {
    let segments = (0..3).map(|k| Segment { first: k, last: k, procs: procs[k] }).collect();
    Mapping { modules, segments }
}

/// Run `f` with tracing off and on — under both executors, profiled
/// and unprofiled — and require bit-identical per-processor virtual
/// times plus identical traffic counters. The event logs must match too,
/// trace id aside: tracing annotates events, it never adds or merges
/// them differently.
fn assert_trace_free<R, F>(label: &str, base: &Machine, f: F)
where
    R: Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    for profiled in [false, true] {
        for exec in [Executor::Threaded, Executor::Pooled { workers: 2 }] {
            let m = base.clone().with_profiling(profiled).with_executor(exec);
            let off = spmd(&m.clone().with_tracing(false), &f);
            let on = spmd(&m.with_tracing(true), &f);
            assert_eq!(
                bits(&off.times),
                bits(&on.times),
                "{label}: tracing moved the virtual clock (profiled={profiled}, {exec:?})"
            );
            assert_eq!(
                off.traffic, on.traffic,
                "{label}: tracing changed traffic (profiled={profiled}, {exec:?})"
            );
            // Trace id aside, the logs are equal: the same events with the
            // same boundaries and labels.
            let untraced = |logs: &[Log]| -> Vec<Vec<Event>> {
                logs.iter().map(|l| l.events().iter().map(|e| Event { trace: 0, ..*e }).collect()).collect()
            };
            assert!(
                untraced(&off.logs) == untraced(&on.logs),
                "{label}: tracing changed the event logs (profiled={profiled}, {exec:?})"
            );
        }
    }
}

/// table1 flavor: FFT-Hist data-parallel baseline and a replicated
/// pipelined mapping.
#[test]
fn table1_tracing_is_vtime_free() {
    let stream = Stream::FftHist(FftHistConfig::new(128, 1));
    assert_trace_free("table1/dp", &paragon(16), |cx| {
        stream.run(cx, &Placement::data_parallel(16), 4)
    });

    let mapping = Mapping { modules: 2, segments: vec![Segment { first: 0, last: 2, procs: 8 }] };
    assert_trace_free("table1/mapping", &paragon(16), |cx| stream.run(cx, &placement(&mapping), 6));
}

/// table1 flavor, the sensor rows: Radar and Stereo under a pipeline and
/// a replicated pipeline, where trace contexts ride the stage hops.
#[test]
fn table1_radar_and_stereo_tracing_is_vtime_free() {
    let radar =
        Stream::Radar(RadarConfig { ranges: 64, pulses: 8, datasets: 4, gain: 0.25, threshold: 0.6 });
    let stereo = Stream::Stereo(StereoConfig {
        rows: 16,
        cols: 48,
        n_match: 2,
        max_disp: 4,
        window: 2,
        datasets: 4,
    });
    for mapping in [pipeline(1, [4, 6, 2]), pipeline(2, [2, 3, 1])] {
        for stream in [radar, stereo] {
            assert_trace_free(&format!("table1 {stream:?} {mapping:?}"), &paragon(12), |cx| {
                stream.run(cx, &placement(&mapping), 4)
            });
        }
    }
}

/// fig5 flavor: a pipelined mapping with unequal stage assignment.
#[test]
fn fig5_tracing_is_vtime_free() {
    let stream = Stream::FftHist(FftHistConfig::new(128, 1));
    let pipelined = Mapping {
        modules: 1,
        segments: vec![
            Segment { first: 0, last: 0, procs: 4 },
            Segment { first: 1, last: 2, procs: 12 },
        ],
    };
    assert_trace_free("fig5/pipelined", &paragon(16), |cx| stream.run(cx, &placement(&pipelined), 5));
}

/// fig6 flavor: the Airshed model, data-parallel and the mapping the
/// search picks.
#[test]
fn fig6_tracing_is_vtime_free() {
    let cfg = AirshedConfig {
        gridpoints: 600,
        layers: 2,
        species: 4,
        hours: 2,
        nsteps: 2,
        input_seconds: 0.4,
        output_seconds: 0.3,
        chem_flops_per_cell: 40.0,
        trans_flops_per_cell: 10.0,
    };
    assert_trace_free("fig6/dp", &paragon(8), move |cx| airshed_dp(cx, &cfg));
    let stream = Stream::Airshed(cfg);
    let best = fastest_for(&chain_model(&stream, &[1, 2, 4, 8]), 8, cfg.hours).mapping;
    assert_trace_free("fig6/best", &paragon(8), |cx| stream.run(cx, &placement(&best), cfg.hours));
}

/// ablations flavor: the minimal-subset pipeline, where trace contexts
/// ride chunked deposits between stage subgroups.
#[test]
fn ablations_tracing_is_vtime_free() {
    let cfg = FftHistConfig::new(64, 4);
    assert_trace_free("ablations/pipeline", &paragon(12), move |cx| {
        let sets: Vec<usize> = (0..cfg.datasets).collect();
        fft_hist_pipeline_sets(cx, &cfg, [4, 4, 4], &sets);
    });
}

/// machines flavor: the same program on a second machine model — the
/// piggyback must be free whatever the cost model.
#[test]
fn machines_tracing_is_vtime_free() {
    let cfg = FftHistConfig::new(64, 4);
    assert_trace_free(
        "machines/dp",
        &Machine::simulated(16, MachineModel::fast_network()),
        move |cx| {
            fft_hist_dp(cx, &cfg);
        },
    );
}

/// scaling flavor: the dynamically nested applications — recursive
/// group splitting and replicated tree levels.
#[test]
fn scaling_tracing_is_vtime_free() {
    let keys: Vec<i64> = (0..4000).map(|i: i64| i.wrapping_mul(2654435761) % 100_000).collect();
    assert_trace_free("scaling/qsort", &paragon(8), move |cx| {
        qsort_global(cx, &keys);
    });

    let bodies = make_bodies(256, 5);
    let cfg = BhConfig { n: 256, theta: 0.4, eps: 1e-3, k: 3, leaf_group: 1 };
    assert_trace_free("scaling/barnes-hut", &paragon(8), move |cx| {
        bh_forces(cx, &bodies, &cfg);
    });
}

/// tradeoff flavor: the latency-optimal endpoint of the mapping
/// optimizer's frontier.
#[test]
fn tradeoff_tracing_is_vtime_free() {
    let stream = Stream::FftHist(FftHistConfig::new(64, 1));
    let model = chain_model(&stream, &[1, 2, 4, 8, 16]);
    let frontier = tradeoff_frontier(&model, 16);
    let point = frontier.first().expect("frontier must be non-empty");
    let sets = (2 * point.mapping.modules).max(6);
    assert_trace_free("tradeoff/latency-optimal", &paragon(16), |cx| {
        stream.run(cx, &placement(&point.mapping), sets)
    });
}
