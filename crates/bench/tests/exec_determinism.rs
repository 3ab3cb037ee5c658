//! The determinism bar: a toggle that may not change a run does not.
//!
//! One test per benchmark binary (ablations, fig5_mappings, fig6_airshed,
//! machines, scaling, table1, tradeoff) plus the promotable loops, each
//! running a reduced-size but structurally faithful version of that
//! workload and returning its answer. Every cell of one workload is held
//! by [`RunReport::agrees_with`] to one baseline, run on one worker,
//! unobserved, with the dataflow and the heartbeat on:
//!
//! * workers {1, 2, P} × profiled × observed (causal tracing on and a
//!   telemetry registry attached): `Identical` — bit-identical virtual
//!   times, equal traffic, equal marks. Each cell is also held to the
//!   one-worker cell of every kind run before it, so profiled runs compare
//!   their duration events, traced or not, and traced runs their trace
//!   ids. Every processor starts a trace of its own, so a traced run
//!   adopts an id at each receive.
//! * the dataflow `Off`: the baseline is `Earlier` than it.
//! * the heartbeat off: the baseline gives the `SameAnswers`.
//!
//! A toggle's cell runs where the baseline exercised the toggle: it
//! elided a barrier, or one of its heartbeats fired. Elsewhere the flipped
//! run takes the baseline's every step, so it is the baseline again.
//!
//! Virtual time is a pure function of the program and the machine model —
//! message causality (`recv` takes the max of the local clock and the
//! arrival time) is the only coupling between processor clocks — so host
//! scheduling, profiling, tracing and telemetry must never leak into the
//! numbers, and a schedule toggle may move *when* a processor works, never
//! *what* it computes.
//!
//! Every toggle is set with an explicit builder call, never through the
//! `FX_*` environment, so the suite is safe under the parallel test
//! runner and under CI's toggle legs.

use std::fmt::Debug;
use std::sync::Arc;

use fx_apps::airshed::{airshed_dp, airshed_tp, AirshedConfig};
use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::ffthist::{fft_hist_dp, fft_hist_sets, FftHistConfig};
use fx_apps::qsort::{qsort_global, qsort_global_promoted};
use fx_apps::radar::RadarConfig;
use fx_apps::stereo::StereoConfig;
use fx_apps::stream::Stream;
use fx_apps::util::{make_plummer_bodies, Placement, Segments};
use fx_bench::{chain_model, paragon, placement};
use fx_core::{request_trace_id, spmd, Agreement, Cx, DataflowMode, Machine, MachineModel, RunReport};
use fx_darray::{assign1, DArray1, Dist1, Participation};
use fx_mapping::{fastest_for, tradeoff_frontier, Mapping, Segment};
use fx_runtime::{Executor, Telemetry};

/// `modules` replicas of a three-segment pipeline on `procs`.
fn pipeline(modules: usize, procs: [usize; 3]) -> Mapping {
    let segments = (0..3).map(|k| Segment { first: k, last: k, procs: procs[k] }).collect();
    Mapping { modules, segments }
}

/// Run `f` in every cell of the module doc and hold each to its rule.
/// Returns the baseline's report.
fn assert_cells<R, F>(label: &str, machine: &Machine, f: F) -> RunReport<R>
where
    R: PartialEq + Debug + Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    let pinned = |workers| {
        machine
            .clone()
            .with_executor(Executor::Pooled { workers })
            .with_dataflow(DataflowMode::On)
            .with_heartbeat(true)
            .with_tracing(false)
    };
    let agree = |rep: &RunReport<R>, base: &RunReport<R>, rule, cell: &str| {
        rep.agrees_with(base, rule).unwrap_or_else(|why| panic!("{label}, {cell}: {why}"));
    };
    let f = |cx: &mut Cx| {
        cx.set_trace(request_trace_id(cx.id()));
        f(cx)
    };
    // The baseline first, then the one-worker cell of each kind.
    let mut anchors = vec![spmd(&pinned(1), f)];
    for profiled in [false, true] {
        for observed in [false, true] {
            // 4096 is clamped to P: every processor on a preempted thread
            // of its own.
            for workers in [1, 2, 4096] {
                if (workers, profiled, observed) == (1, false, false) {
                    continue; // the baseline
                }
                let mut m = pinned(workers).with_profiling(profiled).with_tracing(observed);
                if observed {
                    m = m.with_telemetry(Arc::new(Telemetry::new()));
                }
                let rep = spmd(&m, f);
                let cell = format!("{workers} workers, profiled={profiled}, observed={observed}");
                for anchor in &anchors {
                    agree(&rep, anchor, Agreement::Identical, &cell);
                }
                if workers == 1 {
                    anchors.push(rep);
                }
            }
        }
    }
    let base = anchors.swap_remove(0);
    if base.total().barriers_elided > 0 {
        let off = spmd(&pinned(1).with_dataflow(DataflowMode::Off), f);
        agree(&base, &off, Agreement::Earlier, "dataflow off");
    }
    if base.promote_total().attempted > 0 {
        let off = spmd(&pinned(1).with_heartbeat(false), f);
        agree(&base, &off, Agreement::SameAnswers, "heartbeat off");
    }
    base
}

/// table1 flavor: the FFT-Hist data-parallel baseline and a replicated
/// pipelined mapping, the two program shapes every table row compares.
#[test]
fn table1_ffthist_dp_and_mapping() {
    let stream = Stream::FftHist(FftHistConfig::new(128, 1));
    assert_cells("table1/dp", &paragon(16), |cx| stream.run(cx, &Placement::data_parallel(16), 4));

    let mapping = Mapping { modules: 2, segments: vec![Segment { first: 0, last: 2, procs: 8 }] };
    assert_cells("table1/mapping", &paragon(16), |cx| stream.run(cx, &placement(&mapping), 6));
}

/// table1 flavor, the sensor rows: Radar and Stereo under a pipeline and
/// a replicated pipeline, the mappings whose stage hops cross groups (and
/// carry the trace contexts).
#[test]
fn table1_radar_and_stereo_mappings() {
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
            assert_cells(&format!("table1 {stream:?} {mapping:?}"), &paragon(12), |cx| {
                stream.run(cx, &placement(&mapping), 4)
            });
        }
    }
}

/// fig5 flavor: the pure data-parallel mapping and a pipelined mapping
/// with unequal stage assignment, as in the paper's mapping pictures.
#[test]
fn fig5_mapping_shapes() {
    let stream = Stream::FftHist(FftHistConfig::new(128, 1));
    let dp = Mapping { modules: 1, segments: vec![Segment { first: 0, last: 2, procs: 16 }] };
    assert_cells("fig5/dp-mapping", &paragon(16), |cx| stream.run(cx, &placement(&dp), 5));

    let pipelined = Mapping {
        modules: 1,
        segments: vec![
            Segment { first: 0, last: 0, procs: 4 },
            Segment { first: 1, last: 2, procs: 12 },
        ],
    };
    assert_cells("fig5/pipelined", &paragon(16), |cx| stream.run(cx, &placement(&pipelined), 5));
}

/// fig6 flavor: the Airshed model, data-parallel vs task-parallel vs the
/// mapping the search picks, on a reduced grid.
#[test]
fn fig6_airshed_variants() {
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
    assert_cells("fig6/dp", &paragon(8), move |cx| airshed_dp(cx, &cfg));
    assert_cells("fig6/tp", &paragon(8), move |cx| airshed_tp(cx, &cfg));
    let stream = Stream::Airshed(cfg);
    let best = fastest_for(&chain_model(&stream, &[1, 2, 4, 8]), 8, cfg.hours).mapping;
    assert_cells("fig6/best", &paragon(8), |cx| stream.run(cx, &placement(&best), cfg.hours));
}

/// ablations flavor: minimal-subset vs whole-group pipeline (chunked
/// deposits between stage subgroups), the owner-broadcast scalar loop,
/// and the exact-vs-naive redistribution.
#[test]
fn ablations_workloads() {
    let cfg = FftHistConfig::new(64, 4);
    for mode in [Participation::Minimal, Participation::WholeGroup] {
        assert_cells("ablations/pipeline", &paragon(12), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            fft_hist_sets(cx, &cfg, &Segments { mode, ..Segments::pipeline([4, 4, 4]) }, &sets)
        });
    }

    assert_cells("ablations/owner-broadcast", &paragon(8), |cx| {
        let mut acc = 0u64;
        for i in 0..100u64 {
            acc = acc.wrapping_add(cx.bcast(0, i));
        }
        acc
    });

    assert_cells("ablations/exact-assign", &paragon(8), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 4096, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 4096, Dist1::Block, 0.0f64);
        assign1(cx, &mut dst, &src);
        dst.local().to_vec()
    });
    assert_cells("ablations/naive-alltoall", &paragon(8), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 4096, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 4096, Dist1::Block, 0.0f64);
        let p = cx.nprocs();
        let me = cx.id();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); p];
        buckets[me] = src.local().to_vec();
        let got = cx.alltoallv(buckets);
        dst.local_mut().copy_from_slice(&got[me]);
        dst.local().to_vec()
    });
}

/// machines flavor: the same FFT-Hist programs on two machine models —
/// the calibrated Paragon and a modern low-latency network.
#[test]
fn machines_model_sensitivity() {
    for model in [MachineModel::paragon(), MachineModel::fast_network()] {
        let cfg = FftHistConfig::new(64, 4);
        assert_cells("machines/dp", &Machine::simulated(16, model), move |cx| fft_hist_dp(cx, &cfg));
        let rcfg = FftHistConfig::new(64, 6);
        assert_cells("machines/replicated", &Machine::simulated(16, model), move |cx| {
            Stream::FftHist(rcfg).run(cx, &Placement::replicated(2, Segments::fused(8)), rcfg.datasets)
        });
    }
}

/// scaling flavor: the dynamically nested applications — quicksort's
/// recursive group splitting and Barnes-Hut's replicated tree levels.
#[test]
fn scaling_nested_applications() {
    let keys: Vec<i64> = (0..4000).map(|i: i64| i.wrapping_mul(2654435761) % 100_000).collect();
    assert_cells("scaling/qsort", &paragon(8), move |cx| qsort_global(cx, &keys));

    let bodies = make_bodies(256, 5);
    let cfg = BhConfig { n: 256, theta: 0.4, eps: 1e-3, k: 3, leaf_group: 1 };
    assert_cells("scaling/barnes-hut", &paragon(8), move |cx| bh_forces(cx, &bodies, &cfg));
}

/// heartbeat flavor: promotable loops with donations genuinely in
/// flight. Promotion decisions are pure functions of virtual-time
/// values published through the board, so the worker count — and the
/// host interleaving it produces — must not change a single clock.
#[test]
fn heartbeat_promotable_workloads() {
    // Synthetic back-loaded ramp: donations guaranteed (asserted below).
    let ramp = |cx: &mut Cx| {
        cx.pdo_reduce_promote(
            "ramp",
            0..512,
            0.0f64,
            |cx, i| {
                cx.charge_flops(2000.0 + 20.0 * i as f64);
                (i as f64).sqrt()
            },
            |a, b| a + b,
        )
    };
    let rep = assert_cells("heartbeat/ramp", &paragon(8), ramp);
    assert!(rep.promote_total().taken > 0, "ramp fired no donations");

    // Quicksort's bucketed promotable base case on high-skewed keys.
    let keys: Vec<i64> = (0..6000)
        .map(|i: i64| {
            let u = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100_000.0;
            ((1.0 - u * u) * 1.0e9) as i64
        })
        .collect();
    assert_cells("heartbeat/qsort", &paragon(8), move |cx| qsort_global_promoted(cx, &keys, 8));

    // Barnes-Hut with the whole group as one promotable leaf.
    let bodies = make_plummer_bodies(256, 7);
    let cfg = BhConfig::new(256).with_leaf_group(8);
    assert_cells("heartbeat/barnes-hut", &paragon(8), move |cx| bh_forces(cx, &bodies, &cfg));
}

/// tradeoff flavor: run both endpoints of the latency-throughput
/// frontier that the mapping optimizer produces for a small machine.
#[test]
fn tradeoff_frontier_endpoints() {
    let stream = Stream::FftHist(FftHistConfig::new(64, 1));
    let model = chain_model(&stream, &[1, 2, 4, 8, 16]);
    let frontier = tradeoff_frontier(&model, 16);
    assert!(!frontier.is_empty(), "frontier must be non-empty");
    for (label, point) in [
        ("tradeoff/latency-optimal", frontier.first().unwrap()),
        ("tradeoff/throughput-optimal", frontier.last().unwrap()),
    ] {
        let sets = (2 * point.mapping.modules).max(6);
        assert_cells(label, &paragon(16), |cx| stream.run(cx, &placement(&point.mapping), sets));
    }
}
