//! The determinism bar for the executor: every benchmark workload must
//! produce **bit-identical virtual times** on one worker, on two and on
//! one worker per processor, profiled and unprofiled.
//!
//! One test per benchmark binary (ablations, fig5_mappings,
//! fig6_airshed, machines, scaling, table1, tradeoff), each running a
//! reduced-size but structurally faithful version of that binary's
//! workload. Virtual time in the simulator is a pure function of the
//! program and the machine model — message causality (`recv` takes the
//! max of the local clock and the arrival time) is the only coupling
//! between processor clocks — so host scheduling must never leak into
//! the numbers. These tests are what make that claim enforceable.
//!
//! Worker counts are selected with explicit `with_executor` calls, never
//! via `FX_WORKERS`, so the suite is safe under the parallel test runner.

use fx_apps::airshed::{airshed_dp, airshed_tp, AirshedConfig};
use fx_apps::ffthist::{fft_hist_dp, fft_hist_sets, FftHistConfig};
use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::qsort::{qsort_global, qsort_global_promoted};
use fx_apps::radar::RadarConfig;
use fx_apps::stereo::StereoConfig;
use fx_apps::util::{make_plummer_bodies, Placement, Segments};
use fx_apps::stream::Stream;
use fx_bench::{chain_model, paragon, placement};
use fx_core::{spmd, Cx, Machine, MachineModel};
use fx_darray::{assign1, DArray1, Dist1, Participation};
use fx_mapping::{fastest_for, tradeoff_frontier, Mapping, Segment};
use fx_runtime::Executor;

fn bits(ts: &[f64]) -> Vec<u64> {
    ts.iter().map(|t| t.to_bits()).collect()
}

/// `modules` replicas of a three-segment pipeline on `procs`.
fn pipeline(modules: usize, procs: [usize; 3]) -> Mapping {
    let segments = (0..3).map(|k| Segment { first: k, last: k, procs: procs[k] }).collect();
    Mapping { modules, segments }
}

/// Run `f` on one worker, on two (fewer than the processor counts used
/// here, so coroutines genuinely multiplex and migrate) and on one worker
/// per processor (4096 is clamped to P: every processor on a preempted
/// thread of its own), profiled and unprofiled, and require bit-identical
/// per-processor virtual times plus identical traffic counters and equal
/// event logs.
fn assert_bitwise<R, F>(label: &str, base: &Machine, f: F)
where
    R: Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    for profiled in [false, true] {
        let m = base.clone().with_profiling(profiled);
        let one = spmd(&m.clone().with_executor(Executor::Pooled { workers: 1 }), &f);
        for workers in [2, 4096] {
            let other = spmd(&m.clone().with_executor(Executor::Pooled { workers }), &f);
            let at = format!("{workers} workers against 1, profiled={profiled}");
            assert_eq!(bits(&one.times), bits(&other.times), "{label}: virtual times diverged, {at}");
            assert_eq!(one.traffic, other.traffic, "{label}: per-processor traffic diverged, {at}");
            assert_eq!(one.undelivered, other.undelivered, "{label}: undelivered-message count diverged, {at}");
            // The log is a pure function of the program: the marks always,
            // the duration events too under profiling.
            assert!(one.logs == other.logs, "{label}: event logs diverged, {at}");
        }
    }
}

/// table1 flavor: the FFT-Hist data-parallel baseline and a replicated
/// pipelined mapping, the two program shapes every table row compares.
#[test]
fn table1_ffthist_dp_and_mapping() {
    let stream = Stream::FftHist(FftHistConfig::new(128, 1));
    assert_bitwise("table1/dp", &paragon(16), |cx| {
        stream.run(cx, &Placement::data_parallel(16), 4)
    });

    let mapping =
        Mapping { modules: 2, segments: vec![Segment { first: 0, last: 2, procs: 8 }] };
    assert_bitwise("table1/mapping", &paragon(16), |cx| stream.run(cx, &placement(&mapping), 6));
}

/// table1 flavor, the sensor rows: Radar and Stereo under a pipeline and
/// a replicated pipeline, the mappings whose stage hops cross groups.
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
            assert_bitwise(&format!("table1 {stream:?} {mapping:?}"), &paragon(12), |cx| {
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
    assert_bitwise("fig5/dp-mapping", &paragon(16), |cx| stream.run(cx, &placement(&dp), 5));

    let pipelined = Mapping {
        modules: 1,
        segments: vec![
            Segment { first: 0, last: 0, procs: 4 },
            Segment { first: 1, last: 2, procs: 12 },
        ],
    };
    assert_bitwise("fig5/pipelined", &paragon(16), |cx| stream.run(cx, &placement(&pipelined), 5));
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
    assert_bitwise("fig6/dp", &paragon(8), move |cx| airshed_dp(cx, &cfg));
    assert_bitwise("fig6/tp", &paragon(8), move |cx| airshed_tp(cx, &cfg));
    let stream = Stream::Airshed(cfg);
    let best = fastest_for(&chain_model(&stream, &[1, 2, 4, 8]), 8, cfg.hours).mapping;
    assert_bitwise("fig6/best", &paragon(8), |cx| stream.run(cx, &placement(&best), cfg.hours));
}

/// ablations flavor: minimal-subset vs whole-group pipeline, the
/// owner-broadcast scalar loop, and the exact-vs-naive redistribution.
#[test]
fn ablations_workloads() {
    let cfg = FftHistConfig::new(64, 4);
    for mode in [Participation::Minimal, Participation::WholeGroup] {
        assert_bitwise("ablations/pipeline", &paragon(12), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            fft_hist_sets(cx, &cfg, &Segments { mode, ..Segments::pipeline([4, 4, 4]) }, &sets);
        });
    }

    assert_bitwise("ablations/owner-broadcast", &paragon(8), |cx| {
        let mut acc = 0u64;
        for i in 0..100u64 {
            acc = acc.wrapping_add(cx.bcast(0, i));
        }
        let _ = acc;
        cx.now()
    });

    assert_bitwise("ablations/exact-assign", &paragon(8), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 4096, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 4096, Dist1::Block, 0.0f64);
        assign1(cx, &mut dst, &src);
        cx.now()
    });
    assert_bitwise("ablations/naive-alltoall", &paragon(8), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 4096, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 4096, Dist1::Block, 0.0f64);
        let p = cx.nprocs();
        let me = cx.id();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); p];
        buckets[me] = src.local().to_vec();
        let got = cx.alltoallv(buckets);
        dst.local_mut().copy_from_slice(&got[me]);
        cx.now()
    });
}

/// machines flavor: the same FFT-Hist programs on two machine models —
/// the calibrated Paragon and a modern low-latency network.
#[test]
fn machines_model_sensitivity() {
    for model in [MachineModel::paragon(), MachineModel::fast_network()] {
        let cfg = FftHistConfig::new(64, 4);
        assert_bitwise("machines/dp", &Machine::simulated(16, model), move |cx| {
            fft_hist_dp(cx, &cfg);
        });
        let rcfg = FftHistConfig::new(64, 6);
        assert_bitwise("machines/replicated", &Machine::simulated(16, model), move |cx| {
            Stream::FftHist(rcfg).run(cx, &Placement::replicated(2, Segments::fused(8)), rcfg.datasets);
        });
    }
}

/// scaling flavor: the dynamically nested applications — quicksort's
/// recursive group splitting and Barnes-Hut's replicated tree levels.
#[test]
fn scaling_nested_applications() {
    let keys: Vec<i64> =
        (0..4000).map(|i: i64| i.wrapping_mul(2654435761) % 100_000).collect();
    assert_bitwise("scaling/qsort", &paragon(8), move |cx| {
        qsort_global(cx, &keys);
    });

    let bodies = make_bodies(256, 5);
    let cfg = BhConfig { n: 256, theta: 0.4, eps: 1e-3, k: 3, leaf_group: 1 };
    assert_bitwise("scaling/barnes-hut", &paragon(8), move |cx| {
        bh_forces(cx, &bodies, &cfg);
    });
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
    assert_bitwise("heartbeat/ramp", &paragon(8).with_heartbeat(true), ramp);
    let rep = spmd(&paragon(8).with_heartbeat(true), ramp);
    assert!(rep.promote_total().taken > 0, "ramp fired no donations");

    // Quicksort's bucketed promotable base case on high-skewed keys.
    let keys: Vec<i64> = (0..6000)
        .map(|i: i64| {
            let u = (i.wrapping_mul(2654435761) % 100_000) as f64 / 100_000.0;
            ((1.0 - u * u) * 1.0e9) as i64
        })
        .collect();
    assert_bitwise("heartbeat/qsort", &paragon(8).with_heartbeat(true), move |cx| {
        qsort_global_promoted(cx, &keys, 8);
    });

    // Barnes-Hut with the whole group as one promotable leaf.
    let bodies = make_plummer_bodies(256, 7);
    let cfg = BhConfig::new(256).with_leaf_group(8);
    assert_bitwise("heartbeat/barnes-hut", &paragon(8).with_heartbeat(true), move |cx| {
        bh_forces(cx, &bodies, &cfg);
    });
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
        assert_bitwise(label, &paragon(16), |cx| stream.run(cx, &placement(&point.mapping), sets));
    }
}
