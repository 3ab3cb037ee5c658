//! Cross-crate integration tests: whole programs through the full stack
//! (runtime → task model → distributed arrays → kernels → applications).

use fx::apps::airshed::{airshed_dp, reference_checksum, AirshedConfig};
use fx::apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx::apps::ffthist::{fft_hist_pipeline, reference_histogram, FftHistConfig};
use fx::apps::qsort::qsort_global;
use fx::apps::radar::{radar_dp, reference_detections, RadarConfig};
use fx::apps::stereo::{assemble_depth, reference_depth, stereo_dp, StereoConfig};
use fx::kernels::nbody::BhTree;
use fx::prelude::*;

/// Every application, end to end, against its sequential oracle, on one
/// machine size. (Per-app tests at more sizes live in `fx-apps`.)
#[test]
fn all_applications_match_their_oracles() {
    // FFT-Hist pipeline.
    let cfg = FftHistConfig::new(16, 3);
    let rep = spmd(&Machine::real(4), move |cx| fft_hist_pipeline(cx, &cfg, [1, 2, 1]));
    let hists = rep.results.iter().find(|r| !r.is_empty()).unwrap();
    for (d, h) in hists.iter().enumerate() {
        assert_eq!(h, &reference_histogram(&cfg, d));
    }

    // Radar.
    let rcfg = RadarConfig { ranges: 32, pulses: 8, datasets: 2, gain: 0.25, threshold: 0.6 };
    let rep = spmd(&Machine::real(4), move |cx| radar_dp(cx, &rcfg));
    for (d, &c) in rep.results[0].iter().enumerate() {
        assert_eq!(c, reference_detections(&rcfg, d));
    }

    // Stereo.
    let scfg = StereoConfig { rows: 16, cols: 32, n_match: 2, max_disp: 4, window: 1, datasets: 1 };
    let rep = spmd(&Machine::real(4), move |cx| stereo_dp(cx, &scfg));
    let tiles: Vec<Vec<u16>> =
        rep.results.iter().map(|r| r.first().map(|(_, t)| t.clone()).unwrap_or_default()).collect();
    assert_eq!(assemble_depth(&tiles, 16, 32), reference_depth(&scfg, 0));

    // Airshed.
    let acfg = AirshedConfig {
        gridpoints: 10,
        layers: 2,
        species: 3,
        hours: 1,
        nsteps: 1,
        input_seconds: 0.0,
        output_seconds: 0.0,
        chem_flops_per_cell: 1.0,
        trans_flops_per_cell: 1.0,
    };
    let rep = spmd(&Machine::real(2), move |cx| airshed_dp(cx, &acfg));
    let seq = reference_checksum(&acfg);
    assert!((rep.results[0] - seq).abs() < 1e-9 * seq.abs().max(1.0));

    // Quicksort.
    let keys: Vec<i64> = (0..300).map(|i: i64| (i * 37) % 101).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    let rep = spmd(&Machine::real(5), move |cx| qsort_global(cx, &keys));
    assert_eq!(rep.results[0], expect);

    // Barnes-Hut.
    let bodies = make_bodies(64, 9);
    let bcfg = BhConfig { n: 64, theta: 0.4, eps: 1e-3, k: 3, leaf_group: 1 };
    let rep = spmd(&Machine::real(4), move |cx| bh_forces(cx, &bodies, &bcfg));
    let tree = BhTree::build(make_bodies(64, 9));
    for (i, b) in tree.bodies.iter().enumerate() {
        let seq = tree.force_at(b.pos, 0.4, 1e-3).unwrap();
        // bh_forces returns input order; tree.bodies is tree order.
        let got = rep.results[0][tree.order[i]];
        for d in 0..3 {
            assert!((got[d] - seq[d]).abs() < 1e-9);
        }
    }
}

/// Virtual time is bit-identical across repeated simulated runs of a
/// nontrivial program (the determinism guarantee).
#[test]
fn simulated_runs_are_deterministic() {
    let run = || {
        let cfg = FftHistConfig::new(32, 4);
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), move |cx| {
            fft_hist_pipeline(cx, &cfg, [2, 3, 1]);
            cx.now()
        });
        rep.results
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual clocks must not depend on host scheduling");
}

/// The paper's headline behaviour, end to end: pipelined task parallelism
/// raises throughput over pure data parallelism for small data sets on
/// many processors, at some latency cost.
#[test]
fn task_parallelism_beats_data_parallelism_for_small_datasets() {
    use fx::apps::util::{SET_DONE, SET_START};
    let cfg = FftHistConfig::new(64, 10);
    let machine = Machine::simulated(12, MachineModel::paragon());
    let dp = spmd(&machine, move |cx| {
        fx::apps::ffthist::fft_hist_dp(cx, &cfg);
    });
    let pipe = spmd(&machine, move |cx| {
        fft_hist_pipeline(cx, &cfg, [4, 4, 4]);
    });
    let dp_thr = dp.throughput(SET_DONE, 2);
    let pipe_thr = pipe.throughput(SET_DONE, 3);
    assert!(
        pipe_thr > dp_thr,
        "pipeline should out-stream data parallelism: {pipe_thr} vs {dp_thr}"
    );
    let dp_lat = dp.latency(SET_START, SET_DONE);
    let pipe_lat = pipe.latency(SET_START, SET_DONE);
    assert!(pipe_lat > dp_lat, "pipelining trades latency: {pipe_lat} vs {dp_lat}");
}

/// Nested partitioning five levels deep still produces correct results
/// and balanced groups.
#[test]
fn deep_dynamic_nesting() {
    let rep = spmd(&Machine::real(16), |cx| {
        fn descend(cx: &mut Cx, depth: usize) -> u64 {
            if cx.nprocs() == 1 || depth == 0 {
                return cx.allreduce(1u64, |a, b| a + b);
            }
            let part = cx.task_partition(&[
                ("lo", Size::Procs(cx.nprocs() / 2)),
                ("hi", Size::Rest),
            ]);
            cx.task_region(&part, |cx, tr| {
                let a = tr.on(cx, "lo", |cx| descend(cx, depth - 1));
                let b = tr.on(cx, "hi", |cx| descend(cx, depth - 1));
                a.or(b).unwrap()
            })
        }
        descend(cx, 5)
    });
    // Every leaf group is a single processor → each contributes 1.
    assert!(rep.results.iter().all(|&v| v == 1));
}

/// Distributed arrays keep content across an arbitrary chain of
/// redistribution hops spanning subgroups.
#[test]
fn redistribution_chain_preserves_content() {
    let rep = spmd(&Machine::real(6), |cx| {
        let data: Vec<u64> = (0..97).map(|i| i * i).collect();
        let world = cx.group();
        let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Procs(3)), ("c", Size::Rest)]);
        let src = DArray1::from_global(cx, &world, data.len(), Dist1::Block, &data);
        let mut on_a = DArray1::new(cx, &part.group("a"), 97, Dist1::Cyclic, 0u64);
        let mut on_b = DArray1::new(cx, &part.group("b"), 97, Dist1::BlockCyclic(5), 0u64);
        let mut on_c = DArray1::new(cx, &part.group("c"), 97, Dist1::Block, 0u64);
        let mut back = DArray1::new(cx, &world, 97, Dist1::Block, 0u64);
        assign1(cx, &mut on_a, &src);
        assign1(cx, &mut on_b, &on_a);
        assign1(cx, &mut on_c, &on_b);
        assign1(cx, &mut back, &on_c);
        back.to_global(cx)
    });
    let expect: Vec<u64> = (0..97).map(|i| i * i).collect();
    for r in rep.results {
        assert_eq!(r, expect);
    }
}
