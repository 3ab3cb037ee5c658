//! Regression tests for the optimizer's predictive power: the chain
//! model's predicted throughput/latency must track the simulator within
//! a modest factor for representative mappings of every Table 1 program
//! and of Figure 6's Airshed,
//! each profiled by the one builder (`chain_model`) and run by the one
//! runner (`Stream::run` under the mapping's `placement`). (The Figure 5 harness showed ≤ 5% error for
//! the data-parallel and pipelined points; these tests pin a looser bound
//! so refactors cannot silently decouple the model from the machine.)

use fx_apps::airshed::AirshedConfig;
use fx_apps::ffthist::FftHistConfig;
use fx_apps::radar::RadarConfig;
use fx_apps::stereo::StereoConfig;
use fx_apps::stream::Stream;
use fx_bench::{chain_model, measure_stream, placement};
use fx_mapping::{evaluate, Mapping, Segment};

const P: usize = 8;

fn check(stream: Stream, mapping: Mapping, thr_tol: f64, lat_tol: f64) {
    let model = chain_model(&stream, &[1, 2, 4, 8]);
    let pred = evaluate(&model, &mapping);
    let sets = (6 * mapping.modules).max(12);
    let meas = measure_stream(P, 2 * mapping.modules, |cx| stream.run(cx, &placement(&mapping), sets));
    let thr_ratio = meas.throughput / pred.throughput;
    let lat_ratio = meas.latency / pred.latency;
    let shown = mapping.render(&model);
    assert!(
        (1.0 / thr_tol..=thr_tol).contains(&thr_ratio),
        "{shown}: throughput prediction off: predicted {:.2}, measured {:.2} (ratio {thr_ratio:.2})",
        pred.throughput,
        meas.throughput
    );
    assert!(
        (1.0 / lat_tol..=lat_tol).contains(&lat_ratio),
        "{shown}: latency prediction off: predicted {:.4}, measured {:.4} (ratio {lat_ratio:.2})",
        pred.latency,
        meas.latency
    );
}

fn fft_hist() -> Stream {
    Stream::FftHist(FftHistConfig::new(64, 1))
}

fn radar() -> Stream {
    Stream::Radar(RadarConfig::paper())
}

fn stereo() -> Stream {
    Stream::Stereo(StereoConfig::paper())
}

fn data_parallel() -> Mapping {
    Mapping { modules: 1, segments: vec![Segment { first: 0, last: 2, procs: P }] }
}

/// The first two stages fused on 5 processors, the third on 3.
fn two_segments() -> Mapping {
    Mapping {
        modules: 1,
        segments: vec![Segment { first: 0, last: 1, procs: 5 }, Segment { first: 2, last: 2, procs: 3 }],
    }
}

#[test]
fn data_parallel_prediction_tracks_simulation() {
    check(fft_hist(), data_parallel(), 1.3, 1.3);
}

#[test]
fn pipeline_prediction_tracks_simulation() {
    check(fft_hist(), two_segments(), 1.5, 1.5);
}

#[test]
fn replicated_prediction_tracks_simulation() {
    // Replication predictions are conservative (direct-deposit overlap
    // between consecutive data sets is unmodeled), so allow more slack
    // on the high side.
    check(
        fft_hist(),
        Mapping { modules: 2, segments: vec![Segment { first: 0, last: 2, procs: 4 }] },
        1.8,
        1.5,
    );
}

#[test]
fn radar_predictions_track_simulation() {
    check(radar(), data_parallel(), 1.3, 1.3);
    check(radar(), two_segments(), 1.5, 1.5);
}

#[test]
fn stereo_predictions_track_simulation() {
    check(stereo(), data_parallel(), 1.3, 1.3);
    check(stereo(), two_segments(), 1.5, 1.5);
}

/// Figure 6's objective: `sets` data sets in order, predicted to take
/// latency + (sets − 1) / throughput, against the simulated makespan. A
/// pipeline whose first stage is its fastest runs ahead of the rest, so a
/// data set's measured latency there includes queueing the model does
/// not price; the makespan does not.
fn check_makespan(stream: Stream, mapping: Mapping, tol: f64) {
    let model = chain_model(&stream, &[1, 2, 4, 8]);
    let pred = evaluate(&model, &mapping);
    let sets = 12;
    let meas = measure_stream(P, 2, |cx| stream.run(cx, &placement(&mapping), sets));
    let predicted = pred.latency + (sets - 1) as f64 / pred.throughput;
    let shown = mapping.render(&model);
    for (what, p, m) in [("throughput", pred.throughput, meas.throughput), ("makespan", predicted, meas.makespan)] {
        assert!(
            (1.0 / tol..=tol).contains(&(m / p)),
            "{shown}: {what} prediction off: predicted {p:.3}, measured {m:.3} (ratio {:.2})",
            m / p
        );
    }
}

#[test]
fn airshed_predictions_track_simulation() {
    // Figure 6's problem on a quarter of its grid points (a debug run
    // stays short). Profiled on hour 0 (the base step count); the run's
    // twelve hours vary around it (`nsteps_for`). Fused, each I/O phase's one-owner
    // array is scattered and gathered inside the segment; `[1, P − 2, 1]`
    // is Figure 6's task-parallel mapping, whose input runs ahead.
    let airshed = Stream::Airshed(AirshedConfig { gridpoints: 640, ..AirshedConfig::paper() });
    check(airshed, data_parallel(), 1.3, 1.3);
    let io_apart = Mapping {
        modules: 1,
        segments: vec![
            Segment { first: 0, last: 0, procs: 1 },
            Segment { first: 1, last: 1, procs: P - 2 },
            Segment { first: 2, last: 2, procs: 1 },
        ],
    };
    check_makespan(airshed, io_apart, 1.5);
}
