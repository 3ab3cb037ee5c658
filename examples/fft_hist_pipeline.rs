//! Figure 2 of the paper: FFT-Hist as a 3-stage data-parallel pipeline.
//!
//! A stream of complex images flows through column FFTs (subgroup G1),
//! row FFTs (G2) and histogramming (G3); the `A2 = A1` assignments in
//! parent scope carry each data set from stage to stage, and the minimal
//! processor subsets let the stages overlap on different data sets.
//!
//! Run with: `cargo run --release --example fft_hist_pipeline`
//!
//! Pass `--telemetry` (`… --example fft_hist_pipeline -- --telemetry`) to
//! attach the live metrics registry and write
//! `results/fft_hist_pipeline.om` (OpenMetrics), `.json`, and a flight
//! dump `.flight.txt` — the artifact set CI's telemetry-smoke job checks.

use std::sync::Arc;

use fx::apps::ffthist::{
    fft_hist_dp, fft_hist_pipeline, reference_histogram, FftHistConfig,
};
use fx::apps::util::{SET_DONE, SET_START};
use fx::prelude::*;
use fx::runtime::Telemetry;

fn main() {
    let cfg = FftHistConfig::new(64, 12);
    let mut machine = Machine::simulated(6, MachineModel::paragon());

    let telemetry = if std::env::args().any(|a| a == "--telemetry") {
        let t = Arc::new(Telemetry::new());
        machine = machine.with_telemetry(Arc::clone(&t));
        Some(t)
    } else {
        None
    };

    // The pipeline of Figure 2(c): G1(2), G2(3), G3(1).
    let pipe = spmd(&machine, |cx| fft_hist_pipeline(cx, &cfg, [2, 3, 1]));

    if let Some(t) = &telemetry {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write("results/fft_hist_pipeline.om", t.render_openmetrics())
            .expect("write OpenMetrics export");
        std::fs::write("results/fft_hist_pipeline.json", t.render_json())
            .expect("write JSON export");
        std::fs::write("results/fft_hist_pipeline.flight.txt", t.flight_dump())
            .expect("write flight dump");
        let total = t.total();
        println!(
            "telemetry: {} sends / {} recvs / {} region enters -> results/fft_hist_pipeline.{{om,json,flight.txt}}",
            total.sends, total.recvs, total.region_enters
        );
    }
    let thr = pipe.throughput(SET_DONE, 3);
    let lat = pipe.latency(SET_START, SET_DONE);
    println!("pipeline [2, 3, 1] on 6 procs: {thr:.2} sets/s, latency {lat:.4} s");

    // The same program without task parallelism (Figure 2(a)).
    let dp = spmd(&machine, |cx| fft_hist_dp(cx, &cfg));
    let dp_thr = dp.throughput(SET_DONE, 3);
    let dp_lat = dp.latency(SET_START, SET_DONE);
    println!("data parallel on 6 procs:      {dp_thr:.2} sets/s, latency {dp_lat:.4} s");
    println!("overlap factor (throughput x latency): {:.2}", thr * lat);

    // Results are identical to the sequential program (the model's
    // "semantically equivalent sequential program" property).
    let g3_results = pipe
        .results
        .iter()
        .find(|r| !r.is_empty())
        .expect("G3 members hold the histograms");
    for (d, h) in g3_results.iter().enumerate() {
        assert_eq!(h, &reference_histogram(&cfg, d), "dataset {d}");
    }
    println!("ok: {} histograms match the sequential reference", g3_results.len());
}
