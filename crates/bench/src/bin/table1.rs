//! Table 1 of the paper: performance of data-parallel vs the best
//! task+data-parallel mapping on 64 (simulated) Paragon nodes.
//!
//! Every row takes the same path ([`row`]): measure the pure
//! data-parallel throughput and latency, derive the throughput constraint
//! from the paper (the paper's constraint relative to *its* data-parallel
//! throughput, applied to ours — our simulated machine does not match the
//! 1996 testbed in absolute speed), profile the program's three stages
//! into a chain model, search the latency-optimal mapping that meets the
//! constraint, run it, and print measured throughput/latency next to the
//! paper's original numbers.
//!
//! Run with: `cargo run --release -p fx-bench --bin table1`

use fx_apps::ffthist::FftHistConfig;
use fx_apps::radar::RadarConfig;
use fx_apps::stereo::StereoConfig;
use fx_apps::stream::Stream;
use fx_apps::util::Placement;
use fx_bench::{chain_model, measure_stream, placement, StreamStats};
use fx_mapping::best_mapping;

const P: usize = 64;
const PROFILE_POINTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The paper's Table 1 numbers: (DP throughput, DP latency, throughput
/// constraint, best throughput, best latency).
struct PaperRow {
    name: &'static str,
    size: &'static str,
    dp_thr: f64,
    dp_lat: f64,
    constraint: f64,
    best_thr: f64,
    best_lat: f64,
}

fn header() {
    println!("Table 1: data parallel vs best task+data parallel on {P} simulated Paragon nodes");
    println!("(constraints are the paper's, scaled by our DP throughput; see EXPERIMENTS.md)");
    println!();
    print_row(
        &[
            "Program".into(),
            "Size".into(),
            "DP thr/s".into(),
            "DP lat s".into(),
            "Constraint".into(),
            "Best thr/s".into(),
            "Best lat s".into(),
            "thr x".into(),
            "lat x".into(),
            "Mapping".into(),
        ],
        &WIDTHS,
    );
}

const WIDTHS: [usize; 10] = [10, 10, 9, 9, 10, 10, 10, 6, 6, 28];

/// A printed table row, paper-style.
fn print_row(cols: &[String], widths: &[usize]) {
    let line: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("{}", line.join("  "));
}

fn emit(paper: &PaperRow, dp: StreamStats, best: StreamStats, mapping: String) {
    print_row(
        &[
            paper.name.into(),
            paper.size.into(),
            format!("{:.2}", dp.throughput),
            format!("{:.3}", dp.latency),
            format!("{:.2}", dp.throughput * paper.constraint / paper.dp_thr),
            format!("{:.2}", best.throughput),
            format!("{:.3}", best.latency),
            format!("{:.2}", best.throughput / dp.throughput),
            format!("{:.2}", best.latency / dp.latency),
            mapping,
        ],
        &WIDTHS,
    );
    print_row(
        &[
            "  (paper)".into(),
            "".into(),
            format!("{:.2}", paper.dp_thr),
            format!("{:.3}", paper.dp_lat),
            format!("{:.2}", paper.constraint),
            format!("{:.2}", paper.best_thr),
            format!("{:.3}", paper.best_lat),
            format!("{:.2}", paper.best_thr / paper.dp_thr),
            format!("{:.2}", paper.best_lat / paper.dp_lat),
            "".into(),
        ],
        &WIDTHS,
    );
}

/// Try the paper-derived constraint; when our calibration makes it
/// infeasible, relax by 25% steps (never below the DP throughput itself)
/// and report the relaxation.
fn relaxing_search<T>(
    constraint: f64,
    floor: f64,
    mut search: impl FnMut(f64) -> Option<T>,
) -> Option<(f64, T)> {
    let mut c = constraint;
    loop {
        if let Some(found) = search(c) {
            return Some((c, found));
        }
        c *= 0.75;
        if c < floor {
            return None;
        }
    }
}

/// One Table 1 row: the data-parallel program on `dp_sets` data sets,
/// then the latency-optimal mapping the chain model finds for the
/// constraint, run on three sets a module, at least `min_run`.
fn row(stream: Stream, (dp_sets, min_run): (usize, usize), paper: &PaperRow) {
    let dp = measure_stream(P, 2, |cx| stream.run(cx, &Placement::data_parallel(P), dp_sets));
    let model = chain_model(&stream, &PROFILE_POINTS);
    let constraint = dp.throughput * paper.constraint / paper.dp_thr;
    match relaxing_search(constraint, dp.throughput, |c| best_mapping(&model, P, Some(c))) {
        Some((used_c, ev)) => {
            let sets = (3 * ev.mapping.modules).max(min_run);
            let best = measure_stream(P, ev.mapping.modules + 1, |cx| {
                stream.run(cx, &placement(&ev.mapping), sets)
            });
            let mut label = ev.mapping.render(&model);
            if used_c < constraint {
                label.push_str(&format!(" (relaxed to {used_c:.1}/s)"));
            }
            emit(paper, dp, best, label);
        }
        None => println!(
            "{} {}: no task mapping beats plain data parallelism here",
            paper.name, paper.size
        ),
    }
}

fn main() {
    header();
    row(
        Stream::FftHist(FftHistConfig::new(256, 1)),
        (10, 12),
        &PaperRow {
            name: "FFT-Hist",
            size: "256x256",
            dp_thr: 3.90,
            dp_lat: 0.256,
            constraint: 8.0,
            best_thr: 13.3,
            best_lat: 0.293,
        },
    );
    row(
        Stream::FftHist(FftHistConfig::new(512, 1)),
        (10, 12),
        &PaperRow {
            name: "FFT-Hist",
            size: "512x512",
            dp_thr: 1.99,
            dp_lat: 0.502,
            constraint: 2.0,
            best_thr: 2.48,
            best_lat: 0.807,
        },
    );
    row(
        Stream::Radar(RadarConfig::paper()),
        (10, 12),
        &PaperRow {
            name: "Radar",
            size: "512x10x4",
            dp_thr: 23.4,
            dp_lat: 0.043,
            constraint: 50.0,
            best_thr: 70.2,
            best_lat: 0.043,
        },
    );
    row(
        Stream::Stereo(StereoConfig::paper()),
        (8, 8),
        &PaperRow {
            name: "Stereo",
            size: "256x240",
            dp_thr: 3.64,
            dp_lat: 0.275,
            constraint: 10.0,
            best_thr: 11.67,
            best_lat: 0.514,
        },
    );
}
