//! Table 1 of the paper: performance of data-parallel vs the best
//! task+data-parallel mapping on 64 (simulated) Paragon nodes.
//!
//! For each program the harness measures the pure data-parallel
//! throughput and latency, derives the throughput constraint from the
//! paper (the paper's constraint relative to *its* data-parallel
//! throughput, applied to ours — our simulated machine does not match the
//! 1996 testbed in absolute speed), searches the best task+data mapping,
//! runs it, and prints measured throughput/latency next to the paper's
//! original numbers.
//!
//! Run with: `cargo run --release -p fx-bench --bin table1`

use fx_apps::ffthist::FftHistConfig;
use fx_apps::radar::{radar_replicated, radar_stream, RadarConfig};
use fx_apps::stereo::{stereo_replicated, stereo_stream, StereoConfig};
use fx_bench::{
    fft_hist_chain_model, measure_stream, run_fft_hist_dp, run_fft_hist_mapping, StreamStats,
};
use fx_core::Cx;
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

#[allow(clippy::too_many_arguments)]
fn emit(
    paper: &PaperRow,
    dp: StreamStats,
    best: StreamStats,
    mapping: String,
) {
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

fn fft_hist_row(n: usize, paper: &PaperRow) {
    let cfg = FftHistConfig::new(n, 10);
    let dp = measure_stream(P, 2, |cx| run_fft_hist_dp(cx, &cfg));

    // Stage profiles measured on the simulator drive the optimizer.
    let model = fft_hist_chain_model(&FftHistConfig::new(n, 1), &PROFILE_POINTS);
    let constraint = dp.throughput * paper.constraint / paper.dp_thr;
    match relaxing_search(constraint, dp.throughput, |c| best_mapping(&model, P, Some(c))) {
        Some((used_c, ev)) => {
            let run_cfg = FftHistConfig { datasets: (3 * ev.mapping.modules).max(12), ..cfg };
            let best = measure_stream(P, ev.mapping.modules + 1, |cx| {
                run_fft_hist_mapping(cx, &run_cfg, &ev.mapping)
            });
            let mut label = ev.mapping.render(&model);
            if used_c < constraint {
                label.push_str(&format!(" (relaxed to {used_c:.1}/s)"));
            }
            emit(paper, dp, best, label);
        }
        None => {
            println!(
                "{} {}: no task mapping beats plain data parallelism here",
                paper.name, paper.size
            );
        }
    }
}

/// Power-of-two replication factors that divide the machine.
fn module_sizes() -> impl Iterator<Item = usize> {
    (0..).map(|k| 1usize << k).take_while(|&r| r <= P)
}

/// Latency-optimal replication factor among the probed module sizes,
/// subject to `r * module_throughput >= constraint`.
fn pick_replication(
    probes: &[(usize, StreamStats)],
    constraint: f64,
) -> Option<(usize, StreamStats)> {
    probes
        .iter()
        .filter(|(r, s)| s.throughput * *r as f64 >= constraint)
        .min_by(|a, b| a.1.latency.total_cmp(&b.1.latency))
        .copied()
}

fn radar_row(paper: &PaperRow) {
    let cfg = RadarConfig { datasets: 10, ..RadarConfig::paper() };
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    let dp = measure_stream(P, 2, |cx| {
        radar_stream(cx, &cfg, &sets);
    });
    let constraint = dp.throughput * paper.constraint / paper.dp_thr;
    let probe_sets: Vec<usize> = (0..4).collect();
    // Probe each module size once; reuse across relaxation steps.
    let probes: Vec<(usize, StreamStats)> = module_sizes()
        .map(|r| {
            let s = measure_stream(P / r, 1, |cx: &mut Cx| {
                radar_stream(cx, &cfg, &probe_sets);
            });
            (r, s)
        })
        .collect();
    match relaxing_search(constraint, dp.throughput, |c| pick_replication(&probes, c)) {
        Some((used_c, (r, _))) => {
            let run_cfg = RadarConfig { datasets: (3 * r).max(12), ..cfg };
            let best = measure_stream(P, r + 1, |cx| {
                radar_replicated(cx, &run_cfg, r);
            });
            let mut label = format!("{r}x [radar-dp:{}]", P / r);
            if used_c < constraint {
                label.push_str(&format!(" (relaxed to {used_c:.1}/s)"));
            }
            emit(paper, dp, best, label);
        }
        None => println!("Radar: no replication beats plain data parallelism"),
    }
}

fn stereo_row(paper: &PaperRow) {
    let cfg = StereoConfig { datasets: 8, ..StereoConfig::paper() };
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    let dp = measure_stream(P, 2, |cx| {
        stereo_stream(cx, &cfg, &sets);
    });
    let constraint = dp.throughput * paper.constraint / paper.dp_thr;
    let probe_sets: Vec<usize> = (0..3).collect();
    let probes: Vec<(usize, StreamStats)> = module_sizes()
        .map(|r| {
            let s = measure_stream(P / r, 1, |cx: &mut Cx| {
                stereo_stream(cx, &cfg, &probe_sets);
            });
            (r, s)
        })
        .collect();
    match relaxing_search(constraint, dp.throughput, |c| pick_replication(&probes, c)) {
        Some((used_c, (r, _))) => {
            let run_cfg = StereoConfig { datasets: (3 * r).max(8), ..cfg };
            let best = measure_stream(P, r + 1, |cx| {
                stereo_replicated(cx, &run_cfg, r);
            });
            let mut label = format!("{r}x [stereo-dp:{}]", P / r);
            if used_c < constraint {
                label.push_str(&format!(" (relaxed to {used_c:.1}/s)"));
            }
            emit(paper, dp, best, label);
        }
        None => println!("Stereo: no replication beats plain data parallelism"),
    }
}

fn main() {
    header();
    fft_hist_row(
        256,
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
    fft_hist_row(
        512,
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
    radar_row(&PaperRow {
        name: "Radar",
        size: "512x10x4",
        dp_thr: 23.4,
        dp_lat: 0.043,
        constraint: 50.0,
        best_thr: 70.2,
        best_lat: 0.043,
    });
    stereo_row(&PaperRow {
        name: "Stereo",
        size: "256x240",
        dp_thr: 3.64,
        dp_lat: 0.275,
        constraint: 10.0,
        best_thr: 11.67,
        best_lat: 0.514,
    });
}
