//! The latency-throughput tradeoff curve underlying Figure 5
//! (Subhlok & Vondran, SPAA '96 — the paper's reference \[22], which the
//! paper uses to "automatically determine the best mapping of a program
//! for different performance goals").
//!
//! Prints the Pareto frontier of FFT-Hist mappings on 64 simulated
//! Paragon nodes, for both paper data-set sizes, and verifies a sample of
//! points against the simulator.
//!
//! Run with: `cargo run --release -p fx-bench --bin tradeoff`

use fx_apps::ffthist::FftHistConfig;
use fx_apps::stream::Stream;
use fx_bench::{chain_model, measure_stream, placement};
use fx_mapping::tradeoff_frontier;

const P: usize = 64;

fn main() {
    for n in [256usize, 512] {
        println!("FFT-Hist {n}x{n}: latency-throughput frontier on {P} simulated Paragon nodes");
        let stream = Stream::FftHist(FftHistConfig::new(n, 1));
        let model = chain_model(&stream, &[1, 2, 4, 8, 16, 32, 64]);
        let frontier = tradeoff_frontier(&model, P);
        println!(
            "{:>12} {:>12}   mapping",
            "thr sets/s", "latency s"
        );
        for point in &frontier {
            println!(
                "{:>12.2} {:>12.4}   {}",
                point.throughput,
                point.latency,
                point.mapping.render(&model)
            );
        }
        // Verify the endpoints against the simulator.
        for (label, point) in [
            ("latency-optimal", frontier.first().unwrap()),
            ("throughput-optimal", frontier.last().unwrap()),
        ] {
            let sets = (4 * point.mapping.modules).max(10);
            let meas = measure_stream(P, point.mapping.modules, |cx| {
                stream.run(cx, &placement(&point.mapping), sets)
            });
            println!(
                "  {label}: predicted {:.2}/s @ {:.4}s — simulated {:.2}/s @ {:.4}s",
                point.throughput, point.latency, meas.throughput, meas.latency
            );
        }
        println!();
    }
}
