//! Figure 5 of the paper: mappings of a 512x512 FFT-Hist program on 64
//! (simulated) Paragon nodes, as the minimum-throughput requirement
//! rises.
//!
//! The paper shows three mappings: the pure data-parallel one (optimal
//! for latency alone), and latency-optimized mappings with minimum
//! throughput 2 and 4 data sets/second — which turn into modules of
//! pipelined stages with unequal processor counts. The paper's absolute
//! constraints are scaled by the ratio of our measured data-parallel
//! throughput to the paper's (1.99/s).
//!
//! Run with: `cargo run --release -p fx-bench --bin fig5_mappings`

use fx_apps::ffthist::FftHistConfig;
use fx_apps::stream::Stream;
use fx_bench::{chain_model, measure_stream, placement};
use fx_mapping::{best_mapping, evaluate, max_throughput_mapping, Mapping, Segment};

const P: usize = 64;
const N: usize = 512;
const PAPER_DP_THR: f64 = 1.99;

fn sketch(mapping: &Mapping) -> String {
    // A rough ASCII rendition of the paper's processor-grid pictures.
    let mut lines = Vec::new();
    let shown = mapping.modules.min(3);
    for module in 0..shown {
        let segs: Vec<String> = mapping
            .segments
            .iter()
            .map(|s: &Segment| {
                let stages = s.last - s.first + 1;
                format!("[{} procs / {} stage{}]", s.procs, stages, if stages > 1 { "s" } else { "" })
            })
            .collect();
        lines.push(format!("  module {}: {}", module + 1, segs.join(" -> ")));
    }
    if mapping.modules > shown {
        lines.push(format!("  ... ({} modules total)", mapping.modules));
    }
    lines.join("\n")
}

fn main() {
    println!("Figure 5: mappings of a {N}x{N} FFT-Hist program on {P} simulated Paragon nodes");
    println!();

    let stream = Stream::FftHist(FftHistConfig::new(N, 1));
    let model = chain_model(&stream, &[1, 2, 4, 8, 16, 32, 64]);

    // Baseline: the pure data-parallel mapping (minimum latency, no
    // throughput requirement).
    let dp_mapping = Mapping {
        modules: 1,
        segments: vec![Segment { first: 0, last: 2, procs: P }],
    };
    let dp_pred = evaluate(&model, &dp_mapping);
    let dp_thr = dp_pred.throughput;
    let ceiling = max_throughput_mapping(&model, P);
    println!(
        "predicted data-parallel throughput: {dp_thr:.2} sets/s; ceiling {:.2} sets/s via {}",
        ceiling.throughput,
        ceiling.mapping.render(&model)
    );
    println!();

    // Paper constraints (2 and 4 sets/s against its 1.99/s data-parallel
    // baseline) scaled to our machine: constraint / paper_dp x our_dp.
    for (label, paper_constraint) in [
        ("no throughput requirement (latency only)", None),
        ("min throughput = 2 (paper units)", Some(2.0)),
        ("min throughput = 4 (paper units)", Some(4.0)),
    ] {
        let scaled = paper_constraint.map(|c| c / PAPER_DP_THR * dp_thr);
        match best_mapping(&model, P, scaled) {
            Some(ev) => {
                let sets = (3 * ev.mapping.modules).max(10);
                let meas = measure_stream(P, ev.mapping.modules + 1, |cx| {
                    stream.run(cx, &placement(&ev.mapping), sets)
                });
                println!("{label}:");
                println!("  mapping    : {}", ev.mapping.render(&model));
                println!(
                    "  predicted  : {:.2} sets/s at {:.3} s latency",
                    ev.throughput, ev.latency
                );
                println!(
                    "  measured   : {:.2} sets/s at {:.3} s latency",
                    meas.throughput, meas.latency
                );
                println!("{}", sketch(&ev.mapping));
            }
            None => {
                println!(
                    "{label}: infeasible on this machine; running the throughput ceiling instead"
                );
                let sets = (4 * ceiling.mapping.modules).max(10);
                let meas = measure_stream(P, ceiling.mapping.modules, |cx| {
                    stream.run(cx, &placement(&ceiling.mapping), sets)
                });
                println!("  mapping    : {}", ceiling.mapping.render(&model));
                println!(
                    "  predicted  : {:.2} sets/s at {:.3} s latency",
                    ceiling.throughput, ceiling.latency
                );
                println!(
                    "  measured   : {:.2} sets/s at {:.3} s latency",
                    meas.throughput, meas.latency
                );
                println!("{}", sketch(&ceiling.mapping));
            }
        }
        println!();
    }
}
