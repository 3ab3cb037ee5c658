//! Export a Chrome trace of the FFT-Hist pipeline so the stage overlap is
//! visible: open the written JSON in `about:tracing` (Chrome) or
//! https://ui.perfetto.dev — one named lane per simulated processor,
//! nested duration blocks for every compute charge and message busy-half
//! (tagged with their task-region scope: G1/G2/G3, assign2, barrier), and
//! the original instant marks, all on the *virtual* clock.
//!
//! The machine runs with span profiling enabled; profiling is host-side
//! observability only, so the virtual times in the trace are identical to
//! an unprofiled run's.
//!
//! Run with: `cargo run --release --example trace_pipeline`

use fx::apps::ffthist::{fft_hist_pipeline_sets, FftHistConfig};
use fx::prelude::*;

fn main() {
    let cfg = FftHistConfig::new(64, 8);
    let machine = Machine::simulated(6, MachineModel::paragon()).with_profiling(true);
    let report = spmd(&machine, |cx| {
        // Record stage-grain events on every subgroup leader.
        let sets: Vec<usize> = (0..cfg.datasets).collect();
        fft_hist_pipeline_sets(cx, &cfg, [2, 3, 1], &sets);
        cx.record("program end");
    });

    let json = report.chrome_trace();
    let path = "results/fft_hist_pipeline.trace.json";
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(path, &json).expect("write trace");

    let events: usize = report.logs.iter().map(|l| l.marks().count()).sum();
    let spans: usize = report.logs.iter().map(|l| l.spans().count()).sum();
    println!("wrote {spans} duration spans + {events} instant events for 6 processors to {path}");
    println!("virtual makespan: {:.4} s", report.makespan());

    // The logs also carry the critical path: print the coarse split.
    let cp = report.critical_path();
    let (compute, comm, idle) = cp.totals();
    println!(
        "critical path: {:.1}% compute, {:.1}% comm, {:.1}% idle over {} message hops",
        100.0 * compute / cp.makespan,
        100.0 * comm / cp.makespan,
        100.0 * idle / cp.makespan,
        cp.hops()
    );
    println!("open the file in chrome://tracing or ui.perfetto.dev to see the overlap");
}
