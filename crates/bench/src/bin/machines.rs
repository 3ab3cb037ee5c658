//! Machine-sensitivity study (an extension of the paper's observation
//! that "the benefits of task parallelism in this form vary widely and
//! are higher for smaller data sets"): the same FFT-Hist programs on the
//! calibrated 1996 Paragon model and on a modern low-latency network.
//!
//! On the Paragon, per-message software overheads make the 64-node
//! data-parallel program communication-bound, so replication and
//! pipelining buy large throughput factors. On a fast network the
//! data-parallel program keeps scaling and the task-parallel advantage
//! shrinks toward nothing — which is exactly why HPF-era task
//! parallelism mattered most on machines of that generation.
//!
//! Run with: `cargo run --release -p fx-bench --bin machines`

use fx_apps::ffthist::{fft_hist_dp, FftHistConfig};
use fx_apps::stream::Stream;
use fx_apps::util::{Placement, Segments, SET_DONE, SET_START};
use fx_core::{spmd, Machine, MachineModel};

const P: usize = 64;

fn study(label: &str, model: MachineModel) {
    println!("{label}:");
    for n in [256usize, 512] {
        let cfg = FftHistConfig::new(n, 10);
        let dp = spmd(&Machine::simulated(P, model), move |cx| {
            fft_hist_dp(cx, &cfg);
        });
        let dp_thr = dp.throughput(SET_DONE, 2);
        let dp_lat = dp.latency(SET_START, SET_DONE);

        // A fixed 4-way replicated mapping as the task-parallel probe.
        let rcfg = FftHistConfig::new(n, 16);
        let repl = spmd(&Machine::simulated(P, model), move |cx| {
            Stream::FftHist(rcfg).run(cx, &Placement::replicated(4, Segments::fused(P / 4)), rcfg.datasets);
        });
        let r_thr = repl.throughput(SET_DONE, 4);
        let r_lat = repl.latency(SET_START, SET_DONE);

        println!(
            "  {n:4}x{n:<4} dp {dp_thr:9.2}/s @ {dp_lat:8.5}s | 4x-replicated {r_thr:9.2}/s @ {r_lat:8.5}s | thr gain {:.2}x",
            r_thr / dp_thr
        );
    }
    println!();
}

fn main() {
    println!("Task-parallel benefit vs machine balance (FFT-Hist on {P} processors)");
    println!();
    study("1996 Paragon (HPF-era per-message costs)", MachineModel::paragon());
    study("modern low-latency cluster network", MachineModel::fast_network());
    println!("(the paper's task-parallel wins are a property of the machine balance,");
    println!(" not the programs — on modern networks pure data parallelism recovers)");
}
