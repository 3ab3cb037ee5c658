//! Figure 6 of the paper: speedup of the Airshed air-quality model,
//! data-parallel vs integrated task+data-parallel, on 4–64 (simulated)
//! Paragon nodes.
//!
//! The data-parallel version's serial hourly input/output phases are a
//! small fraction of sequential time but become the bottleneck at scale
//! (Amdahl); the task-parallel version separates them onto their own
//! subgroups so they overlap the main computation, recovering roughly a
//! quarter of the 64-node execution time in the paper.
//!
//! The "best" column is the one mapping search every Table 1 row uses:
//! the Airshed chain profiled by `chain_model`, and the frontier mapping
//! predicted to finish the day's hours first (`fastest_for`), run under
//! its `placement`.
//!
//! Run with: `cargo run --release -p fx-bench --bin fig6_airshed`

use fx_apps::airshed::{airshed_dp, airshed_tp, AirshedConfig};
use fx_apps::stream::Stream;
use fx_bench::{chain_model, paragon, placement};
use fx_core::{spmd, Cx};
use fx_mapping::fastest_for;

const PROFILE_POINTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn makespan<R: Send>(p: usize, f: impl Fn(&mut Cx) -> R + Send + Sync) -> f64 {
    spmd(&paragon(p), |cx| f(cx)).makespan()
}

fn main() {
    let cfg = AirshedConfig::paper();
    println!("Figure 6: Airshed speedup on simulated Paragon nodes");
    println!(
        "(gridpoints={}, layers={}, species={}, {} hours x {} steps; serial I/O {:.2}s+{:.2}s/hour)",
        cfg.gridpoints, cfg.layers, cfg.species, cfg.hours, cfg.nsteps,
        cfg.input_seconds, cfg.output_seconds
    );
    println!();

    let seq = makespan(1, |cx| {
        airshed_dp(cx, &cfg);
    });
    let io = cfg.hours as f64 * (cfg.input_seconds + cfg.output_seconds);
    println!("sequential time: {seq:.2} s (serial I/O {:.2}% of it)", 100.0 * io / seq);
    println!();
    let stream = Stream::Airshed(cfg);
    let model = chain_model(&stream, &PROFILE_POINTS);
    println!(
        "{:>6}  {:>12} {:>8}  {:>12} {:>8}  {:>10}  {:>10}  best mapping",
        "procs", "DP time s", "DP spd", "TP time s", "TP spd", "TP gain", "best spd"
    );
    for p in [4usize, 8, 16, 32, 64] {
        let t_dp = makespan(p, |cx| {
            airshed_dp(cx, &cfg);
        });
        let t_tp = makespan(p, |cx| {
            airshed_tp(cx, &cfg);
        });
        let best = fastest_for(&model, p, cfg.hours);
        let t_best = makespan(p, |cx| stream.run(cx, &placement(&best.mapping), cfg.hours));
        println!(
            "{:>6}  {:>12.3} {:>8.1}  {:>12.3} {:>8.1}  {:>9.1}%  {:>10.1}  {}",
            p,
            t_dp,
            seq / t_dp,
            t_tp,
            seq / t_tp,
            100.0 * (t_dp - t_tp) / t_dp,
            seq / t_best,
            best.mapping.render(&model)
        );
    }
    println!();
    println!("(paper: task parallelism reduced the 64-node execution time by ~25%;");
    println!(" 'best' runs the frontier mapping predicted to finish the hours first)");
}
