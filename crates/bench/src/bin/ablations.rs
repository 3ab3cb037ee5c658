//! Ablations for the implementation claims of the paper's §4.
//!
//! 1. **Minimal processor subsets** — "to exploit maximal task
//!    parallelism, it is important for an implementation to identify the
//!    set of processors required to execute a computation in the parent
//!    scope and allow the remaining processors to bypass the
//!    computation." We run the Figure 2 pipeline with the analysis on
//!    (`Participation::Minimal`) and off (`WholeGroup`: every current
//!    processor synchronizes at each parent-scope assignment).
//!
//! 2. **Replicated scalar computations** — "a simple alternative is that
//!    one processor performs the computations and broadcasts the results
//!    to all processors. This approach is not recommended…". We time a
//!    task-region loop whose induction variable is replicated vs
//!    broadcast from an owner every iteration.
//!
//! 3. **No empty messages** — exact communication sets vs a naive
//!    all-to-all exchange for a redistribution that moves nothing.
//!
//! Run with: `cargo run --release -p fx-bench --bin ablations`

use fx_apps::ffthist::{fft_hist_sets, FftHistConfig};
use fx_apps::util::{Segments, SET_DONE, SET_START};
use fx_bench::paragon;
use fx_core::{spmd, Size};
use fx_darray::{assign1, DArray1, Dist1, Participation};

fn pipeline_ablation() {
    println!("1. Minimal processor subsets (Figure 2 pipeline, 24 procs, 256x256, 10 sets)");
    let cfg = FftHistConfig::new(256, 10);
    for (label, mode) in [
        ("minimal subsets (paper)", Participation::Minimal),
        ("whole-group sync (ablated)", Participation::WholeGroup),
    ] {
        let rep = spmd(&paragon(24), move |cx| {
            let sets: Vec<usize> = (0..cfg.datasets).collect();
            fft_hist_sets(cx, &cfg, &Segments { mode, ..Segments::pipeline([8, 8, 8]) }, &sets);
        });
        let thr = rep.throughput(SET_DONE, 2);
        let lat = rep.latency(SET_START, SET_DONE);
        println!("   {label:28} throughput {thr:7.2}/s   latency {lat:.3} s");
    }
    println!();
}

fn scalar_replication_ablation() {
    println!("2. Replicated scalars vs owner-broadcast (1000-iteration loop, 16 procs)");
    // Replicated: the induction variable lives in every processor's
    // locals; the loop control costs nothing.
    let replicated = spmd(&paragon(16), |cx| {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(i); // loop bookkeeping, fully local
        }
        let _ = acc;
        cx.now()
    });
    // Owner-broadcast: processor 0 owns the induction variable and
    // broadcasts it at the top of every iteration.
    let broadcast = spmd(&paragon(16), |cx| {
        let mut acc = 0u64;
        for i in 0..1000u64 {
            let iv = cx.bcast(0, i);
            acc = acc.wrapping_add(iv);
        }
        let _ = acc;
        cx.now()
    });
    println!("   replicated (paper)           total time {:9.4} s", replicated.makespan());
    println!("   owner-broadcast (ablated)    total time {:9.4} s", broadcast.makespan());
    println!();
}

fn empty_message_ablation() {
    println!("3. Exact communication sets vs naive all-to-all (aligned 64k-element copy, 16 procs)");
    // assign between identically-distributed arrays: communication sets
    // are empty, so nothing is sent.
    let exact = spmd(&paragon(16), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 65536, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 65536, Dist1::Block, 0.0f64);
        assign1(cx, &mut dst, &src);
        cx.now()
    });
    // The naive runtime exchanges a (mostly empty) bucket with every
    // group member.
    let naive = spmd(&paragon(16), |cx| {
        let g = cx.group();
        let src = DArray1::new(cx, &g, 65536, Dist1::Block, 1.0f64);
        let mut dst = DArray1::new(cx, &g, 65536, Dist1::Block, 0.0f64);
        let p = cx.nprocs();
        let me = cx.id();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); p];
        buckets[me] = src.local().to_vec();
        let got = cx.alltoallv(buckets);
        dst.local_mut().copy_from_slice(&got[me]);
        cx.now()
    });
    let exact_msgs: u64 = exact.traffic.iter().map(|(m, _)| m).sum();
    let naive_msgs: u64 = naive.traffic.iter().map(|(m, _)| m).sum();
    println!(
        "   exact sets (paper)           {exact_msgs:4} messages, {:.4} s",
        exact.makespan()
    );
    println!(
        "   naive all-to-all (ablated)   {naive_msgs:4} messages, {:.4} s",
        naive.makespan()
    );
    println!();
}

fn contiguity_note() {
    println!("4. Subgroup processor assignment (declarative sizes -> implementation's choice)");
    // The implementation is free to choose subgroup members; Fx picks
    // contiguous runs. Show the partition arithmetic at work.
    let rep = spmd(&paragon(8), |cx| {
        let part = cx.task_partition(&[("a", Size::Procs(3)), ("b", Size::Rest)]);
        (part.group("a").members().to_vec(), part.group("b").members().to_vec())
    });
    let (a, b) = &rep.results[0];
    println!("   8 procs, a(3) + b(rest):     a = {a:?}, b = {b:?}");
    println!();
}

fn main() {
    println!("Ablations for the paper's section 4 implementation claims");
    println!("=========================================================");
    println!();
    pipeline_ablation();
    scalar_replication_ablation();
    empty_message_ablation();
    contiguity_note();
}
