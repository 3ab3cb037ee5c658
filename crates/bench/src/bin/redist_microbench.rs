//! Host-time microbenchmark of the redistribution engine: the reference
//! per-element enumeration ("legacy": the plan module's oracle, which is
//! what every statement ran before plans) vs plan *build* (first iteration
//! of a pipeline) vs plan *replay* (every later iteration, schedule
//! cached).
//!
//! All three legs run thread-less: every rank's work is executed in a
//! loop on the host, with messages passed through an in-process mailbox,
//! so the numbers isolate communication-*schedule* cost (what the plan
//! cache removes) from transport cost. Wall-clock host time, not the
//! simulator's virtual time.
//!
//! A last `remap` row times a whole statement instead: Stereo's clamped
//! disparity shift on a paper-size image at P=64, through the closure
//! fallback (`copy_remap2`, per-element enumeration on every call) and
//! through the structured plan (`remap2`), on the simulated machine.
//!
//! Emits `BENCH_redist.json` in the working directory and a table on
//! stdout. Run with:
//! `cargo run --release -p fx-bench --bin redist_microbench`

use std::collections::HashMap;
use std::time::Instant;

use fx_core::{spmd, GroupHandle, Machine, MachineModel};
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, CommSets, Plan, Side, Stmt};
use fx_darray::{copy_remap2, remap2, DArray2, DimMap, Dist, Remap};
use fx_runtime::Chunk;

/// One redistribution executed through the legacy per-element sets:
/// enumerate, bucket, gather per element, scatter per element.
fn legacy_iter(p: usize, s: &Side<1>, d: &Side<1>, srcs: &[Vec<f64>], dsts: &mut [Vec<f64>]) {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    let mut mail: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    let mut sets: Vec<CommSets> = Vec::with_capacity(p);
    for me in 0..p {
        let cs = CommSets::enumerate(me, s, d, &stmt);
        for (peer, slots) in &cs.sends {
            let buf: Vec<f64> = slots.iter().map(|&sl| srcs[me][sl]).collect();
            mail.insert((me, *peer), buf);
        }
        for &(ss, ds) in &cs.local {
            dsts[me][ds] = srcs[me][ss];
        }
        sets.push(cs);
    }
    for (me, cs) in sets.iter().enumerate() {
        for (peer, slots) in &cs.recvs {
            let buf = mail.remove(&(*peer, me)).expect("matching send");
            for (&slot, v) in slots.iter().zip(buf) {
                dsts[me][slot] = v;
            }
        }
    }
}

/// One redistribution executed through prebuilt plans: run-at-a-time
/// pack, copy, unpack.
fn plan_exec(p: usize, plans: &[Plan<1>], srcs: &[Vec<f64>], dsts: &mut [Vec<f64>]) {
    let mut mail: HashMap<(usize, usize), Chunk> = HashMap::new();
    for me in 0..p {
        let pl = &plans[me];
        if let Some((sl, dl)) = &pl.local {
            copy_local(&srcs[me], &pl.src_strides, sl.dims(&pl.runs), &mut dsts[me], &pl.dst_strides, dl.dims(&pl.runs));
        }
        for sp in &pl.sends {
            let mut chunk = Chunk::with_capacity::<f64>(sp.total);
            pack_into(&srcs[me], &pl.src_strides, sp.dims(&pl.runs), &mut chunk);
            mail.insert((me, sp.peer), chunk);
        }
    }
    for (me, pl) in plans.iter().enumerate() {
        for rp in &pl.recvs {
            let chunk = mail.remove(&(rp.peer, me)).expect("matching send");
            unpack_chunk(&mut dsts[me], &pl.dst_strides, rp.dims(&pl.runs), &chunk);
        }
    }
}

/// Every rank's plan for the whole-array assignment `d = s`.
fn build_plans(p: usize, s: &Side<1>, d: &Side<1>) -> Vec<Plan<1>> {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    (0..p).map(|me| Plan::build(me, s, d, &stmt)).collect()
}

struct Row {
    dir: &'static str,
    n: usize,
    p: usize,
    legacy_ns: f64,
    build_ns: f64,
    replay_ns: f64,
}

fn bench_case(dir: &'static str, sdist: Dist, ddist: Dist, n: usize, p: usize) -> Row {
    let group = GroupHandle::synthetic(1, (0..p).collect());
    let s = Side { group: group.clone(), maps: [DimMap::new(n, p, sdist)], replicated: false };
    let d = Side { group, maps: [DimMap::new(n, p, ddist)], replicated: false };

    let srcs: Vec<Vec<f64>> =
        (0..p).map(|c| (0..s.maps[0].local_len(c)).map(|i| i as f64).collect()).collect();
    let mut dsts: Vec<Vec<f64>> = (0..p).map(|c| vec![0.0; d.maps[0].local_len(c)]).collect();

    let iters = ((1usize << 22) / n.max(1)).clamp(3, 200);

    // Correctness cross-check once, outside the timers.
    let plans = build_plans(p, &s, &d);
    plan_exec(p, &plans, &srcs, &mut dsts);
    let via_plan = dsts.clone();
    for b in dsts.iter_mut() {
        b.iter_mut().for_each(|v| *v = 0.0);
    }
    legacy_iter(p, &s, &d, &srcs, &mut dsts);
    assert_eq!(via_plan, dsts, "plan and legacy moved different data ({dir}, n={n}, p={p})");

    let t = Instant::now();
    for _ in 0..iters {
        legacy_iter(p, &s, &d, &srcs, &mut dsts);
    }
    let legacy_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    let t = Instant::now();
    for _ in 0..iters {
        let plans = build_plans(p, &s, &d);
        plan_exec(p, &plans, &srcs, &mut dsts);
    }
    let build_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    let t = Instant::now();
    for _ in 0..iters {
        plan_exec(p, &plans, &srcs, &mut dsts);
    }
    let replay_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    Row { dir, n, p, legacy_ns, build_ns, replay_ns }
}

/// Shape of the `remap` row: a paper-size Stereo image on 64 processors.
const REMAP_ROWS: usize = 240;
const REMAP_COLS: usize = 256;
const REMAP_P: usize = 64;

/// The `remap` row: closure vs structured clamped column shift.
struct RemapRow {
    executor: String,
    stmts: usize,
    closure_ns: f64,
    structured_ns: f64,
}

/// Stereo's disparity shifts (`shifted[r][c] = img[r][min(c + δ, cols-1)]`,
/// δ cycling through the eight disparities) on a 240-row × 256-column
/// `(*, BLOCK)` `f32` image at P=64, `ROUNDS` times over: host ns per
/// statement, all ranks, spawn included on both legs.
fn bench_remap() -> RemapRow {
    const ROUNDS: usize = 8;
    const DISPARITIES: usize = 8;
    let (rows, cols) = (REMAP_ROWS, REMAP_COLS);
    let machine = Machine::simulated(REMAP_P, MachineModel::paragon());
    let run = |structured: bool| {
        let t = Instant::now();
        let rep = spmd(&machine, move |cx| {
            let g = cx.group();
            let dist = (Dist::Star, Dist::Block);
            let mut img = DArray2::new(cx, &g, [rows, cols], dist, 0f32);
            img.for_each_owned(|r, c, v| *v = (r * cols + c) as f32);
            let mut shifted = DArray2::new(cx, &g, [rows, cols], dist, 0f32);
            let mut sum = 0f64;
            for _ in 0..ROUNDS {
                for by in 0..DISPARITIES {
                    if structured {
                        remap2(cx, &mut shifted, &img, Remap::Identity, Remap::ClampShift(by as isize));
                    } else {
                        copy_remap2(cx, &mut shifted, &img, |r, c| (r, (c + by).min(cols - 1)));
                    }
                    sum += shifted.local().iter().map(|&v| v as f64).sum::<f64>();
                }
            }
            sum
        });
        (t.elapsed().as_nanos() as f64 / (ROUNDS * DISPARITIES) as f64, rep)
    };
    let (closure_ns, by_closure) = run(false);
    let (structured_ns, by_plan) = run(true);
    assert_eq!(by_closure.results, by_plan.results, "closure and structured remap moved different data");
    assert_eq!(
        by_closure.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
        by_plan.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
        "closure and structured remap finished at different virtual times"
    );
    assert_eq!(by_closure.traffic, by_plan.traffic, "closure and structured remap sent different traffic");
    RemapRow {
        executor: machine.executor.to_string(),
        stmts: ROUNDS * DISPARITIES,
        closure_ns,
        structured_ns,
    }
}

fn main() {
    let mut rows = Vec::new();
    println!(
        "{:>16} {:>9} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "direction", "n", "p", "legacy ns", "build ns", "replay ns", "vs leg", "vs build"
    );
    for &(dir, sd, dd) in
        &[("block_to_cyclic", Dist::Block, Dist::Cyclic), ("cyclic_to_block", Dist::Cyclic, Dist::Block)]
    {
        for k in [10usize, 12, 14, 16, 18, 20] {
            let n = 1usize << k;
            for p in [4usize, 16, 64] {
                let r = bench_case(dir, sd, dd, n, p);
                println!(
                    "{:>16} {:>9} {:>4} {:>14.0} {:>14.0} {:>14.0} {:>7.1}x {:>7.1}x",
                    r.dir,
                    r.n,
                    r.p,
                    r.legacy_ns,
                    r.build_ns,
                    r.replay_ns,
                    r.legacy_ns / r.replay_ns,
                    r.build_ns / r.replay_ns
                );
                rows.push(r);
            }
        }
    }

    // The acceptance case of the plan-cache work: an m-iteration pipeline
    // pays build once and replay m-1 times.
    if let Some(r) = rows.iter().find(|r| {
        r.dir == "block_to_cyclic" && r.n == 1 << 18 && r.p == 64
    }) {
        let s_leg = r.legacy_ns / r.replay_ns;
        let s_bld = r.build_ns / r.replay_ns;
        println!(
            "\nn=2^18 p=64 block->cyclic: replay {s_leg:.1}x faster than legacy, \
             {s_bld:.1}x faster than build+exec"
        );
    }

    // This bench is threadless, but record the executor the environment
    // resolves to (FX_EXECUTOR/FX_WORKERS aware) so its host-time rows
    // carry the same provenance field as every other BENCH_*.json and
    // are never compared across configurations by accident.
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"bench\": \"redist_host_time\",\n  \"executor\": \"{}\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"unit\": \"ns_per_iteration_all_ranks\",\n  \"results\": [\n",
        Machine::real(2).executor
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"direction\": \"{}\", \"n\": {}, \"p\": {}, \"legacy_ns\": {:.0}, \
             \"plan_build_ns\": {:.0}, \"plan_replay_ns\": {:.0}, \
             \"replay_speedup_vs_legacy\": {:.2}, \"replay_speedup_vs_build\": {:.2}}}{}\n",
            r.dir,
            r.n,
            r.p,
            r.legacy_ns,
            r.build_ns,
            r.replay_ns,
            r.legacy_ns / r.replay_ns,
            r.build_ns / r.replay_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    let r = bench_remap();
    println!(
        "\nremap {REMAP_ROWS}x{REMAP_COLS} f32 p={REMAP_P} ClampShift ({} stmts, {}): \
         closure {:.0} ns/stmt, structured {:.0} ns/stmt, {:.1}x",
        r.stmts,
        r.executor,
        r.closure_ns,
        r.structured_ns,
        r.closure_ns / r.structured_ns
    );
    json.push_str(&format!(
        "  ],\n  \"remap\": {{\"map\": \"ClampShift\", \"rows\": {REMAP_ROWS}, \"cols\": {REMAP_COLS}, \
         \"elem\": \"f32\", \"p\": {REMAP_P}, \"executor\": \"{}\", \"unit\": \"ns_per_statement_all_ranks\", \"stmts\": {}, \
         \"closure_ns\": {:.0}, \"structured_ns\": {:.0}, \"structured_speedup\": {:.2}}}\n}}\n",
        r.executor,
        r.stmts,
        r.closure_ns,
        r.structured_ns,
        r.closure_ns / r.structured_ns
    ));
    std::fs::write("BENCH_redist.json", &json).expect("write BENCH_redist.json");
    println!("\nwrote BENCH_redist.json ({} cases)", rows.len());
}
