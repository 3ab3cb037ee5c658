//! Criterion benches for the communication-plan engine: schedule build
//! vs replay, and the end-to-end cached redistribution inside a running
//! machine. Complements the standalone `redist_microbench` binary (which
//! sweeps sizes and emits `BENCH_redist.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use fx_core::{spmd, GroupHandle, Machine};
use fx_darray::plan::{copy_local, pack_into, unpack_chunk, Plan, Side, Stmt};
use fx_darray::{assign1, DArray1, DimMap, Dist, Dist1, Remap};
use fx_runtime::Chunk;

const N: usize = 1 << 16;
const P: usize = 16;

fn sides() -> (Side<1>, Side<1>) {
    let group = GroupHandle::synthetic(1, (0..P).collect());
    let s = Side { group: group.clone(), maps: [DimMap::new(N, P, Dist::Block)], replicated: false };
    let d = Side { group, maps: [DimMap::new(N, P, Dist::Cyclic)], replicated: false };
    (s, d)
}

/// Every rank's plan for the whole-array assignment `d = s`.
fn build_plans(s: &Side<1>, d: &Side<1>) -> Vec<Plan<1>> {
    let stmt = Stmt::whole(&d.maps, [Remap::Identity]);
    (0..P).map(|me| Plan::build(me, s, d, &stmt)).collect()
}

fn bench_plan_build(c: &mut Criterion) {
    let (s, d) = sides();
    c.bench_function("plan1_build_block_to_cyclic_64k_16p", |b| {
        b.iter(|| build_plans(&s, &d).iter().map(|pl| pl.sends.len()).sum::<usize>())
    });
}

fn bench_plan_replay(c: &mut Criterion) {
    let (s, d) = sides();
    let plans = build_plans(&s, &d);
    let srcs: Vec<Vec<f64>> = (0..P).map(|c| vec![1.0; s.maps[0].local_len(c)]).collect();
    let mut dsts: Vec<Vec<f64>> = (0..P).map(|c| vec![0.0; d.maps[0].local_len(c)]).collect();
    c.bench_function("plan1_replay_block_to_cyclic_64k_16p", |b| {
        b.iter(|| {
            let mut mail = std::collections::HashMap::new();
            for (me, pl) in plans.iter().enumerate() {
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
                    let chunk: Chunk = mail.remove(&(rp.peer, me)).unwrap();
                    unpack_chunk(&mut dsts[me], &pl.dst_strides, rp.dims(&pl.runs), &chunk);
                }
            }
        })
    });
}

fn bench_cached_assign1(c: &mut Criterion) {
    // End to end, threads and plan cache included: 16 redistributions per
    // machine launch, so one build + 15 cache hits per statement shape.
    c.bench_function("assign1_x16_cached_block_to_cyclic_4k_4p", |b| {
        b.iter(|| {
            spmd(&Machine::real(4), |cx| {
                let g = cx.group();
                let src = DArray1::new(cx, &g, 4096, Dist1::Block, 1.0f64);
                let mut dst = DArray1::new(cx, &g, 4096, Dist1::Cyclic, 0.0f64);
                for _ in 0..16 {
                    assign1(cx, &mut dst, &src);
                }
            })
        })
    });
}

criterion_group!(benches, bench_plan_build, bench_plan_replay, bench_cached_assign1);
criterion_main!(benches);
