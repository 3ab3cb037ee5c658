//! The coroutine executor: correctness under P ≫ workers and determinism
//! across worker counts. (Its failure modes run in `tests/failure_modes.rs`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx};

/// A ring exchange with per-rank compute: every processor's virtual
/// finish time depends on messages crossing the whole ring.
fn ring(cx: &mut ProcCtx) -> f64 {
    let p = cx.nprocs();
    let right = (cx.rank() + 1) % p;
    let left = (cx.rank() + p - 1) % p;
    cx.charge_flops(1000.0 * (cx.rank() + 1) as f64);
    cx.send(right, 9, cx.rank() as u64);
    let v: u64 = cx.recv(left, 9);
    cx.charge_flops(500.0 * v as f64);
    cx.now()
}

#[test]
fn ping_pong_on_one_worker() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            cx.send(1, 1, 123u64);
            cx.recv::<u64>(1, 2)
        } else {
            let v = cx.recv::<u64>(0, 1);
            cx.send(0, 2, v + 1);
            v
        }
    });
    assert_eq!(rep.results, vec![124, 123]);
}

/// One worker, two, and one per processor (4096 is clamped to P).
const WORKERS: [usize; 3] = [1, 2, 4096];

fn bits(times: &[f64]) -> Vec<u64> {
    times.iter().map(|t| t.to_bits()).collect()
}

#[test]
fn virtual_times_and_logs_do_not_depend_on_the_worker_count() {
    let m = MachineModel::paragon();
    // The last input is the simulated machine outgrowing the host: three
    // trips round a 256-processor ring.
    for &(p, rounds) in &[(1, 1), (2, 1), (4, 1), (8, 1), (17, 1), (256, 3)] {
        let laps = move |cx: &mut ProcCtx| (0..rounds).map(|_| ring(cx)).fold(0.0, f64::max);
        for profiled in [false, true] {
            let machine = |workers| Machine::simulated(p, m).with_profiling(profiled).with_executor(Executor::Pooled { workers });
            let reps = WORKERS.map(|workers| run(&machine(workers), laps));
            for (rep, workers) in reps.iter().zip(WORKERS).skip(1) {
                let at = format!("p={p} profiled={profiled}: {workers} workers against 1");
                assert_eq!(bits(&rep.times), bits(&reps[0].times), "virtual time diverged, {at}");
                assert_eq!((&rep.traffic, rep.undelivered), (&reps[0].traffic, reps[0].undelivered), "{at}");
                // Logs are virtual-time records: identical too.
                assert!(rep.logs == reps[0].logs, "logs diverged, {at}");
            }
        }
    }
}

#[test]
fn many_procs_on_few_workers() {
    // 64 simulated processors on 2 workers: far more procs than threads,
    // lots of suspended coroutines at any instant.
    let machine = Machine::simulated(64, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let rep = run(&machine, ring);
    assert_eq!(rep.results.len(), 64);
    assert_eq!(rep.undelivered, 0);
    // And the exact same virtual times as on a worker per processor.
    let reference = run(
        &Machine::simulated(64, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 64 }),
        ring,
    );
    assert_eq!(bits(&rep.times), bits(&reference.times));
}

#[test]
fn fan_in_heavy_traffic() {
    // Every processor sends 50 messages to rank 0; exercises wake-on-
    // deposit for a processor that parks and unparks many times.
    let p = 16;
    let machine = Machine::simulated(p, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 3 });
    let rep = run(&machine, move |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            let mut sum = 0u64;
            for src in 1..p {
                for _ in 0..50 {
                    sum += cx.recv::<u64>(src, 4);
                }
            }
            sum
        } else {
            for i in 0..50u64 {
                cx.send(0, 4, i);
            }
            0
        }
    });
    assert_eq!(rep.results[0], (p as u64 - 1) * (0..50).sum::<u64>());
    assert_eq!(rep.undelivered, 0);
}

#[test]
fn chunk_transfers() {
    let machine = Machine::simulated(4, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            for dst in 1..4 {
                let mut c = cx.chunk_for::<f64>(0);
                c.push_slice(&[dst as f64; 256]);
                cx.send_chunk(dst, 7, c);
            }
            0.0
        } else {
            let mut buf = [0f64; 256];
            cx.recv_chunk_into(0, 7, &mut buf);
            buf[128]
        }
    });
    assert_eq!(rep.results, vec![0.0, 1.0, 2.0, 3.0]);
}

#[test]
fn probe_poll_loop_makes_progress() {
    // A probe-driven poll loop on 1 worker: without the cooperative
    // yield inside probe(), rank 1 would spin the only worker forever
    // and rank 0's send could never run.
    let machine = Machine::simulated(2, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            cx.send(1, 3, 9u8);
            true
        } else {
            while !cx.probe(0, 3) {}
            let still_there = cx.probe(0, 3);
            let v: u8 = cx.recv(0, 3);
            still_there && v == 9 && !cx.probe(0, 3)
        }
    });
    assert!(rep.results.iter().all(|&ok| ok));
}

#[test]
fn yield_now_is_cooperative() {
    // Two procs on one worker alternating via yield_now on shared state.
    let turns = Arc::new(AtomicUsize::new(0));
    let t2 = Arc::clone(&turns);
    let machine = Machine::simulated(2, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    run(&machine, move |cx: &mut ProcCtx| {
        for i in 0..10 {
            // Wait for my turn: rank 0 acts on even counts, rank 1 odd.
            while t2.load(Ordering::SeqCst) % 2 != cx.rank() || t2.load(Ordering::SeqCst) / 2 < i
            {
                cx.yield_now();
            }
            t2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert_eq!(turns.load(Ordering::SeqCst), 20);
}
