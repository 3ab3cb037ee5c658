//! Host memory follows the simulated machine: a sender whose
//! previous message is still queued yields its worker, and a receiver that
//! never sends a chunk's size class gives the storage back to the pool it
//! came from. Neither moves virtual time.
//!
//! Test (a) reads a process-wide debug-build high-water mark: every test
//! here holds `SERIAL`, and the file is its own test binary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fx_runtime::debug_counters::MAX_LANE_DEPTH;
use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx, RunReport};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const ONE_WORKER: Executor = Executor::Pooled { workers: 1 };
/// One worker, two, and one per processor (4096 is clamped to P).
const EXECUTORS: [Executor; 3] = [ONE_WORKER, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }];

fn machine(p: usize, executor: Executor) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_executor(executor)
}

/// Run `f` under every worker count; the virtual finish times, results and
/// traffic must be bit-identical. Returns the reports in `EXECUTORS` order.
fn under_every_worker_count<R, F>(p: usize, f: F) -> Vec<RunReport<R>>
where
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    let reps: Vec<RunReport<R>> = EXECUTORS.iter().map(|&e| run(&machine(p, e), &f)).collect();
    for (rep, e) in reps.iter().zip(EXECUTORS).skip(1) {
        let bits = |r: &RunReport<R>| r.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(rep), bits(&reps[0]), "{e:?}: virtual times moved");
        assert_eq!((&rep.results, &rep.traffic), (&reps[0].results, &reps[0].traffic), "{e:?}");
    }
    reps
}

const MSGS: u64 = 10_000;

/// (a) Processor 0 streams 10 000 boxed `u64`s to processor 1. On one
/// worker a send that finds its previous message still queued makes the
/// sender yield before its next send into that lane, so the lane never
/// holds more than 2 (without the yield it held all 10 000) and the
/// sender is never more than 2 messages ahead of the receiver.
#[test]
fn a_one_way_stream_holds_at_most_two_messages_in_its_lane() {
    let _serial = serial();
    let (taken, ahead) = (AtomicU64::new(0), AtomicU64::new(0));
    let stream = |cx: &mut ProcCtx| -> u64 {
        if cx.rank() == 0 {
            for v in 0..MSGS {
                cx.send(1, 1, v);
                ahead.fetch_max((v + 1).saturating_sub(taken.load(Ordering::Relaxed)), Ordering::Relaxed);
            }
            0
        } else {
            let mut sum = 0;
            for _ in 0..MSGS {
                sum += cx.recv::<u64>(0, 1);
                taken.fetch_add(1, Ordering::Relaxed);
            }
            sum
        }
    };
    MAX_LANE_DEPTH.store(0, Ordering::Relaxed);
    let rep = run(&machine(2, ONE_WORKER), stream);
    assert_eq!(rep.results, [0, MSGS * (MSGS - 1) / 2]);
    let depth = MAX_LANE_DEPTH.load(Ordering::Relaxed);
    eprintln!("one-way stream of {MSGS}: lane depth ≤ {depth}, sender ahead ≤ {}", ahead.load(Ordering::Relaxed));
    assert!(depth <= 2 && (depth > 0 || !cfg!(debug_assertions)), "the lane held {depth} messages");
    assert!(ahead.load(Ordering::Relaxed) <= 2, "the sender ran {} messages ahead", ahead.load(Ordering::Relaxed));
    // `taken` only grows from here on, so `ahead` reads nothing new.
    under_every_worker_count(2, stream);
}

/// (b) A one-way stream of 1 000 chunks of 8 KiB: the receiver never sends
/// that class, so each chunk's storage goes back to the sender. Its pool
/// allocates three buffers, the two a lane holds and the one packed before
/// the send that yields (without the return it allocated 1 000). The
/// receiver's pool is never touched.
#[test]
fn a_chunk_stream_recycles_the_senders_buffers() {
    let _serial = serial();
    const CHUNKS: u64 = 1_000;
    const ELEMS: usize = 1024; // 8 KiB of u64
    let stream = |cx: &mut ProcCtx| -> u64 {
        if cx.rank() == 0 {
            for i in 0..CHUNKS {
                let mut c = cx.chunk_for::<u64>(ELEMS);
                c.push_slice(&[i; ELEMS]);
                cx.send_chunk(1, 1, c);
            }
            0
        } else {
            let mut sum = 0;
            for _ in 0..CHUNKS {
                let c = cx.recv_chunk(0, 1);
                sum += c.to_vec::<u64>().iter().sum::<u64>();
                cx.release_chunk(c);
            }
            sum
        }
    };
    let reps = under_every_worker_count(2, stream);
    assert_eq!(reps[0].results, [0, ELEMS as u64 * CHUNKS * (CHUNKS - 1) / 2]);
    for (rep, e) in reps.iter().zip(EXECUTORS) {
        let (src, dst) = (&rep.counters[0], &rep.counters[1]);
        assert_eq!((src.pool_hits + src.pool_misses, dst.pool_hits + dst.pool_misses), (CHUNKS, 0), "{e:?}");
    }
    let src = &reps[0].counters[0];
    eprintln!("chunk stream on one worker: {} hits, {} misses", src.pool_hits, src.pool_misses);
    assert!(src.pool_misses <= 3, "the sender allocated {} of {CHUNKS} chunks", src.pool_misses);
}

/// (c) A P = 16 all-to-all of chunks, five rounds: every processor sends
/// the class it receives, so it keeps what it receives. The first round
/// allocates 15 buffers a processor and every later send finds one,
/// whatever the worker count.
#[test]
fn an_all_to_all_keeps_its_hits_and_misses() {
    let _serial = serial();
    const P: usize = 16;
    const ROUNDS: u64 = 5;
    const ELEMS: usize = 64;
    let reps = under_every_worker_count(P, |cx: &mut ProcCtx| -> u64 {
        let me = cx.rank();
        let mut sum = 0;
        for round in 0..ROUNDS {
            for k in 1..P {
                let mut c = cx.chunk_for::<u64>(ELEMS);
                c.push_slice(&[(me as u64) << 8 | round; ELEMS]);
                cx.send_chunk((me + k) % P, round, c);
            }
            for k in 1..P {
                let c = cx.recv_chunk((me + P - k) % P, round);
                sum += c.to_vec::<u64>()[ELEMS - 1];
                cx.release_chunk(c);
            }
        }
        sum
    });
    for (rep, e) in reps.iter().zip(EXECUTORS) {
        for (p, c) in rep.counters.iter().enumerate() {
            let want = ((ROUNDS - 1) * (P as u64 - 1), P as u64 - 1);
            assert_eq!((c.pool_hits, c.pool_misses), want, "{e:?}: processor {p}");
        }
    }
}
