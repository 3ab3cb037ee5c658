//! Host-time microbenchmark of the message transport: the boxed
//! `send`/`recv` path (type-erased payload, fresh allocation per
//! message) vs the pooled chunk path (`send_chunk`/`recv_chunk`, buffers
//! recycled through per-processor pools).
//!
//! Unlike the virtual-time experiment harnesses, this runs *threaded* —
//! `Machine::real(P)` spawns one host thread per simulated processor —
//! so the numbers include the sharded-mailbox locking that large-P
//! simulations actually pay. The pattern is credit-windowed fan-in:
//! `fan_in` senders stream fixed-size messages at rank 0, at most
//! a size-dependent window in flight each; the receiver acknowledges every message (for
//! the chunk leg, the acknowledgement *is* the spent buffer, flowing
//! back to its sender's pool, which is what makes the steady state
//! allocation-free). Wall-clock host time at the receiver, after a
//! warm-up window, divided into bytes delivered.
//!
//! Every case above runs on two fixed tags. The `fresh_tag` row reruns
//! the smallest one (P=8, fan-in 7, 128-byte messages, boxed leg) with
//! each round's data and acknowledgement on a tag of their own — what
//! collectives and darray statements do — so a per-tag cost in the
//! mailbox (a map insert, a queue allocation) shows as a ratio above 1;
//! the bin asserts it stays under 2.
//!
//! In none of those does a receive find its lane empty for long, and the
//! benchmark's `ring` wavefront never blocks at all. The `blocked_recv`
//! rows time the path they leave out — deposit, wake of a parked
//! processor, park, resume, take — as host ns per message of group
//! barriers (reduce + broadcast, 2(P-1) messages, nearly every receive
//! blocked) at P = 64 and P = 1024 simulated processors on one pooled
//! worker, once unobserved and once with a telemetry registry attached.
//! Unobserved, that path makes no system call and reads no host clock;
//! the registry buys its durations back with clock reads, so within one
//! process `unobserved_ns_per_msg < observed_ns_per_msg` whatever the
//! host's speed (CI's bench-smoke gate).
//!
//! Emits `BENCH_msg.json` in the working directory and a table on
//! stdout. Run with:
//! `cargo run --release -p fx-bench --bin msg_microbench [-- --smoke]`

use std::sync::Arc;
use std::time::Instant;

use fx_core::spmd;
use fx_runtime::{run, Executor, Machine, MachineModel, Telemetry, TelemetryConfig};

/// Pick the per-sender credit window: deep for small messages (so the
/// single-core context-switch cost amortizes over many messages) and
/// shallow for big ones (to bound bytes in flight).
fn window_for(fan_in: usize, elems: usize) -> usize {
    ((1usize << 25) / (fan_in * elems * 8)).clamp(4, 64)
}

const TAG_DATA: u64 = 1;
const TAG_ACK: u64 = 2;

/// The tags of `round`: the two fixed ones, or a pair of its own.
fn tags(fresh_tag: bool, round: usize) -> (u64, u64) {
    let base = if fresh_tag { 2 * round as u64 } else { 0 };
    (TAG_DATA + base, TAG_ACK + base)
}

/// Message sizes cycle x1/2, x1, x2 around the nominal size, the way a
/// pipeline's statements vary (different halo widths, different
/// iteration extents). The pool's power-of-two size classes absorb
/// this; a per-message allocator cannot settle into reusing one block.
fn size_cycle(elems: usize, round: usize) -> usize {
    [elems.div_ceil(2), elems, 2 * elems][round % 3]
}

/// One fan-in run; returns the receiver's nanoseconds over the measured
/// rounds. `chunked` selects the transport leg, `fresh_tag` a tag pair per
/// round instead of one for the run.
fn fan_in_ns(p: usize, fan_in: usize, elems: usize, rounds: usize, chunked: bool, fresh_tag: bool) -> f64 {
    assert!(fan_in < p);
    let window = window_for(fan_in, elems);
    let warmup = 2 * window; // fills every pool and faults in every lane
    let rep = run(&Machine::real(p), move |cx| {
        let me = cx.rank();
        if me == 0 {
            // Delivery throughput: spot-check both ends of every message
            // rather than fully consuming it — consumption cost is the
            // application's, identical on both legs, and would only
            // dilute the transport difference under test.
            let mut ends = [0.0f64; 2];
            let mut sink = 0.0f64;
            let mut t = Instant::now();
            for round in 0..warmup + rounds {
                if round == warmup {
                    t = Instant::now(); // pools warm, lanes faulted in
                }
                let sz = size_cycle(elems, round);
                let (data_tag, ack_tag) = tags(fresh_tag, round);
                for src in 1..=fan_in {
                    if chunked {
                        let chunk = cx.recv_chunk(src, data_tag);
                        chunk.read_into(0, &mut ends[..1]);
                        chunk.read_into(sz - 1, &mut ends[1..]);
                        // The spent buffer is the credit: hand it back so
                        // the sender's next acquire is a pool hit.
                        cx.send_chunk(src, ack_tag, chunk);
                    } else {
                        let v: Vec<f64> = cx.recv(src, data_tag);
                        ends = [v[0], v[sz - 1]];
                        cx.send(src, ack_tag, vec![0u8]);
                    }
                    assert_eq!(ends[0], (src * elems) as f64, "first element corrupt");
                    sink += ends[1];
                }
            }
            let ns = t.elapsed().as_nanos() as f64;
            assert!(sink.is_finite());
            ns
        } else if me <= fan_in {
            let data: Vec<f64> = (0..2 * elems).map(|i| (me * elems + i) as f64).collect();
            // Acknowledgements come back in round order, one per message.
            let mut acked = 0usize;
            let take_ack = |cx: &mut fx_runtime::ProcCtx, acked: &mut usize| {
                let (_, ack_tag) = tags(fresh_tag, *acked);
                if chunked {
                    let c = cx.recv_chunk(0, ack_tag);
                    cx.release_chunk(c);
                } else {
                    let _: Vec<u8> = cx.recv(0, ack_tag);
                }
                *acked += 1;
            };
            for round in 0..warmup + rounds {
                if round - acked == window {
                    take_ack(cx, &mut acked);
                }
                let sz = size_cycle(elems, round);
                let (data_tag, _) = tags(fresh_tag, round);
                if chunked {
                    let mut c = cx.chunk_for::<f64>(sz);
                    c.push_slice(&data[..sz]);
                    cx.send_chunk(0, data_tag, c);
                } else {
                    cx.send(0, data_tag, data[..sz].to_vec());
                }
            }
            while acked < warmup + rounds {
                take_ack(cx, &mut acked);
            }
            0.0
        } else {
            0.0 // idle rank: present only to size the mailboxes to P lanes
        }
    });
    rep.results[0]
}

/// Host ns per message over `rounds` group barriers of `machine`, timed by
/// rank 0 from the end of a warm-up barrier (lanes built, every coroutine
/// started) to the end of the last: with one worker that is all the host
/// work of the measured rounds.
fn barrier_ns_per_msg(machine: &Machine, rounds: usize) -> f64 {
    const WARMUP: usize = 2;
    let rep = spmd(machine, move |cx| {
        for _ in 0..WARMUP {
            cx.barrier();
        }
        let t = Instant::now();
        for _ in 0..rounds {
            cx.barrier();
        }
        t.elapsed().as_nanos() as f64
    });
    let msgs: u64 = rep.traffic.iter().map(|t| t.0).sum();
    rep.results[0] / (msgs as f64 * rounds as f64 / (WARMUP + rounds) as f64)
}

/// Best of `reps` runs: the minimum is the least scheduler-noisy
/// observation of the same deterministic work.
fn best_of(reps: usize, run: impl Fn() -> f64) -> f64 {
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

struct Row {
    p: usize,
    fan_in: usize,
    elems: usize,
    rounds: usize,
    boxed_ns: f64,
    chunk_ns: f64,
}

impl Row {
    fn bytes(&self) -> f64 {
        let elems: usize = (0..self.rounds).map(|r| size_cycle(self.elems, r)).sum();
        (self.fan_in * elems * 8) as f64
    }
    /// GiB/s delivered at the receiver.
    fn gibs(&self, ns: f64) -> f64 {
        self.bytes() / ns * 1e9 / (1u64 << 30) as f64
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // size (f64 elements) x fan-in x P, fan_in < P. Small messages are
    // where the per-message overhead (allocation, type erasure) that the
    // chunk path removes dominates; large ones are memcpy-bound on both
    // legs and bound the speedup from below.
    let cases: Vec<(usize, usize, usize)> = if smoke {
        vec![(8, 7, 1024)]
    } else {
        let mut v = Vec::new();
        for &p in &[8usize, 64, 512] {
            for &fan_in in &[7usize, 31, 63] {
                if fan_in >= p {
                    continue;
                }
                for &elems in &[16usize, 64, 1024, 16384, 65536] {
                    v.push((p, fan_in, elems));
                }
            }
        }
        v
    };

    let mut rows = Vec::new();
    println!(
        "{:>5} {:>7} {:>9} {:>7} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "p", "fan_in", "elems", "rounds", "boxed ns", "chunk ns", "boxed GiB/s", "chunk GiB/s", "speedup"
    );
    for (p, fan_in, elems) in cases {
        // Bound bytes moved per case so the full sweep stays quick.
        let budget = if smoke { 1usize << 20 } else { 1usize << 25 };
        let rounds = (budget / (fan_in * elems * 8)).clamp(24, 4096);
        let reps = if smoke { 1 } else { 3 };
        let best = |chunked: bool| best_of(reps, || fan_in_ns(p, fan_in, elems, rounds, chunked, false));
        let boxed_ns = best(false);
        let chunk_ns = best(true);
        let r = Row { p, fan_in, elems, rounds, boxed_ns, chunk_ns };
        println!(
            "{:>5} {:>7} {:>9} {:>7} {:>12.0} {:>12.0} {:>10.3} {:>10.3} {:>7.2}x",
            r.p,
            r.fan_in,
            r.elems,
            r.rounds,
            r.boxed_ns,
            r.chunk_ns,
            r.gibs(r.boxed_ns),
            r.gibs(r.chunk_ns),
            r.boxed_ns / r.chunk_ns
        );
        rows.push(r);
    }

    // Headline: best chunk-vs-boxed throughput ratio at P=64 (the
    // paper's machine size).
    if let Some(best) = rows
        .iter()
        .filter(|r| r.p == 64)
        .max_by(|a, b| {
            (a.boxed_ns / a.chunk_ns).partial_cmp(&(b.boxed_ns / b.chunk_ns)).unwrap()
        })
    {
        println!(
            "\nP=64 best case (fan_in={}, {} B msgs): chunk path {:.2}x boxed throughput",
            best.fan_in,
            best.elems * 8,
            best.boxed_ns / best.chunk_ns
        );
    }

    // The executor every run resolves to (real-mode default, or the
    // FX_EXECUTOR/FX_WORKERS override), recorded so host-time numbers
    // are never compared across executors by accident.
    let executor = Machine::real(2).executor.to_string();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // The per-tag cost, kept visible: the smallest case again, one tag
    // pair per round against one for the run. Best of 3 in smoke mode
    // too — the in-process bound must not hang on one noisy run.
    let (p, fan_in, elems) = (8, 7, 16);
    let rounds = if smoke { 1024 } else { 4096 };
    let best = |fresh_tag: bool| best_of(3, || fan_in_ns(p, fan_in, elems, rounds, false, fresh_tag));
    let (one_tag_ns, fresh_tag_ns) = (best(false), best(true));
    let ratio = fresh_tag_ns / one_tag_ns;
    println!(
        "\nfresh tags (P={p}, fan_in={fan_in}, {} B msgs, boxed, {rounds} rounds, {executor}): \
         one tag {one_tag_ns:.0} ns, a tag per round {fresh_tag_ns:.0} ns, {ratio:.2}x",
        elems * 8
    );
    assert!(ratio <= 2.0, "a fresh tag per round costs {ratio:.2}x the one-tag run (bound 2x)");

    // The blocked-receive path, unobserved and observed, same process.
    let blocked_executor = Executor::Pooled { workers: 1 };
    let blocked_json: Vec<String> = [(64usize, 2000usize), (1024, 100)]
        .into_iter()
        .map(|(p, rounds)| {
            let rounds = if smoke { rounds / 10 } else { rounds };
            let msgs = 2 * (p - 1) * rounds;
            let machine = Machine::simulated(p, MachineModel::paragon()).with_executor(blocked_executor);
            let observed = machine.clone().with_telemetry(Arc::new(Telemetry::with_config(TelemetryConfig {
                stall: false,
                ..TelemetryConfig::default()
            })));
            let unobserved_ns = best_of(3, || barrier_ns_per_msg(&machine, rounds));
            let observed_ns = best_of(3, || barrier_ns_per_msg(&observed, rounds));
            println!(
                "blocked recv (P={p}, {rounds} barriers, {msgs} msgs, {blocked_executor}): \
                 {unobserved_ns:.0} ns/msg unobserved, {observed_ns:.0} ns/msg with a registry"
            );
            format!(
                "    {{\"p\": {p}, \"op\": \"barrier\", \"rounds\": {rounds}, \"msgs\": {msgs}, \
                 \"executor\": \"{blocked_executor}\", \"unobserved_ns_per_msg\": {unobserved_ns:.0}, \
                 \"observed_ns_per_msg\": {observed_ns:.0}}}"
            )
        })
        .collect();

    let mut json = format!(
        "{{\n  \"bench\": \"msg_host_time\",\n  \"pattern\": \"credit_windowed_fan_in\",\n  \
         \"executor\": \"{executor}\",\n  \"host_cores\": {host_cores},\n  \
         \"unit\": \"ns_receiver_measured_rounds\",\n  \
         \"fresh_tag\": {{\"p\": {p}, \"fan_in\": {fan_in}, \"msg_bytes\": {}, \"rounds\": {rounds}, \
         \"leg\": \"boxed\", \"executor\": \"{executor}\", \"one_tag_ns\": {one_tag_ns:.0}, \
         \"fresh_tag_ns\": {fresh_tag_ns:.0}, \"fresh_over_one\": {ratio:.2}}},\n  \
         \"blocked_recv\": [\n{}\n  ],\n  \"results\": [\n",
        elems * 8,
        blocked_json.join(",\n")
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"p\": {}, \"fan_in\": {}, \"msg_bytes\": {}, \"rounds\": {}, \
             \"boxed_ns\": {:.0}, \"chunk_ns\": {:.0}, \"boxed_gib_s\": {:.3}, \
             \"chunk_gib_s\": {:.3}, \"chunk_speedup\": {:.2}}}{}\n",
            r.p,
            r.fan_in,
            r.elems * 8,
            r.rounds,
            r.boxed_ns,
            r.chunk_ns,
            r.gibs(r.boxed_ns),
            r.gibs(r.chunk_ns),
            r.boxed_ns / r.chunk_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_msg.json", &json).expect("write BENCH_msg.json");
    println!("\nwrote BENCH_msg.json ({} cases)", rows.len());
}
