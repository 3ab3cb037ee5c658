//! The unobserved message path makes no system call and reads no host
//! clock per message, an observed one reads it once per cut of a
//! processor's lap (the rule is in `crates/runtime/src/counters.rs`), and
//! what replaced the per-message clock reads — the coarse clock, the
//! sleeper gate — loses neither a wakeup nor a timeout. Starting a run
//! maps no coroutine stack once a run of its size has finished.
//!
//! Tests (a)–(c), (e), (f), (h) and (i) read the runtime's debug-build
//! counters, which are process-wide: every test here holds `SERIAL`, and
//! the file is its own test binary.
#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fx::prelude::*;
use fx::runtime::debug_counters::{BACKSTOP_FOUND_WORK, CLOCK_READS, STACK_MAPS, WORKER_NOTIFIES};
use fx::runtime::{Executor, ProcCtx, RunReport, Telemetry, TelemetryConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const P: usize = 64;

/// Every blocking shape of the message path at P = 64: ring rounds
/// (boxed send, blocked receive), barriers, and plan replays of an
/// all-to-all `assign2` and a `transpose2` (chunk send, pack, unpack).
fn ring_barrier_replay(cx: &mut Cx) -> u64 {
    let (me, p) = (cx.id(), cx.nprocs());
    let mut token = me as u64;
    for _ in 0..20 {
        cx.send_v((me + 1) % p, 1, token);
        token = cx.recv_v((me + p - 1) % p, 1);
        cx.barrier();
    }
    let g = cx.group();
    let data: Vec<u64> = (0..(2 * P * 2 * P) as u64).collect();
    let cols = DArray2::from_global(cx, &g, [2 * P, 2 * P], (Dist::Star, Dist::Block), &data);
    let mut rows = DArray2::new(cx, &g, [2 * P, 2 * P], (Dist::Block, Dist::Star), 0u64);
    let mut turned = DArray2::new(cx, &g, [2 * P, 2 * P], (Dist::Block, Dist::Star), 0u64);
    for _ in 0..2 {
        assign2(cx, &mut rows, &cols);
        transpose2(cx, &mut turned, &cols);
    }
    token + rows.local()[0] + turned.local()[0]
}

fn one_worker() -> Machine {
    Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 })
}

fn msgs<R>(rep: &RunReport<R>) -> u64 {
    rep.traffic.iter().map(|t| t.0).sum()
}

/// (a) Unobserved: O(1) clock reads for the whole run — the run's own
/// start-up and one per tick — and, with one worker, which is never
/// asleep while a processor it is running sends, not one worker notify.
#[test]
fn unobserved_run_reads_no_clock_and_notifies_no_worker_per_message() {
    let _serial = serial();
    let (reads0, notifies0) = (CLOCK_READS.load(Ordering::Relaxed), WORKER_NOTIFIES.load(Ordering::Relaxed));
    let rep = spmd(&one_worker(), ring_barrier_replay);
    let reads = CLOCK_READS.load(Ordering::Relaxed) - reads0;
    let notifies = WORKER_NOTIFIES.load(Ordering::Relaxed) - notifies0;
    let msgs = msgs(&rep);
    eprintln!("unobserved: {msgs} messages, {reads} clock reads, {notifies} worker notifies");
    assert!(msgs >= 10_000, "the program sends {msgs} messages");
    assert!(reads * 100 < msgs, "{reads} clock reads over {msgs} messages");
    assert_eq!(notifies, 0, "one worker: nobody to wake");
    let t = rep.total();
    assert_eq!((t.send_ns, t.recv_wait_ns, t.pack_ns), (0, 0, 0), "durations have no reader");
    assert!(t.chunk_msgs > 0 && t.plan_hits > 0, "counters still count");
}

fn registry() -> Arc<Telemetry> {
    Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }))
}

/// (b) Observed: the same program with a registry attached measures the
/// durations again, one clock read per cut of each processor's lap — the
/// end of a send, a pack or unpack step, the resume of a parked receive,
/// the start of a replay, and the first step after a compute charge. So
/// at least one and at most three reads a message here (2.6 today; the
/// stopwatches it replaced read 7.1), and causal tracing on top of the
/// registry adds none.
#[test]
fn observed_run_reads_the_clock_and_measures_durations() {
    let _serial = serial();
    let observed = one_worker().with_telemetry(registry());
    let reads_of = |machine: &Machine| {
        let reads0 = CLOCK_READS.load(Ordering::Relaxed);
        let rep = spmd(machine, ring_barrier_replay);
        (CLOCK_READS.load(Ordering::Relaxed) - reads0, rep)
    };
    let (reads, rep) = reads_of(&observed);
    let msgs = msgs(&rep);
    eprintln!("observed: {msgs} messages, {reads} clock reads");
    assert!(reads >= msgs && reads <= 3 * msgs, "{reads} clock reads over {msgs} messages");
    let t = rep.total();
    assert!(t.send_ns > 0 && t.recv_wait_ns > 0 && t.pack_ns > 0, "{t}");
    let (traced_reads, _) = reads_of(&observed.with_tracing(true));
    assert!(traced_reads.abs_diff(reads) * 100 < msgs, "tracing: {traced_reads} clock reads, {reads} without");
}

/// (c) Two workers, so one is often asleep when the other makes a
/// processor runnable: a barrier storm, 100 runs. A push that missed a
/// sleeping worker would be picked up by the 50 ms park backstop and go
/// unnoticed but for this counter; a push that missed *every* worker
/// would end in the (short) recv timeout.
#[test]
fn sleeper_gate_loses_no_wakeup_under_a_two_worker_barrier_storm() {
    let _serial = serial();
    let machine = Machine::simulated(P, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 })
        .with_timeout(Duration::from_secs(5));
    let missed0 = BACKSTOP_FOUND_WORK.load(Ordering::Relaxed);
    for _ in 0..100 {
        let rep = spmd(&machine, |cx| {
            for _ in 0..10 {
                cx.barrier();
            }
            cx.allreduce(cx.id() as u64, u64::wrapping_add)
        });
        assert!(rep.results.iter().all(|&s| s == (P * (P - 1) / 2) as u64));
    }
    assert_eq!(BACKSTOP_FOUND_WORK.load(Ordering::Relaxed) - missed0, 0, "a park backstop expired with work waiting");
}

/// (d) A coarse park stamp must not shorten the recv timeout, whatever
/// the worker count: the deadlock panic comes no earlier than
/// the 200 ms configured and within two 25 ms watchdog periods after
/// (plus what the host scheduler adds), with the usual text and a
/// believable age for the message that *is* queued.
#[test]
fn recv_timeout_is_never_early_and_at_most_two_periods_late() {
    let _serial = serial();
    const TIMEOUT: Duration = Duration::from_millis(200);
    // One worker, two, and one per processor (4096 is clamped to P).
    for executor in [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }] {
        let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(TIMEOUT).with_executor(executor);
        let seen: Mutex<Option<(String, Duration)>> = Mutex::new(None);
        catch_unwind(AssertUnwindSafe(|| {
            fx::runtime::run(&machine, |cx: &mut ProcCtx| {
                if cx.rank() == 0 {
                    cx.send(1, 5, 1u64); // queued, never received
                } else {
                    let t0 = Instant::now();
                    let err = catch_unwind(AssertUnwindSafe(|| {
                        let _: u64 = cx.recv(0, 9); // never sent
                    }))
                    .expect_err("nothing is ever sent on (0, 9)");
                    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                    *seen.lock().unwrap() = Some((msg, t0.elapsed()));
                    std::panic::resume_unwind(err);
                }
            })
        }))
        .expect_err("deadlock must panic");
        let (msg, waited) = seen.into_inner().unwrap().expect("processor 1 timed out");
        assert!(
            msg.starts_with(
                "processor 1: recv(src=0, tag=0x9) timed out after 200ms — likely deadlock. \
                 Pending per (src, tag) with depth and oldest-message age: [(src=0, tag=0x5, n=1, oldest="
            ),
            "{executor:?}: got: {msg}"
        );
        eprintln!("{executor:?}: a {TIMEOUT:?} recv timeout fired after {waited:?}");
        assert!(waited >= TIMEOUT, "{executor:?}: timed out after {waited:?}, configured {TIMEOUT:?}");
        let allowance = Duration::from_millis(250);
        assert!(waited < TIMEOUT + 2 * TIMEOUT / 8 + allowance, "{executor:?}: timed out only after {waited:?}");
        let age = &msg[msg.find("oldest=").expect("age") + 7..];
        let ms: f64 = age[..age.find("ms").expect("an age in ms")].parse().expect("digits");
        assert!((200.0..1000.0).contains(&ms), "{executor:?}: the queued message is as old as the wait, dump says {ms} ms");
    }
}

/// (e) The heartbeat board's poll-waits (victims waiting for grants,
/// donors waiting for the resolution frontier) arm and check their
/// watchdog on the coarse clock: a promoted loop reads the host clock no
/// more often when it runs ten times the iterations.
#[test]
fn promoted_loop_reads_the_clock_independent_of_its_iteration_count() {
    let _serial = serial();
    let machine = Machine::simulated(8, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 1 })
        .with_heartbeat(true);
    let reads_of = |n: usize| {
        let reads0 = CLOCK_READS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let rep = spmd(&machine, move |cx| {
            let mut acc = 0u64;
            cx.pdo_promote(
                "skew",
                0..n,
                |_cx, i| vec![i as u32],
                |cx, i, ins| {
                    cx.charge_flops(2000.0 + 800.0 * i as f64); // the tail's owner is the straggler
                    vec![u64::from(ins[0]) + i as u64]
                },
                |_cx, _i, outs: Vec<u64>| acc += outs[0],
            );
            acc
        });
        let reads = CLOCK_READS.load(Ordering::Relaxed) - reads0;
        let taken = rep.promote_total().taken;
        eprintln!("promoted loop of {n}: {taken} grants, {reads} clock reads in {:?}", t0.elapsed());
        assert!(taken > 0, "the skewed loop of {n} donated nothing: no poll-wait ran");
        // The run's start-up, and one read per 250 ms tick.
        assert!(reads <= 4 + t0.elapsed().as_millis() as u64 / 250, "{reads} clock reads for {n} iterations");
    };
    reads_of(600);
    reads_of(6000);
}

/// (f) A receive whose message is already queued reads no clock and waits
/// 0: on one worker, eight processors each send 200 messages round a ring
/// before receiving any (a probe yields until the last one is there), so
/// no receive parks. The run reads one clock per send, plus each
/// processor's first send opening its lap, the run's start-up and a tick
/// per 250 ms.
#[test]
fn queued_receives_read_no_clock() {
    let _serial = serial();
    const N: u64 = 200;
    let telemetry = registry();
    let machine = Machine::simulated(8, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 1 })
        .with_telemetry(Arc::clone(&telemetry));
    let reads0 = CLOCK_READS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let rep = fx::runtime::run(&machine, |cx: &mut ProcCtx| {
        let (me, p) = (cx.rank(), cx.nprocs());
        for tag in 0..N {
            cx.send((me + 1) % p, tag, tag);
        }
        let from = (me + p - 1) % p;
        while !cx.probe(from, N - 1) {}
        (0..N).map(|tag| cx.recv::<u64>(from, tag)).sum::<u64>()
    });
    let reads = CLOCK_READS.load(Ordering::Relaxed) - reads0;
    let t = rep.total();
    eprintln!("queued receives: {} sends, {reads} clock reads", t.sends);
    assert!(rep.results.iter().all(|&s| s == N * (N - 1) / 2));
    assert_eq!((t.sends, t.recvs, t.recv_wait_ns), (8 * N, 8 * N, 0), "{t}");
    let overhead = 8 + 4 + t0.elapsed().as_millis() as u64 / 250;
    assert!(reads >= t.sends && reads <= t.sends + overhead, "{reads} clock reads for {} sends", t.sends);
    let om = telemetry.render_openmetrics();
    assert!(om.contains("\nfx_recv_wait_duration_ns_count 0\n"), "the wait histogram counts parked receives only");
}

/// (g) What the lap adds up to. A processor's intervals are disjoint
/// pieces of its run, so in an observed run its `send_ns + recv_wait_ns +
/// pack_ns` is at most the run's host wall time; and a flight stamp is the
/// processor's latest clock read, so its ring's stamps never decrease.
#[test]
fn lap_intervals_fit_in_the_run_and_flight_stamps_never_decrease() {
    let _serial = serial();
    let telemetry = registry();
    let t0 = Instant::now();
    let rep = spmd(&one_worker().with_telemetry(Arc::clone(&telemetry)), ring_barrier_replay);
    let wall = t0.elapsed().as_nanos() as u64;
    for (p, c) in rep.counters.iter().enumerate() {
        let sum = c.send_ns + c.recv_wait_ns + c.pack_ns;
        assert!(sum > 0 && sum <= wall, "processor {p}: {sum} ns of durations in a {wall} ns run");
    }
    let dump = telemetry.flight_dump();
    let sections: Vec<&str> = dump.split("=== processor ").skip(1).collect();
    assert_eq!(sections.len(), P);
    for (p, section) in sections.iter().enumerate() {
        let stamp = |line: &str| line.trim_start().strip_prefix('[')?.split_once(" ms]")?.0.trim().parse::<f64>().ok();
        let stamps: Vec<f64> = section.lines().filter_map(stamp).collect();
        assert!(stamps.len() > 100, "processor {p}: {} stamps", stamps.len());
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "processor {p}: {stamps:?}");
    }
}

/// (h) Starting processors is quiet too: a run takes its coroutine stacks
/// from the free list the previous run's finished coroutines gave them
/// back to, so a second `spmd` of a size maps no stack (no `mmap`,
/// `mprotect` or `munmap`), under one worker or two.
#[test]
fn a_second_spmd_of_a_size_maps_no_stack() {
    let _serial = serial();
    for workers in [1, 2] {
        let machine = Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers });
        let maps_of = |machine: &Machine| {
            let maps0 = STACK_MAPS.load(Ordering::Relaxed);
            spmd(machine, ring_barrier_replay);
            STACK_MAPS.load(Ordering::Relaxed) - maps0
        };
        let first = maps_of(&machine);
        assert!(first <= P as u64, "{workers} workers: the first run mapped {first} stacks");
        assert_eq!(maps_of(&machine), 0, "{workers} workers: the second run mapped stacks");
    }
}

/// (i) A send that finds its previous message still queued yields its
/// worker, and the receiver spends that time: here a 100 µs host spin after
/// each receive. The interval off the worker lands in none of the sender's
/// durations, and the yield reads no clock, so a message still reads at
/// most three.
#[test]
fn a_yielding_sender_books_no_time_off_the_worker() {
    let _serial = serial();
    const N: u64 = 400;
    const SPIN: Duration = Duration::from_micros(100);
    let machine = Machine::simulated(2, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 1 })
        .with_telemetry(registry());
    let reads0 = CLOCK_READS.load(Ordering::Relaxed);
    let rep = fx::runtime::run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            (0..N).for_each(|v| cx.send(1, 1, v));
        } else {
            for _ in 0..N {
                let _ = cx.recv::<u64>(0, 1);
                let t0 = Instant::now();
                while t0.elapsed() < SPIN {}
            }
        }
    });
    let reads = CLOCK_READS.load(Ordering::Relaxed) - reads0;
    let (sender, receiver) = (&rep.counters[0], &rep.counters[1]);
    let spun = SPIN.as_nanos() as u64 * N;
    eprintln!("yielding stream: send_ns {} of {spun} ns spun, {reads} clock reads", sender.send_ns);
    assert!(receiver.recv_wait_ns > 0, "the receiver never caught up: the sender did not yield");
    assert!(sender.send_ns * 4 < spun, "{} ns of sends beside {spun} ns spun off the sender's worker", sender.send_ns);
    assert!(reads <= 3 * N, "{reads} clock reads over {N} messages");
}
