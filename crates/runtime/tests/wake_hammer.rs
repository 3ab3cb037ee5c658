//! A lost-wakeup hammer on the one wait/wake protocol (registration
//! under the lane lock, the per-processor park latch): the same three
//! storms on one pool worker, two, and one per processor. A wakeup
//! that went missing would end in the 5 s recv timeout, which fails the
//! storm; CI runs this file in `--release` ten times in a row.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One worker, two, and one per processor (4096 is clamped to P).
const EXECUTORS: [Executor; 3] =
    [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }];

fn machine(p: usize, executor: Executor) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_timeout(Duration::from_secs(5)).with_executor(executor)
}

/// (a) Nothing is ever queued ahead in a ping-pong, so nearly every
/// receive registers and parks and nearly every send wakes: 100 000
/// round trips on alternating tags.
#[test]
fn ping_pong_loses_no_wakeup() {
    const ROUNDS: u64 = 100_000;
    for executor in EXECUTORS {
        let t0 = Instant::now();
        let rep = run(&machine(2, executor), |cx: &mut ProcCtx| {
            let peer = 1 - cx.rank();
            let mut sum = 0u64;
            for i in 0..ROUNDS {
                let tag = i % 2;
                if cx.rank() == 0 {
                    cx.send(peer, tag, i);
                    sum += cx.recv::<u64>(peer, tag);
                } else {
                    let v: u64 = cx.recv(peer, tag);
                    cx.send(peer, tag, v + 1);
                }
            }
            sum
        });
        eprintln!("{executor}: {ROUNDS} round trips in {:?}", t0.elapsed());
        assert_eq!(rep.results[0], ROUNDS * (ROUNDS + 1) / 2, "{executor}");
        assert_eq!(rep.undelivered, 0, "{executor}");
    }
}

/// (b) Fan-in at P = 32: every sender deposits 2 000 messages on 4
/// interleaved tags; the root takes each group of four newest tag first,
/// so a take scans past older messages and a deposit often lands while
/// the root is registered for another tag. The last processor, its
/// sending done, polls `probe` for the root's closing message.
#[test]
fn fan_in_with_tag_scans_and_a_probe_poller_loses_no_wakeup() {
    const P: usize = 32;
    const MSGS: u64 = 2_000;
    const DONE: u64 = 99;
    for executor in EXECUTORS {
        let rep = run(&machine(P, executor), |cx: &mut ProcCtx| {
            if cx.rank() > 0 {
                for i in 0..MSGS {
                    cx.send(0, i % 4, i);
                }
                if cx.rank() == P - 1 {
                    while !cx.probe(0, DONE) {
                        cx.yield_now();
                    }
                    return cx.recv::<u64>(0, DONE);
                }
                return 0;
            }
            let mut taken = 0u64;
            for group in 0..MSGS / 4 {
                for src in 1..P {
                    for tag in (0..4).rev() {
                        assert_eq!(cx.recv::<u64>(src, tag), 4 * group + tag, "FIFO per (src, tag)");
                        taken += 1;
                    }
                }
            }
            cx.send(P - 1, DONE, taken);
            taken
        });
        assert_eq!(rep.results[0], (P as u64 - 1) * MSGS, "{executor}");
        assert_eq!(rep.results[P - 1], rep.results[0], "{executor}: the poller saw the closing message");
        assert_eq!(rep.undelivered, 0, "{executor}");
    }
}

/// (c) A poison race: processor 0 panics after a seeded-random number of
/// messages while the other three are in the middle of their receives.
/// Each of 200 runs must end in the root-cause panic, released by poison
/// and not by the watchdog.
#[test]
fn poison_reaches_receivers_mid_recv() {
    // Keep 200 × 3 expected panics (and their secondaries) off stderr;
    // anything else still reports through the previous hook.
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = |m: &str| m.contains("hammer: injected") || m.contains("another processor panicked");
        let payload = info.payload();
        let msg = payload.downcast_ref::<String>().map(String::as_str).or(payload.downcast_ref::<&str>().copied());
        if !msg.is_some_and(expected) {
            previous(info);
        }
    }));
    for executor in EXECUTORS {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for round in 0..200 {
            let sent_before_panic: u64 = rng.gen_range(0..64);
            let t0 = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| {
                run(&machine(4, executor), move |cx: &mut ProcCtx| {
                    if cx.rank() == 0 {
                        for i in 0..sent_before_panic {
                            cx.send(1 + (i % 3) as usize, 7, i);
                        }
                        panic!("hammer: injected failure after {sent_before_panic} messages");
                    }
                    loop {
                        let _: u64 = cx.recv(0, 7); // more than 0 will ever send
                    }
                })
            }))
            .expect_err("processor 0 panics in every run");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("hammer: injected failure"), "{executor} round {round}: got: {msg}");
            assert!(t0.elapsed() < Duration::from_secs(2), "{executor} round {round}: took {:?}", t0.elapsed());
        }
    }
    let _ = std::panic::take_hook(); // back to the default hook
}
