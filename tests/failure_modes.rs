//! Failure injection: the runtime must turn programming errors into loud,
//! diagnosable panics instead of hangs or silent corruption.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use fx::prelude::*;
use fx::runtime::ProcCtx;

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// One worker, two, and one per processor (4096 is clamped to P).
fn worker_counts() -> [fx::runtime::Executor; 3] {
    use fx::runtime::Executor;
    [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }]
}

/// A receive with no matching send trips the deadlock watchdog with a
/// diagnostic, instead of hanging forever — also when the receiver is a
/// suspended coroutine and the only worker thread must run the
/// watchdog's victim again for its post-wake recheck.
#[test]
fn deadlock_watchdog_fires() {
    for executor in worker_counts() {
        let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(Duration::from_millis(200)).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fx::runtime::run(&machine, |cx: &mut ProcCtx| {
                if cx.rank() == 0 {
                    let _: u64 = cx.recv(1, 42); // never sent
                }
            })
        }))
        .expect_err("deadlock must panic");
        let msg = panic_message(err);
        assert!(msg.contains("timed out") || msg.contains("another processor panicked"), "{executor:?}: got: {msg}");
        // The root-cause diagnostic carries the wait edge when it wins the
        // propagation race.
        if msg.contains("timed out") {
            assert!(msg.contains("recv(src=1, tag=0x2a)"), "{executor:?}: got: {msg}");
        }
    }
}

/// Mismatched message types panic with the expected type's name.
#[test]
fn type_mismatch_is_loud() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(Duration::from_secs(10));
    let err = catch_unwind(AssertUnwindSafe(|| {
        fx::runtime::run(&machine, |cx: &mut ProcCtx| {
            if cx.rank() == 0 {
                cx.send(1, 7, 1.5f64);
            } else {
                let _: u32 = cx.recv(0, 7); // wrong type
            }
        })
    }))
    .expect_err("type mismatch must panic");
    let msg = panic_message(err);
    assert!(msg.contains("type mismatch") || msg.contains("another processor panicked"), "got: {msg}");
}

/// A panic on one processor propagates: the whole run fails with the
/// original message, and blocked peers — parked threads or suspended
/// coroutines — are unwedged.
#[test]
fn peer_panic_unblocks_waiters() {
    for executor in worker_counts() {
        let machine = Machine::simulated(3, MachineModel::paragon()).with_timeout(Duration::from_secs(30)).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, |cx| {
                if cx.id() == 0 {
                    panic!("injected failure on processor zero");
                }
                // Everyone else waits on a collective that can never complete.
                cx.barrier();
            })
        }))
        .expect_err("peer panic must propagate");
        let msg = panic_message(err);
        assert!(msg.contains("injected failure"), "{executor:?}: got: {msg}");
    }
}

/// A panic raised *inside* an `ON SUBGROUP` block propagates with its
/// original message — not a poison-induced secondary one — and peers
/// blocked on cross-subgroup communication at region exit are unwedged,
/// on every worker count.
#[test]
fn panic_inside_on_subgroup_propagates_original_message() {
    for executor in worker_counts() {
        let machine = Machine::simulated(4, MachineModel::paragon()).with_timeout(Duration::from_secs(30)).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, |cx| {
                let part = cx.task_partition(&[("boom", Size::Procs(2)), ("wait", Size::Rest)]);
                cx.task_region(&part, |cx, tr| {
                    tr.on(cx, "boom", |cx| {
                        if cx.id() == 1 {
                            panic!("injected failure inside ON SUBGROUP");
                        }
                        // The non-panicking member blocks on its subgroup
                        // sibling and must be unwedged by the poison.
                        cx.barrier();
                    });
                    tr.on(cx, "wait", |cx| {
                        // The other subgroup wedges at its own collective.
                        cx.barrier();
                    });
                });
                // Region exit: a parent-scope collective no member reaches.
                cx.barrier();
            })
        }))
        .expect_err("ON SUBGROUP panic must fail the whole run");
        let msg = panic_message(err);
        assert!(msg.contains("injected failure inside ON SUBGROUP"), "{executor:?}: got: {msg}");
    }
}

/// Same, for a panic in a dynamically nested region (a subgroup that
/// re-partitioned itself): the original message still wins over the
/// secondary poison panics of both nesting levels, on every worker count.
#[test]
fn panic_in_nested_region_keeps_original_message() {
    for executor in worker_counts() {
        let machine = Machine::simulated(4, MachineModel::paragon()).with_timeout(Duration::from_secs(30)).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, |cx| {
                let outer = cx.task_partition(&[("top", Size::Procs(2)), ("bottom", Size::Rest)]);
                cx.task_region(&outer, |cx, tr| {
                    tr.on(cx, "top", |cx| {
                        let inner = cx.task_partition(&[("t0", Size::Procs(1)), ("t1", Size::Rest)]);
                        cx.task_region(&inner, |cx, tr2| {
                            tr2.on(cx, "t0", |_| panic!("nested region failure"));
                            tr2.on(cx, "t1", |cx| cx.barrier());
                        });
                    });
                    tr.on(cx, "bottom", |cx| cx.barrier());
                });
            })
        }))
        .expect_err("nested region panic must fail the whole run");
        let msg = panic_message(err);
        assert!(msg.contains("nested region failure"), "{executor:?}: got: {msg}");
    }
}

/// Group/partition misuse is caught at the API boundary.
#[test]
fn partition_misuse_panics() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(Duration::from_secs(10));
    // Oversubscribed partition.
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            cx.task_partition(&[("a", Size::Procs(5))]);
        })
    }))
    .expect_err("oversized partition must panic");
    assert!(panic_message(err).contains("at least"));

    // Unknown subgroup name.
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            let p = cx.task_partition(&[("a", Size::Rest)]);
            p.group("missing");
        })
    }))
    .expect_err("unknown name must panic");
    assert!(panic_message(err).contains("no subgroup named"));
}

/// Collectives called with an out-of-range root are rejected.
#[test]
fn collective_root_out_of_range() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(Duration::from_secs(10));
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            cx.bcast(5, 1u8);
        })
    }))
    .expect_err("bad root must panic");
    assert!(panic_message(err).contains("out of range"));
}

/// Distributed-array misuse: shape mismatches and wrong-group
/// collectives are caught.
#[test]
fn darray_misuse_panics() {
    let machine = Machine::simulated(2, MachineModel::paragon()).with_timeout(Duration::from_secs(10));
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            let g = cx.group();
            let src = DArray1::new(cx, &g, 8, Dist1::Block, 0u8);
            let mut dst = DArray1::new(cx, &g, 9, Dist1::Block, 0u8);
            assign1(cx, &mut dst, &src);
        })
    }))
    .expect_err("shape mismatch must panic");
    assert!(panic_message(err).contains("shape mismatch"));

    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(1)), ("b", Size::Rest)]);
            let ga = part.group("a");
            let a = DArray1::new(cx, &ga, 8, Dist1::Block, 0u8);
            // to_global from the world group instead of the array group.
            a.to_global(cx);
        })
    }))
    .expect_err("wrong-group collective must panic");
    assert!(panic_message(err).contains("collective over the array's group"));
}

/// The stall detector names who is blocked on whom: in a deadlocked
/// two-processor exchange (each waiting on a message the other never
/// sends), the watchdog tick reports both parks once they are four
/// periods old (1 s under a 2 s timeout: never earlier, and before the
/// watchdog kills the run), with both processors' `(src, tag)` wait
/// edges. The diagnosis is keyed by processor id, so it names the same
/// edges when both processors are coroutines sharing one worker thread.
#[test]
fn stall_detector_diagnoses_deadlocked_exchange() {
    use fx::runtime::Telemetry;
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_secs(2);
    for executor in worker_counts() {
        let telemetry = Arc::new(Telemetry::new());
        let machine = Machine::simulated(2, MachineModel::paragon())
            .with_timeout(TIMEOUT)
            .with_executor(executor)
            .with_telemetry(Arc::clone(&telemetry));
        let err = catch_unwind(AssertUnwindSafe(|| {
            fx::runtime::run(&machine, |cx: &mut ProcCtx| {
                if cx.rank() == 0 {
                    let _: u64 = cx.recv(1, 7); // 1 never sends tag 7
                } else {
                    let _: u64 = cx.recv(0, 9); // 0 never sends tag 9
                }
            })
        }))
        .expect_err("the deadlock watchdog must eventually kill the run");
        let msg = panic_message(err);
        assert!(msg.contains("timed out") || msg.contains("another processor panicked"), "{executor:?}: got: {msg}");

        let reports = telemetry.stall_reports();
        assert!(!reports.is_empty(), "{executor:?}: stall detector fired before the watchdog");
        let first = reports[0].at;
        let four_periods = Duration::from_secs(1); // a period is TIMEOUT / 8
        assert!(first >= four_periods, "{executor:?}: a park was reported after {first:?}, before four periods");
        assert!(first < TIMEOUT, "{executor:?}: the first report came at {first:?}, not before the watchdog");
        let all: String = reports.iter().map(|r| r.to_string()).collect();
        assert!(
            all.contains("recv(src=1, tag=0x7)"),
            "{executor:?}: report must name processor 0's wait edge, got:\n{all}"
        );
        assert!(
            all.contains("recv(src=0, tag=0x9)"),
            "{executor:?}: report must name processor 1's wait edge, got:\n{all}"
        );
        assert!(all.contains("[cycle]"), "{executor:?}: mutual wait must be flagged as a cycle, got:\n{all}");
    }
}

/// The report counts undelivered messages so leaks are visible.
#[test]
fn undelivered_messages_are_reported() {
    let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
        if cx.id() == 0 {
            cx.send_v(1, 9, 123u8); // never received
        }
    });
    assert_eq!(rep.undelivered, 1);
}

/// A panic poisons the world once. Every processor the poison releases
/// panics in turn, and each used to repeat the whole walk — P mailboxes
/// of P lanes, P times over: O(P³) lock bumps, 4.2 s of teardown at
/// P = 512 in a debug build against 0.3 s now. The first panicker does
/// the walk; the cascade finds the world already poisoned and only
/// unwinds.
#[test]
fn panic_at_p512_tears_down_in_bounded_time_with_the_root_cause() {
    use fx::runtime::Executor;
    use std::time::Instant;

    const P: usize = 512;
    let machine = Machine::simulated(P, MachineModel::paragon())
        .with_timeout(Duration::from_secs(120))
        .with_executor(Executor::Pooled { workers: 2 });
    let t0 = Instant::now();
    let err = catch_unwind(AssertUnwindSafe(|| {
        spmd(&machine, |cx| {
            if cx.id() == 0 {
                panic!("injected failure on processor zero");
            }
            // The other 511 block in a collective rank 0 never joins.
            cx.barrier();
        })
    }))
    .expect_err("peer panic must propagate");
    let took = t0.elapsed();
    let msg = panic_message(err);
    assert!(msg.contains("injected failure"), "got: {msg}");
    eprintln!("P={P}: panic to propagated in {took:?}");
    assert!(took < Duration::from_millis(2500), "teardown of a P={P} run took {took:?}");
}

/// A promotable loop whose donated iteration panics on its victim: the
/// donor waits for results that never come and the other members spin on
/// the loop's board, and every one of them must leave on the poison flag,
/// so the run re-raises the victim's own panic long before the recv
/// timeout — never the board's wedge or stuck-frontier message.
#[test]
fn panic_in_a_donated_iteration_tears_down_the_promotable_loop() {
    use fx::core::block_range;
    use std::time::Instant;

    const N: usize = 64;
    let timeout = Duration::from_secs(10);
    let program = |fail: bool| {
        move |cx: &mut fx::core::Cx| {
            let mut out = vec![0u64; N];
            cx.pdo_promote(
                "poisoned",
                0..N,
                |_cx, i| vec![i as u64],
                |cx, i, ins| {
                    // Only the last member's share is heavy, so the others
                    // park early and it donates its tail to them.
                    cx.charge_flops(if i >= N * 3 / 4 { 1e6 } else { 10.0 });
                    let donated = !block_range(0..N, cx.nprocs(), cx.id()).contains(&i);
                    if fail && donated && cx.id() == 0 {
                        panic!("injected failure in a donated iteration");
                    }
                    vec![ins[0] + 1]
                },
                |_cx, i, outs: Vec<u64>| out[i] = outs[0],
            );
            out
        }
    };
    for executor in worker_counts() {
        let machine = Machine::simulated(4, MachineModel::paragon())
            .with_heartbeat(true)
            .with_timeout(timeout)
            .with_executor(executor);
        let healthy = spmd(&machine, program(false));
        assert!(healthy.promote_total().taken >= 3, "{executor:?}: the loop must donate to every idle member");
        let t0 = Instant::now();
        let err = catch_unwind(AssertUnwindSafe(|| spmd(&machine, program(true))))
            .expect_err("the victim's panic must propagate");
        let took = t0.elapsed();
        let msg = panic_message(err);
        assert!(msg.contains("injected failure in a donated iteration"), "{executor:?}: got: {msg}");
        assert!(took < timeout / 4, "{executor:?}: teardown took {took:?}");
    }
}

// ---------------------------------------------------------------------
// Lanes on first use. A mailbox builds the lane of a source on the first
// deposit from it or the first wait on it; poison and the deadlock dump
// must treat a lane that only the waiting receiver has ever touched
// exactly like one that carried traffic. Every worker count, same diagnostics.
// ---------------------------------------------------------------------

/// Processor 2 blocks in `recv` on processor 1, which never sends it
/// anything: the lane exists only because of the wait. A panic on
/// processor 0 must still release it — by poison ("another processor
/// panicked"), long before the recv timeout would.
#[test]
fn peer_panic_releases_receiver_on_a_lane_nobody_deposited_to() {
    use std::sync::Mutex;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(20);
    for executor in worker_counts() {
        let machine = Machine::simulated(3, MachineModel::paragon()).with_timeout(TIMEOUT).with_executor(executor);
        let released: Mutex<Option<(String, Duration)>> = Mutex::new(None);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fx::runtime::run(&machine, |cx: &mut ProcCtx| match cx.rank() {
                0 => {
                    // Wait until 2 is about to block, give it time to.
                    let _: u8 = cx.recv(2, 1);
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("injected failure on processor zero");
                }
                1 => {
                    let _: u8 = cx.recv(0, 9); // alive, silent towards 2
                }
                _ => {
                    cx.send(0, 1, 0u8);
                    let t0 = Instant::now();
                    let err = catch_unwind(AssertUnwindSafe(|| {
                        let _: u64 = cx.recv(1, 42);
                    }))
                    .expect_err("nothing is ever sent on (1, 42)");
                    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                    *released.lock().unwrap() = Some((msg, t0.elapsed()));
                    std::panic::resume_unwind(err);
                }
            })
        }))
        .expect_err("peer panic must propagate");
        let msg = panic_message(err);
        assert!(msg.contains("injected failure"), "{executor:?}: got: {msg}");
        let (msg, waited) = released.into_inner().unwrap().expect("processor 2 must have been released");
        assert!(msg.contains("processor 2: aborting recv, another processor panicked"), "{executor:?}: got: {msg}");
        assert!(waited < TIMEOUT / 2, "{executor:?}: released by the watchdog ({waited:?}), not by poison");
    }
}

/// `oldest=` of the `(src, tag)` entry of a deadlock dump, in seconds.
fn oldest_secs(dump: &str, src: usize, tag: u64, n: usize) -> f64 {
    let key = format!("(src={src}, tag={tag:#x}, n={n}, oldest=");
    let at = dump.find(&key).unwrap_or_else(|| panic!("dump lacks {key}..): {dump}")) + key.len();
    let age = &dump[at..at + dump[at..].find(')').expect("closing paren")];
    let digits = age.trim_end_matches(|c: char| c.is_alphabetic() || c == 'µ');
    let scale = match &age[digits.len()..] {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" => 1e-6,
        "ns" => 1e-9,
        unit => panic!("unknown duration unit {unit:?} in {age:?}"),
    };
    digits.parse::<f64>().expect("duration digits") * scale
}

/// The same receiver without a panic gets the unchanged deadlock dump.
/// Processor 0 has queued two tags interleaved on one lane; each tag's
/// depth and age must be those of *its* messages, the age that of its
/// first-deposited one.
#[test]
fn deadlock_dump_separates_tags_interleaved_on_one_lane() {
    const GAP: Duration = Duration::from_millis(150);
    for executor in worker_counts() {
        let machine = Machine::simulated(3, MachineModel::paragon()).with_timeout(Duration::from_millis(300)).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            fx::runtime::run(&machine, |cx: &mut ProcCtx| match cx.rank() {
                0 => {
                    cx.send(2, 0xa, 1u64);
                    std::thread::sleep(GAP);
                    cx.send(2, 0xb, 2u64);
                    cx.send(2, 0xa, 3u64);
                    cx.send(2, 1, 0u8);
                }
                1 => {}
                _ => {
                    let _: u8 = cx.recv(0, 1); // all three are queued behind us
                    let _: u64 = cx.recv(1, 42); // never sent
                }
            })
        }))
        .expect_err("deadlock must panic");
        let msg = panic_message(err);
        assert!(msg.contains("processor 2: recv(src=1, tag=0x2a) timed out"), "{executor:?}: got: {msg}");
        let (a, b) = (oldest_secs(&msg, 0, 0xa, 2), oldest_secs(&msg, 0, 0xb, 1));
        assert!(b >= 0.25, "{executor:?}: tag 0xb waited a whole timeout, dump says {b}s: {msg}");
        assert!(a >= b + 0.1, "{executor:?}: tag 0xa is {GAP:?} older than 0xb, dump says {a}s vs {b}s: {msg}");
    }
}
