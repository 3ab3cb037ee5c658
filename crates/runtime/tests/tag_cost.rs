//! CI's mailbox gate (`--release --ignored`): a tag costs nothing to
//! introduce. Collectives and darray statements put every round on a tag
//! of its own, so a per-tag cost in `mailbox.rs` (a map insert, a queue
//! allocation per new tag) would tax every one of them. The same
//! credit-windowed fan-in — P = 8, seven senders streaming 128-byte boxed
//! messages at rank 0, 64 in flight each, every message acknowledged — is
//! timed at the receiver once on two fixed tags and once with a tag pair
//! per round. Two timings from one process, so host speed cancels — and on
//! one pooled worker, so the instruction stream is deterministic and what
//! is timed is the mailbox, not the host's thread scheduler (a thread per
//! processor reads 1.5–2.2× between runs on two cores; one worker reads
//! 1.00–1.03×, and 1.33–1.36× with a map entry and a queue allocated per
//! new tag).

use std::time::Instant;

use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx};

const P: usize = 8;
const FAN_IN: usize = 7;
const ELEMS: usize = 16;
const WINDOW: usize = 64;
const WARMUP: usize = 2 * WINDOW; // fills the window and faults in every lane
const ROUNDS: usize = 4096;

/// Receiver nanoseconds over the measured rounds.
fn fan_in_ns(fresh_tag: bool) -> f64 {
    // (data, ack) tags of a round: the two fixed ones, or a pair of its own.
    let tags = move |round: usize| if fresh_tag { (2 * round as u64 + 1, 2 * round as u64 + 2) } else { (1, 2) };
    let machine = Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, move |cx: &mut ProcCtx| {
        let me = cx.rank();
        if me == 0 {
            let (mut sink, mut t) = (0.0f64, Instant::now());
            for round in 0..WARMUP + ROUNDS {
                if round == WARMUP {
                    t = Instant::now();
                }
                let (data, ack) = tags(round);
                for src in 1..=FAN_IN {
                    let v: Vec<f64> = cx.recv(src, data);
                    assert_eq!(v[0], (src * ELEMS) as f64, "first element corrupt");
                    sink += v[ELEMS - 1];
                    cx.send(src, ack, vec![0u8]);
                }
            }
            assert!(sink.is_finite());
            t.elapsed().as_nanos() as f64
        } else if me <= FAN_IN {
            let data: Vec<f64> = (0..ELEMS).map(|i| (me * ELEMS + i) as f64).collect();
            // Acknowledgements come back in round order, one per message.
            let mut acked = 0;
            for round in 0..WARMUP + ROUNDS {
                if round - acked == WINDOW {
                    let _: Vec<u8> = cx.recv(0, tags(acked).1);
                    acked += 1;
                }
                cx.send(0, tags(round).0, data.clone());
            }
            for round in acked..WARMUP + ROUNDS {
                let _: Vec<u8> = cx.recv(0, tags(round).1);
            }
            0.0
        } else {
            0.0
        }
    });
    assert_eq!(rep.undelivered, 0);
    rep.results[0]
}

#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn a_tag_pair_per_round_costs_what_one_tag_pair_costs() {
    let best = |fresh_tag| (0..3).map(|_| fan_in_ns(fresh_tag)).fold(f64::INFINITY, f64::min);
    let (one_tag, fresh) = (best(false), best(true));
    println!("one tag pair {one_tag:.0} ns, a pair per round {fresh:.0} ns ({:.2}x)", fresh / one_tag);
    assert!(fresh <= 1.25 * one_tag, "a fresh tag per round costs {:.2}x the one-tag run (bound 1.25x)", fresh / one_tag);
}
