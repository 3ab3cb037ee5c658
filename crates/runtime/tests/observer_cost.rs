//! CI's observer gate (`--release --ignored`): what a telemetry registry
//! costs the message path. The program is `tests/quiet_path.rs`'s, written
//! on this crate's API: at P = 64, ring rounds (boxed send, blocked
//! receive), dissemination barriers, and all-to-all plan-replay shapes
//! (memory charge, chunk pack, send, receive, unpack). It is timed best of
//! 7 with a registry attached and best of 7 without, on one pooled worker,
//! all in one process, so host speed cancels and what is timed is the
//! instruction stream, not the host's thread scheduler.
//!
//! An observed processor reads the host clock once per cut of its lap
//! (`crates/runtime/src/counters.rs`), about 2.6 times a message here, and
//! a read costs about as much as an unobserved message (~20 ns against
//! ~64 ns on the 2-core x86-64 host of EXPERIMENTS.md). This ratio reads
//! 2.00–2.02× there; the send, receive and pack stopwatches the lap
//! replaced, about 7 reads a message, read 3.02–3.09×. The bound sits
//! between the two.

use std::sync::Arc;
use std::time::Instant;

use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx, Telemetry, TelemetryConfig};

const P: usize = 64;
const ROUNDS: u64 = 100;
/// Elements each processor sends each peer in one all-to-all.
const ELEMS: usize = 4;

/// One all-to-all shaped like a darray plan replay on `tag`.
fn replay(cx: &mut ProcCtx, tag: u64, data: &mut [u64]) {
    let (me, p) = (cx.rank(), cx.nprocs());
    cx.charge_mem_bytes((16 * ELEMS) as f64);
    cx.exchange_begins();
    for k in 1..p {
        let mut chunk = cx.chunk_for::<u64>(ELEMS);
        chunk.push_slice(&data[..ELEMS]);
        cx.packed();
        cx.send_chunk((me + k) % p, tag, chunk);
    }
    for k in 1..p {
        let chunk = cx.recv_chunk((me + p - k) % p, tag);
        chunk.read_into(0, &mut data[..ELEMS]);
        cx.packed();
        cx.release_chunk(chunk);
    }
}

fn program(cx: &mut ProcCtx) -> u64 {
    let (me, p) = (cx.rank(), cx.nprocs());
    let mut token = me as u64;
    for round in 0..ROUNDS {
        cx.send((me + 1) % p, 1, token);
        token = cx.recv((me + p - 1) % p, 1);
        cx.note_barrier();
        let mut step = 1;
        while step < p {
            let tag = 1000 + 16 * round + step.trailing_zeros() as u64;
            cx.send((me + step) % p, tag, ());
            cx.recv::<()>((me + p - step) % p, tag);
            step *= 2;
        }
    }
    let mut data = vec![token; ELEMS];
    for tag in 0..20 {
        replay(cx, 1 << 20 | tag, &mut data);
    }
    data[0]
}

/// Host nanoseconds of one run of `program`.
fn run_ns(observed: bool) -> f64 {
    let mut machine = Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    if observed {
        let config = TelemetryConfig { stall: false, ..TelemetryConfig::default() };
        machine = machine.with_telemetry(Arc::new(Telemetry::with_config(config)));
    }
    let t0 = Instant::now();
    let rep = run(&machine, program);
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(rep.undelivered, 0);
    assert_eq!(rep.total().send_ns > 0, observed);
    ns
}

#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn an_observed_run_costs_at_most_2_5x_an_unobserved_one() {
    let (mut plain, mut observed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        plain = plain.min(run_ns(false));
        observed = observed.min(run_ns(true));
    }
    let ratio = observed / plain;
    println!("unobserved {plain:.0} ns, observed {observed:.0} ns ({ratio:.2}x)");
    assert!(ratio <= 2.5, "an observed run costs {ratio:.2}x an unobserved one (bound 2.5x)");
}
