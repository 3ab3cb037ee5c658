//! Causal trace propagation: an id set at the origin must ride every
//! message (boxed and chunk paths), be adopted on receive before the recv
//! event is made — so the recv's FIFO-matched send is the traced send —
//! and never move the virtual clock.

use fx_runtime::{request_trace_id, run, Event, EventKind, Executor, Log, Machine, MachineModel, ProcCtx};

/// The first event of `kind` in `log`.
fn first(log: &Log, kind: EventKind) -> Event {
    *log.events().iter().find(|e| e.kind == kind).unwrap()
}

fn traced(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_profiling(true).with_tracing(true)
}

#[test]
fn trace_adopted_across_boxed_send() {
    let id = request_trace_id(3);
    let rep = run(&traced(2), move |cx| {
        if cx.rank() == 0 {
            cx.set_trace(id);
            cx.charge_flops(10_000.0);
            cx.send(1, 7, vec![1u8; 64]);
        } else {
            assert_eq!(cx.trace(), 0, "no trace before the message arrives");
            let _: Vec<u8> = cx.recv(0, 7);
            assert_eq!(cx.trace(), id, "receiver adopts the incoming trace");
            cx.charge_flops(5_000.0);
        }
    });
    // The recv event and the downstream compute event both carry the trace.
    let recv = first(&rep.logs[1], EventKind::Recv);
    assert_eq!(recv.trace, id, "recv event tagged with the adopted trace");
    assert_eq!(first(&rep.logs[1], EventKind::Compute).trace, id, "downstream compute tagged with the adopted trace");
    // Causality is the FIFO match: the recv's sender is rank 0, and the
    // first send of rank 0's (0 -> 1, tag 7) stream — the one this first
    // recv of the stream matches — is the traced send that carried the id.
    let send = first(&rep.logs[0], EventKind::Send);
    assert_eq!((recv.peer, recv.tag), (0, 7));
    assert_eq!((send.peer, send.tag, send.trace), (1, 7, id));
    assert_eq!(recv.arrival, send.arrival, "the matched send's message is the one received");
}

#[test]
fn trace_adopted_across_chunk_send() {
    let id = request_trace_id(11);
    let rep = run(&traced(2), move |cx| {
        if cx.rank() == 0 {
            cx.set_trace(id);
            let mut chunk = cx.chunk_for::<f64>(16);
            chunk.push_slice(&[1.0f64; 16]);
            cx.send_chunk(1, 9, chunk);
        } else {
            let mut buf = [0.0f64; 16];
            cx.recv_chunk_into(0, 9, &mut buf);
            assert_eq!(cx.trace(), id, "chunk path must carry the trace too");
        }
    });
    assert_eq!(first(&rep.logs[1], EventKind::Recv).trace, id);
}

#[test]
fn clear_trace_stops_stamping() {
    let rep = run(&traced(2), |cx| {
        if cx.rank() == 0 {
            cx.set_trace(42);
            cx.send(1, 1, 1u8);
            cx.clear_trace();
            cx.send(1, 2, 2u8);
        } else {
            let _: u8 = cx.recv(0, 1);
            assert_eq!(cx.trace(), 42);
            let _: u8 = cx.recv(0, 2);
            // An untraced message does not overwrite the adopted context.
            assert_eq!(cx.trace(), 42);
        }
    });
    let sends: Vec<u64> = rep.logs[0].spans().filter(|s| s.kind == EventKind::Send).map(|s| s.trace).collect();
    assert_eq!(sends, vec![42, 0]);
}

#[test]
fn set_trace_is_a_noop_when_tracing_off() {
    let m = Machine::simulated(2, MachineModel::paragon()).with_profiling(true);
    let rep = run(&m, |cx| {
        cx.set_trace(7);
        assert_eq!(cx.trace(), 0, "set_trace must be inert with tracing off");
        if cx.rank() == 0 {
            cx.send(1, 1, 1u8);
        } else {
            let _: u8 = cx.recv(0, 1);
            assert_eq!(cx.trace(), 0);
        }
    });
    assert!(rep.logs.iter().all(|l| l.events().iter().all(|s| s.trace == 0)));
}

fn workload(cx: &mut ProcCtx) {
    let p = cx.nprocs();
    let me = cx.rank();
    cx.set_trace(request_trace_id(me));
    cx.charge_flops(40_000.0 * (me as f64 + 1.0));
    cx.send((me + 1) % p, 1, vec![0u8; 128 * (me + 1)]);
    let _: Vec<u8> = cx.recv((me + p - 1) % p, 1);
    cx.charge_mem_bytes(5e5);
    if me == 0 {
        for src in 1..p {
            let _: u64 = cx.recv(src, 2);
        }
    } else {
        cx.send(0, 2, me as u64);
    }
}

#[test]
fn tracing_leaves_virtual_times_bit_identical() {
    for workers in [1, 2, 4096] {
        let exec = Executor::Pooled { workers };
        let base = Machine::simulated(5, MachineModel::paragon()).with_executor(exec);
        let off = run(&base.clone().with_tracing(false).with_profiling(true), workload);
        let on = run(&base.with_tracing(true).with_profiling(true), workload);
        let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&off.times), bits(&on.times), "tracing moved the virtual clock");
        // Same events too: tracing only adds ids, never events.
        let untraced = |log: &Log| log.events().iter().map(|e| Event { trace: 0, ..*e }).collect::<Vec<_>>();
        for (a, b) in off.logs.iter().zip(&on.logs) {
            assert_eq!(untraced(a), untraced(b));
        }
    }
}
