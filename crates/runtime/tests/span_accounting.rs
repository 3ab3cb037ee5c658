//! Span accounting must close: on every processor, `Log::window_breakdown`
//! over the whole run — the logged barrier, send, recv and compute time
//! plus the derived idle — accounts for every virtual second, up to the
//! processor's own finish time and up to the run makespan, and profiling
//! must never move the virtual clock.

use fx_runtime::{run, EventKind, Log, Machine, MachineModel, WindowBreakdown};

fn profiled(p: usize, m: MachineModel) -> Machine {
    Machine::simulated(p, m).with_profiling(true)
}

/// A messy workload: uneven compute, a ring exchange, a fan-in to rank 0,
/// and a late straggler — exercises waits, skew, and trailing idle.
fn workload(cx: &mut fx_runtime::ProcCtx) {
    let p = cx.nprocs();
    let me = cx.rank();
    cx.charge_flops(50_000.0 * (me as f64 + 1.0));
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    cx.send(right, 1, vec![0u8; 256 * (me + 1)]);
    let _: Vec<u8> = cx.recv(left, 1);
    cx.charge_mem_bytes(1e6);
    if me == 0 {
        for src in 1..p {
            let _: u64 = cx.recv(src, 2);
        }
    } else {
        cx.send(0, 2, me as u64);
        cx.charge_flops(10_000.0 * me as f64);
    }
}

/// Processor `log`'s virtual time over `[0, until]`, every event counted.
fn accounting(log: &Log, until: f64) -> WindowBreakdown {
    log.window_breakdown(0, 0.0, until, 0)
}

#[test]
fn per_processor_accounting_sums_to_finish_time() {
    for m in [MachineModel::paragon(), MachineModel::fast_network(), MachineModel::zero_comm(1e-6)]
    {
        let rep = run(&profiled(6, m), workload);
        for (p, log) in rep.logs.iter().enumerate() {
            let finish = rep.times[p];
            let acc = accounting(log, finish);
            assert!(
                (acc.total() - finish).abs() <= 1e-9 * finish.max(1.0),
                "proc {p}: buckets {acc:?} do not sum to finish {finish}"
            );
            // Idle is a derived gap, never negative.
            assert!(acc.idle >= 0.0);
        }
    }
}

#[test]
fn accounting_to_makespan_adds_trailing_idle_only() {
    let rep = run(&profiled(4, MachineModel::paragon()), workload);
    let makespan = rep.makespan();
    for (p, log) in rep.logs.iter().enumerate() {
        let at_finish = accounting(log, rep.times[p]);
        let at_makespan = accounting(log, makespan);
        assert_eq!(WindowBreakdown { idle: 0.0, ..at_finish }, WindowBreakdown { idle: 0.0, ..at_makespan });
        let extra = at_makespan.idle - at_finish.idle;
        let wait = makespan - rep.times[p];
        assert!((extra - wait).abs() <= 1e-12, "proc {p}: trailing idle {extra} vs {wait}");
        assert!((at_makespan.total() - makespan).abs() <= 1e-9 * makespan.max(1.0));
    }
}

#[test]
fn spans_are_ordered_and_non_overlapping() {
    let rep = run(&profiled(5, MachineModel::paragon()), workload);
    for log in &rep.logs {
        let mut cursor = 0.0;
        for s in log.spans() {
            assert!(s.start >= cursor - 1e-15, "span starts before previous end");
            assert!(s.end >= s.start);
            if s.kind == EventKind::Compute {
                assert_eq!(s.peer, u32::MAX);
            }
            cursor = s.end;
        }
    }
}

#[test]
fn profiling_does_not_perturb_virtual_time() {
    let m = MachineModel::paragon();
    let plain = run(&Machine::simulated(6, m), workload);
    let profiled = run(&profiled(6, m), workload);
    assert_eq!(plain.times, profiled.times, "profiling moved the virtual clock");
    assert!(plain.logs.iter().all(|l| l.events().is_empty()), "unprofiled run recorded spans");
    assert!(profiled.logs.iter().all(|l| l.spans().next().is_some()));
}

/// A mark never splits a compute span: two charges with a mark between
/// them are one Compute event and one Mark, and the accounting is what it
/// is without the mark.
#[test]
fn a_mark_between_two_charges_leaves_one_compute_event() {
    let go = |mark: bool| {
        run(&profiled(1, MachineModel::paragon()), move |cx| {
            cx.charge_flops(10_000.0);
            if mark {
                cx.record("x");
            }
            cx.charge_flops(20_000.0);
        })
    };
    let (marked, plain) = (go(true), go(false));
    let kinds: Vec<EventKind> = marked.logs[0].events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![EventKind::Compute, EventKind::Mark]);
    let span = marked.logs[0].events()[0];
    assert_eq!((span.start, span.end), (0.0, marked.times[0]), "one interval over both charges");
    assert_eq!(marked.events_named("x"), vec![(0, MachineModel::paragon().flops(10_000.0))]);
    assert_eq!(accounting(&marked.logs[0], marked.times[0]), accounting(&plain.logs[0], plain.times[0]));
    assert_eq!(marked.logs[0].spans().collect::<Vec<_>>(), plain.logs[0].spans().collect::<Vec<_>>());
}
