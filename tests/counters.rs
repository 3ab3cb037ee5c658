//! The per-processor counters have one store, so there is nothing to
//! reconcile — only to state: the report and the registry read the same
//! rows, no knob changes a count, and the counts conserve messages even
//! when nobody observes the run.

use std::sync::Arc;

use fx::prelude::*;
use fx::runtime::{DataflowMode, Executor, ProcTotals, RunReport, Telemetry, TelemetryConfig};

/// Every way a counter gets bumped, on a small machine: boxed ring rounds
/// and barriers on the whole group, two task regions (each entered by its
/// members and skipped by the others) that barrier on their subgroups,
/// and plan-driven `assign2`/`transpose2` statements — a plan miss then
/// hits, chunk sends, pool misses then hits, sync points elided.
fn mixed(cx: &mut Cx) -> u64 {
    let (me, p) = (cx.id(), cx.nprocs());
    let mut token = me as u64;
    for _ in 0..3 {
        cx.send_v((me + 1) % p, 1, token);
        token = cx.recv_v((me + p - 1) % p, 1);
        cx.barrier();
    }
    let part = cx.task_partition(&[("left", Size::Procs(p / 2)), ("right", Size::Rest)]);
    let sides = cx.task_region(&part, |cx, tr| {
        let l = tr.on(cx, "left", |cx| cx.allreduce(1u64, |a, b| a + b));
        let r = tr.on(cx, "right", |cx| {
            cx.barrier();
            cx.allreduce(10u64, |a, b| a + b)
        });
        l.or(r).expect("every processor is on one side")
    });
    let g = cx.group();
    let n = 4 * p;
    let data: Vec<u64> = (0..(n * n) as u64).collect();
    let cols = DArray2::from_global(cx, &g, [n, n], (Dist::Star, Dist::Block), &data);
    let mut rows = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), 0u64);
    let mut turned = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), 0u64);
    for _ in 0..3 {
        assign2(cx, &mut rows, &cols);
        transpose2(cx, &mut turned, &cols);
    }
    token + sides + rows.local()[0] + turned.local()[0]
}

fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_dataflow(DataflowMode::On)
}

fn registry() -> Arc<Telemetry> {
    Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }))
}

/// (a) One block, two readers: the snapshot's rows are the report's.
#[test]
fn snapshot_rows_are_the_report_rows() {
    let rep = spmd(&paragon(8).with_telemetry(registry()), mixed);
    let snap = rep.telemetry.as_ref().expect("registry attached");
    assert_eq!(snap.per_proc, rep.counters);
    assert_eq!(snap.total(), rep.total());
    let t = rep.total();
    for (name, v) in [
        ("boxed sends", t.sends - t.chunk_msgs),
        ("chunk sends", t.chunk_msgs),
        ("barriers", t.barriers),
        ("region entries", t.region_enters),
        ("region skips", t.region_skips),
        ("plan misses", t.plan_misses),
        ("plan hits", t.plan_hits),
        ("pool hits", t.pool_hits),
        ("elided sync points", t.barriers_elided),
    ] {
        assert!(v > 0, "the workload exercises {name}: {t}");
    }
}

/// (b) No knob changes a count. Worker count × registry × profiling ×
/// tracing: every counter of every processor is identical in all 24
/// cells — all but `lane_contention`, which is a `try_lock` outcome and
/// so depends on the host schedule — and the three host durations are
/// zero exactly when no registry is attached.
#[test]
fn counts_are_identical_under_every_knob() {
    let counts = |rep: &RunReport<u64>| -> Vec<ProcTotals> {
        let strip = |row: &ProcTotals| ProcTotals { lane_contention: 0, send_ns: 0, recv_wait_ns: 0, pack_ns: 0, ..row.clone() };
        rep.counters.iter().map(strip).collect()
    };
    let mut reference: Option<(Vec<ProcTotals>, Vec<u64>, Vec<f64>)> = None;
    // One worker, two, and one per processor (4096 is clamped to P).
    for executor in [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }] {
        for observed in [false, true] {
            for (profiling, tracing) in [(false, false), (true, false), (false, true), (true, true)] {
                let cell = format!("{executor} registry={observed} profiling={profiling} tracing={tracing}");
                let mut machine = paragon(8).with_executor(executor).with_profiling(profiling).with_tracing(tracing);
                if observed {
                    machine = machine.with_telemetry(registry());
                }
                let rep = spmd(&machine, mixed);
                let t = rep.total();
                if observed {
                    assert!(t.send_ns > 0 && t.recv_wait_ns > 0 && t.pack_ns > 0, "{cell}: durations are measured: {t}");
                } else {
                    assert_eq!((t.send_ns, t.recv_wait_ns, t.pack_ns), (0, 0, 0), "{cell}: durations have no reader");
                }
                let got = (counts(&rep), rep.results.clone(), rep.times.clone());
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "{cell}"),
                }
            }
        }
    }
}

/// (c) Conservation, on a run nobody observes: every message sent was
/// received or is still queued, byte for byte.
#[test]
fn unobserved_counts_conserve_messages() {
    let rep = spmd(&paragon(8), mixed);
    assert!(rep.telemetry.is_none());
    let t = rep.total();
    assert_eq!(rep.undelivered, 0);
    assert_eq!((t.recvs, t.recv_bytes), (t.sends, t.send_bytes));
    assert!(t.barriers > 0 && t.region_enters > 0 && t.region_skips > 0, "{t}");
    assert_eq!(rep.traffic, rep.counters.iter().map(|c| (c.sends, c.send_bytes)).collect::<Vec<_>>());

    let leaky = spmd(&paragon(2), |cx| {
        if cx.id() == 0 {
            cx.send_v(1, 1, 5u8);
            cx.send_v(1, 2, 6u8);
        } else {
            let _: u8 = cx.recv_v(0, 1);
        }
    });
    let t = leaky.total();
    assert_eq!((t.sends, t.recvs, leaky.undelivered), (2, 1, 1));
}

/// The report lists the mailbox lanes that were built, not all P² that
/// could have been: a ring and a tree barrier at P = 1024 touch a few
/// lanes per processor, and what those lanes hold is what was sent.
#[test]
fn report_lists_materialised_lanes_only() {
    const P: usize = 1024;
    let rep = spmd(&paragon(P).with_executor(Executor::Pooled { workers: 2 }), |cx| {
        let (me, p) = (cx.id(), cx.nprocs());
        cx.send_v((me + 1) % p, 1, me as u64);
        let from: u64 = cx.recv_v((me + p - 1) % p, 1);
        cx.barrier();
        from
    });
    let lanes: usize = rep.lane_bytes.iter().map(Vec::len).sum();
    assert!((P..64 * P).contains(&lanes), "{lanes} lane entries for {P} processors");
    let held: u64 = rep.lane_bytes.iter().flatten().map(|&(_, bytes)| bytes).sum();
    assert_eq!(held, rep.total().send_bytes);
    for (me, row) in rep.lane_bytes.iter().enumerate() {
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "processor {me}: ascending by sender");
        assert!(row.iter().any(|&(src, bytes)| src == (me + P - 1) % P && bytes >= 8), "processor {me}: ring lane");
    }
}
