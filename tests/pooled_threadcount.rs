//! The acceptance test for "simulated processors are decoupled from OS
//! threads": a P = 1024 run on the pooled executor must complete on a
//! small, fixed worker pool instead of spawning a thread per processor.
//!
//! The check reads the kernel's own thread count for this process
//! (`Threads:` in /proc/self/status) from inside the run, at a point
//! where all 1024 processors exist concurrently (none has finished, all
//! are live coroutines). Under the old executor this number would be
//! ≥ 1024; under the pooled executor it is the worker count plus the
//! test harness's threads: a run starts no service thread.

use std::sync::Arc;

use fx_core::spmd;
use fx_runtime::{Executor, Machine, MachineModel, Telemetry};

/// A numeric field of /proc/self/status (`Threads:`, `VmRSS:` in kB).
/// Linux-only, like the coroutine executor itself.
fn proc_status(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}

/// Current OS-thread count of this process.
fn os_thread_count() -> usize {
    proc_status("Threads:")
}

/// The names of this process's OS threads (`comm`, cut to 15 bytes).
fn os_thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc; pooled executor is Linux-only")]
fn p1024_runs_on_fixed_worker_pool() {
    const P: usize = 1024;
    let machine = Machine::simulated(P, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let rep = spmd(&machine, |cx| {
        // A full ring exchange: every processor blocks in recv at least
        // once, so all 1024 coroutines are simultaneously live (started,
        // not finished) when the ring closes through rank 0.
        let p = cx.nprocs();
        let right = (cx.id() + 1) % p;
        let left = (cx.id() + p - 1) % p;
        cx.send_v(right, 1, cx.id() as u64);
        let v: u64 = cx.recv_v(left, 1);
        // Rank 0 samples the thread count mid-run, after the ring has
        // proven every peer was created.
        let threads = if cx.id() == 0 { os_thread_count() } else { 0 };
        (v, threads)
    });
    let threads_mid_run = rep.results[0].1;
    assert!(
        threads_mid_run < 32,
        "expected a fixed small worker pool, but the process had {threads_mid_run} OS threads \
         during a P={P} pooled run (a thread-per-processor executor would show ≥ {P})"
    );
    // And the run itself was correct.
    for (rank, (v, _)) in rep.results.iter().enumerate() {
        assert_eq!(*v as usize, (rank + P - 1) % P);
    }
}

/// The mailbox builds nothing per *possible* sender and keeps nothing per
/// *delivered* message: a P = 1024 run whose collectives draw a fresh tag
/// every round (225 080 messages over a few thousand of the 1 048 576
/// possible lanes) must not grow the process by anything like the 96 MiB of eager
/// lanes plus ≈ ½ KB of dead queue per message it used to. Resident size
/// is read by rank 0 inside the run, after the last round, while every
/// mailbox is still alive.
#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc; pooled executor is Linux-only")]
fn p1024_message_rounds_leave_memory_flat() {
    const P: usize = 1024;
    let machine = Machine::simulated(P, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let before_kb = proc_status("VmRSS:");
    let rep = spmd(&machine, |cx| {
        let (me, p) = (cx.id(), cx.nprocs());
        let mut token = me as u64;
        for _ in 0..20 {
            cx.send_v((me + 1) % p, 1, token);
            token = cx.recv_v((me + p - 1) % p, 1);
        }
        let mut sum = 0;
        for _ in 0..50 {
            sum = cx.allreduce(me as u64, u64::wrapping_add);
            cx.barrier();
        }
        (token, sum, if me == 0 { proc_status("VmRSS:") } else { 0 })
    });
    for (rank, &(token, sum, _)) in rep.results.iter().enumerate() {
        assert_eq!(token as usize, (rank + P - 20) % P);
        assert_eq!(sum as usize, P * (P - 1) / 2);
    }
    let grown_mib = rep.results[0].2.saturating_sub(before_kb) / 1024;
    assert!(
        grown_mib < 128,
        "a P={P} run of 20 ring and 50 allreduce+barrier rounds grew VmRSS by {grown_mib} MiB"
    );
    eprintln!("P={P}: VmRSS grew by {grown_mib} MiB over the run");
}

/// An observed run adds no thread: the default registry's stall reports
/// are the diagnoses of deadlocks, which the pool's workers declare.
/// Rank 0 lists the process's threads mid-run, after a ring exchange has
/// proven every processor live: none is a tick or a stall thread.
#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc; pooled executor is Linux-only")]
fn an_observed_run_starts_no_stall_thread() {
    let telemetry = Arc::new(Telemetry::new());
    assert!(telemetry.config().stall, "the default registry reports stalls");
    let machine = Machine::simulated(8, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 1 })
        .with_telemetry(telemetry);
    let rep = spmd(&machine, |cx| {
        let p = cx.nprocs();
        cx.send_v((cx.id() + 1) % p, 1, cx.id() as u64);
        let _: u64 = cx.recv_v((cx.id() + p - 1) % p, 1);
        if cx.id() == 0 {
            os_thread_names()
        } else {
            Vec::new()
        }
    });
    let names = &rep.results[0];
    assert!(!names.iter().any(|n| n == "fx-tick" || n.starts_with("fx-stall")), "a service thread in {names:?}");
}
