//! A failure reaches the panic hook once. A processor released by another
//! one's panic — a poisoned receive — unwinds without calling the hook,
//! so the hook sees the root cause (or the deadlock diagnosis) and none of
//! the secondary panics; `run` still re-raises the root cause.
//!
//! A panic hook is process-wide: this file is its own test binary, and
//! its one test runs every case in turn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use fx::prelude::*;
use fx::runtime::{Executor, ProcCtx};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Run `program` on `p` processors and `workers` workers, expecting it to
/// panic: its message, and the number of hook calls it made.
fn hook_calls(p: usize, workers: usize, program: fn(&mut ProcCtx)) -> (String, usize) {
    let machine = Machine::simulated(p, MachineModel::paragon()).with_executor(Executor::Pooled { workers });
    let before = HOOK_CALLS.load(Ordering::SeqCst);
    let err = catch_unwind(AssertUnwindSafe(|| fx::runtime::run(&machine, program))).expect_err("the run must panic");
    let msg = err.downcast_ref::<String>().cloned().or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()));
    (msg.unwrap_or_default(), HOOK_CALLS.load(Ordering::SeqCst) - before)
}

#[test]
fn a_failure_calls_the_panic_hook_once() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        default(info);
    }));

    // The receive-first ring at P = 64: a deadlock, whose diagnosis the
    // first released processor raises and whose 63 others see the poison.
    let ring: fn(&mut ProcCtx) = |cx| {
        let (me, p) = (cx.rank(), cx.nprocs());
        let _: u64 = cx.recv((me + p - 1) % p, 1);
        cx.send((me + 1) % p, 1, me as u64);
    };
    // P = 16: processor 0 panics while the other 15 wait in a receive.
    let root_cause: fn(&mut ProcCtx) = |cx| {
        if cx.rank() == 0 {
            panic!("injected failure on processor zero");
        }
        let _: u64 = cx.recv(0, 1);
    };
    for workers in [1, 2, 64] {
        let (msg, calls) = hook_calls(64, workers, ring);
        assert!(msg.starts_with("deadlock: "), "{workers} workers: {msg}");
        assert_eq!(calls, 1, "{workers} workers: the P = 64 ring deadlock called the hook {calls} times");
    }
    for workers in [1, 2, 16] {
        let (msg, calls) = hook_calls(16, workers, root_cause);
        assert_eq!(msg, "injected failure on processor zero", "{workers} workers");
        assert_eq!(calls, 1, "{workers} workers: one panic among 16 called the hook {calls} times");
    }
}
