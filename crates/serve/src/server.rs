//! The long-lived cluster object: admission, batching, shedding.

use std::collections::VecDeque;
use std::time::Duration;

use fx_core::{request_trace_id, spmd, Cx, Machine};

use crate::report::{assemble, RequestTrace, ServeReport};
use crate::{Servable, ServeConfig, ServeRequest, ShedPolicy};

/// What one processor brings back from a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcServe<T> {
    /// Completions this processor was the canonical reporter for.
    pub completions: Vec<fx_apps::util::ReqCompletion<T>>,
    /// Trace indices shed by admission control (processor 0 only, so
    /// the merged list counts each shed request exactly once).
    pub sheds: Vec<usize>,
    /// Serve-loop iterations this processor executed, under either
    /// clock: every agreement `allreduce` counts, whether or not the round
    /// dispatched a batch.
    pub rounds: u64,
    /// Per-request latency decompositions for the completions above
    /// (empty unless the run was traced).
    pub traces: Vec<RequestTrace>,
}

/// A long-lived cluster object wrapping a compiled pipeline.
///
/// `Server` owns a [`Machine`] and a [`Servable`]; [`Server::serve`]
/// pushes an open-loop arrival trace through the pipeline under
/// admission control and returns per-request completions plus
/// per-tenant SLO accounting. See the crate docs for the one serve
/// procedure (replicated rounds under either clock).
pub struct Server<S: Servable> {
    machine: Machine,
    servable: S,
    cfg: ServeConfig,
}

impl<S: Servable> Server<S> {
    /// A server on `machine` wrapping `servable`, with the default
    /// [`ServeConfig`].
    pub fn new(machine: Machine, servable: S) -> Self {
        Server { machine, servable, cfg: ServeConfig::default() }
    }

    /// Replace the admission-control configuration.
    pub fn with_config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The active admission-control configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serve the whole trace to completion (or shedding) and report.
    ///
    /// `tenant_names[t]` labels tenant index `t`; every request's
    /// `tenant` must index into it, and requests must be sorted by
    /// arrival with `idx` equal to trace position (what
    /// [`poisson_trace`](crate::poisson_trace) produces).
    pub fn serve(&self, trace: &[ServeRequest], tenant_names: &[&str]) -> ServeReport<S::Output> {
        assert!(self.cfg.queue_cap >= 1, "admission queue needs capacity >= 1");
        assert!(self.cfg.batch_max >= 1, "batches need at least one request");
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.idx, i, "trace idx must equal trace position");
            assert!(r.tenant < tenant_names.len(), "request tenant out of range");
            assert!(i == 0 || trace[i - 1].arrival <= r.arrival, "trace must be arrival-sorted");
        }

        let mut machine = self.machine.clone();
        // Per-request attribution needs duration events: a traced simulated
        // serve profiles implicitly, so FX_TRACE=1 alone yields full
        // breakdowns (profiling never moves the virtual clock).
        if machine.mode.is_simulated() && machine.tracing {
            machine = machine.with_profiling(true);
        }
        let rep = spmd(&machine, |cx| serve_rounds(cx, &self.servable, &self.cfg, trace));
        assemble(rep, trace, tenant_names, self.cfg.shed, &machine)
    }
}

/// Admit `r` into the bounded queue or shed per policy. Returns the
/// victim's trace index if a request was shed.
fn admit(r: &ServeRequest, queue: &mut VecDeque<ServeRequest>, cfg: &ServeConfig) -> Option<usize> {
    if queue.len() < cfg.queue_cap {
        queue.push_back(r.clone());
        return None;
    }
    match cfg.shed {
        ShedPolicy::DropNewest => Some(r.idx),
        ShedPolicy::DropOldest => {
            let victim = queue.pop_front().expect("queue_cap >= 1 so the full queue is nonempty");
            queue.push_back(r.clone());
            Some(victim.idx)
        }
    }
}

/// Skip an idle gap to the agreed time `t`. The virtual clock jumps; the
/// wall clock is waited for in short slices with a yield before each, so
/// a worker is never held across the gap: every processor reaches
/// its own wait and none sits parked in a receive for the watchdog tick
/// to expire or report as a stall.
fn skip_to(cx: &mut Cx, t: f64) {
    cx.runtime().advance_to(t);
    while cx.now() < t {
        cx.runtime().yield_now();
        std::thread::sleep(Duration::from_secs_f64((t - cx.now()).clamp(0.0, 0.002)));
    }
}

/// The serve procedure: a replicated decision loop under either clock.
/// Each round every processor agrees on the round time (`allreduce` max —
/// the pipeline's slowest processor gates admission, exactly as a shared
/// frontend would observe), skips an idle gap to the next arrival, then
/// admits/sheds/batches with identical pure-function decisions of the
/// agreed time — never of its own `now()`: `run_batch` is SPMD over the
/// batch. No coordinator, no extra messages beyond the agreement
/// reduction, and under simulated time the run stays bit-identical
/// across worker counts and hosts.
fn serve_rounds<S: Servable>(
    cx: &mut Cx,
    servable: &S,
    cfg: &ServeConfig,
    trace: &[ServeRequest],
) -> ProcServe<S::Output> {
    // Duration events are retained under simulated time only, so a
    // real-time run carries no per-request breakdowns.
    let traced = cx.tracing() && cx.profiling();
    let mut queue: VecDeque<ServeRequest> = VecDeque::new();
    let mut next = 0usize;
    let mut completions = Vec::new();
    let mut sheds = Vec::new();
    let mut rounds = 0u64;
    let mut traces = Vec::new();

    loop {
        rounds += 1;
        let mut t = cx.allreduce(cx.now(), f64::max);
        cx.runtime().advance_to(t);
        if queue.is_empty() {
            if next >= trace.len() {
                break;
            }
            if trace[next].arrival > t {
                // Nothing queued and nothing arrived: skip the idle gap.
                t = trace[next].arrival;
                skip_to(cx, t);
            }
        }
        while next < trace.len() && trace[next].arrival <= t {
            if let Some(victim) = admit(&trace[next], &mut queue, cfg) {
                if cx.id() == 0 {
                    sheds.push(victim);
                }
            }
            next += 1;
        }
        if queue.is_empty() {
            continue;
        }
        let k = cfg.batch_max.min(queue.len());
        let batch: Vec<ServeRequest> = queue.drain(..k).collect();
        // Dispatch is now: admission admits only arrivals <= t, so every
        // batch member's queue_wait = dispatch - arrival is >= 0. The log
        // mark brackets the batch: everything the reporter's clock does
        // between mark and a completion belongs to that request's service
        // window.
        let dispatch = cx.now();
        let mark = cx.runtime().log_mark();
        let got = servable.run_batch(cx, &batch);
        cx.clear_trace();
        if traced {
            for c in &got {
                let own = request_trace_id(c.req);
                let breakdown = cx.runtime().log().window_breakdown(mark, dispatch, c.done, own);
                traces.push(RequestTrace {
                    req: c.req,
                    tenant: trace[c.req].tenant,
                    trace_id: own,
                    arrival: trace[c.req].arrival,
                    dispatch,
                    done: c.done,
                    round: rounds,
                    batch_size: batch.len(),
                    breakdown,
                });
            }
        }
        completions.extend(got);
    }
    ProcServe { completions, sheds, rounds, traces }
}
