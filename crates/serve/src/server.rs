//! The long-lived cluster object: admission, batching, shedding.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use fx_core::{request_trace_id, spmd, Cx, Machine};
use fx_runtime::{Telemetry, TelemetryConfig, TenantStats};

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
    /// Serve-loop rounds this processor executed.
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
/// per-tenant SLO accounting. See the crate docs for the two serving
/// modes (replicated rounds under simulated time, rank-0 frontend
/// under real time).
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

        // Nobody could read the stall reports of a registry built here: no sampler.
        let telemetry = self.machine.telemetry.clone().unwrap_or_else(|| {
            Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }))
        });
        let tenants = telemetry.begin_tenants(tenant_names);
        let mut machine = self.machine.clone().with_telemetry(telemetry.clone());
        let sim = machine.mode.is_simulated();
        // Per-request attribution needs duration events: a traced simulated
        // serve profiles implicitly, so FX_TRACE=1 alone yields full
        // breakdowns (profiling never moves the virtual clock).
        if sim && machine.tracing {
            machine = machine.with_profiling(true);
        }
        let cfg = self.cfg;
        let servable = &self.servable;
        let trace_arc: Arc<[ServeRequest]> = trace.into();

        let rep = spmd(&machine, move |cx| {
            if sim {
                serve_simulated(cx, servable, &cfg, &trace_arc, &tenants)
            } else {
                serve_real(cx, servable, &cfg, &trace_arc, &tenants)
            }
        });
        let report = assemble(rep, trace, tenant_names, &telemetry);
        // Retain the slowest requests' per-request Chrome traces in the
        // telemetry exemplar ring (served by `/trace/<id>`). Rendering
        // is lazy: only ring entrants pay for JSON serialization.
        let lat_ns = |t: &RequestTrace| (t.latency().max(0.0) * 1e9).round() as u64;
        let done = report.request_traces.iter().map(|t| (t.trace_id, lat_ns(t)));
        telemetry.offer_exemplar_traces(done, |id| fx_runtime::chrome_trace(&report.logs, Some(id)));
        report
    }
}

/// Admit `r` into the bounded queue or shed per policy. Returns the
/// victim's trace index if a request was shed. Telemetry counters are
/// bumped only when `account` is set (processor 0), so machine-wide
/// totals count each decision once even though the simulated-time loop
/// replicates the decision on every processor.
fn admit(
    r: &ServeRequest,
    queue: &mut VecDeque<ServeRequest>,
    cfg: &ServeConfig,
    tenants: &[Arc<TenantStats>],
    account: bool,
) -> Option<usize> {
    if account {
        tenants[r.tenant].arrived.fetch_add(1, Ordering::Relaxed);
    }
    if queue.len() < cfg.queue_cap {
        if account {
            tenants[r.tenant].admitted.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(r.clone());
        return None;
    }
    match cfg.shed {
        ShedPolicy::DropNewest => {
            if account {
                tenants[r.tenant].shed.fetch_add(1, Ordering::Relaxed);
            }
            Some(r.idx)
        }
        ShedPolicy::DropOldest => {
            let victim = queue.pop_front().expect("queue_cap >= 1 so the full queue is nonempty");
            if account {
                tenants[victim.tenant].shed.fetch_add(1, Ordering::Relaxed);
                tenants[r.tenant].admitted.fetch_add(1, Ordering::Relaxed);
            }
            queue.push_back(r.clone());
            Some(victim.idx)
        }
    }
}

/// Record the completions this processor canonically reported:
/// latency (arrival → completion) goes into the tenant histogram in
/// virtual nanoseconds. Safe under concurrent reporters (replicated
/// modules complete different requests of the same tenant at once)
/// because the histogram path uses shared atomic recording.
fn account_completions<T>(
    got: &[fx_apps::util::ReqCompletion<T>],
    trace: &[ServeRequest],
    tenants: &[Arc<TenantStats>],
    traced: bool,
) {
    for c in got {
        let r = &trace[c.req];
        let lat_ns = ((c.done - r.arrival).max(0.0) * 1e9).round() as u64;
        // Traced runs attach the request's trace id as the bucket's
        // OpenMetrics exemplar; id 0 records without one.
        let tid = if traced { request_trace_id(c.req) } else { 0 };
        tenants[r.tenant].on_complete_traced(lat_ns, tid);
    }
}

/// Simulated-time serving: a replicated decision procedure. Each round
/// every processor agrees on the round time (`allreduce` max — the
/// pipeline's slowest processor gates admission, exactly as a shared
/// frontend would observe), jumps idle gaps to the next arrival, then
/// admits/sheds/batches with identical pure-function decisions. No
/// coordinator, no extra messages beyond the agreement reduction, and
/// the run stays bit-identical across executors and hosts.
fn serve_simulated<S: Servable>(
    cx: &mut Cx,
    servable: &S,
    cfg: &ServeConfig,
    trace: &[ServeRequest],
    tenants: &[Arc<TenantStats>],
) -> ProcServe<S::Output> {
    let account = cx.id() == 0;
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
                // Nothing queued and nothing arrived: jump the idle gap.
                t = trace[next].arrival;
                cx.runtime().advance_to(t);
            }
        }
        while next < trace.len() && trace[next].arrival <= t {
            if let Some(victim) = admit(&trace[next], &mut queue, cfg, tenants, account) {
                if account {
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
        account_completions(&got, trace, tenants, traced);
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

/// Real-time serving: processor 0 is the frontend. It polls the wall
/// clock for arrivals, runs admission control, and broadcasts either a
/// batch directive (`Some(batch)`) or shutdown (`None`). Everyone else
/// declares itself idle while waiting for the next directive so the
/// stuck-run watchdog does not mistake trace gaps for a deadlock —
/// then clears the flag before computing, so a genuinely wedged batch
/// still dumps.
fn serve_real<S: Servable>(
    cx: &mut Cx,
    servable: &S,
    cfg: &ServeConfig,
    trace: &[ServeRequest],
    tenants: &[Arc<TenantStats>],
) -> ProcServe<S::Output> {
    let me = cx.id();
    let mut queue: VecDeque<ServeRequest> = VecDeque::new();
    let mut next = 0usize;
    let mut completions = Vec::new();
    let mut sheds = Vec::new();
    let mut rounds = 0u64;

    loop {
        let directive: Option<Vec<ServeRequest>> = if me == 0 {
            loop {
                let now = cx.now();
                while next < trace.len() && trace[next].arrival <= now {
                    if let Some(victim) = admit(&trace[next], &mut queue, cfg, tenants, true) {
                        sheds.push(victim);
                    }
                    next += 1;
                }
                if !queue.is_empty() {
                    let k = cfg.batch_max.min(queue.len());
                    break Some(queue.drain(..k).collect());
                }
                if next >= trace.len() {
                    break None;
                }
                let wait = (trace[next].arrival - cx.now()).max(0.0);
                std::thread::sleep(Duration::from_secs_f64(wait.clamp(0.0002, 0.005)));
            }
        } else {
            None
        };
        if me != 0 {
            cx.set_idle(true);
        }
        let directive = cx.bcast(0, directive);
        if me != 0 {
            cx.set_idle(false);
        }
        let Some(batch) = directive else { break };
        rounds += 1;
        let got = servable.run_batch(cx, &batch);
        account_completions(&got, trace, tenants, cx.tracing());
        completions.extend(got);
    }
    // Real-time mode retains no duration events, so no per-request breakdowns.
    ProcServe { completions, sheds, rounds, traces: Vec::new() }
}
