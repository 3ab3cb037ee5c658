//! Assembling a serve run's scattered observations into one report.

use fx_apps::util::ReqCompletion;
use fx_core::{request_trace_id, Machine, RunReport, WindowBreakdown};
use fx_runtime::{chrome_trace, Log, TelemetrySnapshot, TenantTotals};

use crate::server::ProcServe;
use crate::{ServeRequest, ShedPolicy};

/// Exact latency decomposition of one served request, recorded by its
/// canonical reporting processor.
///
/// The components partition the request's end-to-end latency on the
/// reporter's virtual clock: `queue_wait` covers `[arrival, dispatch]`
/// (admission queue), and `breakdown` decomposes `[dispatch, done]`
/// (service) into barrier / send / recv / compute / batch-mate ("other")
/// / idle. By construction `queue_wait + breakdown.total() == latency()`
/// exactly — the same closed accounting discipline as the span profiler.
/// Batch formation is instantaneous in virtual time (admission decisions
/// don't move the clock), so it carries no component of its own; time
/// spent on batch-mates while this request's clock ran shows up in
/// `breakdown.other`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Trace position of the request.
    pub req: usize,
    /// Tenant index of the request.
    pub tenant: usize,
    /// Causal trace id the request's events carry
    /// ([`fx_core::request_trace_id`] of `req`).
    pub trace_id: u64,
    /// Arrival time (virtual seconds).
    pub arrival: f64,
    /// Dispatch time: when the batch containing this request left the
    /// admission queue.
    pub dispatch: f64,
    /// Completion time on the reporting processor.
    pub done: f64,
    /// Serve-loop round that dispatched the request.
    pub round: u64,
    /// Number of requests in the dispatched batch.
    pub batch_size: usize,
    /// Decomposition of the service window `[dispatch, done]` on the
    /// reporting processor's clock, in virtual seconds.
    pub breakdown: WindowBreakdown,
}

impl RequestTrace {
    /// Time spent in the admission queue (virtual seconds).
    pub fn queue_wait(&self) -> f64 {
        self.dispatch - self.arrival
    }

    /// End-to-end latency (virtual seconds).
    pub fn latency(&self) -> f64 {
        self.done - self.arrival
    }

    /// The seven named components in reporting order:
    /// `(name, seconds)`. Sums exactly to [`RequestTrace::latency`].
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("queue", self.queue_wait()),
            ("barrier", self.breakdown.barrier),
            ("send", self.breakdown.send),
            ("recv", self.breakdown.recv),
            ("compute", self.breakdown.compute),
            ("other", self.breakdown.other),
            ("idle", self.breakdown.idle),
        ]
    }
}

/// Aggregate statistics of one latency component across all traced
/// requests (see [`ServeReport::request_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentStats {
    /// Component name (`queue`, `barrier`, `send`, `recv`, `compute`,
    /// `other`, `idle`).
    pub component: &'static str,
    /// Median of the component across requests, virtual seconds.
    pub p50: f64,
    /// 99th percentile of the component across requests.
    pub p99: f64,
    /// Mean of the component across requests.
    pub mean: f64,
}

/// Exact order statistic of `sorted` (ascending): the value at rank
/// `ceil(q*n)`; zero when empty.
fn percentile<V: Copy + Default>(sorted: &[V], q: f64) -> V {
    if sorted.is_empty() {
        return V::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A request's latency as the ledger counts it: arrival to completion on
/// the reporter's clock, in whole nanoseconds.
fn latency_ns(arrival: f64, done: f64) -> u64 {
    ((done - arrival).max(0.0) * 1e9).round() as u64
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport<T> {
    /// All completions, merged across processors and sorted by request
    /// index. Each served request appears exactly once.
    pub completions: Vec<ReqCompletion<T>>,
    /// Trace indices of shed requests, in shed order.
    pub shed: Vec<usize>,
    /// Per-tenant SLO accounting: a fold over the trace, the shed list
    /// and the completions, with exact latency quantiles (rank
    /// `ceil(q*n)`); the rows an attached registry is handed.
    pub tenants: Vec<TenantTotals>,
    /// Per-processor finish times (virtual seconds).
    pub times: Vec<f64>,
    /// Serve-loop rounds (max over processors).
    pub rounds: u64,
    /// Snapshot of the registry the caller attached to the machine
    /// (`None` without one), taken after this run's tenant rows were
    /// published to it — what the OpenMetrics/JSON exporters render,
    /// `fx_serve_*` families included.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Per-request latency decompositions, sorted by request index.
    /// Populated only when the machine ran with tracing on (profiling is
    /// enabled automatically then); one
    /// entry per completion.
    pub request_traces: Vec<RequestTrace>,
    /// Per-processor event logs of the serve run (duration events only
    /// when profiled), retained so per-request Chrome traces can be
    /// exported after the fact.
    pub logs: Vec<Log>,
}

impl<T> ServeReport<T> {
    /// Number of requests served.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Latest processor finish time (virtual seconds).
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// Look up a tenant's row by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantTotals> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Aggregate p50/p99/mean of each latency component across all
    /// traced requests, in component order (`queue`, `barrier`, `send`,
    /// `recv`, `compute`, `other`, `idle`) followed by a synthetic
    /// `latency` row. Empty when the run was not traced. Because each
    /// request's components sum exactly to its latency, the component
    /// means sum exactly to the latency mean.
    pub fn request_breakdown(&self) -> Vec<ComponentStats> {
        if self.request_traces.is_empty() {
            return Vec::new();
        }
        let names = ["queue", "barrier", "send", "recv", "compute", "other", "idle", "latency"];
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut vals: Vec<f64> = self
                    .request_traces
                    .iter()
                    .map(|t| if i < 7 { t.components()[i].1 } else { t.latency() })
                    .collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                ComponentStats {
                    component: name,
                    p50: percentile(&vals, 0.50),
                    p99: percentile(&vals, 0.99),
                    mean,
                }
            })
            .collect()
    }

    /// The latency decomposition of one request, if it was traced.
    pub fn request_trace(&self, req: usize) -> Option<&RequestTrace> {
        self.request_traces.iter().find(|t| t.req == req)
    }

    /// Per-request Chrome-trace JSON (events of this request across all
    /// processor lanes, with send→recv flow arrows). `None` when the
    /// request was not traced (a traced request's run was profiled).
    pub fn request_trace_json(&self, req: usize) -> Option<String> {
        let t = self.request_trace(req)?;
        Some(chrome_trace(&self.logs, Some(t.trace_id)))
    }

    /// Counter conservation across all tenants (see
    /// [`TenantTotals::conserved`]). `arrived` is counted from the trace
    /// and the other two from the merged lists, so a request that was
    /// neither completed nor shed breaks it.
    pub fn conserved(&self) -> bool {
        let completed: u64 = self.tenants.iter().map(|t| t.completed).sum();
        let shed: u64 = self.tenants.iter().map(|t| t.shed).sum();
        self.tenants.iter().all(TenantTotals::conserved)
            && completed == self.completions.len() as u64
            && shed == self.shed.len() as u64
    }
}

/// Merge per-processor serve results into one [`ServeReport`]. The
/// tenant ledger is folded here, once, from the trace, the merged shed
/// list and the merged completions; a registry attached to `machine`
/// is handed the same rows and the slowest requests' Chrome traces.
/// Panics if any request was reported complete by more than one
/// processor — the canonical-reporter contract.
pub(crate) fn assemble<T>(
    rep: RunReport<ProcServe<T>>,
    trace: &[ServeRequest],
    tenant_names: &[&str],
    policy: ShedPolicy,
    machine: &Machine,
) -> ServeReport<T> {
    let rounds = rep.results.iter().map(|p| p.rounds).max().unwrap_or(0);
    let mut completions: Vec<ReqCompletion<T>> = Vec::new();
    let mut shed: Vec<usize> = Vec::new();
    let mut request_traces: Vec<RequestTrace> = Vec::new();
    for proc in rep.results {
        completions.extend(proc.completions);
        shed.extend(proc.sheds);
        request_traces.extend(proc.traces);
    }
    request_traces.sort_by_key(|t| t.req);
    completions.sort_by_key(|c| c.req);
    for w in completions.windows(2) {
        assert_ne!(
            w[0].req, w[1].req,
            "request {} reported complete by more than one processor",
            w[0].req
        );
    }
    for c in &completions {
        assert!(c.req < trace.len(), "completion for unknown request {}", c.req);
    }

    // One row per tenant; `samples` are `(latency ns, trace id)` in
    // request order, the id 0 unless the run was traced.
    let tenants: Vec<TenantTotals> = (0..tenant_names.len())
        .map(|tenant| {
            let mine = |req: usize| trace[req].tenant == tenant;
            let id = |req: usize| if machine.tracing { request_trace_id(req) } else { 0 };
            let samples: Vec<(u64, u64)> = completions
                .iter()
                .filter(|c| mine(c.req))
                .map(|c| (latency_ns(trace[c.req].arrival, c.done), id(c.req)))
                .collect();
            let mut sorted: Vec<u64> = samples.iter().map(|s| s.0).collect();
            sorted.sort_unstable();
            let arrived = trace.iter().filter(|r| r.tenant == tenant).count() as u64;
            let shed = shed.iter().filter(|&&req| mine(req)).count() as u64;
            TenantTotals {
                arrived,
                admitted: match policy {
                    ShedPolicy::DropNewest => arrived - shed,
                    ShedPolicy::DropOldest => arrived,
                },
                shed,
                p50_ns: percentile(&sorted, 0.50),
                p99_ns: percentile(&sorted, 0.99),
                p999_ns: percentile(&sorted, 0.999),
                ..TenantTotals::from_samples(tenant_names[tenant], &samples)
            }
        })
        .collect();

    // Rendering is lazy: only the requests the registry retains pay for
    // JSON serialization.
    let telemetry = machine.telemetry.as_ref().map(|registry| {
        let done = request_traces.iter().map(|t| (t.trace_id, latency_ns(t.arrival, t.done)));
        registry.publish_serving(tenants.clone(), done, |id| chrome_trace(&rep.logs, Some(id)));
        registry.snapshot()
    });

    ServeReport {
        completions,
        shed,
        tenants,
        times: rep.times,
        rounds,
        telemetry,
        request_traces,
        logs: rep.logs,
    }
}
