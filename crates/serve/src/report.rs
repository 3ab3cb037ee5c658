//! Assembling a serve run's scattered observations into one report.

use fx_apps::util::ReqCompletion;
use fx_core::{RunReport, WindowBreakdown};
use fx_runtime::{chrome_trace, Log, Telemetry, TelemetrySnapshot};

use crate::server::ProcServe;
use crate::ServeRequest;

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
/// `ceil(q*n)`, the convention histogram quantiles approximate.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One tenant's service-level accounting for a serve run.
///
/// Latency quantiles come from the runtime's log-bucketed telemetry
/// histograms, so they carry that histogram's documented bound: the
/// estimate is within a factor of two of the exact order statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests that arrived (admitted + shed under tail drop).
    pub arrived: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests dropped by the shedding policy.
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Median completion latency, virtual nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile completion latency, virtual nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile completion latency, virtual nanoseconds.
    pub p999_ns: u64,
    /// Mean completion latency, virtual nanoseconds.
    pub mean_ns: f64,
}

impl TenantReport {
    /// Counter conservation: every arrived request was either served
    /// or shed, nothing lost, nothing double-counted.
    pub fn conserved(&self) -> bool {
        self.arrived == self.completed + self.shed
    }
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport<T> {
    /// All completions, merged across processors and sorted by request
    /// index. Each served request appears exactly once.
    pub completions: Vec<ReqCompletion<T>>,
    /// Trace indices of shed requests, in shed order.
    pub shed: Vec<usize>,
    /// Per-tenant SLO accounting.
    pub tenants: Vec<TenantReport>,
    /// Per-processor finish times (virtual seconds when simulating).
    pub times: Vec<f64>,
    /// Serve-loop rounds (max over processors).
    pub rounds: u64,
    /// Full telemetry snapshot of the run, for the OpenMetrics/JSON
    /// exporters — includes the per-tenant request counters and
    /// latency histograms rendered as `fx_serve_*` families.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Per-request latency decompositions, sorted by request index.
    /// Populated only when the machine ran with tracing on under
    /// simulated time (profiling is enabled automatically then); one
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

    /// Latest processor finish time (virtual seconds when simulating).
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// Served requests per second of makespan.
    pub fn throughput(&self) -> f64 {
        let m = self.makespan();
        if m > 0.0 {
            self.completed() as f64 / m
        } else {
            0.0
        }
    }

    /// Look up a tenant's report by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
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
    /// [`TenantReport::conserved`]); also checks the merged completion
    /// and shed lists against the counter totals.
    pub fn conserved(&self) -> bool {
        let completed: u64 = self.tenants.iter().map(|t| t.completed).sum();
        let shed: u64 = self.tenants.iter().map(|t| t.shed).sum();
        self.tenants.iter().all(TenantReport::conserved)
            && completed == self.completions.len() as u64
            && shed == self.shed.len() as u64
    }
}

/// Merge per-processor serve results and the live tenant counters into
/// one [`ServeReport`]. Panics if any request was reported complete by
/// more than one processor — the canonical-reporter contract.
pub(crate) fn assemble<T>(
    rep: RunReport<ProcServe<T>>,
    trace: &[ServeRequest],
    tenant_names: &[&str],
    telemetry: &Telemetry,
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

    let by_name = telemetry.tenants();
    let tenants = tenant_names
        .iter()
        .map(|name| {
            let t = by_name
                .iter()
                .find(|t| t.name() == *name)
                .expect("serve registered every tenant name");
            let totals = t.totals();
            let h = &totals.latency_ns;
            TenantReport {
                name: totals.name.clone(),
                arrived: totals.arrived,
                admitted: totals.admitted,
                shed: totals.shed,
                completed: totals.completed,
                p50_ns: h.quantile(0.50),
                p99_ns: h.quantile(0.99),
                p999_ns: h.quantile(0.999),
                mean_ns: h.mean(),
            }
        })
        .collect();

    ServeReport {
        completions,
        shed,
        tenants,
        times: rep.times,
        rounds,
        telemetry: rep.telemetry,
        request_traces,
        logs: rep.logs,
    }
}
