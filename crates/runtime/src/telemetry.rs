//! Host-mode telemetry: a metrics registry with OpenMetrics/JSON
//! exporters.
//!
//! A [`Telemetry`] handle is created by the harness, attached to a machine
//! with [`crate::Machine::with_telemetry`], and shared (it is always used
//! behind an `Arc`). The registry is a view of what the run keeps anyway,
//! and it is written once per processor: a processor owns what it
//! observes until it is done, as plain fields of its context, and then —
//! as it returns or unwinds — hands it over under the registry's one
//! mutex: its counter row (see [`crate::counters`]; the report gets the
//! same row), its label table ([`crate::Labels`]), so a flight dump
//! resolves its labels post mortem, and the [`Observations`] only an
//! observer wants: two log-bucketed histograms and the flight recorder.
//! When the run's processors are all done, and before the run re-raises a
//! panic or assembles its report, the run hands over the mailboxes' end
//! state: the messages still queued and the chunk bytes among them. A
//! stall report is the diagnosis of a deadlocked run ([`crate::stall`]).
//!
//! So the registry is read after the run, even one that ended in a panic.
//! A reader during the run sees the processors that have finished. A
//! reader takes one [`TelemetrySnapshot`] — no host-clock read — and both
//! exporters render that snapshot.
//!
//! Telemetry never touches the virtual clock. Simulated times are
//! bit-identical with telemetry on, off, or absent; the only cost of
//! enabling it is host wall-time: one clock read per cut of a processor's
//! lap (the rule is in [`crate::counters`]), a histogram record per send
//! and per parked receive, and one flight-ring slot write per event.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::counters::ProcTotals;
use crate::event::{Event, EventKind, Labels, Log};
use crate::mailbox::Mailbox;
use crate::stall::StallReport;
use crate::trace::escape;

/// Log-bucketed histogram bucket count: finite `le` bounds are
/// `2^0 .. 2^37` (covers byte sizes to 128 GB and waits to ~137 s in ns),
/// plus one `+Inf` overflow bucket.
const HIST_FINITE: usize = 38;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((u64::BITS - (v - 1).leading_zeros()) as usize).min(HIST_FINITE)
    }
}

/// A fixed-shape power-of-two histogram of plain counts, as kept by its
/// one writer and stored in snapshots and reports.
///
/// Bucket `0` covers `v <= 1`; bucket `i` (for `1 <= i < 38`) covers
/// `2^(i-1) < v <= 2^i`; the last bucket is the `+Inf` overflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts: 39 buckets, the last being `+Inf`, once a value is
    /// recorded (empty before).
    pub buckets: Vec<u64>,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Count `v` in its bucket and in the sum.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets.resize(HIST_FINITE + 1, 0);
        self.buckets[bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Add another histogram's counts into this one.
    fn merge(&mut self, other: &HistogramSnapshot) {
        self.buckets.resize(self.buckets.len().max(other.buckets.len()), 0);
        for (acc, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (exact: the sum is tracked outside the
    /// buckets). Returns 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// Events a flight ring retains.
const FLIGHT_CAPACITY: usize = 256;

/// The flight recorder: the newest [`FLIGHT_CAPACITY`] message, barrier
/// and scope events of one processor — the same [`Event`] its log would
/// keep — each beside the processor's latest clock read
/// ([`crate::counters`]), never ahead of the event. Older events are
/// overwritten, so recording is bounded however long the run is: not a
/// full trace (the log does that) but a black box of the moments before
/// a panic or a deadlock. Labels are not stored inline; an event carries
/// its id in the processor's label table.
#[derive(Default)]
pub(crate) struct Flight {
    /// `(wall stamp, event)` slots, filled in order, then overwritten
    /// oldest first.
    slots: Vec<(u64, Event)>,
    /// Events ever pushed; once the ring is full, `pushed % FLIGHT_CAPACITY`
    /// is the oldest slot.
    pushed: u64,
}

impl Flight {
    /// Append an event stamped `wall_ns` (host nanoseconds since the run
    /// started), overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, wall_ns: u64, ev: Event) {
        if self.slots.len() < FLIGHT_CAPACITY {
            self.slots.push((wall_ns, ev));
        } else {
            self.slots[self.pushed as usize % FLIGHT_CAPACITY] = (wall_ns, ev);
        }
        self.pushed += 1;
    }

    /// The retained `(wall stamp, event)` pairs, oldest first.
    fn retained(&self) -> impl Iterator<Item = &(u64, Event)> {
        let oldest = if self.slots.len() < FLIGHT_CAPACITY { 0 } else { self.pushed as usize % FLIGHT_CAPACITY };
        self.slots[oldest..].iter().chain(&self.slots[..oldest])
    }
}

/// What an observed processor keeps for the registry besides its counter
/// row, as plain fields of its context until it hands them over.
#[derive(Default)]
pub(crate) struct Observations {
    /// Sent message sizes in bytes.
    pub msg_bytes: HistogramSnapshot,
    /// Wait durations of the receives that parked, in nanoseconds.
    pub recv_wait: HistogramSnapshot,
    /// The processor's flight recorder.
    pub flight: Flight,
}

/// One finished processor, as handed over to the registry.
struct Finished {
    totals: ProcTotals,
    seen: Observations,
    labels: Arc<Labels>,
}

impl Finished {
    /// The flight ring as text, oldest first: a line per event with its
    /// wall stamp.
    fn flight_lines(&self) -> Vec<String> {
        let line = |&(wall_ns, ev): &(u64, Event)| {
            let (peer, tag, bytes) = (ev.peer, ev.tag, ev.bytes);
            let what = match ev.kind {
                EventKind::Send => format!("send  -> {peer} tag={tag:#x} {bytes} B"),
                EventKind::Recv => format!("recv  <- {peer} tag={tag:#x} {bytes} B"),
                EventKind::Enter => format!("enter {}", self.labels.get(ev.label).path()),
                EventKind::Exit => format!("exit  {}", self.labels.get(ev.label).path()),
                _ => "barrier".to_string(),
            };
            format!("  [{:10.3} ms] {what}\n", wall_ns as f64 / 1e6)
        };
        self.seen.flight.retained().map(line).collect()
    }
}

/// Tuning knobs for a [`Telemetry`] handle.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Keep a deadlocked run's diagnosis as a [`crate::StallReport`]
    /// ([`Telemetry::stall_reports`]) besides the panic that carries it.
    pub stall: bool,
    /// How many slowest-request exemplar traces the serving layer retains
    /// ([`Telemetry::exemplar_trace`]); 0 disables retention.
    pub exemplar_trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { stall: true, exemplar_trace_capacity: 8 }
    }
}

/// One retained slowest-request trace: the id, the end-to-end latency
/// that earned it a ring slot, and the rendered per-request Chrome-trace
/// JSON (see [`crate::chrome_trace`]).
#[derive(Debug, Clone)]
pub struct ExemplarTrace {
    /// Causal trace id of the request.
    pub trace_id: u64,
    /// End-to-end latency in virtual nanoseconds.
    pub latency_ns: u64,
    /// Per-request Chrome-trace JSON document.
    pub json: String,
}

/// Per-run registry state, reset by [`Telemetry::begin_run`].
#[derive(Default)]
struct Inner {
    /// The current (or last) run's processors by rank, each `None` until
    /// it hands over.
    procs: Vec<Option<Finished>>,
    /// Messages left queued in each processor's mailbox, and the chunk
    /// bytes among them, handed over at the run's end (zero until then).
    queue_depth: Vec<usize>,
    chunk_bytes_in_flight: u64,
    /// What the serving layer published about the run
    /// ([`Telemetry::publish_serving`]): its tenant rows and its slowest
    /// requests' traces, slowest first.
    tenants: Vec<TenantTotals>,
    exemplar_traces: Vec<ExemplarTrace>,
}

/// The telemetry handle: metrics registry, flight recorders, and stall
/// reports, with OpenMetrics/JSON exporters.
///
/// Create one, wrap it in an `Arc`, and attach it to a machine:
///
/// ```
/// use std::sync::Arc;
/// use fx_runtime::{run, Machine, MachineModel, Telemetry};
///
/// let telemetry = Arc::new(Telemetry::new());
/// let machine = Machine::simulated(2, MachineModel::paragon()).with_telemetry(Arc::clone(&telemetry));
/// let rep = run(&machine, |cx| {
///     if cx.rank() == 0 { cx.send(1, 1, 7u32); } else { let _: u32 = cx.recv(0, 1); }
/// });
/// assert_eq!(rep.telemetry.as_ref().unwrap().total().sends, 1);
/// let text = telemetry.render_openmetrics();
/// assert!(text.ends_with("# EOF\n"));
/// ```
///
/// The handle outlives the run: read final counters, flight dumps, and
/// stall reports after it finishes — even when the run ended in a panic
/// and no report was produced.
pub struct Telemetry {
    config: TelemetryConfig,
    inner: Mutex<Inner>,
    stall_reports: Mutex<Vec<StallReport>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("nprocs", &inner.procs.len())
            .field("stall_reports", &self.stall_reports.lock().len())
            .finish()
    }
}

impl Telemetry {
    /// A telemetry handle with default configuration.
    pub fn new() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// A telemetry handle with explicit configuration.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Telemetry { config, inner: Mutex::default(), stall_reports: Mutex::new(Vec::new()) }
    }

    /// The configuration this handle was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Attach to a new run of `nprocs` processors, forgetting the previous
    /// one. Called by [`crate::run`]; a handle reused across runs reports
    /// only the latest run.
    pub(crate) fn begin_run(&self, nprocs: usize) {
        *self.inner.lock() = Inner {
            procs: (0..nprocs).map(|_| None).collect(),
            queue_depth: vec![0; nprocs],
            ..Inner::default()
        };
        self.stall_reports.lock().clear();
    }

    /// Take over what processor `rank` observed, once it is done: its
    /// counter row, its histograms and flight ring, and its label table.
    pub(crate) fn hand_over(&self, rank: usize, totals: ProcTotals, seen: Observations, labels: Arc<Labels>) {
        self.inner.lock().procs[rank] = Some(Finished { totals, seen, labels });
    }

    /// Take over the run's end state: what its mailboxes still hold.
    pub(crate) fn end_run(&self, mailboxes: &[Mailbox]) {
        let queues: Vec<_> = mailboxes.iter().map(Mailbox::depth_snapshot).collect();
        let mut inner = self.inner.lock();
        inner.queue_depth = queues.iter().map(|q| q.iter().map(|d| d.count).sum()).collect();
        inner.chunk_bytes_in_flight = queues.iter().flatten().map(|d| d.chunk_bytes).sum();
    }

    /// Publish a finished serving run — the one way serving data enters
    /// the registry. `tenants` are the run's per-tenant rows (the
    /// `fx_serve_*` families and the JSON `tenants` array); of
    /// `completions`, `(trace id, latency ns)` each with id 0 for an
    /// untraced request, the [`TelemetryConfig::exemplar_trace_capacity`]
    /// slowest are kept with the Chrome trace `render` makes of them, so
    /// at most that many requests are rendered however many completed.
    /// Replaces what the previous run published.
    pub fn publish_serving(
        &self,
        tenants: Vec<TenantTotals>,
        completions: impl IntoIterator<Item = (u64, u64)>,
        render: impl Fn(u64) -> String,
    ) {
        let mut slowest: Vec<(u64, u64)> = completions.into_iter().filter(|&(id, _)| id != 0).collect();
        slowest.sort_by_key(|&(id, latency_ns)| (std::cmp::Reverse(latency_ns), id));
        slowest.truncate(self.config.exemplar_trace_capacity);
        let exemplar_traces = slowest
            .into_iter()
            .map(|(trace_id, latency_ns)| ExemplarTrace { trace_id, latency_ns, json: render(trace_id) })
            .collect();
        let mut inner = self.inner.lock();
        inner.tenants = tenants;
        inner.exemplar_traces = exemplar_traces;
    }

    /// Look up a retained exemplar trace by its trace id.
    pub fn exemplar_trace(&self, trace_id: u64) -> Option<ExemplarTrace> {
        self.inner.lock().exemplar_traces.iter().find(|e| e.trace_id == trace_id).cloned()
    }

    /// The retained exemplar traces, slowest first.
    pub fn exemplar_traces(&self) -> Vec<ExemplarTrace> {
        self.inner.lock().exemplar_traces.clone()
    }

    pub(crate) fn push_stall_report(&self, report: StallReport) {
        let mut reports = self.stall_reports.lock();
        // Bounded: a program that catches its deadlock panics and
        // deadlocks again, forever, must not grow this without limit.
        if reports.len() < 256 {
            reports.push(report);
        }
    }

    /// The deadlock diagnoses of the current/last run, oldest first.
    /// Readable after the run ended in the deadlock's panic.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        self.stall_reports.lock().clone()
    }

    // ----- flight recorder ------------------------------------------------

    /// The tail of one finished processor's events: what its flight ring
    /// retains, oldest first — the newest sends, receives, barriers and
    /// scope transitions, the same records (and the same label table) as
    /// the processor's own log. Empty until the processor has finished;
    /// readable after it panicked.
    pub fn flight_events(&self, proc: usize) -> Log {
        match self.inner.lock().procs.get(proc) {
            Some(Some(f)) => Log::new(f.seen.flight.retained().map(|&(_, ev)| ev).collect(), Arc::clone(&f.labels)),
            _ => Log::default(),
        }
    }

    /// One finished processor's ring as text (see [`Finished::flight_lines`]).
    pub(crate) fn flight_lines(&self, proc: usize) -> Vec<String> {
        self.inner.lock().procs[proc].as_ref().map_or_else(Vec::new, Finished::flight_lines)
    }

    /// Human-readable flight dump of every processor's ring (the black-box
    /// readout printed on panic and attached to CI artifacts).
    pub fn flight_dump(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for (p, f) in inner.procs.iter().enumerate() {
            let (lines, pushed) = f.as_ref().map_or((Vec::new(), 0), |f| (f.flight_lines(), f.seen.flight.pushed));
            out.push_str(&format!("=== processor {p}: {} retained of {pushed} recorded ===\n", lines.len()));
            out.extend(lines);
        }
        out
    }

    // ----- snapshots ------------------------------------------------------

    /// A point-in-time copy of everything the exporters print: every
    /// finished processor's row (a default row for one still running),
    /// merged histograms, region entries and the run's end state. Reads no
    /// host clock.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock();
        let mut regions: BTreeMap<String, u64> = BTreeMap::new();
        let (mut msg_size_bytes, mut recv_wait_ns) = (HistogramSnapshot::default(), HistogramSnapshot::default());
        for f in inner.procs.iter().flatten() {
            for (label, n) in f.labels.enters() {
                *regions.entry(label.path().to_string()).or_insert(0) += n;
            }
            msg_size_bytes.merge(&f.seen.msg_bytes);
            recv_wait_ns.merge(&f.seen.recv_wait);
        }
        TelemetrySnapshot {
            per_proc: inner.procs.iter().map(|f| f.as_ref().map_or_else(ProcTotals::default, |f| f.totals.clone())).collect(),
            regions: regions.into_iter().collect(),
            queue_depth: inner.queue_depth.clone(),
            chunk_bytes_in_flight: inner.chunk_bytes_in_flight,
            msg_size_bytes,
            recv_wait_ns,
            stall_report_count: self.stall_reports.lock().len(),
            tenants: inner.tenants.clone(),
        }
    }

    /// Machine-wide totals (sum of [`Telemetry::snapshot`] per-processor
    /// rows).
    pub fn total(&self) -> ProcTotals {
        self.snapshot().total()
    }

    /// [`TelemetrySnapshot::render_openmetrics`] of a fresh snapshot.
    pub fn render_openmetrics(&self) -> String {
        self.snapshot().render_openmetrics()
    }

    /// [`TelemetrySnapshot::render_json`] of a fresh snapshot.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// Point-in-time copy of the whole registry — everything the exporters
/// print — as stored in [`crate::RunReport::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// One counter row per processor, indexed by physical rank.
    pub per_proc: Vec<ProcTotals>,
    /// Region-enter counts by subgroup path, aggregated across
    /// processors, sorted by path.
    pub regions: Vec<(String, u64)>,
    /// Messages left queued in each processor's mailbox when the run
    /// ended (0 while it runs).
    pub queue_depth: Vec<usize>,
    /// Chunk payload bytes deposited but never received when the run
    /// ended (0 after a clean run, and while it runs).
    pub chunk_bytes_in_flight: u64,
    /// Sent message sizes in bytes, all processors merged.
    pub msg_size_bytes: HistogramSnapshot,
    /// Wait durations of the receives that parked, in nanoseconds, all
    /// processors merged.
    pub recv_wait_ns: HistogramSnapshot,
    /// Number of deadlock diagnoses kept ([`Telemetry::stall_reports`]).
    pub stall_report_count: usize,
    /// Per-tenant serving accounting (empty outside serving sessions).
    pub tenants: Vec<TenantTotals>,
}

impl TelemetrySnapshot {
    /// Machine-wide totals: every per-processor row merged.
    pub fn total(&self) -> ProcTotals {
        let mut t = ProcTotals::default();
        for row in &self.per_proc {
            t.merge(row);
        }
        t
    }

    /// The snapshot in OpenMetrics text format (Prometheus exposition),
    /// ending with `# EOF`. Per-processor counters and gauges carry a
    /// `proc` label, region-enter counters a `path` label, the serving
    /// families a `tenant` label.
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::with_capacity(4096);

        // One counter family per declared counter, one sample per processor.
        let rows: Vec<_> = self.per_proc.iter().map(ProcTotals::values).collect();
        for (i, c) in ProcTotals::COUNTERS.iter().enumerate() {
            out.push_str(&format!("# TYPE {0} counter\n# HELP {0} {1}\n", c.family, c.help));
            for (p, row) in rows.iter().enumerate() {
                out.push_str(&format!("{}_total{{proc=\"{p}\"}} {}\n", c.family, row[i]));
            }
        }

        out.push_str("# TYPE fx_region_path_enters counter\n# HELP fx_region_path_enters Region entries by subgroup path.\n");
        for (path, n) in &self.regions {
            out.push_str(&format!("fx_region_path_enters_total{{path=\"{}\"}} {n}\n", escape_label(path)));
        }

        out.push_str("# TYPE fx_chunk_bytes_in_flight gauge\n");
        out.push_str("# HELP fx_chunk_bytes_in_flight Chunk payload bytes currently deposited in mailboxes.\n");
        out.push_str(&format!("fx_chunk_bytes_in_flight {}\n", self.chunk_bytes_in_flight));

        out.push_str("# TYPE fx_queue_depth gauge\n");
        out.push_str("# HELP fx_queue_depth Messages queued in each processor's mailbox.\n");
        for (p, depth) in self.queue_depth.iter().enumerate() {
            out.push_str(&format!("fx_queue_depth{{proc=\"{p}\"}} {depth}\n"));
        }

        for (name, help, h) in [
            ("fx_msg_size_bytes", "Sent message sizes in bytes.", &self.msg_size_bytes),
            ("fx_recv_wait_duration_ns", "Blocking receive wait durations in nanoseconds.", &self.recv_wait_ns),
        ] {
            out.push_str(&format!("# TYPE {name} histogram\n# HELP {name} {help}\n"));
            render_histogram(&mut out, name, "", h, &[]);
        }

        // Per-tenant serving families (present only while a tenant set is
        // registered, i.e. during/after a serving session).
        if !self.tenants.is_empty() {
            out.push_str("# TYPE fx_serve_requests counter\n");
            out.push_str("# HELP fx_serve_requests Serving requests by tenant and outcome.\n");
            for t in &self.tenants {
                let tenant = escape_label(&t.name);
                for (outcome, n) in
                    [("arrived", t.arrived), ("admitted", t.admitted), ("shed", t.shed), ("completed", t.completed)]
                {
                    out.push_str(&format!(
                        "fx_serve_requests_total{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {n}\n"
                    ));
                }
            }
            out.push_str("# TYPE fx_serve_latency_ns histogram\n");
            out.push_str("# HELP fx_serve_latency_ns Request completion latency in virtual nanoseconds.\n");
            for t in &self.tenants {
                let tenant = format!("tenant=\"{}\"", escape_label(&t.name));
                render_histogram(&mut out, "fx_serve_latency_ns", &tenant, &t.latency_ns, &t.exemplars);
            }
        }

        out.push_str("# EOF\n");
        out
    }

    /// The snapshot as a JSON document (hand-written, no serde
    /// dependency): per-processor counter objects, their total,
    /// aggregated region counts, tenant rows, the chunk gauge and the
    /// stall-report count.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"procs\":[");
        for (p, t) in self.per_proc.iter().enumerate() {
            if p > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"total\":");
        out.push_str(&self.total().to_json());
        out.push_str(",\"regions\":{");
        for (i, (path, n)) in self.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", escape(path)));
        }
        out.push_str("},\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"arrived\":{},\"admitted\":{},\"shed\":{},\"completed\":{},\
                 \"latency_p50_ns\":{},\"latency_p99_ns\":{},\"latency_p999_ns\":{}}}",
                escape(&t.name),
                t.arrived,
                t.admitted,
                t.shed,
                t.completed,
                t.p50_ns,
                t.p99_ns,
                t.p999_ns
            ));
        }
        out.push_str(&format!(
            "],\"chunk_bytes_in_flight\":{},\"stall_reports\":{}}}",
            self.chunk_bytes_in_flight, self.stall_report_count
        ));
        out
    }
}

/// One histogram's sample lines: cumulative `le` buckets, `_sum` and
/// `_count`, each carrying `label` (`key="value"`, or empty). A bucket
/// with an exemplar (`(trace id, value)`, id 0 = none) gets the
/// OpenMetrics exemplar suffix, so a p999 bucket links straight to a
/// request's trace.
fn render_histogram(out: &mut String, name: &str, label: &str, h: &HistogramSnapshot, exemplars: &[(u64, u64)]) {
    let (sep, braced) = if label.is_empty() { ("", String::new()) } else { (",", format!("{{{label}}}")) };
    let mut cumulative = 0u64;
    for i in 0..=HIST_FINITE {
        cumulative += h.buckets.get(i).copied().unwrap_or(0);
        let le = if i < HIST_FINITE { (1u64 << i).to_string() } else { "+Inf".to_string() };
        let exemplar = match exemplars.get(i) {
            Some(&(tid, v)) if tid != 0 => format!(" # {{trace_id=\"{tid:016x}\"}} {v}"),
            _ => String::new(),
        };
        out.push_str(&format!("{name}_bucket{{{label}{sep}le=\"{le}\"}} {cumulative}{exemplar}\n"));
    }
    out.push_str(&format!("{name}_sum{braced} {}\n", h.sum));
    out.push_str(&format!("{name}_count{braced} {cumulative}\n"));
}

/// Escape an OpenMetrics label value: only `"`, `\` and newline are
/// escaped there (a JSON string takes [`escape`] instead).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One tenant's row of a published serving run
/// ([`Telemetry::publish_serving`]), as stored in snapshots and in the
/// serving layer's own report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTotals {
    /// The tenant's name (the `tenant` label value in the exposition).
    pub name: String,
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests dropped by the shedding policy.
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Exact order statistics of the completion latencies, as the serving
    /// layer computed them (the JSON exporter's `latency_p*_ns`).
    pub p50_ns: u64,
    /// See `p50_ns`.
    pub p99_ns: u64,
    /// See `p50_ns`.
    pub p999_ns: u64,
    /// Completion latencies in virtual nanoseconds, bucketed for the
    /// exposition (an exposition format, not where quantiles come from).
    pub latency_ns: HistogramSnapshot,
    /// Per-bucket `(trace id, observed latency)` exemplar; `(0, _)` = no
    /// exemplar. Same indexing as `latency_ns.buckets`.
    pub exemplars: Vec<(u64, u64)>,
}

impl TenantTotals {
    /// The row of `name` with what follows from its completions alone:
    /// `completed`, the bucketed latencies and each bucket's exemplar.
    /// `samples` are `(latency ns, trace id)` in request order, id 0 for
    /// an untraced request; the last traced sample of a bucket — the
    /// highest request index — is its exemplar. The outcome counters and
    /// the exact quantiles are the caller's to fill in.
    pub fn from_samples(name: &str, samples: &[(u64, u64)]) -> Self {
        let mut row = TenantTotals {
            name: name.to_string(),
            completed: samples.len() as u64,
            exemplars: vec![(0, 0); HIST_FINITE + 1],
            ..TenantTotals::default()
        };
        for &(latency_ns, trace_id) in samples {
            row.latency_ns.record(latency_ns);
            if trace_id != 0 {
                row.exemplars[bucket_index(latency_ns)] = (trace_id, latency_ns);
            }
        }
        row
    }

    /// Counter conservation: every arrived request was either served or
    /// shed, nothing lost, nothing double-counted.
    pub fn conserved(&self) -> bool {
        self.arrived == self.completed + self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_pow2() {
        let mut h = HistogramSnapshot::default();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let mut acc = HistogramSnapshot::default();
        acc.merge(&h);
        assert_eq!(acc, h, "merging into an empty histogram is a copy");
        assert_eq!(acc.buckets[0], 2, "0 and 1 land in le=1");
        assert_eq!(acc.buckets[1], 1, "2 lands in le=2");
        assert_eq!(acc.buckets[2], 2, "3 and 4 land in le=4");
        assert_eq!(acc.buckets[10], 1, "1000 lands in le=1024");
        assert_eq!(acc.buckets[HIST_FINITE], 1, "u64::MAX overflows to +Inf");
    }

    #[test]
    fn flight_ring_retains_the_newest_in_order() {
        let mut ring = Flight::default();
        let ev = |i: u64| Event { tag: i, ..crate::event::tests::ev(EventKind::Send, i as f64, i as f64 + 0.5) };
        for i in 0..5 {
            ring.push(i, ev(i));
        }
        assert_eq!(ring.retained().map(|&(w, e)| (w, e.tag)).collect::<Vec<_>>(), (0..5).map(|i| (i, i)).collect::<Vec<_>>());
        let n = FLIGHT_CAPACITY as u64 + 100;
        for i in 5..n {
            ring.push(100 * i, ev(i));
        }
        let kept: Vec<(u64, Event)> = ring.retained().copied().collect();
        assert_eq!(kept.len(), FLIGHT_CAPACITY, "exactly the newest capacity events");
        for (k, slot) in kept.iter().enumerate() {
            let i = 100 + k as u64;
            assert_eq!(*slot, (100 * i, ev(i)), "slot {k}");
        }
        assert_eq!(ring.pushed, n);
    }

    fn row(name: &str, counters: [u64; 3], samples: &[(u64, u64)]) -> TenantTotals {
        let [arrived, admitted, shed] = counters;
        TenantTotals { arrived, admitted, shed, ..TenantTotals::from_samples(name, samples) }
    }

    #[test]
    fn published_tenant_rows_render_and_snapshot() {
        let t = Telemetry::new();
        let rows = vec![row("interactive", [3, 2, 1], &[(1_000_000, 0), (2_000_000, 0)]), row("batch", [0; 3], &[])];
        t.publish_serving(rows, [], |_| String::new());
        let om = t.render_openmetrics();
        assert!(om.contains("fx_serve_requests_total{tenant=\"interactive\",outcome=\"shed\"} 1"));
        assert!(om.contains("fx_serve_latency_ns_count{tenant=\"interactive\"} 2"));
        assert!(om.contains("fx_serve_latency_ns_sum{tenant=\"interactive\"} 3000000"));
        assert!(om.contains("fx_serve_latency_ns_bucket{tenant=\"batch\",le=\"+Inf\"} 0"));
        assert!(om.ends_with("# EOF\n"));
        let snap = t.snapshot();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].completed, 2);
        assert!(snap.tenants.iter().all(TenantTotals::conserved));
        assert!(!row("lossy", [2, 2, 0], &[(5, 0)]).conserved(), "one of two arrivals neither served nor shed");
        assert_eq!(snap.tenants[0].latency_ns.mean(), 1_500_000.0);
        // The next run's rows replace these.
        t.publish_serving(vec![row("interactive", [0; 3], &[])], [], |_| String::new());
        assert_eq!(t.snapshot().tenants.len(), 1);
        assert_eq!(t.snapshot().tenants[0].arrived, 0);
    }

    #[test]
    fn latency_buckets_carry_exemplars() {
        let t = Telemetry::new();
        // Untraced, then two traced samples of one bucket: the later wins.
        let samples = [(1_000_000, 0), (3_000_000, 0xABCD), (3_100_000, 0xEF01)];
        t.publish_serving(vec![row("gold", [3, 3, 0], &samples)], [], |_| String::new());
        let om = t.render_openmetrics();
        assert!(
            om.contains("# {trace_id=\"000000000000ef01\"} 3100000"),
            "the highest request index is the bucket exemplar: {om}"
        );
        assert!(!om.contains("abcd"), "an earlier exemplar of the bucket must not linger");
        // The exemplar rides the bucket the sample landed in, value intact.
        let totals = &t.snapshot().tenants[0];
        let i = totals.latency_ns.buckets.iter().rposition(|&c| c > 0).unwrap();
        assert_eq!(totals.exemplars[i], (0xEF01, 3_100_000));
    }

    #[test]
    fn exemplar_ring_keeps_slowest_n() {
        let cfg = TelemetryConfig { exemplar_trace_capacity: 2, ..TelemetryConfig::default() };
        let t = Telemetry::with_config(cfg);
        let rendered = std::cell::Cell::new(0usize);
        // Id 0 is an untraced request: never retained, however slow.
        t.publish_serving(Vec::new(), [(1, 100), (2, 300), (3, 50), (4, 200), (0, 900)], |id| {
            rendered.set(rendered.get() + 1);
            format!("{{\"trace\":{id}}}")
        });
        assert_eq!(rendered.get(), 2, "only the retained requests are rendered");
        let ids: Vec<u64> = t.exemplar_traces().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![2, 4], "slowest first");
        assert_eq!(t.exemplar_trace(2).unwrap().json, "{\"trace\":2}");
        assert!(t.exemplar_trace(1).is_none(), "not among the slowest two");
        assert!(t.exemplar_trace(0).is_none());
        // The next run's traces replace these.
        t.publish_serving(Vec::new(), [], |_| String::new());
        assert!(t.exemplar_traces().is_empty());
    }

    #[test]
    fn empty_registry_renders_valid_openmetrics() {
        let t = Telemetry::new();
        let text = t.render_openmetrics();
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE fx_sends counter"));
        let json = t.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
