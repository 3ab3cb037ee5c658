//! Live host-mode telemetry: a lock-light sharded metrics registry with
//! OpenMetrics/JSON exporters.
//!
//! A [`Telemetry`] handle is created by the harness, attached to a machine
//! with [`crate::Machine::with_telemetry`], and shared (it is always used
//! behind an `Arc`). The registry is a view of what the run keeps anyway.
//! Every run hands it the per-processor counter blocks its world owns (see
//! [`crate::counters`] — one block, two readers: the report and the
//! registry), and it reads them with relaxed loads, live or after the
//! run, even one that ended in a panic. The processors' label tables
//! ([`crate::Labels`]) are handed over the same way, so a flight dump
//! resolves its labels post mortem. Queue depths, oldest-message ages and
//! the chunk-bytes-in-flight gauge are read from the live mailboxes, and
//! stall reports come from the run's watchdog tick ([`crate::stall`]).
//! What the registry adds per processor is the [`ProcShard`] of things
//! only an observer wants: two log-bucketed histograms and the
//! flight-recorder ring. Shards are single-writer like the blocks, so the
//! hot send/receive paths touch only their own cache lines and never take
//! a lock.
//!
//! Reading is always safe concurrently with a run. A reader takes one
//! [`TelemetrySnapshot`] — relaxed loads of the same atomics, and at most
//! one host-clock read to age the queued messages against — and both
//! exporters render that snapshot.
//!
//! Telemetry never touches the virtual clock. Simulated times are
//! bit-identical with telemetry on, off, or absent; the only cost of
//! enabling it is host wall-time: one clock read per cut of a processor's
//! lap (the rule is in [`crate::counters`]), a histogram record per send
//! and per parked receive, and one flight-ring slot write per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use crate::counters::{bump, Counters, ProcTotals};
use crate::ctx::World;
use crate::event::{Event, EventKind, Labels, Log};
use crate::flight::FlightRing;
use crate::mailbox::DepthSnapshot;
use crate::stall::StallReport;
use crate::trace::escape;

/// Log-bucketed histogram bucket count: finite `le` bounds are
/// `2^0 .. 2^37` (covers byte sizes to 128 GB and waits to ~137 s in ns),
/// plus one `+Inf` overflow bucket.
const HIST_FINITE: usize = 38;

/// A fixed-shape power-of-two histogram. All operations are relaxed
/// atomics; recording is two single-writer load+store bumps.
///
/// Bucket `0` covers `v <= 1`; bucket `i` (for `1 <= i < 38`) covers
/// `2^(i-1) < v <= 2^i`; the last bucket is the `+Inf` overflow.
pub struct Histogram {
    buckets: [AtomicU64; HIST_FINITE + 1],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((u64::BITS - (v - 1).leading_zeros()) as usize).min(HIST_FINITE)
    }
}

impl Histogram {
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.sum, v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time plain copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Add this histogram into a plain copy (for aggregated rendering).
    fn accumulate(&self, into: &mut HistogramSnapshot) {
        into.buckets.resize(self.buckets.len(), 0);
        for (acc, b) in into.buckets.iter_mut().zip(&self.buckets) {
            *acc += b.load(Ordering::Relaxed);
        }
        into.sum += self.sum.load(Ordering::Relaxed);
    }
}

/// Plain (non-atomic) copy of a [`Histogram`], as stored in snapshots
/// and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts; same shape as the live histogram (39 buckets, the
    /// last being `+Inf`).
    pub buckets: Vec<u64>,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
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

/// One processor's shard of the registry — what only an observer wants,
/// beside the counter block every run has ([`crate::counters`]):
/// single-writer histograms and the flight ring, written only by the
/// owning simulated processor (whichever worker thread is currently
/// running it — see [`bump`] for why migration is safe), read by
/// snapshots and flight dumps. Cache-line aligned so neighbouring shards
/// (separate allocations, but allocator-adjacent) never false-share.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct ProcShard {
    /// Sent message sizes in bytes.
    pub msg_bytes_hist: Histogram,
    /// Wait durations of the receives that parked, in nanoseconds.
    pub recv_wait_hist: Histogram,
    /// The flight recorder ring for this processor.
    pub flight: FlightRing,
}

/// Tuning knobs for a [`Telemetry`] handle.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Report receives parked for four watchdog periods — 1 s at the
    /// default recv timeout — as stalls ([`crate::StallReport`]), from the
    /// run's watchdog tick.
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

/// Per-run registry state, swapped wholesale by [`Telemetry::begin_run`].
struct Inner {
    /// The current (or last) run's counter blocks: the allocations the
    /// run's world owns, kept alive here past the run.
    counters: Vec<Arc<Counters>>,
    /// The current (or last) run's per-processor label tables, adopted
    /// like the counter blocks.
    labels: Vec<Arc<Labels>>,
    shards: Vec<Arc<ProcShard>>,
    /// The live world, for the mailbox gauges. Dangling after the run
    /// finishes.
    world: Weak<World>,
    /// What the serving layer published about the run
    /// ([`Telemetry::publish_serving`]): its tenant rows and its slowest
    /// requests' traces, slowest first.
    tenants: Vec<TenantTotals>,
    exemplar_traces: Vec<ExemplarTrace>,
}

/// The live telemetry handle: metrics registry, flight recorders, and
/// stall reports, with OpenMetrics/JSON exporters.
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
/// The handle outlives the run: render it live from another thread while
/// the program executes, and read final counters, flight dumps, and
/// stall reports after it finishes —
/// even when the run ended in a panic and no report was produced.
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
            .field("nprocs", &inner.shards.len())
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
        Telemetry {
            config,
            inner: Mutex::new(Inner {
                counters: Vec::new(),
                labels: Vec::new(),
                shards: Vec::new(),
                world: Weak::new(),
                tenants: Vec::new(),
                exemplar_traces: Vec::new(),
            }),
            stall_reports: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this handle was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Attach to a new run: adopt the world's counter blocks and label
    /// tables and start fresh shards. Called by [`crate::run`]; a handle reused across runs
    /// reports only the latest run.
    pub(crate) fn begin_run(&self, world: &Arc<World>) {
        let mut inner = self.inner.lock();
        inner.counters = world.counters.clone();
        inner.labels = world.labels.clone();
        inner.shards = (0..world.nprocs).map(|_| Arc::default()).collect();
        inner.world = Arc::downgrade(world);
        inner.tenants.clear();
        inner.exemplar_traces.clear();
        drop(inner);
        self.stall_reports.lock().clear();
    }

    pub(crate) fn shard(&self, rank: usize) -> Arc<ProcShard> {
        Arc::clone(&self.inner.lock().shards[rank])
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
        // Bounded: a long-lived stall re-reported forever must not grow
        // without limit.
        if reports.len() < 256 {
            reports.push(report);
        }
    }

    /// Stall-detector reports accumulated during the current/last run,
    /// oldest first. Readable even after a run that ended in a panic.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        self.stall_reports.lock().clone()
    }

    // ----- flight recorder ------------------------------------------------

    /// The tail of one processor's events: what its flight ring retains,
    /// oldest first — the newest sends, receives, barriers and scope
    /// transitions, the same records (and the same label table) as the
    /// processor's own log. Readable while the processor runs and after it
    /// panicked.
    pub fn flight_events(&self, proc: usize) -> Log {
        let inner = self.inner.lock();
        match (inner.shards.get(proc), inner.labels.get(proc)) {
            (Some(shard), Some(labels)) => {
                Log::new(shard.flight.snapshot().into_iter().map(|(_, ev)| ev).collect(), Arc::clone(labels))
            }
            _ => Log::default(),
        }
    }

    /// One processor's ring as text, oldest first: a line per event with
    /// its wall stamp.
    pub(crate) fn flight_lines(&self, proc: usize) -> Vec<String> {
        let (shard, labels) = {
            let inner = self.inner.lock();
            (Arc::clone(&inner.shards[proc]), Arc::clone(&inner.labels[proc]))
        };
        let line = |(wall_ns, ev): (u64, Event)| {
            let (peer, tag, bytes) = (ev.peer, ev.tag, ev.bytes);
            let what = match ev.kind {
                EventKind::Send => format!("send  -> {peer} tag={tag:#x} {bytes} B"),
                EventKind::Recv => format!("recv  <- {peer} tag={tag:#x} {bytes} B"),
                EventKind::Enter => format!("enter {}", labels.get(ev.label).path()),
                EventKind::Exit => format!("exit  {}", labels.get(ev.label).path()),
                _ => "barrier".to_string(),
            };
            format!("  [{:10.3} ms] {what}\n", wall_ns as f64 / 1e6)
        };
        shard.flight.snapshot().into_iter().map(line).collect()
    }

    /// Human-readable flight dump of every processor's ring (the black-box
    /// readout printed on panic and attached to CI artifacts). While the
    /// run executes, a processor waiting in a receive also shows the
    /// `(src, tag)` its mailbox lane has registered.
    pub fn flight_dump(&self) -> String {
        let (shards, world) = {
            let inner = self.inner.lock();
            (inner.shards.clone(), inner.world.upgrade())
        };
        let mut out = String::new();
        for (p, shard) in shards.iter().enumerate() {
            let lines = self.flight_lines(p);
            out.push_str(&format!(
                "=== processor {p}: {} retained of {} recorded ===\n",
                lines.len(),
                shard.flight.pushed()
            ));
            if let Some((src, tag)) = world.as_ref().and_then(|w| w.mailboxes[p].waiting()) {
                out.push_str(&format!("    (blocked in recv(src={src}, tag={tag:#x}))\n"));
            }
            out.extend(lines);
        }
        out
    }

    // ----- snapshots ------------------------------------------------------

    /// A consistent-enough point-in-time copy of everything the exporters
    /// print (relaxed reads; exact once the run has finished). Reads the
    /// host clock once while the run's world is alive, to age the queued
    /// messages, and not at all after it.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (counters, labels, shards, world, tenants) = {
            let inner = self.inner.lock();
            let world = inner.world.upgrade();
            (inner.counters.clone(), inner.labels.clone(), inner.shards.clone(), world, inner.tenants.clone())
        };
        let mut regions: BTreeMap<String, u64> = BTreeMap::new();
        for (label, n) in labels.iter().flat_map(|l| l.enters()) {
            *regions.entry(label.path().to_string()).or_insert(0) += n;
        }
        let queues: Vec<DepthSnapshot> = match &world {
            Some(w) => {
                let now = w.parkers.clock.refresh();
                w.mailboxes.iter().map(|mb| mb.depth_snapshot(now)).collect()
            }
            None => vec![Vec::new(); counters.len()],
        };
        let merged = |pick: fn(&ProcShard) -> &Histogram| {
            let mut h = HistogramSnapshot::default();
            shards.iter().for_each(|s| pick(s).accumulate(&mut h));
            h
        };
        TelemetrySnapshot {
            per_proc: counters.iter().map(|c| c.row()).collect(),
            regions: regions.into_iter().collect(),
            queue_depth: queues.iter().map(|q| q.iter().map(|d| d.count).sum()).collect(),
            oldest_queued: queues.iter().map(|q| q.iter().map(|d| d.oldest_wait).max().unwrap_or_default()).collect(),
            chunk_bytes_in_flight: queues.iter().flatten().map(|d| d.chunk_bytes).sum(),
            msg_size_bytes: merged(|s| &s.msg_bytes_hist),
            recv_wait_ns: merged(|s| &s.recv_wait_hist),
            stall_report_count: self.stall_reports.lock().len(),
            tenants,
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
    /// Messages queued in each processor's mailbox (0 once the run's
    /// world is gone).
    pub queue_depth: Vec<usize>,
    /// Age of the oldest message queued in each processor's mailbox.
    pub oldest_queued: Vec<Duration>,
    /// Chunk payload bytes deposited but not yet received (0 after a
    /// clean run).
    pub chunk_bytes_in_flight: u64,
    /// Sent message sizes in bytes, all processors merged.
    pub msg_size_bytes: HistogramSnapshot,
    /// Wait durations of the receives that parked, in nanoseconds, all
    /// processors merged.
    pub recv_wait_ns: HistogramSnapshot,
    /// Number of stall reports the detector emitted.
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
        out.push_str("# TYPE fx_oldest_queued_seconds gauge\n");
        out.push_str("# HELP fx_oldest_queued_seconds Age of the oldest message queued in each mailbox.\n");
        for (p, oldest) in self.oldest_queued.iter().enumerate() {
            out.push_str(&format!("fx_oldest_queued_seconds{{proc=\"{p}\"}} {:.6}\n", oldest.as_secs_f64()));
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
            latency_ns: HistogramSnapshot { buckets: vec![0; HIST_FINITE + 1], sum: 0 },
            exemplars: vec![(0, 0); HIST_FINITE + 1],
            ..TenantTotals::default()
        };
        for &(latency_ns, trace_id) in samples {
            let i = bucket_index(latency_ns);
            row.latency_ns.buckets[i] += 1;
            row.latency_ns.sum += latency_ns;
            if trace_id != 0 {
                row.exemplars[i] = (trace_id, latency_ns);
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
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let mut acc = HistogramSnapshot::default();
        h.accumulate(&mut acc);
        assert_eq!(acc, h.snapshot(), "accumulating into an empty copy is the copy");
        assert_eq!(acc.buckets[0], 2, "0 and 1 land in le=1");
        assert_eq!(acc.buckets[1], 1, "2 lands in le=2");
        assert_eq!(acc.buckets[2], 2, "3 and 4 land in le=4");
        assert_eq!(acc.buckets[10], 1, "1000 lands in le=1024");
        assert_eq!(acc.buckets[HIST_FINITE], 1, "u64::MAX overflows to +Inf");
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
