//! The one event record.
//!
//! Everything the runtime remembers about what a processor did is an
//! [`Event`]: an instant mark (`dataset done`, `hour output`, …), an
//! interval of virtual time (local compute, the busy half of a send or a
//! receive — everything between intervals is derivable as idle), a barrier
//! entry, a task-region scope transition. One producer makes them
//! ([`crate::ProcCtx`]'s `emit`), and *where* it puts a record is what
//! retains it:
//!
//! * the processor's own [`Log`] keeps marks always and duration events
//!   when the machine profiles (`Machine::with_profiling(true)`, simulated
//!   time only); it comes back as [`crate::RunReport::logs`];
//! * the telemetry registry's flight ring ([`crate::Telemetry`]) keeps the
//!   newest N message, barrier and scope events of the same record beside
//!   a host wall stamp, readable from another thread while the processor
//!   runs and after it panicked.
//!
//! Throughput and latency of a stream program (the spacing of its marks,
//! which is how every experiment in the paper is measured), span
//! accounting, windowed request breakdowns, the critical path
//! ([`crate::critical_path`]) and the Chrome trace
//! ([`crate::chrome_trace`]) are folds over a log's events.
//!
//! An event carries no host time, so a log is a pure function of the
//! program: equal (`==`) across worker counts and runs. Recording never moves
//! the virtual clock.
//!
//! Labels — a scope path like `G1/assign2`, a mark's text — are interned
//! per processor in a [`Labels`] table, in program order, so ids are as
//! deterministic as the events that carry them. What a reader asks of a
//! label (is it a barrier scope? which stage is it under?) is computed
//! once, when the label is interned.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An interval of local computation (`charge_flops`,
    /// `charge_mem_bytes`, `charge_seconds`).
    Compute,
    /// Sender-side busy time of an outgoing message (`o_send` plus the
    /// per-byte gap).
    Send,
    /// Receiver-side busy time of an incoming message (`o_recv`), after
    /// any wait. The wait itself appears as a gap before the interval and
    /// is accounted as idle.
    Recv,
    /// An instant marked by the program ([`crate::ProcCtx::record`]).
    Mark,
    /// A group barrier was entered.
    Barrier,
    /// A task-region scope was entered.
    Enter,
    /// A task-region scope was left.
    Exit,
}

impl EventKind {
    /// Every kind, indexed by its `u8` value (the flight ring's wire form).
    pub(crate) const ALL: [EventKind; 7] = [
        EventKind::Compute,
        EventKind::Send,
        EventKind::Recv,
        EventKind::Mark,
        EventKind::Barrier,
        EventKind::Enter,
        EventKind::Exit,
    ];
}

/// One thing a processor did, as plain data.
///
/// Duration events (see [`Event::is_span`]) of one processor are
/// non-overlapping and non-decreasing in time; the gaps between them are
/// idle time (blocked receives, barrier waits, `advance_to` jumps).
/// Instant events have `start == end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Id in the processor's [`Labels`] table: the text of a
    /// [`EventKind::Mark`], the scope entered or left, and for every other
    /// kind the task-region/subgroup scope path active at the time (`0` at
    /// top level).
    pub label: u32,
    /// Peer processor: destination of a send, source of a receive;
    /// `u32::MAX` otherwise.
    pub peer: u32,
    /// Wire tag of a send or receive (0 otherwise). The k-th receive of a
    /// `(sender, receiver, tag)` stream matches its k-th send.
    pub tag: u64,
    /// Payload bytes of a send or receive (0 otherwise).
    pub bytes: u64,
    /// Start of the interval in virtual seconds (the instant itself for
    /// instant events).
    pub start: f64,
    /// End of the interval (`== start` for instant events).
    pub end: f64,
    /// Message arrival time at the destination: for sends, when the
    /// payload becomes available to the receiver; for receives, when it
    /// became available here. `0.0` otherwise.
    pub arrival: f64,
    /// Causal trace id active when the event was made (`0` = none).
    /// Sends stamp it onto the envelope; a receive adopts the incoming id
    /// before its event is made, so the events of one logical operation
    /// link across processors into one trace.
    pub trace: u64,
}

impl Event {
    /// Duration in seconds (0 for instant events).
    #[inline]
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// True for the three duration kinds (compute, send, recv) — what the
    /// profiler used to call a span.
    #[inline]
    pub fn is_span(&self) -> bool {
        matches!(self.kind, EventKind::Compute | EventKind::Send | EventKind::Recv)
    }
}

/// Deterministic non-zero trace id for serving request `req` (the
/// request's position in the arrival trace). A pure function of the
/// index — SplitMix64's finalizer — so every processor derives the same
/// id without communication, and ids are well-spread for use as keys.
pub fn request_trace_id(req: usize) -> u64 {
    let mut z = (req as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

/// One interned label with what readers ask of it, computed once.
#[derive(Debug, PartialEq, Eq)]
pub struct Label {
    path: Arc<str>,
    stage_len: usize,
    barrier: bool,
}

impl Label {
    fn new(path: Arc<str>) -> Self {
        let stage_len = path.find('/').unwrap_or(path.len());
        let barrier = path.split('/').any(|c| c.starts_with("barrier"));
        Label { path, stage_len, barrier }
    }

    /// The whole label: a `/`-joined scope path, or a mark's text. Empty
    /// for the top level.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// First `/`-separated component of the path: the stage.
    pub fn stage(&self) -> &str {
        &self.path[..self.stage_len]
    }

    /// True when any component of the path starts with `barrier` (plain
    /// `barrier`, and member labels like `barrier[p0-2]` or the dataflow
    /// edges' `barrier[p0-1>p2-3]`): the one barrier-scope rule.
    pub fn is_barrier(&self) -> bool {
        self.barrier
    }

    /// Subgroup of the path: the bracket contents of the *deepest*
    /// component carrying one — scope labels that involve a processor
    /// subset embed its physical ranges in brackets, like the dataflow
    /// barriers (`barrier[p0-1>p2-3]`) and the promotable loops
    /// (`pdo[p0-3]`, `promote[12-40<p0]`). `""` when no enclosing scope
    /// names a subset.
    pub fn subgroup(&self) -> &str {
        for comp in self.path.rsplit('/') {
            if let (Some(open), Some(close)) = (comp.find('['), comp.rfind(']')) {
                if open < close {
                    return &comp[open + 1..close];
                }
            }
        }
        ""
    }
}

/// One processor's append-only label table. The processor interns (it is
/// the only writer, in program order, so ids are deterministic); the
/// report's folds and the telemetry registry read, the latter from other
/// threads while the run executes and after it panicked.
pub struct Labels {
    table: Mutex<Table>,
}

struct Table {
    /// Id = index; entry 0 is the empty top-level path.
    labels: Vec<Arc<Label>>,
    ids: HashMap<Arc<str>, u32>,
    /// Scope entries per label, parallel to `labels`.
    enters: Vec<u64>,
    /// Where a child path is assembled for lookup, so entering a scope
    /// already seen allocates nothing.
    scratch: String,
}

impl Table {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.labels.len() as u32;
        let path: Arc<str> = Arc::from(text);
        self.labels.push(Arc::new(Label::new(Arc::clone(&path))));
        self.enters.push(0);
        self.ids.insert(path, id);
        id
    }
}

impl Default for Labels {
    fn default() -> Self {
        let mut table = Table { labels: Vec::new(), ids: HashMap::new(), enters: Vec::new(), scratch: String::new() };
        table.intern("");
        Labels { table: Mutex::new(table) }
    }
}

impl std::fmt::Debug for Labels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.table.lock().labels.iter().map(|l| l.path())).finish()
    }
}

impl Labels {
    /// Id of `text`, interning it on first sight.
    pub(crate) fn intern(&self, text: &str) -> u32 {
        self.table.lock().intern(text)
    }

    /// Enter scope `name` under scope `parent` (`0` = top level): the id
    /// of the `/`-joined child path, with one entry counted against it.
    pub(crate) fn enter(&self, parent: u32, name: &str) -> u32 {
        let mut guard = self.table.lock();
        let t = &mut *guard;
        let mut path = std::mem::take(&mut t.scratch);
        path.clear();
        if parent != 0 {
            path.push_str(t.labels[parent as usize].path());
            path.push('/');
        }
        path.push_str(name);
        let id = t.intern(&path);
        t.enters[id as usize] += 1;
        t.scratch = path;
        id
    }

    /// The label behind `id`. An id comes from an event of the processor
    /// that owns this table, so it is always present.
    pub fn get(&self, id: u32) -> Arc<Label> {
        Arc::clone(&self.table.lock().labels[id as usize])
    }

    /// `(path, scope entries)` of every label entered as a scope.
    pub(crate) fn enters(&self) -> Vec<(Arc<Label>, u64)> {
        let t = self.table.lock();
        t.labels.iter().zip(&t.enters).filter(|(_, &n)| n > 0).map(|(l, &n)| (Arc::clone(l), n)).collect()
    }
}

/// Exact decomposition of one window `[t0, t1]` of a processor's virtual
/// time, produced by [`Log::window_breakdown`]. All fields are in
/// virtual seconds and the six buckets sum to exactly `t1 - t0` by
/// construction (duration events are disjoint; everything uncovered is
/// idle).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WindowBreakdown {
    /// Busy time under a `barrier*` scope (synchronization cost, both the
    /// send and recv halves of barrier token exchanges).
    pub barrier: f64,
    /// Sender-side busy time outside barriers.
    pub send: f64,
    /// Receiver-side busy time outside barriers.
    pub recv: f64,
    /// Local compute.
    pub compute: f64,
    /// Busy time attributed to a *different* trace id — in a serving
    /// batch this is time the processor spent on batch-mates while this
    /// request's completion clock was running.
    pub other: f64,
    /// Uncovered time in the window (blocked receives, barrier waits,
    /// idle jumps).
    pub idle: f64,
}

impl WindowBreakdown {
    /// Sum of all buckets; equals the window length by construction.
    pub fn total(&self) -> f64 {
        self.barrier + self.send + self.recv + self.compute + self.other + self.idle
    }
}

/// What one processor retained of its own events, in program order, with
/// the label table that names them: marks always, duration events when
/// the run was profiled.
#[derive(Debug, Clone, Default)]
pub struct Log {
    pub(crate) events: Vec<Event>,
    labels: Arc<Labels>,
}

/// Equal events under equal label tables. Ids are per-processor and
/// interned in program order, so two runs of one program compare equal
/// whatever the worker count.
impl PartialEq for Log {
    fn eq(&self, other: &Self) -> bool {
        let paths = |l: &Labels| l.table.lock().labels.iter().map(|l| Arc::clone(&l.path)).collect::<Vec<_>>();
        self.events == other.events
            && (Arc::ptr_eq(&self.labels, &other.labels) || paths(&self.labels) == paths(&other.labels))
    }
}

impl Log {
    /// A log of `events` named by `labels`.
    pub(crate) fn new(events: Vec<Event>, labels: Arc<Labels>) -> Self {
        Log { events, labels }
    }

    /// Every retained event in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The table that resolves this log's label ids.
    pub fn labels(&self) -> &Arc<Labels> {
        &self.labels
    }

    /// The duration events (compute, send, recv) in time order; none
    /// unless the run was profiled.
    pub fn spans(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_span())
    }

    /// The instant marks in program order.
    pub fn marks(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind == EventKind::Mark)
    }

    /// Times of the marks whose text equals `label`.
    pub fn times_of(&self, label: &str) -> Vec<f64> {
        let Some(id) = self.labels.table.lock().ids.get(label).copied() else { return Vec::new() };
        self.marks().filter(|e| e.label == id).map(|e| e.start).collect()
    }

    /// Append `ev`. A compute interval merges into the previous duration
    /// event when that is an adjacent compute interval with the same
    /// label and trace id (keeps tight charge-loops from growing the log
    /// unboundedly; never merges across a request boundary, so per-trace
    /// slicing stays exact). A mark in between does not split the
    /// interval. Zero-width compute is dropped; zero-width sends and
    /// receives are kept — the critical-path analyzer needs the message
    /// record even under a zero-cost model.
    pub(crate) fn push(&mut self, ev: Event) {
        if ev.kind == EventKind::Compute {
            if ev.end <= ev.start {
                return;
            }
            if let Some(last) = self.events.iter_mut().rev().find(|e| e.kind != EventKind::Mark) {
                if last.kind == EventKind::Compute
                    && last.end == ev.start
                    && last.trace == ev.trace
                    && last.label == ev.label
                {
                    last.end = ev.end;
                    return;
                }
            }
        }
        self.events.push(ev);
    }

    /// Exact decomposition of the window `[t0, t1]`, considering only
    /// events at index `mark` and beyond (a mark taken with
    /// [`crate::ProcCtx::log_mark`] before the windowed work begins keeps
    /// earlier history out of the scan). Each duration event's overlap
    /// with the window is classified into one bucket:
    ///
    /// * a `barrier*` scope → `barrier`, whatever the kind or trace;
    /// * a different non-zero trace than `own` (when `own != 0`) →
    ///   `other` (work on behalf of someone else, e.g. batch-mates);
    /// * otherwise by kind → `send` / `recv` / `compute`.
    ///
    /// `idle` is the remainder, so the buckets sum to exactly `t1 - t0`.
    pub fn window_breakdown(&self, mark: usize, t0: f64, t1: f64, own: u64) -> WindowBreakdown {
        let table = self.labels.table.lock();
        let mut b = WindowBreakdown::default();
        let mut busy = 0.0;
        for e in self.events.iter().skip(mark).filter(|e| e.is_span()) {
            let d = (e.end.min(t1) - e.start.max(t0)).max(0.0);
            if d == 0.0 {
                continue;
            }
            busy += d;
            if table.labels[e.label as usize].barrier {
                b.barrier += d;
            } else if own != 0 && e.trace != 0 && e.trace != own {
                b.other += d;
            } else {
                match e.kind {
                    EventKind::Compute => b.compute += d,
                    EventKind::Send => b.send += d,
                    _ => b.recv += d,
                }
            }
        }
        b.idle = ((t1 - t0) - busy).max(0.0);
        b
    }

    /// The window `(first start, last end)` of each entry into stage
    /// `label` — every scope whose path has `label` as its first
    /// component, however deeply nested — where an entry is a run of
    /// consecutive duration events under it. A window includes the waits
    /// *inside* the stage (a collective's) but not what the parent scope
    /// does between entries.
    pub fn entries_under(&self, label: &str) -> Vec<(f64, f64)> {
        let staged: Vec<bool> = self.labels.table.lock().labels.iter().map(|l| l.stage() == label).collect();
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut inside = false;
        for e in self.spans() {
            let under = e.label != 0 && staged[e.label as usize];
            match out.last_mut() {
                Some(w) if under && inside => w.1 = w.1.max(e.end),
                _ if under => out.push((e.start, e.end)),
                _ => {}
            }
            inside = under;
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An event at the top level with everything a test does not name
    /// zeroed.
    pub(crate) fn ev(kind: EventKind, start: f64, end: f64) -> Event {
        Event { kind, label: 0, peer: u32::MAX, tag: 0, bytes: 0, start, end, arrival: 0.0, trace: 0 }
    }

    fn compute(start: f64, end: f64, label: u32, trace: u64) -> Event {
        Event { label, trace, ..ev(EventKind::Compute, start, end) }
    }

    fn msg(kind: EventKind, start: f64, end: f64, peer: u32, tag: u64, arrival: f64) -> Event {
        Event { peer, tag, arrival, ..ev(kind, start, end) }
    }

    #[test]
    fn compute_spans_merge_when_adjacent() {
        let mut log = Log::default();
        log.push(compute(0.0, 1.0, 0, 0));
        log.push(compute(1.0, 2.0, 0, 0));
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.events()[0].end, 2.0);
        // A gap breaks the merge.
        log.push(compute(3.0, 4.0, 0, 0));
        assert_eq!(log.events().len(), 2);
        // A different path breaks the merge.
        let g = log.labels().enter(0, "g");
        log.push(compute(4.0, 5.0, g, 0));
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn compute_spans_never_merge_across_traces() {
        let mut log = Log::default();
        log.push(compute(0.0, 1.0, 0, 7));
        log.push(compute(1.0, 2.0, 0, 7));
        assert_eq!(log.events().len(), 1, "same trace merges");
        log.push(compute(2.0, 3.0, 0, 8));
        assert_eq!(log.events().len(), 2, "a trace boundary breaks the merge");
        assert_eq!(log.events()[0].trace, 7);
        assert_eq!(log.events()[1].trace, 8);
    }

    #[test]
    fn a_mark_between_two_charges_does_not_split_the_span() {
        let mut log = Log::default();
        log.push(compute(0.0, 1.0, 0, 0));
        let x = log.labels().intern("x");
        log.push(Event { label: x, ..ev(EventKind::Mark, 1.0, 1.0) });
        log.push(compute(1.0, 2.0, 0, 0));
        assert_eq!(log.spans().count(), 1);
        assert_eq!(log.spans().next().unwrap().end, 2.0);
        assert_eq!(log.times_of("x"), vec![1.0]);
    }

    #[test]
    fn label_queries_match_first_component() {
        let mut log = Log::default();
        let g1 = log.labels().enter(0, "G1");
        let g1a = log.labels().enter(g1, "assign2");
        let g2 = log.labels().enter(0, "G2");
        log.push(compute(0.0, 1.0, g1, 0));
        log.push(compute(2.0, 3.0, g1a, 0));
        log.push(compute(3.0, 4.0, g2, 0));
        log.push(compute(5.0, 6.0, g1, 0));
        assert_eq!(log.labels().get(g1a).path(), "G1/assign2");
        assert_eq!(log.labels().get(g1a).stage(), "G1");
        // A nested scope extends its stage's entry; another stage ends it.
        assert_eq!(log.entries_under("G1"), [(0.0, 3.0), (5.0, 6.0)]);
        assert_eq!(log.entries_under("G2"), [(3.0, 4.0)]);
        assert_eq!(log.entries_under("G3"), []);
        assert_eq!(log.entries_under("G"), [], "prefix must match a whole component");
    }

    #[test]
    fn labels_carry_the_barrier_rule_and_the_subgroup() {
        let labels = Labels::default();
        let stage = labels.enter(0, "assign1");
        let edge = labels.enter(stage, "barrier[p0-1>p2-3]");
        let below = labels.enter(edge, "reduce");
        assert!(!labels.get(0).is_barrier() && !labels.get(stage).is_barrier());
        assert!(labels.get(edge).is_barrier());
        assert!(labels.get(below).is_barrier(), "any component, not only the last");
        assert_eq!(labels.get(below).subgroup(), "p0-1>p2-3", "deepest component carrying one");
        assert_eq!(labels.get(stage).subgroup(), "");
        assert_eq!(labels.enter(stage, "barrier[p0-1>p2-3]"), edge, "ids are stable");
        let entered: Vec<(String, u64)> = labels.enters().iter().map(|(l, n)| (l.path().to_string(), *n)).collect();
        assert_eq!(entered[1], ("assign1/barrier[p0-1>p2-3]".to_string(), 2));
    }

    #[test]
    fn window_breakdown_is_exact_and_clips() {
        let mut log = Log::default();
        let barrier = log.labels().enter(0, "barrier[p0-1]");
        log.push(compute(0.0, 0.9, 0, 5)); // before the mark: ignored
        let mark = log.events().len();
        log.push(compute(1.0, 2.0, 0, 5)); // straddles t0=1.5: clipped
        log.push(Event { trace: 5, ..msg(EventKind::Send, 2.0, 2.5, 1, 1, 2.6) });
        log.push(Event { trace: 5, label: barrier, ..msg(EventKind::Recv, 2.5, 2.75, 1, 2, 2.5) });
        log.push(compute(3.0, 3.5, 0, 9)); // someone else's trace
        log.push(compute(4.0, 6.0, 0, 5)); // straddles t1=5.0: clipped
        let b = log.window_breakdown(mark, 1.5, 5.0, 5);
        assert!((b.compute - (0.5 + 1.0)).abs() < 1e-12, "{b:?}");
        assert!((b.send - 0.5).abs() < 1e-12);
        assert!((b.barrier - 0.25).abs() < 1e-12);
        assert!((b.other - 0.5).abs() < 1e-12);
        assert_eq!(b.recv, 0.0);
        assert!((b.total() - 3.5).abs() < 1e-12, "buckets must sum to the window");
        // With own=0 the trace filter is off: everything by kind.
        let b0 = log.window_breakdown(mark, 1.5, 5.0, 0);
        assert_eq!(b0.other, 0.0);
        assert!((b0.compute - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_width_compute_spans_are_dropped() {
        let mut log = Log::default();
        log.push(compute(1.0, 1.0, 0, 0));
        assert!(log.events().is_empty());
    }

    #[test]
    fn record_and_filter() {
        let mut log = Log::default();
        for (t, text) in [(1.0, "a"), (2.0, "b"), (3.0, "a")] {
            let label = log.labels().intern(text);
            log.push(Event { label, ..ev(EventKind::Mark, t, t) });
        }
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.times_of("a"), vec![1.0, 3.0]);
        assert_eq!(log.times_of("b"), vec![2.0]);
        assert!(log.times_of("c").is_empty());
        assert_eq!(log.labels().get(log.events()[1].label).path(), "b");
    }
}
