//! Launching SPMD programs on the simulated multicomputer.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock;
use crate::coro::Yielder;
use crate::counters::{ProcTotals, PromoteStats};
use crate::ctx::{ProcCtx, World};
use crate::env;
use crate::event::{Event, EventKind, Label, Log};
use crate::mailbox::Mailbox;
use crate::model::MachineModel;
use crate::parker::Parkers;
use crate::pool::{self, Pool};
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// How simulated processors are mapped onto OS threads: each one is a
/// stackful coroutine on a pool of `workers` threads.
///
/// The worker count moves host wall-clock and footprint only, never a
/// result: virtual clocks are per-processor state coupled only through
/// message causality, and matching is FIFO per `(src, tag)` with no
/// wildcard receive, so host scheduling order cannot leak into simulated
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Processors multiplexed onto `workers` OS threads with per-worker
    /// run queues and work stealing; blocking receives suspend into the
    /// scheduler. `workers == 0` is one per host CPU; a count above the
    /// number of processors is clamped to it, one preempted thread each.
    Pooled {
        /// Worker threads (0 = one per host CPU).
        workers: usize,
    },
}

impl Executor {
    /// The pool with one worker per host CPU.
    pub fn pooled() -> Self {
        Executor::Pooled { workers: 0 }
    }

    /// One worker per processor: `benchmark/`'s spelling of it.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Threaded: Executor = Executor::Pooled { workers: usize::MAX };
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Executor::Pooled { workers: 0 } => write!(f, "pooled(auto)"),
            Executor::Pooled { workers } => write!(f, "pooled({workers})"),
        }
    }
}

/// Whether distributed-array statements elide their inter-stage subset
/// barriers when the interval-level dependence structure proves them
/// redundant (see `fx-darray`'s dataflow module for the covered-edge
/// rule).
///
/// Barriers in this runtime never affect *results* — messages are matched
/// FIFO per `(src, tag)` stream regardless — only virtual (and host) time.
/// `Off` is the conservative baseline that synchronizes the participating
/// subset at every statement; `On` elides them all, since each statement's
/// receives already order it. An `On` run agrees with its `Off` run under
/// [`Agreement::Earlier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowMode {
    /// Conservative: subset barrier at every distributed-array statement.
    Off,
    /// Elide every statement's barrier (the default).
    On,
}

impl std::fmt::Display for DataflowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowMode::Off => write!(f, "off"),
            DataflowMode::On => write!(f, "on"),
        }
    }
}

/// Configuration of one machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// The cost model that drives every processor's virtual clock.
    pub model: MachineModel,
    /// How long a promotable loop's board spin may wait for a peer
    /// before it panics with what it waited for (default 60 s;
    /// [`Machine::with_timeout`]). The spin keeps its processor runnable,
    /// so it is the one wait a deadlock cannot be seen in; a receive
    /// needs no timeout, since a run that can never progress is diagnosed
    /// at once. Never early; a steady spin expires within about twice
    /// this ([`crate::SpinDeadline`]).
    pub spin_timeout: Duration,
    /// Retain duration events in the processors' logs (see
    /// [`crate::Log`]). Host-side only: enabling it never changes virtual
    /// times.
    pub profile: bool,
    /// Telemetry registry (see [`crate::Telemetry`]). Host-side only:
    /// enabling it never changes virtual times.
    pub telemetry: Option<Arc<Telemetry>>,
    /// How processors map onto OS threads (default: one worker per host
    /// CPU; `FX_WORKERS` overrides the default, an explicit
    /// [`Machine::with_executor`] overrides everything).
    pub executor: Executor,
    /// Barrier elision for distributed-array statements (default `On`;
    /// `FX_DATAFLOW` overrides, an explicit [`Machine::with_dataflow`]
    /// overrides everything).
    pub dataflow: DataflowMode,
    /// Heartbeat work promotion for promotable loops (default on;
    /// `FX_HEARTBEAT` overrides the default, an explicit
    /// [`Machine::with_heartbeat`] overrides everything). Off, a promotable
    /// loop runs its static share sequentially; on, only virtual completion
    /// times may change, never results. Inert for programs that never run
    /// a promotable loop.
    pub heartbeat: bool,
    /// Virtual seconds of charged compute between heartbeats (default
    /// 1 ms: at the Paragon parameters a promotion costs ~1.3 ms of
    /// messaging overhead, so a 1 ms pulse re-examines the idle set about
    /// once per potential promotion; [`Machine::with_heartbeat_period`]
    /// overrides it).
    pub heartbeat_period: f64,
    /// Piggyback the causal trace id on every message and adopt it on
    /// receive (see [`crate::Event::trace`]; default off, `FX_TRACE`
    /// overrides the default, an explicit [`Machine::with_tracing`]
    /// overrides everything). Host-side observability only: virtual
    /// times are bit-identical with tracing on or off.
    pub tracing: bool,
    /// Stack of each processor's coroutine (`FX_STACK_KB`).
    pub(crate) stack_bytes: usize,
}

impl Machine {
    /// A machine with `nprocs` processors under deterministic virtual time.
    ///
    /// The defaults come from the `FX_*` environment (see [`crate::env`]),
    /// read once per construction.
    pub fn simulated(nprocs: usize, model: MachineModel) -> Self {
        let on_off = |s: &str| match s {
            "on" => Some(true),
            "off" => Some(false),
            _ => None,
        };
        let workers = env::read("FX_WORKERS", |s| s.parse().ok()).unwrap_or(0);
        let dataflow = env::read("FX_DATAFLOW", on_off).map(|on| if on { DataflowMode::On } else { DataflowMode::Off });
        let heartbeat = env::read("FX_HEARTBEAT", on_off).unwrap_or(true);
        let tracing = env::read("FX_TRACE", |s| match s {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => on_off(s),
        });
        let stack_kb = env::read("FX_STACK_KB", |s| s.parse::<usize>().ok());
        Machine {
            nprocs,
            model,
            spin_timeout: Duration::from_secs(60),
            profile: false,
            telemetry: None,
            executor: Executor::Pooled { workers },
            dataflow: dataflow.unwrap_or(DataflowMode::On),
            heartbeat,
            heartbeat_period: 1e-3,
            tracing: tracing.unwrap_or(false),
            stack_bytes: stack_kb.unwrap_or(1024).max(64) * 1024,
        }
    }

    /// Override the board spin's timeout ([`Machine::spin_timeout`]).
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.spin_timeout = t;
        self
    }

    /// Pin the worker count, overriding both the default and the
    /// `FX_WORKERS` environment.
    pub fn with_executor(mut self, e: Executor) -> Self {
        self.executor = e;
        self
    }

    /// Pin the dataflow barrier-elision mode, overriding both the default
    /// (`On`) and the `FX_DATAFLOW` environment.
    pub fn with_dataflow(mut self, d: DataflowMode) -> Self {
        self.dataflow = d;
        self
    }

    /// Arm or disarm heartbeat work promotion, overriding both the
    /// default and the `FX_HEARTBEAT` environment.
    pub fn with_heartbeat(mut self, on: bool) -> Self {
        self.heartbeat = on;
        self
    }

    /// Override the heartbeat period (virtual seconds of charged compute
    /// between promotion checks).
    pub fn with_heartbeat_period(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "heartbeat period must be positive");
        self.heartbeat_period = seconds;
        self
    }

    /// Enable or disable span profiling (off by default). Profiling is
    /// host-side observability and never perturbs the virtual clock.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enable or disable causal trace propagation (off by default),
    /// overriding the `FX_TRACE` environment. The trace id rides on
    /// every message and is adopted on receive; combine with
    /// [`Machine::with_profiling`] to retain the events it tags. Never
    /// perturbs the virtual clock.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Attach a telemetry registry (off by default). The handle is
    /// shared: keep your clone to render metrics
    /// ([`Telemetry::render_openmetrics`]), read flight recorders
    /// ([`Telemetry::flight_dump`]) and stall reports after the run — even
    /// one that panicked. The final snapshot also lands in
    /// [`RunReport::telemetry`]. Host-side observability only: virtual
    /// times are bit-identical with telemetry on or off.
    pub fn with_telemetry(mut self, t: Arc<Telemetry>) -> Self {
        self.telemetry = Some(t);
        self
    }
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-processor return values, indexed by physical rank.
    pub results: Vec<R>,
    /// Per-processor finish times (virtual seconds).
    pub times: Vec<f64>,
    /// Per-processor event logs: the marks, and — when the machine was
    /// built with `with_profiling(true)` — the duration events. Feed these to [`crate::critical_path`] or
    /// [`crate::chrome_trace`].
    pub logs: Vec<Log>,
    /// Per-processor (messages, bytes) sent: `sends` and `send_bytes` of
    /// `counters`, copied out at assembly.
    pub traffic: Vec<(u64, u64)>,
    /// Per-processor counter rows, indexed by physical rank: messages and
    /// bytes both ways, chunk traffic, buffer-pool and plan-cache hit
    /// rates, barriers run and elided, promotions, region entries, and —
    /// only when a telemetry registry is attached, 0 otherwise — host
    /// nanoseconds in sends, receives and pack loops. Each is the row its
    /// processor handed over when it was done, the one `telemetry.per_proc`
    /// holds, so the two are equal. Host observability only; never affects
    /// virtual time.
    pub counters: Vec<ProcTotals>,
    /// Per-processor `(sender rank, payload bytes)` of every lane of the
    /// processor's mailbox that was ever deposited into or waited on,
    /// ascending by sender; a sender that never appears sent nothing.
    pub lane_bytes: Vec<Vec<(usize, u64)>>,
    /// Final telemetry snapshot (`None` unless the machine was built with
    /// [`Machine::with_telemetry`]).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Messages deposited but never received (0 for a clean program).
    pub undelivered: usize,
}

impl<R> RunReport<R> {
    /// Completion time of the run: the slowest processor's clock.
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// Machine-wide counters: every processor's row merged into one.
    pub fn total(&self) -> ProcTotals {
        let mut total = ProcTotals::default();
        for row in &self.counters {
            total.merge(row);
        }
        total
    }

    /// [`RunReport::total`] under the name the transport counters
    /// (`send_ns`, `recv_wait_ns`, `pool_*`, `chunk_*`) used to be read by.
    #[doc(hidden)]
    pub fn host_stats_total(&self) -> ProcTotals {
        self.total()
    }

    /// [`RunReport::total`] under the name the plan counters
    /// (`plan_hits`, `plan_misses`, `pack_ns`) used to be read by.
    #[doc(hidden)]
    pub fn plan_stats_total(&self) -> ProcTotals {
        self.total()
    }

    /// [`RunReport::total`] under the name the elision counters
    /// (`barriers_elided`, `barriers_kept`) used to be read by.
    #[doc(hidden)]
    pub fn dataflow_total(&self) -> ProcTotals {
        self.total()
    }

    /// Machine-wide promotion counters, projected out of
    /// [`RunReport::total`] on call.
    pub fn promote_total(&self) -> PromoteStats {
        self.total().promote()
    }

    /// All marks with the given label across processors, as
    /// `(processor, time)` pairs sorted by time.
    pub fn events_named(&self, label: &str) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self
            .logs
            .iter()
            .enumerate()
            .flat_map(|(p, log)| log.times_of(label).into_iter().map(move |t| (p, t)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Steady-state throughput in events/second for `label`, computed from
    /// the spacing between the first and last occurrence (skipping the
    /// pipeline fill by dropping the first `skip` events).
    pub fn throughput(&self, label: &str, skip: usize) -> f64 {
        let ev = self.events_named(label);
        assert!(
            ev.len() > skip + 1,
            "need at least {} '{label}' events to measure throughput, got {}",
            skip + 2,
            ev.len()
        );
        let first = ev[skip].1;
        let last = ev[ev.len() - 1].1;
        (ev.len() - 1 - skip) as f64 / (last - first)
    }

    /// Serialize the run as Chrome-trace JSON (open in `about:tracing` or
    /// Perfetto to see the pipeline overlap). When the run was profiled,
    /// duration events are included as complete (`"X"`) events alongside
    /// the instant marks; otherwise only the instant marks are emitted.
    pub fn chrome_trace(&self) -> String {
        crate::trace::chrome_trace(&self.logs, None)
    }

    /// Critical-path analysis of a profiled run: walks send→recv edges and
    /// per-processor program order backwards from the last-finishing
    /// processor and attributes the makespan to compute, communication and
    /// idle per stage. Requires a run under `with_profiling(true)`.
    pub fn critical_path(&self) -> crate::critical::CriticalPathReport {
        crate::critical::critical_path(&self.logs, &self.times)
    }

    /// Mean time between events labelled `start` and the matching events
    /// labelled `done` (paired in order). This is the per-data-set latency
    /// of a stream program.
    pub fn latency(&self, start: &str, done: &str) -> f64 {
        let s = self.events_named(start);
        let d = self.events_named(done);
        assert!(!s.is_empty() && s.len() == d.len(), "unpaired latency events: {} starts, {} dones", s.len(), d.len());
        let total: f64 = s.iter().zip(&d).map(|(a, b)| b.1 - a.1).sum();
        total / s.len() as f64
    }
}

/// What flipping one toggle may change in a run of a program:
/// [`RunReport::agrees_with`] holds the flipped run to it against the
/// run before the flip, its base.
///
/// Every rule asks for the same results, the same undelivered count and,
/// per processor, the same marks in the same order, labels compared by
/// text. A toggle may change *when* a processor works, never *what* it
/// computes, and a schedule that sends exactly the base's traffic has no
/// way to be earlier or later: under every rule, equal traffic forces
/// bit-identical mark and finish times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// A host-only toggle (worker count, profiling, tracing, telemetry):
    /// equal traffic and, with it, bit-identical times; the duration
    /// events too when both runs kept them, and trace ids when both runs
    /// traced.
    Identical,
    /// Dataflow `Off` (the base) to `On`: no mark or finish later and no
    /// processor's traffic higher.
    Earlier,
    /// Heartbeat off (the base) to on: the same answers, times free once
    /// a donation has sent a message.
    SameAnswers,
}

impl<R: PartialEq + std::fmt::Debug> RunReport<R> {
    /// `Ok` when this run agrees with `base` under `rule`; otherwise the
    /// first difference found.
    pub fn agrees_with(&self, base: &Self, rule: Agreement) -> Result<(), String> {
        let n = base.results.len();
        if self.results.len() != n || self.undelivered != base.undelivered {
            let (p, u) = (self.results.len(), self.undelivered);
            return Err(format!("{p} processors, {u} undelivered against {n}, {}", base.undelivered));
        }
        let exact = self.traffic == base.traffic;
        if rule == Agreement::Identical && !exact {
            return Err(format!("traffic {:?} against {:?}", self.traffic, base.traffic));
        }
        let agrees = |t: f64, b: f64| {
            t.to_bits() == b.to_bits() || (!exact && (rule == Agreement::SameAnswers || t <= b))
        };
        let spans = rule == Agreement::Identical && self.kept_spans() && base.kept_spans();
        let traced = self.traced() && base.traced();
        for p in 0..n {
            if self.results[p] != base.results[p] {
                return Err(format!("processor {p} returned {:?} against {:?}", self.results[p], base.results[p]));
            }
            let ((m, b), (bm, bb)) = (self.traffic[p], base.traffic[p]);
            if rule == Agreement::Earlier && (m > bm || b > bb) {
                return Err(format!("processor {p} sent {m} messages, {b} B against {bm}, {bb} B"));
            }
            if !agrees(self.times[p], base.times[p]) {
                return Err(format!("processor {p} finished at {:e} against {:e}", self.times[p], base.times[p]));
            }
            let (mine, theirs) = (compared(&self.logs[p], spans, traced), compared(&base.logs[p], spans, traced));
            if mine.len() != theirs.len() {
                return Err(format!("processor {p} kept {} events against {}", mine.len(), theirs.len()));
            }
            for (i, ((e, l), (be, bl))) in mine.iter().zip(&theirs).enumerate() {
                let timeless = |e: &Event| Event { start: 0.0, end: 0.0, arrival: 0.0, ..*e };
                let same = l.path() == bl.path() && timeless(e) == timeless(be);
                if !(same && agrees(e.start, be.start) && agrees(e.end, be.end) && agrees(e.arrival, be.arrival)) {
                    return Err(format!("processor {p} event {i}: {:?} {e:?} against {:?} {be:?}", l.path(), bl.path()));
                }
            }
        }
        Ok(())
    }

    /// [`RunReport::agrees_with`], panicking with the difference.
    #[track_caller]
    pub fn assert_agrees_with(&self, base: &Self, rule: Agreement) {
        if let Err(why) = self.agrees_with(base, rule) {
            panic!("the run disagrees with its base ({rule:?}): {why}");
        }
    }

    /// True when some processor kept a duration event (a profiled run).
    fn kept_spans(&self) -> bool {
        self.logs.iter().any(|log| log.spans().next().is_some())
    }

    /// True when some kept event carries a trace id (a traced run).
    fn traced(&self) -> bool {
        self.logs.iter().any(|log| log.events().iter().any(|e| e.trace != 0))
    }
}

/// The events of `log` a comparison reads — its marks, and its duration
/// events when `spans` — each with its label, its label id cleared (two
/// runs may intern in different orders) and its trace id kept only when
/// `traced`.
fn compared(log: &Log, spans: bool, traced: bool) -> Vec<(Event, Arc<Label>)> {
    let kept = log.events().iter().filter(|e| e.kind == EventKind::Mark || (spans && e.is_span()));
    kept.map(|e| (Event { label: 0, trace: if traced { e.trace } else { 0 }, ..*e }, log.labels().get(e.label)))
        .collect()
}

/// Run `f` as an SPMD program: every processor executes the same closure
/// with its own [`ProcCtx`], once. Returns when all processors finish.
///
/// If any processor panics, all others are unblocked (their receives
/// poison) and the original panic is propagated. If the run deadlocks,
/// it panics at once with the diagnosis of [`crate::StallReport`].
pub fn run<R, F>(machine: &Machine, f: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    assert!(machine.nprocs >= 1, "machine needs at least one processor");
    let Executor::Pooled { workers } = machine.executor;
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    };
    let pool = Pool::new(machine.nprocs, workers.clamp(1, machine.nprocs));
    let parkers = Parkers::new(machine.nprocs, Arc::clone(&pool));
    let telemetry = machine.telemetry.clone();
    let world = Arc::new(World {
        nprocs: machine.nprocs,
        model: machine.model,
        mailboxes: (0..machine.nprocs)
            .map(|rank| Mailbox::new(machine.nprocs, rank, Arc::clone(&parkers)))
            .collect(),
        parkers,
        spin_timeout: machine.spin_timeout,
        returned: (0..machine.nprocs).map(|_| Default::default()).collect(),
        poisoned: std::sync::atomic::AtomicBool::new(false),
        profile: machine.profile,
        tracing: machine.tracing,
        telemetry: telemetry.clone(),
        dataflow: machine.dataflow,
        heartbeat: machine.heartbeat,
        heartbeat_period: machine.heartbeat_period,
    });
    let start = clock::host_now();
    if let Some(t) = &telemetry {
        t.begin_run(machine.nprocs);
    }
    let raw = pool::execute(&pool, &world, machine.stack_bytes, start, &f);
    if let Some(t) = &telemetry {
        t.end_run(&world.mailboxes);
    }

    // Prefer reporting the root-cause panic over the poison-induced
    // secondary ones, scanning in rank order.
    let mut outcomes: Vec<Option<ProcOutcome<R>>> = Vec::with_capacity(machine.nprocs);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let mut poison_panic: Option<Box<dyn Any + Send>> = None;
    for slot in raw {
        match slot.expect("SPMD processor finished without reporting an outcome") {
            Ok(out) => outcomes.push(Some(out)),
            Err(p) => {
                outcomes.push(None);
                if is_secondary(&*p) {
                    poison_panic.get_or_insert(p);
                } else if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic.or(poison_panic) {
        resume_unwind(p);
    }

    let undelivered = world.mailboxes.iter().map(Mailbox::undelivered).sum();
    let mut results = Vec::with_capacity(machine.nprocs);
    let mut times = Vec::with_capacity(machine.nprocs);
    let mut logs = Vec::with_capacity(machine.nprocs);
    let mut counters = Vec::with_capacity(machine.nprocs);
    for out in outcomes {
        let out = out.expect("missing processor outcome despite no panic");
        results.push(out.value);
        times.push(out.time);
        logs.push(out.log);
        counters.push(out.counters);
    }
    RunReport {
        results,
        times,
        logs,
        traffic: counters.iter().map(|c| (c.sends, c.send_bytes)).collect(),
        counters,
        lane_bytes: world.mailboxes.iter().map(Mailbox::lane_bytes).collect(),
        telemetry: telemetry.as_ref().map(|t| t.snapshot()),
        undelivered,
    }
}

/// One processor's life on its coroutine: build its context, run the
/// SPMD closure, hand over what it observed (on return and on unwind
/// alike), and hand back what it produced — or, if it panicked, unblock
/// everyone else, dump its flight recorder (when a registry is attached,
/// and unless this is a secondary poison panic: the root cause already
/// dumped its own) and hand back the payload.
pub(crate) fn run_proc<R, F>(
    rank: usize,
    world: &Arc<World>,
    yielder: Yielder,
    start: Instant,
    f: &F,
) -> Result<ProcOutcome<R>, Box<dyn Any + Send>>
where
    F: Fn(&mut ProcCtx) -> R,
{
    let mut cx = ProcCtx::new(rank, Arc::clone(world), start, yielder);
    let returned = catch_unwind(AssertUnwindSafe(|| f(&mut cx)));
    let counters = cx.hand_over();
    match returned {
        Ok(value) => Ok(cx.finish(value, counters)),
        Err(payload) => {
            world.poison_all();
            if let Some(t) = world.telemetry.as_ref().filter(|_| !is_secondary(&*payload)) {
                let mut tail = t.flight_lines(rank).concat();
                if tail.is_empty() {
                    tail.push_str("  (no events recorded)\n");
                }
                eprintln!("[fx-telemetry] processor {rank} panicked; flight recorder:\n{tail}");
            }
            Err(payload)
        }
    }
}

/// True for the panic a processor raises because *another* processor
/// panicked and poisoned its mailbox.
fn is_secondary(payload: &(dyn Any + Send)) -> bool {
    payload.downcast_ref::<String>().is_some_and(|s| s.contains("another processor panicked"))
}

/// Per-rank results of an execution: the processor's outcome, or the
/// panic payload it died with. `None` only on abnormal teardown paths
/// that are about to re-raise a panic anyway.
pub(crate) type RawOutcomes<R> = Vec<Option<Result<ProcOutcome<R>, Box<dyn Any + Send>>>>;

/// What one processor hands back to the run for report assembly.
pub(crate) struct ProcOutcome<R> {
    pub(crate) value: R,
    pub(crate) time: f64,
    pub(crate) log: Log,
    pub(crate) counters: ProcTotals,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(nprocs: usize) -> Machine {
        Machine::simulated(nprocs, MachineModel::paragon())
    }

    #[test]
    fn single_proc_returns_value() {
        let rep = run(&machine(1), |cx| cx.rank() + 41);
        assert_eq!(rep.results, vec![41]);
        assert_eq!(rep.undelivered, 0);
    }

    #[test]
    fn ranks_are_unique_and_complete() {
        let rep = run(&machine(8), |cx| cx.rank());
        assert_eq!(rep.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong() {
        let rep = run(&machine(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, 123u64);
                cx.recv::<u64>(1, 2)
            } else {
                let v = cx.recv::<u64>(0, 1);
                cx.send(0, 2, v + 1);
                v
            }
        });
        assert_eq!(rep.results, vec![124, 123]);
    }

    #[test]
    fn simulated_time_accounts_for_message_costs() {
        let m = crate::model::MachineModel::paragon();
        let rep = run(&Machine::simulated(2, m), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, vec![0f64; 1000]);
            } else {
                let _: Vec<f64> = cx.recv(0, 1);
            }
            cx.now()
        });
        // Sender: o_send + 8000 B * gap. Receiver: that + latency + o_recv.
        let t0 = m.send_busy(8000);
        let t1 = m.arrival(t0) + m.recv_busy(8000);
        assert!((rep.results[0] - t0).abs() < 1e-12, "{} vs {}", rep.results[0], t0);
        assert!((rep.results[1] - t1).abs() < 1e-12, "{} vs {}", rep.results[1], t1);
        assert_eq!(rep.makespan(), rep.results[1]);
    }

    #[test]
    fn simulated_time_is_deterministic_across_runs() {
        let machine = Machine::simulated(4, crate::model::MachineModel::paragon());
        let go = || {
            run(&machine, |cx| {
                // Ring exchange plus local compute.
                let right = (cx.rank() + 1) % cx.nprocs();
                let left = (cx.rank() + cx.nprocs() - 1) % cx.nprocs();
                cx.charge_flops(1000.0 * (cx.rank() + 1) as f64);
                cx.send(right, 9, cx.rank() as u64);
                let v: u64 = cx.recv(left, 9);
                cx.charge_flops(500.0 * v as f64);
                cx.now()
            })
            .results
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn clocks_decouple_until_communication() {
        // Proc 0 does lots of work; proc 1 does none and waits for a
        // message; proc 2 does nothing and should finish at time 0.
        let m = crate::model::MachineModel::zero_comm(1e-6);
        let rep = run(&Machine::simulated(3, m), |cx| match cx.rank() {
            0 => {
                cx.charge_flops(1_000_000.0);
                cx.send(1, 1, 0u8);
                cx.now()
            }
            1 => {
                let _: u8 = cx.recv(0, 1);
                cx.now()
            }
            _ => cx.now(),
        });
        assert!((rep.results[0] - 1.0).abs() < 1e-9);
        assert!((rep.results[1] - 1.0).abs() < 1e-9);
        assert_eq!(rep.results[2], 0.0);
    }

    #[test]
    fn events_and_throughput() {
        let m = crate::model::MachineModel::zero_comm(1e-3);
        let rep = run(&Machine::simulated(1, m), |cx| {
            for _ in 0..5 {
                cx.record("set start");
                cx.charge_flops(100.0); // 0.1 s each
                cx.record("set done");
            }
        });
        let done = rep.events_named("set done");
        assert_eq!(done.len(), 5);
        let thr = rep.throughput("set done", 1);
        assert!((thr - 10.0).abs() < 1e-6, "thr = {thr}");
        let lat = rep.latency("set start", "set done");
        assert!((lat - 0.1).abs() < 1e-9, "lat = {lat}");
    }

    #[test]
    fn panic_in_one_proc_fails_whole_run() {
        let machine = machine(2).with_timeout(Duration::from_secs(30));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(&machine, |cx| {
                if cx.rank() == 0 {
                    panic!("boom from rank 0");
                }
                // Rank 1 would block forever without poisoning.
                let _: u8 = cx.recv(0, 7);
            })
        }));
        let err = res.expect_err("run should have panicked");
        let msg = err.downcast_ref::<&str>().map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom from rank 0"), "got panic: {msg}");
    }

    #[test]
    fn undelivered_messages_are_counted() {
        let rep = run(&machine(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, 5u8);
                cx.send(1, 2, 6u8);
            } else {
                let _: u8 = cx.recv(0, 1);
            }
        });
        assert_eq!(rep.undelivered, 1);
        assert_eq!(rep.traffic[0].0, 2);
        assert_eq!(rep.traffic[1].0, 0);
    }

    #[test]
    fn an_undelivered_inline_payload_is_dropped_once() {
        let shared = Arc::new(7u64);
        let rep = run(&machine(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, Arc::clone(&shared));
                cx.send(1, 2, Arc::clone(&shared));
            } else {
                let got: Arc<u64> = cx.recv(0, 1);
                assert_eq!(*got, 7);
            }
        });
        assert_eq!(rep.undelivered, 1);
        assert_eq!(Arc::strong_count(&shared), 1, "the undelivered copy leaked or dropped twice");
    }

    #[test]
    fn probe_sees_deposited_messages_without_consuming() {
        let rep = run(&machine(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 3, 9u8);
                true
            } else {
                // Wait until the deposit lands, then check probe twice.
                while !cx.probe(0, 3) {
                    std::thread::yield_now();
                }
                let still_there = cx.probe(0, 3);
                let v: u8 = cx.recv(0, 3);
                still_there && v == 9 && !cx.probe(0, 3)
            }
        });
        assert!(rep.results.iter().all(|&ok| ok));
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let rep = run(&Machine::simulated(1, crate::model::MachineModel::paragon()), |cx| {
            cx.advance_to(2.5);
            let a = cx.now();
            cx.advance_to(1.0); // must not go backwards
            let b = cx.now();
            cx.charge_mem_bytes(30e6); // 1 second at 30 MB/s
            (a, b, cx.now())
        });
        let (a, b, c) = rep.results[0];
        assert_eq!(a, 2.5);
        assert_eq!(b, 2.5);
        assert!((c - 3.5).abs() < 1e-9);
    }

    #[test]
    fn the_closure_runs_once_per_processor() {
        for mode in [DataflowMode::Off, DataflowMode::On] {
            let calls = std::sync::atomic::AtomicUsize::new(0);
            run(&machine(5).with_dataflow(mode), |_| calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            assert_eq!(calls.into_inner(), 5, "{mode}");
        }
    }

    const RULES: [Agreement; 3] = [Agreement::Identical, Agreement::Earlier, Agreement::SameAnswers];

    /// Processor 0 computes, marks and sends one message to processor 1,
    /// which marks its receipt; processor 2 does nothing, so its clock
    /// stays at `0.0`.
    fn sample(profiled: bool) -> RunReport<u64> {
        run(&machine(3).with_profiling(profiled), |cx| match cx.rank() {
            0 => {
                cx.charge_flops(1e4);
                cx.record("sent");
                cx.send(1, 1, 7u64);
                0
            }
            1 => {
                let v: u64 = cx.recv(0, 1);
                cx.record("got");
                v
            }
            _ => 2,
        })
    }

    #[test]
    fn every_rule_accepts_the_identity() {
        for rule in RULES {
            sample(false).assert_agrees_with(&sample(false), rule);
            sample(true).assert_agrees_with(&sample(true), rule);
        }
    }

    #[test]
    fn every_rule_rejects_a_later_time_a_renamed_mark_an_extra_message_and_a_changed_result() {
        let base = sample(false);
        type Fault = (&'static str, fn(&mut RunReport<u64>));
        let faults: [Fault; 5] = [
            ("a finish one ulp later", |r| r.times[1] = r.times[1].next_up()),
            ("a mark one ulp later", |r| r.logs[1].events[0].start = r.logs[1].events[0].start.next_up()),
            ("a renamed mark", |r| r.logs[0].events[0].label = r.logs[0].labels().intern("renamed")),
            ("one extra message", |r| {
                r.traffic[2] = (1, 8);
                r.undelivered += 1;
            }),
            ("a changed result", |r| r.results[2] += 1),
        ];
        for rule in RULES {
            for (fault, inject) in faults {
                let mut rep = sample(false);
                inject(&mut rep);
                assert!(rep.agrees_with(&base, rule).is_err(), "{rule:?} accepts {fault}");
            }
        }
        let mut flipped = sample(false);
        flipped.times[2] = -0.0;
        assert!(flipped.agrees_with(&base, Agreement::Identical).is_err(), "Identical accepts a 0.0/-0.0 flip");
    }

    #[test]
    fn equal_traffic_requires_bitwise_times() {
        let base = sample(false);
        let moved: [fn(f64) -> f64; 3] = [f64::next_down, f64::next_up, |t| -t];
        for rule in [Agreement::Earlier, Agreement::SameAnswers] {
            for (p, move_time) in [(1, moved[0]), (1, moved[1]), (2, moved[2])] {
                let mut rep = sample(false);
                rep.times[p] = move_time(rep.times[p]);
                assert!(rep.agrees_with(&base, rule).is_err(), "{rule:?} moves processor {p} at equal traffic");
            }
        }
        // With less traffic (an elided barrier's message), an earlier time
        // agrees under `Earlier` but a later one does not; with more (a
        // donation's), any time agrees under `SameAnswers`.
        let mut bigger = sample(false);
        bigger.traffic[0] = (2, 16);
        let mut rep = sample(false);
        rep.times[1] = rep.times[1].next_down();
        rep.assert_agrees_with(&bigger, Agreement::Earlier);
        rep.times[1] = base.times[1].next_up();
        assert!(rep.agrees_with(&bigger, Agreement::Earlier).is_err(), "Earlier accepts a later finish");
        bigger.assert_agrees_with(&rep, Agreement::SameAnswers);
    }

    #[test]
    fn identical_compares_duration_events_when_both_runs_kept_them() {
        let (plain, profiled) = (sample(false), sample(true));
        profiled.assert_agrees_with(&plain, Agreement::Identical);
        plain.assert_agrees_with(&profiled, Agreement::Identical);
        let mut moved = sample(true);
        let span = moved.logs[0].events.iter_mut().find(|e| e.is_span()).expect("a profiled compute span");
        span.end = span.end.next_up();
        assert!(moved.agrees_with(&profiled, Agreement::Identical).is_err(), "a moved span agrees");
        moved.assert_agrees_with(&plain, Agreement::Identical);
    }

    #[test]
    fn traffic_counts_bytes() {
        let rep = run(&machine(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, vec![0u32; 100]);
            } else {
                let _: Vec<u32> = cx.recv(0, 1);
            }
        });
        assert_eq!(rep.traffic[0], (1, 400));
    }
}
