//! Launching SPMD programs on the simulated multicomputer.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::{self, CoarseClock};
use crate::coro::Yielder;
use crate::counters::{ProcTotals, PromoteStats};
use crate::ctx::{ProcCtx, World};
use crate::env;
use crate::event::Log;
use crate::mailbox::Mailbox;
use crate::model::MachineModel;
use crate::parker::Parkers;
use crate::pool::{self, Pool};
use crate::stall::StallWatch;
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
/// receives already order it; `Validate` runs both ways and asserts the
/// elision is sound (identical event sequences, monotonically earlier
/// clocks, bit-identical times when nothing was elided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowMode {
    /// Conservative: subset barrier at every distributed-array statement.
    Off,
    /// Elide every statement's barrier (the default).
    On,
    /// Run `Off` then `On` and assert the runs agree; report the `On` run.
    Validate,
}

impl std::fmt::Display for DataflowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowMode::Off => write!(f, "off"),
            DataflowMode::On => write!(f, "on"),
            DataflowMode::Validate => write!(f, "validate"),
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
    /// Deadlock watchdog: a blocked receive panics after this long
    /// (`FX_RECV_TIMEOUT_MS`; default 60 s). Parked receives are checked
    /// once per watchdog period (an eighth of this, within 5–250 ms):
    /// never earlier than configured, up to two periods later.
    pub recv_timeout: Duration,
    /// Retain duration events in the processors' logs (see
    /// [`crate::Log`]). Host-side only: enabling it never changes virtual
    /// times.
    pub profile: bool,
    /// Live telemetry registry (see [`crate::Telemetry`]). Host-side
    /// only: enabling it never changes virtual times.
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
        let dataflow = env::read("FX_DATAFLOW", |s| match s {
            "validate" => Some(DataflowMode::Validate),
            _ => on_off(s).map(|on| if on { DataflowMode::On } else { DataflowMode::Off }),
        });
        let heartbeat = env::read("FX_HEARTBEAT", on_off).unwrap_or(true);
        let tracing = env::read("FX_TRACE", |s| match s {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => on_off(s),
        });
        let timeout_ms = env::read("FX_RECV_TIMEOUT_MS", |s| s.parse().ok());
        let stack_kb = env::read("FX_STACK_KB", |s| s.parse::<usize>().ok());
        Machine {
            nprocs,
            model,
            recv_timeout: timeout_ms.map_or(Duration::from_secs(60), Duration::from_millis),
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

    /// Override the deadlock watchdog timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
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

    /// Attach a live telemetry registry (off by default). The handle is
    /// shared: keep your clone to render metrics mid-run
    /// ([`Telemetry::render_openmetrics`]), read flight recorders
    /// ([`Telemetry::flight_dump`]) and stall reports — even after a run
    /// that panicked. The final snapshot also lands in
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
    /// nanoseconds in sends, receives and pack loops. A read of the same
    /// per-processor block `telemetry.per_proc` reads, so the two are
    /// equal. Host observability only; never affects virtual time. For a
    /// `Validate` run these are the counters of the `On` pass.
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

/// Run `f` as an SPMD program: every processor executes the same closure
/// with its own [`ProcCtx`]. Returns when all processors finish.
///
/// If any processor panics, all others are unblocked (their receives
/// poison) and the original panic is propagated.
pub fn run<R, F>(machine: &Machine, f: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    if machine.dataflow == DataflowMode::Validate {
        // Soundness check for barrier elision: execute the program twice —
        // conservative barriers first, then with the classifier — and
        // assert the elision could not have changed observable behaviour.
        // Observers (telemetry, profiling) attach only to the reported
        // `On` pass so registry counters aren't double-counted.
        let mut off = machine.clone();
        off.dataflow = DataflowMode::Off;
        off.telemetry = None;
        off.profile = false;
        off.tracing = false;
        let off_rep = run_resolved(&off, &f);
        let mut on = machine.clone();
        on.dataflow = DataflowMode::On;
        let on_rep = run_resolved(&on, &f);
        validate_elision(&off_rep, &on_rep);
        return on_rep;
    }
    run_resolved(machine, &f)
}

/// The single-pass body of [`run`]: `machine.dataflow` is already resolved
/// to `Off` or `On`.
fn run_resolved<R, F>(machine: &Machine, f: &F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    assert!(machine.nprocs >= 1, "machine needs at least one processor");
    debug_assert!(machine.dataflow != DataflowMode::Validate, "validate resolves before launch");
    let coarse = Arc::new(CoarseClock::new());
    let Executor::Pooled { workers } = machine.executor;
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    };
    let pool = Pool::new(machine.nprocs, workers.clamp(1, machine.nprocs));
    let parkers = Parkers::new(machine.nprocs, Arc::clone(&pool), machine.recv_timeout, Arc::clone(&coarse));
    let telemetry = machine.telemetry.clone();
    let world = Arc::new(World {
        nprocs: machine.nprocs,
        model: machine.model,
        mailboxes: (0..machine.nprocs)
            .map(|rank| Mailbox::new(machine.nprocs, rank, Arc::clone(&parkers)))
            .collect(),
        parkers: Arc::clone(&parkers),
        counters: (0..machine.nprocs).map(|_| Arc::default()).collect(),
        labels: (0..machine.nprocs).map(|_| Arc::default()).collect(),
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
        t.begin_run(&world);
    }
    // The run's one service thread: its tick
    // advances the coarse clock, expires parked receives and, for a
    // registry that asks, reports stalled ones. It lives exactly as long
    // as the execution: the guard stops and joins it on drop, even when a
    // propagated panic unwinds past us.
    let period = clock::tick_period(machine.recv_timeout);
    let mut stalls = StallWatch::new(&world, period);
    let ticker = clock::spawn_ticker("fx-tick", coarse, period, move |now, slack| match &mut stalls {
        Some(watch) => watch.tick(now, slack),
        None => parkers.expire_parked(now, slack, |_, _| ()),
    });

    let raw = pool::execute(&pool, &world, machine.stack_bytes, start, &f);

    // Tear down the tick before (possibly) re-raising a panic.
    drop(ticker);

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
    for out in outcomes {
        let out = out.expect("missing processor outcome despite no panic");
        results.push(out.value);
        times.push(out.time);
        logs.push(out.log);
    }
    let counters: Vec<ProcTotals> = world.counters.iter().map(|c| c.row()).collect();
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

/// The `Validate` assertions: elision must not change what the program
/// did, only when (in virtual time) it did it.
///
/// * Mark label sequences are identical per processor — the program took
///   the same path.
/// * Every mark time and finish time of the `On` run is `<=` its `Off` counterpart: removing barriers can only lower
///   clocks (clock updates are IEEE `+`/`max` of the same operands, both
///   monotone), never raise or reorder them.
/// * Traffic is `<=` (the elided barrier messages are the difference).
/// * When nothing was elided the runs executed identical message
///   schedules, so times and traffic must be bit-identical.
fn validate_elision<R>(off: &RunReport<R>, on: &RunReport<R>) {
    let elided = on.total().barriers_elided;
    let exact = elided == 0;
    assert_eq!(off.results.len(), on.results.len(), "FX_DATAFLOW=validate: nprocs changed");
    for p in 0..on.results.len() {
        // By text: the two passes intern their labels in different orders
        // (only the `On` pass is observed, so only it interns scopes).
        let marks = |log: &Log| -> Vec<(String, f64)> {
            log.marks().map(|e| (log.labels().get(e.label).path().to_string(), e.start)).collect()
        };
        let (eo, en) = (marks(&off.logs[p]), marks(&on.logs[p]));
        assert_eq!(
            eo.len(),
            en.len(),
            "FX_DATAFLOW=validate: processor {p} recorded {} events with barriers, {} without",
            eo.len(),
            en.len()
        );
        for ((label, ta), (label_on, tb)) in eo.iter().zip(&en) {
            assert_eq!(label, label_on, "FX_DATAFLOW=validate: processor {p} event label diverged");
            if exact {
                assert!(
                    ta.to_bits() == tb.to_bits(),
                    "FX_DATAFLOW=validate: nothing elided, yet processor {p} \
                     event '{label}' moved: {ta} (off) vs {tb} (on)"
                );
            } else {
                assert!(
                    tb <= ta,
                    "FX_DATAFLOW=validate: elision DELAYED processor {p} \
                     event '{label}': {ta} (off) vs {tb} (on)"
                );
            }
        }
        let (to, tn) = (off.times[p], on.times[p]);
        if exact {
            assert!(
                to.to_bits() == tn.to_bits(),
                "FX_DATAFLOW=validate: nothing elided, yet processor {p} finish \
                 moved: {to} (off) vs {tn} (on)"
            );
        } else {
            assert!(
                tn <= to,
                "FX_DATAFLOW=validate: elision delayed processor {p} finish: \
                 {to} (off) vs {tn} (on)"
            );
        }
        let ((mo, bo), (mn, bn)) = (off.traffic[p], on.traffic[p]);
        if exact {
            assert_eq!(
                (mo, bo),
                (mn, bn),
                "FX_DATAFLOW=validate: nothing elided, yet processor {p} traffic differs"
            );
        } else {
            assert!(
                mn <= mo && bn <= bo,
                "FX_DATAFLOW=validate: elision increased processor {p} traffic: \
                 {mo} msgs/{bo} B (off) vs {mn} msgs/{bn} B (on)"
            );
        }
    }
    assert_eq!(
        off.undelivered, on.undelivered,
        "FX_DATAFLOW=validate: undelivered message count diverged"
    );
}

/// One processor's life on its coroutine: build its context, run
/// the SPMD closure, and hand back what it produced — or, if it
/// panicked, unblock everyone else, dump its flight recorder (when a
/// registry is attached, and unless this is a secondary poison panic:
/// the root cause already dumped its own) and hand back the payload.
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
    match catch_unwind(AssertUnwindSafe(|| f(&mut cx))) {
        Ok(value) => Ok(cx.finish(value)),
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

/// What one processor hands back to the run for report assembly besides
/// its counters, which stay in the world's block.
pub(crate) struct ProcOutcome<R> {
    pub(crate) value: R,
    pub(crate) time: f64,
    pub(crate) log: Log,
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
