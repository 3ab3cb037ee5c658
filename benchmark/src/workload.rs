//! What a workload is to the harness, and the pinned machine it runs on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fx_core::{Machine, MachineModel, RunReport};
use fx_runtime::{DataflowMode, Executor, Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats;

/// Heartbeat period every machine is built with: the runtime's default
/// (1000 µs of charged virtual compute), written out because the default
/// reads `FX_HEARTBEAT_US`.
pub const HEARTBEAT_PERIOD_S: f64 = 1e-3;
/// Deadlock watchdog for every machine.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// What the runtime observes during a pass. Never changes virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing: the end-to-end configuration.
    Off,
    /// Live telemetry registry only.
    Telemetry,
    /// Span profiling + causal tracing + telemetry: the traced run.
    Traced,
}

/// The pinned configuration of every `Machine` the benchmark builds.
/// There are no knobs: the two fields exist so the traced run and the
/// executor-equivalence test can vary exactly one thing.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// How simulated processors map onto OS threads.
    pub executor: Executor,
    /// Runtime observability during the pass.
    pub observe: Observe,
}

impl Pin {
    /// The end-to-end configuration: one pooled worker, nothing observed.
    /// One worker makes a pass's instruction stream deterministic, so
    /// what varies between passes is host interference only (README,
    /// "Why one worker").
    pub const E2E: Pin = Pin {
        executor: Executor::Pooled { workers: 1 },
        observe: Observe::Off,
    };

    /// The same with a different observation level.
    pub fn observing(self, observe: Observe) -> Pin {
        Pin { observe, ..self }
    }

    /// The same on a different executor.
    pub fn on(self, executor: Executor) -> Pin {
        Pin { executor, ..self }
    }

    /// A telemetry registry without the stall-sampler thread (a second
    /// host thread would break the one-worker determinism argument) and
    /// without exemplar retention (rendering a retained request's Chrome
    /// trace scans every span of the run, which makes a traced serve run
    /// quadratic in its request count).
    pub fn telemetry() -> Arc<Telemetry> {
        Arc::new(Telemetry::with_config(TelemetryConfig {
            stall: false,
            exemplar_trace_capacity: 0,
            ..TelemetryConfig::default()
        }))
    }

    /// A `p`-processor simulated Paragon under this pin. Every knob that
    /// has an `FX_*` override is set explicitly.
    pub fn machine(&self, p: usize) -> Machine {
        let m = Machine::simulated(p, MachineModel::paragon())
            .with_executor(self.executor)
            .with_dataflow(DataflowMode::On)
            .with_heartbeat(true)
            .with_heartbeat_period(HEARTBEAT_PERIOD_S)
            .with_timeout(RECV_TIMEOUT)
            .with_profiling(self.observe == Observe::Traced)
            .with_tracing(self.observe == Observe::Traced);
        match self.observe {
            Observe::Off => m,
            Observe::Telemetry | Observe::Traced => m.with_telemetry(Pin::telemetry()),
        }
    }

    /// The pinned values, for the `env` block of every output.
    pub fn describe() -> Json {
        Json::obj()
            .set("machine_model", "paragon")
            .set("executor", Pin::E2E.executor.to_string())
            .set("dataflow", DataflowMode::On.to_string())
            .set("heartbeat", "on")
            .set("heartbeat_period_s", HEARTBEAT_PERIOD_S)
            .set("recv_timeout_s", RECV_TIMEOUT.as_secs_f64())
            .set("profiling", false)
            .set("tracing", false)
            .set(
                "telemetry",
                "off; fx-serve always has a registry: stall sampler off, exemplar retention off",
            )
    }
}

/// Full sizes for measurement, or sizes small enough that the whole
/// suite finishes in seconds (`--smoke`, the schema test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes recorded in `BENCHMARK.json`'s baseline.
    Full,
    /// Tiny sizes: same code paths, no meaningful timings.
    Smoke,
}

/// Verified outputs of a pass: an op is one output compared with its
/// oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that differed from the oracle.
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Runtime counters summed over the machine and over a pass's runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Messages sent (both payload paths).
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Messages on the chunk path.
    pub chunk_msgs: u64,
    /// Bytes on the chunk path.
    pub chunk_bytes: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Host ns inside send calls.
    pub send_ns: u64,
    /// Host ns blocked in receives.
    pub recv_wait_ns: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Host ns packing/unpacking along plans.
    pub pack_ns: u64,
    /// Statement barriers elided by the dataflow classifier.
    pub barriers_elided: u64,
    /// Statement barriers that ran.
    pub barriers_kept: u64,
    /// Heartbeat grants donated.
    pub promotions_taken: u64,
    /// Heartbeats that donated nothing.
    pub promotions_declined: u64,
}

impl Counters {
    /// Add one run's counters, read from its report.
    pub fn add_report<R>(&mut self, rep: &RunReport<R>) {
        for &(m, b) in &rep.traffic {
            self.msgs += m;
            self.bytes += b;
        }
        let h = rep.host_stats_total();
        self.chunk_msgs += h.chunk_msgs;
        self.chunk_bytes += h.chunk_bytes;
        self.pool_hits += h.pool_hits;
        self.pool_misses += h.pool_misses;
        self.send_ns += h.send_ns;
        self.recv_wait_ns += h.recv_wait_ns;
        let p = rep.plan_stats_total();
        self.plan_hits += p.plan_hits;
        self.plan_misses += p.plan_misses;
        self.pack_ns += p.pack_ns;
        let d = rep.dataflow_total();
        self.barriers_elided += d.barriers_elided;
        self.barriers_kept += d.barriers_kept;
        let pr = rep.promote_total();
        self.promotions_taken += pr.taken;
        self.promotions_declined += pr.declined;
    }

    /// Add one run's counters, read from a telemetry snapshot (the only
    /// place `fx-serve` exposes them).
    pub fn add_snapshot(&mut self, snap: &TelemetrySnapshot) {
        for t in &snap.per_proc {
            self.msgs += t.sends;
            self.bytes += t.send_bytes;
            self.chunk_msgs += t.chunk_msgs;
            self.chunk_bytes += t.chunk_bytes;
            self.pool_hits += t.pool_hits;
            self.pool_misses += t.pool_misses;
            self.send_ns += t.send_ns;
            self.recv_wait_ns += t.recv_wait_ns;
            self.plan_hits += t.plan_hits;
            self.plan_misses += t.plan_misses;
            self.pack_ns += t.pack_ns;
            self.barriers_elided += t.barriers_elided;
            self.barriers_kept += t.barriers_kept;
            self.promotions_taken += t.promotions_taken;
            self.promotions_declined += t.promotions_declined;
        }
    }
}

/// The virtual-time result of a pass. Everything here is a pure function
/// of the workload's inputs: the harness asserts it is bit-identical
/// across passes, child processes and executors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virt {
    /// Virtual seconds, summed over the pass's runs.
    pub makespan_s: f64,
    /// Virtual latency of each unit of work (what a unit is, is the
    /// workload's to say), in seconds.
    pub op_latency_s: Vec<f64>,
    /// Units of work completed per virtual second.
    pub goodput: f64,
    /// Named per-layer virtual values (`apps.virt_thr_gain_x`, ...).
    pub extras: Vec<(&'static str, f64)>,
}

impl Virt {
    /// Median unit latency, virtual ms.
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.op_latency_s, 0.50) * 1e3
    }

    /// 95th-percentile unit latency (exact order statistic), virtual ms.
    /// The end-to-end tail is p95, not p99: across arrival traces drawn
    /// from different seeds a p99 over a few thousand requests moves by
    /// 10-18% of itself, a p95 by half that (README, "Bounds"). The
    /// exact per-mapping p99s are per-layer metrics.
    pub fn p95_ms(&self) -> f64 {
        stats::percentile(&self.op_latency_s, 0.95) * 1e3
    }

    /// FNV-1a over the bit patterns of every value: equal fingerprints
    /// mean bit-identical virtual results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bits: u64| {
            for b in bits.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.makespan_s.to_bits());
        mix(self.goodput.to_bits());
        self.op_latency_s.iter().for_each(|v| mix(v.to_bits()));
        self.extras.iter().for_each(|(_, v)| mix(v.to_bits()));
        h
    }
}

/// What one pass hands back. The clock stops when `pass` returns;
/// `check` compares the outputs it captured with the oracles computed in
/// set-up, so verification never lands in `host_wall_s`.
pub struct PassOut<'a> {
    /// Host seconds of the consecutive parts the pass is cut into (the
    /// same cuts in every pass); they add up to the pass's wall time.
    pub laps: Vec<f64>,
    /// Virtual results.
    pub virt: Virt,
    /// Runtime counters over the pass.
    pub counters: Counters,
    /// Per-layer values that exist only under [`Observe::Traced`]
    /// (request breakdowns, critical-path shares).
    pub traced: Vec<(&'static str, f64)>,
    /// Deferred verification.
    pub check: Box<dyn FnOnce() -> Ops + 'a>,
}

/// One benchmark workload, set up: inputs generated from the seed,
/// oracles computed. `pass` may be called any number of times.
pub trait Workload {
    /// Final sizes, for the `env` block.
    fn sizes(&self) -> Json;

    /// Host seconds set-up spent computing every answer with the
    /// sequential oracles — the plain single-thread baseline of the same
    /// problem.
    fn seq_s(&self) -> f64;

    /// One timed pass under `pin`; `rec` gets a span per call into a
    /// layer.
    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_>;

    /// Corrupt one oracle entry, so that exactly the ops compared with
    /// it fail. Used to test that a wrong answer is counted, not hidden.
    fn inject_fault(&mut self);

    /// Per-layer measurements that belong to this workload but are too
    /// costly for a timed pass; run once per traced run.
    fn probe(&self, _rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Draw `n` distinct dataset indices below `limit` from the seed;
/// `stream` separates the draws of different programs.
pub fn seeded_indices(seed: u64, stream: u64, n: usize, limit: usize) -> Vec<usize> {
    assert!(n <= limit, "cannot draw {n} distinct indices below {limit}");
    let mut out = Vec::with_capacity(n);
    for i in 0u64.. {
        if out.len() == n {
            break;
        }
        let d = (fx_apps::util::unit_hash(seed, stream, i) * limit as f64) as usize;
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// Accumulates a pass: each run's report feeds the counters and the
/// virtual makespan, each captured output registers a deferred check.
pub struct PassBuilder<'a> {
    /// Virtual results so far.
    pub virt: Virt,
    /// Counters so far.
    pub counters: Counters,
    /// Traced-only per-layer values.
    pub traced: Vec<(&'static str, f64)>,
    /// Start of the pass, then the end of each of its parts so far.
    cuts: Vec<Instant>,
    attempted: u64,
    checks: Vec<Box<dyn FnOnce() -> usize + 'a>>,
}

impl<'a> PassBuilder<'a> {
    /// An empty pass, starting now.
    pub fn new() -> Self {
        PassBuilder {
            virt: Virt::default(),
            counters: Counters::default(),
            traced: Vec::new(),
            cuts: vec![Instant::now()],
            attempted: 0,
            checks: Vec::new(),
        }
    }

    /// Account one `spmd` run: counters, and its makespan into the
    /// pass's virtual seconds. A part of the pass ends here.
    pub fn add_run<R>(&mut self, rep: &RunReport<R>) {
        self.counters.add_report(rep);
        self.virt.makespan_s += rep.makespan();
        self.cut();
    }

    /// End a part of the pass now.
    pub fn cut(&mut self) {
        self.cuts.push(Instant::now());
    }

    /// End parts of the pass at host instants read inside the run that
    /// is about to be accounted (processor 0's clock readings at fixed
    /// points of its program), so that a pass made of one long `spmd` is
    /// still cut into parts.
    pub fn cut_at(&mut self, at: &[Instant]) {
        self.cuts.extend_from_slice(at);
    }

    /// Register `n_ops` outputs; `bad` runs after the clock has stopped
    /// and returns how many of them were wrong.
    pub fn verify(&mut self, n_ops: usize, bad: impl FnOnce() -> usize + 'a) {
        self.attempted += n_ops as u64;
        self.checks.push(Box::new(bad));
    }

    /// Close the pass. Unless the workload set a goodput of its own, it
    /// is the registered ops per virtual second.
    pub fn finish(mut self) -> PassOut<'a> {
        if self.virt.goodput == 0.0 && self.virt.makespan_s > 0.0 {
            self.virt.goodput = self.attempted as f64 / self.virt.makespan_s;
        }
        self.cut();
        let (attempted, checks) = (self.attempted, self.checks);
        PassOut {
            laps: self
                .cuts
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_secs_f64())
                .collect(),
            virt: self.virt,
            counters: self.counters,
            traced: self.traced,
            check: Box::new(move || {
                let failed: usize = checks.into_iter().map(|c| c()).sum();
                Ops {
                    attempted,
                    failed: (failed as u64).min(attempted),
                }
            }),
        }
    }
}

impl Default for PassBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}
