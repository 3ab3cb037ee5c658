//! The traced run: one workload, in one child process, with the
//! benchmark's span recorder on. It produces every per-layer metric and a Chrome
//! trace; end-to-end metrics never come from here.
//!
//! Sequence: set-up and warm-up; a few plain passes (their spans give
//! the per-layer and per-program self times, their reports the runtime
//! counters); one pass each with telemetry, with two workers and fully
//! traced (`with_profiling` + `with_tracing` + telemetry) for the
//! overhead and speed-up ratios; the workload's own probe; the generic
//! probes.

use std::collections::BTreeMap;
use std::time::Instant;

use fx_runtime::Executor;

use crate::json::Json;
use crate::measure::Plan;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::spans::Recorder;
use crate::stats;
use crate::sys;
use crate::workload::{Counters, Observe, Ops, PassOut, Pin, Virt, Workload};
use crate::workloads;

/// Plain passes before the observed ones.
const PLAIN_PASSES: usize = 3;

/// One timed, checked pass.
struct Timed {
    wall_s: f64,
    virt: Virt,
    counters: Counters,
    traced: Vec<(&'static str, f64)>,
    /// The spans the pass opened.
    spans: std::ops::Range<usize>,
    ops: Ops,
}

/// Run one pass under `pin` inside a span named `label`, and check its
/// outputs after the clock has stopped.
fn timed_pass(w: &dyn Workload, pin: Pin, label: &str, rec: &mut Recorder) -> Timed {
    let from = rec.mark();
    let t = Instant::now();
    let PassOut {
        virt,
        counters,
        traced,
        check,
        ..
    } = rec.span("bench", label, |rec| w.pass(&pin, rec));
    let wall_s = t.elapsed().as_secs_f64();
    let spans = from..rec.mark();
    let ops = rec.span("bench", "oracle check", |_| check());
    Timed {
        wall_s,
        virt,
        counters,
        traced,
        spans,
        ops,
    }
}

/// Body of the traced run's child process: returns the workload's entry
/// of a `trace` document and writes the Chrome trace under `out/`.
pub fn per_layer(plan: &Plan) -> Result<Json, String> {
    let mut rec = Recorder::on();
    let w = rec
        .span("bench", "set-up", |_| {
            workloads::setup(&plan.workload, plan.seed, plan.size)
        })
        .ok_or_else(|| format!("unknown workload '{}'", plan.workload))?;
    let w = w.as_ref();
    let warm = timed_pass(w, Pin::E2E, "warm-up pass", &mut rec);
    let rss_warm = sys::peak_rss_mib();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut ops = warm.ops;
    let mut identical = true;
    // Every later pass must reproduce the warm-up's virtual results.
    let mut account = |t: &Timed| {
        ops += t.ops;
        identical &= t.virt.fingerprint() == warm.virt.fingerprint();
    };

    let plain: Vec<Timed> = (0..PLAIN_PASSES)
        .map(|_| timed_pass(w, Pin::E2E, "pass", &mut rec))
        .collect();
    plain.iter().for_each(&mut account);
    let rss_end = sys::peak_rss_mib();
    let walls: Vec<f64> = plain.iter().map(|t| t.wall_s).collect();
    let wall = stats::median(&walls);
    let Timed {
        counters: c, spans, ..
    } = plain.into_iter().next_back().expect("PLAIN_PASSES >= 1");

    // Self times of that last plain pass: per layer they sum to its wall
    // time, per program (span names are program names in `paper_apps`)
    // to the time inside `spmd`.
    for (layer, s) in rec.self_by_layer(spans.clone()) {
        if let Some(def) = PER_LAYER
            .iter()
            .find(|d| d.0.strip_prefix("trace.self_s.") == Some(layer.as_str()))
        {
            m.insert(def.0, s);
        }
    }
    for (name, s) in rec.self_by_name(spans) {
        if let Some(def) = PER_LAYER.iter().find(|d| {
            d.0.strip_prefix("apps.").and_then(|r| r.strip_suffix("_s")) == Some(name.as_str())
        }) {
            m.insert(def.0, s);
        }
    }

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    m.insert("runtime.msgs", c.msgs as f64);
    m.insert("runtime.bytes", c.bytes as f64);
    m.insert("runtime.chunk_msgs", c.chunk_msgs as f64);
    m.insert(
        "runtime.pool_hit_ratio",
        ratio(c.pool_hits, c.pool_hits + c.pool_misses),
    );
    m.insert("runtime.send_ns", c.send_ns as f64);
    m.insert("runtime.recv_wait_ns", c.recv_wait_ns as f64);
    m.insert(
        "runtime.host_ns_per_msg",
        if c.msgs == 0 {
            0.0
        } else {
            wall * 1e9 / c.msgs as f64
        },
    );
    m.insert(
        "process.host_us_per_op",
        wall * 1e6 / warm.ops.attempted.max(1) as f64,
    );
    m.insert("core.promotions_taken", c.promotions_taken as f64);
    m.insert("core.promotions_declined", c.promotions_declined as f64);
    m.insert("darray.pack_gbps", ratio(c.chunk_bytes, c.pack_ns));
    m.insert(
        "darray.plan_hit_ratio",
        ratio(c.plan_hits, c.plan_hits + c.plan_misses),
    );
    m.insert("darray.plan_misses", c.plan_misses as f64);
    m.insert("darray.barriers_elided", c.barriers_elided as f64);
    m.insert("darray.barriers_kept", c.barriers_kept as f64);
    m.insert("kernels.seq_s", w.seq_s());
    m.insert(
        "runtime.sim_overhead_x",
        if w.seq_s() > 0.0 {
            wall / w.seq_s()
        } else {
            0.0
        },
    );
    m.extend(warm.virt.extras.iter().copied());

    // One pass per observation level, each compared with the plain
    // median: single samples, so read these ratios as indications.
    let t = timed_pass(
        w,
        Pin::E2E.observing(Observe::Telemetry),
        "pass (telemetry)",
        &mut rec,
    );
    account(&t);
    m.insert("runtime.telemetry_overhead_frac", t.wall_s / wall - 1.0);
    let t = timed_pass(
        w,
        Pin::E2E.on(Executor::Pooled { workers: 2 }),
        "pass (2 workers)",
        &mut rec,
    );
    account(&t);
    m.insert("runtime.speedup_2w", wall / t.wall_s);
    let t = timed_pass(
        w,
        Pin::E2E.observing(Observe::Traced),
        "pass (traced)",
        &mut rec,
    );
    account(&t);
    m.insert("runtime.trace_overhead_frac", t.wall_s / wall - 1.0);
    m.extend(t.traced);

    m.extend(rec.span("bench", "workload probe", |rec| w.probe(rec)));
    m.extend(rec.span("bench", "layer probes", |rec| {
        probes::run_all(plan.size, rec)
    }));

    m.insert("process.cpu_s", sys::cpu_seconds());
    m.insert("process.host_wall_median_s", wall);
    m.insert("process.host_wall_iqr_frac", stats::iqr_frac(&walls));
    m.insert("process.rss_growth_mib", rss_end - rss_warm);

    if !identical {
        eprintln!(
            "[benchmark] {}: virtual results differ between observation levels or executors",
            plan.workload
        );
    }
    let trace_path = sys::out_dir().join(format!("trace-{}-seed{}.json", plan.workload, plan.seed));
    sys::write_file(&trace_path, &rec.chrome_trace(&plan.workload).render())?;

    let mut metrics = Json::obj();
    for (name, unit, _) in PER_LAYER {
        let value = m.remove(name).unwrap_or(0.0);
        metrics = metrics.set(name, Json::obj().set("value", value).set("unit", unit));
    }
    debug_assert!(
        m.is_empty(),
        "per-layer values without a PER_LAYER entry: {m:?}"
    );
    Ok(Json::obj()
        .set("correct", identical && ops.failed == 0)
        .set("virt_identical", identical)
        .set("ops_attempted", ops.attempted)
        .set("ops_failed", ops.failed)
        .set("metrics", metrics)
        .set("chrome_trace", trace_path.display().to_string())
        .set("spans", rec.spans().len())
        .set("sizes", w.sizes()))
}
