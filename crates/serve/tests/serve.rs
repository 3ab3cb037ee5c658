//! End-to-end serving tests: bit-identity to one-shot runs, overload
//! shedding, counter conservation, executor invariance, and real-time
//! serving across trace gaps longer than the receive timeout.

use std::time::Duration;

use fx_apps::airshed::AirshedConfig;
use fx_apps::ffthist::{reference_histogram, FftHistConfig, FftHistMapping};
use fx_apps::util::StreamMapping;
use fx_core::{spmd, Machine, MachineModel};
use fx_runtime::Executor;
use fx_serve::{
    poisson_trace, AirshedServable, FftHistServable, ServeConfig, Server, ShedPolicy, TenantSpec,
};

fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
}

#[test]
fn served_outputs_are_bit_identical_to_reference_for_every_mapping() {
    let cfg = FftHistConfig::new(16, 1);
    let tenants = [TenantSpec::new("gold", 50.0, 6), TenantSpec::new("bronze", 20.0, 3)];
    let trace = poisson_trace(&tenants, 11);
    for mapping in [
        FftHistMapping::DataParallel,
        FftHistMapping::Pipeline([1, 4, 1]),
        FftHistMapping::Replicated { replicas: 2, pipeline: None },
    ] {
        let server = Server::new(paragon(6), FftHistServable { cfg, mapping })
            .with_config(ServeConfig { queue_cap: 32, batch_max: 3, shed: ShedPolicy::DropNewest });
        let rep = server.serve(&trace, &["gold", "bronze"]);
        assert!(rep.telemetry.is_none(), "no registry attached: the run is unobserved");
        assert!(rep.conserved(), "counter conservation under {mapping:?}");
        assert_eq!(rep.completed(), trace.len(), "ample queue sheds nothing");
        for c in &rep.completions {
            assert_eq!(
                c.output,
                reference_histogram(&cfg, trace[c.req].dataset),
                "request {} output must be bit-identical to the one-shot reference",
                c.req
            );
            assert!(c.done >= trace[c.req].arrival, "completion after arrival");
        }
        let gold = rep.tenant("gold").unwrap();
        assert_eq!(gold.arrived, 6);
        assert!(gold.p50_ns > 0 && gold.p99_ns >= gold.p50_ns && gold.p999_ns >= gold.p99_ns);
    }
}

#[test]
fn serving_is_bit_identical_across_executors() {
    let cfg = FftHistConfig::new(16, 1);
    let trace = poisson_trace(&[TenantSpec::new("t", 80.0, 8)], 5);
    let serve_with = |exec: Executor| {
        let server = Server::new(
            paragon(6).with_executor(exec),
            FftHistServable { cfg, mapping: FftHistMapping::Pipeline([1, 4, 1]) },
        )
        .with_config(ServeConfig { queue_cap: 8, batch_max: 2, shed: ShedPolicy::DropNewest });
        server.serve(&trace, &["t"])
    };
    let a = serve_with(Executor::Threaded);
    let b = serve_with(Executor::Pooled { workers: 3 });
    assert_eq!(a.times, b.times, "virtual finish times must not depend on the executor");
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.req, y.req);
        assert_eq!(x.output, y.output);
        assert_eq!(x.done.to_bits(), y.done.to_bits(), "completion vtimes bit-identical");
    }
    assert_eq!(a.tenants, b.tenants, "SLO accounting must match across executors");
}

#[test]
fn overload_sheds_and_conserves() {
    let cfg = FftHistConfig::new(16, 1);
    // 2000 req/s offered against a pipeline that takes milliseconds per
    // request: the queue must overflow.
    let trace = poisson_trace(&[TenantSpec::new("burst", 2000.0, 40)], 9);
    let server =
        Server::new(paragon(4), FftHistServable { cfg, mapping: FftHistMapping::DataParallel })
            .with_config(ServeConfig { queue_cap: 4, batch_max: 2, shed: ShedPolicy::DropNewest });
    let rep = server.serve(&trace, &["burst"]);
    let t = rep.tenant("burst").unwrap();
    assert_eq!(t.arrived, 40);
    assert!(t.shed > 0, "overload must shed (shed={})", t.shed);
    assert!(rep.conserved(), "arrived == completed + shed");
    assert_eq!(rep.completed() + rep.shed.len(), trace.len());
    // Every served answer is still exact under overload.
    for c in &rep.completions {
        assert_eq!(c.output, reference_histogram(&cfg, trace[c.req].dataset));
    }
    // Tail drop: shed requests arrived while the queue was full, so the
    // first queue_cap + batch_max arrivals are never shed.
    let earliest_shed = rep.shed.iter().copied().min().unwrap();
    assert!(earliest_shed >= 4, "tail drop sheds late arrivals, not early ones");
}

#[test]
fn drop_oldest_sheds_earlier_requests_than_drop_newest() {
    let cfg = FftHistConfig::new(16, 1);
    let trace = poisson_trace(&[TenantSpec::new("burst", 2000.0, 40)], 9);
    let run = |shed| {
        Server::new(paragon(4), FftHistServable { cfg, mapping: FftHistMapping::DataParallel })
            .with_config(ServeConfig { queue_cap: 4, batch_max: 2, shed })
            .serve(&trace, &["burst"])
    };
    let newest = run(ShedPolicy::DropNewest);
    let oldest = run(ShedPolicy::DropOldest);
    assert!(newest.conserved() && oldest.conserved());
    assert!(!newest.shed.is_empty() && !oldest.shed.is_empty());
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
    assert!(
        mean(&oldest.shed) < mean(&newest.shed),
        "drop-oldest victims should be older on average: {:?} vs {:?}",
        oldest.shed,
        newest.shed
    );
    // Shed choice redistributes which requests get served, never what
    // any served request answers.
    for rep in [&newest, &oldest] {
        for c in &rep.completions {
            assert_eq!(c.output, reference_histogram(&cfg, trace[c.req].dataset));
        }
    }
}

#[test]
fn airshed_service_answers_match_oneshot() {
    let cfg = AirshedConfig {
        gridpoints: 24,
        layers: 2,
        species: 3,
        hours: 2,
        nsteps: 2,
        input_seconds: 0.05,
        output_seconds: 0.05,
        chem_flops_per_cell: 400.0,
        trans_flops_per_cell: 60.0,
    };
    // The compute stage's first member holds the one-shot checksum.
    let oneshot_dp = spmd(&paragon(4), |cx| fx_apps::airshed::airshed_dp(cx, &cfg)).results[0];
    let oneshot_tp = spmd(&paragon(4), |cx| fx_apps::airshed::airshed_tp(cx, &cfg)).results[1];
    let trace = poisson_trace(&[TenantSpec::new("ops", 5.0, 3)], 21);
    let mappings = [StreamMapping::DataParallel, StreamMapping::Pipeline([1, 2, 1])];
    for (mapping, oneshot) in mappings.into_iter().zip([oneshot_dp, oneshot_tp]) {
        let server = Server::new(paragon(4), AirshedServable { cfg, mapping })
            .with_config(ServeConfig::default());
        let rep = server.serve(&trace, &["ops"]);
        assert_eq!(rep.completed(), 3);
        for c in &rep.completions {
            assert_eq!(
                c.output.to_bits(),
                oneshot.to_bits(),
                "{mapping:?}: served checksum must be bit-identical to the one-shot run"
            );
        }
        assert!(rep.conserved());
    }
}

#[test]
fn real_time_serving_survives_trace_gaps_longer_than_recv_timeout() {
    // A quiet serving loop is not a deadlock: the trace has gaps of 400 ms
    // and 300 ms against a 100 ms receive timeout, whose stall window is
    // half that. Nothing declares anyone idle — every processor waits out
    // a gap in its own sliced sleep, none parked in a receive, not even on
    // one pooled worker — so the watchdog tick neither expires nor reports
    // a park, the run completes and answers stay exact.
    const TIMEOUT: Duration = Duration::from_millis(100);
    let cfg = FftHistConfig::new(8, 1);
    let trace = {
        let mut t = poisson_trace(&[TenantSpec::new("live", 1000.0, 6)], 3);
        for (i, r) in t.iter_mut().enumerate() {
            r.arrival += [0.0, 0.4, 0.7][i / 2];
        }
        t
    };
    for exec in [Executor::Threaded, Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }] {
        let tele = std::sync::Arc::new(fx_runtime::Telemetry::new());
        let machine = Machine::real(4).with_executor(exec).with_timeout(TIMEOUT).with_telemetry(tele.clone());
        let server = Server::new(machine, FftHistServable { cfg, mapping: FftHistMapping::Pipeline([1, 2, 1]) })
            .with_config(ServeConfig { queue_cap: 8, batch_max: 2, shed: ShedPolicy::DropNewest });
        let rep = server.serve(&trace, &["live"]);
        assert_eq!(rep.completed(), 6, "{exec:?}: every request served across the gaps");
        assert!(rep.conserved());
        for c in &rep.completions {
            assert_eq!(c.output, reference_histogram(&cfg, trace[c.req].dataset));
            assert!(c.done >= trace[c.req].arrival - 1e-3, "wall-clock completion after arrival");
        }
        let t = rep.tenant("live").unwrap();
        assert!(t.p50_ns > 0, "real-mode latencies recorded");
        assert_eq!(tele.stall_reports().len(), 0, "{exec:?}: {:?}", tele.stall_reports());
    }
}

#[test]
fn traced_serve_decomposes_latency_exactly_and_is_vtime_free() {
    let cfg = FftHistConfig::new(16, 1);
    let tenants = [TenantSpec::new("gold", 50.0, 6), TenantSpec::new("bronze", 20.0, 3)];
    let trace = poisson_trace(&tenants, 11);
    let run = |tracing: bool| {
        Server::new(
            paragon(6).with_tracing(tracing),
            FftHistServable { cfg, mapping: FftHistMapping::Pipeline([1, 4, 1]) },
        )
        .with_config(ServeConfig { queue_cap: 32, batch_max: 3, shed: ShedPolicy::DropNewest })
        .serve(&trace, &["gold", "bronze"])
    };
    let traced = run(true);
    let plain = run(false);

    // Tracing must be free on the virtual clock: finish and completion
    // times bit-identical with tracing on and off.
    assert_eq!(traced.times, plain.times, "tracing must not move the virtual clock");
    assert_eq!(traced.completions.len(), plain.completions.len());
    for (x, y) in traced.completions.iter().zip(&plain.completions) {
        assert_eq!(x.req, y.req);
        assert_eq!(x.done.to_bits(), y.done.to_bits(), "completion vtimes bit-identical");
    }
    assert!(plain.request_traces.is_empty(), "untraced runs carry no request traces");

    // One decomposition per completion, each summing exactly to its
    // end-to-end latency (closed accounting: nothing unattributed).
    assert_eq!(traced.request_traces.len(), traced.completions.len());
    for t in &traced.request_traces {
        assert!(t.trace_id != 0 && t.queue_wait() >= 0.0 && t.done >= t.dispatch);
        let sum: f64 = t.components().iter().map(|(_, v)| *v).sum();
        assert!(
            (sum - t.latency()).abs() <= 1e-9 * t.latency().max(1e-9),
            "components must sum to latency for request {}: {} vs {}",
            t.req,
            sum,
            t.latency()
        );
        for (name, v) in t.components() {
            assert!(v >= 0.0, "negative {name} component on request {}", t.req);
        }
    }

    // The aggregate view: 7 components + latency, component means
    // summing to the latency mean.
    let rows = traced.request_breakdown();
    assert_eq!(rows.len(), 8);
    let comp_mean: f64 = rows[..7].iter().map(|r| r.mean).sum();
    assert!((comp_mean - rows[7].mean).abs() <= 1e-9 * rows[7].mean.max(1e-9));
    assert!(plain.request_breakdown().is_empty());

    // Per-request Chrome export: spans of this request plus send→recv
    // flow arrows ("s"/"f" phase events).
    let some_req = traced.request_traces[0].req;
    let json = traced.request_trace_json(some_req).expect("traced request exports JSON");
    assert!(json.contains("\"ph\":\"X\""), "per-request trace has span events");
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "pipeline request trace must carry flow events: {json}"
    );
    assert!(plain.request_trace_json(some_req).is_none());
}

#[test]
fn traced_serve_feeds_exemplars_and_trace_endpoints() {
    let cfg = FftHistConfig::new(16, 1);
    let trace = poisson_trace(&[TenantSpec::new("gold", 60.0, 5)], 7);
    let tele = std::sync::Arc::new(fx_runtime::Telemetry::new());
    let server = Server::new(
        paragon(4).with_telemetry(tele.clone()).with_tracing(true),
        FftHistServable { cfg, mapping: FftHistMapping::DataParallel },
    );
    let rep = server.serve(&trace, &["gold"]);
    assert_eq!(rep.completed(), 5);

    // Latency buckets carry the trace id of their most recent sample.
    let om = tele.render_openmetrics();
    assert!(
        om.contains("# {trace_id=\""),
        "traced serve must attach OpenMetrics exemplars:\n{om}"
    );

    // The slowest-request ring retains renderable per-request traces,
    // slowest first, and each is the same JSON the report exports.
    let ring = tele.exemplar_traces();
    assert!(!ring.is_empty(), "traced serve must retain exemplar traces");
    for w in ring.windows(2) {
        assert!(w[0].latency_ns >= w[1].latency_ns, "ring is sorted slowest-first");
    }
    let slowest = &ring[0];
    let by_report: Option<&fx_serve::RequestTrace> =
        rep.request_traces.iter().find(|t| t.trace_id == slowest.trace_id);
    let t = by_report.expect("ring entries correspond to reported requests");
    assert_eq!(slowest.latency_ns, (t.latency().max(0.0) * 1e9).round() as u64);
    assert!(slowest.json.contains("\"ph\":\"X\""));
    assert_eq!(tele.exemplar_trace(slowest.trace_id).map(|e| e.json), Some(slowest.json.clone()));
}

#[test]
fn exporters_render_per_tenant_serve_metrics() {
    let cfg = FftHistConfig::new(16, 1);
    let trace =
        poisson_trace(&[TenantSpec::new("gold", 60.0, 4), TenantSpec::new("free", 20.0, 2)], 13);
    let tele = std::sync::Arc::new(fx_runtime::Telemetry::new());
    let server = Server::new(
        paragon(4).with_telemetry(tele.clone()),
        FftHistServable { cfg, mapping: FftHistMapping::DataParallel },
    );
    let rep = server.serve(&trace, &["gold", "free"]);
    assert!(rep.telemetry.is_some(), "serve always snapshots telemetry");
    let om = tele.render_openmetrics();
    for needle in [
        "fx_serve_requests_total{tenant=\"gold\",outcome=\"arrived\"} 4",
        "fx_serve_requests_total{tenant=\"free\",outcome=\"completed\"} 2",
        "fx_serve_latency_ns",
        "# EOF",
    ] {
        assert!(om.contains(needle), "OpenMetrics output missing {needle:?}:\n{om}");
    }
    let json = tele.render_json();
    assert!(json.contains("\"tenants\":["), "JSON exporter lists tenants: {json}");
    assert!(json.contains("\"latency_p99_ns\""), "JSON exporter carries SLO quantiles");
}

/// An 800-request traced overload run (latency rising with arrival):
/// retention renders once per ring slot, not once per request, and keeps
/// the slowest requests.
#[test]
fn overload_renders_only_the_retained_exemplars() {
    use fx_runtime::{Telemetry, TelemetryConfig};
    const CAP: usize = 8;
    let registry = || {
        let cfg = TelemetryConfig { stall: false, exemplar_trace_capacity: CAP, ..TelemetryConfig::default() };
        std::sync::Arc::new(Telemetry::with_config(cfg))
    };
    let trace = poisson_trace(&[TenantSpec::new("burst", 4000.0, 800)], 5);
    let served = registry();
    let servable = FftHistServable { cfg: FftHistConfig::new(16, 1), mapping: FftHistMapping::DataParallel };
    let rep = Server::new(paragon(4).with_tracing(true).with_telemetry(served.clone()), servable)
        .with_config(ServeConfig { queue_cap: 1024, batch_max: 2, shed: ShedPolicy::DropNewest })
        .serve(&trace, &["burst"]);
    assert_eq!(rep.request_traces.len(), 800);
    assert!(
        rep.request_traces[799].latency() > 10.0 * rep.request_traces[0].latency(),
        "overload: the queue grows for the whole trace"
    );

    let lat_ns = |t: &fx_serve::RequestTrace| (t.latency().max(0.0) * 1e9).round() as u64;
    let ids = |t: &Telemetry| t.exemplar_traces().iter().map(|e| e.trace_id).collect::<Vec<_>>();
    let (renders, batch) = (std::cell::Cell::new(0usize), registry());
    batch.publish_serving(Vec::new(), rep.request_traces.iter().map(|t| (t.trace_id, lat_ns(t))), |id| {
        renders.set(renders.get() + 1);
        id.to_string()
    });
    assert_eq!(renders.get(), CAP);
    let mut slowest: Vec<&fx_serve::RequestTrace> = rep.request_traces.iter().collect();
    slowest.sort_by_key(|t| std::cmp::Reverse(lat_ns(t)));
    assert_eq!(ids(&batch), slowest[..CAP].iter().map(|t| t.trace_id).collect::<Vec<_>>());
    assert_eq!(ids(&served), ids(&batch), "and the run itself retained them");
}

// ---------------------------------------------------------------------------
// Table 1 under queueing: FFT-Hist 64² served open-loop on 16 Paragon
// nodes, gold:bronze 3:1 from seed 42, batches of 4 — virtual time only.
// ---------------------------------------------------------------------------

const REPL4: FftHistMapping = FftHistMapping::Replicated { replicas: 4, pipeline: None };

fn serve64(
    mapping: FftHistMapping,
    rate: f64,
    requests: usize,
    queue_cap: usize,
    tracing: bool,
) -> (Vec<fx_serve::ServeRequest>, fx_serve::ServeReport<Vec<u64>>) {
    let tenants =
        [TenantSpec::new("gold", rate * 0.75, requests * 3 / 4), TenantSpec::new("bronze", rate * 0.25, requests / 4)];
    let trace = poisson_trace(&tenants, 42);
    let servable = FftHistServable { cfg: FftHistConfig::new(64, 1), mapping };
    let rep = Server::new(paragon(16).with_tracing(tracing), servable)
        .with_config(ServeConfig { queue_cap, batch_max: 4, shed: ShedPolicy::DropNewest })
        .serve(&trace, &["gold", "bronze"]);
    assert!(rep.conserved(), "{mapping:?} at {rate} req/s: arrived == completed + shed");
    (trace, rep)
}

/// Service rate: 60 arrivals far beyond capacity into a queue that sheds
/// none of them, completions over first arrival → last completion.
fn saturation_rps(mapping: FftHistMapping) -> f64 {
    let (trace, rep) = serve64(mapping, 1e6, 60, 61, false);
    assert_eq!(rep.completed(), 60, "{mapping:?}: the saturation probe sheds nothing");
    let last = rep.completions.iter().map(|c| c.done).fold(0.0f64, f64::max);
    60.0 / (last - trace[0].arrival)
}

/// The paper's trade-off with an admission queue in front: the best
/// task+data mapping saturates at a higher request rate than pure data
/// parallelism (198.2 vs 55.3 req/s), and data parallelism answers the
/// lightest load — a quarter of each mapping's own saturation rate, queue
/// of 8 — no slower (gold p50 14.1 vs 19.9 ms).
#[test]
fn table1_ordering_survives_queueing() {
    let dp_sat = saturation_rps(FftHistMapping::DataParallel);
    let (best, best_sat) = [FftHistMapping::Pipeline([2, 12, 2]), REPL4]
        .map(|m| (m, saturation_rps(m)))
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let light_p50 = |m, sat: f64| serve64(m, 0.25 * sat, 120, 8, false).1.tenant("gold").unwrap().p50_ns;
    let (dp_p50, best_p50) = (light_p50(FftHistMapping::DataParallel, dp_sat), light_p50(best, best_sat));
    eprintln!("{best:?} saturates at {best_sat:.1} req/s, dp at {dp_sat:.1}; lightest-load p50 {best_p50} vs {dp_p50} ns");
    assert!(best_sat > dp_sat, "the best task+data mapping must saturate above dp");
    assert!(dp_p50 <= best_p50, "dp must answer the lightest load no slower");
}

/// The identical 120 arrivals at 90 % of dp's saturation rate through dp
/// (at its knee) and 4× replication (with headroom), traced: dp has the
/// worse p99, and the componentwise difference of the two p99-rank
/// requests accounts for the gap (109.2 ms, 100 % attributed; ≥ 90 % held).
#[test]
fn dp_knee_p99_gap_lands_on_named_components() {
    let offered = 0.9 * saturation_rps(FftHistMapping::DataParallel);
    let p99_of = |mapping| {
        let rep = serve64(mapping, offered, 120, 8, true).1;
        assert_eq!(rep.request_traces.len(), rep.completed(), "a decomposition per completion");
        let mut by_lat: Vec<_> = rep.request_traces.iter().collect();
        by_lat.sort_by(|a, b| a.latency().total_cmp(&b.latency()));
        let rank = (0.99 * by_lat.len() as f64).ceil() as usize;
        (by_lat[rank - 1].clone(), rep)
    };
    let ((dp99, dp), (rv99, _)) = (p99_of(FftHistMapping::DataParallel), p99_of(REPL4));
    let gap = dp99.latency() - rv99.latency();
    let attributed: f64 =
        dp99.components().iter().zip(rv99.components()).map(|((_, a), (_, b))| a - b).sum();
    eprintln!("p99 gap dp - repl-4x at {offered:.1} req/s: {:.1} ms, {:.1} % attributed", gap * 1e3, 100.0 * attributed / gap);
    assert!(gap > 0.0, "dp at its knee must have the worse p99");
    assert!(attributed / gap >= 0.90, "at least 90 % of the gap must land on the components");

    // The slowest dp request's Chrome trace: every send→recv flow arrow
    // that starts also finishes.
    let slowest = dp.request_traces.iter().max_by(|a, b| a.latency().total_cmp(&b.latency())).unwrap();
    let json = dp.request_trace_json(slowest.req).expect("traced run exports per-request JSON");
    let ids = |marker: &str| {
        let mut v: Vec<&str> = json.split(marker).skip(1).map(|rest| rest.split(',').next().unwrap()).collect();
        v.sort_unstable();
        v
    };
    let starts = ids("\"ph\":\"s\",\"id\":");
    assert!(!starts.is_empty() && starts == ids("\"ph\":\"f\",\"bp\":\"e\",\"id\":"), "unmatched flow arrows");
}
