//! End-to-end serving tests: all four chain programs served under every
//! kind of placement with answers bit-identical to one-shot runs, overload
//! shedding, counter conservation and worker-count invariance.

use fx_apps::airshed::{airshed_dp, airshed_tp, AirshedConfig};
use fx_apps::ffthist::{reference_histogram, FftHistConfig};
use fx_apps::radar::{reference_detections, RadarConfig};
use fx_apps::stereo::{assemble_depth, stereo_stream, StereoConfig};
use fx_apps::stream::{Answer, Stream};
use fx_apps::util::{Placement, Segments};
use fx_core::{spmd, Machine, MachineModel};
use fx_runtime::Executor;
use fx_serve::{poisson_trace, ServeConfig, Server, ShedPolicy, StreamServable, TenantSpec};

fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
}

/// FFT-Hist at `cfg` served under `placement`.
fn fft_hist(cfg: FftHistConfig, placement: Placement) -> StreamServable {
    StreamServable { stream: Stream::FftHist(cfg), placement }
}

fn histogram(cfg: &FftHistConfig, d: usize) -> Answer {
    Answer::Histogram(reference_histogram(cfg, d))
}

/// The placements every stream program is served under on 6 processors:
/// data-parallel, a pipeline, replicated, the fused-segment mapping
/// `1x [s1:2 | s2+s3:4]` the search picks for Table 1's FFT-Hist 512², and
/// two modules of two leaving two processors spare.
fn six_placements() -> [Placement; 5] {
    let fused_tail = Segments { seg_of_stage: [0, 1, 1], procs: vec![2, 4], ..Segments::fused(6) };
    [
        Placement::data_parallel(6),
        Placement::pipeline([1, 4, 1]),
        Placement::replicated(2, Segments::fused(3)),
        Placement::replicated(1, fused_tail),
        Placement::replicated(2, Segments::fused(2)),
    ]
}

/// Serve `stream` under `placement` on `p` processors with an ample queue
/// and check each answer against `oneshot(dataset)`.
fn serve_matches(stream: Stream, p: usize, placement: Placement, oneshot: impl Fn(usize) -> Answer) {
    let trace = poisson_trace(&[TenantSpec::new("t", 40.0, 5)], 17);
    let label = format!("{:?} under {placement:?}", stream.stages());
    let rep = Server::new(paragon(p), StreamServable { stream, placement })
        .with_config(ServeConfig { queue_cap: 8, batch_max: 2, shed: ShedPolicy::DropNewest })
        .serve(&trace, &["t"]);
    assert!(rep.conserved(), "{label}");
    assert_eq!(rep.completed(), trace.len(), "{label}: ample queue sheds nothing");
    for c in &rep.completions {
        let want = oneshot(trace[c.req].dataset);
        match (&c.output, &want) {
            (Answer::Checksum(a), Answer::Checksum(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{label}"),
            _ => assert_eq!(c.output, want, "{label}: request {}", c.req),
        }
    }
}

#[test]
fn every_stream_program_serves_under_every_kind_of_placement() {
    let fcfg = FftHistConfig::new(16, 1);
    let rcfg = RadarConfig { ranges: 16, pulses: 8, datasets: 1, gain: 0.25, threshold: 0.6 };
    let scfg = StereoConfig { rows: 8, cols: 24, n_match: 2, max_disp: 3, window: 1, datasets: 1 };
    // Stereo's one-shot answer: the data-parallel run's tiles, assembled.
    let stereo_oneshot = |d: usize| {
        let rep = spmd(&paragon(4), |cx| stereo_stream(cx, &scfg, &[d]));
        let tiles: Vec<Vec<u16>> = rep.results.into_iter().map(|mut r| r.remove(0).1).collect();
        Answer::Depth(assemble_depth(&tiles, scfg.rows, scfg.cols))
    };
    for placement in six_placements() {
        serve_matches(Stream::FftHist(fcfg), 6, placement.clone(), |d| histogram(&fcfg, d));
        serve_matches(Stream::Radar(rcfg), 6, placement.clone(), |d| {
            Answer::Detections(reference_detections(&rcfg, d))
        });
        serve_matches(Stream::Stereo(scfg), 6, placement, stereo_oneshot);
    }
}

#[test]
fn airshed_serves_a_day_data_parallel_and_as_a_pipeline() {
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
    let dp = spmd(&paragon(4), |cx| airshed_dp(cx, &cfg)).results[0];
    let tp = spmd(&paragon(4), |cx| airshed_tp(cx, &cfg)).results[1];
    for (placement, oneshot) in [(Placement::data_parallel(4), dp), (Placement::pipeline([1, 2, 1]), tp)] {
        serve_matches(Stream::Airshed(cfg), 4, placement, |_| Answer::Checksum(oneshot));
    }
}

#[test]
fn served_outputs_are_bit_identical_to_reference_for_every_mapping() {
    let cfg = FftHistConfig::new(16, 1);
    let tenants = [TenantSpec::new("gold", 50.0, 6), TenantSpec::new("bronze", 20.0, 3)];
    let trace = poisson_trace(&tenants, 11);
    for placement in [
        Placement::data_parallel(6),
        Placement::pipeline([1, 4, 1]),
        Placement::replicated(2, Segments::fused(3)),
    ] {
        let server = Server::new(paragon(6), fft_hist(cfg, placement.clone()))
            .with_config(ServeConfig { queue_cap: 32, batch_max: 3, shed: ShedPolicy::DropNewest });
        let rep = server.serve(&trace, &["gold", "bronze"]);
        assert!(rep.telemetry.is_none(), "no registry attached: the run is unobserved");
        assert!(rep.conserved(), "counter conservation under {placement:?}");
        assert_eq!(rep.completed(), trace.len(), "ample queue sheds nothing");
        for c in &rep.completions {
            assert_eq!(
                c.output,
                histogram(&cfg, trace[c.req].dataset),
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
fn serving_is_bit_identical_across_worker_counts() {
    let cfg = FftHistConfig::new(16, 1);
    let trace = poisson_trace(&[TenantSpec::new("t", 80.0, 8)], 5);
    let serve_with = |exec: Executor| {
        let server = Server::new(
            paragon(6).with_executor(exec),
            fft_hist(cfg, Placement::pipeline([1, 4, 1])),
        )
        .with_config(ServeConfig { queue_cap: 8, batch_max: 2, shed: ShedPolicy::DropNewest });
        server.serve(&trace, &["t"])
    };
    let a = serve_with(Executor::Pooled { workers: 6 });
    let b = serve_with(Executor::Pooled { workers: 3 });
    assert_eq!(a.times, b.times, "virtual finish times must not depend on the worker count");
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.req, y.req);
        assert_eq!(x.output, y.output);
        assert_eq!(x.done.to_bits(), y.done.to_bits(), "completion vtimes bit-identical");
    }
    assert_eq!(a.tenants, b.tenants, "SLO accounting must match across worker counts");
}

#[test]
fn overload_sheds_and_conserves() {
    let cfg = FftHistConfig::new(16, 1);
    // 2000 req/s offered against a pipeline that takes milliseconds per
    // request: the queue must overflow.
    let trace = poisson_trace(&[TenantSpec::new("burst", 2000.0, 40)], 9);
    let server =
        Server::new(paragon(4), fft_hist(cfg, Placement::data_parallel(4)))
            .with_config(ServeConfig { queue_cap: 4, batch_max: 2, shed: ShedPolicy::DropNewest });
    let rep = server.serve(&trace, &["burst"]);
    let t = rep.tenant("burst").unwrap();
    assert_eq!(t.arrived, 40);
    assert!(t.shed > 0, "overload must shed (shed={})", t.shed);
    assert!(rep.conserved(), "arrived == completed + shed");
    assert_eq!(rep.completed() + rep.shed.len(), trace.len());
    // Every served answer is still exact under overload.
    for c in &rep.completions {
        assert_eq!(c.output, histogram(&cfg, trace[c.req].dataset));
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
        Server::new(paragon(4), fft_hist(cfg, Placement::data_parallel(4)))
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
            assert_eq!(c.output, histogram(&cfg, trace[c.req].dataset));
        }
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
            fft_hist(cfg, Placement::pipeline([1, 4, 1])),
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
        fft_hist(cfg, Placement::data_parallel(4)),
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
        fft_hist(cfg, Placement::data_parallel(4)),
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
        let cfg = TelemetryConfig { stall: false, exemplar_trace_capacity: CAP };
        std::sync::Arc::new(Telemetry::with_config(cfg))
    };
    let trace = poisson_trace(&[TenantSpec::new("burst", 4000.0, 800)], 5);
    let served = registry();
    let servable = fft_hist(FftHistConfig::new(16, 1), Placement::data_parallel(4));
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

fn repl4() -> Placement {
    Placement::replicated(4, Segments::fused(4))
}

fn serve64(
    placement: Placement,
    rate: f64,
    requests: usize,
    queue_cap: usize,
    tracing: bool,
) -> (Vec<fx_serve::ServeRequest>, fx_serve::ServeReport<Answer>) {
    let tenants =
        [TenantSpec::new("gold", rate * 0.75, requests * 3 / 4), TenantSpec::new("bronze", rate * 0.25, requests / 4)];
    let trace = poisson_trace(&tenants, 42);
    let label = format!("{placement:?}");
    let servable = fft_hist(FftHistConfig::new(64, 1), placement);
    let rep = Server::new(paragon(16).with_tracing(tracing), servable)
        .with_config(ServeConfig { queue_cap, batch_max: 4, shed: ShedPolicy::DropNewest })
        .serve(&trace, &["gold", "bronze"]);
    assert!(rep.conserved(), "{label} at {rate} req/s: arrived == completed + shed");
    (trace, rep)
}

/// Service rate: 60 arrivals far beyond capacity into a queue that sheds
/// none of them, completions over first arrival → last completion.
fn saturation_rps(placement: Placement) -> f64 {
    let (trace, rep) = serve64(placement, 1e6, 60, 61, false);
    assert_eq!(rep.completed(), 60, "the saturation probe sheds nothing");
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
    let dp_sat = saturation_rps(Placement::data_parallel(16));
    let (best, best_sat) = [Placement::pipeline([2, 12, 2]), repl4()]
        .map(|m| (m.clone(), saturation_rps(m)))
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let light_p50 = |m, sat: f64| serve64(m, 0.25 * sat, 120, 8, false).1.tenant("gold").unwrap().p50_ns;
    let dp_p50 = light_p50(Placement::data_parallel(16), dp_sat);
    let best_p50 = light_p50(best.clone(), best_sat);
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
    let offered = 0.9 * saturation_rps(Placement::data_parallel(16));
    let p99_of = |mapping| {
        let rep = serve64(mapping, offered, 120, 8, true).1;
        assert_eq!(rep.request_traces.len(), rep.completed(), "a decomposition per completion");
        let mut by_lat: Vec<_> = rep.request_traces.iter().collect();
        by_lat.sort_by(|a, b| a.latency().total_cmp(&b.latency()));
        let rank = (0.99 * by_lat.len() as f64).ceil() as usize;
        (by_lat[rank - 1].clone(), rep)
    };
    let ((dp99, dp), (rv99, _)) = (p99_of(Placement::data_parallel(16)), p99_of(repl4()));
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
