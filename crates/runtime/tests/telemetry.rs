//! Integration tests for the live telemetry layer: the in-flight gauge and
//! region-path counts, flight-recorder retention, exporter formats (every
//! declared counter, exactly once), and the zero-cost-when-off guarantees.

use std::sync::Arc;
use std::time::Duration;

use fx_runtime::{run, EventKind, Machine, MachineModel, ProcCtx, ProcTotals, Telemetry, TelemetryConfig, TenantTotals};

fn telemetry_machine(p: usize, t: &Arc<Telemetry>) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
        .with_timeout(Duration::from_secs(30))
        .with_telemetry(Arc::clone(t))
}

/// A workload exercising both payload paths (boxed and chunk), the
/// buffer pool, and region scopes: each non-zero rank sends rank 0 one
/// boxed message and one chunk per round.
fn mixed_workload(cx: &mut ProcCtx, rounds: usize, elems: usize) {
    let p = cx.nprocs();
    cx.push_scope("mixed");
    for r in 0..rounds {
        if cx.rank() == 0 {
            for src in 1..p {
                let v: u64 = cx.recv(src, 1);
                assert_eq!(v, (src * 1000 + r) as u64);
                let mut buf = vec![0.0f64; elems];
                cx.recv_chunk_into(src, 2, &mut buf);
                assert_eq!(buf[0], src as f64);
            }
        } else {
            cx.send(0, 1, (cx.rank() * 1000 + r) as u64);
            let mut c = cx.chunk_for::<f64>(elems);
            c.push_slice(&vec![cx.rank() as f64; elems]);
            cx.send_chunk(0, 2, c);
        }
    }
    cx.pop_scope();
}

/// What only the registry knows about a finished run: the in-flight
/// gauge, read from the mailboxes, is back at zero, region entries are
/// counted under their path, and the snapshot's rows are the report's.
#[test]
fn gauge_drains_and_region_paths_are_counted() {
    let telemetry = Arc::new(Telemetry::new());
    let rep = run(&telemetry_machine(4, &telemetry), |cx| mixed_workload(cx, 8, 256));

    let snap = rep.telemetry.as_ref().expect("telemetry snapshot in report");
    assert_eq!(snap.per_proc, rep.counters);
    let total = snap.total();
    assert_eq!(total, rep.total(), "per-proc rows merge to the same place either way");
    assert_eq!((total.recvs, total.recv_bytes), (total.sends, total.send_bytes), "every message was received");
    assert_eq!(total.chunk_msgs * 2, total.sends, "one chunk per boxed message");

    // All chunks were received: no mailbox holds one.
    assert_eq!(snap.chunk_bytes_in_flight, 0);
    assert_eq!(snap.queue_depth, [0; 4]);

    // Region scopes were counted under their path label.
    assert_eq!(total.region_enters, 4);
    assert!(
        snap.regions.iter().any(|(path, n)| path.ends_with("mixed") && *n == 4),
        "got regions {:?}",
        snap.regions
    );
}

/// The flight ring is bounded: pushed well past its 256 slots it retains
/// exactly the newest events, in order.
#[test]
fn flight_ring_wraps_keeping_newest() {
    const RING: usize = 256;
    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }));
    let rounds = 300usize;
    let rep = run(&telemetry_machine(2, &telemetry), move |cx| {
        if cx.rank() == 0 {
            for r in 0..rounds {
                cx.send(1, r as u64, r as u64);
            }
        } else {
            for r in 0..rounds {
                let _: u64 = cx.recv(0, r as u64);
            }
        }
    });

    // Rank 0 pushed 300 send events into a ring of 256: the newest 256 remain.
    let tail = telemetry.flight_events(0);
    assert_eq!(tail.events().len(), RING);
    for (k, ev) in tail.events().iter().enumerate() {
        assert_eq!(ev.kind, EventKind::Send, "only sends on rank 0");
        assert_eq!(ev.peer, 1);
        assert_eq!(ev.tag, (rounds - RING + k) as u64, "newest events, oldest first");
        assert_eq!(ev.bytes, 8);
    }
    assert_eq!(rep.counters[0].sends, rounds as u64);

    // The human dump mentions the ring bound, and the recorded total
    // still counts everything that went through.
    let dump = telemetry.flight_dump();
    assert!(dump.contains("processor 0: 256 retained of 300 recorded"), "got:\n{dump}");
}

/// Without a telemetry handle the report carries no snapshot.
#[test]
fn no_telemetry_means_no_snapshot() {
    let rep = run(&Machine::simulated(2, MachineModel::paragon()), |cx| {
        if cx.rank() == 0 {
            cx.send(1, 1, 1u8);
        } else {
            let _: u8 = cx.recv(0, 1);
        }
    });
    assert!(rep.telemetry.is_none());
}

/// The tail is a suffix of the log: the ring and the log are fed the same
/// records by the same `emit`, so each processor's ring, restricted to
/// the kinds a profiled log also keeps, equals the last such events of its
/// log field for field. Every processor emits more than the ring's 256
/// events, so every ring has wrapped.
#[test]
fn flight_tail_is_a_suffix_of_the_log() {
    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }));
    let machine =
        Machine::simulated(4, MachineModel::paragon()).with_profiling(true).with_telemetry(Arc::clone(&telemetry));
    let rep = run(&machine, |cx| mixed_workload(cx, 160, 16));
    let msgs = |events: &[fx_runtime::Event]| -> Vec<fx_runtime::Event> {
        events.iter().copied().filter(|e| matches!(e.kind, EventKind::Send | EventKind::Recv)).collect()
    };
    for p in 0..4 {
        let (tail, log) = (msgs(telemetry.flight_events(p).events()), msgs(rep.logs[p].events()));
        assert!(tail.len() >= 250 && log.len() > tail.len(), "proc {p}: {} of {}", tail.len(), log.len());
        assert_eq!(tail, log[log.len() - tail.len()..], "proc {p}");
    }
}

/// The handle keeps the run's counter blocks and label tables alive: after
/// a run that panicked — no report — it still reads what was counted, and
/// the victim's flight tail still names the scope it died in.
#[test]
fn handle_reads_final_counters_after_a_panicked_run() {
    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }));
    let died = std::panic::catch_unwind(|| {
        run(&telemetry_machine(2, &telemetry), |cx| {
            if cx.rank() == 0 {
                (0..3u64).for_each(|v| cx.send(1, 1, v));
            } else {
                for _ in 0..3 {
                    let _ = cx.recv::<u64>(0, 1);
                }
                cx.push_scope("doomed");
                panic!("injected after the third receive");
            }
        })
    });
    assert!(died.is_err());
    let total = telemetry.total();
    assert_eq!((total.sends, total.recvs, total.send_bytes), (3, 3, 24));
    let tail = telemetry.flight_events(1);
    let last = tail.events().last().expect("the victim's ring outlives it");
    assert_eq!(last.kind, EventKind::Enter);
    assert_eq!(tail.labels().get(last.label).path(), "doomed", "labels resolve post mortem");
}

/// Telemetry must never touch the virtual clock: simulated completion
/// times are bit-identical with the registry attached and without.
#[test]
fn simulated_times_bit_identical_with_telemetry() {
    let model = MachineModel::paragon();
    let workload = |cx: &mut ProcCtx| {
        let p = cx.nprocs();
        cx.push_scope("stage");
        if cx.rank() == 0 {
            for src in 1..p {
                let _: Vec<f64> = cx.recv(src, 3);
            }
        } else {
            cx.charge_flops(50_000.0 * cx.rank() as f64);
            cx.send(0, 3, vec![cx.rank() as f64; 512]);
        }
        cx.pop_scope();
        cx.now()
    };

    let plain = run(&Machine::simulated(4, model), workload);
    let telemetry = Arc::new(Telemetry::new());
    let instrumented = run(
        &Machine::simulated(4, model).with_telemetry(Arc::clone(&telemetry)),
        workload,
    );

    assert_eq!(plain.times, instrumented.times, "virtual times diverged");
    for (a, b) in plain.results.iter().zip(&instrumented.results) {
        assert_eq!(a.to_bits(), b.to_bits(), "per-proc clocks diverged");
    }
    // And the registry did observe the run.
    assert_eq!(telemetry.total().sends, 3);
}

/// One OpenMetrics sample line: `name[{k="v",…}] value`, a histogram
/// bucket optionally followed by ` # {trace_id="<16 hex>"} value`.
fn is_sample_line(line: &str) -> bool {
    let ident = |s: &str, colon: bool| {
        let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || (colon && c == ':');
        s.chars().all(ok) && s.starts_with(|c: char| ok(c) && !c.is_ascii_digit())
    };
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let unsigned = |s: &str| s.split_once('.').map_or(digits(s), |(a, b)| digits(a) && digits(b));
    let (sample, exemplar) = line.split_once(" # ").map_or((line, None), |(s, e)| (s, Some(e)));
    let exemplar_ok = exemplar.is_none_or(|e| {
        e.strip_prefix("{trace_id=\"").and_then(|e| e.split_once("\"} ")).is_some_and(|(id, v)| {
            id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) && unsigned(v)
        })
    });
    let Some((head, value)) = sample.rsplit_once(' ') else { return false };
    let (name, labels) = head.split_once('{').map_or((head, None), |(n, l)| (n, Some(l)));
    let labels_ok = labels.is_none_or(|l| {
        l.strip_suffix("\"}").is_some_and(|l| {
            l.split("\",").all(|kv| kv.split_once("=\"").is_some_and(|(k, v)| ident(k, false) && !v.contains('"')))
        })
    });
    ident(name, true) && labels_ok && unsigned(value.strip_prefix('-').unwrap_or(value)) && exemplar_ok
}

/// Exporters: the OpenMetrics rendering — per-processor families, region
/// paths, gauges, cumulative histograms, two tenants and a traced
/// exemplar — is well-formed line by line and ends in `# EOF`; the JSON
/// rendering is a single object.
#[test]
fn exporters_render_expected_shapes() {
    let telemetry = Arc::new(Telemetry::new());
    run(&telemetry_machine(2, &telemetry), |cx| mixed_workload(cx, 2, 64));
    let rows = ["gold", "bronze"].map(|name| TenantTotals { arrived: 2, ..TenantTotals::from_samples(name, &[(1500, 0xfeed)]) });
    telemetry.publish_serving(rows.to_vec(), [], |_| String::new());

    let text = telemetry.render_openmetrics();
    assert!(text.ends_with("# EOF\n"));
    for needle in [
        "# TYPE fx_chunk_bytes_in_flight gauge",
        "fx_chunk_bytes_in_flight 0",
        "# TYPE fx_queue_depth gauge",
        "# TYPE fx_msg_size_bytes histogram",
        "fx_msg_size_bytes_bucket{le=\"+Inf\"} ",
        "fx_msg_size_bytes_count ",
        "# TYPE fx_region_path_enters counter",
        "fx_region_path_enters_total{path=",
        "# TYPE fx_serve_requests counter",
        "# TYPE fx_serve_latency_ns histogram",
        "fx_serve_latency_ns_bucket{tenant=\"gold\",le=\"2048\"} 1 # {trace_id=\"000000000000feed\"} 1500\n",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    for tenant in ["gold", "bronze"] {
        for outcome in ["arrived", "admitted", "shed", "completed"] {
            let sample = format!("\nfx_serve_requests_total{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} ");
            assert!(text.contains(&sample), "missing {sample:?}");
        }
    }
    // The line grammar, on every line — and the checker is not vacuous.
    for line in text.lines() {
        let meta = line.starts_with("# TYPE ") || line.starts_with("# HELP ") || line == "# EOF";
        assert!(meta || is_sample_line(line), "bad line: {line:?}");
    }
    for bad in ["fx_x{a=b} 1", "fx_x{a=\"b\"}", "9x 1", "fx_x 1e3", "fx_x 1 # {trace_id=\"FEED\"} 1", "fx_x{a=\"b\" 1"] {
        assert!(!is_sample_line(bad), "accepted {bad:?}");
    }
    // Histogram buckets must be cumulative: +Inf equals _count.
    let grab = |marker: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(marker))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {marker}"))
    };
    assert_eq!(grab("fx_msg_size_bytes_bucket{le=\"+Inf\"}"), grab("fx_msg_size_bytes_count"));

    let json = telemetry.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for needle in ["\"procs\":[", "\"total\":", "\"regions\":{", "\"chunk_bytes_in_flight\":0"] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
}

/// The exporters cannot drift from the counter declaration: every
/// declared counter is one OpenMetrics `counter` family with its HELP
/// and one `_total` sample per processor, and one key of every JSON row.
#[test]
fn every_declared_counter_is_exported_exactly_once() {
    const P: usize = 3;
    let telemetry = Arc::new(Telemetry::new());
    run(&telemetry_machine(P, &telemetry), |cx| mixed_workload(cx, 2, 64));
    let (text, json) = (telemetry.render_openmetrics(), telemetry.render_json());
    let count = |hay: &str, needle: &str| hay.matches(needle).count();
    assert!(ProcTotals::COUNTERS.len() >= 22);
    for c in ProcTotals::COUNTERS {
        assert_eq!(count(&text, &format!("# TYPE {} counter\n# HELP {} {}\n", c.family, c.family, c.help)), 1, "{c:?}");
        assert_eq!(count(&text, &format!("\n{}_total{{proc=\"", c.family)), P, "{c:?}");
        // P rows and the total.
        assert_eq!(count(&json, &format!("\"{}\":", c.name)), P + 1, "{c:?}");
    }
    let rows = json.split_once("\"regions\"").expect("rows come first").0;
    assert_eq!(count(rows, "\":"), 2 + (P + 1) * ProcTotals::COUNTERS.len(), "no undeclared key in a row");
}

/// A run's report carries the snapshot both exporters render: after a
/// clean run (nothing left queued), rendering the report's copy and
/// rendering the registry are the same bytes, in both formats.
#[test]
fn the_report_snapshot_renders_what_the_registry_renders() {
    let telemetry = Arc::new(Telemetry::new());
    let rep = run(&telemetry_machine(3, &telemetry), |cx| mixed_workload(cx, 4, 32));
    assert_eq!(rep.undelivered, 0);
    let snap = rep.telemetry.expect("a registry was attached");
    assert_eq!(snap.render_openmetrics(), telemetry.render_openmetrics());
    assert_eq!(snap.render_json(), telemetry.render_json());
}

/// RFC 8259 forbids a raw control character inside a JSON string: a
/// scope path or a tenant name carrying one is escaped, not copied.
#[test]
fn json_rendering_escapes_control_characters() {
    let telemetry = Arc::new(Telemetry::new());
    run(&telemetry_machine(2, &telemetry), |cx| {
        cx.push_scope("a\tb");
        cx.pop_scope();
    });
    telemetry.publish_serving(vec![TenantTotals::from_samples("x\u{1}y", &[(1500, 0)])], [], |_| String::new());
    let json = telemetry.render_json();
    assert!(json.contains("a\\tb") && json.contains("x\\u0001y"), "{json}");
    assert!(json.bytes().all(|b| b >= 0x20), "a control byte in {json:?}");
}
