//! Property: serving changes scheduling, never answers.
//!
//! Random open-loop traces pushed through random admission configs and
//! mappings must answer every served request bit-identically to the
//! sequential oracle, conserve request counters, report per-tenant
//! accounting equal to an independent recount, and produce bit-identical
//! virtual times on both executors.

use std::sync::Arc;

use fx_apps::ffthist::{reference_histogram, FftHistConfig};
use fx_apps::stream::{Answer, Stream};
use fx_apps::util::{Placement, Segments};
use fx_core::{Machine, MachineModel};
use fx_runtime::{Executor, Telemetry, TelemetryConfig};
use fx_serve::{poisson_trace, ServeConfig, Server, ShedPolicy, StreamServable, TenantSpec};
use proptest::prelude::*;

fn placement_strategy() -> impl Strategy<Value = Placement> {
    let fused_tail = Segments { seg_of_stage: [0, 1, 1], procs: vec![2, 2], ..Segments::fused(4) };
    prop_oneof![
        Just(Placement::data_parallel(4)),
        Just(Placement::pipeline([1, 2, 1])),
        Just(Placement::replicated(2, Segments::fused(2))),
        Just(Placement::replicated(1, fused_tail)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn served_answers_are_oracle_exact_and_executor_invariant(
        seed in 0u64..1_000_000,
        rate in 20.0f64..3000.0,
        nreq in 2usize..9,
        ntenants in 1usize..3,
        batch_max in 1usize..4,
        queue_cap in 1usize..8,
        drop_oldest in any::<bool>(),
        placement in placement_strategy(),
    ) {
        let cfg = FftHistConfig::new(8, 1);
        let tenants: Vec<TenantSpec> = (0..ntenants)
            .map(|t| TenantSpec::new(&format!("t{t}"), rate / ntenants as f64, nreq))
            .collect();
        let names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
        let trace = poisson_trace(&tenants, seed);
        let shed = if drop_oldest { ShedPolicy::DropOldest } else { ShedPolicy::DropNewest };
        let serve_cfg = ServeConfig { queue_cap, batch_max, shed };

        let serve_on = |machine: Machine| {
            let servable = StreamServable { stream: Stream::FftHist(cfg), placement: placement.clone() };
            Server::new(machine, servable).with_config(serve_cfg).serve(&trace, &names)
        };
        let machine = |exec: Executor, tracing: bool| {
            Machine::simulated(4, MachineModel::paragon()).with_executor(exec).with_tracing(tracing)
        };
        let run = |exec: Executor, tracing: bool| serve_on(machine(exec, tracing));
        // One leg is observed: a registry never changes what is reported.
        let registry = Arc::new(Telemetry::with_config(TelemetryConfig { stall: false, ..TelemetryConfig::default() }));
        let a = serve_on(machine(Executor::Threaded, false).with_telemetry(registry.clone()));
        let b = run(Executor::Pooled { workers: 2 }, false);
        let ta = run(Executor::Threaded, true);
        let tb = run(Executor::Pooled { workers: 2 }, true);

        // Counter conservation and no lost requests, under any load.
        prop_assert!(a.conserved());
        prop_assert_eq!(a.completed() + a.shed.len(), trace.len());

        // The ledger: each tenant's report is what a recount from the
        // trace, the shed list and the completions gives — counters, and
        // quantiles equal to the exact order statistic (rank ceil(q n)) of
        // the tenant's latencies — and the exposition counts the same.
        let exposition = registry.render_openmetrics();
        for (tenant, name) in names.iter().enumerate() {
            let arrived = trace.iter().filter(|r| r.tenant == tenant).count() as u64;
            let shed = a.shed.iter().filter(|&&req| trace[req].tenant == tenant).count() as u64;
            let mut lat_ns: Vec<u64> = a
                .completions
                .iter()
                .filter(|c| trace[c.req].tenant == tenant)
                .map(|c| ((c.done - trace[c.req].arrival).max(0.0) * 1e9).round() as u64)
                .collect();
            lat_ns.sort_unstable();
            let n = lat_ns.len();
            let exact = |q: f64| if n == 0 { 0 } else { lat_ns[((q * n as f64).ceil() as usize).clamp(1, n) - 1] };
            let admitted = if drop_oldest { arrived } else { arrived - shed };
            let t = a.tenant(name).expect("a report per tenant name");
            prop_assert_eq!((t.arrived, t.admitted, t.shed, t.completed), (arrived, admitted, shed, n as u64));
            prop_assert_eq!((t.p50_ns, t.p99_ns, t.p999_ns), (exact(0.50), exact(0.99), exact(0.999)));
            let count = format!("fx_serve_latency_ns_count{{tenant=\"{name}\"}} {n}\n");
            prop_assert!(exposition.contains(&count), "missing {:?} in:\n{}", count, exposition);
        }

        // Every served answer matches the sequential oracle bit-for-bit.
        for c in &a.completions {
            prop_assert_eq!(&c.output, &Answer::Histogram(reference_histogram(&cfg, trace[c.req].dataset)));
            prop_assert!(c.done >= trace[c.req].arrival);
        }

        // Executor invariance: identical decisions, identical virtual
        // times, identical SLO accounting.
        prop_assert_eq!(&a.times, &b.times);
        prop_assert_eq!(&a.shed, &b.shed);
        prop_assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            prop_assert_eq!(x.req, y.req);
            prop_assert_eq!(&x.output, &y.output);
            prop_assert_eq!(x.done.to_bits(), y.done.to_bits());
        }
        prop_assert_eq!(&a.tenants, &b.tenants);

        // Tracing is free on the virtual clock: same finish and
        // completion times as the untraced run, on both executors.
        for (traced, plain) in [(&ta, &a), (&tb, &b)] {
            prop_assert_eq!(&traced.times, &plain.times);
            prop_assert_eq!(traced.completions.len(), plain.completions.len());
            for (x, y) in traced.completions.iter().zip(&plain.completions) {
                prop_assert_eq!(x.done.to_bits(), y.done.to_bits());
            }
        }

        // Per-request decompositions: one per completion, components
        // summing exactly to end-to-end latency, on both executors.
        for traced in [&ta, &tb] {
            prop_assert_eq!(traced.request_traces.len(), traced.completions.len());
            for t in &traced.request_traces {
                let sum: f64 = t.components().iter().map(|(_, v)| *v).sum();
                prop_assert!(
                    (sum - t.latency()).abs() <= 1e-9 * t.latency().max(1e-9),
                    "request {} components sum {} != latency {}",
                    t.req, sum, t.latency()
                );
                for (name, v) in t.components() {
                    prop_assert!(v >= 0.0, "negative {} on request {}", name, t.req);
                }
            }
        }
        prop_assert_eq!(&ta.request_traces, &tb.request_traces);
    }
}
