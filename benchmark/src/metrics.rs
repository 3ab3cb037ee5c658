//! The names, units and directions of every metric the benchmark
//! reports. `BENCHMARK.json` lists the same names; `tests/schema.rs`
//! holds the two together.

/// One metric: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What every unit of simulated time contains (`virt_s`, `ops/virt_s`).
/// Values in these units are exact for a given seed: `compare` treats any
/// difference at equal seeds as a change, with no noise band.
pub const VIRT: &str = "virt_";

/// End-to-end metrics: reported by every workload with `--trace 0`.
///
/// What a "unit of work" (op) is differs by workload — a data set or a
/// whole single-shot program in `paper_apps`, a ring or collective round
/// in `msg_storm`, a redistribution statement in `redist_*`, a request
/// in `serve_ladder` (latencies at the reference rates, goodput at the
/// overload rates). README has the table.
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s", "lower"),
    ("host_wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("virt_makespan_s", "virt_s", "lower"),
    ("virt_op_p50_ms", "virt_ms", "lower"),
    ("virt_op_p95_ms", "virt_ms", "lower"),
    ("virt_goodput", "ops/virt_s", "higher"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`. A
/// metric of a layer the workload does not call reads 0.
pub const PER_LAYER: [MetricDef; 84] = [
    // kernels — single-threaded probes, and the sequential baseline.
    ("kernels.fft_ns_per_point", "ns", "lower"),
    ("kernels.hist_ns_per_elem", "ns", "lower"),
    ("kernels.stereo_ns_per_pixel", "ns", "lower"),
    ("kernels.bh_force_ns_per_body", "ns", "lower"),
    ("kernels.seq_s", "s", "lower"),
    // runtime — probes, then the workload's own pass.
    ("runtime.spawn_us_per_proc.p64", "us", "lower"),
    ("runtime.spawn_us_per_proc.p256", "us", "lower"),
    ("runtime.spawn_us_per_proc.p1024", "us", "lower"),
    ("runtime.boxed_msg_ns", "ns", "lower"),
    ("runtime.chunk_msg_ns", "ns", "lower"),
    ("runtime.chunk_gbps", "GB/s", "higher"),
    ("runtime.ring_ns_per_msg.p64", "ns", "lower"),
    ("runtime.ring_ns_per_msg.p256", "ns", "lower"),
    ("runtime.ring_ns_per_msg.p1024", "ns", "lower"),
    ("runtime.msgs", "count", "lower"),
    ("runtime.bytes", "B", "lower"),
    ("runtime.chunk_msgs", "count", "lower"),
    ("runtime.pool_hit_ratio", "ratio", "higher"),
    ("runtime.send_ns", "ns", "lower"),
    ("runtime.recv_wait_ns", "ns", "lower"),
    ("runtime.host_ns_per_msg", "ns", "lower"),
    ("runtime.sim_overhead_x", "x", "lower"),
    ("runtime.speedup_2w", "x", "higher"),
    ("runtime.telemetry_overhead_frac", "ratio", "lower"),
    ("runtime.trace_overhead_frac", "ratio", "lower"),
    // core — collective and construct probes, promotion counters.
    ("core.barrier_us.p64", "us", "lower"),
    ("core.allreduce_us.p64", "us", "lower"),
    ("core.bcast_us.p64", "us", "lower"),
    ("core.region_enter_us", "us", "lower"),
    ("core.pdo_promote_ns_per_iter", "ns", "lower"),
    ("core.promotions_taken", "count", "higher"),
    ("core.promotions_declined", "count", "lower"),
    // darray — plan probes, then the workload's own pass.
    ("darray.plan_build_us", "us", "lower"),
    ("darray.replay_us_per_stmt", "us", "lower"),
    ("darray.halo_us", "us", "lower"),
    ("darray.pack_gbps", "GB/s", "higher"),
    ("darray.plan_hit_ratio", "ratio", "higher"),
    ("darray.plan_misses", "count", "lower"),
    ("darray.barriers_elided", "count", "higher"),
    ("darray.barriers_kept", "count", "lower"),
    ("darray.virt_comm_share", "ratio", "lower"),
    // mapping — off every end-to-end path by design.
    ("mapping.best_mapping_ms", "ms", "lower"),
    ("mapping.frontier_ms", "ms", "lower"),
    // apps — host seconds per program, and the paper's numbers.
    ("apps.ffthist_s", "s", "lower"),
    ("apps.radar_s", "s", "lower"),
    ("apps.stereo_s", "s", "lower"),
    ("apps.airshed_s", "s", "lower"),
    ("apps.qsort_s", "s", "lower"),
    ("apps.barnes_hut_s", "s", "lower"),
    ("apps.table1_thr_x_err.ffthist256", "ratio", "lower"),
    ("apps.table1_thr_x_err.ffthist512", "ratio", "lower"),
    ("apps.table1_thr_x_err.radar", "ratio", "lower"),
    ("apps.table1_thr_x_err.stereo", "ratio", "lower"),
    ("apps.virt_thr_gain_x", "x", "higher"),
    ("apps.virt_latency_s", "virt_s", "lower"),
    // serve — per mapping, at the reference and overload rates.
    ("serve.p50_ms.dp", "virt_ms", "lower"),
    ("serve.p99_ms.dp", "virt_ms", "lower"),
    ("serve.goodput_rps.dp", "1/virt_s", "higher"),
    ("serve.p50_ms.repl4", "virt_ms", "lower"),
    ("serve.p99_ms.repl4", "virt_ms", "lower"),
    ("serve.goodput_rps.repl4", "1/virt_s", "higher"),
    ("serve.knee_rps.dp", "1/virt_s", "higher"),
    ("serve.knee_rps.repl4", "1/virt_s", "higher"),
    ("serve.shed_frac.dp", "ratio", "lower"),
    ("serve.shed_frac.repl4", "ratio", "lower"),
    ("serve.queue_p99_ms.dp", "virt_ms", "lower"),
    ("serve.send_p99_ms.dp", "virt_ms", "lower"),
    ("serve.recv_p99_ms.dp", "virt_ms", "lower"),
    ("serve.compute_p99_ms.dp", "virt_ms", "lower"),
    ("serve.batchmate_p99_ms.dp", "virt_ms", "lower"),
    ("serve.hist_p99_err_frac", "ratio", "lower"),
    // process — the benchmark process itself.
    ("process.cpu_s", "s", "lower"),
    ("process.host_wall_median_s", "s", "lower"),
    ("process.host_wall_iqr_frac", "ratio", "lower"),
    ("process.rss_growth_mib", "MiB", "lower"),
    ("process.host_us_per_op", "us", "lower"),
    // trace — self time per layer of the untraced pass's spans.
    ("trace.self_s.apps", "s", "lower"),
    ("trace.self_s.serve", "s", "lower"),
    ("trace.self_s.core", "s", "lower"),
    ("trace.self_s.darray", "s", "lower"),
    ("trace.self_s.runtime", "s", "lower"),
    ("trace.self_s.kernels", "s", "lower"),
    ("trace.self_s.mapping", "s", "lower"),
    ("trace.self_s.bench", "s", "lower"),
];
