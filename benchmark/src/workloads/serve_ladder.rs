//! `serve_ladder` — FFT-Hist 64x64 as a service on P=16: an open-loop
//! Poisson trace (gold and bronze tenants, 3:1) against a bounded
//! admission queue, under the data-parallel mapping and under four
//! replicated modules, each at a reference and an overload rate (the
//! light rates sit on the finer ladder the traced run searches for the
//! knee). `fx-serve`'s admission and batching plus the telemetry
//! registry do the host work, and the workload carries the user-facing
//! latency numbers.
//!
//! Open loop: requests are due at their scheduled arrival whether or not
//! the server keeps up, and a request's latency runs from that arrival.
//! The generator cannot run late — arrivals are virtual times fixed
//! before the run.

use fx_apps::ffthist::{reference_histogram, FftHistConfig, FftHistMapping};
use fx_serve::{
    poisson_trace, FftHistServable, ServeConfig, ServeReport, ServeRequest, Server, ShedPolicy,
    TenantSpec,
};

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::workload::{PassBuilder, PassOut, Pin, Size, Workload};

const TENANTS: [&str; 2] = ["gold", "bronze"];
/// Datasets a request can ask for (`poisson_trace` draws below 64).
const DATASETS: usize = 64;
/// The latency limit of the knee: exact p99 at most this, and under 1%
/// of requests shed.
const KNEE_P99_MS: f64 = 100.0;

/// Where on the ladder a rate sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Latency percentiles are read here.
    Reference,
    /// Goodput and shed share are read here.
    Overload,
}

/// The per-layer metrics one mapping reports.
struct Names {
    p50: &'static str,
    p99: &'static str,
    goodput: &'static str,
    shed: &'static str,
    knee: &'static str,
}

/// One mapping under test.
struct Mapping {
    /// `dp` or `repl4`: the suffix of this mapping's per-layer metrics.
    name: &'static str,
    names: Names,
    mapping: FftHistMapping,
    /// Reference and overload rate, requests per virtual second.
    rates: [f64; 2],
    /// The finer ladder the knee is searched on (traced runs only).
    knee_rates: [f64; 6],
}

/// One rung: a mapping, a rate, and the arrival trace generated for it.
struct Rung {
    mapping: usize,
    role: Role,
    rate: f64,
    trace: Vec<ServeRequest>,
}

/// What one served rung contributes.
struct Served {
    /// Latency from scheduled arrival of each completed request, seconds.
    latencies: Vec<f64>,
    /// Completions per virtual second between first arrival and last
    /// completion.
    goodput: f64,
    shed_frac: f64,
}

/// The set-up workload.
pub struct ServeLadder {
    p: usize,
    cfg: FftHistConfig,
    serve_cfg: ServeConfig,
    /// Requests offered at a reference rate, at an overload rate, and at
    /// each rate of the knee ladder. The reference rungs get the most:
    /// their tail percentile is what varies most from seed to seed.
    requests: [usize; 3],
    mappings: Vec<Mapping>,
    rungs: Vec<Rung>,
    /// Answer for each dataset.
    oracle: Vec<Vec<u64>>,
    seed: u64,
    seq_s: f64,
}

fn trace_for(rate: f64, requests: usize, seed: u64) -> Vec<ServeRequest> {
    let tenants = [
        TenantSpec::new(TENANTS[0], rate * 0.75, requests * 3 / 4),
        TenantSpec::new(TENANTS[1], rate * 0.25, requests / 4),
    ];
    poisson_trace(&tenants, seed)
}

impl ServeLadder {
    /// Generate the arrival traces from `seed` and the answer to every
    /// dataset.
    pub fn setup(seed: u64, size: Size) -> ServeLadder {
        let full = size == Size::Full;
        let (p, n, requests) = if full {
            (16, 64, [1600, 400, 800])
        } else {
            (8, 16, [40, 40, 40])
        };
        // The smoke machine is smaller and its images tiny; scale the
        // ladder so it still straddles that machine's capacity.
        let scale = if full { 1.0 } else { 20.0 };
        let mappings = vec![
            Mapping {
                name: "dp",
                names: Names {
                    p50: "serve.p50_ms.dp",
                    p99: "serve.p99_ms.dp",
                    goodput: "serve.goodput_rps.dp",
                    shed: "serve.shed_frac.dp",
                    knee: "serve.knee_rps.dp",
                },
                mapping: FftHistMapping::DataParallel,
                rates: [25.0, 60.0].map(|r| r * scale),
                knee_rates: [15.0, 20.0, 25.0, 30.0, 35.0, 40.0].map(|r| r * scale),
            },
            Mapping {
                name: "repl4",
                names: Names {
                    p50: "serve.p50_ms.repl4",
                    p99: "serve.p99_ms.repl4",
                    goodput: "serve.goodput_rps.repl4",
                    shed: "serve.shed_frac.repl4",
                    knee: "serve.knee_rps.repl4",
                },
                mapping: FftHistMapping::Replicated {
                    replicas: 4,
                    pipeline: None,
                },
                rates: [125.0, 200.0].map(|r| r * scale),
                knee_rates: [50.0, 100.0, 125.0, 150.0, 175.0, 200.0].map(|r| r * scale),
            },
        ];
        let t0 = std::time::Instant::now();
        let cfg = FftHistConfig::new(n, 1);
        let oracle = (0..DATASETS)
            .map(|d| reference_histogram(&cfg, d))
            .collect();
        let seq_s = t0.elapsed().as_secs_f64();
        let mut rungs = Vec::new();
        for (mi, m) in mappings.iter().enumerate() {
            for (i, (role, &rate)) in [Role::Reference, Role::Overload]
                .into_iter()
                .zip(&m.rates)
                .enumerate()
            {
                let trace = trace_for(rate, requests[i], seed.wrapping_add(rungs.len() as u64));
                rungs.push(Rung {
                    mapping: mi,
                    role,
                    rate,
                    trace,
                });
            }
        }
        ServeLadder {
            p,
            cfg,
            serve_cfg: ServeConfig {
                queue_cap: 8,
                batch_max: 4,
                shed: ShedPolicy::DropNewest,
            },
            requests,
            mappings,
            rungs,
            oracle,
            seed,
            seq_s,
        }
    }

    /// Serve one trace under one mapping.
    fn serve(
        &self,
        pin: &Pin,
        mapping: FftHistMapping,
        trace: &[ServeRequest],
    ) -> ServeReport<Vec<u64>> {
        // `Server` attaches a default registry when the machine has
        // none; hand it one without the stall-sampler thread instead.
        let machine = pin.machine(self.p).with_telemetry(Pin::telemetry());
        Server::new(
            machine,
            FftHistServable {
                cfg: self.cfg,
                mapping,
            },
        )
        .with_config(self.serve_cfg)
        .serve(trace, &TENANTS)
    }
}

fn summarize(trace: &[ServeRequest], rep: &ServeReport<Vec<u64>>) -> Served {
    let latencies: Vec<f64> = rep
        .completions
        .iter()
        .map(|c| c.done - trace[c.req].arrival)
        .collect();
    let first = trace.first().map_or(0.0, |r| r.arrival);
    let last = rep.completions.iter().map(|c| c.done).fold(first, f64::max);
    Served {
        goodput: if last > first {
            rep.completed() as f64 / (last - first)
        } else {
            0.0
        },
        shed_frac: rep.shed.len() as f64 / trace.len().max(1) as f64,
        latencies,
    }
}

impl Workload for ServeLadder {
    fn sizes(&self) -> Json {
        let mut ladder = Json::obj();
        for m in &self.mappings {
            ladder = ladder.set(m.name, m.rates.to_vec());
        }
        Json::obj()
            .set("p", self.p)
            .set("servable", format!("FFT-Hist {n}x{n}", n = self.cfg.n))
            .set("requests_reference_overload_knee", self.requests.to_vec())
            .set("tenants", "gold:bronze 3:1")
            .set("queue_cap", self.serve_cfg.queue_cap)
            .set("batch_max", self.serve_cfg.batch_max)
            .set("shed", "DropNewest")
            .set(
                "loop",
                "open (poisson_trace), latency from scheduled arrival",
            )
            .set("rates_rps_reference_overload", ladder)
            .set("knee_p99_limit_ms", KNEE_P99_MS)
    }

    fn seq_s(&self) -> f64 {
        self.seq_s
    }

    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_> {
        let mut b = PassBuilder::new();
        let (mut completed_over, mut span_over) = (0.0, 0.0);
        for rung in &self.rungs {
            let m = &self.mappings[rung.mapping];
            let rep = rec.span(
                "serve",
                &format!("serve {} @{}/s", m.name, rung.rate),
                |_| self.serve(pin, m.mapping, &rung.trace),
            );
            b.virt.makespan_s += rep.makespan();
            if let Some(snap) = &rep.telemetry {
                b.counters.add_snapshot(snap);
            }
            b.cut();
            let served = summarize(&rung.trace, &rep);
            match rung.role {
                Role::Reference => {
                    b.virt.op_latency_s.extend_from_slice(&served.latencies);
                    let ms = |q| percentile(&served.latencies, q) * 1e3;
                    b.virt.extras.push((m.names.p50, ms(0.50)));
                    b.virt.extras.push((m.names.p99, ms(0.99)));
                    if m.name == "dp" {
                        // The histogram-derived p99 a tenant dashboard
                        // shows, against the exact order statistic of
                        // the same tenant's requests.
                        let gold: Vec<f64> = rep
                            .completions
                            .iter()
                            .filter(|c| rung.trace[c.req].tenant == 0)
                            .map(|c| c.done - rung.trace[c.req].arrival)
                            .collect();
                        let exact_ns = percentile(&gold, 0.99) * 1e9;
                        let hist_ns = rep.tenant(TENANTS[0]).map_or(0.0, |t| t.p99_ns as f64);
                        b.virt.extras.push((
                            "serve.hist_p99_err_frac",
                            (hist_ns - exact_ns).abs() / exact_ns,
                        ));
                        for c in rep.request_breakdown() {
                            let name = match c.component {
                                "queue" => "serve.queue_p99_ms.dp",
                                "send" => "serve.send_p99_ms.dp",
                                "recv" => "serve.recv_p99_ms.dp",
                                "compute" => "serve.compute_p99_ms.dp",
                                "other" => "serve.batchmate_p99_ms.dp",
                                _ => continue,
                            };
                            b.traced.push((name, c.p99 * 1e3));
                        }
                    }
                }
                Role::Overload => {
                    completed_over += served.latencies.len() as f64;
                    span_over += served.latencies.len() as f64 / served.goodput;
                    b.virt.extras.push((m.names.goodput, served.goodput));
                    b.virt.extras.push((m.names.shed, served.shed_frac));
                }
            }
            // An op is an offered request. A shed request got the answer
            // the admission policy prescribes and is not a failure; a
            // wrong histogram is, and a run whose counters do not add up
            // (`arrived == completed + shed`) fails every request in it.
            let conserved = rep.conserved();
            let trace = &rung.trace;
            let completions = rep.completions;
            b.verify(trace.len(), move || {
                if !conserved {
                    return trace.len();
                }
                completions
                    .iter()
                    .filter(|c| c.output != self.oracle[trace[c.req].dataset])
                    .count()
            });
        }
        b.virt.goodput = completed_over / span_over;
        b.finish()
    }

    fn inject_fault(&mut self) {
        for answer in &mut self.oracle {
            answer[0] += 1;
        }
    }

    fn probe(&self, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        // The knee: the highest rate of a finer ladder that still meets
        // the latency limit with under 1% shed.
        let mut out = Vec::new();
        for m in &self.mappings {
            let mut knee = 0.0;
            for (i, &rate) in m.knee_rates.iter().enumerate() {
                let trace = trace_for(
                    rate,
                    self.requests[2],
                    self.seed.wrapping_add(100 + i as u64),
                );
                let rep = rec.span("serve", &format!("knee {} @{rate}/s", m.name), |_| {
                    self.serve(&Pin::E2E, m.mapping, &trace)
                });
                let served = summarize(&trace, &rep);
                if served.shed_frac < 0.01
                    && percentile(&served.latencies, 0.99) * 1e3 <= KNEE_P99_MS
                {
                    knee = rate;
                }
            }
            out.push((m.names.knee, knee));
        }
        out
    }
}
