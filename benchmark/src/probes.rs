//! Per-layer micro-probes: small, workload-independent measurements of
//! one layer each, run once per traced run. Probes that need a machine
//! run inside one `spmd` under the end-to-end pin and subtract the cost
//! of an empty `spmd` of the same size, so what is left is the layer's
//! own host time.

use std::hint::black_box;
use std::time::Instant;

use fx_apps::ffthist::{
    cffts_local, fft_hist_dp_sets, fill_input, hist_local, rffts_local, FftHistConfig,
};
use fx_apps::stereo::{reference_depth, StereoConfig};
use fx_apps::util::{complex_input, make_plummer_bodies};
use fx_core::{spmd, Cx, Size as Procs};
use fx_darray::{assign2, exchange_row_halo, DArray2, Dist};
use fx_kernels::fft::fft_in_place;
use fx_kernels::hist::histogram_magnitudes;
use fx_kernels::nbody::BhTree;
use fx_kernels::Complex;
use fx_mapping::{best_mapping, tradeoff_frontier, Boundary, ChainModel, NetParams, StageProfile};

use crate::spans::Recorder;
use crate::workload::{Observe, Pin, Size};

/// Host seconds of `f`.
fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Host seconds of one `spmd` of `body` on `p` processors.
fn spmd_secs(p: usize, body: impl Fn(&mut Cx) + Send + Sync) -> f64 {
    secs(|| spmd(&Pin::E2E.machine(p), body))
}

/// Host seconds of `body` on `p` processors beyond an empty `spmd`.
fn above_empty(p: usize, body: impl Fn(&mut Cx) + Send + Sync) -> f64 {
    (spmd_secs(p, body) - spmd_secs(p, |_| ())).max(0.0)
}

/// Run every probe; `(metric, value)` pairs.
pub fn run_all(size: Size, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let full = size == Size::Full;
    let mut out = Vec::new();
    // Each probe is a span of its layer, named after its metric.
    let mut probe =
        |layer: &'static str, name: &'static str, f: &mut dyn FnMut(&mut Recorder) -> f64| {
            let v = rec.span(layer, name, f);
            out.push((name, v));
        };

    // ---- kernels: plain single-thread loops --------------------------------
    let rows = if full { 2000 } else { 50 };
    probe("kernels", "kernels.fft_ns_per_point", &mut |_| {
        let mut row: Vec<Complex> = (0..512).map(|c| complex_input(1, 0, c)).collect();
        secs(|| (0..rows).for_each(|_| fft_in_place(black_box(&mut row), false))) * 1e9
            / (rows * 512) as f64
    });
    let elems = if full { 1 << 20 } else { 1 << 14 };
    probe("kernels", "kernels.hist_ns_per_elem", &mut |_| {
        let data: Vec<Complex> = (0..elems)
            .map(|i| complex_input(2, i / 1024, i % 1024))
            .collect();
        secs(|| histogram_magnitudes(black_box(&data), 64, 2.0)) * 1e9 / elems as f64
    });
    probe("kernels", "kernels.stereo_ns_per_pixel", &mut |_| {
        let cfg = if full {
            StereoConfig {
                rows: 60,
                ..StereoConfig::paper()
            }
        } else {
            StereoConfig {
                rows: 16,
                cols: 64,
                ..StereoConfig::paper()
            }
        };
        secs(|| reference_depth(&cfg, 3)) * 1e9 / (cfg.rows * cfg.cols) as f64
    });
    let n_bodies = if full { 4096 } else { 256 };
    probe("kernels", "kernels.bh_force_ns_per_body", &mut |_| {
        let bodies = make_plummer_bodies(n_bodies, 5);
        let tree = BhTree::build(bodies.clone());
        secs(|| {
            bodies
                .iter()
                .map(|b| tree.force_at(b.pos, 0.4, 1e-3))
                .collect::<Vec<_>>()
        }) * 1e9
            / n_bodies as f64
    });

    // ---- runtime -----------------------------------------------------------
    // Spawn and teardown of P processors, then a ring long enough that
    // its messages, not the spawn, are what the difference measures.
    // (P=4096 is out of reach here: an empty `spmd` of that size takes
    // seconds, most of a traced run's budget.)
    const SIZES: [(usize, &str, &str); 3] = [
        (
            64,
            "runtime.spawn_us_per_proc.p64",
            "runtime.ring_ns_per_msg.p64",
        ),
        (
            256,
            "runtime.spawn_us_per_proc.p256",
            "runtime.ring_ns_per_msg.p256",
        ),
        (
            1024,
            "runtime.spawn_us_per_proc.p1024",
            "runtime.ring_ns_per_msg.p1024",
        ),
    ];
    let rounds: usize = if full { 200 } else { 4 };
    for &(p, spawn_name, ring_name) in &SIZES[..if full { 3 } else { 1 }] {
        // The first `spmd` of a size pays for fresh stacks; time the second.
        spmd_secs(p, |_| ());
        let mut empty = 0.0;
        probe("runtime", spawn_name, &mut |_| {
            empty = spmd_secs(p, |_| ());
            empty * 1e6 / p as f64
        });
        probe("runtime", ring_name, &mut |_| {
            let ring = spmd_secs(p, |cx| {
                let (me, n) = (cx.id(), cx.nprocs());
                for round in 0..rounds as u64 {
                    cx.send_v((me + 1) % n, round, me as u64);
                    black_box(cx.recv_v::<u64>((me + n - 1) % n, round));
                }
            });
            (ring - empty).max(0.0) * 1e9 / (rounds * p) as f64
        });
    }
    let trips = if full { 20_000 } else { 500 };
    probe("runtime", "runtime.boxed_msg_ns", &mut |_| {
        above_empty(2, |cx| {
            let peer = 1 - cx.id();
            for _ in 0..trips {
                if cx.id() == 0 {
                    cx.send_v(peer, 1, 7u64);
                    black_box(cx.recv_v::<u64>(peer, 2));
                } else {
                    let v: u64 = cx.recv_v(peer, 1);
                    cx.send_v(peer, 2, v);
                }
            }
        }) * 1e9
            / (2 * trips) as f64
    });
    // A chunk ping-pong: the spent buffer travels back as the reply, so
    // the steady state never allocates.
    let chunk_ping_pong = |elems: usize, trips: usize| {
        above_empty(2, move |cx| {
            let peer = 1 - cx.id();
            let data = vec![1.0f64; elems];
            for _ in 0..trips {
                if cx.id() == 0 {
                    let mut c = cx.chunk_for::<f64>(elems);
                    c.push_slice(&data);
                    cx.send_chunk_v(peer, 1, c);
                    let back = cx.recv_chunk_v(peer, 2);
                    cx.release_chunk(back);
                } else {
                    let c = cx.recv_chunk_v(peer, 1);
                    cx.send_chunk_v(peer, 2, c);
                }
            }
        })
    };
    probe("runtime", "runtime.chunk_msg_ns", &mut |_| {
        chunk_ping_pong(1, trips) * 1e9 / (2 * trips) as f64
    });
    let big_trips = trips / 10;
    probe("runtime", "runtime.chunk_gbps", &mut |_| {
        const ELEMS: usize = 64 * 1024 / 8;
        (2 * big_trips * ELEMS * 8) as f64 / chunk_ping_pong(ELEMS, big_trips).max(1e-9) / 1e9
    });

    // ---- core ----------------------------------------------------------------
    let p = if full { 64 } else { 8 };
    let reps = if full { 200 } else { 10 };
    probe("core", "core.barrier_us.p64", &mut |_| {
        above_empty(p, |cx| (0..reps).for_each(|_| cx.barrier())) * 1e6 / reps as f64
    });
    probe("core", "core.allreduce_us.p64", &mut |_| {
        above_empty(p, |cx| {
            for _ in 0..reps {
                black_box(cx.allreduce(cx.id() as u64, |a, b| a + b));
            }
        }) * 1e6
            / reps as f64
    });
    probe("core", "core.bcast_us.p64", &mut |_| {
        above_empty(p, |cx| {
            for _ in 0..reps {
                black_box(cx.bcast(0, 7u64));
            }
        }) * 1e6
            / reps as f64
    });
    probe("core", "core.region_enter_us", &mut |_| {
        above_empty(p, |cx| {
            let part = cx.task_partition(&[("a", Procs::Procs(p / 2)), ("b", Procs::Rest)]);
            for _ in 0..reps {
                cx.task_region(&part, |cx, tr| {
                    tr.on(cx, "a", |cx| black_box(cx.id()));
                    tr.on(cx, "b", |cx| black_box(cx.id()));
                });
            }
        }) * 1e6
            / reps as f64
    });
    // Every member has the same work, so no peer parks early and no
    // heartbeat donates: what is timed is the loop's own bookkeeping.
    let iters = if full { 200_000 } else { 2_000 };
    probe("core", "core.pdo_promote_ns_per_iter", &mut |_| {
        above_empty(4, |cx| {
            let mut sink = vec![0u32; iters];
            cx.pdo_promote(
                "probe",
                0..iters,
                |_, _| Vec::<u32>::new(),
                |cx, i, _| {
                    cx.charge_flops(100.0);
                    vec![i as u32]
                },
                |_, i, outs| sink[i] = outs[0],
            );
            black_box(&sink);
        }) * 1e9
            / iters as f64
    });

    // ---- darray --------------------------------------------------------------
    // The same number of `assign2` statements over freshly allocated
    // array pairs, once all of one shape (one plan build, then replays)
    // and once of never-repeated shapes (a build per statement). The
    // difference per statement is the build; the warm run above an
    // allocation-only run is the replay.
    let stmts = if full { 24 } else { 4 };
    let m = if full { 128 } else { 16 };
    let redist = |distinct: bool, assign: bool| {
        spmd_secs(p, move |cx| {
            let g = cx.group();
            for k in 0..stmts {
                let e = if distinct { m + 8 * k } else { m };
                let a1 = DArray2::new(cx, &g, [e, e], (Dist::Star, Dist::Block), Complex::ZERO);
                let mut a2 = DArray2::new(cx, &g, [e, e], (Dist::Block, Dist::Star), Complex::ZERO);
                if assign {
                    assign2(cx, &mut a2, &a1);
                }
                black_box(a2.local().len());
            }
        })
    };
    let mut warm = 0.0;
    probe("darray", "darray.replay_us_per_stmt", &mut |_| {
        warm = redist(false, true);
        (warm - redist(false, false)).max(0.0) * 1e6 / stmts as f64
    });
    probe("darray", "darray.plan_build_us", &mut |_| {
        // Larger arrays move more bytes as well; take that out with the
        // allocation-only runs of both shapes.
        let cold = redist(true, true) - redist(true, false);
        let replay = warm - redist(false, false);
        (cold - replay).max(0.0) * 1e6 / (stmts - 1) as f64
    });
    let halo_m = if full { 512 } else { 32 };
    probe("darray", "darray.halo_us", &mut |_| {
        let with = |exchange: bool| {
            spmd_secs(p, move |cx| {
                let g = cx.group();
                let a = DArray2::new(cx, &g, [halo_m, halo_m], (Dist::Block, Dist::Star), 1.0f64);
                if exchange {
                    for _ in 0..reps {
                        black_box(exchange_row_halo(cx, &a, 1).top.len());
                    }
                }
            })
        };
        (with(true) - with(false)).max(0.0) * 1e6 / reps as f64
    });
    let fft_n = if full { 512 } else { 32 };
    probe("darray", "darray.virt_comm_share", &mut |_| {
        // Virtual, not host: the share of FFT-Hist's data-parallel
        // critical path that is communication.
        let cfg = FftHistConfig::new(fft_n, 2);
        let rep = spmd(&Pin::E2E.observing(Observe::Traced).machine(p), |cx| {
            fft_hist_dp_sets(cx, &cfg, &[0, 1]);
        });
        let (_, comm, _) = rep.critical_path().totals();
        comm / rep.makespan()
    });

    // ---- mapping -------------------------------------------------------------
    let mut model = None;
    probe("mapping", "mapping.best_mapping_ms", &mut |rec| {
        let chain = rec.span("apps", "measure FFT-Hist chain", |_| {
            fft_hist_chain(if full { 128 } else { 32 }, p)
        });
        let model = model.insert(chain);
        secs(|| best_mapping(model, p, None)) * 1e3
    });
    probe("mapping", "mapping.frontier_ms", &mut |_| {
        secs(|| tradeoff_frontier(model.as_ref().expect("measured by the previous probe"), p)) * 1e3
    });

    out
}

/// The FFT-Hist stage chain with profiles measured on the simulator:
/// stage times in virtual seconds at power-of-two processor counts up
/// to `max_p`, stages separated by barriers whose cost is calibrated
/// out.
fn fft_hist_chain(n: usize, max_p: usize) -> ChainModel {
    let cfg = FftHistConfig::new(n, 1);
    let mut samples: [Vec<(usize, f64)>; 3] = Default::default();
    let mut p = 1;
    while p <= max_p {
        let rep = spmd(&Pin::E2E.machine(p), |cx| {
            let g = cx.group();
            let mut a1 = DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
            let mut a2 = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
            cx.barrier();
            let t0 = cx.now();
            cx.barrier();
            let barrier = cx.now() - t0;
            let mut mark = cx.now();
            let mut lap = |cx: &mut Cx| {
                cx.barrier();
                let dt = cx.now() - mark - barrier;
                mark = cx.now();
                dt.max(1e-9)
            };
            fill_input(cx, &mut a1, 0);
            cffts_local(cx, &mut a1);
            let cffts = lap(cx);
            assign2(cx, &mut a2, &a1);
            lap(cx);
            rffts_local(cx, &mut a2);
            let rffts = lap(cx);
            black_box(hist_local(cx, &a2, cfg.nbins, cfg.max_mag));
            [cffts, rffts, lap(cx)]
        });
        for (s, t) in samples.iter_mut().zip(rep.results[0]) {
            s.push((p, t));
        }
        p *= 2;
    }
    let volume = (n * n * std::mem::size_of::<Complex>()) as f64;
    let [cffts, rffts, hist] = samples;
    ChainModel::new(
        vec![
            StageProfile::from_samples("cffts", cffts),
            StageProfile::from_samples("rffts", rffts),
            StageProfile::from_samples("hist", hist),
        ],
        vec![
            Boundary {
                bytes: volume,
                all_to_all: true,
                fused_is_free: false,
            },
            Boundary {
                bytes: volume,
                all_to_all: false,
                fused_is_free: true,
            },
        ],
        NetParams::paragon(),
    )
}
