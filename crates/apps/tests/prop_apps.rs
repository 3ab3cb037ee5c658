//! Property tests over the applications: quicksort sorts anything on any
//! group size; FFT-Hist agrees with the sequential oracle under arbitrary
//! mappings, and served is the one-shot program to the bit; Barnes-Hut
//! worklists resolve for any replication depth.

use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::ffthist::{
    fft_hist_segmented, fft_hist_sets, fft_hist_stream, reference_histogram, FftHistConfig,
    Segments,
};
use fx_apps::qsort::qsort_global;
use fx_apps::util::{dealt, ReqCompletion, SET_DONE};
use fx_core::{request_trace_id, spmd, Machine, MachineModel};
use fx_darray::Participation;
use fx_kernels::nbody::BhTree;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quicksort sorts arbitrary keys on arbitrary processor counts.
    #[test]
    fn qsort_sorts_anything(
        keys in proptest::collection::vec(-1000i64..1000, 0..400),
        p in 1usize..7,
    ) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        let rep = spmd(&Machine::real(p), move |cx| qsort_global(cx, &keys));
        for r in rep.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Every legal segmentation of the FFT-Hist chain produces the exact
    /// sequential histograms — and the served program is the one-shot
    /// program under any of them: with a serving layer's hooks on the
    /// stream, every request completes exactly once, on the leader of the
    /// segment that ran `hist`, with the oracle's answer, at the very
    /// virtual time the one-shot run marks `set done`.
    #[test]
    fn fft_hist_any_segmentation_matches_oracle(
        seg_pattern in 0usize..4,
        procs in proptest::collection::vec(1usize..4, 3),
    ) {
        let seg_of_stage = match seg_pattern {
            0 => [0, 0, 0],
            1 => [0, 0, 1],
            2 => [0, 1, 1],
            _ => [0, 1, 2],
        };
        let nseg = seg_of_stage[2] + 1;
        let seg_procs: Vec<usize> = procs[..nseg].to_vec();
        let total: usize = seg_procs.iter().sum();
        let cfg = FftHistConfig { n: 16, datasets: 2, nbins: 8, max_mag: 64.0 };
        let sp = seg_procs.clone();
        let rep = spmd(&Machine::real(total), move |cx| {
            fft_hist_segmented(cx, &cfg, &[0, 1], seg_of_stage, &sp)
        });
        // The last segment's members hold the results.
        let holders: Vec<&Vec<Vec<u64>>> =
            rep.results.iter().filter(|r| !r.is_empty()).collect();
        prop_assert_eq!(holders.len(), *seg_procs.last().unwrap());
        for h in holders {
            prop_assert_eq!(h.len(), 2);
            for (d, hist) in h.iter().enumerate() {
                prop_assert_eq!(hist, &reference_histogram(&cfg, d), "dataset {}", d);
            }
        }

        let segs = Segments { seg_of_stage, procs: seg_procs, mode: Participation::Minimal };
        let reqs: [(usize, usize); 5] = [(40, 1), (41, 0), (42, 1), (43, 0), (44, 1)];
        for replicas in [1usize, 2] {
            let machine = Machine::simulated(total * replicas, MachineModel::paragon());
            let one_shot = spmd(&machine, |cx| {
                dealt(cx, replicas, reqs.iter().map(|r| r.1), |cx, mine| {
                    fft_hist_sets(cx, &cfg, &segs, &mine).len()
                })
            });
            let served = spmd(&machine.clone().with_tracing(true), |cx| {
                dealt(cx, replicas, reqs, |cx, mine| {
                    fft_hist_stream(
                        cx,
                        &cfg,
                        &segs,
                        &mine,
                        |&(_, d)| d,
                        |cx, &(req, _)| cx.set_trace(request_trace_id(req)),
                        |cx, &(req, _), output| {
                            (cx.id() == 0).then(|| ReqCompletion { req, done: cx.now(), output })
                        },
                    )
                })
            });
            let mut completed: Vec<usize> = Vec::new();
            for (proc, completions) in served.results.iter().enumerate() {
                // Only the leader of a module's last segment reports ...
                let leader = proc % total == total - segs.procs[nseg - 1];
                prop_assert_eq!(!completions.is_empty(), leader, "x{} proc {}", replicas, proc);
                // ... each of its requests, when the one-shot run is done
                // with the same data set on the same processor.
                let marks = one_shot.logs[proc].times_of(SET_DONE);
                prop_assert_eq!(completions.len(), if leader { marks.len() } else { 0 });
                for (c, mark) in completions.iter().zip(marks) {
                    let d = reqs.iter().find(|r| r.0 == c.req).unwrap().1;
                    prop_assert_eq!(&c.output, &reference_histogram(&cfg, d), "request {}", c.req);
                    prop_assert_eq!(c.done.to_bits(), mark.to_bits(), "x{} req {}", replicas, c.req);
                    completed.push(c.req);
                }
            }
            completed.sort_unstable();
            prop_assert_eq!(completed, reqs.map(|r| r.0).to_vec(), "x{}: once each", replicas);
        }
    }

    /// The Barnes-Hut worklist protocol resolves every particle for any
    /// replication depth k and processor count, matching sequential BH.
    #[test]
    fn barnes_hut_resolves_for_any_k(
        k in 0usize..6,
        p in 1usize..6,
        seed in 0u64..50,
    ) {
        let n = 64;
        let bodies = make_bodies(n, seed);
        let cfg = BhConfig { n, theta: 0.5, eps: 1e-3, k, leaf_group: 1 };
        let rep = spmd(&Machine::real(p), move |cx| bh_forces(cx, &bodies, &cfg));
        let tree = BhTree::build(make_bodies(n, seed));
        for (i, b) in tree.bodies.iter().enumerate() {
            let seq = tree.force_at(b.pos, cfg.theta, cfg.eps).unwrap();
            let got = rep.results[0][tree.order[i]];
            for d in 0..3 {
                prop_assert!(
                    (got[d] - seq[d]).abs() < 1e-9,
                    "particle {} axis {}: {} vs {}", i, d, got[d], seq[d]
                );
            }
        }
    }
}
