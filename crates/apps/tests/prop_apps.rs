//! Property tests over the applications: quicksort sorts anything on any
//! group size; FFT-Hist, Radar and Stereo agree with their sequential
//! oracles under arbitrary mappings, and served FFT-Hist is the one-shot
//! program to the bit; Barnes-Hut worklists resolve for any replication
//! depth.

use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::ffthist::{fft_hist_program, fft_hist_sets, reference_histogram, FftHistConfig};
use fx_apps::qsort::qsort_global;
use fx_apps::radar::{radar_sets, reference_detections, RadarConfig};
use fx_apps::stereo::{assemble_depth, reference_depth, stereo_sets, StereoConfig};
use fx_apps::util::{run_mapped, Placement, ReqCompletion, Segments, SET_DONE};
use fx_core::{request_trace_id, spmd, Machine, MachineModel, RunReport};
use fx_darray::Participation;
use fx_kernels::nbody::BhTree;
use proptest::prelude::*;

/// The chain's four segmentations, by number, with the drawn sizes of the
/// segments it has.
fn segmentation(pattern: usize, procs: &[usize]) -> Segments {
    let seg_of_stage = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 2]][pattern];
    let procs = procs[..=seg_of_stage[2]].to_vec();
    Segments { seg_of_stage, procs, mode: Participation::Minimal }
}

/// Checks a Radar or Stereo run — `replicas` modules of `segs` dealt
/// `sets` data sets round-robin, each processor returning `(dataset,
/// output)` pairs: every data set comes back exactly once per member of
/// its module's last segment, and from no one else. Returns those
/// members' outputs per data set, in rank order.
fn outputs_by_dataset<T: Clone>(
    rep: &RunReport<Vec<(usize, T)>>,
    segs: &Segments,
    replicas: usize,
    sets: usize,
) -> Vec<Vec<T>> {
    let module: usize = segs.procs.iter().sum();
    let last = *segs.procs.last().unwrap();
    let mut by_set: Vec<Vec<(usize, T)>> = vec![Vec::new(); sets];
    for (proc, pairs) in rep.results.iter().enumerate() {
        for (d, out) in pairs {
            by_set[*d].push((proc, out.clone()));
        }
    }
    by_set
        .into_iter()
        .enumerate()
        .map(|(d, held)| {
            let first = (d % replicas) * module + module - last;
            let holders: Vec<usize> = held.iter().map(|(p, _)| *p).collect();
            assert_eq!(holders, (first..first + last).collect::<Vec<_>>(), "data set {d}");
            held.into_iter().map(|(_, out)| out).collect()
        })
        .collect()
}

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
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| qsort_global(cx, &keys));
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
        let segs = segmentation(seg_pattern, &procs);
        let nseg = segs.procs.len();
        let total: usize = segs.procs.iter().sum();
        let cfg = FftHistConfig { n: 16, datasets: 2, nbins: 8, max_mag: 64.0 };
        let rep = spmd(&Machine::simulated(total, MachineModel::paragon()), |cx| fft_hist_sets(cx, &cfg, &segs, &[0, 1]));
        // The last segment's members hold the results.
        let holders: Vec<&Vec<Vec<u64>>> =
            rep.results.iter().filter(|r| !r.is_empty()).collect();
        prop_assert_eq!(holders.len(), segs.procs[nseg - 1]);
        for h in holders {
            prop_assert_eq!(h.len(), 2);
            for (d, hist) in h.iter().enumerate() {
                prop_assert_eq!(hist, &reference_histogram(&cfg, d), "dataset {}", d);
            }
        }

        let reqs: [(usize, usize); 5] = [(40, 1), (41, 0), (42, 1), (43, 0), (44, 1)];
        for replicas in [1usize, 2] {
            let machine = Machine::simulated(total * replicas, MachineModel::paragon());
            let placement = Placement::replicated(replicas, segs.clone());
            let one_shot = spmd(&machine, |cx| {
                run_mapped(cx, &placement, &reqs.map(|r| r.1), |cx, segs, mine| {
                    fft_hist_sets(cx, &cfg, segs, mine).len()
                })
            });
            let served = spmd(&machine.clone().with_tracing(true), |cx| {
                run_mapped(cx, &placement, &reqs, |cx, segs, mine| {
                    fft_hist_program(
                        cx,
                        &cfg,
                        segs,
                        mine,
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

    /// Radar under any segmentation of its chain (acquisition, Doppler
    /// FFT and scaling, thresholding and reduction), on one module or
    /// dealt over two, counts the oracle's detections for every data set,
    /// on exactly the members of its module's last segment.
    #[test]
    fn radar_any_mapping_matches_oracle(
        seg_pattern in 0usize..4,
        procs in proptest::collection::vec(1usize..4, 3),
    ) {
        let segs = segmentation(seg_pattern, &procs);
        let cfg =
            RadarConfig { ranges: 16, pulses: 8, datasets: 5, gain: 0.25, threshold: 0.6 };
        for replicas in [1usize, 2] {
            let p = replicas * segs.procs.iter().sum::<usize>();
            let (placement, sets) = (Placement::replicated(replicas, segs.clone()), [0, 1, 2, 3, 4]);
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), |cx| {
                run_mapped(cx, &placement, &sets, |cx, segs, mine| radar_sets(cx, &cfg, segs, mine))
            });
            let by_set = outputs_by_dataset(&rep, &segs, replicas, cfg.datasets);
            for (d, counts) in by_set.iter().enumerate() {
                for &c in counts {
                    prop_assert_eq!(c, reference_detections(&cfg, d), "x{} set {}", replicas, d);
                }
            }
        }
    }

    /// Stereo under any segmentation of its chain (shift + SSD, halo +
    /// window sums, argmin), on one module or dealt over two: the column
    /// tiles of the members of a module's last segment make up the
    /// oracle's depth image of each of its data sets.
    #[test]
    fn stereo_any_mapping_matches_oracle(
        seg_pattern in 0usize..4,
        procs in proptest::collection::vec(1usize..4, 3),
    ) {
        let segs = segmentation(seg_pattern, &procs);
        let cfg =
            StereoConfig { rows: 8, cols: 24, n_match: 2, max_disp: 3, window: 1, datasets: 3 };
        for replicas in [1usize, 2] {
            let p = replicas * segs.procs.iter().sum::<usize>();
            let (placement, sets) = (Placement::replicated(replicas, segs.clone()), [0, 1, 2]);
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), |cx| {
                run_mapped(cx, &placement, &sets, |cx, segs, mine| stereo_sets(cx, &cfg, segs, mine))
            });
            let by_set = outputs_by_dataset(&rep, &segs, replicas, cfg.datasets);
            for (d, tiles) in by_set.iter().enumerate() {
                let depth = assemble_depth(tiles, cfg.rows, cfg.cols);
                prop_assert_eq!(depth, reference_depth(&cfg, d), "x{} set {}", replicas, d);
            }
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
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| bh_forces(cx, &bodies, &cfg));
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
