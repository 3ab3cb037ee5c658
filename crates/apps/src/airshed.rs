//! Airshed air-quality simulation (McRae & Russell; paper §5.2,
//! Figure 6).
//!
//! The model advances a concentration matrix — "number of atmospheric
//! layers (5), number of grid points (500–5000) and number of chemical
//! species (35)" — through hourly phases: input the new hour's
//! conditions, a preprocessing transport step, `nsteps` iterations of
//! transport / chemistry / transport, then hourly output.
//!
//! The paper's scaling problem: the input and output phases are mainly
//! sequential — "well under 2% of the total time in sequential
//! execution" — and become the bottleneck once the computation is sped up
//! by data parallelism. The task-parallel version separates input and
//! output into tasks on their own (single-processor) subgroups so they
//! overlap the main computation, recovering ~25% at 64 processors
//! (Figure 6).
//!
//! The concentration matrix is a [`DArray3`] distributed
//! `(*, BLOCK, *)` over grid points; transport exchanges one ghost plane
//! of grid points, chemistry is purely local and dominates compute.

use fx_core::{Cx, Size};
use fx_darray::{assign3, exchange_plane_halo, DArray3, Dist};

use crate::util::unit_hash;

/// Problem parameters for the Airshed model.
#[derive(Debug, Clone, Copy)]
pub struct AirshedConfig {
    /// Grid points (paper: 500–5000).
    pub gridpoints: usize,
    /// Atmospheric layers (paper: 5).
    pub layers: usize,
    /// Chemical species (paper: 35).
    pub species: usize,
    /// Simulated hours.
    pub hours: usize,
    /// Transport/chemistry iterations per hour.
    pub nsteps: usize,
    /// Modeled serial seconds per hourly input phase.
    pub input_seconds: f64,
    /// Modeled serial seconds per hourly output phase.
    pub output_seconds: f64,
    /// Flops per matrix cell for one chemistry step (dominant).
    pub chem_flops_per_cell: f64,
    /// Flops per matrix cell for one transport step.
    pub trans_flops_per_cell: f64,
}

impl AirshedConfig {
    /// A configuration whose serial I/O share matches the paper's "well
    /// under 2% of sequential time" description.
    pub fn paper() -> Self {
        AirshedConfig {
            gridpoints: 2500,
            layers: 5,
            species: 35,
            hours: 4,
            nsteps: 4,
            input_seconds: 0.35,
            output_seconds: 0.35,
            chem_flops_per_cell: 400.0,
            trans_flops_per_cell: 60.0,
        }
    }

    /// Total cells of the concentration matrix.
    pub fn cells(&self) -> usize {
        self.layers * self.gridpoints * self.species
    }

    fn shape(&self) -> [usize; 3] {
        [self.layers, self.gridpoints, self.species]
    }
}

const DIST: (Dist, Dist, Dist) = (Dist::Star, Dist::Block, Dist::Star);

/// One transport step: ghost-plane exchange over grid points plus a
/// diffusion-flavoured per-cell update. Collective over the array group.
fn transport(cx: &mut Cx, conc: &mut DArray3<f64>, cfg: &AirshedConfig) {
    let halo = exchange_plane_halo(cx, conc, 1);
    let (l0, l1, l2) = conc.local_dims();
    if l1 == 0 {
        return;
    }
    // In place, one row (one plane of one layer) at a time: `prev` holds
    // the old values of the row above, and the row below is still old.
    let mut prev = vec![0f64; l2];
    let mut last = vec![0f64; l2];
    for (a, layer) in conc.local_mut().chunks_exact_mut(l1 * l2).enumerate() {
        let ghost = a * l2..(a + 1) * l2;
        // At a global edge the missing neighbour is clamped to the row
        // itself.
        let before = if halo.before.is_empty() { &layer[..l2] } else { &halo.before[ghost.clone()] };
        prev.copy_from_slice(before);
        let after = if halo.after.is_empty() {
            last.copy_from_slice(&layer[(l1 - 1) * l2..]);
            &last
        } else {
            &halo.after[ghost]
        };
        for b in 0..l1 {
            let (row, below) = layer[b * l2..].split_at_mut(l2);
            let next = if b + 1 < l1 { &below[..l2] } else { after };
            smooth_row(row, &mut prev, next);
        }
    }
    cx.charge_flops(cfg.trans_flops_per_cell * (l0 * l1 * l2) as f64);
}

/// `row = 0.5·row + 0.25·(prev + next)` element-wise, leaving the row's
/// old values in `prev` for the row after it.
fn smooth_row(row: &mut [f64], prev: &mut [f64], next: &[f64]) {
    for ((v, p), &n) in row.iter_mut().zip(prev.iter_mut()).zip(next) {
        let cur = *v;
        *v = 0.5 * cur + 0.25 * (*p + n);
        *p = cur;
    }
}

/// One chemistry step: purely local, compute-dominant per-cell work.
fn chemistry(cx: &mut Cx, conc: &mut DArray3<f64>, cfg: &AirshedConfig) {
    for v in conc.local_mut() {
        // A stand-in for the stiff chemistry solve, keeping values bounded.
        *v = (*v * 0.999).abs().min(1.0);
    }
    cx.charge_flops(cfg.chem_flops_per_cell * conc.local().len() as f64);
}

/// Synthetic hourly boundary conditions.
fn hourly_input(hour: usize, layer: usize, g: usize, s: usize) -> f64 {
    unit_hash((hour as u64) << 8 | layer as u64, g as u64, s as u64) * 1e-3
}

/// Transport/chemistry iterations of hour `hour` — "the number of
/// iterations is determined at runtime depending on the hourly input"
/// (paper §5.2). Deterministically derived from the hour's data, varying
/// around the configured base.
pub fn nsteps_for(cfg: &AirshedConfig, hour: usize) -> usize {
    let wiggle = (unit_hash(hour as u64, 0x5747, 0x4E53) * 3.0) as usize; // 0, 1 or 2
    (cfg.nsteps + wiggle).saturating_sub(1).max(1)
}

/// The main computation phase of one hour (pretrans + runtime-determined
/// step loop).
fn compute_hour(cx: &mut Cx, conc: &mut DArray3<f64>, cfg: &AirshedConfig, hour: usize) {
    transport(cx, conc, cfg); // pretrans
    for _ in 0..nsteps_for(cfg, hour) {
        transport(cx, conc, cfg);
        chemistry(cx, conc, cfg);
        transport(cx, conc, cfg);
    }
}

/// Checksum of the local tile, reduced over the current group.
fn checksum(cx: &mut Cx, conc: &DArray3<f64>) -> f64 {
    let local: f64 = conc.local().iter().sum();
    cx.allreduce(local, |a, b| a + b)
}

/// Data-parallel Airshed: the serial I/O phases run on virtual processor
/// 0 of the current group, everyone else waits on the distributed data.
/// Returns the final concentration checksum.
pub fn airshed_dp(cx: &mut Cx, cfg: &AirshedConfig) -> f64 {
    let g = cx.group();
    let mut conc = DArray3::new(cx, &g, cfg.shape(), DIST, 0f64);
    for hour in 0..cfg.hours {
        if cx.id() == 0 {
            cx.charge_seconds(cfg.input_seconds);
        }
        scatter_from_zero(cx, &mut conc, hour);
        compute_hour(cx, &mut conc, cfg, hour);
        gather_to_zero(cx, &conc);
        if cx.id() == 0 {
            cx.charge_seconds(cfg.output_seconds);
            cx.record("hour done");
        }
    }
    checksum(cx, &conc)
}

/// Distribute hour `hour`'s data from virtual processor 0 to the owners
/// (an explicit scatter: 0 materializes and sends each member's block of
/// grid-point planes).
fn scatter_from_zero(cx: &mut Cx, conc: &mut DArray3<f64>, hour: usize) {
    let tag = cx.next_op_tag();
    let p = cx.nprocs();
    let me = cx.id();
    let block = conc.shape()[1].div_ceil(p); // BLOCK plane count
    if me == 0 {
        for v in 1..p {
            let (l0, l1, l2) = conc.local_dims_of(v);
            if l0 * l1 * l2 == 0 {
                continue;
            }
            let first = v * block;
            let mut buf = Vec::with_capacity(l0 * l1 * l2);
            for a in 0..l0 {
                for b in 0..l1 {
                    for c in 0..l2 {
                        buf.push(hourly_input(hour, a, first + b, c));
                    }
                }
            }
            cx.send_v(v, tag, buf);
        }
        conc.for_each_owned(|a, g_, c, val| *val = hourly_input(hour, a, g_, c));
    } else if !conc.local().is_empty() {
        let buf: Vec<f64> = cx.recv_v(0, tag);
        conc.local_mut().copy_from_slice(&buf);
    }
}

/// Gather the concentration matrix to virtual processor 0 for output.
fn gather_to_zero(cx: &mut Cx, conc: &DArray3<f64>) {
    let tag = cx.next_op_tag();
    let p = cx.nprocs();
    let me = cx.id();
    if me == 0 {
        for v in 1..p {
            let (l0, l1, l2) = conc.local_dims_of(v);
            if l0 * l1 * l2 == 0 {
                continue;
            }
            let _block: Vec<f64> = cx.recv_v(v, tag);
        }
    } else if !conc.local().is_empty() {
        cx.send_v(0, tag, conc.local().to_vec());
    }
}

/// Task-parallel Airshed (the paper's improvement): input and output run
/// as tasks on their own single-processor subgroups, overlapping the main
/// computation. Returns the final checksum (on main-group members; the
/// I/O processors return 0).
pub fn airshed_tp(cx: &mut Cx, cfg: &AirshedConfig) -> f64 {
    assert!(cx.nprocs() >= 3, "task-parallel airshed needs >= 3 processors");
    let part = cx.task_partition(&[
        ("input", Size::Procs(1)),
        ("main", Size::Rest),
        ("output", Size::Procs(1)),
    ]);
    let g_in = part.group("input");
    let g_main = part.group("main");
    let g_out = part.group("output");
    // SUBGROUP(input) :: staged ; SUBGROUP(main) :: conc ;
    // SUBGROUP(output) :: outbuf
    let mut staged = DArray3::new(cx, &g_in, cfg.shape(), DIST, 0f64);
    let mut conc = DArray3::new(cx, &g_main, cfg.shape(), DIST, 0f64);
    let mut outbuf = DArray3::new(cx, &g_out, cfg.shape(), DIST, 0f64);
    let mut result = 0.0;

    cx.task_region(&part, |cx, tr| {
        for hour in 0..cfg.hours {
            // The input task preprocesses hour `hour` — overlapping the
            // main task's previous hour thanks to subset skipping.
            tr.on(cx, "input", |cx| {
                cx.charge_seconds(cfg.input_seconds);
                staged.for_each_owned(|a, g_, c, v| *v = hourly_input(hour, a, g_, c));
            });
            // Hand the staged hour to the compute group (parent scope;
            // only input ∪ main participate).
            assign3(cx, &mut conc, &staged);
            tr.on(cx, "main", |cx| {
                compute_hour(cx, &mut conc, cfg, hour);
            });
            // Raw output moves to the output task, which "writes" it
            // while main continues with the next hour.
            assign3(cx, &mut outbuf, &conc);
            tr.on(cx, "output", |cx| {
                cx.charge_seconds(cfg.output_seconds);
                cx.record("hour done");
            });
        }
        if let Some(v) = tr.on(cx, "main", |cx| checksum(cx, &conc)) {
            result = v;
        }
    });
    result
}

/// Serve a batch of Airshed requests: each request is one full
/// simulation day (the configured hour stream), and the group leader
/// reports each request's checksum and completion virtual time. Under
/// the task-parallel version the checksum lives on the main group, whose
/// leader is world virtual rank 1 (rank 0 is the input task), so it is
/// broadcast to the reporting leader first — scheduling changes, the
/// answer does not: the reported checksum is bit-identical to the
/// equivalent one-shot [`airshed_dp`] / [`airshed_tp`] run.
pub fn airshed_requests(
    cx: &mut Cx,
    cfg: &AirshedConfig,
    task_parallel: bool,
    reqs: &[usize],
) -> Vec<crate::util::ReqCompletion<f64>> {
    let mut out = Vec::new();
    for &req in reqs {
        cx.set_trace(fx_core::request_trace_id(req));
        let cs = if task_parallel {
            let v = airshed_tp(cx, cfg);
            cx.bcast(1, v)
        } else {
            airshed_dp(cx, cfg)
        };
        if cx.id() == 0 {
            out.push(crate::util::ReqCompletion { req, done: cx.now(), output: cs });
        }
    }
    out
}

/// Predicted per-hour times of the two program versions on `p`
/// processors under `model` — the little performance model behind
/// [`airshed_best`]. Returns `(t_dp, t_tp)`.
pub fn predict_hour_times(cfg: &AirshedConfig, p: usize, flop_time: f64) -> (f64, f64) {
    // Uses the configured base step count as the estimate; actual
    // hours vary around it (nsteps_for), which the selector tolerates.
    let steps = 1 + 3 * cfg.nsteps;
    let chem_steps = cfg.nsteps;
    let compute_flops = cfg.cells() as f64
        * (steps as f64 * cfg.trans_flops_per_cell
            + chem_steps as f64 * cfg.chem_flops_per_cell);
    let io = cfg.input_seconds + cfg.output_seconds;
    let t_dp = compute_flops * flop_time / p as f64 + io;
    let t_tp = if p >= 3 {
        (compute_flops * flop_time / (p - 2) as f64)
            .max(cfg.input_seconds)
            .max(cfg.output_seconds)
    } else {
        f64::INFINITY
    };
    (t_dp, t_tp)
}

/// Pick and run the better program version for this machine size — the
/// "automatic tools to achieve different performance goals" the paper
/// closes §5.1 with, applied to Figure 6: separated I/O tasks only pay
/// off once the serial phases actually bottleneck the computation.
pub fn airshed_best(cx: &mut Cx, cfg: &AirshedConfig) -> f64 {
    let flop_time = match cx.time_mode() {
        fx_core::TimeMode::Simulated(m) => m.flop_time,
        fx_core::TimeMode::Real => 1e-7,
    };
    let (t_dp, t_tp) = predict_hour_times(cfg, cx.nprocs(), flop_time);
    if t_tp < t_dp {
        airshed_tp(cx, cfg)
    } else {
        airshed_dp(cx, cfg)
    }
}

/// Sequential oracle for the checksum: the same per-hour phase sequence
/// on one in-memory `layers x gridpoints x species` array, with the same
/// edge clamping, so results agree to rounding.
pub fn reference_checksum(cfg: &AirshedConfig) -> f64 {
    let (l, gp, sp) = (cfg.layers, cfg.gridpoints, cfg.species);
    let mut m = vec![0f64; l * gp * sp];
    let idx = |a: usize, b: usize, c: usize| (a * gp + b) * sp + c;
    let seq_transport = |m: &mut Vec<f64>| {
        let read = m.clone();
        for a in 0..l {
            for b in 0..gp {
                for c in 0..sp {
                    let before = read[idx(a, b.saturating_sub(1), c)];
                    let after = read[idx(a, (b + 1).min(gp - 1), c)];
                    m[idx(a, b, c)] = 0.5 * read[idx(a, b, c)] + 0.25 * (before + after);
                }
            }
        }
    };
    let seq_chemistry = |m: &mut Vec<f64>| {
        for v in m.iter_mut() {
            *v = (*v * 0.999).abs().min(1.0);
        }
    };
    for hour in 0..cfg.hours {
        for a in 0..l {
            for b in 0..gp {
                for c in 0..sp {
                    m[idx(a, b, c)] = hourly_input(hour, a, b, c);
                }
            }
        }
        seq_transport(&mut m); // pretrans
        for _ in 0..nsteps_for(cfg, hour) {
            seq_transport(&mut m);
            seq_chemistry(&mut m);
            seq_transport(&mut m);
        }
    }
    m.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, MachineModel};

    fn tiny_cfg() -> AirshedConfig {
        AirshedConfig {
            gridpoints: 12,
            layers: 2,
            species: 3,
            hours: 2,
            nsteps: 2,
            input_seconds: 0.05,
            output_seconds: 0.05,
            chem_flops_per_cell: 100.0,
            trans_flops_per_cell: 20.0,
        }
    }

    /// The per-element transport the row-slice one replaced, kept as its
    /// oracle.
    fn transport_per_element(cx: &mut Cx, conc: &mut DArray3<f64>, cfg: &AirshedConfig) {
        let halo = exchange_plane_halo(cx, conc, 1);
        let (l0, l1, l2) = conc.local_dims();
        if l1 == 0 {
            return;
        }
        let read = conc.local().to_vec();
        let at = |a: usize, b: isize, c: usize| -> f64 {
            if b < 0 {
                if halo.before.is_empty() {
                    read[(a * l1) * l2 + c]
                } else {
                    halo.before[a * l2 + c]
                }
            } else if (b as usize) < l1 {
                read[(a * l1 + b as usize) * l2 + c]
            } else if halo.after.is_empty() {
                read[(a * l1 + l1 - 1) * l2 + c]
            } else {
                halo.after[a * l2 + c]
            }
        };
        let local = conc.local_mut();
        for a in 0..l0 {
            for b in 0..l1 {
                for c in 0..l2 {
                    let v = 0.5 * read[(a * l1 + b) * l2 + c]
                        + 0.25 * (at(a, b as isize - 1, c) + at(a, b as isize + 1, c));
                    local[(a * l1 + b) * l2 + c] = v;
                }
            }
        }
        cx.charge_flops(cfg.trans_flops_per_cell * (l0 * l1 * l2) as f64);
    }

    #[test]
    fn row_slice_transport_matches_the_per_element_oracle_bitwise() {
        // Group ends with empty halos, one-plane tiles (13 over 5 ends on a
        // single plane, 4 over 4 is all single planes) and members with no
        // plane at all (13 over 6, 1 over 3).
        let mut seen = Vec::new();
        for (gridpoints, p) in [(13, 5), (13, 6), (4, 4), (12, 3), (1, 3)] {
            let cfg = AirshedConfig { gridpoints, ..tiny_cfg() };
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| {
                let g = cx.group();
                let data: Vec<f64> =
                    (0..cfg.cells()).map(|i| unit_hash(9, i as u64, 0)).collect();
                let mut rows = DArray3::from_global(cx, &g, cfg.shape(), DIST, &data);
                let mut oracle = rows.clone();
                for _ in 0..3 {
                    transport(cx, &mut rows, &cfg);
                    transport_per_element(cx, &mut oracle, &cfg);
                }
                let bits = |a: &DArray3<f64>| a.local().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                (rows.local_dims().1, bits(&rows), bits(&oracle))
            });
            for (v, (planes, got, want)) in rep.results.iter().enumerate() {
                assert_eq!(got, want, "{gridpoints} gridpoints over {p}: member {v} ({planes} planes)");
            }
            seen.extend(rep.results.iter().map(|r| r.0));
        }
        assert!(seen.contains(&0) && seen.contains(&1), "tile sizes covered: {seen:?}");
    }

    #[test]
    fn request_adapter_reports_oneshot_identical_checksums() {
        let cfg = tiny_cfg();
        let oneshot_dp =
            spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| airshed_dp(cx, &cfg))
                .results[0];
        let oneshot_tp =
            spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| airshed_tp(cx, &cfg))
                .results[1];
        for tp in [false, true] {
            let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| {
                airshed_requests(cx, &cfg, tp, &[7, 8])
            });
            let completions = &rep.results[0];
            assert_eq!(completions.len(), 2, "leader reports both requests");
            let expect = if tp { oneshot_tp } else { oneshot_dp };
            for c in completions {
                assert_eq!(c.output.to_bits(), expect.to_bits(), "tp={tp}: bit-identical checksum");
            }
            for r in &rep.results[1..] {
                assert!(r.is_empty(), "only the leader reports");
            }
        }
    }

    #[test]
    fn dp_and_tp_agree_on_the_physics() {
        let cfg = tiny_cfg();
        let dp = spmd(&Machine::real(4), move |cx| airshed_dp(cx, &cfg));
        let tp = spmd(&Machine::real(4), move |cx| airshed_tp(cx, &cfg));
        let dp_val = dp.results[0];
        // TP: main group members (phys 1, 2) hold the checksum.
        let tp_val = tp.results[1];
        assert!(
            (dp_val - tp_val).abs() < 1e-9 * dp_val.abs().max(1.0),
            "dp {dp_val} vs tp {tp_val}"
        );
        assert!(dp_val != 0.0);
    }

    #[test]
    fn dp_matches_sequential_reference() {
        let cfg = tiny_cfg();
        let dp = spmd(&Machine::real(3), move |cx| airshed_dp(cx, &cfg)).results[0];
        let seq = reference_checksum(&cfg);
        assert!((dp - seq).abs() < 1e-9 * seq.abs().max(1.0), "dp {dp} vs seq {seq}");
    }

    #[test]
    fn dp_is_deterministic_across_processor_counts() {
        let cfg = tiny_cfg();
        let a = spmd(&Machine::real(1), move |cx| airshed_dp(cx, &cfg)).results[0];
        let b = spmd(&Machine::real(3), move |cx| airshed_dp(cx, &cfg)).results[0];
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn tp_overlaps_io_with_compute() {
        // With serial I/O comparable to the per-hour compute, the
        // task-parallel version must finish measurably earlier.
        let cfg = AirshedConfig {
            gridpoints: 64,
            layers: 2,
            species: 4,
            hours: 4,
            nsteps: 2,
            input_seconds: 0.5,
            output_seconds: 0.5,
            chem_flops_per_cell: 2000.0,
            trans_flops_per_cell: 200.0,
        };
        let m = MachineModel::paragon();
        let dp = spmd(&Machine::simulated(6, m), move |cx| {
            airshed_dp(cx, &cfg);
        });
        let tp = spmd(&Machine::simulated(6, m), move |cx| {
            airshed_tp(cx, &cfg);
        });
        let (t_dp, t_tp) = (dp.makespan(), tp.makespan());
        assert!(
            t_tp < 0.85 * t_dp,
            "task parallelism should overlap I/O: dp {t_dp:.3}s tp {t_tp:.3}s"
        );
    }

    #[test]
    fn best_variant_never_loses_to_either() {
        let cfg = AirshedConfig {
            gridpoints: 64,
            layers: 2,
            species: 4,
            hours: 2,
            nsteps: 2,
            input_seconds: 0.4,
            output_seconds: 0.4,
            chem_flops_per_cell: 2000.0,
            trans_flops_per_cell: 200.0,
        };
        let m = MachineModel::paragon();
        for p in [4usize, 8, 16] {
            let t_dp = spmd(&Machine::simulated(p, m), move |cx| {
                airshed_dp(cx, &cfg);
            })
            .makespan();
            let t_tp = spmd(&Machine::simulated(p, m), move |cx| {
                airshed_tp(cx, &cfg);
            })
            .makespan();
            let t_best = spmd(&Machine::simulated(p, m), move |cx| {
                airshed_best(cx, &cfg);
            })
            .makespan();
            let floor = t_dp.min(t_tp);
            assert!(
                t_best <= floor * 1.05,
                "p={p}: best {t_best:.3} should track min(dp {t_dp:.3}, tp {t_tp:.3})"
            );
        }
    }

    #[test]
    fn gridpoints_not_divisible_by_processors() {
        let cfg = AirshedConfig { gridpoints: 13, ..tiny_cfg() };
        let dp = spmd(&Machine::real(5), move |cx| airshed_dp(cx, &cfg)).results[0];
        let seq = reference_checksum(&cfg);
        assert!((dp - seq).abs() < 1e-9 * seq.abs().max(1.0));
    }
}
