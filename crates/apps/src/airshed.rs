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
//! The program is written once, [`airshed_hours`], as a three-stage chain
//! on [`stage_chain`] — input | compute | output, a data set an hour — and
//! the paper's two versions are two of its mappings: [`airshed_dp`] the
//! fused chain, [`airshed_tp`] the pipeline `[1, P − 2, 1]`. `fx-bench`'s
//! mapping search picks among all of them for Figure 6's best column.
//!
//! The concentration matrix is a [`DArray3`] distributed
//! `(*, BLOCK, *)` over grid points; transport exchanges one ghost plane
//! of grid points, chemistry is purely local and dominates compute.

use fx_core::Cx;
use fx_darray::{assign3, exchange_plane_halo, DArray3, Dist};

use crate::util::{stage_chain, unit_hash, Segments, StreamMapping, SET_DONE, SET_START};

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

/// Airshed over the hours `hours` on the current group under `segs`: the
/// one program text, a chain of input | compute | output. Input and output
/// own one-processor arrays under every mapping — `(*, BLOCK_CYCLIC(all
/// gridpoints), *)` puts the whole array on the first member of the
/// stage's group — so each serial phase is charged on one processor, and
/// both hops are plain `assign3` statements: a scatter from that processor
/// and a gather back to it when the chain is fused, a hand-off between
/// subgroups when input and output have segments of their own. `conc`
/// carries from hour to hour, so the compute stage is never replicated.
/// Returns the final concentration checksum on the compute stage's
/// members and 0 elsewhere.
pub fn airshed_hours(
    cx: &mut Cx,
    cfg: &AirshedConfig,
    segs: &Segments,
    hours: impl IntoIterator<Item = usize>,
) -> f64 {
    stage_chain(cx, segs, |cx, st| {
        let one_owner = (Dist::Star, Dist::BlockCyclic(cfg.gridpoints), Dist::Star);
        // SUBGROUP(input) :: staged ; SUBGROUP(compute) :: conc ;
        // SUBGROUP(output) :: outbuf
        let mut staged = DArray3::new(cx, st.group(0), cfg.shape(), one_owner, 0f64);
        let mut conc = DArray3::new(cx, st.group(1), cfg.shape(), DIST, 0f64);
        let mut outbuf = DArray3::new(cx, st.group(2), cfg.shape(), one_owner, 0f64);
        for hour in hours {
            // The input task preprocesses hour `hour` — overlapping the
            // compute stage's previous hour when it has its own segment.
            st.on(cx, 0, |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                    cx.charge_seconds(cfg.input_seconds);
                }
                staged.for_each_owned(|a, g_, c, v| *v = hourly_input(hour, a, g_, c));
            });
            assign3(cx, &mut conc, &staged);
            st.on(cx, 1, |cx| compute_hour(cx, &mut conc, cfg, hour));
            // Raw output moves to the output processor, which "writes" it
            // while the compute stage continues with the next hour.
            assign3(cx, &mut outbuf, &conc);
            st.on(cx, 2, |cx| {
                if cx.id() == 0 {
                    cx.charge_seconds(cfg.output_seconds);
                    cx.record(SET_DONE);
                }
            });
        }
        st.on(cx, 1, |cx| checksum(cx, &conc)).unwrap_or(0.0)
    })
}

/// Data-parallel Airshed (Figure 6's DP curve): the whole chain fused on
/// the current group, its serial I/O phases on virtual processor 0.
/// Returns the final concentration checksum on every member.
pub fn airshed_dp(cx: &mut Cx, cfg: &AirshedConfig) -> f64 {
    airshed_hours(cx, cfg, &Segments::fused(cx.nprocs()), 0..cfg.hours)
}

/// Task-parallel Airshed (the paper's improvement): input and output on
/// single-processor subgroups of their own, overlapping the computation
/// on the rest. Returns the final checksum on the compute group's
/// members; the I/O processors return 0.
pub fn airshed_tp(cx: &mut Cx, cfg: &AirshedConfig) -> f64 {
    assert!(cx.nprocs() >= 3, "task-parallel airshed needs >= 3 processors");
    airshed_hours(cx, cfg, &Segments::pipeline([1, cx.nprocs() - 2, 1]), 0..cfg.hours)
}

/// Serve a batch of Airshed requests: each request is one full
/// simulation day (the configured hours) under `mapping`, which must not
/// replicate — hours carry state — and the group leader reports each
/// request's checksum and completion virtual time. The checksum lives on
/// the compute stage, so when input has a segment of its own it is
/// broadcast from the compute stage's first member to the reporting
/// leader — scheduling changes, the answer does not: the reported
/// checksum is bit-identical to the equivalent one-shot run.
pub fn airshed_requests(
    cx: &mut Cx,
    cfg: &AirshedConfig,
    mapping: StreamMapping,
    reqs: &[usize],
) -> Vec<crate::util::ReqCompletion<f64>> {
    let (replicas, segs) = mapping.segments(cx.nprocs());
    assert!(replicas.is_none(), "airshed hours carry state: {mapping:?} replicates them");
    let compute_leader = segs.procs[..segs.seg_of_stage[1]].iter().sum();
    let mut out = Vec::new();
    for &req in reqs {
        cx.set_trace(fx_core::request_trace_id(req));
        let v = airshed_hours(cx, cfg, &segs, 0..cfg.hours);
        let cs = if compute_leader == 0 { v } else { cx.bcast(compute_leader, v) };
        if cx.id() == 0 {
            out.push(crate::util::ReqCompletion { req, done: cx.now(), output: cs });
        }
    }
    out
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
        let machine = Machine::simulated(4, MachineModel::paragon());
        // The compute stage's first member holds the one-shot checksum.
        let oneshot_dp = spmd(&machine, move |cx| airshed_dp(cx, &cfg)).results[0];
        let oneshot_tp = spmd(&machine, move |cx| airshed_tp(cx, &cfg)).results[1];
        let mappings = [StreamMapping::DataParallel, StreamMapping::Pipeline([1, 2, 1])];
        for (mapping, expect) in mappings.into_iter().zip([oneshot_dp, oneshot_tp]) {
            let rep = spmd(&machine, move |cx| airshed_requests(cx, &cfg, mapping, &[7, 8]));
            let completions = &rep.results[0];
            assert_eq!(completions.len(), 2, "leader reports both requests");
            for c in completions {
                assert_eq!(c.output.to_bits(), expect.to_bits(), "{mapping:?}: bit-identical checksum");
            }
            for r in &rep.results[1..] {
                assert!(r.is_empty(), "only the leader reports");
            }
        }
    }

    #[test]
    #[should_panic(expected = "hours carry state")]
    fn requests_refuse_a_replicated_mapping() {
        let cfg = tiny_cfg();
        let twice = StreamMapping::Replicated { replicas: 2, pipeline: None };
        spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| {
            airshed_requests(cx, &cfg, twice, &[0])
        });
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
    fn gridpoints_not_divisible_by_processors() {
        let cfg = AirshedConfig { gridpoints: 13, ..tiny_cfg() };
        let dp = spmd(&Machine::real(5), move |cx| airshed_dp(cx, &cfg)).results[0];
        let seq = reference_checksum(&cfg);
        assert!((dp - seq).abs() < 1e-9 * seq.abs().max(1.0));
    }
}
