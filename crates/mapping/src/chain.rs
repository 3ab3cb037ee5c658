//! Latency-optimal mapping of a chain of data-parallel tasks under a
//! throughput constraint — the algorithms of the paper's references [21]
//! (Subhlok & Vondran, PPoPP '95) and [22] (SPAA '96), which the paper
//! uses ("along with the use of mapping algorithms presented in
//! [21, 22], allows us to automatically determine the best mapping of a
//! program for different performance goals", §5.1 / Figure 5).
//!
//! The search space:
//!
//! * the chain may be **replicated** into `r` identical modules
//!   (datasets dealt round-robin, multiplying throughput by `r`);
//! * within a module, the chain is split into contiguous **segments**;
//!   each segment is a fused data-parallel task on its own processor
//!   subset, and segments form a pipeline;
//! * a segment's *period* is its compute time plus its share of the
//!   boundary transfer costs; module throughput is `1 / max period`,
//!   module latency is the sum of periods along the chain.
//!
//! Boundary transfers are priced with per-message software overheads —
//! the dominant cost of HPF-level redistribution on the paper's machine —
//! so the model distinguishes **all-to-all** boundaries (distribution
//! changes: every sender talks to every receiver) from **aligned** ones,
//! and boundaries whose redistribution is required *even inside a fused
//! segment* (FFT-Hist's cffts→rffts transpose) from ones fusion
//! eliminates (rffts→hist, same distribution).
//!
//! The search is exact at any chain depth: one dynamic programme over
//! chain prefixes per replication factor dividing the machine finds the
//! mappings that no other dominates, the frontier
//! ([`tradeoff_frontier`](crate::tradeoff_frontier)), and every question
//! is a read of it: [`best_mapping`](crate::best_mapping) is its
//! least-latency point that meets the throughput constraint,
//! [`fastest_for`](crate::fastest_for) its point that finishes a batch
//! first, and its last point is the throughput ceiling.

use serde::{Deserialize, Serialize};

use crate::profile::StageProfile;

/// Interconnect parameters used to price the data transfer between
/// adjacent pipeline segments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetParams {
    /// Seconds per byte (inverse bandwidth).
    pub sec_per_byte: f64,
    /// Per-message CPU overhead on each side (the HPF runtime's
    /// pack/schedule/unpack cost).
    pub o_msg: f64,
    /// Wire latency per transfer in seconds.
    pub latency: f64,
}

impl NetParams {
    /// The simulated Paragon's network: `fx_runtime::MachineModel::paragon()`'s
    /// numbers, pinned to it by `fx-bench`'s `net_params` test (this crate
    /// stays free of a runtime dependency).
    pub fn paragon() -> Self {
        NetParams { sec_per_byte: 1.0 / 30e6, o_msg: 300e-6, latency: 60e-6 }
    }

    /// Free communication (tests).
    pub fn zero() -> Self {
        NetParams { sec_per_byte: 0.0, o_msg: 0.0, latency: 0.0 }
    }
}

/// One stage boundary of the chain.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Boundary {
    /// Bytes crossing per data set.
    pub bytes: f64,
    /// Distribution changes across this boundary, so every sender
    /// exchanges messages with every receiver (e.g. a transpose).
    pub all_to_all: bool,
    /// Fusing the two stages onto one processor set eliminates the
    /// transfer (same distribution on both sides). When false, the
    /// redistribution happens even inside a fused segment.
    pub fused_is_free: bool,
}

/// The chain of tasks to map: per-stage cost profiles plus a boundary
/// descriptor between each adjacent pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChainModel {
    /// Per-stage cost profiles, in chain order.
    pub stages: Vec<StageProfile>,
    /// Boundary descriptors between adjacent stages.
    pub boundaries: Vec<Boundary>,
    /// Interconnect pricing.
    pub net: NetParams,
}

impl ChainModel {
    /// Build a chain model; validates one boundary per adjacent pair.
    pub fn new(stages: Vec<StageProfile>, boundaries: Vec<Boundary>, net: NetParams) -> Self {
        assert!(!stages.is_empty(), "chain needs at least one stage");
        assert_eq!(boundaries.len(), stages.len() - 1, "one boundary per adjacent pair");
        ChainModel { stages, boundaries, net }
    }

    /// Per-processor cost on the *sending* side of boundary `b` when the
    /// upstream runs on `q_src` and the downstream on `q_dst` processors.
    fn send_side(&self, b: usize, q_src: usize, q_dst: usize) -> f64 {
        let bd = &self.boundaries[b];
        let msgs = if bd.all_to_all { q_dst } else { q_dst.div_ceil(q_src).max(1) };
        msgs as f64 * self.net.o_msg + bd.bytes / q_src as f64 * self.net.sec_per_byte
    }

    /// Per-processor cost on the *receiving* side of boundary `b`.
    fn recv_side(&self, b: usize, q_src: usize, q_dst: usize) -> f64 {
        let bd = &self.boundaries[b];
        let msgs = if bd.all_to_all { q_src } else { q_src.div_ceil(q_dst).max(1) };
        msgs as f64 * self.net.o_msg + bd.bytes / q_dst as f64 * self.net.sec_per_byte
    }

    /// Cost of boundary `b` performed *inside* a fused segment of `q`
    /// processors (zero when fusion eliminates the redistribution).
    fn internal_cost(&self, b: usize, q: usize) -> f64 {
        if self.boundaries[b].fused_is_free {
            0.0
        } else {
            self.send_side(b, q, q) + self.recv_side(b, q, q) + self.net.latency
        }
    }

    /// Period of the fused segment covering stages `i..=j` on `q`
    /// processors, given the upstream segment width (`None` for the
    /// first segment), up to its outbound send: inbound receive + compute
    /// (`time(k)` for stage `k`) + internal redistributions.
    pub(crate) fn open_period(
        &self,
        i: usize,
        j: usize,
        q: usize,
        q_prev: Option<usize>,
        time: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut t = 0.0;
        if let (true, Some(qp)) = (i > 0, q_prev) {
            t += self.recv_side(i - 1, qp, q) + self.net.latency;
        }
        for k in i..=j {
            t += time(k);
            if k < j {
                t += self.internal_cost(k, q);
            }
        }
        t
    }

    /// An open period `t` of a segment ending at stage `j` on `q`
    /// processors, completed by its outbound send side, charged with the
    /// downstream width `q_next` when known.
    pub(crate) fn outbound(&self, mut t: f64, j: usize, q: usize, q_next: Option<usize>) -> f64 {
        if let (true, Some(qn)) = (j + 1 < self.stages.len(), q_next) {
            t += self.send_side(j, q, qn);
        }
        t
    }
}

/// One pipeline segment of a mapped module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// First stage index of the segment.
    pub first: usize,
    /// Last stage index (inclusive).
    pub last: usize,
    /// Processors assigned.
    pub procs: usize,
}

/// A complete mapping: `modules` identical replicas, each pipelined into
/// `segments` (covering the whole chain, in order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// Replication factor (identical modules, round-robin data sets).
    pub modules: usize,
    /// Pipeline segments within one module, covering the chain in order.
    pub segments: Vec<Segment>,
}

impl Mapping {
    /// True when this is the plain data-parallel mapping.
    pub fn is_pure_data_parallel(&self) -> bool {
        self.modules == 1 && self.segments.len() == 1
    }

    /// Human-readable rendering, e.g. `2x [cffts+rffts:24 | hist:8]`.
    pub fn render(&self, model: &ChainModel) -> String {
        let segs: Vec<String> = self
            .segments
            .iter()
            .map(|s| {
                let names: Vec<&str> =
                    (s.first..=s.last).map(|k| model.stages[k].name.as_str()).collect();
                format!("{}:{}", names.join("+"), s.procs)
            })
            .collect();
        format!("{}x [{}]", self.modules, segs.join(" | "))
    }
}

/// A mapping together with its predicted performance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluated {
    /// The mapping evaluated.
    pub mapping: Mapping,
    /// Predicted per-dataset latency in seconds.
    pub latency: f64,
    /// Predicted steady-state throughput in datasets/second.
    pub throughput: f64,
}

/// Evaluate a specific mapping against the model.
pub fn evaluate(model: &ChainModel, mapping: &Mapping) -> Evaluated {
    assert!(mapping.modules >= 1);
    let m = model.stages.len();
    let mut latency = 0.0;
    let mut worst_period = 0.0f64;
    let mut next = 0;
    for (si, seg) in mapping.segments.iter().enumerate() {
        assert_eq!(seg.first, next, "segments must cover the chain in order");
        assert!(seg.procs >= 1);
        let q_prev = si.checked_sub(1).map(|p| mapping.segments[p].procs);
        let q_next = mapping.segments.get(si + 1).map(|s| s.procs);
        let open = model.open_period(seg.first, seg.last, seg.procs, q_prev, |k| model.stages[k].time(seg.procs));
        let t = model.outbound(open, seg.last, seg.procs, q_next);
        latency += t;
        worst_period = worst_period.max(t);
        next = seg.last + 1;
    }
    assert_eq!(next, m, "segments must cover every stage");
    Evaluated {
        mapping: mapping.clone(),
        latency,
        throughput: mapping.modules as f64 / worst_period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{best_mapping, tradeoff_frontier};

    fn free_boundaries(n: usize) -> Vec<Boundary> {
        vec![Boundary { bytes: 0.0, all_to_all: false, fused_is_free: true }; n]
    }

    fn ideal_chain(works: &[f64], max_p: usize) -> ChainModel {
        let stages = works
            .iter()
            .enumerate()
            .map(|(i, &w)| StageProfile::ideal(format!("s{i}"), w, max_p))
            .collect();
        ChainModel::new(stages, free_boundaries(works.len() - 1), NetParams::zero())
    }

    #[test]
    fn unconstrained_ideal_chain_is_pure_data_parallel() {
        let model = ideal_chain(&[8.0, 4.0, 2.0], 64);
        let best = best_mapping(&model, 16, None).unwrap();
        assert!(best.mapping.is_pure_data_parallel(), "{:?}", best.mapping);
        assert!((best.latency - 14.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_constraint_forces_replication_on_nonscaling_stages() {
        let flat = StageProfile::from_samples("flat", vec![(1, 2.0), (2, 1.0), (64, 1.0)]);
        let model = ChainModel::new(vec![flat], vec![], NetParams::zero());
        // Every module of two or more processors takes 1 s, so the
        // least-latency mapping no other dominates is the widest
        // replication that keeps two processors a module.
        let unconstrained = best_mapping(&model, 8, None).unwrap();
        assert_eq!(unconstrained.mapping.modules, 4);
        assert!((unconstrained.throughput - 4.0).abs() < 1e-9);
        let constrained = best_mapping(&model, 8, Some(3.5)).unwrap();
        assert_eq!(constrained.mapping.modules, 4);
        assert!((constrained.throughput - 4.0).abs() < 1e-9);
        assert!((constrained.latency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_constraint_returns_none_and_max_throughput_reports_ceiling() {
        let flat = StageProfile::from_samples("flat", vec![(1, 1.0), (64, 1.0)]);
        let model = ChainModel::new(vec![flat], vec![], NetParams::zero());
        assert!(best_mapping(&model, 4, Some(100.0)).is_none());
        let frontier = tradeoff_frontier(&model, 4);
        let ceiling = frontier.last().unwrap();
        assert!((ceiling.throughput - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_beats_fusion_when_stages_do_not_scale() {
        let f1 = StageProfile::from_samples("a", vec![(1, 1.0), (64, 1.0)]);
        let f2 = StageProfile::from_samples("b", vec![(1, 1.0), (64, 1.0)]);
        let model = ChainModel::new(vec![f1, f2], free_boundaries(1), NetParams::zero());
        let best = best_mapping(&model, 2, Some(0.9)).unwrap();
        assert_eq!(best.mapping.segments.len(), 2, "{:?}", best.mapping);
        assert!((best.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_message_overheads_penalize_wide_all_to_all() {
        // An always-on all-to-all boundary with per-message overheads
        // makes the fused period grow with q: replication must win for
        // high throughput even though stages scale perfectly.
        let model = ChainModel::new(
            vec![StageProfile::ideal("a", 1.0, 64), StageProfile::ideal("b", 1.0, 64)],
            vec![Boundary { bytes: 1e6, all_to_all: true, fused_is_free: false }],
            NetParams { sec_per_byte: 1e-8, o_msg: 1e-3, latency: 1e-4 },
        );
        let dp = evaluate(
            &model,
            &Mapping { modules: 1, segments: vec![Segment { first: 0, last: 1, procs: 64 }] },
        );
        let repl = evaluate(
            &model,
            &Mapping { modules: 8, segments: vec![Segment { first: 0, last: 1, procs: 8 }] },
        );
        assert!(repl.throughput > dp.throughput, "repl {repl:?} dp {dp:?}");
        let best = best_mapping(&model, 64, Some(dp.throughput * 2.0)).unwrap();
        // Meeting twice the fused throughput requires task parallelism of
        // some form — replication or pipelining, never the fused mapping.
        assert!(!best.mapping.is_pure_data_parallel(), "{:?}", best.mapping);
        assert!(best.throughput >= dp.throughput * 2.0);
    }

    #[test]
    fn fused_is_free_boundaries_cost_nothing_inside_a_segment() {
        let model = ChainModel::new(
            vec![StageProfile::ideal("a", 4.0, 16), StageProfile::ideal("b", 4.0, 16)],
            vec![Boundary { bytes: 1e9, all_to_all: false, fused_is_free: true }],
            NetParams { sec_per_byte: 1e-8, o_msg: 1e-4, latency: 1e-4 },
        );
        let best = best_mapping(&model, 8, None).unwrap();
        assert!(best.mapping.is_pure_data_parallel(), "{:?}", best.mapping);
        assert!((best.latency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_state_carrying_chain_is_never_replicated() {
        // The FFT-Hist chain's shape: its throughput ceiling replicates.
        let stage = |name| StageProfile::ideal(name, 1.0, 64);
        let transpose = Boundary { bytes: 1e6, all_to_all: true, fused_is_free: false };
        let aligned = Boundary { bytes: 1e6, all_to_all: false, fused_is_free: true };
        let mut model = ChainModel::new(
            vec![stage("cffts"), stage("rffts"), stage("hist")],
            vec![transpose, aligned],
            NetParams::paragon(),
        );
        assert!(tradeoff_frontier(&model, 64).last().unwrap().mapping.modules > 1);
        // Carrying state in any stage leaves one-module mappings only,
        // pipelines among them.
        model.stages[1].carries_state = true;
        let frontier = tradeoff_frontier(&model, 64);
        assert!(frontier.iter().all(|e| e.mapping.modules == 1));
        assert!(frontier.iter().any(|e| e.mapping.segments.len() > 1));
    }

    #[test]
    fn evaluate_checks_coverage() {
        let model = ideal_chain(&[1.0, 1.0], 4);
        let m = Mapping { modules: 1, segments: vec![Segment { first: 0, last: 1, procs: 2 }] };
        let e = evaluate(&model, &m);
        assert!((e.latency - 1.0).abs() < 1e-9);
        assert!((e.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cover every stage")]
    fn evaluate_rejects_partial_mappings() {
        let model = ideal_chain(&[1.0, 1.0], 4);
        let m = Mapping { modules: 1, segments: vec![Segment { first: 0, last: 0, procs: 2 }] };
        evaluate(&model, &m);
    }

    #[test]
    fn render_is_readable() {
        let model = ideal_chain(&[1.0, 1.0, 1.0], 8);
        let m = Mapping {
            modules: 2,
            segments: vec![
                Segment { first: 0, last: 1, procs: 3 },
                Segment { first: 2, last: 2, procs: 1 },
            ],
        };
        assert_eq!(m.render(&model), "2x [s0+s1:3 | s2:1]");
    }

    #[test]
    fn evaluate_matches_hand_computation_with_boundaries() {
        // Two segments (q=2, q=2); aligned boundary 1 MB; o = 1 ms,
        // g = 10 ns/B, L = 0.1 ms. Stage works 2 s and 1 s.
        let model = ChainModel::new(
            vec![StageProfile::ideal("a", 2.0, 8), StageProfile::ideal("b", 1.0, 8)],
            vec![Boundary { bytes: 1e6, all_to_all: false, fused_is_free: true }],
            NetParams { sec_per_byte: 1e-8, o_msg: 1e-3, latency: 1e-4 },
        );
        let m = Mapping {
            modules: 1,
            segments: vec![
                Segment { first: 0, last: 0, procs: 2 },
                Segment { first: 1, last: 1, procs: 2 },
            ],
        };
        let e = evaluate(&model, &m);
        // Segment a: 1.0 compute + send side (1 msg * 1 ms + 0.5 MB * 10 ns = 5 ms) = 1.006.
        // Segment b: recv side (1 ms + 5 ms) + latency 0.1 ms + 0.5 compute = 0.5061.
        assert!((e.latency - (1.006 + 0.5061)).abs() < 1e-9, "{}", e.latency);
        assert!((e.throughput - 1.0 / 1.006).abs() < 1e-6);
    }
}
