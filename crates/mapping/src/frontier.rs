//! The optimal latency-throughput tradeoff curve of a pipeline
//! (Subhlok & Vondran, SPAA '96 — the paper's reference [22]).
//!
//! Figure 5's three mappings are three points of this curve; the
//! frontier makes the whole trade explicit: each point is a mapping no
//! other mapping dominates (strictly better in one of
//! {throughput, latency} and at least as good in the other). The
//! `tradeoff` harness prints it for the FFT-Hist chain. It is the one
//! search: [`best_mapping`] and [`fastest_for`] each pick a point of it.

use crate::chain::{evaluate, ChainModel, Evaluated, Mapping, Segment};

/// A prefix of a module's mapping: segments covering stages `0..=j`, the
/// last of them (stages `first..=j` on `procs` processors) still open,
/// because its send side waits on the next segment's width.
struct Label {
    /// Worst period and latency of the completed segments, and the open
    /// segment's period without its send side.
    cost: [f64; 3],
    first: usize,
    procs: usize,
    /// Processors of the whole prefix.
    used: usize,
    prev: Option<usize>,
}

/// Some point of the staircase `met` (throughput and latency both
/// ascending) is at least as good as `p` in both and better in one.
fn beaten(met: &[(f64, f64)], p: (f64, f64)) -> bool {
    met.get(met.partition_point(|q| q.0 < p.0)).is_some_and(|&q| q.1 <= p.1 && q != p)
}

/// The mappings of `modules` modules of `n` processors each that the
/// frontier may hold, in candidate order: split pattern (bit `k` a cut
/// after stage `k`), then segment widths lexicographically. `time[k][q - 1]`
/// is stage `k` on `q` processors; `met` is the staircase of the complete
/// mappings met so far, any factor's.
///
/// A dynamic programme over chain prefixes. A state is (the open
/// segment's last stage, processors used, the open segment's width). Any
/// suffix adds the same send side and the same periods to each prefix at
/// a state, `max` and `+` only grow, and two completions by one suffix
/// differ only in cuts before it, so they sort as their prefixes do. A
/// prefix that an earlier one at its state covers (no higher in any of
/// the three costs) thus completes only to mappings an earlier one
/// matches or beats, which the frontier never keeps, and it goes. One
/// that only a later prefix covers stays, because the two may complete to
/// an exact tie, and of a tie the frontier keeps the earlier. Prefixes
/// reach each state in candidate order. A prefix goes too when a complete
/// mapping beats its bound: its throughput and latency were the rest of
/// the chain free.
fn module_mappings(
    model: &ChainModel,
    modules: usize,
    n: usize,
    time: &[Vec<f64>],
    met: &mut Vec<(f64, f64)>,
) -> Vec<Mapping> {
    let m = model.stages.len();
    // The most throughput and least latency a prefix can complete to.
    let bound = |[worst, latency, open]: [f64; 3]| (modules as f64 / worst.max(open), latency + open);
    let mut labels: Vec<Label> = Vec::new();
    // Labels by the open segment's last stage, in candidate order, and by state.
    let mut ending: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut states: Vec<Vec<[f64; 3]>> = vec![Vec::new(); (m - 1) * n * n];
    for i in 0..m {
        let preds = if i == 0 { vec![None] } else { ending[i - 1].iter().map(|&l| Some(l)).collect() };
        for prev in preds {
            let used = prev.map_or(0, |l| labels[l].used);
            // A segment from the last stage takes every processor left.
            for q in if i + 1 == m { n - used } else { 1 }..=n - used {
                // The previous segment completes against a width-`q` successor.
                let before = prev.map(|l| &labels[l]);
                let t = before.map_or(0.0, |b| model.outbound(b.cost[2], i - 1, b.procs, Some(q)));
                let [worst, latency] = before.map_or([0.0; 2], |b| [b.cost[0].max(t), b.cost[1] + t]);
                let q_prev = before.map(|b| b.procs);
                // Every processor is used exactly when the last stage is reached.
                let every = used + q == n;
                for j in i..m - usize::from(!every) {
                    let cost = [worst, latency, model.open_period(i, j, q, q_prev, |k| time[k][q - 1])];
                    let best = bound(cost);
                    if every && j + 1 < m {
                        continue;
                    } else if beaten(met, best) {
                        break; // a longer segment has a worse bound
                    } else if every {
                        met.retain(|p| !(best.0 >= p.0 && best.1 <= p.1));
                        met.insert(met.partition_point(|p| p.0 < best.0), best);
                    } else {
                        let state = &mut states[(j * n + used + q) * n + q - 1];
                        if state.iter().any(|c| c.iter().zip(&cost).all(|(a, b)| a <= b)) {
                            continue;
                        }
                        state.push(cost);
                    }
                    ending[j].push(labels.len());
                    labels.push(Label { cost, first: i, procs: q, used: used + q, prev });
                }
            }
        }
    }
    let complete = ending[m - 1].iter().filter(|&&l| !beaten(met, bound(labels[l].cost)));
    let mapping = |&l: &usize| {
        let (mut segments, mut at) = (Vec::new(), Some(l));
        while let Some(l) = at.map(|l| &labels[l]) {
            let last = segments.first().map_or(m, |s: &Segment| s.first) - 1;
            segments.insert(0, Segment { first: l.first, last, procs: l.procs });
            at = l.prev;
        }
        Mapping { modules, segments }
    };
    complete.map(mapping).collect()
}

/// The Pareto frontier of (throughput, latency), in increasing throughput
/// order; every point is undominated. Of mappings that tie exactly on
/// both, it holds the first in candidate order: replication factor, then
/// split pattern, then segment widths lexicographically. A point more
/// than 1e-15 s slower than one of higher throughput does not count.
///
/// Each factor's [`module_mappings`] is searched, the largest factor —
/// the cheapest search — first, so that its complete mappings bound the
/// rest; what survives is evaluated and swept.
///
/// The cost grows with P²: for each factor r, `module_mappings` allocates
/// `(m − 1)·n²` state lists (m stages, n = P/r) and tries every width of
/// every prefix. A 3-stage FFT-Hist-shaped chain on the Paragon network
/// takes ~0.5 ms at P = 64, 12 ms at P = 256, and 118 ms with ~50 MB
/// peak RSS at P = 1024 (a 2-vCPU x86-64 host).
pub fn tradeoff_frontier(model: &ChainModel, total_procs: usize) -> Vec<Evaluated> {
    let time: Vec<Vec<f64>> = model.stages.iter().map(|s| (1..=total_procs).map(|q| s.time(q)).collect()).collect();
    let most = if model.stages.iter().any(|s| s.carries_state) { 1 } else { total_procs };
    let (mut met, factors) = (Vec::new(), (1..=most).rev().filter(|r| total_procs.is_multiple_of(*r)));
    let found: Vec<Vec<Mapping>> =
        factors.map(|r| module_mappings(model, r, total_procs / r, &time, &mut met)).collect();
    let mut cands: Vec<Evaluated> = found.iter().rev().flatten().map(|mapping| evaluate(model, mapping)).collect();
    // Throughput descending, then latency ascending; a stable sort keeps
    // candidate order among exact ties.
    cands.sort_by(|a, b| b.throughput.total_cmp(&a.throughput).then(a.latency.total_cmp(&b.latency)));
    let mut frontier: Vec<Evaluated> = Vec::new();
    let mut best_latency = f64::INFINITY;
    for c in cands {
        if c.latency < best_latency - 1e-15 {
            best_latency = c.latency;
            frontier.push(c);
        }
    }
    frontier.reverse();
    frontier
}

/// The least-latency mapping on `total_procs` processors whose throughput
/// is at least `min_throughput` (if given): the first frontier point that
/// meets it, since latency ascends with throughput along the frontier. On
/// an exact latency tie the frontier holds the higher-throughput mapping.
/// `None` when not even the frontier's last point meets the constraint.
pub fn best_mapping(
    model: &ChainModel,
    total_procs: usize,
    min_throughput: Option<f64>,
) -> Option<Evaluated> {
    let feasible = |e: &Evaluated| min_throughput.is_none_or(|r| e.throughput >= r * (1.0 - 1e-9));
    tradeoff_frontier(model, total_procs).into_iter().find(feasible)
}

/// The mapping predicted to finish `sets` data sets first — latency +
/// (sets − 1) / throughput, Figure 6's makespan — which only a frontier
/// point can minimise.
pub fn fastest_for(model: &ChainModel, total_procs: usize, sets: usize) -> Evaluated {
    let day = |e: &Evaluated| e.latency + (sets - 1) as f64 / e.throughput;
    let frontier = tradeoff_frontier(model, total_procs).into_iter();
    frontier.min_by(|a, b| day(a).total_cmp(&day(b))).expect("the frontier is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Boundary, NetParams};
    use crate::profile::StageProfile;

    fn test_model() -> ChainModel {
        // One perfectly-scaling stage and one that flattens at 4 procs.
        let a = StageProfile::ideal("a", 8.0, 64);
        let b = StageProfile::from_samples("b", vec![(1, 4.0), (4, 1.0), (64, 1.0)]);
        ChainModel::new(
            vec![a, b],
            vec![Boundary { bytes: 1e5, all_to_all: false, fused_is_free: true }],
            NetParams { sec_per_byte: 1e-8, o_msg: 1e-4, latency: 1e-5 },
        )
    }

    #[test]
    fn frontier_is_sorted_and_undominated() {
        let model = test_model();
        let f = tradeoff_frontier(&model, 16);
        assert!(!f.is_empty());
        for w in f.windows(2) {
            assert!(w[0].throughput < w[1].throughput, "throughput must increase");
            assert!(w[0].latency < w[1].latency, "latency must increase along the frontier");
        }
    }

    #[test]
    fn frontier_reaches_higher_throughput_than_the_latency_optimum() {
        let model = test_model();
        let f = tradeoff_frontier(&model, 16);
        let lat_opt_thr = f.first().unwrap().throughput;
        let max_thr = f.last().unwrap().throughput;
        assert!(
            max_thr > lat_opt_thr * 1.5,
            "expected a real trade: {lat_opt_thr} → {max_thr}"
        );
    }

    #[test]
    fn fastest_for_one_set_is_the_latency_optimum_and_for_many_the_fastest_stream() {
        let model = test_model();
        let f = tradeoff_frontier(&model, 16);
        let lat = |e: &Evaluated| e.latency;
        assert_eq!(lat(&fastest_for(&model, 16, 1)), lat(&f[0]));
        assert_eq!(lat(&fastest_for(&model, 16, 1_000_000)), lat(f.last().unwrap()));
    }

    #[test]
    fn single_stage_frontier_is_replication_ladder() {
        let flat = StageProfile::from_samples("s", vec![(1, 1.0), (64, 1.0)]);
        let model = ChainModel::new(vec![flat], vec![], NetParams::zero());
        let f = tradeoff_frontier(&model, 8);
        // Latency is constant (1 s), so only the max-throughput point
        // survives domination: 8 modules.
        assert_eq!(f.len(), 1);
        assert!((f[0].throughput - 8.0).abs() < 1e-9);
        assert_eq!(f[0].mapping.modules, 8);
    }
}
