//! The optimal latency-throughput tradeoff curve of a pipeline
//! (Subhlok & Vondran, SPAA '96 — the paper's reference [22]).
//!
//! Figure 5's three mappings are three points of this curve; the
//! frontier makes the whole trade explicit: each point is a mapping no
//! other mapping dominates (strictly better in one of
//! {throughput, latency} and at least as good in the other). The
//! `tradeoff` harness prints it for the FFT-Hist chain. It is the one
//! search: [`best_mapping`] and [`fastest_for`] each pick a point of it.

use crate::chain::{evaluate, segments_of, shapes, ChainModel, Evaluated, Mapping};

/// All candidate mappings: every shape ([`shapes`]: replication factor ×
/// contiguous segmentation) × the processor allocations of
/// [`allocations`].
fn candidates(model: &ChainModel, total_procs: usize) -> Vec<Evaluated> {
    let mut out = Vec::new();
    for (modules, bounds) in shapes(model, total_procs) {
        for alloc in allocations(total_procs / modules, bounds.len() - 1) {
            out.push(evaluate(model, &Mapping { modules, segments: segments_of(&bounds, &alloc) }));
        }
    }
    out
}

/// The processor allocations of `procs` over `nseg` segments: every
/// composition while there are at most 4 096 of them, otherwise the even
/// split and the allocations one transfer away from it.
fn allocations(procs: usize, nseg: usize) -> Vec<Vec<usize>> {
    if nseg == 1 {
        return vec![vec![procs]];
    }
    // Exhaustive compositions when the space is tiny.
    let space: usize = num_compositions(procs, nseg);
    if space <= 4096 {
        let mut out = Vec::new();
        let mut cur = vec![1usize; nseg];
        compose(procs - nseg, 0, &mut cur, &mut out);
        return out;
    }
    // Otherwise: even split and its neighbours.
    let mut base: Vec<usize> = vec![procs / nseg; nseg];
    for b in base.iter_mut().take(procs % nseg) {
        *b += 1;
    }
    let mut out = vec![base.clone()];
    for from in 0..nseg {
        for to in 0..nseg {
            if from == to || base[from] <= 1 {
                continue;
            }
            let mut v = base.clone();
            v[from] -= 1;
            v[to] += 1;
            out.push(v);
        }
    }
    out
}

/// C(procs-1, nseg-1): how many ways `procs` processors split into `nseg`
/// positive parts. Saturates at `usize::MAX` instead of overflowing, so
/// the 4 096-composition test in [`allocations`] is exact
/// for any space that is actually small. (A previous version saturated
/// the multiply *before* the divide, which could truncate a huge space to
/// a small wrong count and silently switch the optimizer to exhaustive
/// enumeration of an astronomically large space.)
fn num_compositions(procs: usize, nseg: usize) -> usize {
    let (n, k) = (procs - 1, nseg - 1);
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Exact at every step: C(n, i+1) = C(n, i) * (n-i) / (i+1), and
        // the product of consecutive binomials is always divisible.
        acc = acc * (n - i) as u128 / (i as u128 + 1);
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

fn compose(extra: usize, i: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if i == cur.len() - 1 {
        cur[i] += extra;
        out.push(cur.clone());
        cur[i] -= extra;
        return;
    }
    for take in 0..=extra {
        cur[i] += take;
        compose(extra - take, i + 1, cur, out);
        cur[i] -= take;
    }
}

/// The Pareto frontier of (throughput, latency): returned in increasing
/// throughput order; every point is undominated.
pub fn tradeoff_frontier(model: &ChainModel, total_procs: usize) -> Vec<Evaluated> {
    let mut cands = candidates(model, total_procs);
    // Sort by throughput descending, then latency ascending.
    cands.sort_by(|a, b| {
        b.throughput
            .total_cmp(&a.throughput)
            .then(a.latency.total_cmp(&b.latency))
    });
    let mut frontier: Vec<Evaluated> = Vec::new();
    let mut best_latency = f64::INFINITY;
    for c in cands {
        if c.latency < best_latency - 1e-15 {
            best_latency = c.latency;
            frontier.push(c);
        }
    }
    // frontier currently: throughput descending with strictly improving
    // latency → reverse to increasing throughput.
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
    fn frontier_contains_the_latency_optimum() {
        // The least latency of any candidate, found without the frontier.
        let model = test_model();
        let best_lat = candidates(&model, 16).iter().map(|e| e.latency).fold(f64::INFINITY, f64::min);
        let first = &tradeoff_frontier(&model, 16)[0];
        let unconstrained = best_mapping(&model, 16, None).unwrap();
        assert_eq!(first.latency, best_lat, "frontier missed the latency optimum");
        assert_eq!(unconstrained.latency, best_lat, "best_mapping missed the latency optimum");
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
    fn compositions_enumerate_exactly() {
        let mut got = Vec::new();
        let mut cur = vec![1usize; 3];
        compose(2, 0, &mut cur, &mut got);
        // 2 extra over 3 slots: C(4,2) = 6 compositions.
        assert_eq!(got.len(), 6);
        assert!(got.iter().all(|v| v.iter().sum::<usize>() == 5));
    }

    #[test]
    fn num_compositions_matches_direct_recursive_count() {
        // Count compositions by direct recursion and compare: the closed
        // form must agree wherever enumeration is feasible, including
        // values straddling the 4096 compositions above which
        // `allocations` stops enumerating.
        fn count(procs: usize, nseg: usize) -> usize {
            if nseg == 1 {
                return usize::from(procs >= 1);
            }
            (1..=procs.saturating_sub(nseg - 1)).map(|first| count(procs - first, nseg - 1)).sum()
        }
        for procs in 1..=20 {
            for nseg in 1..=procs {
                assert_eq!(
                    num_compositions(procs, nseg),
                    count(procs, nseg),
                    "procs={procs} nseg={nseg}"
                );
            }
        }
        // nseg > procs: no composition into positive parts.
        assert_eq!(num_compositions(3, 5), 0);
        // Near the threshold: C(16,8) = 12870 > 4096 must NOT be
        // truncated into the exhaustive regime.
        assert_eq!(num_compositions(17, 9), 12870);
        assert!(num_compositions(17, 9) > 4096);
        // Huge spaces saturate instead of wrapping.
        assert_eq!(num_compositions(1000, 500), usize::MAX);
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
