//! Property: the mapping search is exact.
//!
//! Random chains of 1–4 stages (ideal and flattening profiles, a stage
//! that may carry state, random boundaries and network prices) on up to
//! 12 processors. The candidates are enumerated here, independently of
//! the crate: every replication factor dividing the machine (only 1 when
//! a stage carries state) × every contiguous split of the chain × every
//! processor count of each segment, a module's processors all used. Then
//!
//! * `tradeoff_frontier` is the frontier of every candidate, point for
//!   point and bit for bit: sorted by throughput, then latency, then
//!   candidate order, a candidate is kept when it is more than 1e-15 s
//!   faster than every point kept before it, so of two exact ties the
//!   first in candidate order stays;
//! * `best_mapping(r)` has the least latency among the candidates whose
//!   throughput is at least `r`, and no candidate of equal latency has
//!   more throughput;
//! * `best_mapping(r)` is `None` exactly when no candidate meets `r`;
//! * the frontier's last point has the most throughput of any candidate.
//!
//! An ignored case (run it in release) checks the frontier the same way
//! on 4- and 5-stage chains at P = 64, where a split has up to 595 665
//! processor allocations.

use fx_mapping::{
    best_mapping, evaluate, tradeoff_frontier, Boundary, ChainModel, Evaluated, Mapping, NetParams, Segment,
    StageProfile,
};
use proptest::prelude::*;
use std::cmp::Ordering;

/// `(ideal, work, flattens_at, state)` per stage; one stage in ten
/// (`state == 0`) carries state.
type StageSpec = (bool, f64, usize, u8);

fn profile(i: usize, (ideal, work, flat_at, state): StageSpec) -> StageProfile {
    let mut stage = if ideal {
        StageProfile::ideal(format!("s{i}"), work, 16)
    } else {
        let t = work / flat_at as f64;
        StageProfile::from_samples(format!("s{i}"), vec![(1, work), (flat_at, t), (64, t)])
    };
    stage.carries_state = state == 0;
    stage
}

/// Every mapping of `model` on `procs` processors, handed to `visit`.
fn each_mapping(model: &ChainModel, procs: usize, visit: &mut dyn FnMut(Evaluated)) {
    fn split(
        model: &ChainModel,
        modules: usize,
        left: usize,
        segs: &mut Vec<Segment>,
        visit: &mut dyn FnMut(Evaluated),
    ) {
        let (first, m) = (segs.last().map_or(0, |s| s.last + 1), model.stages.len());
        if first == m {
            if left == 0 {
                visit(evaluate(model, &Mapping { modules, segments: segs.clone() }));
            }
            return;
        }
        for last in first..m {
            for procs in 1..=left {
                segs.push(Segment { first, last, procs });
                split(model, modules, left - procs, segs, visit);
                segs.pop();
            }
        }
    }
    let most = if model.stages.iter().any(|s| s.carries_state) { 1 } else { procs };
    for modules in (1..=most).filter(|r| procs.is_multiple_of(*r)) {
        split(model, modules, procs / modules, &mut Vec::new(), visit);
    }
}

fn every_mapping(model: &ChainModel, procs: usize) -> Vec<Evaluated> {
    let mut out = Vec::new();
    each_mapping(model, procs, &mut |e| out.push(e));
    out
}

/// Candidate order: replication factor, then split pattern (bit `k` a
/// cut after stage `k`), then segment widths lexicographically.
fn candidate_order(a: &Mapping, b: &Mapping) -> Ordering {
    let pattern = |m: &Mapping| m.segments.iter().rev().skip(1).map(|s| 1u64 << s.last).sum::<u64>();
    let widths = |m: &Mapping| m.segments.iter().map(|s| s.procs).collect::<Vec<_>>();
    (a.modules, pattern(a), widths(a)).cmp(&(b.modules, pattern(b), widths(b)))
}

/// The frontier of every mapping of `model` on `procs` processors, by
/// the rule in the module doc. Only a candidate that no other beats —
/// one with at least its throughput and at most its latency that sorts
/// before it — can be kept, so the others are dropped as they come.
fn brute_frontier(model: &ChainModel, procs: usize) -> Vec<Evaluated> {
    let order = |a: &Evaluated, b: &Evaluated| {
        b.throughput
            .total_cmp(&a.throughput)
            .then(a.latency.total_cmp(&b.latency))
            .then_with(|| candidate_order(&a.mapping, &b.mapping))
    };
    let beats = |a: &Evaluated, b: &Evaluated| {
        a.throughput >= b.throughput && a.latency <= b.latency && order(a, b).is_lt()
    };
    let mut unbeaten: Vec<Evaluated> = Vec::new();
    each_mapping(model, procs, &mut |e| {
        if !unbeaten.iter().any(|u| beats(u, &e)) {
            unbeaten.retain(|u| !beats(&e, u));
            unbeaten.push(e);
        }
    });
    unbeaten.sort_by(order);
    let mut frontier: Vec<Evaluated> = Vec::new();
    let mut best_latency = f64::INFINITY;
    for e in unbeaten {
        if e.latency < best_latency - 1e-15 {
            best_latency = e.latency;
            frontier.push(e);
        }
    }
    frontier.reverse();
    frontier
}

/// `tradeoff_frontier` is the brute-force frontier, point for point.
fn check_frontier(model: &ChainModel, procs: usize) -> Result<(), TestCaseError> {
    let render = |f: &[Evaluated]| {
        let point = |e: &Evaluated| format!("{} {}/s @ {} s", e.mapping.render(model), e.throughput, e.latency);
        f.iter().map(point).collect::<Vec<_>>()
    };
    let (got, want) = (tradeoff_frontier(model, procs), brute_frontier(model, procs));
    let bits = |f: &[Evaluated]| {
        f.iter().map(|e| (e.mapping.clone(), e.throughput.to_bits(), e.latency.to_bits())).collect::<Vec<_>>()
    };
    let (g, w) = (render(&got), render(&want));
    prop_assert!(bits(&got) == bits(&want), "P = {procs}: frontier\n  {g:#?}\nbrute force\n  {w:#?}");
    Ok(())
}

fn chain(stages: &[StageSpec], bounds: &[(f64, bool, bool)], net: NetParams) -> ChainModel {
    let boundaries = bounds[..stages.len() - 1]
        .iter()
        .map(|&(bytes, all_to_all, fused_is_free)| Boundary { bytes, all_to_all, fused_is_free })
        .collect();
    ChainModel::new(stages.iter().enumerate().map(|(i, &s)| profile(i, s)).collect(), boundaries, net)
}

/// The properties for one constraint (`None`: latency alone).
fn check(model: &ChainModel, procs: usize, all: &[Evaluated], r: Option<f64>) -> Result<(), TestCaseError> {
    let feasible: Vec<&Evaluated> =
        all.iter().filter(|e| r.is_none_or(|r| e.throughput >= r * (1.0 - 1e-9))).collect();
    let picked = best_mapping(model, procs, r);
    let Some(best) = picked else {
        prop_assert!(feasible.is_empty(), "r = {r:?}: None, yet {} candidates meet it", feasible.len());
        return Ok(());
    };
    prop_assert!(!feasible.is_empty(), "r = {r:?}: picked {:?} from nothing feasible", best.mapping);
    prop_assert!(r.is_none_or(|r| best.throughput >= r * (1.0 - 1e-9)), "r = {r:?}: picked {best:?}");
    let least = feasible.iter().map(|e| e.latency).fold(f64::INFINITY, f64::min);
    // The frontier keeps a point only if it is more than 1e-15 s faster
    // than the points of higher throughput; 1e-12 relative covers that.
    prop_assert!(
        best.latency <= least * (1.0 + 1e-12),
        "r = {r:?}: picked {} at {} s, but {} s is feasible",
        best.mapping.render(model),
        best.latency,
        least
    );
    for e in feasible.iter().filter(|e| e.latency == best.latency) {
        prop_assert!(
            e.throughput <= best.throughput,
            "r = {r:?}: picked {} at {}/s, but {} ties its latency at {}/s",
            best.mapping.render(model),
            best.throughput,
            e.mapping.render(model),
            e.throughput
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn best_mapping_is_the_least_latency_feasible_candidate(
        procs in 1usize..=12,
        stages in proptest::collection::vec(
            (any::<bool>(), 0.01f64..10.0, 2usize..=8, 0u8..10),
            1..=4,
        ),
        bounds in proptest::collection::vec((0.0f64..1e6, any::<bool>(), any::<bool>()), 3),
        sec_per_byte in 0.0f64..1e-7,
        o_msg in 0.0f64..1e-3,
        latency in 0.0f64..1e-4,
        frac in 0.0f64..1.2,
        pick in any::<usize>(),
    ) {
        let model = chain(&stages, &bounds, NetParams { sec_per_byte, o_msg, latency });
        let all = every_mapping(&model, procs);
        let ceiling = all.iter().map(|e| e.throughput).fold(0.0, f64::max);
        let frontier = tradeoff_frontier(&model, procs);
        prop_assert_eq!(frontier.last().map(|e| e.throughput), Some(ceiling));
        check(&model, procs, &all, None)?;
        check(&model, procs, &all, Some(frac * ceiling))?;
        // A constraint exactly at some candidate's throughput.
        check(&model, procs, &all, Some(all[pick % all.len()].throughput))?;
        check_frontier(&model, procs)?;
    }
}

/// A frontier point that two mappings reach exactly:
/// `1x [s0:3 | s1+s2:3 | s3:3 | s4:2]` and `1x [s0+s1:3 | s2:2 | s3:3 | s4:3]`
/// both read 0.5000000000000001/s at 6.333333333333332 s. The frontier
/// holds the first in candidate order. A search in which a prefix also
/// dropped the earlier prefixes it covers returned the second.
#[test]
fn an_exact_tie_keeps_the_first_mapping_in_candidate_order() {
    let stages = [(true, 4.0, 5, 2), (true, 1.0, 5, 0), (false, 4.0, 3, 5), (true, 4.0, 5, 2), (false, 4.0, 3, 2)];
    check_frontier(&chain(&stages, &[(0.0, false, true); 4], NetParams::zero()), 11).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deep chains at P = 64: a 4-segment split has 39 711 allocations and
    /// a 5-segment one 595 665. Release only (~5 s for the 24 cases).
    #[test]
    #[ignore]
    fn deep_chains_at_p64_match_the_brute_force_frontier(
        stages in proptest::collection::vec(
            (any::<bool>(), 0.01f64..10.0, 2usize..=48, 0u8..10),
            4..=5,
        ),
        bounds in proptest::collection::vec((0.0f64..1e6, any::<bool>(), any::<bool>()), 4),
        sec_per_byte in 0.0f64..1e-7,
        o_msg in 0.0f64..1e-3,
        latency in 0.0f64..1e-4,
    ) {
        check_frontier(&chain(&stages, &bounds, NetParams { sec_per_byte, o_msg, latency }), 64)?;
    }
}
