//! Property: the mapping search is exact on every chain small enough to
//! enumerate by hand.
//!
//! Random chains of 1–4 stages (ideal and flattening profiles, a stage
//! that may carry state, random boundaries and network prices) on up to
//! 12 processors. The candidates are enumerated here, independently of
//! the crate: every replication factor dividing the machine (only 1 when
//! a stage carries state) × every contiguous split of the chain × every
//! processor count of each segment, a module's processors all used. Then
//!
//! * `best_mapping(r)` has the least latency among the candidates whose
//!   throughput is at least `r`, and no candidate of equal latency has
//!   more throughput;
//! * `best_mapping(r)` is `None` exactly when no candidate meets `r`;
//! * the frontier's last point has the most throughput of any candidate.

use fx_mapping::{
    best_mapping, evaluate, tradeoff_frontier, Boundary, ChainModel, Evaluated, Mapping, NetParams, Segment,
    StageProfile,
};
use proptest::prelude::*;

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

/// Every mapping of `model` on `procs` processors.
fn every_mapping(model: &ChainModel, procs: usize) -> Vec<Evaluated> {
    fn split(first: usize, left: usize, m: usize, segs: &mut Vec<Segment>, out: &mut Vec<Vec<Segment>>) {
        if first == m {
            if left == 0 {
                out.push(segs.clone());
            }
            return;
        }
        for last in first..m {
            for procs in 1..=left {
                segs.push(Segment { first, last, procs });
                split(last + 1, left - procs, m, segs, out);
                segs.pop();
            }
        }
    }
    let m = model.stages.len();
    let most = if model.stages.iter().any(|s| s.carries_state) { 1 } else { procs };
    let mut out = Vec::new();
    for modules in (1..=most).filter(|r| procs.is_multiple_of(*r)) {
        let mut splits = Vec::new();
        split(0, procs / modules, m, &mut Vec::new(), &mut splits);
        out.extend(splits.into_iter().map(|segments| evaluate(model, &Mapping { modules, segments })));
    }
    out
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
        let boundaries = bounds[..stages.len() - 1]
            .iter()
            .map(|&(bytes, all_to_all, fused_is_free)| Boundary { bytes, all_to_all, fused_is_free })
            .collect();
        let model = ChainModel::new(
            stages.iter().enumerate().map(|(i, &s)| profile(i, s)).collect(),
            boundaries,
            NetParams { sec_per_byte, o_msg, latency },
        );
        let all = every_mapping(&model, procs);
        let ceiling = all.iter().map(|e| e.throughput).fold(0.0, f64::max);
        let frontier = tradeoff_frontier(&model, procs);
        prop_assert_eq!(frontier.last().map(|e| e.throughput), Some(ceiling));
        check(&model, procs, &all, None)?;
        check(&model, procs, &all, Some(frac * ceiling))?;
        // A constraint exactly at some candidate's throughput.
        check(&model, procs, &all, Some(all[pick % all.len()].throughput))?;
    }
}
