//! Property tests for heartbeat work promotion: over random skew
//! profiles, processor counts, and leaf-group sizes, a promoted run must
//! be *transparent* — bit-identical results to the same program with the
//! heartbeat off. Donation may move iterations between processors, never
//! change what they compute.

use fx_apps::qsort::qsort_global_promoted;
use fx_apps::util::unit_hash;
use fx_core::{spmd, Agreement, Cx, Machine, RunReport};
use fx_runtime::MachineModel;
use proptest::prelude::*;

/// `f` on `p` processors with the heartbeat on, after asserting that it
/// agrees with the heartbeat-off run.
fn promoted<R>(p: usize, f: impl Fn(&mut Cx) -> R + Send + Sync) -> RunReport<R>
where
    R: PartialEq + std::fmt::Debug + Send,
{
    let m = Machine::simulated(p, MachineModel::paragon());
    let off = spmd(&m.clone().with_heartbeat(false), &f);
    let on = spmd(&m.with_heartbeat(true), &f);
    on.assert_agrees_with(&off, Agreement::SameAnswers);
    on
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Quicksort through the bucketed promotable base case sorts
    /// arbitrary skews on arbitrary group and leaf-group sizes, with
    /// results identical to the heartbeat-off run.
    #[test]
    fn promoted_qsort_is_transparent(
        seed in 0u64..1_000,
        alpha in 0.4f64..2.5,
        p in 2usize..9,
        leaf in 2usize..9,
        n in 64usize..2_000,
    ) {
        let keys: Vec<i64> = (0..n)
            .map(|i| ((1.0 - unit_hash(seed, i as u64, 11).powf(alpha)) * 1.0e9) as i64)
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let rep = promoted(p, move |cx| {
            qsort_global_promoted(cx, &keys, leaf)
        });
        for r in rep.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// A promotable reduction over a random per-iteration cost profile
    /// (the worst case for the donor's uniform-cost tail estimate) is
    /// transparent and exact for any processor count.
    #[test]
    fn promoted_reduce_is_transparent(
        seed in 0u64..1_000,
        amp in 0.0f64..1e5,
        p in 2usize..9,
        n in 16usize..600,
    ) {
        let rep = promoted(p, move |cx| {
            cx.pdo_reduce_promote(
                "randcost",
                0..n,
                0u64,
                |cx, i| {
                    cx.charge_flops(100.0 + amp * unit_hash(seed, i as u64, 13));
                    (i as u64).wrapping_mul(0x9e3779b97f4a7c15)
                },
                |a, b| a.wrapping_add(b),
            )
        });
        let expect = (0..n as u64)
            .fold(0u64, |a, i| a.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15)));
        for r in rep.results {
            prop_assert_eq!(r, expect);
        }
    }
}
