//! Property tests for heartbeat work promotion: over random skew
//! profiles, processor counts, and leaf-group sizes, a promoted run must
//! be *transparent* — bit-identical results to the same program with the
//! heartbeat off. Donation may move iterations between processors, never
//! change what they compute.
//!
//! A property whose cases never donate checks nothing, so each one
//! counts the donations its cases took and fails if the count is zero.

use std::cell::Cell;

use fx_apps::qsort::qsort_global_promoted;
use fx_apps::util::unit_hash;
use fx_core::{spmd, Agreement, Cx, Machine, RunReport};
use fx_runtime::MachineModel;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;

/// `f` on `machine` with the heartbeat on, after asserting that it agrees
/// with the heartbeat-off run.
fn promoted<R>(machine: Machine, f: impl Fn(&mut Cx) -> R + Send + Sync) -> RunReport<R>
where
    R: PartialEq + std::fmt::Debug + Send,
{
    let (off, on) = both(machine, f);
    on.assert_agrees_with(&off, Agreement::SameAnswers);
    on
}

/// `f` on `machine` with the heartbeat off, then on.
fn both<R: Send>(machine: Machine, f: impl Fn(&mut Cx) -> R + Send + Sync) -> (RunReport<R>, RunReport<R>) {
    (spmd(&machine.clone().with_heartbeat(false), &f), spmd(&machine.with_heartbeat(true), &f))
}

/// A `p`-processor Paragon.
fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
}

/// Run `property` on 16 cases drawn from `strategy`; each returns the
/// donations its promoted run took, and some case must have taken one.
fn donating<S>(name: &str, strategy: S, property: impl Fn(S::Value) -> Result<u64, TestCaseError>)
where
    S: Strategy,
    S::Value: std::fmt::Debug + Clone,
{
    let taken = Cell::new(0u64);
    TestRunner::new(ProptestConfig::with_cases(16)).run(&strategy, |case| {
        taken.set(taken.get() + property(case)?);
        Ok(())
    });
    assert!(taken.get() > 0, "{name}: no case donated an iteration, so no case tested promotion");
}

/// Quicksort through the bucketed promotable base case sorts arbitrary
/// skews on arbitrary group and leaf-group sizes, with results identical
/// to the heartbeat-off run.
#[test]
fn promoted_qsort_is_transparent() {
    let cases = (0u64..1_000, 0.4f64..2.5, 2usize..9, 2usize..9, 64usize..2_000);
    donating("promoted_qsort_is_transparent", cases, |(seed, alpha, p, leaf, n)| {
        let keys: Vec<i64> = (0..n).map(|i| ((1.0 - unit_hash(seed, i as u64, 11).powf(alpha)) * 1.0e9) as i64).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        // A bucket of a leaf of at most 2 000 keys sorts in well under a
        // Paragon message's 0.6 ms of overheads, so no donation would pay
        // there: the same machine with 1 us overheads and a heartbeat
        // every 0.1 ms of compute is one where it does.
        let cheap = MachineModel { o_send: 1e-6, o_recv: 1e-6, latency: 1e-6, ..MachineModel::paragon() };
        let machine = Machine::simulated(p, cheap).with_heartbeat_period(1e-4);
        let rep = promoted(machine, move |cx| qsort_global_promoted(cx, &keys, leaf));
        for r in &rep.results {
            prop_assert_eq!(r, &expect);
        }
        Ok(rep.promote_total().taken)
    });
}

/// A promotable reduction over a random per-iteration cost profile (the
/// worst case for the donor's uniform-cost tail estimate) is transparent
/// and exact for any processor count.
#[test]
fn promoted_reduce_is_transparent() {
    donating("promoted_reduce_is_transparent", (0u64..1_000, 0.0f64..1e5, 2usize..9, 16usize..600), |(seed, amp, p, n)| {
        let rep = promoted(paragon(p), move |cx| {
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
        let expect = (0..n as u64).fold(0u64, |a, i| a.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15)));
        for r in &rep.results {
            prop_assert_eq!(*r, expect);
        }
        Ok(rep.promote_total().taken)
    });
}

/// The owner's `apply` installs every iteration's own output, whoever
/// computed it: the result is each `(iteration, output)` pair in the order
/// `apply` received it, the owner's own iterations first and then the
/// donated slices as the epilogue installs them. Sorted by iteration it
/// must be the heartbeat-off run's, which is in iteration order; an
/// epilogue that pairs a slice's outputs with the wrong iterations (in
/// reverse, say) changes it, where a commutative reduction cannot see it.
#[test]
fn promoted_apply_installs_each_output_at_its_iteration() {
    donating("promoted_apply_installs_each_output_at_its_iteration", (0u64..1_000, 1e3f64..1e5, 2usize..9, 16usize..600), |(seed, amp, p, n)| {
        let (off, on) = both(paragon(p), move |cx| {
            let mut installed: Vec<(usize, u64)> = Vec::new();
            cx.pdo_promote(
                "installs",
                0..n,
                |_cx, i| vec![i as u64],
                |cx, i, ins| {
                    cx.charge_flops(100.0 + amp * unit_hash(seed, i as u64, 17));
                    vec![ins[0].wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17)]
                },
                |_cx, i, outs: Vec<u64>| installed.push((i, outs[0])),
            );
            installed
        });
        let taken = on.promote_total().taken;
        for (rank, (mut got, want)) in on.results.into_iter().zip(off.results).enumerate() {
            prop_assert!(want.windows(2).all(|w| w[0].0 < w[1].0), "rank {rank}: the heartbeat-off loop applies in order");
            got.sort_unstable_by_key(|&(i, _)| i);
            prop_assert_eq!(got, want, "rank {}: an output installed at another iteration", rank);
        }
        Ok(taken)
    });
}
