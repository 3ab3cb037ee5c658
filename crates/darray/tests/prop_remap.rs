//! Property tests for structured remaps: over random distributions,
//! explicit grids, placements and per-dimension index maps, `remap2` /
//! `remap1` are indistinguishable from the closure oracle `copy_remap2` /
//! `copy_remap1` — same destination contents, bitwise-equal virtual
//! finish times on every processor, same message and byte counts — under
//! both executors. The observable protocol (op tag, skip rule, message
//! schedule, charges) is shared; only the host work differs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fx_core::{spmd, Cx, GroupHandle, Machine, MachineModel, Size};
use fx_darray::plan::{Plan, Side, Stmt};
use fx_darray::{
    copy_remap1, copy_remap2, remap1, remap2, DArray1, DArray2, DimMap, Dist, Dist1, Remap,
};
use fx_runtime::Executor;
use proptest::prelude::*;

/// One dimension of a statement: the map and extents it is valid for.
#[derive(Debug, Clone, Copy)]
struct Dim {
    remap: Remap,
    dn: usize,
    sn: usize,
}

impl Dim {
    fn src_of(&self, i: usize) -> usize {
        self.remap.apply(i, self.sn).expect("generated maps are in range")
    }
}

/// A map together with destination/source extents it stays inside:
/// equal or larger sources for `Identity`/`Shift`, unrelated extents for
/// the clamped (many-to-one tail) and cyclic (wrapping) maps.
fn arb_dim() -> impl Strategy<Value = Dim> {
    prop_oneof![
        (1usize..12, 0usize..3).prop_map(|(dn, extra)| Dim {
            remap: Remap::Identity,
            dn,
            sn: dn + extra
        }),
        (1usize..12, 0usize..6, 0usize..3).prop_map(|(dn, by, extra)| Dim {
            remap: Remap::Shift(by as isize),
            dn,
            sn: dn + by + extra
        }),
        (1usize..12, 1usize..14, -7isize..8).prop_map(|(dn, sn, by)| Dim {
            remap: Remap::ClampShift(by),
            dn,
            sn
        }),
        (1usize..12, 1usize..14, -20isize..21).prop_map(|(dn, sn, by)| Dim {
            remap: Remap::Cyclic(by),
            dn,
            sn
        }),
    ]
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..4).prop_map(Dist::BlockCyclic),
    ]
}

/// Where the two arrays live on a `p`-processor machine.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Both on the whole machine.
    Same,
    /// Source on the first `k` processors, destination on the rest.
    Disjoint(usize),
    /// Source on the whole machine, destination on the last `p - k`.
    Nested(usize),
}

fn arb_placement() -> impl Strategy<Value = (usize, Placement)> {
    (2usize..7).prop_flat_map(|p| {
        (Just(p), prop_oneof![
            Just(Placement::Same),
            (1..p).prop_map(Placement::Disjoint),
            (1..p).prop_map(Placement::Nested),
        ])
    })
}

fn groups(cx: &mut Cx, placement: Placement) -> (GroupHandle, GroupHandle) {
    match placement {
        Placement::Same => (cx.group(), cx.group()),
        Placement::Disjoint(k) | Placement::Nested(k) => {
            let part = cx.task_partition(&[("a", Size::Procs(k)), ("b", Size::Rest)]);
            let a = if matches!(placement, Placement::Nested(_)) { cx.group() } else { part.group("a") };
            (a, part.group("b"))
        }
    }
}

/// An explicit `pr x pc` grid for a group of `len` processors (`pick`
/// selects among the divisors), with `*` on some undivided dimensions.
fn grid_and_dist(len: usize, pick: usize, (d0, d1): (Dist, Dist), star: bool) -> ((usize, usize), (Dist, Dist)) {
    let divisors: Vec<usize> = (1..=len).filter(|d| len.is_multiple_of(*d)).collect();
    let pr = divisors[pick % divisors.len()];
    let pc = len / pr;
    let d0 = if pr == 1 && star { Dist::Star } else { d0 };
    let d1 = if pc == 1 && star && d0 != Dist::Star { Dist::Star } else { d1 };
    ((pr, pc), (d0, d1))
}

fn machine(p: usize, executor: Executor) -> Machine {
    Machine::simulated(p, MachineModel::paragon()).with_executor(executor)
}

const EXECUTORS: [Executor; 2] = [Executor::Threaded, Executor::Pooled { workers: 2 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn remap2_is_indistinguishable_from_the_closure_oracle(
        rows in arb_dim(),
        cols in arb_dim(),
        placed in arb_placement(),
        sd in (arb_dist(), arb_dist()),
        dd in (arb_dist(), arb_dist()),
        picks in (0usize..8, 0usize..8, any::<bool>(), any::<bool>()),
    ) {
        let (p, placement) = placed;
        let run = |structured: bool, executor: Executor| {
            spmd(&machine(p, executor), move |cx| {
                let (gs, gd) = groups(cx, placement);
                let (s_grid, s_dist) = grid_and_dist(gs.len(), picks.0, sd, picks.2);
                let (d_grid, d_dist) = grid_and_dist(gd.len(), picks.1, dd, picks.3);
                let mut src = DArray2::with_grid(cx, &gs, [rows.sn, cols.sn], s_dist, s_grid, 0u32);
                src.for_each_owned(|r, c, v| *v = (r * 100 + c + 1) as u32);
                let mut dst = DArray2::with_grid(cx, &gd, [rows.dn, cols.dn], d_dist, d_grid, 0u32);
                // Stagger the clocks so message timing is not trivially symmetric.
                cx.charge_seconds(cx.phys_rank() as f64 * 1e-4);
                // Twice: the second structured statement replays the cached plan.
                for _ in 0..2 {
                    if structured {
                        remap2(cx, &mut dst, &src, rows.remap, cols.remap);
                    } else {
                        copy_remap2(cx, &mut dst, &src, |r, c| (rows.src_of(r), cols.src_of(c)));
                    }
                }
                dst.fold_owned(Vec::new(), |mut acc, r, c, v| {
                    acc.push((r, c, v));
                    acc
                })
            })
        };
        let oracle = run(false, EXECUTORS[0]);
        let mut owned = 0;
        for per_proc in &oracle.results {
            for &(r, c, v) in per_proc {
                prop_assert_eq!(v, (rows.src_of(r) * 100 + cols.src_of(c) + 1) as u32, "dst[{}][{}]", r, c);
                owned += 1;
            }
        }
        prop_assert_eq!(owned, rows.dn * cols.dn);
        let oracle_bits: Vec<u64> = oracle.times.iter().map(|t| t.to_bits()).collect();
        for executor in EXECUTORS {
            for structured in [true, false] {
                let rep = run(structured, executor);
                prop_assert_eq!(&rep.results, &oracle.results, "contents ({}, {})", structured, executor);
                let bits: Vec<u64> = rep.times.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&bits, &oracle_bits, "virtual times ({}, {})", structured, executor);
                prop_assert_eq!(&rep.traffic, &oracle.traffic, "msgs/bytes ({}, {})", structured, executor);
            }
        }
    }

    #[test]
    fn remap1_is_indistinguishable_from_the_closure_oracle(
        dim in arb_dim(),
        placed in arb_placement(),
        sd in arb_dist(),
        dd in arb_dist(),
        replicated in (any::<bool>(), any::<bool>()),
    ) {
        let (p, placement) = placed;
        let dist1 = |d: Dist, rep: bool| match (rep, d) {
            (true, _) => Dist1::Replicated,
            (_, Dist::Cyclic) => Dist1::Cyclic,
            (_, Dist::BlockCyclic(b)) => Dist1::BlockCyclic(b),
            _ => Dist1::Block,
        };
        // One replicated endpoint in four: planned like the rest.
        let (sd, dd) = (dist1(sd, replicated.0 && replicated.1), dist1(dd, replicated.0 && !replicated.1));
        let run = |structured: bool, executor: Executor| {
            spmd(&machine(p, executor), move |cx| {
                let (gs, gd) = groups(cx, placement);
                let data: Vec<u32> = (0..dim.sn).map(|i| (i * 7 + 1) as u32).collect();
                let src = DArray1::from_global(cx, &gs, sd, &data);
                let mut dst = DArray1::new(cx, &gd, dim.dn, dd, 0u32);
                cx.charge_seconds(cx.phys_rank() as f64 * 1e-4);
                for _ in 0..2 {
                    if structured {
                        remap1(cx, &mut dst, &src, dim.remap);
                    } else {
                        copy_remap1(cx, &mut dst, &src, |i| dim.src_of(i));
                    }
                }
                dst.fold_owned(Vec::new(), |mut acc, i, v| {
                    acc.push((i, v));
                    acc
                })
            })
        };
        let oracle = run(false, EXECUTORS[0]);
        for per_proc in &oracle.results {
            for &(i, v) in per_proc {
                prop_assert_eq!(v, (dim.src_of(i) * 7 + 1) as u32, "dst[{}]", i);
            }
        }
        let oracle_bits: Vec<u64> = oracle.times.iter().map(|t| t.to_bits()).collect();
        for executor in EXECUTORS {
            for structured in [true, false] {
                let rep = run(structured, executor);
                prop_assert_eq!(&rep.results, &oracle.results, "contents ({}, {})", structured, executor);
                let bits: Vec<u64> = rep.times.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&bits, &oracle_bits, "virtual times ({}, {})", structured, executor);
                prop_assert_eq!(&rep.traffic, &oracle.traffic, "msgs/bytes ({}, {})", structured, executor);
            }
        }
    }
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// An index map that leaves the source extent is rejected when the plan
/// is built, naming the statement, the dimension and the first offending
/// index. CI also runs this suite with `--release`, where the closure
/// path's old `debug_assert!` used to compile out.
#[test]
fn out_of_range_shift_panics_at_plan_build() {
    let g = GroupHandle::synthetic(1, vec![0, 1]);
    let side = |rows, cols| Side {
        group: g.clone(),
        maps: [DimMap::new(rows, 1, Dist::Star), DimMap::new(cols, 2, Dist::Block)],
        replicated: false,
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        let stmt = Stmt::whole(&side(4, 8).maps, [Remap::Identity, Remap::Shift(3)]);
        Plan::build(0, &side(4, 8), &side(4, 8), &stmt)
    }))
    .expect_err("columns 5.. shift past the source");
    let msg = panic_message(err);
    assert!(
        msg.contains("remap2: column map Shift(3) sends destination index 5 outside the source extent 8"),
        "got: {msg}"
    );

    let side1 = |n| Side { group: g.clone(), maps: [DimMap::new(n, 2, Dist::Cyclic)], replicated: false };
    let err = catch_unwind(AssertUnwindSafe(|| {
        Plan::build(1, &side1(6), &side1(6), &Stmt::whole(&side1(6).maps, [Remap::Shift(-1)]))
    }))
    .expect_err("index 0 shifts below the source");
    let msg = panic_message(err);
    assert!(
        msg.contains("remap1: index map Shift(-1) sends destination index 0 outside the source extent 6"),
        "got: {msg}"
    );
}

/// The same mistake through the statements themselves: the structured
/// path and the closure fallback both refuse — in release builds too —
/// instead of reading a wrong slot.
#[test]
fn out_of_range_statements_panic_in_every_profile() {
    let machine = Machine::real(2).with_timeout(std::time::Duration::from_secs(10));
    let run = |structured: bool| {
        let err = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, move |cx| {
                let g = cx.group();
                let src = DArray2::new(cx, &g, [3, 8], (Dist::Star, Dist::Block), 1u8);
                let mut dst = DArray2::new(cx, &g, [3, 8], (Dist::Star, Dist::Block), 0u8);
                if structured {
                    remap2(cx, &mut dst, &src, Remap::Identity, Remap::Shift(2));
                } else {
                    copy_remap2(cx, &mut dst, &src, |r, c| (r, c + 2));
                }
            })
        }))
        .expect_err("shift leaves the source");
        panic_message(err)
    };
    let msg = run(true);
    assert!(msg.contains("outside the source extent 8") || msg.contains("another processor panicked"), "got: {msg}");
    let msg = run(false);
    assert!(msg.contains("outside src shape 3x8") || msg.contains("another processor panicked"), "got: {msg}");
}
