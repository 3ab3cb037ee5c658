//! Dataflow barrier elision: every array statement is a sync edge whose
//! receives order it, so `On` elides each edge's barrier and `Off` keeps
//! one per member of the edge — and neither changes program results,
//! only virtual time.

use fx_core::{spmd, Agreement, Cx, DataflowMode, Machine, MachineModel, RunReport, Size};
use fx_darray::{
    assign1, assign2, assign2_with, exchange_row_halo, remap1, remap2, DArray1, DArray2, Dist, Dist1,
    Participation, Remap,
};
use proptest::prelude::*;

/// `f` on `p` processors with the dataflow `On` (the report returned)
/// and `Off`, after asserting that the `On` run agrees with the `Off` one:
/// the same results and marks, nothing later, no more traffic.
fn both<R, F>(p: usize, f: F) -> (RunReport<R>, RunReport<R>)
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    let go = |mode| spmd(&Machine::simulated(p, MachineModel::paragon()).with_dataflow(mode), &f);
    let (on, off) = (go(DataflowMode::On), go(DataflowMode::Off));
    on.assert_agrees_with(&off, Agreement::Earlier);
    (on, off)
}

/// A 3-stage 1-D pipeline (the FFT-Hist shape): G1 produces, G2
/// transforms, G3 consumes, data crossing stages via plan-based `assign1`.
fn pipeline(cx: &mut Cx, datasets: usize, n: usize) -> Vec<u64> {
    let part = cx.task_partition(&[
        ("G1", Size::Procs(1)),
        ("G2", Size::Procs(1)),
        ("G3", Size::Rest),
    ]);
    let g1 = part.group("G1");
    let g2 = part.group("G2");
    let g3 = part.group("G3");
    let mut a1 = DArray1::new(cx, &g1, n, Dist1::Block, 0u64);
    let mut a2 = DArray1::new(cx, &g2, n, Dist1::Block, 0u64);
    let mut a3 = DArray1::new(cx, &g3, n, Dist1::Block, 0u64);
    let mut out = Vec::new();
    cx.task_region(&part, |cx, tr| {
        for d in 0..datasets {
            tr.on(cx, "G1", |cx| {
                cx.charge_flops(50_000.0);
                a1.for_each_owned(|gi, v| *v = (d * 1000 + gi) as u64);
            });
            assign1(cx, &mut a2, &a1);
            tr.on(cx, "G2", |cx| {
                cx.charge_flops(50_000.0);
                a2.for_each_owned(|_, v| *v += 1);
            });
            assign1(cx, &mut a3, &a2);
            if let Some(sum) = tr.on(cx, "G3", |cx| {
                cx.charge_flops(50_000.0);
                a3.to_global(cx).iter().sum::<u64>()
            }) {
                out.push(sum);
            }
        }
    });
    out
}

#[test]
fn covered_pipeline_elides_every_barrier() {
    // Same program, same results — barriers never move data — and no
    // processor later.
    let (on, off) = both(4, |cx| pipeline(cx, 4, 32));
    let (doff, don) = (off.total(), on.total());
    assert_eq!(doff.barriers_elided, 0, "Off never elides");
    assert!(doff.barriers_kept > 0, "Off keeps a barrier per edge");
    assert_eq!(don.barriers_kept, 0, "all pipeline edges are covered");
    // Every barrier Off kept, On elided (counted by the same members).
    assert_eq!(don.barriers_elided, doff.barriers_kept);
    // Removing the barriers strictly shortens the pipeline's makespan.
    assert!(
        on.makespan() < off.makespan(),
        "elision should shorten the run: on={} off={}",
        on.makespan(),
        off.makespan()
    );
}

#[test]
fn a_remap_is_a_sync_edge_like_any_statement() {
    let p = 3usize;
    // Barriers never move data.
    let (on, off) = both(p, |cx| {
        let g = cx.group();
        let data: Vec<u32> = (0..24).collect(); // 6x4
        let src = DArray2::from_global(cx, &g, [6, 4], (Dist::Block, Dist::Star), &data);
        let mut mid = DArray2::new(cx, &g, [6, 4], (Dist::Cyclic, Dist::Star), 0u32);
        let mut dst = DArray2::new(cx, &g, [6, 4], (Dist::Block, Dist::Star), 0u32);
        remap2(cx, &mut mid, &src, Remap::Identity, Remap::Cyclic(1)); // edge 1
        assign2(cx, &mut dst, &mid); // edge 2
        let halo = exchange_row_halo(cx, &dst, 1); // edge 3
        (dst.to_global(cx).to_vec(), halo.top, halo.bottom)
    });
    // Processor 0 owns rows 0-1; its lower ghost row is row 2, rotated.
    assert_eq!(on.results[0].2, vec![9, 10, 11, 8]);
    let edges = 3 * p as u64;
    let (doff, don) = (off.total(), on.total());
    assert_eq!((don.barriers_elided, don.barriers_kept), (edges, 0), "On elides every edge");
    assert_eq!((doff.barriers_elided, doff.barriers_kept), (0, edges), "Off: one per member");
}

#[test]
fn a_remap_chain_agrees_with_its_barriers() {
    // A remap feeding two assignments: three elided edges.
    let (on, _) = both(3, |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..10).collect();
        let src = DArray1::from_global(cx, &g, data.len(), Dist1::Block, &data);
        let mut mid = DArray1::new(cx, &g, 10, Dist1::Cyclic, 0u64);
        remap1(cx, &mut mid, &src, Remap::Identity);
        let mut dst = DArray1::new(cx, &g, 10, Dist1::Block, 0u64);
        assign1(cx, &mut dst, &mid);
        assign1(cx, &mut dst, &src);
        dst.to_global(cx)
    });
    assert_eq!(on.total().barriers_elided, 9);
    for r in &on.results {
        assert_eq!(*r, (0..10).collect::<Vec<u64>>());
    }
}

#[test]
fn nothing_elided_is_bit_exact() {
    // Only a `WholeGroup` statement, which barriers the group and is no
    // sync edge: `On` elides nothing, so both runs send the same traffic
    // and the comparator asks for bitwise-identical clocks.
    let (on, off) = both(3, |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..12).collect();
        let src = DArray2::from_global(cx, &g, [3, 4], (Dist::Block, Dist::Star), &data);
        let mut dst = DArray2::new(cx, &g, [3, 4], (Dist::Star, Dist::Block), 0u64);
        assign2_with(cx, &mut dst, &src, Participation::WholeGroup);
        dst.to_global(cx)
    });
    assert_eq!(on.total().barriers_elided, 0);
    assert_eq!(on.total().barriers_kept, 0);
    assert_eq!(on.traffic, off.traffic);
    for r in &on.results {
        assert_eq!(*r, (0..12).collect::<Vec<u64>>());
    }
}

#[test]
fn kept_barriers_carry_edge_labels_in_profiled_spans() {
    let rep = spmd(
        &Machine::simulated(4, MachineModel::paragon())
            .with_dataflow(DataflowMode::Off)
            .with_profiling(true),
        |cx| pipeline(cx, 2, 32),
    );
    // Off keeps every inter-stage barrier; its spans must be labelled
    // with the physical ranks of the edge ("barrier[p0>p1]" under
    // "assign1"), so Chrome traces attribute waits to specific edges.
    let mut edge_labels: Vec<String> = rep
        .logs
        .iter()
        .flat_map(|log| log.spans().map(|s| log.labels().get(s.label)))
        .flat_map(|label| label.path().split('/').map(str::to_string).collect::<Vec<_>>())
        .filter(|c| c.starts_with("barrier[") && c.contains('>'))
        .collect();
    edge_labels.sort();
    edge_labels.dedup();
    assert!(
        edge_labels.contains(&"barrier[p0>p1]".to_string()),
        "missing G1→G2 edge label; got {edge_labels:?}"
    );
    assert!(
        edge_labels.contains(&"barrier[p1>p2-3]".to_string()),
        "missing G2→G3 edge label; got {edge_labels:?}"
    );

    // The critical path must attribute some of the makespan to barrier
    // waits — and none once the barriers are elided.
    assert!(rep.critical_path().barrier_wait() > 0.0);
    let on = spmd(
        &Machine::simulated(4, MachineModel::paragon())
            .with_dataflow(DataflowMode::On)
            .with_profiling(true),
        |cx| pipeline(cx, 2, 32),
    );
    assert_eq!(on.critical_path().barrier_wait(), 0.0);
}

// ---------------------------------------------------------------------------
// Property: "elided run ≡ barriered run"
// ---------------------------------------------------------------------------

fn arb_dist1() -> impl Strategy<Value = Dist1> {
    prop_oneof![
        Just(Dist1::Block),
        Just(Dist1::Cyclic),
        (1usize..4).prop_map(Dist1::BlockCyclic),
    ]
}

/// One step of a random statement mix over three arrays (a, b, c).
#[derive(Debug, Clone)]
enum Op {
    /// Plan-based `assign1` (covered edge): dst = src.
    Assign { dst: usize, src: usize },
    /// Shifted sub-range copy through the interval planner.
    Shift { dst: usize, src: usize, lo: usize, len: usize, shift: isize },
    /// Structured remap: dst[i] = src[i], or src[(i + 1) % n] when
    /// rotated.
    Remap { dst: usize, src: usize, rotate: bool },
}

/// Distinct (dst, src) pair over three arrays, encoded as dst + offset.
fn arb_pair() -> impl Strategy<Value = (usize, usize)> {
    (0usize..3, 1usize..3).prop_map(|(d, o)| (d, (d + o) % 3))
}

fn arb_op(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_pair().prop_map(|(dst, src)| Op::Assign { dst, src }),
        (arb_pair(), 0..n, 1..=n, -2isize..=2).prop_map(move |((dst, src), lo, len, shift)| {
            let lo = lo.min(n - 1);
            let len = len.min(n - lo);
            // Clamp the shift so the shifted range stays inside [0, n).
            let shift = shift.clamp(-(lo as isize), (n - lo - len) as isize);
            Op::Shift { dst, src, lo, len, shift }
        }),
        (arb_pair(), any::<bool>()).prop_map(|((dst, src), rotate)| Op::Remap { dst, src, rotate }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random mix of assignments, shifts and remaps over random
    /// distributions produces identical contents with barriers elided or
    /// kept, never-later clocks, and — when the traffic is the same —
    /// bit-identical clocks.
    #[test]
    fn elision_never_changes_results(
        n in 4usize..20,
        p in 1usize..5,
        dists in (arb_dist1(), arb_dist1(), arb_dist1()),
        ops in proptest::collection::vec(arb_op(4), 1..7),
    ) {
        both(p, move |cx| {
            let g = cx.group();
            let init: Vec<u64> = (0..n as u64).map(|i| i * 13 + 5).collect();
            let mut arrs = [
                DArray1::from_global(cx, &g, init.len(), dists.0, &init),
                DArray1::new(cx, &g, n, dists.1, 0u64),
                DArray1::new(cx, &g, n, dists.2, 1u64),
            ];
            for op in &ops {
                match *op {
                    Op::Assign { dst, src } => {
                        let s = arrs[src].clone();
                        assign1(cx, &mut arrs[dst], &s);
                    }
                    Op::Shift { dst, src, lo, len, shift } => {
                        let s = arrs[src].clone();
                        fx_darray::copy_shift1_range(
                            cx, &mut arrs[dst], lo..lo + len, &s, shift,
                            Participation::Minimal,
                        );
                    }
                    Op::Remap { dst, src, rotate } => {
                        let s = arrs[src].clone();
                        let by = if rotate { Remap::Cyclic(1) } else { Remap::Identity };
                        remap1(cx, &mut arrs[dst], &s, by);
                    }
                }
            }
            (
                arrs[0].to_global(cx),
                arrs[1].to_global(cx),
                arrs[2].to_global(cx),
            )
        });
    }
}
