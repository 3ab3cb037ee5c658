//! Quickstart: the Fx model in one file.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The program below is the paper's Section 2.1 example translated to
//! this library: the executing processors are divided into subgroups
//! `some` (2 processors) and `many` (the rest); subgroup-scope blocks run
//! independently, parent-scope statements involve everyone who owns the
//! data.

use fx::prelude::*;

fn main() {
    let machine = Machine::simulated(8, MachineModel::paragon());
    let report = spmd(&machine, |cx| {
        // TASK_PARTITION :: some(2), many(NUMBER_OF_PROCESSORS()-2)
        let part = cx.task_partition(&[("some", Size::Procs(2)), ("many", Size::Rest)]);
        let g_some = part.group("some");
        let g_many = part.group("many");

        // SUBGROUP(some) :: some_low ; SUBGROUP(many) :: many_low, many_high
        let mut some_low = DArray1::new(cx, &g_some, 16, Dist1::Block, 0.0f64);
        let mut many_low = DArray1::new(cx, &g_many, 16, Dist1::Block, 0.0f64);
        let mut many_high = DArray1::new(cx, &g_many, 16, Dist1::Block, 0.0f64);

        // BEGIN TASK_REGION
        cx.task_region(&part, |cx, tr| {
            // ON SUBGROUP some: some_low = ...
            tr.on(cx, "some", |cx| {
                some_low.for_each_owned(|i, v| *v = i as f64 * 0.5);
                cx.charge_flops(16.0);
            });
            // Parent scope: many_low = some_low — executed by the owners
            // of both arrays; anyone else would skip past.
            assign1(cx, &mut many_low, &some_low);
            // ON SUBGROUP many: many_high = f(many_low)
            tr.on(cx, "many", |cx| {
                let (lo, hi) = (&many_low, &mut many_high);
                hi.for_each_owned(|_i, _v| {});
                // f: double each element, writing into many_high.
                let vals: Vec<f64> = lo.local().iter().map(|v| v * 2.0).collect();
                hi.local_mut().copy_from_slice(&vals);
                cx.charge_flops(16.0);
            });
        });
        // END TASK_REGION

        // Collect the result on the "many" members for display; the
        // others return an empty vector.
        if many_high.is_member() {
            cx.enter(&g_many, |cx| many_high.to_global(cx).to_vec())
        } else {
            Vec::new()
        }
    });

    println!("virtual finish times per processor (s):");
    for (p, t) in report.times.iter().enumerate() {
        println!("  processor {p}: {t:.6}");
    }
    println!("many_high = {:?}", report.results.last().unwrap());
    assert_eq!(
        report.results.last().unwrap(),
        &(0..16).map(|i| i as f64).collect::<Vec<_>>()
    );
    println!("ok: subgroups computed independently, parent scope moved the data");
}
