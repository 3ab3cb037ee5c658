//! The paper's sensor-based programs (§5.1): narrowband tracking radar
//! and multibaseline stereo, each one program text run under the mappings
//! Table 1 compares — pure data parallelism, a 3-stage pipeline,
//! replicated modules — each given as a `Placement` value.
//!
//! Run with: `cargo run --release --example sensor_pipelines`

use fx::apps::radar::{radar_sets, RadarConfig};
use fx::apps::stereo::{stereo_sets, StereoConfig};
use fx::apps::util::{run_mapped, Placement, Segments, SET_DONE, SET_START};
use fx::prelude::*;

/// Run `program` over `datasets` data sets under each `(label, mapping,
/// pipeline-fill sets to skip)` on `machine` and print what it measures.
fn report<R: Default>(
    machine: &Machine,
    datasets: usize,
    mappings: &[(&str, Placement, usize)],
    program: impl Fn(&mut Cx, &Segments, &[usize]) -> R + Sync,
) {
    let sets: Vec<usize> = (0..datasets).collect();
    for (label, placement, skip) in mappings {
        let rep = spmd(machine, |cx| {
            run_mapped(cx, placement, &sets, &program);
        });
        println!(
            "  {label:14}: {:6.1} sets/s, latency {:.4} s",
            rep.throughput(SET_DONE, *skip),
            rep.latency(SET_START, SET_DONE)
        );
    }
}

fn main() {
    let machine = Machine::simulated(8, MachineModel::paragon());

    // ---- Radar -----------------------------------------------------
    let rcfg = RadarConfig { ranges: 128, pulses: 8, datasets: 12, gain: 0.25, threshold: 0.6 };
    println!("Narrowband tracking radar ({}x{}, {} data sets, 8 procs)", rcfg.ranges, rcfg.pulses, rcfg.datasets);
    let mappings = [
        ("data parallel", Placement::data_parallel(8), 2),
        ("pipeline 2/5/1", Placement::pipeline([2, 5, 1]), 3),
        ("4x replicated", Placement::replicated(4, Segments::fused(2)), 4),
    ];
    report(&machine, rcfg.datasets, &mappings, |cx, segs, sets| {
        radar_sets(cx, &rcfg, segs, sets)
    });
    println!();

    // ---- Stereo ----------------------------------------------------
    let scfg = StereoConfig { rows: 48, cols: 64, n_match: 2, max_disp: 4, window: 2, datasets: 8 };
    println!(
        "Multibaseline stereo ({}x{}, {} match images, {} disparities, 8 procs)",
        scfg.rows, scfg.cols, scfg.n_match, scfg.max_disp
    );
    let mappings = [
        ("data parallel", Placement::data_parallel(8), 2),
        ("pipeline 4/3/1", Placement::pipeline([4, 3, 1]), 3),
        ("2x pipe 2/1/1", Placement::replicated(2, Segments::pipeline([2, 1, 1])), 4),
    ];
    report(&machine, scfg.datasets, &mappings, |cx, segs, sets| {
        stereo_sets(cx, &scfg, segs, sets)
    });

    println!();
    println!("ok: task parallelism reshapes throughput/latency exactly as Table 1 describes");
}
