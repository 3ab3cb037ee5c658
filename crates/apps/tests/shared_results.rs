//! A whole-array result is one buffer per group: at P = 64, on a worker
//! per processor and on one worker, every member's sorted keys and every
//! member's force array are the same allocation, and hold the right
//! values.

use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::qsort::qsort_global_promoted;
use fx_apps::util::unit_hash;
use fx_core::{spmd, Global, Machine};
use fx_kernels::nbody::BhTree;
use fx_runtime::{Executor, MachineModel};

const P: usize = 64;
const EXECUTORS: [Executor; 2] = [Executor::Pooled { workers: P }, Executor::Pooled { workers: 1 }];

fn machine(executor: Executor) -> Machine {
    Machine::simulated(P, MachineModel::paragon()).with_executor(executor)
}

fn one_buffer<T>(results: &[Global<T>], what: &str) {
    for (v, r) in results.iter().enumerate() {
        assert!(Global::ptr_eq(r, &results[0]), "{what}: processor {v} holds its own copy");
    }
}

#[test]
fn every_member_reads_the_one_sorted_array() {
    let keys: Vec<i64> = (0..4096).map(|i| (unit_hash(3, i, 11) * 1.0e9) as i64).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    for executor in EXECUTORS {
        let k = keys.clone();
        let rep = spmd(&machine(executor), move |cx| qsort_global_promoted(cx, &k, 4));
        one_buffer(&rep.results, &format!("qsort under {executor:?}"));
        assert_eq!(rep.results[0], expect, "{executor:?}");
    }
}

#[test]
fn every_member_reads_the_one_force_array() {
    let bodies = make_bodies(1024, 5);
    let cfg = BhConfig::new(bodies.len()).with_leaf_group(4);
    let tree = BhTree::build(bodies.clone());
    for executor in EXECUTORS {
        let b = bodies.clone();
        let rep = spmd(&machine(executor), move |cx| bh_forces(cx, &b, &cfg));
        one_buffer(&rep.results, &format!("bh_forces under {executor:?}"));
        // Input order, bit for bit the sequential walk of the whole tree.
        let forces = &rep.results[0];
        assert_eq!(forces.len(), bodies.len());
        for (i, b) in tree.bodies.iter().enumerate() {
            let seq = tree.force_at(b.pos, cfg.theta, cfg.eps).expect("the whole tree has no remote cell");
            assert_eq!(forces[tree.order[i]].map(f64::to_bits), seq.map(f64::to_bits), "{executor:?}: particle {i}");
        }
    }
}
