//! Starting an `spmd` costs the same per processor whatever the machine's
//! size: the world group is built once and shared, coroutine stacks come
//! back from the free list, and a mailbox's lane table holds a slot per
//! 32 senders, not one per sender. Anything per processor that is O(P)
//! again — a private world list, a fresh `mmap`, a P-slot table — makes
//! a P = 4096 start cost several times a P = 256 one per processor.
//!
//! A ratio gate (release, `--ignored`): both sizes are timed in one
//! process, round by round in turn, so host speed and its drift over the
//! run cancel.

use std::time::Instant;

use fx_core::spmd;
use fx_runtime::{Executor, Machine, MachineModel};

/// Host microseconds per processor of an empty `spmd` on each of `sizes`
/// and one pooled worker: the best of seven rounds, each round timing
/// every size once in turn, after a first run of each has mapped the
/// stacks the rounds take back.
fn warm_us_per_proc<const K: usize>(sizes: [usize; K]) -> [f64; K] {
    let machines = sizes.map(|p| Machine::simulated(p, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 }));
    for m in &machines {
        spmd(m, |_| ());
    }
    let mut best = [f64::INFINITY; K];
    for _ in 0..7 {
        for (m, b) in machines.iter().zip(&mut best) {
            let t = Instant::now();
            spmd(m, |_| ());
            *b = b.min(t.elapsed().as_secs_f64());
        }
    }
    std::array::from_fn(|k| best[k] * 1e6 / sizes[k] as f64)
}

#[test]
#[ignore = "host-time ratio gate: cargo test --release -p fx-core --test spawn_cost -- --ignored"]
fn an_empty_spmd_costs_at_4096_what_it_costs_at_256_per_processor() {
    let [small, large] = warm_us_per_proc([256, 4096]);
    eprintln!("empty spmd, second run: {small:.2} us/proc at P = 256, {large:.2} us/proc at P = 4096 ({:.2}x)", large / small);
    assert!(large <= 2.0 * small, "P = 4096 costs {large:.2} us a processor, P = 256 {small:.2} us: set-up grows with P");
}
