//! Two promotable loops back to back, nothing communicating between them.
//!
//! Every promotable loop instance has its own board, so a member that
//! leaves the first loop early and enters the second can never make a peer
//! still in the first loop's victim loop read it as "not finished". The
//! loop's op tag is a hash of the group id and its sequence number, so
//! tags are not ordered: with no dummy tag between the loops the second
//! loop's tag hashes lower than the first's on the world group, with one
//! it hashes higher, and both orders must complete.
//!
//! A short spin timeout makes a wedge fail in seconds, not after the
//! default minute.

use std::time::Duration;

use fx_core::{spmd, Cx, Machine, MachineModel};
use fx_runtime::Executor;

const N: usize = 16;

/// Two 16-iteration loops over the world group, `dummies` op tags drawn
/// between them; each returns this member's squares of its own share.
fn two_loops(cx: &mut Cx, dummies: usize) -> Vec<u64> {
    let mut out = vec![0u64; 2 * N];
    for (k, half) in out.chunks_mut(N).enumerate() {
        if k == 1 {
            for _ in 0..dummies {
                cx.next_op_tag();
            }
        }
        cx.pdo_promote(
            "l",
            0..N,
            |_cx, i| vec![i as u64],
            |cx, i, ins| {
                cx.charge_flops(100.0 * (i + 1) as f64);
                vec![ins[0] * ins[0] + k as u64]
            },
            |_cx, i, outs: Vec<u64>| half[i] = outs[0],
        );
    }
    out
}

#[test]
fn back_to_back_promotable_loops_complete_in_both_tag_orders() {
    // One worker, two, and one per processor (4096 is clamped to P).
    for executor in [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }] {
        let machine = Machine::simulated(4, MachineModel::paragon())
            .with_executor(executor)
            .with_timeout(Duration::from_secs(5));
        for dummies in [0, 1] {
            let off = spmd(&machine.clone().with_heartbeat(false), move |cx| two_loops(cx, dummies));
            let on = spmd(&machine.clone().with_heartbeat(true), move |cx| two_loops(cx, dummies));
            assert_eq!(off.results, on.results, "{executor:?}, {dummies} dummy tags");
        }
    }
}
