//! The host sampler on the runtime's own workload (release, `--ignored`).
//!
//! `a_p1024_ring_profile_accounts_for_every_sample` is the gate: a
//! one-worker P = 1024 ring, sampled at 1 ms, whose per-crate, per-symbol
//! and per-line counts must each sum to the sample count, with the
//! runtime among the crates. `msg_storm_profile` prints the profile of the
//! benchmark's `msg_storm` program (benchmark/src/workloads/msg_storm.rs:
//! P = 1024, 120 ring rounds of a `u64`, then 60 `allreduce` + `barrier`
//! rounds, one pooled worker), one warm-up pass and 20 sampled ones at
//! 250 Hz. Both print their reports:
//! `cargo test --release -p fx-bench --test sampler -- --ignored --nocapture`.
//!
//! They share one process-wide timer, so they take turns.

use std::sync::Mutex;
use std::time::Duration;

use fx_bench::sampler::{profile, Report};
use fx_core::{spmd, Machine, MachineModel};
use fx_runtime::Executor;

const P: usize = 1024;

/// One profile at a time in this process.
static TURN: Mutex<()> = Mutex::new(());

fn one_worker() -> Machine {
    Machine::simulated(P, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 })
}

/// `ring` rounds of a `u64` passed right, then `coll` rounds of
/// `allreduce` + `barrier`.
fn storm(machine: &Machine, ring: usize, coll: usize) {
    spmd(machine, |cx| {
        let me = cx.id();
        let mut token = (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..ring {
            cx.send_v((me + 1) % P, 7, token);
            token = cx.recv_v((me + P - 1) % P, 7);
        }
        for k in 0..coll {
            let sum = cx.allreduce(token.rotate_left(k as u32 % 64) ^ k as u64, u64::wrapping_add);
            cx.barrier();
            token ^= sum;
        }
    });
}

/// Each of the report's tables sums to its sample count.
fn assert_accounted(r: &Report) {
    for (table, rows) in [("crate", &r.by_crate), ("symbol", &r.by_symbol), ("source line", &r.by_line)] {
        assert_eq!(rows.iter().map(|(_, n)| n).sum::<usize>(), r.samples, "the {table} shares sum to the sample count");
    }
}

#[test]
#[ignore = "release profile: cargo test --release -p fx-bench --test sampler -- --ignored --nocapture"]
fn a_p1024_ring_profile_accounts_for_every_sample() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let machine = one_worker();
    storm(&machine, 8, 0);
    let ((), samples) = profile(Duration::from_millis(1), || (0..10).for_each(|_| storm(&machine, 120, 0)));
    let report = samples.resolve();
    println!("P = {P} ring, one worker, 10 x 120 rounds:\n{report}");
    assert!(report.samples >= 20, "{} samples: the timer barely fired", report.samples);
    assert_accounted(&report);
    if report.addr2line {
        assert!(report.by_crate.iter().any(|(c, _)| c == "fx_runtime"), "a ring with no runtime samples");
    }
}

#[test]
#[ignore = "release profile: cargo test --release -p fx-bench --test sampler -- --ignored --nocapture"]
fn msg_storm_profile() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let machine = one_worker();
    storm(&machine, 120, 60);
    let ((), samples) = profile(Duration::from_millis(4), || (0..20).for_each(|_| storm(&machine, 120, 60)));
    let report = samples.resolve();
    println!("msg_storm's program, one worker, 20 passes:\n{report}");
    assert_accounted(&report);
}
