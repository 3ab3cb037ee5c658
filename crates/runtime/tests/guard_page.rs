//! A recycled coroutine stack keeps its guard page. A stack goes back to
//! the free list when its coroutine finishes and the next run takes it
//! without mapping anything, so the `PROT_NONE` page below it must still
//! be there: a processor that overflows a second-run stack has to die by
//! `SIGSEGV`, never run on into whatever lies below.
//!
//! The overflow kills the process, so the test re-executes its own binary
//! with [`CHILD`] set and reads the child's exit status.
#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use fx_runtime::{debug_counters::STACK_MAPS, run, Executor, Machine, MachineModel};

/// Set in the child's environment: run the overflow instead of spawning.
const CHILD: &str = "GUARD_PAGE_TEST_CHILD";

/// Recurse until the stack runs out; each frame keeps half a KiB live.
fn dive(depth: u64) -> u64 {
    let pad = black_box([depth; 64]);
    if depth == u64::MAX {
        return pad[0];
    }
    dive(depth + 1).wrapping_add(pad[63])
}

/// The permissions of the mapping that ends where the one holding `addr`
/// begins, from `/proc/self/maps`.
fn perms_below(addr: usize) -> Option<String> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let regions: Vec<(usize, usize, String)> = maps
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (lo, hi) = fields.next()?.split_once('-')?;
            let parse = |h| usize::from_str_radix(h, 16).ok();
            Some((parse(lo)?, parse(hi)?, fields.next()?.to_string()))
        })
        .collect();
    let start = regions.iter().find(|r| (r.0..r.1).contains(&addr))?.0;
    regions.into_iter().find(|r| r.1 == start).map(|r| r.2)
}

/// The child: one empty run maps a stack and gives it back, and the
/// second run's one processor, on that same stack, finds the guard below
/// it and then overflows it.
fn overflow_a_recycled_stack() {
    let machine = Machine::simulated(1, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    run(&machine, |_| ());
    let maps = STACK_MAPS.load(std::sync::atomic::Ordering::Relaxed);
    run(&machine, |_| {
        // Debug builds count maps: this run must have mapped nothing.
        assert_eq!(STACK_MAPS.load(std::sync::atomic::Ordering::Relaxed), maps, "the second run mapped a stack");
        let here = 0u8;
        let guard = perms_below(&here as *const u8 as usize);
        assert_eq!(guard.as_deref(), Some("---p"), "no PROT_NONE page below the recycled stack");
        eprintln!("second run, recycled stack, guard page below it: diving");
        black_box(dive(0));
    });
    eprintln!("the overflow returned");
}

#[test]
fn overflowing_a_recycled_stack_dies_by_sigsegv() {
    if std::env::var_os(CHILD).is_some() {
        overflow_a_recycled_stack();
        return;
    }
    let me = std::env::current_exe().expect("the test binary");
    let out = Command::new(me)
        .args(["--exact", "overflowing_a_recycled_stack_dies_by_sigsegv", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("diving"), "the child never reached the overflow: {:?}\n{stderr}", out.status);
    assert_eq!(out.status.signal(), Some(11), "the child must die by SIGSEGV, got {:?}\n{stderr}", out.status);
}
