//! `Cx::replicated` and the shared all-gather: replicated on the model,
//! once on the host.
//!
//! (a) the closure runs once per group in release builds and once per
//! member in debug builds, for the world group and both levels of a nested
//! partition, on one worker, two and one per processor; (b) a closure that depends on the
//! member panics in debug builds; (c) no slot outlives its group's last
//! taker, and a panicked run drops the table; (d) `allgather_vecs`
//! returns every member's part, in rank order, in one buffer the group
//! shares.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Weak};

use fx_core::{spmd, Cx, Machine, Size};
use fx_runtime::Executor;
use proptest::prelude::*;

/// One worker, two, and one per processor (4096 is clamped to P).
const EXECUTORS: [Executor; 3] =
    [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }];

/// Run `f` on the members of the current group one after another, in rank
/// order, so that no two of them race into it.
fn in_turn<R>(cx: &mut Cx, f: impl FnOnce(&mut Cx) -> R) -> R {
    let (me, n) = (cx.id(), cx.nprocs());
    if me > 0 {
        cx.recv_v::<()>(me - 1, 7);
    }
    let out = f(cx);
    if me + 1 < n {
        cx.send_v(me + 1, 7, ());
    }
    out
}

/// Split the current group in halves named `{prefix}0` and `{prefix}1`
/// and run `f` on this processor's half, with the half's name.
fn halves<R>(cx: &mut Cx, prefix: &str, mut f: impl FnMut(&mut Cx, &str) -> R) -> R {
    let names = [format!("{prefix}0"), format!("{prefix}1")];
    let part = cx.task_partition(&[(names[0].as_str(), Size::Procs(cx.nprocs() / 2)), (names[1].as_str(), Size::Rest)]);
    cx.task_region(&part, |cx, tr| {
        let a = tr.on(cx, &names[0], |cx| f(cx, &names[0]));
        let b = tr.on(cx, &names[1], |cx| f(cx, &names[1]));
        a.or(b).expect("every member is in one half")
    })
}

/// Each processor's shared values for the world group, its half and its
/// quarter, with the number of times each group's closure ran.
type Counts = Arc<Mutex<BTreeMap<String, usize>>>;

fn nested_program(cx: &mut Cx, calls: &Counts, ordered: bool) -> Vec<(String, Arc<String>)> {
    let take = |cx: &mut Cx, group: &str| {
        let call = |cx: &mut Cx| {
            cx.replicated(|| {
                *calls.lock().unwrap().entry(group.to_string()).or_default() += 1;
                format!("value of {group}")
            })
        };
        let shared = if ordered { in_turn(cx, call) } else { call(cx) };
        (group.to_string(), shared)
    };
    let mut out = vec![take(cx, "world")];
    out.extend(halves(cx, "h", |cx, half| {
        let mut mine = vec![take(cx, half)];
        mine.extend(halves(cx, &format!("{half}q"), |cx, quarter| vec![take(cx, quarter)]));
        mine
    }));
    out
}

#[test]
fn the_closure_runs_once_per_group_in_release_and_once_per_member_in_debug() {
    const P: usize = 8;
    let sizes = [("world", P), ("h0", 4), ("h1", 4), ("h0q0", 2), ("h0q1", 2), ("h1q0", 2), ("h1q1", 2)];
    for executor in EXECUTORS {
        for ordered in [true, false] {
            let calls = Counts::default();
            let machine = Machine::real(P).with_executor(executor);
            let rep = spmd(&machine, |cx| nested_program(cx, &calls, ordered));
            let calls = calls.lock().unwrap().clone();
            for (group, members) in sizes {
                let ran = calls[group];
                if cfg!(debug_assertions) {
                    assert_eq!(ran, members, "{executor}: {group} runs on every member in debug");
                } else if ordered || executor == (Executor::Pooled { workers: 1 }) {
                    assert_eq!(ran, 1, "{executor}: {group} runs once on the host");
                } else {
                    // Members racing in together may each run it.
                    assert!((1..=members).contains(&ran), "{executor}: {group} ran {ran} times");
                }
                // Whoever ran it, every member holds the one value.
                let held: Vec<&Arc<String>> =
                    rep.results.iter().flatten().filter(|(g, _)| g == group).map(|(_, v)| v).collect();
                assert_eq!(held.len(), members, "{executor}: {group}");
                assert!(held.iter().all(|v| Arc::ptr_eq(v, held[0])), "{executor}: {group} shares one Arc");
                assert_eq!(*held[0].as_str(), format!("value of {group}"));
            }
        }
    }
}

#[cfg(debug_assertions)]
#[test]
fn a_closure_that_depends_on_the_member_panics_in_debug() {
    for executor in EXECUTORS {
        let machine = Machine::real(4).with_executor(executor);
        let err = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, |cx| {
                halves(cx, "h", |cx, _| {
                    let me = cx.id();
                    *cx.replicated(move || me)
                })
            })
        }))
        .expect_err("a member-dependent closure is caught");
        let text = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(text.contains("replicated value differs on processor "), "{executor}: {text}");
        assert!(text.contains("(rank ") && text.contains(" of group 0x"), "{executor}: names the group: {text}");
    }
}

#[test]
fn no_slot_outlives_its_groups_last_taker() {
    // Once every member has taken a value (the barrier after the call),
    // the members hold the only references: the table kept none.
    for executor in EXECUTORS {
        let machine = Machine::real(6).with_executor(executor);
        let rep = spmd(&machine, |cx| {
            let mut held = Vec::new();
            let mut check = |cx: &mut Cx, value: u32| {
                let shared = cx.replicated(|| vec![value; 1000]);
                cx.barrier();
                let refs = Arc::strong_count(&shared);
                cx.barrier();
                held.push(Arc::downgrade(&shared));
                (refs, cx.nprocs())
            };
            let mut seen = vec![check(cx, 1)];
            seen.extend(halves(cx, "h", |cx, _| {
                let cut = cx.task_partition(&[("one", Size::Procs(1)), ("rest", Size::Rest)]);
                let solo = cx.task_region(&cut, |cx, tr| {
                    tr.on(cx, "one", |cx| cx.replicated(|| 5u8)).map(|v| Arc::strong_count(&v))
                });
                assert!(solo.is_none_or(|refs| refs == 1), "a group of one publishes nothing");
                vec![check(cx, 2)]
            }));
            seen.push(check(cx, 3));
            (seen, held)
        });
        for (seen, held) in rep.results {
            for (refs, members) in seen {
                assert_eq!(refs, members, "{executor}: the table released the value");
            }
            assert!(held.iter().all(|w| w.upgrade().is_none()), "{executor}: nothing survives the run");
        }
    }
}

#[test]
fn a_panicked_run_drops_the_table() {
    for executor in EXECUTORS {
        let left: Mutex<Vec<Weak<Vec<u8>>>> = Mutex::new(Vec::new());
        let machine = Machine::real(4).with_executor(executor);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            spmd(&machine, |cx| {
                // Rank 0 takes the value and dies before the others can
                // take it: the slot is still waiting for them.
                if cx.id() == 0 {
                    let shared = cx.replicated(|| vec![9u8; 64]);
                    left.lock().unwrap().push(Arc::downgrade(&shared));
                    panic!("rank 0 gives up");
                }
                cx.barrier();
            })
        }));
        assert!(outcome.is_err(), "{executor}: the run panicked");
        let left = left.lock().unwrap();
        assert_eq!(left.len(), 1);
        assert!(left[0].upgrade().is_none(), "{executor}: the table went with the run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ported from `prop_coll.rs`, same oracle: every member sees every
    /// member's irregular part, in rank order — and all of them read one
    /// buffer.
    #[test]
    fn allgather_vecs_preserves_irregular_lengths(p in 1usize..7, lens in proptest::collection::vec(0usize..6, 6)) {
        let lens2 = lens.clone();
        let rep = spmd(&Machine::real(p), move |cx| {
            let me = cx.id();
            let mine: Vec<u16> = (0..lens2[me]).map(|i| (me * 100 + i) as u16).collect();
            cx.allgather_vecs(mine)
        });
        for r in &rep.results {
            prop_assert_eq!(r.parts().len(), p);
            for (v, part) in r.parts().enumerate() {
                let expect: Vec<u16> = (0..lens[v]).map(|i| (v * 100 + i) as u16).collect();
                prop_assert_eq!(part, &expect[..]);
                prop_assert_eq!(r.part(v), &expect[..]);
            }
            let flat: Vec<u16> = (0..p).flat_map(|v| (0..lens[v]).map(move |i| (v * 100 + i) as u16)).collect();
            prop_assert_eq!(r.flat(), &flat[..]);
            prop_assert!(std::ptr::eq(r.flat(), rep.results[0].flat()), "one buffer for the group");
        }
    }
}
