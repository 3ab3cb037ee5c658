//! The five `FX_*` knobs, one table: every accepted spelling resolves
//! to its value, every malformed value panics naming the variable, and an
//! explicit `with_*` still wins. The environment is process-wide, so this
//! is one test in a binary of its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use fx_runtime::env::{self, Knob};
use fx_runtime::{DataflowMode, Executor, Machine, MachineModel};

/// What a knob resolved to, as text: the `Debug` of the machine field it
/// sets.
fn resolved(knob: &Knob) -> String {
    let m = Machine::simulated(2, MachineModel::paragon());
    match knob.name {
        "FX_WORKERS" => format!("{:?}", m.executor),
        "FX_DATAFLOW" => format!("{:?}", m.dataflow),
        "FX_HEARTBEAT" => format!("{:?}", m.heartbeat),
        "FX_TRACE" => format!("{:?}", m.tracing),
        // Not a public field: read it off the machine's `Debug`.
        "FX_STACK_KB" => {
            let dbg = format!("{m:?}");
            let at = dbg.find("stack_bytes: ").expect("Machine's Debug shows stack_bytes") + 13;
            dbg[at..].chars().take_while(char::is_ascii_digit).collect()
        }
        other => panic!("no resolver for {other}"),
    }
}

#[test]
fn every_knob_resolves_its_spellings_and_rejects_the_rest() {
    // (knob, unset, accepted spelling → value, malformed values). Each
    // knob has one default: workers auto (one per host CPU) and the
    // heartbeat on, for every machine.
    type Row = (&'static str, &'static str, &'static [(&'static str, &'static str)], &'static [&'static str]);
    let table: [Row; 5] = [
        (
            "FX_WORKERS",
            "Pooled { workers: 0 }",
            &[("3", "Pooled { workers: 3 }"), ("0", "Pooled { workers: 0 }"), ("4096", "Pooled { workers: 4096 }")],
            &["two", "-1", "1.5", "pooled"],
        ),
        ("FX_DATAFLOW", "On", &[("off", "Off"), ("on", "On")], &["1", "ON", "check", "validate"]),
        ("FX_HEARTBEAT", "true", &[("on", "true"), ("off", "false")], &["1", "true", "validate"]),
        (
            "FX_TRACE",
            "false",
            &[("1", "true"), ("on", "true"), ("true", "true"), ("0", "false"), ("off", "false"), ("false", "false")],
            &["yes", "2", "ON"],
        ),
        ("FX_STACK_KB", "1048576", &[("1", "65536"), ("64", "65536"), ("256", "262144")], &["1M", "-1", ""]),
    ];
    assert_eq!(table.map(|row| row.0), env::KNOBS.map(|k| k.name), "one row per knob of the table");
    // CI legs export knobs (`FX_WORKERS=1 cargo test`); this
    // process's environment is the test's own.
    for k in &env::KNOBS {
        std::env::remove_var(k.name);
    }

    for (knob, (_, unset, accepted, malformed)) in env::KNOBS.iter().zip(table) {
        assert_eq!(resolved(knob), unset, "{} unset", knob.name);
        for &(spelling, value) in accepted {
            std::env::set_var(knob.name, spelling);
            assert_eq!(resolved(knob), value, "{}={spelling:?}", knob.name);
        }
        for &bad in malformed {
            std::env::set_var(knob.name, bad);
            let err = catch_unwind(AssertUnwindSafe(|| resolved(knob))).expect_err("a malformed value must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(knob.name) && msg.contains(knob.accepts), "{}={bad:?} panicked with: {msg}", knob.name);
        }
        std::env::remove_var(knob.name);
    }

    // An explicit `with_*` wins over the environment.
    let set = [("FX_WORKERS", "3"), ("FX_DATAFLOW", "off"), ("FX_HEARTBEAT", "off")];
    for (name, value) in set.into_iter().chain([("FX_TRACE", "0")]) {
        std::env::set_var(name, value);
    }
    let m = Machine::simulated(2, MachineModel::paragon());
    assert_eq!((m.executor, m.dataflow, m.heartbeat), (Executor::Pooled { workers: 3 }, DataflowMode::Off, false));
    assert_eq!(m.spin_timeout, Duration::from_secs(60), "the spin timeout has no knob");
    let m = m
        .with_executor(Executor::pooled())
        .with_dataflow(DataflowMode::On)
        .with_heartbeat(true)
        .with_heartbeat_period(2e-3)
        .with_tracing(true)
        .with_timeout(Duration::from_secs(9));
    assert_eq!((m.executor, m.dataflow, m.heartbeat), (Executor::pooled(), DataflowMode::On, true));
    assert_eq!((m.heartbeat_period, m.tracing, m.spin_timeout), (2e-3, true, Duration::from_secs(9)));
    for k in &env::KNOBS {
        std::env::remove_var(k.name);
    }

    // The stack is sized when the machine is built, not when it runs, and
    // a request below the floor is clamped, not honoured into a crash.
    std::env::set_var("FX_STACK_KB", "1");
    let machine = Machine::simulated(2, MachineModel::paragon()).with_executor(Executor::Pooled { workers: 1 });
    std::env::remove_var("FX_STACK_KB");
    let rep = fx_runtime::run(&machine, |cx| {
        if cx.rank() == 0 {
            cx.send(1, 1, vec![1u8; 4096]);
            0
        } else {
            cx.recv::<Vec<u8>>(0, 1).len()
        }
    });
    assert_eq!(rep.results[1], 4096);
}
