//! The contract between `BENCHMARK.json`, the metric tables in the code
//! and what the binary prints — plus the two properties the numbers rest
//! on: virtual results do not depend on the host, and a wrong answer is
//! counted.

use std::path::PathBuf;
use std::process::Command;

use fx_benchmark::json::Json;
use fx_benchmark::measure::RUN_SECONDS;
use fx_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use fx_benchmark::spans::Recorder;
use fx_benchmark::workload::{Pin, Size};
use fx_benchmark::workloads::{setup, WORKLOADS};
use fx_runtime::Executor;

fn contract() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string '{key}' in {}", v.render()))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Run the benchmark binary and parse the last line of its stdout.
fn last_line_of(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_fx-benchmark"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn tmp(name: &str) -> String {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .display()
        .to_string()
}

#[test]
fn benchmark_json_matches_the_tables_in_the_code() {
    let c = contract();
    assert_eq!(
        keys(&c),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(c.get("paths"), Some(&Json::from(vec!["benchmark"])));
    assert_eq!(c.num("run_seconds").unwrap(), RUN_SECONDS);
    let command = c
        .get("command")
        .and_then(Json::as_arr)
        .expect("command is a list");
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|a| a.as_str().is_some_and(|s| s.len() <= 200))
    );

    let workloads = c
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| (str_field(w, "name"), str_field(w, "why")))
        .collect();
    assert_eq!(
        listed, WORKLOADS,
        "BENCHMARK.json workloads == workloads::WORKLOADS"
    );
    for (w, (name, why)) in workloads.iter().zip(&listed) {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(
            valid_name(name) && why.len() <= 200 && !why.contains('\n'),
            "{name}: {why}"
        );
    }

    let check = |key: &str, defs: &[MetricDef], max: usize, bounded: bool| {
        let listed = c
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"));
        assert!(
            (1..=max).contains(&listed.len()),
            "{key} has {} entries",
            listed.len()
        );
        assert_eq!(
            listed.len(),
            defs.len(),
            "{key} lists every metric the code reports"
        );
        for (m, (name, unit, better)) in listed.iter().zip(defs) {
            assert_eq!(
                (
                    str_field(m, "name"),
                    str_field(m, "unit"),
                    str_field(m, "better")
                ),
                (*name, *unit, *better)
            );
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            if bounded {
                assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
                let bound = m.num("bound").unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            } else {
                assert_eq!(keys(m), ["name", "unit", "better"]);
            }
        }
    };
    check("end_to_end", &END_TO_END, 16, true);
    check("per_layer", &PER_LAYER, 128, false);
    assert_eq!(END_TO_END[0], ("setup_s", "s", "lower"));

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "every name is used once"
    );
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for (workload, _) in WORKLOADS {
        for (trace, defs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = tmp(&format!("schema-{workload}-{trace}.json"));
            let line = last_line_of(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.1",
                "--trace",
                trace,
                "--smoke",
                "--out",
                &out,
            ]);
            assert_eq!(
                keys(&line),
                ["correct", "attempted", "failed", "metrics"],
                "{workload} trace {trace}"
            );
            assert_eq!(
                line.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
            assert!(line.num("attempted").unwrap() >= 1.0);
            assert_eq!(line.num("failed").unwrap(), 0.0);
            let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(k, v)| (k.as_str(), str_field(v, "unit")))
                .collect();
            let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.0, d.1)).collect();
            assert_eq!(printed, expected, "{workload} trace {trace}");
            for (name, m) in metrics {
                let v = m.num("value").unwrap();
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                // An end-to-end metric that can read 0 cannot be gated by
                // a relative bound.
                assert!(trace == "1" || v > 0.0, "{workload}: {name} = {v}");
            }
        }
    }
}

#[test]
fn virtual_results_do_not_depend_on_the_run_or_the_executor() {
    for (name, _) in WORKLOADS {
        let w = setup(name, 11, Size::Smoke).expect("known workload");
        let mut rec = Recorder::off();
        let first = w.pass(&Pin::E2E, &mut rec).virt;
        assert!(
            first.makespan_s > 0.0 && !first.op_latency_s.is_empty(),
            "{name}"
        );
        let again = w.pass(&Pin::E2E, &mut rec).virt;
        let threaded = w.pass(&Pin::E2E.on(Executor::Threaded), &mut rec).virt;
        for (label, other) in [("second pass", again), ("threaded executor", threaded)] {
            assert_eq!(first.fingerprint(), other.fingerprint(), "{name}: {label}");
            assert_eq!(first, other, "{name}: {label}");
        }
        // A second set-up from the same seed generates the same inputs.
        let fresh = setup(name, 11, Size::Smoke)
            .expect("known workload")
            .pass(&Pin::E2E, &mut rec)
            .virt;
        assert_eq!(
            first.fingerprint(),
            fresh.fingerprint(),
            "{name}: fresh set-up"
        );
    }
}

#[test]
fn an_injected_wrong_answer_is_counted_as_a_failed_op() {
    for (name, _) in WORKLOADS {
        let mut w = setup(name, 5, Size::Smoke).expect("known workload");
        let mut rec = Recorder::off();
        let clean = (w.pass(&Pin::E2E, &mut rec).check)();
        assert!(
            clean.attempted >= 1 && clean.failed == 0,
            "{name}: {clean:?}"
        );
        w.inject_fault();
        let faulty = (w.pass(&Pin::E2E, &mut rec).check)();
        assert_eq!(faulty.attempted, clean.attempted, "{name}");
        assert!(
            faulty.failed >= 1 && faulty.failed <= faulty.attempted,
            "{name}: {faulty:?}"
        );
    }
    // And the process reports it instead of dying.
    let line = last_line_of(&[
        "--workload",
        "paper_apps",
        "--seed",
        "5",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--smoke",
        "--inject-fault",
        "--out",
        &tmp("schema-fault.json"),
    ]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.num("failed").unwrap() >= 1.0);
}
