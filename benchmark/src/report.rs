//! Result documents: assembling them, printing them, comparing two.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::measure::{self, Plan, MIN_PASSES};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, VIRT};
use crate::sys;
use crate::workload::{Pin, Size};
use crate::workloads::WORKLOADS;

/// Which of the two kinds of run a document holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, tracing off.
    Run,
    /// Per-layer metrics from the traced run.
    Trace,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }

    fn defs(self) -> &'static [MetricDef] {
        match self {
            Mode::Run => &END_TO_END,
            Mode::Trace => &PER_LAYER,
        }
    }
}

/// What a `run` or `trace` invocation covers.
#[derive(Debug, Clone)]
pub struct Request {
    /// Workloads, in order.
    pub workloads: Vec<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes per workload (`run` only).
    pub seconds: f64,
    /// Full or smoke sizes.
    pub size: Size,
    /// Corrupt one oracle entry per workload (schema test only).
    pub inject_fault: bool,
}

impl Request {
    /// The measurement plan of one of the workloads.
    pub fn plan(&self, workload: &str) -> Plan {
        Plan {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            size: self.size,
            inject_fault: self.inject_fault,
        }
    }
}

/// Measure every requested workload and assemble the document.
pub fn measure(mode: Mode, req: &Request, scrubbed: &[String]) -> Result<Json, String> {
    let mut entries = Json::obj();
    for name in &req.workloads {
        let why = WORKLOADS
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, why)| *why)
            .ok_or_else(|| format!("unknown workload '{name}'"))?;
        let plan = req.plan(name);
        eprintln!("[benchmark] {} {name} (seed {})", mode.name(), req.seed);
        let entry = match mode {
            Mode::Run => measure::end_to_end(&plan)?,
            Mode::Trace => measure::per_layer(&plan)?,
        };
        entries = entries.set(name, entry.set("why", why));
    }
    let smoke = req.size == Size::Smoke;
    let env = Json::obj()
        .set("host", sys::host_block())
        .set(
            "pinned",
            Pin::describe().set("child_env", "FX_* removed, MALLOC_ARENA_MAX=1"),
        )
        .set("fx_env_removed", scrubbed.to_vec())
        .set("seed", req.seed)
        .set("smoke", smoke)
        .set("children_per_workload", measure::children(req.size))
        .set("run_seconds", req.seconds)
        .set("min_passes_per_child", MIN_PASSES);
    Ok(Json::obj()
        .set("benchmark", "fx-benchmark")
        .set("mode", mode.name())
        .set("env", env)
        .set("workloads", entries))
}

/// Default path of a result document under `out/`.
pub fn default_path(mode: Mode, req: &Request) -> PathBuf {
    let scope = if req.workloads.len() == 1 {
        req.workloads[0].as_str()
    } else {
        "all"
    };
    let smoke = if req.size == Size::Smoke {
        "-smoke"
    } else {
        ""
    };
    sys::out_dir().join(format!(
        "{}-{scope}-seed{}{smoke}.json",
        mode.name(),
        req.seed
    ))
}

/// Print every metric of every workload by name, with its unit.
pub fn print_table(mode: Mode, doc: &Json) {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, entry) in workloads {
        let flag = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{name}: correct={} ops_attempted={} ops_failed={}",
            entry
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            flag("ops_attempted"),
            flag("ops_failed")
        );
        let Some(metrics) = entry.get("metrics") else {
            continue;
        };
        for (metric, unit, better) in mode.defs() {
            let Some(m) = metrics.get(metric) else {
                continue;
            };
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            print!("  {metric:<36} {value:>16.6} {unit:<10} ({better} is better)");
            if let (Ok(n), Ok(min), Ok(q1), Ok(q3)) =
                (m.num("n"), m.num("min"), m.num("q1"), m.num("q3"))
            {
                print!("  n={n} min={min:.6} q1={q1:.6} q3={q3:.6}");
            }
            println!();
        }
    }
}

/// The driver's line for a single-workload document: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn driver_line(doc: &Json) -> Result<String, String> {
    let entry = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .and_then(|w| w.first())
        .map(|(_, e)| e)
        .ok_or("document holds no workload")?;
    let mut metrics = Json::obj();
    for (name, m) in entry
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("workload holds no metrics")?
    {
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        metrics = metrics.set(
            name,
            Json::obj().set("value", m.num("value")?).set("unit", unit),
        );
    }
    Ok(Json::obj()
        .set(
            "correct",
            entry
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        )
        .set("attempted", entry.num("ops_attempted")?)
        .set("failed", entry.num("ops_failed")?)
        .set("metrics", metrics)
        .render())
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, bound)` of every end-to-end metric in the repo's
/// `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let contract = read_json(&sys::bench_dir().join("..").join("BENCHMARK.json"))?;
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without name")?;
            Ok((name.to_string(), m.num("bound")?))
        })
        .collect()
}

/// Compare two `run` documents, `a` the baseline. Prints one row per
/// workload and end-to-end metric; returns whether `b` is acceptable (no
/// metric worse than its bound, no larger failed share).
///
/// Host metrics use the bound from `BENCHMARK.json`, and are reported
/// *unresolved* when either side's printed quartile spread exceeds it.
/// Virtual metrics are exact for a seed: at equal seeds any difference
/// is a verdict, with no noise band.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let bounds = bounds()?;
    let same_seed =
        a.get("env").and_then(|e| e.get("seed")) == b.get("env").and_then(|e| e.get("seed"));
    let (wa, wb) = (
        a.get("workloads")
            .and_then(Json::as_obj)
            .ok_or("first file holds no workloads")?,
        b.get("workloads").ok_or("second file holds no workloads")?,
    );
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, ea) in wa {
        let Some(eb) = wb.get(name) else {
            println!("{name:<14} missing from the second file");
            ok = false;
            continue;
        };
        for (metric, unit, better) in END_TO_END {
            let (Some(ma), Some(mb)) = (
                ea.get("metrics").and_then(|m| m.get(metric)),
                eb.get("metrics").and_then(|m| m.get(metric)),
            ) else {
                continue;
            };
            let (va, vb) = (ma.num("value")?, mb.num("value")?);
            let file_bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(0.0, |(_, b)| *b);
            let exact = unit.contains(VIRT) && same_seed;
            let bound = if exact { 0.0 } else { file_bound };
            // Positive `worse` = B is worse than A by that share of A.
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse = if better == "lower" { change } else { -change };
            let spread = |m: &Json| match (m.num("q1"), m.num("q3"), m.num("median")) {
                (Ok(q1), Ok(q3), Ok(med)) if med != 0.0 => (q3 - q1) / med.abs(),
                _ => 0.0,
            };
            let verdict = if !exact && spread(ma).max(spread(mb)) > bound {
                "unresolved (spread exceeds bound)"
            } else if worse > bound {
                ok = false;
                "WORSE"
            } else if worse < -bound {
                "better"
            } else if exact {
                "identical"
            } else {
                "within bound"
            };
            println!(
                "{name:<14} {metric:<18} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.1}%  {verdict}",
                100.0 * change,
                100.0 * bound
            );
        }
        let share =
            |e: &Json| Ok::<f64, String>(e.num("ops_failed")? / e.num("ops_attempted")?.max(1.0));
        let (fa, fb) = (share(ea)?, share(eb)?);
        if fb > fa {
            println!("{name:<14} failed share of ops rose from {fa:.6} to {fb:.6}: WORSE");
            ok = false;
        }
    }
    Ok(ok)
}
