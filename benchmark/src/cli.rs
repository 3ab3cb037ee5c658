//! Command line.
//!
//! ```text
//! fx-benchmark run       [--workload W]... [--seed S] [--seconds T] [--smoke] [--out FILE]
//! fx-benchmark trace     [--workload W]... [--seed S] [--smoke] [--out FILE]
//! fx-benchmark compare   A.json B.json
//! fx-benchmark selfcheck [--seed S] [--seconds T] [--smoke]
//! fx-benchmark --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! The last form is the driver's: one workload, `run` for `--trace 0`
//! and `trace` for `--trace 1`, with the contract's one-line JSON object
//! as the last line of stdout.

use std::path::PathBuf;
use std::time::Instant;

use crate::layers;
use crate::measure::{self, RUN_SECONDS};
use crate::report::{self, Mode, Request};
use crate::sys;
use crate::workload::Size;
use crate::workloads::WORKLOADS;

const USAGE: &str = "usage: fx-benchmark run|trace [--workload W]... [--seed S] [--seconds T] [--smoke] [--out FILE]
       fx-benchmark compare A.json B.json
       fx-benchmark selfcheck [--seed S] [--seconds T] [--smoke]
       fx-benchmark --workload W --seed S --seconds T --trace 0|1";

/// Parsed options; which of them a command reads is the command's
/// business.
#[derive(Debug, Default, Clone)]
struct Opts {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    inject_fault: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => o.workloads.push(value("a workload name")?.clone()),
            "--seed" => {
                o.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--smoke" => o.smoke = true,
            "--inject-fault" => o.inject_fault = true,
            "--out" => o.out = Some(PathBuf::from(value("a file name")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if let Some(bad) = o
        .workloads
        .iter()
        .find(|w| !WORKLOADS.iter().any(|(n, _)| n == w))
    {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload '{bad}' (have: {})",
            names.join(", ")
        ));
    }
    Ok(o)
}

impl Opts {
    fn request(&self) -> Request {
        let workloads = if self.workloads.is_empty() {
            WORKLOADS.iter().map(|(n, _)| n.to_string()).collect()
        } else {
            self.workloads.clone()
        };
        Request {
            workloads,
            seed: self.seed.unwrap_or(42),
            // Smoke runs only need the protocol exercised: two passes.
            seconds: self
                .seconds
                .unwrap_or(if self.smoke { 0.1 } else { RUN_SECONDS }),
            size: if self.smoke { Size::Smoke } else { Size::Full },
            inject_fault: self.inject_fault,
        }
    }
}

/// Measure, print the table, write the document; returns the document.
fn measure_and_write(
    mode: Mode,
    o: &Opts,
    scrubbed: &[String],
) -> Result<crate::json::Json, String> {
    let req = o.request();
    let doc = report::measure(mode, &req, scrubbed)?;
    report::print_table(mode, &doc);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| report::default_path(mode, &req));
    sys::write_file(&path, &doc.render_pretty())?;
    eprintln!("[benchmark] wrote {}", path.display());
    Ok(doc)
}

/// Entry point; returns the process exit code.
pub fn main(process_start: Instant) -> i32 {
    let scrubbed = sys::scrub_fx_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, &scrubbed, process_start) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fx-benchmark: {msg}");
            2
        }
    }
}

fn dispatch(args: &[String], scrubbed: &[String], process_start: Instant) -> Result<i32, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return Ok(0);
        }
        Some(first) if first.starts_with("--") => ("driver", args),
        Some(first) => (first, &args[1..]),
    };
    let o = parse(rest)?;
    match command {
        "run" => measure_and_write(Mode::Run, &o, scrubbed).map(|_| 0),
        "trace" => measure_and_write(Mode::Trace, &o, scrubbed).map(|_| 0),
        "driver" => {
            if o.workloads.len() != 1
                || o.seed.is_none()
                || o.seconds.is_none()
                || o.trace.is_none()
            {
                return Err(format!(
                    "the driver form needs --workload, --seed, --seconds and --trace\n{USAGE}"
                ));
            }
            let mode = if o.trace == Some(true) {
                Mode::Trace
            } else {
                Mode::Run
            };
            let doc = measure_and_write(mode, &o, scrubbed)?;
            println!("{}", report::driver_line(&doc)?);
            Ok(0)
        }
        "compare" => {
            let [a, b] = o.positional.as_slice() else {
                return Err(format!("compare needs two result files\n{USAGE}"));
            };
            let ok = report::compare(
                &report::read_json(a.as_ref())?,
                &report::read_json(b.as_ref())?,
            )?;
            Ok(if ok { 0 } else { 1 })
        }
        "selfcheck" => {
            // Two full sets of the same code, back to back, must agree
            // within the benchmark's own bounds.
            let mut docs = Vec::new();
            for side in ["a", "b"] {
                let out = Some(sys::out_dir().join(format!("selfcheck-{side}.json")));
                docs.push(measure_and_write(
                    Mode::Run,
                    &Opts { out, ..o.clone() },
                    scrubbed,
                )?);
            }
            let ok = report::compare(&docs[0], &docs[1])?;
            println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
            Ok(if ok { 0 } else { 1 })
        }
        "child" => {
            let [workload] = o.workloads.as_slice() else {
                return Err("child needs exactly one --workload".into());
            };
            let plan = o.request().plan(workload);
            let report = if o.trace == Some(true) {
                layers::per_layer(&plan)?
            } else {
                measure::child(&plan, process_start)?
            };
            println!("{}", report.render());
            Ok(0)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}
