//! The host side of a measurement: environment hygiene, provenance, and
//! the process's own memory and CPU readings.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Remove every `FX_*` variable, so no inherited knob can reach a
/// `Machine`, `ServeConfig` or stack-size default. Must run before the
/// first machine is built and before any thread exists (the environment
/// is process-global). Returns the names removed, after saying so on
/// stderr.
pub fn scrub_fx_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FX_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    if !names.is_empty() {
        eprintln!(
            "[benchmark] ignoring inherited knobs (configuration is pinned): {}",
            names.join(", ")
        );
    }
    names
}

/// The benchmark package's directory (holds `out/`, next to the repo's
/// `BENCHMARK.json`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Directory result files and Chrome traces are written to.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Write `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU seconds consumed by this process (all threads).
/// Reads `/proc/self/stat`; Linux reports these in 100 Hz ticks. 0 where
/// `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Git revision and dirty flag of the checkout, or `"unknown"` outside a
/// repository (the driver's checkout is not one). Discovery is capped at
/// the repo root so git never reads above the checkout.
fn git_state() -> (String, Json) {
    let root = bench_dir().join("..");
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", root.join(".."))
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
            (rev, dirty.map_or(Json::Null, Json::Bool))
        }
        None => ("unknown".to_string(), Json::Null),
    }
}

/// Where the numbers came from: host, toolchain, revision.
pub fn host_block() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (rev, dirty) = git_state();
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    Json::obj()
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set("cpu_model", cpu_model)
        .set("rustc", rustc)
        .set("git_rev", rev)
        .set("git_dirty", dirty)
}
