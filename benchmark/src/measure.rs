//! The end-to-end measurement protocol.
//!
//! Every measurement runs in a child process with a pinned environment
//! (see [`spawn_child`]). Per workload the parent re-executes itself as
//! [`CHILDREN`] fresh processes, one after the other. Each child sets up
//! (inputs, oracles, one warm-up pass), reads its peak RSS, then runs timed passes for its
//! share of the run's seconds, checking every pass's outputs after the
//! clock has stopped. The parent reports `peak_rss_mib` as the median
//! over the children, and the two host times undisturbed
//! ([`undisturbed`]): with one worker the instruction stream of a pass,
//! and of set-up, is deterministic, so whatever a part of it took above
//! the fastest time seen for that part is host interference.
//! Virtual results must be bit-identical across every pass and child; if
//! they are not, the run is reported as incorrect.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats;
use crate::sys;
use crate::workload::{Ops, PassOut, Pin, Size, Virt};
use crate::workloads;

/// Fresh processes per workload.
pub const CHILDREN: usize = 3;
/// Timed passes a child runs at least, however short its budget.
pub const MIN_PASSES: usize = 2;
/// Seconds of timed passes per workload when `--seconds` is not given;
/// equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 18.0;

/// What to measure.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes, over all children.
    pub seconds: f64,
    /// Full or smoke sizes.
    pub size: Size,
    /// Corrupt one oracle entry first (schema test only).
    pub inject_fault: bool,
}

/// Children to spawn per workload: one is enough to exercise the
/// protocol at smoke sizes.
pub fn children(size: Size) -> usize {
    match size {
        Size::Full => CHILDREN,
        Size::Smoke => 1,
    }
}

/// The end-to-end view of a pass's virtual results.
fn virt_json(v: &Virt) -> Json {
    let mut extras = Json::obj();
    for (name, value) in &v.extras {
        extras = extras.set(name, *value);
    }
    Json::obj()
        .set("virt_makespan_s", v.makespan_s)
        .set("virt_op_p50_ms", v.p50_ms())
        .set("virt_op_p95_ms", v.p95_ms())
        .set("virt_goodput", v.goodput)
        .set("extras", extras)
}

/// Body of a child process: set up, warm up, run timed passes for
/// `plan.seconds`, and return the report the parent parses.
pub fn child(plan: &Plan, process_start: Instant) -> Result<Json, String> {
    let mut w = workloads::setup(&plan.workload, plan.seed, plan.size)
        .ok_or_else(|| format!("unknown workload '{}'", plan.workload))?;
    if plan.inject_fault {
        w.inject_fault();
    }
    let mut rec = Recorder::off();
    let mut ops = Ops::default();

    // Set-up is cut into parts like a pass: building the workload, the
    // parts of the warm-up pass, checking it.
    let mut setup_laps = vec![process_start.elapsed().as_secs_f64()];
    let warm = w.pass(&Pin::E2E, &mut rec);
    let reference = warm.virt.clone();
    setup_laps.extend_from_slice(&warm.laps);
    ops += (warm.check)();
    let setup_s = process_start.elapsed().as_secs_f64();
    setup_laps.push(setup_s - setup_laps.iter().sum::<f64>());
    let rss_warm_mib = sys::peak_rss_mib();

    let mut pass_s = Vec::new();
    let mut laps = Vec::new();
    let mut identical = true;
    let loop_start = Instant::now();
    // Stop when another pass (with its check) would overrun the budget.
    let mut last_round = 0.0;
    while pass_s.len() < MIN_PASSES
        || loop_start.elapsed().as_secs_f64() + last_round <= plan.seconds
    {
        let round = Instant::now();
        let PassOut {
            laps: parts,
            virt,
            check,
            ..
        } = w.pass(&Pin::E2E, &mut rec);
        pass_s.push(round.elapsed().as_secs_f64());
        laps.push(parts);
        identical &= virt.fingerprint() == reference.fingerprint();
        ops += check();
        last_round = round.elapsed().as_secs_f64();
    }

    Ok(Json::obj()
        .set("setup_s", setup_s)
        .set("setup_laps", setup_laps)
        .set("seq_s", w.seq_s())
        .set("rss_warm_mib", rss_warm_mib)
        .set("rss_end_mib", sys::peak_rss_mib())
        .set("cpu_s", sys::cpu_seconds())
        .set("pass_s", pass_s)
        .set("laps", laps)
        .set("attempted", ops.attempted)
        .set("failed", ops.failed)
        .set("identical", identical)
        .set("fingerprint", format!("{:016x}", reference.fingerprint()))
        .set("virt", virt_json(&reference))
        .set("sizes", w.sizes()))
}

/// Spawn one child for `plan` with `seconds` of budget — an end-to-end
/// child, or the traced run when `traced` — and parse its report (the
/// last line of its stdout).
///
/// The child inherits this process's environment, from which every
/// `FX_*` knob has been removed, plus `MALLOC_ARENA_MAX=1`: each `spmd`
/// starts fresh worker and watchdog threads, and which glibc arena a
/// fresh thread inherits depends on thread-exit timing, which moved peak
/// RSS by ±10% between identical runs. One arena makes it repeat to
/// 0.2%; with one worker there is no allocator contention to lose.
fn spawn_child(plan: &Plan, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .env("MALLOC_ARENA_MAX", "1")
        .args(["--workload", &plan.workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if plan.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if plan.inject_fault {
        cmd.arg("--inject-fault");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child for '{}' exited with {}",
            plan.workload, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(line).map_err(|e| format!("unreadable child report: {e}"))
}

/// Run the traced run for `plan` in a child ([`crate::layers::per_layer`])
/// and return its entry of a `trace` document.
pub fn per_layer(plan: &Plan) -> Result<Json, String> {
    spawn_child(plan, plan.seconds, true)
}

/// The undisturbed pass (or set-up): every pass is cut into the same
/// consecutive parts (`PassOut::laps`); take each part at its fastest
/// over all the passes and add the parts up. On a shared host a whole
/// second without a busy neighbour is rare and a tenth of one is not, so
/// under load this stays at the quiet host's value where the fastest
/// whole pass drifts up (README, "Why the minimum, part by part").
fn undisturbed(laps: &[Vec<f64>]) -> Result<f64, String> {
    let parts = laps.first().map_or(0, Vec::len);
    if parts == 0 || laps.iter().any(|l| l.len() != parts) {
        return Err("passes were not cut into the same parts".into());
    }
    Ok((0..parts)
        .map(|j| stats::min(&laps.iter().map(|l| l[j]).collect::<Vec<_>>()))
        .sum())
}

/// One reported metric: the value, and the samples it summarises.
fn metric(value: f64, unit: &str, samples: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(samples);
    Json::obj()
        .set("value", value)
        .set("unit", unit)
        .set("n", samples.len())
        .set("min", stats::min(samples))
        .set("median", stats::median(samples))
        .set("q1", q1)
        .set("q3", q3)
}

/// Measure one workload end to end: spawn the children, check they
/// agree, and aggregate. The result is the workload's entry of a `run`
/// document.
pub fn end_to_end(plan: &Plan) -> Result<Json, String> {
    let k = children(plan.size);
    let mut reports = Vec::with_capacity(k);
    for _ in 0..k {
        reports.push(spawn_child(plan, plan.seconds / k as f64, false)?);
    }
    let nums =
        |key: &str| -> Result<Vec<f64>, String> { reports.iter().map(|r| r.num(key)).collect() };
    let setup = nums("setup_s")?;
    let rss = nums("rss_warm_mib")?;
    let rss_end = nums("rss_end_mib")?;
    let cpu = nums("cpu_s")?;
    let floats = |j: &Json| -> Option<Vec<f64>> { j.as_arr()?.iter().map(Json::as_f64).collect() };
    let (mut passes, mut laps, mut setup_laps) = (Vec::new(), Vec::new(), Vec::new());
    for r in &reports {
        setup_laps.push(
            r.get("setup_laps")
                .and_then(floats)
                .ok_or("child report lacks setup_laps")?,
        );
        passes.extend(
            r.get("pass_s")
                .and_then(floats)
                .ok_or("child report lacks pass_s")?,
        );
        for pass in r
            .get("laps")
            .and_then(Json::as_arr)
            .ok_or("child report lacks laps")?
        {
            laps.push(floats(pass).ok_or("child report has unreadable laps")?);
        }
    }
    let attempted: f64 = nums("attempted")?.iter().sum();
    let failed: f64 = nums("failed")?.iter().sum();

    let first = &reports[0];
    let virt = first.get("virt").ok_or("child report lacks virt")?;
    let fingerprint = first
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("child report lacks fingerprint")?;
    let identical = reports.iter().all(|r| {
        r.get("identical").and_then(Json::as_bool) == Some(true)
            && r.get("fingerprint").and_then(Json::as_str) == Some(fingerprint)
    });
    if !identical {
        eprintln!(
            "[benchmark] {}: virtual results differ between passes or children",
            plan.workload
        );
    }

    // Every pass, warm-ups included, produced the same virtual value.
    let exact = |key: &str, unit: &str| -> Result<Json, String> {
        let v = virt.num(key)?;
        Ok(metric(v, unit, &vec![v; passes.len() + k]))
    };
    let metrics = Json::obj()
        .set("setup_s", metric(undisturbed(&setup_laps)?, "s", &setup))
        .set("host_wall_s", metric(undisturbed(&laps)?, "s", &passes))
        .set("peak_rss_mib", metric(stats::median(&rss), "MiB", &rss))
        .set("virt_makespan_s", exact("virt_makespan_s", "virt_s")?)
        .set("virt_op_p50_ms", exact("virt_op_p50_ms", "virt_ms")?)
        .set("virt_op_p95_ms", exact("virt_op_p95_ms", "virt_ms")?)
        .set("virt_goodput", exact("virt_goodput", "ops/virt_s")?);
    let rss_growth: Vec<f64> = rss_end.iter().zip(&rss).map(|(e, w)| e - w).collect();
    let process = Json::obj()
        .set("cpu_s", stats::median(&cpu))
        .set("host_wall_median_s", stats::median(&passes))
        .set("host_wall_iqr_frac", stats::iqr_frac(&passes))
        .set("rss_growth_mib", stats::median(&rss_growth))
        .set("seq_s", stats::median(&nums("seq_s")?));

    Ok(Json::obj()
        .set("correct", identical && failed == 0.0)
        .set("virt_identical", identical)
        .set("virt_fingerprint", fingerprint)
        .set("ops_attempted", attempted)
        .set("ops_failed", failed)
        .set("children", k)
        .set("passes", passes.len())
        .set("metrics", metrics)
        .set(
            "virt_detail",
            virt.get("extras").cloned().unwrap_or(Json::Null),
        )
        .set("process", process)
        .set("sizes", first.get("sizes").cloned().unwrap_or(Json::Null)))
}

#[cfg(test)]
mod tests {
    use super::undisturbed;

    #[test]
    fn undisturbed_pass_takes_each_part_at_its_fastest() {
        let laps = [vec![1.0, 5.0, 0.5], vec![3.0, 2.0, 0.5]];
        assert_eq!(undisturbed(&laps), Ok(3.5));
        assert!(undisturbed(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(undisturbed(&[]).is_err());
    }
}
