//! Paper-scale virtual-time claims of the two schedule optimisations —
//! dataflow barrier elision and heartbeat work promotion — on the
//! applications themselves, at the sizes EXPERIMENTS.md quotes. Pure
//! virtual time, so every number here is the same on every host; the
//! sweeps are seconds in a debug build, hence `#[ignore]` and CI's
//! `cargo test --release -- --ignored` step.

use fx_apps::airshed::{airshed_tp, AirshedConfig};
use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::ffthist::{fft_hist_pipeline_sets, FftHistConfig};
use fx_apps::qsort::qsort_global_promoted;
use fx_apps::util::{make_plummer_bodies, unit_hash};
use fx_core::{spmd, Agreement, Cx, DataflowMode, Machine, RunReport};
use fx_runtime::{EventKind, MachineModel};

fn paragon(p: usize) -> Machine {
    Machine::simulated(p, MachineModel::paragon())
}

/// One program under the conservative schedule and the elided one, both
/// profiled: `on` agrees with `off` (same results and marks, nothing later,
/// no more traffic), `off` elides nothing and `on` something, and each
/// critical path's compute + comm + idle is its makespan. Returns the
/// share of `off`'s critical-path barrier wait that `on` removed.
fn wait_removed<R>(label: &str, p: usize, f: impl Fn(&mut Cx) -> R + Send + Sync) -> f64
where
    R: PartialEq + std::fmt::Debug + Send,
{
    let run = |mode| spmd(&paragon(p).with_dataflow(mode).with_profiling(true), &f);
    let (off, on) = (run(DataflowMode::Off), run(DataflowMode::On));
    on.agrees_with(&off, Agreement::Earlier).unwrap_or_else(|why| panic!("{label}: {why}"));
    assert_eq!(off.total().barriers_elided, 0, "{label}: off must not elide");
    assert!(on.total().barriers_elided > 0, "{label}: every inter-stage edge is covered");
    for rep in [&off, &on] {
        let (compute, comm, idle) = rep.critical_path().totals();
        let makespan = rep.makespan();
        assert!((compute + comm + idle - makespan).abs() < 1e-9 * makespan.max(1.0), "{label}: path != makespan");
    }
    let (w_off, w_on) = (off.critical_path().barrier_wait(), on.critical_path().barrier_wait());
    eprintln!("{label}: makespan {:.6} -> {:.6} s, barrier wait on the path {w_off:.6} -> {w_on:.6} s", off.makespan(), on.makespan());
    if w_off == 0.0 { 0.0 } else { 1.0 - w_on / w_off }
}

/// The 3-stage FFT-Hist pipeline of Figure 2(c): 64², `depth` data sets,
/// stages on 3:4:1 of P.
fn ffthist(p: usize, depth: usize) -> impl Fn(&mut Cx) -> Vec<Vec<u64>> + Send + Sync {
    move |cx| {
        let sets: Vec<usize> = (0..depth).collect();
        fft_hist_pipeline_sets(cx, &FftHistConfig::new(64, depth), [3 * p / 8, p / 2, p / 8], &sets)
    }
}

/// FFT-Hist over depth × P, and Airshed's hour loop: elision never changes
/// an answer, and at P = 64, 16 data sets deep it removes at least a fifth
/// of the critical-path barrier wait (all 0.123 s of it today).
#[test]
#[ignore = "paper-scale sweep; CI runs it in release with --ignored"]
fn elision_sheds_the_critical_path_barrier_wait() {
    let mut headline = 0.0;
    for p in [8, 16, 64] {
        for depth in [2, 4, 8, 16] {
            headline = wait_removed(&format!("ffthist p={p} depth={depth}"), p, ffthist(p, depth));
        }
    }
    assert!(headline >= 0.20, "P = 64, depth 16: only {:.1} % of the barrier wait removed", 100.0 * headline);
    for (p, hours) in [(16, 2), (16, 4), (64, 2), (64, 4)] {
        wait_removed(&format!("airshed p={p} hours={hours}"), p, move |cx| {
            airshed_tp(cx, &AirshedConfig { hours, ..AirshedConfig::paper() })
        });
    }
}

/// One heartbeat cell: the same program with the heartbeat off (profiled,
/// for the per-processor compute seconds) and on, which agree: the same
/// results, and bit-identical times when no donation sent a message.
/// `min_recovered` is the claim on a skewed compute-bound cell: donations
/// fire, the run is strictly earlier, and `off − on` is at least that
/// share of the idle a donation can move, `max − mean` compute seconds of
/// the off run.
fn cell<R>(label: String, p: usize, never_later: bool, min_recovered: Option<f64>, f: impl Fn(&mut Cx) -> R + Send + Sync)
where
    R: PartialEq + std::fmt::Debug + Send,
{
    let off: RunReport<R> = spmd(&paragon(p).with_heartbeat(false).with_profiling(true), &f);
    let on = spmd(&paragon(p).with_heartbeat(true), &f);
    on.agrees_with(&off, Agreement::SameAnswers).unwrap_or_else(|why| panic!("{label}: {why}"));
    let (t_off, t_on, taken) = (off.makespan(), on.makespan(), on.promote_total().taken);
    assert!(!never_later || t_on <= t_off, "{label}: later with the heartbeat on ({t_off} -> {t_on})");
    let compute: Vec<f64> = off
        .logs
        .iter()
        .map(|log| log.spans().filter(|s| s.kind == EventKind::Compute).map(|s| s.end - s.start).sum())
        .collect();
    let imbalance = compute.iter().cloned().fold(0.0, f64::max) - compute.iter().sum::<f64>() / p as f64;
    eprintln!("{label}: {t_off:.6} -> {t_on:.6} s, imbalance {imbalance:.6} s, {taken} donations");
    if let Some(min) = min_recovered {
        assert!(taken > 0 && t_on < t_off, "{label}: no profitable donation on a skewed input");
        let frac = (t_off - t_on) / imbalance;
        assert!(frac >= min, "{label}: only {:.1} % of the imbalance idle recovered", 100.0 * frac);
    }
}

/// Skew × P on Barnes-Hut (4096 bodies, one promotable leaf), quicksort's
/// bucketed base case (60 000 keys `1 − u^α`) and a linear-ramp reduction
/// (2048 iterations). Results are bit-identical everywhere; a cell with no
/// donation finishes at the bit-identical time; compute-bound cells are
/// never later (quicksort at P = 64 is bound by its allgathers and may
/// be); skewed compute-bound cells profit; and at P = 64 Plummer
/// Barnes-Hut and the steep ramp win back at least half of `max − mean`
/// compute idle (59.0 % and 58.0 % today).
#[test]
#[ignore = "paper-scale sweep; CI runs it in release with --ignored"]
fn heartbeat_recovers_half_the_imbalance_idle_at_p64() {
    for p in [8usize, 16, 64] {
        let skewed = Some(if p == 64 { 0.5 } else { 0.0 });
        for (skew, bodies) in [("uniform", make_bodies(4096, 42)), ("plummer", make_plummer_bodies(4096, 7))] {
            let cfg = BhConfig::new(4096).with_leaf_group(p);
            let claim = skewed.filter(|_| skew == "plummer");
            cell(format!("barnes_hut {skew} p={p}"), p, true, claim, move |cx| bh_forces(cx, &bodies, &cfg));
        }
        for alpha in [1.0f64, 1.3, 1.6] {
            let keys: Vec<i64> =
                (0..60_000).map(|i| ((1.0 - unit_hash(3, i, 5).powf(alpha)) * 1.0e9) as i64).collect();
            let claim = Some(0.0).filter(|_| alpha > 1.0 && p <= 16);
            cell(format!("qsort alpha={alpha} p={p}"), p, p <= 16, claim, move |cx| qsort_global_promoted(cx, &keys, p));
        }
        for (skew, slope) in [("flat", 0.0f64), ("steep", 20.0)] {
            cell(format!("ramp {skew} p={p}"), p, true, skewed.filter(|_| skew == "steep"), move |cx| {
                let cost = |cx: &mut Cx, i: usize| {
                    cx.charge_flops(2000.0 + slope * i as f64);
                    (i as f64).sqrt()
                };
                cx.pdo_reduce_promote("ramp", 0..2048, 0.0f64, cost, |a, b| a + b)
            });
        }
    }
}
