//! `paper_apps` — the reproduction itself: every program of the paper at
//! P=64 under a fixed data-parallel and a fixed task+data mapping, plus
//! the two nested examples. The only workload where `fx-kernels` does
//! most of the host work.

use std::collections::BTreeMap;
use std::time::Instant;

use fx_apps::airshed::{airshed_dp, airshed_tp, reference_checksum, AirshedConfig};
use fx_apps::barnes_hut::{bh_forces, BhConfig};
use fx_apps::ffthist::{
    fft_hist_dp_sets, fft_hist_pipeline_sets, reference_histogram, FftHistConfig,
};
use fx_apps::qsort::qsort_global_promoted;
use fx_apps::radar::{radar_stream, reference_detections, RadarConfig};
use fx_apps::stereo::{assemble_depth, reference_depth, stereo_stream, StereoConfig};
use fx_apps::util::{
    adversarial_keys, make_plummer_bodies, replicated_modules, SET_DONE, SET_START,
};
use fx_core::{spmd, Cx, RunReport};
use fx_kernels::nbody::{direct_forces, Body};

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::geomean;
use crate::workload::{seeded_indices, PassBuilder, PassOut, Pin, Size, Workload};

/// Table 1's "thr x" column: task+data throughput over data-parallel
/// throughput, as the paper measured it on the Paragon.
const PAPER_GAIN: [(&str, f64); 4] = [
    ("apps.table1_thr_x_err.ffthist256", 3.41),
    ("apps.table1_thr_x_err.ffthist512", 1.25),
    ("apps.table1_thr_x_err.radar", 3.00),
    ("apps.table1_thr_x_err.stereo", 3.21),
];

/// RMS relative error a Barnes-Hut force field may have against direct
/// summation at the configured opening angle (the example program sees
/// about a tenth of this).
const BH_RMS_TOL: f64 = 0.05;

/// The fixed task+data mapping of one stream program.
#[derive(Debug, Clone, Copy)]
enum TaskMapping {
    /// `r` data-parallel modules, data sets dealt round-robin.
    Replicated(usize),
    /// One three-stage pipeline with these stage sizes.
    Pipeline([usize; 3]),
}

impl TaskMapping {
    /// `set done` events to drop before the steady-state rate is read:
    /// the first burst of `r` modules, plus the pipeline's fill.
    fn skip(self) -> usize {
        match self {
            TaskMapping::Replicated(r) => r - 1,
            TaskMapping::Pipeline(_) => 2,
        }
    }

    fn describe(self) -> String {
        match self {
            TaskMapping::Replicated(r) => format!("repl-{r}x"),
            TaskMapping::Pipeline(s) => format!("pipeline{s:?}"),
        }
    }
}

/// Steady-state numbers of one stream run.
struct Stream {
    throughput: f64,
    latencies: Vec<f64>,
}

impl Stream {
    fn of<R>(rep: &RunReport<R>, skip: usize) -> Stream {
        let starts = rep.events_named(SET_START);
        let dones = rep.events_named(SET_DONE);
        assert_eq!(starts.len(), dones.len(), "unpaired set start/done events");
        Stream {
            throughput: rep.throughput(SET_DONE, skip),
            latencies: starts.iter().zip(&dones).map(|(s, d)| d.1 - s.1).collect(),
        }
    }

    fn mean_latency(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }
}

/// `(data set, output)` pairs from every processor, one per data set
/// (members of a group hold identical copies).
fn by_dataset<T: Clone>(per_proc: &[Vec<(usize, T)>]) -> BTreeMap<usize, T> {
    per_proc
        .iter()
        .flatten()
        .map(|(d, v)| (*d, v.clone()))
        .collect()
}

/// The data sets of `sets` that module `rep` of `r` takes (round-robin by
/// position).
fn dealt(sets: &[usize], r: usize, rep: usize) -> Vec<usize> {
    sets.iter()
        .enumerate()
        .filter(|(i, _)| i % r == rep)
        .map(|(_, &d)| d)
        .collect()
}

/// One stream program: its fixed task+data mapping, data sets and oracle.
struct StreamProg<T> {
    /// Span name, and the `<prog>` of `apps.<prog>_s`.
    name: &'static str,
    task: TaskMapping,
    /// Data sets of the task run; the data-parallel run takes the first
    /// `n_dp` of them.
    sets: Vec<usize>,
    n_dp: usize,
    oracle: BTreeMap<usize, T>,
}

impl<T> StreamProg<T> {
    fn new(
        name: &'static str,
        task: TaskMapping,
        sets: Vec<usize>,
        n_dp: usize,
        reference: impl Fn(usize) -> T,
    ) -> Self {
        let oracle = sets.iter().map(|&d| (d, reference(d))).collect();
        StreamProg {
            name,
            task,
            sets,
            n_dp,
            oracle,
        }
    }

    fn describe(&self, shape: String) -> String {
        format!(
            "{} {shape}: dp x{} sets, {} x{} sets",
            self.name,
            self.n_dp,
            self.task.describe(),
            self.sets.len()
        )
    }
}

/// The set-up workload.
pub struct PaperApps {
    p: usize,
    fft: Vec<(FftHistConfig, StreamProg<Vec<u64>>)>,
    radar: (RadarConfig, StreamProg<u64>),
    stereo: (StereoConfig, StreamProg<Vec<u16>>),
    airshed: (AirshedConfig, f64),
    keys: Vec<i64>,
    sorted: Vec<i64>,
    leaf_group: usize,
    bodies: Vec<Body>,
    bh: BhConfig,
    exact_forces: Vec<[f64; 3]>,
    seq_s: f64,
}

impl PaperApps {
    /// Generate inputs from `seed` and compute every oracle.
    pub fn setup(seed: u64, size: Size) -> PaperApps {
        let full = size == Size::Full;
        let p = if full { 64 } else { 8 };
        // Each task mapping gets enough data sets that every module (or
        // the filled pipeline) completes at least two after the skipped
        // ones; the data-parallel run needs three for two intervals.
        let fft_shapes = if full {
            [
                (256, TaskMapping::Replicated(2)),
                (512, TaskMapping::Pipeline([32, 16, 16])),
            ]
        } else {
            [
                (32, TaskMapping::Replicated(2)),
                (64, TaskMapping::Pipeline([4, 2, 2])),
            ]
        };
        let radar_cfg = if full {
            RadarConfig::paper()
        } else {
            RadarConfig {
                ranges: 64,
                pulses: 8,
                ..RadarConfig::paper()
            }
        };
        // Stereo's shifts go through the per-element `copy_remap2` path,
        // ~30x the host cost per pixel of anything else here; a tenth
        // of the paper's 240 rows keeps it near a third of the pass
        // instead of nine tenths (rows are undistributed, so the
        // communication pattern is the paper's).
        let stereo_cfg = if full {
            StereoConfig {
                rows: 24,
                ..StereoConfig::paper()
            }
        } else {
            StereoConfig {
                rows: 16,
                cols: 64,
                ..StereoConfig::paper()
            }
        };
        let stereo_r = if full { 16 } else { 4 };
        let airshed_cfg = if full {
            AirshedConfig::paper()
        } else {
            AirshedConfig {
                gridpoints: 96,
                hours: 1,
                ..AirshedConfig::paper()
            }
        };
        let (n_keys, n_bodies) = if full {
            (1 << 16, 4096)
        } else {
            (1 << 11, 256)
        };
        let leaf_group = 4;

        let t0 = Instant::now();
        let fft = fft_shapes
            .into_iter()
            .enumerate()
            .map(|(i, (n, task))| {
                let cfg = FftHistConfig::new(n, 8);
                let sets = seeded_indices(seed, 10 + i as u64, 8, 1000);
                (
                    cfg,
                    StreamProg::new("ffthist", task, sets, 4, |d| reference_histogram(&cfg, d)),
                )
            })
            .collect();
        let radar = StreamProg::new(
            "radar",
            TaskMapping::Replicated(2),
            seeded_indices(seed, 20, 6, 1000),
            3,
            |d| reference_detections(&radar_cfg, d),
        );
        let stereo = StreamProg::new(
            "stereo",
            TaskMapping::Replicated(stereo_r),
            seeded_indices(seed, 30, 2 * stereo_r, 1000),
            2,
            |d| reference_depth(&stereo_cfg, d),
        );
        let airshed_oracle = reference_checksum(&airshed_cfg);
        let keys = adversarial_keys(n_keys, seed);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let bodies = make_plummer_bodies(n_bodies, seed);
        let bh = BhConfig::new(n_bodies).with_leaf_group(leaf_group);
        let exact_forces = direct_forces(&bodies, bh.eps);
        let seq_s = t0.elapsed().as_secs_f64();

        PaperApps {
            p,
            fft,
            radar: (radar_cfg, radar),
            stereo: (stereo_cfg, stereo),
            airshed: (airshed_cfg, airshed_oracle),
            keys,
            sorted,
            leaf_group,
            bodies,
            bh,
            exact_forces,
            seq_s,
        }
    }

    /// Run one stream program data-parallel and under its task mapping.
    /// `run_sets` processes data sets data-parallel on the current group;
    /// `assemble` turns per-processor results into one output per data
    /// set, given the size of the groups that produced them. Returns the
    /// `(dp, task)` steady-state numbers; registers one op per data set.
    fn stream_pair<'a, T: Clone + Send + Sync + PartialEq + 'a>(
        &'a self,
        (pin, rec, b): (&Pin, &mut Recorder, &mut PassBuilder<'a>),
        prog: &'a StreamProg<T>,
        run_sets: impl Fn(&mut Cx, &[usize]) -> Vec<(usize, T)> + Send + Sync,
        run_pipeline: impl Fn(&mut Cx, [usize; 3], &[usize]) -> Vec<(usize, T)> + Send + Sync,
        assemble: impl Fn(&[Vec<(usize, T)>], usize) -> BTreeMap<usize, T> + Copy + 'a,
    ) -> (Stream, Stream) {
        let machine = pin.machine(self.p);
        let sets = &prog.sets[..];
        let mut go =
            |skip: usize, group: usize, f: &(dyn Fn(&mut Cx) -> Vec<(usize, T)> + Send + Sync)| {
                let rep = rec.span("apps", prog.name, |_| spmd(&machine, f));
                b.add_run(&rep);
                let stream = Stream::of(&rep, skip);
                b.virt.op_latency_s.extend_from_slice(&stream.latencies);
                let n = stream.latencies.len();
                let results = rep.results;
                b.verify(n, move || {
                    let got = assemble(&results, group);
                    n - got
                        .iter()
                        .filter(|(d, v)| prog.oracle.get(d) == Some(v))
                        .count()
                        .min(n)
                });
                stream
            };
        let dp = go(0, self.p, &|cx| run_sets(cx, &sets[..prog.n_dp]));
        let td = match prog.task {
            TaskMapping::Replicated(r) => go(prog.task.skip(), self.p / r, &|cx| {
                replicated_modules(cx, r, |cx, rep| run_sets(cx, &dealt(sets, r, rep)))
            }),
            TaskMapping::Pipeline(stages) => go(prog.task.skip(), self.p, &|cx| {
                run_pipeline(cx, stages, sets)
            }),
        };
        (dp, td)
    }
}

impl Workload for PaperApps {
    fn sizes(&self) -> Json {
        let mut programs: Vec<String> = self
            .fft
            .iter()
            .map(|(c, s)| s.describe(format!("{n}x{n}", n = c.n)))
            .collect();
        let (rc, radar) = &self.radar;
        programs.push(radar.describe(format!("{}x{}", rc.ranges, rc.pulses)));
        let (sc, stereo) = &self.stereo;
        programs.push(stereo.describe(format!("{}x{}", sc.cols, sc.rows)));
        let ac = &self.airshed.0;
        programs.push(format!(
            "airshed {} gridpoints x {} hours: dp, tp",
            ac.gridpoints, ac.hours
        ));
        programs.push(format!(
            "qsort_global_promoted {} adversarial keys, leaf group {}",
            self.keys.len(),
            self.leaf_group
        ));
        programs.push(format!(
            "bh_forces {} Plummer bodies, leaf group {}",
            self.bodies.len(),
            self.bh.leaf_group
        ));
        Json::obj().set("p", self.p).set("programs", programs)
    }

    fn seq_s(&self) -> f64 {
        self.seq_s
    }

    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_> {
        let mut b = PassBuilder::new();
        let machine = pin.machine(self.p);
        let mut gains = Vec::new();
        let mut dp_latencies = Vec::new();
        let mut table1_row = |(dp, td): (Stream, Stream)| {
            gains.push(td.throughput / dp.throughput);
            dp_latencies.push(dp.mean_latency());
        };

        for (cfg, prog) in &self.fft {
            // Members of the reporting group hold the histograms in
            // data-set order (everyone else holds none): pair them back
            // up with the data-set ids.
            let with_ids = |sets: &[usize], hists: Vec<Vec<u64>>| -> Vec<(usize, Vec<u64>)> {
                sets.iter().copied().zip(hists).collect()
            };
            table1_row(self.stream_pair(
                (pin, rec, &mut b),
                prog,
                |cx, sets| with_ids(sets, fft_hist_dp_sets(cx, cfg, sets)),
                |cx, stages, sets| with_ids(sets, fft_hist_pipeline_sets(cx, cfg, stages, sets)),
                |per_proc, _| by_dataset(per_proc),
            ));
        }

        let (cfg, prog) = &self.radar;
        table1_row(self.stream_pair(
            (pin, rec, &mut b),
            prog,
            |cx, sets| radar_stream(cx, cfg, sets),
            |_, _, _| unreachable!("radar's fixed mapping is replication"),
            |per_proc, _| by_dataset(per_proc),
        ));

        let (cfg, prog) = &self.stereo;
        // A depth image is spread over the members of the group that
        // computed it, as column tiles in rank order.
        let assemble_tiles = |per_proc: &[Vec<(usize, Vec<u16>)>], group: usize| {
            let mut out = BTreeMap::new();
            for members in per_proc.chunks(group) {
                for (i, (d, _)) in members[0].iter().enumerate() {
                    let tiles: Vec<Vec<u16>> = members.iter().map(|m| m[i].1.clone()).collect();
                    out.insert(*d, assemble_depth(&tiles, cfg.rows, cfg.cols));
                }
            }
            out
        };
        table1_row(self.stream_pair(
            (pin, rec, &mut b),
            prog,
            |cx, sets| stereo_stream(cx, cfg, sets),
            |_, _, _| unreachable!("stereo's fixed mapping is replication"),
            assemble_tiles,
        ));

        let (acfg, checksum) = &self.airshed;
        for task_parallel in [false, true] {
            let rep = rec.span("apps", "airshed", |_| {
                spmd(&machine, |cx| {
                    if task_parallel {
                        airshed_tp(cx, acfg)
                    } else {
                        airshed_dp(cx, acfg)
                    }
                })
            });
            b.add_run(&rep);
            b.virt.op_latency_s.push(rep.makespan());
            // Under the task mapping the two I/O processors return 0 and
            // the compute group holds the checksum.
            let idle = if task_parallel { 2 } else { 0 };
            let results = rep.results;
            b.verify(1, move || {
                let close = |got: f64| (got - checksum).abs() < 1e-9 * checksum.abs().max(1.0);
                let holders = results.iter().filter(|&&v| close(v)).count();
                let zeros = results.iter().filter(|&&v| v == 0.0).count();
                usize::from(holders + idle != results.len() || zeros != idle)
            });
        }

        let rep = rec.span("apps", "qsort", |_| {
            spmd(&machine, |cx| {
                qsort_global_promoted(cx, &self.keys, self.leaf_group)
            })
        });
        b.add_run(&rep);
        b.virt.op_latency_s.push(rep.makespan());
        let results = rep.results;
        // Sortedness and multiset in one comparison: equal to the sorted
        // input, on every member.
        b.verify(1, move || {
            usize::from(!results.iter().all(|r| *r == self.sorted))
        });

        let rep = rec.span("apps", "barnes_hut", |_| {
            spmd(&machine, |cx| bh_forces(cx, &self.bodies, &self.bh))
        });
        b.add_run(&rep);
        b.virt.op_latency_s.push(rep.makespan());
        let forces = rep.results.into_iter().next().expect("p >= 1");
        b.verify(1, move || {
            usize::from(rms_rel_error(&forces, &self.exact_forces) > BH_RMS_TOL)
        });

        b.virt
            .extras
            .push(("apps.virt_thr_gain_x", geomean(&gains)));
        b.virt
            .extras
            .push(("apps.virt_latency_s", geomean(&dp_latencies)));
        for ((name, paper), ours) in PAPER_GAIN.iter().zip(&gains) {
            b.virt.extras.push((name, (ours - paper).abs() / paper));
        }
        b.finish()
    }

    fn inject_fault(&mut self) {
        self.sorted[0] = self.sorted[0].wrapping_sub(1);
    }
}

/// RMS over bodies of `|f - exact| / |exact|`.
fn rms_rel_error(forces: &[[f64; 3]], exact: &[[f64; 3]]) -> f64 {
    if forces.len() != exact.len() {
        return f64::INFINITY;
    }
    let norm = |v: [f64; 3]| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    let (mut sum, mut n) = (0.0, 0usize);
    for (f, e) in forces.iter().zip(exact) {
        let mag = norm(*e);
        if mag > 1e-9 {
            sum += (norm([f[0] - e[0], f[1] - e[1], f[2] - e[2]]) / mag).powi(2);
            n += 1;
        }
    }
    (sum / n.max(1) as f64).sqrt()
}
