//! Shared helpers for the applications: deterministic cheap input
//! synthesis, event labels, and the mapping the three Table 1 stream
//! programs share — a [`Segments`] value placing a three-stage chain on a
//! group ([`stage_chain`]), a [`StreamMapping`] putting replicated modules
//! around it, and the one dealer ([`run_mapped`], [`dealt`]).

use fx_core::{Cx, GroupHandle, Size, TaskRegion};
use fx_darray::{assign2_with, DArray2, Elem, Participation};
use fx_kernels::nbody::Body;
use fx_kernels::Complex;

/// Event label marking the start of one data set's processing.
pub const SET_START: &str = "set start";
/// Event label marking the completion of one data set's processing.
pub const SET_DONE: &str = "set done";

/// One served request's completion, as observed by the canonical
/// completing processor (the lowest-ranked member of the group that
/// produces the result). `req` is the caller-side request index, `done`
/// the completing processor's virtual time right after the result is
/// available, and `output` the request's result — which must be
/// bit-identical to the same computation run one-shot, because batching
/// and mapping change scheduling, never answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqCompletion<T> {
    /// Caller-side request index (position in the submitted batch/trace).
    pub req: usize,
    /// Virtual completion time on the completing processor.
    pub done: f64,
    /// The request's output.
    pub output: T,
}

/// Cheap deterministic hash → `[0, 1)` float. Used to synthesize input
/// elements on demand (each processor generates exactly the elements it
/// owns — no replicated generation work, mirroring a parallel sensor
/// feed).
#[inline]
pub fn unit_hash(a: u64, b: u64, c: u64) -> f64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^= z >> 33;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Synthetic complex sample for dataset `d`, element `(r, c)`.
#[inline]
pub fn complex_input(d: usize, r: usize, c: usize) -> Complex {
    Complex::new(
        2.0 * unit_hash(d as u64, r as u64, c as u64) - 1.0,
        2.0 * unit_hash(d as u64 ^ 0xABCD, r as u64, c as u64) - 1.0,
    )
}

/// Synthetic real sample for dataset `d`, element `(r, c)`.
#[inline]
pub fn real_input(d: usize, r: usize, c: usize) -> f32 {
    (255.0 * unit_hash(d as u64, r as u64, c as u64)) as f32
}

/// Deterministic Plummer-sphere particle cloud: density falls off as
/// `(1 + r²/a²)^(-5/2)` around a dense core, so Barnes-Hut traversals
/// for core particles open far more cells than halo particles — the
/// classic irregular-work input for load-balancing experiments (a
/// uniform cloud gives every particle near-identical cost).
pub fn make_plummer_bodies(n: usize, seed: u64) -> Vec<Body> {
    let a = 0.05; // core radius, well inside the unit box
    (0..n)
        .map(|i| {
            let u = unit_hash(seed, i as u64, 1).clamp(1e-6, 0.999);
            let r = (a / (u.powf(-2.0 / 3.0) - 1.0).sqrt()).min(0.45);
            let z = 2.0 * unit_hash(seed, i as u64, 2) - 1.0;
            let phi = std::f64::consts::TAU * unit_hash(seed, i as u64, 3);
            let s = (1.0 - z * z).sqrt();
            Body {
                pos: [
                    0.5 + r * s * phi.cos(),
                    0.5 + r * s * phi.sin(),
                    0.5 + r * z,
                ],
                mass: 0.5 + unit_hash(seed, i as u64, 4),
            }
        })
        .collect()
}

/// Deterministic adversarial key set for sorting: a dense, duplicate-heavy
/// cluster near zero plus sparse keys of enormous magnitude. The outliers
/// stretch the key range so uniform splitters (and median-of-medians
/// pivots) concentrate almost all keys on one side — the worst case for
/// static partitioning and the best case for work donation.
pub fn adversarial_keys(n: usize, seed: u64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            let u = unit_hash(seed, i as u64, 9);
            if i % 16 == 0 {
                (u * 9.0e17) as i64 // sparse halo of huge keys
            } else {
                (u * 1024.0) as i64 // dense duplicate-heavy cluster
            }
        })
        .collect()
}

/// Replicated data parallelism (Figure 3's structure, generalized):
/// divide the current group into `replicas` equal modules and run
/// `f(cx, module_index)` on the module this processor belongs to.
/// Returns this processor's module result.
pub fn replicated_modules<R>(
    cx: &mut Cx,
    replicas: usize,
    f: impl FnOnce(&mut Cx, usize) -> R,
) -> R {
    let p = cx.nprocs();
    assert!(replicas >= 1, "need at least one module");
    assert!(
        p.is_multiple_of(replicas),
        "replicas ({replicas}) must divide the group size ({p})"
    );
    let per = p / replicas;
    let spec: Vec<(String, Size)> =
        (0..replicas).map(|r| (format!("R{r}"), Size::Procs(per))).collect();
    let spec_refs: Vec<(&str, Size)> = spec.iter().map(|(s, z)| (s.as_str(), *z)).collect();
    let part = cx.task_partition(&spec_refs);
    let mut f = Some(f);
    let mut out = None;
    cx.task_region(&part, |cx, tr| {
        for r in 0..replicas {
            let name = format!("R{r}");
            if let Some(res) = tr.on(cx, &name, |cx| (f.take().expect("module runs once"))(cx, r))
            {
                out = Some(res);
            }
        }
    });
    out.expect("every processor belongs to exactly one module")
}

/// [`replicated_modules`] plus the dealer every replicated stream uses:
/// item `i` goes to module `i % replicas`, and `f(cx, my_items)` runs on
/// this processor's module.
pub fn dealt<I, R>(
    cx: &mut Cx,
    replicas: usize,
    items: impl IntoIterator<Item = I>,
    f: impl FnOnce(&mut Cx, Vec<I>) -> R,
) -> R {
    replicated_modules(cx, replicas, |cx, module| {
        f(cx, items.into_iter().skip(module).step_by(replicas).collect())
    })
}

/// How the three stages of a stream program sit on the current group —
/// the mapping as data. One segment is Figure 2(a)'s data-parallel
/// program, `[0, 1, 2]` the pipeline of Figure 2(c), and every mapping
/// `fx-mapping` searches lies between: adjacent stages in one segment are
/// fused, and a stage reads its predecessor's array where it lies unless
/// it has a segment of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    /// Segment of each stage: non-decreasing from 0, steps of at most 1.
    pub seg_of_stage: [usize; 3],
    /// Processors of each segment; they sum to the group size.
    pub procs: Vec<usize>,
    /// Who takes part in the cross-stage assignments (Radar's corner
    /// turn, a transpose, always takes the minimal subset).
    /// `Participation::WholeGroup` is the ablation for the paper's §4
    /// claim that minimal-processor-subset identification is essential
    /// for pipelined task parallelism.
    pub mode: Participation,
}

impl Segments {
    /// Figure 2(a): all three stages data-parallel on a group of `p`.
    pub fn fused(p: usize) -> Self {
        Segments { seg_of_stage: [0; 3], procs: vec![p], mode: Participation::Minimal }
    }

    /// Figure 2(c): one subgroup per stage.
    pub fn pipeline(procs: [usize; 3]) -> Self {
        Segments { seg_of_stage: [0, 1, 2], procs: procs.to_vec(), mode: Participation::Minimal }
    }
}

/// How a stream program is mapped onto processors (the axis Figure 5
/// explores): Figure 3's replication around a module's [`Segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMapping {
    /// All processors data-parallel on every stage.
    DataParallel,
    /// Three pipeline stages with the given processor counts.
    Pipeline([usize; 3]),
    /// `replicas` independent modules, datasets dealt round-robin; each
    /// module runs the inner mapping.
    Replicated {
        /// Number of independent modules.
        replicas: usize,
        /// Stage processor counts when each module is itself a pipeline.
        pipeline: Option<[usize; 3]>,
    },
}

impl StreamMapping {
    /// The mapping on a group of `p` processors as `(replicas, one
    /// module's segments)`. `Replicated { replicas: 1, .. }` is `Some(1)`,
    /// a one-module partition, and not `DataParallel`'s `None`.
    pub fn segments(self, p: usize) -> (Option<usize>, Segments) {
        let (replicas, pipeline) = match self {
            StreamMapping::DataParallel => (None, None),
            StreamMapping::Pipeline(stage) => (None, Some(stage)),
            StreamMapping::Replicated { replicas, pipeline } => (Some(replicas), pipeline),
        };
        let segs = match pipeline {
            Some(stage) => Segments::pipeline(stage),
            // (Zero replicas is `replicated_modules`' panic to raise.)
            None => Segments::fused(p / replicas.unwrap_or(1).max(1)),
        };
        (replicas, segs)
    }
}

/// A stream program under any mapping: `run(cx, segments, items)` on the
/// current group, or, when the mapping is replicated, on each module with
/// the items dealt over the modules first ([`dealt`]).
pub fn run_mapped<I: Clone, R>(
    cx: &mut Cx,
    mapping: StreamMapping,
    items: &[I],
    run: impl FnOnce(&mut Cx, &Segments, &[I]) -> R,
) -> R {
    let (replicas, segs) = mapping.segments(cx.nprocs());
    match replicas {
        None => run(cx, &segs, items),
        Some(replicas) => {
            dealt(cx, replicas, items.iter().cloned(), |cx, mine| run(cx, &segs, &mine))
        }
    }
}

/// The three stages of a chain as [`stage_chain`] placed them on the current
/// group.
pub struct Stages<'r> {
    seg_of_stage: [usize; 3],
    region: Option<(&'r TaskRegion<'r>, &'r [String])>,
    groups: [GroupHandle; 3],
}

impl Stages<'_> {
    /// `SUBGROUP(..) ::` — the group stage `k`'s variables are mapped to.
    pub fn group(&self, k: usize) -> &GroupHandle {
        &self.groups[k]
    }

    /// `ON SUBGROUP` stage `k`'s segment; when the whole chain is one
    /// segment there is no subgroup to be on, and `f` just runs.
    pub fn on<R>(&self, cx: &mut Cx, k: usize, f: impl FnOnce(&mut Cx) -> R) -> Option<R> {
        match &self.region {
            None => Some(f(cx)),
            Some((tr, names)) => tr.on(cx, &names[self.seg_of_stage[k]], f),
        }
    }
}

/// Place a three-stage chain on the current group under `segs` and run
/// `body` there. Several segments are the `TASK_PARTITION G1, G2, …` and
/// task region of Figure 2(c), `body` its parent scope; one segment is
/// Figure 2(a) — the current group as it stands, no partition, no region.
pub fn stage_chain<R>(cx: &mut Cx, segs: &Segments, body: impl FnOnce(&mut Cx, &Stages) -> R) -> R {
    let (seg_of_stage, procs) = (segs.seg_of_stage, &segs.procs);
    assert!(
        seg_of_stage[0] == 0 && seg_of_stage.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
        "stage segments must start at 0 and be contiguous and non-decreasing"
    );
    assert_eq!(procs.len(), seg_of_stage[2] + 1, "one processor count per segment");
    assert_eq!(procs.iter().sum::<usize>(), cx.nprocs(), "segments must use the whole group");
    if procs.len() == 1 {
        let g = cx.group();
        return body(cx, &Stages { seg_of_stage, region: None, groups: [g.clone(), g.clone(), g] });
    }
    let names: Vec<String> = (1..=procs.len()).map(|s| format!("G{s}")).collect();
    let spec: Vec<(&str, Size)> =
        names.iter().zip(procs).map(|(n, &p)| (n.as_str(), Size::Procs(p))).collect();
    let part = cx.task_partition(&spec);
    let groups = seg_of_stage.map(|s| part.group(&names[s]));
    cx.task_region(&part, |cx, tr| {
        body(cx, &Stages { seg_of_stage, region: Some((tr, &names)), groups })
    })
}

/// The array a stage reads: its predecessor's `src` where it lies, or,
/// when the stage has a segment of its own (`own` is its copy there),
/// `src` assigned across in the parent scope.
pub fn hop<'a, T: Elem>(
    cx: &mut Cx,
    own: &'a mut Option<DArray2<T>>,
    src: &'a DArray2<T>,
    mode: Participation,
) -> &'a DArray2<T> {
    match own {
        Some(dst) => {
            assign2_with(cx, dst, src, mode);
            dst
        }
        None => src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine};

    #[test]
    fn replicated_modules_assigns_each_processor_once() {
        let rep = spmd(&Machine::real(6), |cx| {
            replicated_modules(cx, 3, |cx, module| {
                assert_eq!(cx.nprocs(), 2);
                (module, cx.id())
            })
        });
        let got: Vec<(usize, usize)> = rep.results;
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn modules_compute_independently() {
        let rep = spmd(&Machine::real(4), |cx| {
            replicated_modules(cx, 2, |cx, module| {
                cx.allreduce((module as u64 + 1) * 10, |a, b| a + b)
            })
        });
        assert_eq!(rep.results, vec![20, 20, 40, 40]);
    }

    #[test]
    fn dealt_deals_by_position() {
        let rep = spmd(&Machine::real(4), |cx| dealt(cx, 2, 10..15, |_, mine| mine));
        assert_eq!(rep.results, [vec![10, 12, 14], vec![10, 12, 14], vec![11, 13], vec![11, 13]]);
    }

    #[test]
    fn a_fused_chain_is_the_group_as_it_stands() {
        // No partition, no region: every stage runs on everyone and no
        // scope is entered (an op tag or a region entry per stage would
        // move the data-parallel program's tags and counters).
        let rep = spmd(&Machine::real(3), |cx| {
            stage_chain(cx, &Segments::fused(3), |cx, st| {
                assert_eq!(st.group(2).gid(), cx.group().gid());
                (0..3).filter_map(|k| st.on(cx, k, |cx| cx.nprocs())).collect::<Vec<_>>()
            })
        });
        assert!(rep.results.iter().all(|r| r == &[3, 3, 3]));
        assert_eq!(rep.total().region_enters, 0);
    }

    #[test]
    fn fused_stages_share_a_segment_of_a_longer_chain() {
        let segs = Segments { seg_of_stage: [0, 0, 1], procs: vec![2, 1], ..Segments::fused(3) };
        let rep = spmd(&Machine::real(3), |cx| {
            stage_chain(cx, &segs, |cx, st| {
                assert_eq!(st.group(0).gid(), st.group(1).gid());
                (0..3).map(|k| st.on(cx, k, |cx| cx.nprocs())).collect::<Vec<_>>()
            })
        });
        let (g1, g2) = (vec![Some(2), Some(2), None], vec![None, None, Some(1)]);
        assert_eq!(rep.results, [g1.clone(), g1, g2]);
    }

    #[test]
    fn a_mapping_is_replicas_around_segments() {
        use StreamMapping::*;
        assert_eq!(DataParallel.segments(8), (None, Segments::fused(8)));
        assert_eq!(Pipeline([2, 4, 2]).segments(8), (None, Segments::pipeline([2, 4, 2])));
        // One replica is still a (one-module) partition: `Some(1)`.
        let one = Replicated { replicas: 1, pipeline: None };
        assert_eq!(one.segments(8), (Some(1), Segments::fused(8)));
        let four = Replicated { replicas: 4, pipeline: None };
        assert_eq!(four.segments(8), (Some(4), Segments::fused(2)));
        let hybrid = Replicated { replicas: 2, pipeline: Some([1, 2, 1]) };
        assert_eq!(hybrid.segments(8), (Some(2), Segments::pipeline([1, 2, 1])));
    }

    #[test]
    fn run_mapped_deals_items_and_hands_each_module_its_segments() {
        let hybrid = StreamMapping::Replicated { replicas: 2, pipeline: Some([1, 1, 1]) };
        let rep = spmd(&Machine::real(6), |cx| {
            run_mapped(cx, hybrid, &[10, 11, 12], |cx, segs, mine| {
                (cx.nprocs(), segs.procs.clone(), mine.to_vec())
            })
        });
        let (m0, m1) = ((3, vec![1, 1, 1], vec![10, 12]), (3, vec![1, 1, 1], vec![11]));
        assert_eq!(rep.results, [m0.clone(), m0.clone(), m0, m1.clone(), m1.clone(), m1]);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for i in 0..1000u64 {
            let v = unit_hash(i, i * 3, i * 7);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, unit_hash(i, i * 3, i * 7));
        }
    }

    #[test]
    fn inputs_vary_with_all_arguments() {
        assert_ne!(complex_input(0, 1, 2), complex_input(1, 1, 2));
        assert_ne!(complex_input(0, 1, 2), complex_input(0, 2, 2));
        assert_ne!(complex_input(0, 1, 2), complex_input(0, 1, 3));
        assert_ne!(real_input(0, 1, 2), real_input(3, 1, 2));
    }
}
