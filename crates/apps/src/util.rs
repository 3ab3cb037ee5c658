//! Shared helpers for the applications: deterministic cheap input
//! synthesis, event labels, and the mapping the four chain programs share —
//! a [`Segments`] value placing a three-stage chain on a group
//! ([`stage_chain`]), a [`Placement`] replicating it over modules, and the
//! one dealer ([`run_mapped`]).

use fx_core::{Cx, GroupHandle, Size, TaskRegion};
use fx_darray::{assign2_with, DArray2, Elem, Participation};
use fx_kernels::nbody::Body;
use fx_kernels::Complex;

/// Event label marking the start of one data set's processing.
pub const SET_START: &str = "set start";
/// Event label marking the completion of one data set's processing.
pub const SET_DONE: &str = "set done";

/// One served request's completion, reported by the lowest-ranked member
/// of the group that produces the result. Its `output` is bit-identical to
/// the same computation run one-shot: batching and mapping change
/// scheduling, never answers.
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

/// A stream program's mapping, the value every mapping of the paper is: a
/// module's [`Segments`] replicated `modules` times (Figure 3), with data
/// sets dealt round-robin over the modules — the shape of the mapping
/// `fx-mapping` searches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Replicated modules; data set `i` goes to module `i % modules`.
    pub modules: usize,
    /// How the three stages sit on one module.
    pub segs: Segments,
}

impl Placement {
    /// Figure 2(a): one module, all three stages data-parallel on `p`.
    pub fn data_parallel(p: usize) -> Self {
        Self::replicated(1, Segments::fused(p))
    }

    /// Figure 2(c): one module, one subgroup per stage.
    pub fn pipeline(procs: [usize; 3]) -> Self {
        Self::replicated(1, Segments::pipeline(procs))
    }

    /// Figure 3 and the hybrids of Figure 5: `modules` copies of `segs`.
    pub fn replicated(modules: usize, segs: Segments) -> Self {
        Placement { modules, segs }
    }

    /// Processors the placement occupies.
    pub fn procs(&self) -> usize {
        self.modules * self.segs.procs.iter().sum::<usize>()
    }
}

/// A stream program under a placement: `run(cx, segs, items)` on each of
/// `placement.modules` modules, with item `i` dealt to module `i % modules`.
/// One module is the current group as it stands — no partition, no region.
/// Processors beyond `placement.procs()` idle in a spare subgroup (a
/// searched mapping may leave some unused) and return `R::default()`.
pub fn run_mapped<I: Clone, R: Default>(
    cx: &mut Cx,
    placement: &Placement,
    items: &[I],
    run: impl FnOnce(&mut Cx, &Segments, &[I]) -> R,
) -> R {
    let (used, total, modules) = (placement.procs(), cx.nprocs(), placement.modules);
    assert!(used <= total, "the placement uses {used} of {total} processors");
    let deal = |cx: &mut Cx| {
        if modules == 1 {
            return run(cx, &placement.segs, items);
        }
        replicated_modules(cx, modules, |cx, module| {
            let mine: Vec<I> = items.iter().skip(module).step_by(modules).cloned().collect();
            run(cx, &placement.segs, &mine)
        })
    };
    if used == total {
        return deal(cx);
    }
    let part = cx.task_partition(&[("work", Size::Procs(used)), ("idle", Size::Rest)]);
    cx.task_region(&part, |cx, tr| tr.on(cx, "work", deal)).unwrap_or_default()
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
    use fx_core::{spmd, Machine, MachineModel};

    #[test]
    fn replicated_modules_assigns_each_processor_once() {
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
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
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            replicated_modules(cx, 2, |cx, module| {
                cx.allreduce((module as u64 + 1) * 10, |a, b| a + b)
            })
        });
        assert_eq!(rep.results, vec![20, 20, 40, 40]);
    }

    #[test]
    fn a_fused_chain_is_the_group_as_it_stands() {
        // No partition, no region: every stage runs on everyone and no
        // scope is entered (an op tag or a region entry per stage would
        // move the data-parallel program's tags and counters).
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
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
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            stage_chain(cx, &segs, |cx, st| {
                assert_eq!(st.group(0).gid(), st.group(1).gid());
                (0..3).map(|k| st.on(cx, k, |cx| cx.nprocs())).collect::<Vec<_>>()
            })
        });
        let (g1, g2) = (vec![Some(2), Some(2), None], vec![None, None, Some(1)]);
        assert_eq!(rep.results, [g1.clone(), g1, g2]);
    }

    #[test]
    fn run_mapped_deals_items_and_hands_each_module_its_segments() {
        let hybrid = Placement::replicated(2, Segments::pipeline([1, 1, 1]));
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            run_mapped(cx, &hybrid, &[10, 11, 12], |cx, segs, mine| {
                (cx.nprocs(), segs.procs.clone(), mine.to_vec())
            })
        });
        let (m0, m1) = ((3, vec![1, 1, 1], vec![10, 12]), (3, vec![1, 1, 1], vec![11]));
        assert_eq!(rep.results, [m0.clone(), m0.clone(), m0, m1.clone(), m1.clone(), m1]);
    }

    #[test]
    fn one_module_runs_on_the_group_as_it_stands() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            run_mapped(cx, &Placement::data_parallel(4), &[7, 8], |cx, _, mine| (cx.nprocs(), mine.to_vec()))
        });
        assert!(rep.results.iter().all(|r| r == &(4, vec![7, 8])));
        assert_eq!(rep.total().region_enters, 0);
    }

    #[test]
    fn processors_the_placement_leaves_over_idle() {
        // Two modules of 2 on 7 processors: the last 3 idle and return the
        // default; the modules deal the items between them.
        let twice = Placement::replicated(2, Segments::fused(2));
        assert_eq!(twice.procs(), 4);
        let rep = spmd(&Machine::simulated(7, MachineModel::paragon()), |cx| {
            run_mapped(cx, &twice, &[0, 1, 2], |cx, _, mine| vec![(cx.nprocs(), mine.to_vec())])
        });
        let (m0, m1) = (vec![(2, vec![0, 2])], vec![(2, vec![1])]);
        assert_eq!(rep.results[..4], [m0.clone(), m0, m1.clone(), m1]);
        assert!(rep.results[4..].iter().all(Vec::is_empty));
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
