//! The two redistribution workloads. Both run plan-based statements of
//! `fx-darray` at P=64 and nothing else; they differ in which half of
//! the plan layer they keep busy.
//!
//! * `redist_steady` repeats four statements, so after the first
//!   iteration every plan is a cache hit: **replay**, pack/unpack and
//!   chunk transport dominate — the steady state of every pipeline.
//! * `redist_churn` never repeats an extent, so every statement is a
//!   cache miss: plan **build**, LRU insertion/eviction and array
//!   allocation dominate. A replay gain bought with a costlier build
//!   shows here and not in `redist_steady`.

use std::time::Instant;

use fx_apps::util::unit_hash;
use fx_core::spmd;
use fx_darray::{assign1, assign2, transpose2, DArray1, DArray2, DimMap, Dist, Dist1};
use fx_kernels::Complex;

use crate::json::Json;
use crate::spans::Recorder;
use crate::workload::{PassBuilder, PassOut, Pin, Size, Workload};

/// Seeded array contents as a function of the global index, cheap enough
/// that filling an array is not what a pass measures.
#[derive(Clone)]
struct Pattern {
    table: Vec<f64>,
}

impl Pattern {
    fn new(seed: u64) -> Pattern {
        // A prime length, so rows and columns of any extent used here
        // walk the table out of step with each other.
        Pattern {
            table: (0..65521).map(|i| unit_hash(seed, 50, i)).collect(),
        }
    }

    fn at1(&self, i: usize) -> f64 {
        self.table[i % self.table.len()]
    }

    fn at2(&self, r: usize, c: usize) -> Complex {
        let n = self.table.len();
        Complex::new(
            self.table[(r * 31 + c) % n],
            self.table[(c * 17 + r + 7) % n],
        )
    }
}

/// Count the slots of a processor's local tile that differ from
/// `expect(row, col)`. `dist` is `(Star, Block)` or `(Block, Star)` over
/// `p` processors; tiles are row-major, as `DArray2::local` documents.
fn tile_mismatches(
    local: &[Complex],
    [rows, cols]: [usize; 2],
    dist: (Dist, Dist),
    (p, v): (usize, usize),
    expect: impl Fn(usize, usize) -> Complex,
) -> usize {
    let (rmap, cmap, gr, gc) = match dist {
        (Dist::Star, d) => (
            DimMap::new(rows, 1, Dist::Star),
            DimMap::new(cols, p, d),
            0,
            v,
        ),
        (d, Dist::Star) => (
            DimMap::new(rows, p, d),
            DimMap::new(cols, 1, Dist::Star),
            v,
            0,
        ),
        _ => unreachable!("the redistribution workloads distribute one dimension"),
    };
    let (lr, lc) = (rmap.local_len(gr), cmap.local_len(gc));
    if local.len() != lr * lc {
        return local.len().max(lr * lc);
    }
    let mut bad = 0;
    for i in 0..lr {
        for j in 0..lc {
            bad += usize::from(
                local[i * lc + j] != expect(rmap.global_of(gr, i), cmap.global_of(gc, j)),
            );
        }
    }
    bad
}

/// The same for a 1-D array.
fn slice_mismatches(
    local: &[f64],
    n: usize,
    dist: Dist,
    (p, v): (usize, usize),
    pat: &Pattern,
) -> usize {
    let map = DimMap::new(n, p, dist);
    if local.len() != map.local_len(v) {
        return local.len().max(map.local_len(v));
    }
    local
        .iter()
        .enumerate()
        .filter(|(li, x)| **x != pat.at1(map.global_of(v, *li)))
        .count()
}

const A1: (Dist, Dist) = (Dist::Star, Dist::Block);
const A2: (Dist, Dist) = (Dist::Block, Dist::Star);

/// Processor 0 reads the host clock after every so many iterations
/// (`redist_steady`) or statement pairs (`redist_churn`), which cuts the
/// pass's one `spmd` into parts (`PassBuilder::cut_at`).
const STEADY_CUT_EVERY: usize = 2;
const CHURN_CUT_EVERY: usize = 3;

/// `redist_steady`, set up.
pub struct RedistSteady {
    p: usize,
    /// Edge of the square `Complex` matrix.
    m: usize,
    /// Length of the `f64` vector.
    n: usize,
    iterations: usize,
    /// What the arrays are filled from.
    input: Pattern,
    /// What the results are compared with (differs from `input` only
    /// after `inject_fault`).
    expect: Pattern,
    seq_s: f64,
}

impl RedistSteady {
    /// Generate the array contents from `seed`.
    pub fn setup(seed: u64, size: Size) -> RedistSteady {
        let (p, m, n, iterations) = match size {
            Size::Full => (64, 256, 1 << 18, 36),
            Size::Smoke => (8, 32, 1 << 10, 3),
        };
        let t0 = std::time::Instant::now();
        let input = Pattern::new(seed);
        let expect = input.clone();
        RedistSteady {
            p,
            m,
            n,
            iterations,
            input,
            expect,
            seq_s: t0.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for RedistSteady {
    fn sizes(&self) -> Json {
        Json::obj()
            .set("p", self.p)
            .set("iterations", self.iterations)
            .set("statements_per_iteration", 4u64)
            .set(
                "matrix",
                format!(
                    "{m}x{m} Complex: assign2 (*,BLOCK)->(BLOCK,*), transpose2 back",
                    m = self.m
                ),
            )
            .set(
                "vector",
                format!("{} f64: assign1 BLOCK->CYCLIC, CYCLIC->BLOCK", self.n),
            )
    }

    fn seq_s(&self) -> f64 {
        self.seq_s
    }

    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_> {
        let mut b = PassBuilder::new();
        let (p, m, n, iterations) = (self.p, self.m, self.n, self.iterations);
        let (pat, expect) = (&self.input, &self.expect);
        // Each statement reads what the previous one wrote, so a wrong
        // redistribution anywhere in the chain survives to the end.
        let rep = rec.span("darray", "redist_steady", |_| {
            spmd(&pin.machine(p), |cx| {
                let g = cx.group();
                let mut a1 = DArray2::new(cx, &g, [m, m], A1, Complex::ZERO);
                let mut a2 = DArray2::new(cx, &g, [m, m], A2, Complex::ZERO);
                let mut x = DArray1::new(cx, &g, n, Dist1::Block, 0f64);
                let mut y = DArray1::new(cx, &g, n, Dist1::Cyclic, 0f64);
                a1.for_each_owned(|r, c, v| *v = pat.at2(r, c));
                x.for_each_owned(|i, v| *v = pat.at1(i));
                let mut stamps = Vec::new();
                let mut stamp = |cx: &fx_core::Cx| {
                    if cx.id() == 0 {
                        stamps.push(cx.now());
                    }
                };
                stamp(cx);
                let mut cuts = Vec::new();
                for it in 0..iterations {
                    assign2(cx, &mut a2, &a1);
                    stamp(cx);
                    transpose2(cx, &mut a1, &a2);
                    stamp(cx);
                    assign1(cx, &mut y, &x);
                    stamp(cx);
                    assign1(cx, &mut x, &y);
                    stamp(cx);
                    if cx.id() == 0 && it % STEADY_CUT_EVERY == STEADY_CUT_EVERY - 1 {
                        cuts.push(Instant::now());
                    }
                }
                (
                    a1.local().to_vec(),
                    a2.local().to_vec(),
                    x.local().to_vec(),
                    y.local().to_vec(),
                    stamps,
                    cuts,
                )
            })
        });
        b.cut_at(&rep.results[0].5);
        b.add_run(&rep);
        b.virt.op_latency_s = rep.results[0].4.windows(2).map(|w| w[1] - w[0]).collect();

        let results = rep.results;
        b.verify(4 * iterations, move || {
            // a1 has been transposed once per iteration; a2 is a1 before
            // the last transpose.
            let odd = iterations % 2 == 1;
            let a1_at = |r: usize, c: usize| {
                if odd {
                    expect.at2(c, r)
                } else {
                    expect.at2(r, c)
                }
            };
            let a2_at = |r: usize, c: usize| {
                if odd {
                    expect.at2(r, c)
                } else {
                    expect.at2(c, r)
                }
            };
            let (mut bad2, mut bad1) = (0, 0);
            for (v, (a1, a2, x, y, ..)) in results.iter().enumerate() {
                bad2 += tile_mismatches(a1, [m, m], A1, (p, v), a1_at);
                bad2 += tile_mismatches(a2, [m, m], A2, (p, v), a2_at);
                bad1 += slice_mismatches(x, n, Dist::Block, (p, v), expect);
                bad1 += slice_mismatches(y, n, Dist::Cyclic, (p, v), expect);
            }
            // A corrupt chain cannot say which of its statements went
            // wrong: all of them count as failed.
            2 * iterations * (usize::from(bad2 > 0) + usize::from(bad1 > 0))
        });
        b.finish()
    }

    fn inject_fault(&mut self) {
        self.expect.table[0] += 1.0;
    }
}

/// `redist_churn`, set up.
pub struct RedistChurn {
    p: usize,
    /// `(vector length, matrix edge)` of each statement pair; no extent
    /// occurs twice.
    shapes: Vec<(usize, usize)>,
    input: Pattern,
    expect: Pattern,
    seq_s: f64,
}

impl RedistChurn {
    /// Draw the shape sequence and the array contents from `seed`.
    pub fn setup(seed: u64, size: Size) -> RedistChurn {
        let (p, count, n_base, n_step, m_base, m_step) = match size {
            Size::Full => (64, 48, 1024, 16, 64, 4),
            Size::Smoke => (8, 6, 64, 8, 16, 4),
        };
        let t0 = std::time::Instant::now();
        // A seeded permutation of the size ladder, each rung jittered by
        // less than its spacing: the order and the exact extents depend
        // on the seed, and no extent repeats.
        let mut rungs: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            rungs.swap(i, (unit_hash(seed, 60, i as u64) * (i + 1) as f64) as usize);
        }
        let shapes = rungs
            .into_iter()
            .map(|k| {
                let jitter = |stream: u64, step: usize| {
                    (unit_hash(seed, stream, k as u64) * step as f64) as usize
                };
                (
                    16 * (n_base + n_step * k + jitter(61, n_step)),
                    m_base + m_step * k + jitter(62, m_step),
                )
            })
            .collect();
        let input = Pattern::new(seed);
        let expect = input.clone();
        RedistChurn {
            p,
            shapes,
            input,
            expect,
            seq_s: t0.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for RedistChurn {
    fn sizes(&self) -> Json {
        let ns = self.shapes.iter().map(|s| s.0);
        let ms = self.shapes.iter().map(|s| s.1);
        Json::obj()
            .set("p", self.p)
            .set("statement_pairs", self.shapes.len())
            .set(
                "vector_extents",
                format!(
                    "{}..={} f64, BLOCK->CYCLIC",
                    ns.clone().min().unwrap_or(0),
                    ns.max().unwrap_or(0)
                ),
            )
            .set(
                "matrix_edges",
                format!(
                    "{}..={} Complex, (*,BLOCK)->(BLOCK,*)",
                    ms.clone().min().unwrap_or(0),
                    ms.max().unwrap_or(0)
                ),
            )
    }

    fn seq_s(&self) -> f64 {
        self.seq_s
    }

    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_> {
        let mut b = PassBuilder::new();
        let p = self.p;
        let (pat, expect) = (&self.input, &self.expect);
        let shapes = &self.shapes;
        let rep = rec.span("darray", "redist_churn", |_| {
            spmd(&pin.machine(p), |cx| {
                let g = cx.group();
                let mut stamps = vec![cx.now()];
                let mut cuts = Vec::new();
                let mut tiles = Vec::with_capacity(shapes.len());
                for (k, &(n, m)) in shapes.iter().enumerate() {
                    let mut x = DArray1::new(cx, &g, n, Dist1::Block, 0f64);
                    let mut y = DArray1::new(cx, &g, n, Dist1::Cyclic, 0f64);
                    x.for_each_owned(|i, v| *v = pat.at1(i));
                    assign1(cx, &mut y, &x);
                    stamps.push(cx.now());
                    let mut a1 = DArray2::new(cx, &g, [m, m], A1, Complex::ZERO);
                    let mut a2 = DArray2::new(cx, &g, [m, m], A2, Complex::ZERO);
                    a1.for_each_owned(|r, c, v| *v = pat.at2(r, c));
                    assign2(cx, &mut a2, &a1);
                    stamps.push(cx.now());
                    tiles.push((y.local().to_vec(), a2.local().to_vec()));
                    if cx.id() == 0 && k % CHURN_CUT_EVERY == CHURN_CUT_EVERY - 1 {
                        cuts.push(Instant::now());
                    }
                }
                (tiles, if cx.id() == 0 { stamps } else { Vec::new() }, cuts)
            })
        });
        b.cut_at(&rep.results[0].2);
        b.add_run(&rep);
        b.virt.op_latency_s = rep.results[0].1.windows(2).map(|w| w[1] - w[0]).collect();

        let results = rep.results;
        b.verify(2 * shapes.len(), move || {
            let mut bad = 0;
            for (k, &(n, m)) in shapes.iter().enumerate() {
                let (mut bad1, mut bad2) = (0, 0);
                for (v, (tiles, ..)) in results.iter().enumerate() {
                    bad1 += slice_mismatches(&tiles[k].0, n, Dist::Cyclic, (p, v), expect);
                    bad2 +=
                        tile_mismatches(&tiles[k].1, [m, m], A2, (p, v), |r, c| expect.at2(r, c));
                }
                bad += usize::from(bad1 > 0) + usize::from(bad2 > 0);
            }
            bad
        });
        b.finish()
    }

    fn inject_fault(&mut self) {
        self.expect.table[0] += 1.0;
    }
}
