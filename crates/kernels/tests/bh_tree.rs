//! The arena tree against the recursive tree it replaced: node for node
//! the same cells, bit for bit the same forces and the same visit counts,
//! on full trees and on partial trees with remote stubs — and a faster
//! walk by a margin that does not depend on the host. The 88-byte node,
//! the tuple build and the recursive walk live here and nowhere else.

use std::time::Instant;

use fx_kernels::nbody::{BhTree, Body};
use proptest::prelude::*;

/// The seed's cell: children by `Option`, a separate remote flag and the
/// particle range stored, 88 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    com: [f64; 3],
    mass: f64,
    radius: f64,
    start: usize,
    len: usize,
    children: Option<(usize, usize)>,
    remote: bool,
}

/// The seed's tree: a `Vec<Node>` built and walked recursively, particles
/// copied into every partial tree.
struct RefTree {
    nodes: Vec<Node>,
    bodies: Vec<Body>,
    order: Vec<usize>,
    root: usize,
}

impl RefTree {
    fn build(bodies: Vec<Body>) -> RefTree {
        let mut tagged: Vec<(Body, usize)> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (b, i))
            .collect();
        let mut nodes = Vec::new();
        if tagged.is_empty() {
            return RefTree {
                nodes,
                bodies: Vec::new(),
                order: Vec::new(),
                root: 0,
            };
        }
        let n = tagged.len();
        let root = build_rec(&mut tagged, 0, n, 0, &mut nodes);
        let (bodies, order): (Vec<Body>, Vec<usize>) = tagged.into_iter().unzip();
        RefTree {
            nodes,
            bodies,
            order,
            root,
        }
    }

    fn force_at_counting(&self, pos: [f64; 3], theta: f64, eps: f64) -> (Option<[f64; 3]>, usize) {
        if self.nodes.is_empty() {
            return (Some([0.0; 3]), 0);
        }
        let mut acc = [0.0f64; 3];
        let mut visits = 0usize;
        if self.force_rec(self.root, pos, theta, eps, &mut acc, &mut visits) {
            (Some(acc), visits)
        } else {
            (None, visits)
        }
    }

    fn force_rec(
        &self,
        idx: usize,
        pos: [f64; 3],
        theta: f64,
        eps: f64,
        acc: &mut [f64; 3],
        visits: &mut usize,
    ) -> bool {
        *visits += 1;
        let node = &self.nodes[idx];
        let d = dist(pos, node.com);
        let is_leaf_like = node.children.is_none() && !node.remote;
        if is_leaf_like || d > node.radius / theta {
            if d > 0.0 || eps > 0.0 {
                add_gravity(pos, node.com, node.mass, eps, acc);
            }
            return true;
        }
        match node.children {
            Some((l, r)) => {
                self.force_rec(l, pos, theta, eps, acc, visits)
                    && self.force_rec(r, pos, theta, eps, acc, visits)
            }
            None => false,
        }
    }

    fn split_range(&self, lo: usize, hi: usize, k: usize) -> RefTree {
        let mut nodes = Vec::new();
        if self.nodes.is_empty() {
            return RefTree {
                nodes,
                bodies: Vec::new(),
                order: Vec::new(),
                root: 0,
            };
        }
        let root = self.split_rec(self.root, 0, k, lo, hi, &mut nodes);
        RefTree {
            nodes,
            bodies: self.bodies.clone(),
            order: self.order.clone(),
            root,
        }
    }

    fn split_rec(
        &self,
        idx: usize,
        depth: usize,
        k: usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<Node>,
    ) -> usize {
        let node = self.nodes[idx];
        let new_idx = out.len();
        out.push(node);
        let overlaps = node.start < hi && node.start + node.len > lo;
        let expand = node.children.is_some() && (depth < k || overlaps);
        if expand {
            let (l, r) = node.children.expect("checked above");
            let li = self.split_rec(l, depth + 1, k, lo, hi, out);
            let ri = self.split_rec(r, depth + 1, k, lo, hi, out);
            out[new_idx].children = Some((li, ri));
            out[new_idx].remote = false;
        } else {
            out[new_idx].children = None;
            out[new_idx].remote = node.children.is_some() || node.remote;
        }
        new_idx
    }
}

fn build_rec(
    bodies: &mut [(Body, usize)],
    start: usize,
    len: usize,
    axis: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let slice = &mut bodies[start..start + len];
    let (com, mass) = center_of_mass(slice);
    let radius = slice
        .iter()
        .map(|(b, _)| dist(b.pos, com))
        .fold(0.0f64, f64::max);
    let idx = nodes.len();
    nodes.push(Node {
        com,
        mass,
        radius,
        start,
        len,
        children: None,
        remote: false,
    });
    if len > 1 {
        let mid = len / 2;
        slice.select_nth_unstable_by(mid, |a, b| a.0.pos[axis].total_cmp(&b.0.pos[axis]));
        let l = build_rec(bodies, start, mid, (axis + 1) % 3, nodes);
        let r = build_rec(bodies, start + mid, len - mid, (axis + 1) % 3, nodes);
        nodes[idx].children = Some((l, r));
    }
    idx
}

fn center_of_mass(bodies: &[(Body, usize)]) -> ([f64; 3], f64) {
    if let [(b, _)] = bodies {
        return (b.pos, b.mass);
    }
    let mut m = 0.0;
    let mut c = [0.0f64; 3];
    for (b, _) in bodies {
        m += b.mass;
        for (ci, pi) in c.iter_mut().zip(b.pos) {
            *ci += b.mass * pi;
        }
    }
    if m > 0.0 {
        for ci in &mut c {
            *ci /= m;
        }
    }
    (c, m)
}

fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    (dx * dx + dy * dy + dz * dz).sqrt()
}

fn add_gravity(pos: [f64; 3], src: [f64; 3], m: f64, eps: f64, acc: &mut [f64; 3]) {
    let dx = src[0] - pos[0];
    let dy = src[1] - pos[1];
    let dz = src[2] - pos[2];
    let r2 = dx * dx + dy * dy + dz * dz + eps * eps;
    if r2 == 0.0 {
        return;
    }
    let inv_r = 1.0 / r2.sqrt();
    let f = m * inv_r * inv_r * inv_r;
    acc[0] += f * dx;
    acc[1] += f * dy;
    acc[2] += f * dz;
}

/// The particle range of every cell, implied by the links: the root
/// covers all particles and a cell splits its range at `len / 2`.
fn spans(t: &BhTree) -> Vec<(usize, usize)> {
    let mut out = vec![(usize::MAX, 0); t.cells.len()];
    let mut todo = if t.cells.is_empty() {
        vec![]
    } else {
        vec![(0, 0, t.n_bodies())]
    };
    while let Some((i, start, len)) = todo.pop() {
        out[i] = (start, len);
        if let Some((l, r)) = t.cells[i].children() {
            todo.push((l, start, len / 2));
            todo.push((r, start + len / 2, len - len / 2));
        }
    }
    out
}

/// Node for node: every cell's summary bits, particle range, links and
/// kind, and the particle order.
fn assert_same_tree(new: &BhTree, old: &RefTree, what: &str) {
    assert_eq!(old.root, 0, "{what}: the reference root is its first node");
    assert_eq!(new.cells.len(), old.nodes.len(), "{what}: cell count");
    assert_eq!(new.order[..], old.order[..], "{what}: order");
    let bits = |b: &[Body]| {
        b.iter()
            .map(|b| (b.pos.map(f64::to_bits), b.mass.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&new.bodies), bits(&old.bodies), "{what}: bodies");
    for (i, ((c, n), span)) in new.cells.iter().zip(&old.nodes).zip(spans(new)).enumerate() {
        let got = (
            c.com.map(f64::to_bits),
            c.mass.to_bits(),
            c.radius().to_bits(),
            span,
            c.children(),
            c.is_remote(),
        );
        let want = (
            n.com.map(f64::to_bits),
            n.mass.to_bits(),
            n.radius.to_bits(),
            (n.start, n.len),
            n.children,
            n.remote,
        );
        assert_eq!(got, want, "{what}: cell {i}");
    }
}

/// Same answer bits and the same number of visits — which for a bail is
/// the visit it bailed on.
fn assert_same_forces(
    new: &BhTree,
    old: &RefTree,
    points: &[[f64; 3]],
    theta: f64,
    eps: f64,
    what: &str,
) {
    for (j, &pos) in points.iter().enumerate() {
        let (f, v) = new.force_at_counting(pos, theta, eps);
        let (g, w) = old.force_at_counting(pos, theta, eps);
        assert_eq!(
            (f.map(|f| f.map(f64::to_bits)), v),
            (g.map(|g| g.map(f64::to_bits)), w),
            "{what}: point {j} at {pos:?}, theta {theta:e}, eps {eps:e}"
        );
    }
}

/// Shapes of input: uniform in the unit cube, a Plummer sphere (dense
/// core, sparse halo), and small integers, where distances tie the
/// opening threshold exactly at θ = 1/2 and 1 and coincident particles
/// are common.
#[derive(Debug, Clone, Copy)]
enum Cloud {
    Uniform,
    Plummer,
    Lattice,
}

fn cloud(kind: Cloud, draws: &[(f64, f64, f64, f64)]) -> Vec<Body> {
    draws
        .iter()
        .map(|&(u, v, w, m)| match kind {
            Cloud::Uniform => Body {
                pos: [u, v, w],
                mass: m,
            },
            Cloud::Plummer => Body {
                pos: plummer_point(u, v, w),
                mass: m,
            },
            Cloud::Lattice => Body {
                pos: [(u * 4.0).floor(), (v * 4.0).floor(), (w * 2.0).floor()],
                mass: 1.0,
            },
        })
        .collect()
}

/// A point of a Plummer sphere of core radius 0.05 around (½, ½, ½), from
/// three uniform draws (inverse of the cumulative mass profile).
fn plummer_point(u: f64, v: f64, w: f64) -> [f64; 3] {
    let u = u.clamp(1e-6, 0.999);
    let r = (0.05 / (u.powf(-2.0 / 3.0) - 1.0).sqrt()).min(0.45);
    let z = 2.0 * v - 1.0;
    let phi = std::f64::consts::TAU * w;
    let s = (1.0 - z * z).sqrt();
    [
        0.5 + r * s * phi.cos(),
        0.5 + r * s * phi.sin(),
        0.5 + r * z,
    ]
}

fn any_cloud() -> impl Strategy<Value = Cloud> {
    prop_oneof![
        Just(Cloud::Uniform),
        Just(Cloud::Plummer),
        Just(Cloud::Lattice)
    ]
}

fn any_theta() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-40),
        Just(1e-9),
        Just(0.5),
        Just(1.0),
        0.05f64..1.2
    ]
}

fn any_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-3), 1e-4f64..0.1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Full trees, a partial tree per half and a partial tree of a
    /// partial tree (what `bh_forces` builds two levels down): identical
    /// cells, and identical forces and visits at every particle — its own
    /// position included, so at ε = 0 the self-interaction is skipped
    /// exactly — and at a few points off the particles.
    #[test]
    fn arena_tree_is_the_recursive_tree_bit_for_bit(
        kind in any_cloud(),
        draws in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.5f64..1.5), 1..600),
        theta in any_theta(),
        eps in any_eps(),
        k in 0usize..8,
        cut in 0.0f64..1.0,
    ) {
        let bodies = cloud(kind, &draws);
        let n = bodies.len();
        let new = BhTree::build(bodies.clone());
        let old = RefTree::build(bodies);
        assert_same_tree(&new, &old, "full");
        let mut points: Vec<[f64; 3]> = old.bodies.iter().map(|b| b.pos).collect();
        points.extend([[0.5; 3], [-1.0, 2.0, 0.25], [1e-3, 0.999, 0.5]]);
        assert_same_forces(&new, &old, &points, theta, eps, "full");

        let mid = n / 2;
        for (lo, hi) in [(0, mid), (mid, n)] {
            let (half, ref_half) = (new.split_range(lo, hi, k), old.split_range(lo, hi, k));
            let what = format!("{lo}..{hi} at k = {k}");
            assert_same_tree(&half, &ref_half, &what);
            assert_same_forces(&half, &ref_half, &points, theta, eps, &what);
            let inner = lo + ((hi - lo) as f64 * cut) as usize;
            let (quarter, ref_quarter) = (half.split_range(lo, inner, k), ref_half.split_range(lo, inner, k));
            let what = format!("{lo}..{inner} of {what}");
            assert_same_tree(&quarter, &ref_quarter, &what);
            assert_same_forces(&quarter, &ref_quarter, &points[lo..inner], theta, eps, &what);
        }
    }
}

/// A hash-driven Plummer cloud, the shape `kernels.bh_force_ns_per_body`
/// times.
fn plummer_cloud(n: usize) -> Vec<Body> {
    let h = |i: usize, k: u64| {
        let mut z = (i as u64).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Body {
            pos: plummer_point(h(i, 1), h(i, 2), h(i, 3)),
            mass: 0.5 + h(i, 4),
        })
        .collect()
}

#[test]
fn tree_is_balanced_and_covers_all_bodies() {
    let t = BhTree::build(plummer_cloud(100));
    assert_eq!(t.n_bodies(), 100);
    assert_eq!(t.cells.len(), 199);
    // A balanced binary tree over 100 leaves has depth ceil(log2 100) = 7.
    assert_eq!(t.depth(), 7);
    // Leaves partition the index range exactly.
    let mut leaf_cover = vec![0u32; 100];
    for (c, (start, len)) in t.cells.iter().zip(spans(&t)) {
        if c.children().is_none() {
            assert_eq!(len, 1);
            leaf_cover[start] += 1;
        }
    }
    assert!(leaf_cover.iter().all(|&c| c == 1));
}

#[test]
fn split_keeps_own_half_and_stubs_other() {
    let t = BhTree::build(plummer_cloud(64));
    let half = t.split_range(0, 32, 2);
    assert_eq!(half.cells[0].mass.to_bits(), t.cells[0].mass.to_bits());
    let spans = spans(&half);
    // Some remote stubs must exist, all outside [0, 32).
    let stubs: Vec<usize> = (0..half.cells.len())
        .filter(|&i| half.cells[i].is_remote())
        .collect();
    assert!(!stubs.is_empty());
    for &s in &stubs {
        assert!(spans[s].0 >= 32, "stub covering own half");
    }
    // Every leaf of my half is present.
    let mut covered = [false; 32];
    for (c, &(start, len)) in half.cells.iter().zip(&spans) {
        if c.children().is_none() && !c.is_remote() && len == 1 && start < 32 {
            covered[start] = true;
        }
    }
    assert!(covered.iter().all(|&c| c), "missing own-half leaves");
}

/// Best of 7 of each of two passes, interleaved so that a burst of host
/// load hits both.
fn best_of_7_ns_each(mut a: impl FnMut(), mut b: impl FnMut()) -> (u128, u128) {
    let time = |pass: &mut dyn FnMut()| {
        let t = Instant::now();
        pass();
        t.elapsed().as_nanos()
    };
    let mut best = (u128::MAX, u128::MAX);
    for _ in 0..7 {
        best.0 = best.0.min(time(&mut a));
        best.1 = best.1.min(time(&mut b));
    }
    best
}

/// CI's tree-kernel gate (`--release --ignored`): the full-tree forces of
/// 4 096 Plummer bodies at θ = 0.4 (what `kernels.bh_force_ns_per_body`
/// times), arena walk against the recursive reference, two timings from
/// one process so host speed cancels. The arena walk reads 1.24–1.30×
/// faster on a 2-core host over 30 runs; the bound, 1.12×, leaves twice
/// that spread below the slowest reading. A per-visit division or square
/// root, or a walk that recurses again, closes the gap.
#[test]
#[ignore = "timing; CI runs it in release with --ignored"]
fn arena_walk_beats_the_recursive_reference() {
    let bodies = plummer_cloud(4096);
    let new = BhTree::build(bodies.clone());
    let old = RefTree::build(bodies);
    let points: Vec<[f64; 3]> = old.bodies.iter().map(|b| b.pos).collect();
    let visits: usize = points
        .iter()
        .map(|&p| new.force_at_counting(p, 0.4, 1e-3).1)
        .sum();
    let (arena, recursive) = best_of_7_ns_each(
        || {
            for &p in &points {
                std::hint::black_box(new.force_at_counting(std::hint::black_box(p), 0.4, 1e-3));
            }
        },
        || {
            for &p in &points {
                std::hint::black_box(old.force_at_counting(std::hint::black_box(p), 0.4, 1e-3));
            }
        },
    );
    let per_visit = |ns: u128| ns as f64 / visits as f64;
    println!(
        "4096-body walk, {visits} visits: arena {:.2} ns/visit, recursive {:.2} ns/visit ({:.3}x)",
        per_visit(arena),
        per_visit(recursive),
        recursive as f64 / arena as f64
    );
    assert!(
        arena * 112 < recursive * 100,
        "arena {arena} ns x 1.12 is not under the recursive walk's {recursive} ns"
    );
}
