//! Barnes-Hut tree math (paper §5.3, Figure 7).
//!
//! The paper's variant builds a *balanced binary tree* of cells by evenly
//! partitioning the particles along each axis in turn (x, y, z, x, …) —
//! partitioning "very similar to the partitioning in quicksort". Forces
//! are computed with the standard multipole acceptance criterion (MAC);
//! a traversal that needs to open a subtree marked **remote** (not present
//! in this processor's partial copy) aborts and reports it, so the caller
//! can put the particle on the worklist passed up to the parent subgroup.
//!
//! The tree is one arena of [`Cell`]s in depth-first order (a cell's left
//! child is the cell right after it), linked by `u32` indices, and a force
//! evaluation walks it with an explicit stack of pending right children —
//! the recursion state made a record. Partial trees share the full tree's
//! particle arrays instead of copying them.
//!
//! Everything here is sequential; `fx-apps::barnes_hut` layers the
//! recursive processor subdivision, the top-`k`-level replication and the
//! worklist protocol on top.

use std::sync::Arc;

/// A point mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position in space.
    pub pos: [f64; 3],
    /// Mass (G = 1 units).
    pub mass: f64,
}

/// Link value of a leaf: one particle, complete as-is.
const LEAF: u32 = u32::MAX;
/// Link value of a remote stub: the cell's subtree exists on another
/// processor only, so its summary is valid but it cannot be opened.
const REMOTE: u32 = u32::MAX - 1;
/// Right children a walk can have pending: one per level, and a balanced
/// tree of fewer than 2³¹ particles (what `u32` links can index) has at
/// most 31 levels below the root.
const MAX_DEPTH: usize = 32;

/// One cell of the balanced Barnes-Hut tree (48 bytes).
///
/// The particles a cell covers are implied by its place in the tree: the
/// root covers `0..n` and a cell covering `len` particles from `start`
/// splits them at `start + len / 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Centre of mass of the cell's particles.
    pub com: [f64; 3],
    /// Total mass.
    pub mass: f64,
    /// Square of the bounding-sphere radius around `com`: the largest
    /// squared distance of one of the cell's particles from it.
    pub radius2: f64,
    /// Left child, or [`LEAF`] / [`REMOTE`].
    left: u32,
    /// Right child (meaningless unless `left` is a child).
    right: u32,
}

impl Cell {
    /// Radius of the bounding sphere around `com`. Rounded `sqrt` is
    /// monotone, so this is bit for bit the largest rounded particle
    /// distance.
    pub fn radius(&self) -> f64 {
        self.radius2.sqrt()
    }

    /// Child cell indices; `None` for leaves *and* for remote stubs.
    pub fn children(&self) -> Option<(usize, usize)> {
        (self.left < REMOTE).then_some((self.left as usize, self.right as usize))
    }

    /// True when the cell's subtree exists on another processor only.
    pub fn is_remote(&self) -> bool {
        self.left == REMOTE
    }
}

/// A balanced Barnes-Hut tree over a set of particles.
///
/// `bodies` are stored in tree order (the order produced by the recursive
/// median partitioning), mirroring the paper's note that "the particles
/// will be sorted based on the ordering of the leaves".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BhTree {
    /// All cells in depth-first order; the root is cell 0 (when there is
    /// one).
    pub cells: Vec<Cell>,
    /// Particles in tree (leaf) order, shared by every partial tree split
    /// from this one.
    pub bodies: Arc<[Body]>,
    /// `order[i]` is the *original* index of tree-ordered body `i`
    /// (the build sorts bodies by leaf order; integrators use this to map
    /// forces back to input order).
    pub order: Arc<[usize]>,
}

impl BhTree {
    /// Build the tree by recursive median splits along cycling axes
    /// (`build_bh_tree` of Figure 7).
    pub fn build(bodies: Vec<Body>) -> BhTree {
        let n = bodies.len();
        assert!(n < 1 << 31, "{n} particles exceed what u32 cell links index");
        let mut tagged: Vec<(Body, usize)> =
            bodies.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let mut cells = Vec::with_capacity((2 * n).saturating_sub(1));
        if n > 0 {
            build_rec(&mut tagged, 0, &mut cells);
        }
        BhTree {
            cells,
            bodies: tagged.iter().map(|t| t.0).collect(),
            order: tagged.iter().map(|t| t.1).collect(),
        }
    }

    /// Number of particles.
    pub fn n_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// Compute the acceleration on a particle at `pos` using opening angle
    /// `theta` and Plummer softening `eps`.
    ///
    /// Returns `None` if the traversal needed to open a remote cell — the
    /// particle must go on the worklist for a processor with a fuller tree.
    pub fn force_at(&self, pos: [f64; 3], theta: f64, eps: f64) -> Option<[f64; 3]> {
        self.force_at_counting(pos, theta, eps).0
    }

    /// Like [`BhTree::force_at`] but also reports the number of cells
    /// visited, which the simulator charges as interaction work.
    ///
    /// Cells are visited depth first, left before right, so the forces
    /// accumulate in one fixed order.
    pub fn force_at_counting(
        &self,
        pos: [f64; 3],
        theta: f64,
        eps: f64,
    ) -> (Option<[f64; 3]>, usize) {
        if self.cells.is_empty() {
            return (Some([0.0; 3]), 0);
        }
        let mac = Mac::new(theta);
        let mut acc = [0.0f64; 3];
        let mut visits = 0usize;
        let mut pending = [0u32; MAX_DEPTH];
        let mut top = 0;
        let mut i = 0u32;
        loop {
            visits += 1;
            let cell = &self.cells[i as usize];
            let d = [cell.com[0] - pos[0], cell.com[1] - pos[1], cell.com[2] - pos[2]];
            let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            // A cell is taken when the MAC says its monopole suffices, a
            // leaf always (at d² = 0 the MAC refuses one).
            if mac.far(d2, cell.radius2) || cell.left == LEAF {
                if d2 > 0.0 || eps > 0.0 {
                    pull(d, d2, cell.mass, eps, &mut acc);
                }
                if top == 0 {
                    return (Some(acc), visits);
                }
                top -= 1;
                i = pending[top];
            } else if cell.left == REMOTE {
                // MAC failed on a remote stub: cannot resolve locally.
                return (None, visits);
            } else {
                pending[top] = cell.right;
                top += 1;
                i = cell.left;
            }
        }
    }

    /// Extract the partial tree for one half of the particle range
    /// (`partition_bh_tree` of Figure 7): the top `k` levels are kept in
    /// full, the subtree covering `lo..hi` is kept in full, and every
    /// other internal cell becomes a *remote* summary stub. The particles
    /// are shared, not copied (force evaluation itself only needs cell
    /// summaries; the bodies are there for the caller's own range).
    pub fn split_range(&self, lo: usize, hi: usize, k: usize) -> BhTree {
        // At most 2^(k+1) cells from the replicated levels, 2·(hi − lo)
        // from the kept subtree and 4 per level (≤ 31) for the cells
        // straddling its ends and their stubs.
        let bound = (2usize << k.min(31)) + 2 * hi.saturating_sub(lo) + 4 * MAX_DEPTH;
        let mut cells = Vec::with_capacity(bound.min(self.cells.len()));
        if !self.cells.is_empty() {
            self.split_rec(0, 0, self.n_bodies(), k, lo..hi, &mut cells);
        }
        BhTree { cells, bodies: Arc::clone(&self.bodies), order: Arc::clone(&self.order) }
    }

    /// Copy cell `idx`, which covers particles `start..start + len`, and
    /// what is kept below it; `replicate` more levels are kept in full.
    fn split_rec(
        &self,
        idx: usize,
        start: usize,
        len: usize,
        replicate: usize,
        keep: std::ops::Range<usize>,
        out: &mut Vec<Cell>,
    ) -> u32 {
        let cell = self.cells[idx];
        let new_idx = out.len();
        out.push(cell);
        let overlaps = start < keep.end && start + len > keep.start;
        match cell.children() {
            Some((l, r)) if replicate > 0 || overlaps => {
                let (mid, below) = (len / 2, replicate.saturating_sub(1));
                let li = self.split_rec(l, start, mid, below, keep.clone(), out);
                let ri = self.split_rec(r, start + mid, len - mid, below, keep, out);
                out[new_idx].left = li;
                out[new_idx].right = ri;
            }
            // An unexpanded internal cell is a remote summary. An
            // unexpanded leaf is complete as-is, and a cell that was
            // already remote (splitting an existing partial tree) stays
            // remote — otherwise it would masquerade as a leaf and skip
            // the MAC.
            Some(_) => out[new_idx].left = REMOTE,
            None => {}
        }
        new_idx as u32
    }

    /// Depth of the tree (root = level 0); for sizing the replication
    /// parameter `k`.
    pub fn depth(&self) -> usize {
        fn rec(cells: &[Cell], i: usize) -> usize {
            match cells[i].children() {
                None => 0,
                Some((l, r)) => 1 + rec(cells, l).max(rec(cells, r)),
            }
        }
        if self.cells.is_empty() {
            0
        } else {
            rec(&self.cells, 0)
        }
    }
}

fn build_rec(slice: &mut [(Body, usize)], axis: usize, cells: &mut Vec<Cell>) -> u32 {
    let (com, mass) = center_of_mass(slice);
    let radius2 = slice.iter().map(|(b, _)| dist2(b.pos, com)).fold(0.0f64, f64::max);
    let idx = cells.len();
    cells.push(Cell { com, mass, radius2, left: LEAF, right: LEAF });
    if slice.len() > 1 {
        let mid = slice.len() / 2;
        // Median split along the current axis (quicksort-style selection).
        slice.select_nth_unstable_by(mid, |a, b| a.0.pos[axis].total_cmp(&b.0.pos[axis]));
        let (lo, hi) = slice.split_at_mut(mid);
        cells[idx].left = build_rec(lo, (axis + 1) % 3, cells);
        cells[idx].right = build_rec(hi, (axis + 1) % 3, cells);
    }
    idx as u32
}

fn center_of_mass(bodies: &[(Body, usize)]) -> ([f64; 3], f64) {
    // A single body's cell must sit *exactly* at the body: computing
    // (m·p)/m instead would shift it by an ulp, and the softened
    // self-interaction then contributes a spurious ~m/eps² force.
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

/// Margins of the square-root-free MAC: `1 ± 16u` (u = 2⁻⁵³, the unit
/// roundoff). [`Mac::far`] shows why they suffice.
const FAR_MARGIN: f64 = 1.0 + 8.0 * f64::EPSILON;
const NEAR_MARGIN: f64 = 1.0 - 8.0 * f64::EPSILON;

/// The multipole acceptance test of one walk, `sqrt(d²) > sqrt(r²) / θ`
/// evaluated in rounded arithmetic exactly as written, but decided from
/// `d²` and `r²` with two multiplications on every visit that is not
/// within a few ulps of the boundary.
#[derive(Clone, Copy)]
struct Mac {
    theta: f64,
    /// `≈ (1 + 16u) / θ²`; NaN sends every visit to the exact test.
    far: f64,
    /// `≈ (1 − 16u) / θ²`; NaN likewise.
    near: f64,
}

impl Mac {
    fn new(theta: f64) -> Mac {
        // Inside this range θ², 1/θ² and both bounds are normal numbers,
        // and so is r/θ for any r = sqrt(r²) with r² > 0. Outside it (θ
        // tiny, huge, zero or NaN), NaN bounds fail both comparisons.
        let (far, near) = if (2f64.powi(-100)..=2f64.powi(100)).contains(&theta) {
            let inv = 1.0 / (theta * theta);
            (inv * FAR_MARGIN, inv * NEAR_MARGIN)
        } else {
            (f64::NAN, f64::NAN)
        };
        Mac { theta, far, near }
    }

    /// Is a cell with squared radius `r2` at squared distance `d2` far
    /// enough for its monopole? Bit for bit `d2.sqrt() > r2.sqrt() / θ`.
    ///
    /// Proof of the two shortcuts. Let q = fl(fl(√r2)/θ) be the exact
    /// test's threshold, u = 2⁻⁵³, and note that a double `d2` compared
    /// with a rounded product fl(x) compares the same way with x itself
    /// (rounding is monotone and fixes doubles). With r2 > 0 and θ in
    /// range, q is normal and q ∈ √r2/θ · [(1−u)², (1+u)²];
    /// `far` ∈ (1+16u)/θ² · [(1−u)²/(1+u), (1+u)²/(1−u)], `near` likewise.
    /// - `d2 > fl(r2·far)`: d2 > r2·far ≥ r2/θ² (1+16u)(1−u)²/(1+u)
    ///   ≥ r2/θ² (1+u)⁴(1+2u)² ≥ (q(1+2u))² ≥ next_up(q)², so the rounded
    ///   √d2 is at least next_up(q) > q: the exact test says far.
    /// - `d2 < fl(r2·near)`: d2 < r2·near ≤ r2/θ² (1−16u)(1+u)²/(1−u)
    ///   ≤ r2/θ² (1−u)⁴ ≤ q², so √d2 < q and its rounding is ≤ q: near.
    ///
    /// With r2 = 0 both products are 0 and `d2 > 0` is exactly `√d2 > 0`;
    /// an infinite r2 only ever answers near (q = ∞); NaN anywhere falls
    /// through to the exact test.
    #[inline]
    fn far(&self, d2: f64, r2: f64) -> bool {
        if d2 > r2 * self.far {
            true
        } else if d2 < r2 * self.near {
            false
        } else {
            d2.sqrt() > r2.sqrt() / self.theta
        }
    }
}

/// Total energy of a configuration (kinetic from `velocities` plus
/// softened pairwise potential) — the conservation check for
/// integrators. O(n²); test-scale use only.
pub fn total_energy(bodies: &[Body], velocities: &[[f64; 3]], eps: f64) -> f64 {
    assert_eq!(bodies.len(), velocities.len());
    let mut e = 0.0;
    for (b, v) in bodies.iter().zip(velocities) {
        e += 0.5 * b.mass * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    }
    for i in 0..bodies.len() {
        for j in i + 1..bodies.len() {
            let d2 = {
                let dx = bodies[i].pos[0] - bodies[j].pos[0];
                let dy = bodies[i].pos[1] - bodies[j].pos[1];
                let dz = bodies[i].pos[2] - bodies[j].pos[2];
                dx * dx + dy * dy + dz * dz + eps * eps
            };
            e -= bodies[i].mass * bodies[j].mass / d2.sqrt();
        }
    }
    e
}

fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Accumulate the (G = 1) gravitational acceleration exerted at `pos` by a
/// mass `m` at `src`, with Plummer softening `eps`.
fn add_gravity(pos: [f64; 3], src: [f64; 3], m: f64, eps: f64, acc: &mut [f64; 3]) {
    let d = [src[0] - pos[0], src[1] - pos[1], src[2] - pos[2]];
    pull(d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2], m, eps, acc);
}

/// [`add_gravity`] given the separation `d = src − pos` and its squared
/// length `d2`.
#[inline]
fn pull(d: [f64; 3], d2: f64, m: f64, eps: f64, acc: &mut [f64; 3]) {
    let r2 = d2 + eps * eps;
    if r2 == 0.0 {
        return; // exactly self, unsoftened: no self-force
    }
    let inv_r = 1.0 / r2.sqrt();
    let f = m * inv_r * inv_r * inv_r;
    acc[0] += f * d[0];
    acc[1] += f * d[1];
    acc[2] += f * d[2];
}

/// Direct O(n²) force summation — the oracle for Barnes-Hut accuracy
/// tests and the deepest recursion level of Figure 7.
pub fn direct_forces(bodies: &[Body], eps: f64) -> Vec<[f64; 3]> {
    bodies
        .iter()
        .map(|bi| {
            let mut acc = [0.0f64; 3];
            for bj in bodies {
                if std::ptr::eq(bi, bj) {
                    continue;
                }
                add_gravity(bi.pos, bj.pos, bj.mass, eps, &mut acc);
            }
            acc
        })
        .collect()
}

/// Flops of one body-body interaction (distance, inverse sqrt, accumulate).
pub fn interaction_flops() -> f64 {
    20.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> Vec<Body> {
        // Deterministic quasi-random cloud (no rand dependency needed here).
        (0..n)
            .map(|i| {
                let h = |k: u64| {
                    let mut z = seed.wrapping_add(i as u64).wrapping_mul(k);
                    z ^= z >> 33;
                    z = z.wrapping_mul(0xFF51AFD7ED558CCD);
                    z ^= z >> 33;
                    (z % 10_000) as f64 / 10_000.0
                };
                Body { pos: [h(0x9E3779B1), h(0x85EBCA77), h(0xC2B2AE3D)], mass: 1.0 + h(7) }
            })
            .collect()
    }

    #[test]
    fn cell_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 48);
    }

    #[test]
    fn com_and_mass_are_consistent_up_the_tree() {
        let t = BhTree::build(cloud(64, 2));
        assert_eq!(t.cells.len(), 2 * 64 - 1);
        for n in &t.cells {
            if let Some((l, r)) = n.children() {
                let (nl, nr) = (&t.cells[l], &t.cells[r]);
                assert!((n.mass - nl.mass - nr.mass).abs() < 1e-9);
                for d in 0..3 {
                    let blended = (nl.com[d] * nl.mass + nr.com[d] * nr.mass) / n.mass;
                    assert!((n.com[d] - blended).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn bh_forces_approximate_direct_sum() {
        let bodies = cloud(200, 3);
        let t = BhTree::build(bodies.clone());
        let exact = direct_forces(&t.bodies, 1e-3);
        let mut max_rel = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0;
        for (b, e) in t.bodies.iter().zip(&exact) {
            let got = t.force_at(b.pos, 0.3, 1e-3).expect("full tree never bails");
            let mag = (e[0] * e[0] + e[1] * e[1] + e[2] * e[2]).sqrt();
            let err = ((got[0] - e[0]).powi(2) + (got[1] - e[1]).powi(2) + (got[2] - e[2]).powi(2))
                .sqrt();
            if mag > 1e-9 {
                let rel = err / mag;
                max_rel = max_rel.max(rel);
                sum_sq += rel * rel;
                count += 1;
            }
        }
        let rms = (sum_sq / count as f64).sqrt();
        // Monopole-only BH at theta = 0.3: a few percent RMS; individual
        // particles with near-cancelling net forces can be worse.
        assert!(rms < 0.02, "BH RMS error too large: {rms}");
        assert!(max_rel < 0.15, "BH max error too large: {max_rel}");
    }

    #[test]
    fn theta_zero_like_behaviour_is_exact() {
        // Tiny theta forces opening every cell → exact (leaf-level) sums.
        let bodies = cloud(32, 4);
        let t = BhTree::build(bodies);
        let exact = direct_forces(&t.bodies, 1e-3);
        for (b, e) in t.bodies.iter().zip(&exact) {
            let got = t.force_at(b.pos, 1e-9, 1e-3).unwrap();
            for d in 0..3 {
                assert!(
                    (got[d] - e[d]).abs() < 1e-9,
                    "axis {d}: got {} expected {} (diff {})",
                    got[d],
                    e[d],
                    got[d] - e[d]
                );
            }
        }
    }

    #[test]
    fn partial_tree_bails_only_for_near_remote_cells() {
        let bodies = cloud(128, 6);
        let t = BhTree::build(bodies);
        // Replicate 3 levels: stubs are ~1/8-of-the-cloud cells, so distant
        // particles resolve locally while nearby ones must be passed up.
        let half = t.split_range(0, 64, 3);
        assert!(Arc::ptr_eq(&half.bodies, &t.bodies), "a partial tree shares its particles");
        let mut bailed = 0;
        let mut matched = 0;
        for b in &t.bodies[0..64] {
            match half.force_at(b.pos, 0.5, 1e-3) {
                None => bailed += 1,
                Some(got) => {
                    let full = t.force_at(b.pos, 0.5, 1e-3).unwrap();
                    for d in 0..3 {
                        assert!((got[d] - full[d]).abs() < 1e-9);
                    }
                    matched += 1;
                }
            }
        }
        // Both outcomes occur for a random cloud: nearby particles need the
        // other half opened, distant ones are satisfied by summaries.
        assert!(bailed > 0, "expected some worklist particles");
        assert!(matched > 0, "expected some locally-resolved particles");
    }

    #[test]
    fn mac_shortcuts_agree_with_the_exact_test_at_the_boundary() {
        // d² a few ulps either side of (r/θ)², where only the exact test
        // can decide, and far from it, for θ in and out of the fast range.
        for theta in [1.0, 0.4, 0.3, 1e-9, 1e-40, 0.0, 3e40, f64::NAN] {
            let mac = Mac::new(theta);
            for r2 in [0.0, 5e-324, 1e-300, 0.37, 1.0, 2.5e7, 1e300, f64::INFINITY] {
                let q = r2.sqrt() / theta;
                let mut d2 = q * q;
                for _ in 0..40 {
                    d2 = f64::from_bits(d2.to_bits().saturating_sub(1));
                }
                for _ in 0..80 {
                    let exact = d2.sqrt() > r2.sqrt() / theta;
                    assert_eq!(mac.far(d2, r2), exact, "theta {theta} r2 {r2:e} d2 {d2:e}");
                    d2 = f64::from_bits(d2.to_bits() + 1);
                }
                for d2 in [0.0, 1e-310, 1e-3, 1.0, 1e10, 1e308, f64::INFINITY] {
                    let exact = d2.sqrt() > r2.sqrt() / theta;
                    assert_eq!(mac.far(d2, r2), exact, "theta {theta} r2 {r2:e} d2 {d2:e}");
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_trees() {
        let t0 = BhTree::build(Vec::new());
        assert_eq!(t0.force_at([0.0; 3], 0.5, 1e-3), Some([0.0; 3]));
        let t1 = BhTree::build(vec![Body { pos: [1.0, 0.0, 0.0], mass: 2.0 }]);
        assert_eq!(t1.depth(), 0);
        let f = t1.force_at([0.0; 3], 0.5, 0.0).unwrap();
        assert!((f[0] - 2.0).abs() < 1e-12); // m/r² toward +x
    }
}
