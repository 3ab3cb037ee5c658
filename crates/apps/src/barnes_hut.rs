//! Barnes-Hut N-body with dynamically nested task parallelism —
//! Figure 7 of the paper (§5.3).
//!
//! Force computation recursively divides the particles into halves, with
//! each half owned by a processor subgroup holding a *partial* tree: the
//! top `k` levels of the Barnes-Hut tree replicated, plus the full
//! subtree over its own particles, with everything else marked remote.
//! A particle whose traversal needs a remote subtree is placed on a
//! **worklist** passed up to the parent subgroup, which retries it
//! against its more complete tree; at the root the tree is complete and
//! the worklist drains. For `p` processors the paper wants
//! `k ≥ log2(p)` replicated levels (and within a small multiple of that
//! to bound memory).
//!
//! Tree construction follows the paper's balanced median-split build
//! (`fx-kernels::nbody::BhTree::build`); it is performed redundantly from
//! the replicated particle set — the parallel build is the same recursive
//! partitioning exercised by `fx-apps::qsort`, so the novel path
//! exercised here is the force/worklist protocol. Redundant on the model,
//! once on the host: every member is charged for the build and for its
//! subgroup's partial tree, but each tree is built once per group
//! ([`Cx::replicated`]) and shared, the worklist and result gathers are
//! read in place from the one buffer the group shares, and the force
//! array in input order is assembled once per group too.

use fx_core::{Cx, Global, Size};
use fx_kernels::nbody::{interaction_flops, BhTree, Body};

use crate::util::unit_hash;

/// Bytes charged per cell of a partial tree handed to a subgroup, fixed
/// at the 88-byte cell every committed virtual time was produced with:
/// the layout of `fx_kernels::nbody::Cell` is a host detail and must not
/// move virtual time.
const CELL_CHARGE_BYTES: usize = 88;

/// Parameters for one Barnes-Hut force evaluation.
#[derive(Debug, Clone, Copy)]
pub struct BhConfig {
    /// Particle count.
    pub n: usize,
    /// Multipole acceptance parameter.
    pub theta: f64,
    /// Plummer softening.
    pub eps: f64,
    /// Replicated tree levels per split (`k`); the paper wants
    /// `log2(p) <= k <= c * log2(p)`.
    pub k: usize,
    /// Subgroup size at which the recursive splitting stops and the leaf
    /// solve becomes a *promotable* loop ([`Cx::pdo_promote`]): the leaf
    /// subgroup keeps the static block split of its particle range, but a
    /// member stuck on deep traversals can donate its tail to peers that
    /// finished early. `1` (the default) reproduces the original
    /// recursion exactly — split all the way down to single processors
    /// and solve sequentially with one lumped flop charge.
    pub leaf_group: usize,
}

impl BhConfig {
    /// Defaults: theta 0.4, light softening, 6 replicated levels,
    /// single-processor leaves (no promotable loops).
    pub fn new(n: usize) -> Self {
        BhConfig { n, theta: 0.4, eps: 1e-3, k: 6, leaf_group: 1 }
    }

    /// Stop the recursive split at subgroups of `q` processors and solve
    /// leaves with a promotable loop (heartbeat work donation).
    pub fn with_leaf_group(mut self, q: usize) -> Self {
        self.leaf_group = q;
        self
    }
}

/// Deterministic particle cloud (replicated input).
pub fn make_bodies(n: usize, seed: u64) -> Vec<Body> {
    (0..n)
        .map(|i| Body {
            pos: [
                unit_hash(seed, i as u64, 1),
                unit_hash(seed, i as u64, 2),
                unit_hash(seed, i as u64, 3),
            ],
            mass: 0.5 + unit_hash(seed, i as u64, 4),
        })
        .collect()
}

/// Compute all forces with the recursive subgroup scheme. Returns the
/// force vector **in the input order of `bodies`** on every member of
/// the current group, as the one array the group shares.
pub fn bh_forces(cx: &mut Cx, bodies: &[Body], cfg: &BhConfig) -> Global<[f64; 3]> {
    // build_bh_tree: replicated build from the replicated particle set.
    let tree = cx.replicated(|| BhTree::build(bodies.to_vec()));
    let n = tree.n_bodies();
    let build_flops = (n as f64) * (n as f64).log2().max(1.0) * 10.0;
    cx.charge_flops(build_flops);

    // compute_force over the whole range; at the top the tree is complete,
    // so the returned worklist is empty.
    let (mut solved, leftover) = compute_force(cx, &tree, 0, n, cfg);
    assert!(leftover.is_empty(), "root worklist must drain on the full tree");

    // Assemble everyone's results, mapping tree order → input order.
    let flat: Vec<(u64, [f64; 3])> =
        solved.drain(..).map(|(i, f)| (i as u64, f)).collect();
    let all = cx.allgather_vecs(flat);
    cx.replicated(|| {
        let mut forces = vec![[0.0f64; 3]; n];
        let mut seen = vec![false; n];
        for &(i, f) in all.flat() {
            let i = i as usize;
            assert!(!seen[i], "particle {i} solved twice");
            seen[i] = true;
            forces[tree.order[i]] = f;
        }
        assert!(seen.iter().all(|&s| s), "every particle must be solved");
        forces
    })
    .into()
}

/// `compute_force` of Figure 7: the current group computes forces for
/// particles `lo..hi` of `tree` (which covers at least that range).
/// Returns this processor's solved `(index, force)` pairs plus the
/// worklist of particles needing a fuller tree.
fn compute_force(
    cx: &mut Cx,
    tree: &BhTree,
    lo: usize,
    hi: usize,
    cfg: &BhConfig,
) -> (Vec<(usize, [f64; 3])>, Vec<usize>) {
    if cx.nprocs() == 1 {
        // Leaf of the recursion: sequential force computation, worklist
        // for anything needing remote data.
        return solve_list(cx, tree, (lo..hi).collect(), cfg);
    }
    if cx.nprocs() <= cfg.leaf_group.max(1) {
        // Promotable leaf: the subgroup shares tree (replicated within
        // it), so the range solve can run as a heartbeat-promotable loop
        // — overloaded members donate their tail to idle peers.
        return solve_list_promoted(cx, tree, lo, hi, cfg);
    }

    let mid = lo + (hi - lo) / 2;
    let p = cx.nprocs();
    let sizes = [p / 2, p - p / 2];
    let part = cx.task_partition(&[
        ("subTreeG1", Size::Procs(sizes[0])),
        ("subTreeG2", Size::Procs(sizes[1])),
    ]);

    let mut my_solved = Vec::new();
    let mut my_worklist = Vec::new();
    cx.task_region(&part, |cx, tr| {
        // partition_bh_tree: each half gets top-k levels + its subtree.
        if let Some((s, w)) = tr.on(cx, "subTreeG1", |cx| {
            let sub = cx.replicated(|| tree.split_range(lo, mid, cfg.k));
            cx.charge_mem_bytes((sub.cells.len() * CELL_CHARGE_BYTES) as f64);
            compute_force(cx, &sub, lo, mid, cfg)
        }) {
            my_solved = s;
            my_worklist = w;
        }
        if let Some((s, w)) = tr.on(cx, "subTreeG2", |cx| {
            let sub = cx.replicated(|| tree.split_range(mid, hi, cfg.k));
            cx.charge_mem_bytes((sub.cells.len() * CELL_CHARGE_BYTES) as f64);
            compute_force(cx, &sub, mid, hi, cfg)
        }) {
            my_solved = s;
            my_worklist = w;
        }
    });

    // Parent scope: pool the children's worklists and retry them against
    // this level's (fuller) tree, spread over all current processors.
    let mine: Vec<u64> = my_worklist.iter().map(|&i| i as u64).collect();
    let pooled = cx.allgather_vecs(mine);
    let me = cx.id();
    let p = cx.nprocs();
    let my_share: Vec<usize> = pooled
        .flat()
        .iter()
        .enumerate()
        .filter(|(j, _)| j % p == me)
        .map(|(_, &i)| i as usize)
        .collect();
    let (retried, still_remote) = solve_list(cx, tree, my_share, cfg);
    my_solved.extend(retried);
    (my_solved, still_remote)
}

/// Sequentially compute forces for `indices` against `tree`; anything
/// hitting a remote cell goes on the worklist.
fn solve_list(
    cx: &mut Cx,
    tree: &BhTree,
    indices: Vec<usize>,
    cfg: &BhConfig,
) -> (Vec<(usize, [f64; 3])>, Vec<usize>) {
    let mut solved = Vec::new();
    let mut worklist = Vec::new();
    let mut visits = 0usize;
    for i in indices {
        let pos = tree.bodies[i].pos;
        let (f, v) = tree.force_at_counting(pos, cfg.theta, cfg.eps);
        visits += v;
        match f {
            Some(force) => solved.push((i, force)),
            None => worklist.push(i),
        }
    }
    cx.charge_flops(visits as f64 * interaction_flops());
    (solved, worklist)
}

/// Promotable variant of the leaf solve: the subgroup block-splits
/// `lo..hi` and each iteration charges its own traversal cost, so a
/// member that drew the expensive particles can donate its tail on a
/// heartbeat. The tree is replicated within the subgroup, so donated
/// iterations ship no input; the output encodes `Option<[f64; 3]>` as
/// `[fx, fy, fz, flag]`.
fn solve_list_promoted(
    cx: &mut Cx,
    tree: &BhTree,
    lo: usize,
    hi: usize,
    cfg: &BhConfig,
) -> (Vec<(usize, [f64; 3])>, Vec<usize>) {
    let mut solved = Vec::new();
    let mut worklist = Vec::new();
    cx.pdo_promote(
        "bhLeaf",
        lo..hi,
        |_cx, _i| Vec::<f64>::new(),
        |cx, i, _ins: &[f64]| {
            let pos = tree.bodies[i].pos;
            let (f, v) = tree.force_at_counting(pos, cfg.theta, cfg.eps);
            cx.charge_flops(v as f64 * interaction_flops());
            vec![match f {
                Some(force) => [force[0], force[1], force[2], 1.0],
                None => [0.0, 0.0, 0.0, 0.0],
            }]
        },
        |_cx, i, outs: Vec<[f64; 4]>| {
            let o = outs[0];
            if o[3] > 0.5 {
                solved.push((i, [o[0], o[1], o[2]]));
            } else {
                worklist.push(i);
            }
        },
    );
    (solved, worklist)
}

/// One simple simulation step: forces, then a position nudge. Returns
/// the updated bodies in input order (identical on all members). For a
/// proper integrator with velocities see [`bh_simulate`].
pub fn bh_step(cx: &mut Cx, bodies: &[Body], cfg: &BhConfig, dt: f64) -> Vec<Body> {
    let forces = bh_forces(cx, bodies, cfg);
    bodies
        .iter()
        .zip(forces.iter())
        .map(|(b, f)| Body {
            pos: [
                b.pos[0] + dt * dt * f[0],
                b.pos[1] + dt * dt * f[1],
                b.pos[2] + dt * dt * f[2],
            ],
            mass: b.mass,
        })
        .collect()
}

/// Leapfrog (kick-drift-kick) N-body integration over `steps` steps,
/// forces computed by the task-parallel Barnes-Hut each step. Returns
/// the final `(bodies, velocities)` in input order on every member.
///
/// With a reasonable `dt` the integrator is symplectic: total energy
/// (kinetic + softened potential) is conserved to a small bound — the
/// physical correctness check for the whole force pipeline.
pub fn bh_simulate(
    cx: &mut Cx,
    bodies: &[Body],
    velocities: &[[f64; 3]],
    cfg: &BhConfig,
    dt: f64,
    steps: usize,
) -> (Vec<Body>, Vec<[f64; 3]>) {
    assert_eq!(bodies.len(), velocities.len());
    let mut bodies = bodies.to_vec();
    let mut vel = velocities.to_vec();
    let mut acc = bh_forces(cx, &bodies, cfg);
    for _ in 0..steps {
        // Kick (half), drift, re-evaluate, kick (half).
        for (v, a) in vel.iter_mut().zip(acc.iter()) {
            for d in 0..3 {
                v[d] += 0.5 * dt * a[d];
            }
        }
        for (b, v) in bodies.iter_mut().zip(&vel) {
            for (p, vd) in b.pos.iter_mut().zip(v) {
                *p += dt * vd;
            }
        }
        acc = bh_forces(cx, &bodies, cfg);
        for (v, a) in vel.iter_mut().zip(acc.iter()) {
            for d in 0..3 {
                v[d] += 0.5 * dt * a[d];
            }
        }
    }
    (bodies, vel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_kernels::nbody::direct_forces;
    use fx_core::{spmd, Machine, MachineModel};

    fn check_against_direct(n: usize, p: usize, k: usize) {
        let bodies = make_bodies(n, 11);
        let cfg = BhConfig { n, theta: 0.4, eps: 1e-3, k, leaf_group: 1 };
        let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), move |cx| bh_forces(cx, &bodies, &cfg));
        // Oracle: sequential BH on the full tree (identical math), and
        // direct sum for physical sanity.
        let bodies2 = make_bodies(n, 11);
        let tree = BhTree::build(bodies2);
        for forces in &rep.results {
            assert_eq!(forces.len(), n);
            let exact = direct_forces(&tree.bodies, cfg.eps);
            let mut sum_sq = 0.0;
            let mut count = 0;
            for (i, b) in tree.bodies.iter().enumerate() {
                // forces[] is input-ordered; tree.bodies is tree-ordered.
                let f = forces[tree.order[i]];
                let seq = tree.force_at(b.pos, cfg.theta, cfg.eps).unwrap();
                assert_eq!(
                    f.map(f64::to_bits),
                    seq.map(f64::to_bits),
                    "parallel differs from sequential BH at particle {i}"
                );
                let mag = exact[i].iter().map(|x| x * x).sum::<f64>().sqrt();
                if mag > 1e-9 {
                    let err = (0..3)
                        .map(|d| (f[d] - exact[i][d]).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    sum_sq += (err / mag).powi(2);
                    count += 1;
                }
            }
            let rms = (sum_sq / count as f64).sqrt();
            assert!(rms < 0.1, "p={p}: BH RMS error vs direct too large: {rms}");
        }
    }

    #[test]
    fn cell_charge_is_pinned_to_the_calibrated_layout() {
        // results/*.txt were produced charging 88 bytes a cell; changing
        // this constant moves every Barnes-Hut virtual time.
        assert_eq!(CELL_CHARGE_BYTES, 88);
    }

    #[test]
    fn matches_sequential_bh_one_proc() {
        check_against_direct(64, 1, 3);
    }

    #[test]
    fn matches_sequential_bh_two_procs() {
        check_against_direct(64, 2, 3);
    }

    #[test]
    fn matches_sequential_bh_many_procs() {
        check_against_direct(128, 8, 3);
    }

    #[test]
    fn odd_processor_counts_work() {
        check_against_direct(96, 5, 3);
    }

    #[test]
    fn shallow_replication_still_correct_via_worklists() {
        // k = 1 forces heavy worklist traffic; correctness must not
        // depend on k (only performance does).
        check_against_direct(64, 4, 1);
    }

    #[test]
    fn promoted_leaves_match_plain_recursion() {
        use fx_core::{assert_promotion_transparent, MachineModel};
        let n = 192;
        let bodies = make_bodies(n, 11);
        // Whole group is one leaf: the entire force phase runs as a
        // single promotable loop over the irregular traversals.
        let cfg = BhConfig::new(n).with_leaf_group(4);
        let m = Machine::simulated(4, MachineModel::paragon());
        let rep = assert_promotion_transparent(&m, move |cx| bh_forces(cx, &bodies, &cfg));
        // Same forces as the plain recursion on the same machine.
        let bodies2 = make_bodies(n, 11);
        let plain_cfg = BhConfig::new(n);
        let plain = spmd(&m, move |cx| bh_forces(cx, &bodies2, &plain_cfg));
        assert_eq!(rep.results[0], plain.results[0]);
    }

    #[test]
    fn step_moves_particles() {
        let bodies = make_bodies(32, 3);
        let cfg = BhConfig { n: 32, theta: 0.4, eps: 1e-2, k: 3, leaf_group: 1 };
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), move |cx| bh_step(cx, &bodies, &cfg, 1e-3));
        let moved = &rep.results[0];
        assert_eq!(moved.len(), 32);
        // Same on all processors, and positions changed (in input order).
        assert_eq!(rep.results[0], rep.results[1]);
        let original = make_bodies(32, 3);
        let displaced = moved
            .iter()
            .zip(&original)
            .filter(|(a, b)| a.pos != b.pos)
            .count();
        assert!(displaced > 0);
        // Masses untouched, pairing preserved.
        for (a, b) in moved.iter().zip(&original) {
            assert_eq!(a.mass, b.mass);
        }
    }

    #[test]
    fn leapfrog_conserves_energy() {
        use fx_kernels::nbody::total_energy;
        let n = 48;
        let bodies = make_bodies(n, 21);
        let vel = vec![[0.0f64; 3]; n];
        let cfg = BhConfig { n, theta: 0.2, eps: 0.05, k: 4, leaf_group: 1 };
        let e0 = total_energy(&bodies, &vel, cfg.eps);
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| {
            bh_simulate(cx, &bodies, &vel, &cfg, 2e-4, 25)
        });
        let (final_bodies, final_vel) = &rep.results[0];
        let e1 = total_energy(final_bodies, final_vel, cfg.eps);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.02, "energy drift too large: {e0} → {e1} ({drift:.4})");
        // Something actually happened.
        let moved = final_bodies
            .iter()
            .zip(make_bodies(n, 21))
            .filter(|(a, b)| a.pos != b.pos)
            .count();
        assert!(moved > 0);
        // Identical on all members.
        assert_eq!(rep.results[0], rep.results[3]);
    }
}
