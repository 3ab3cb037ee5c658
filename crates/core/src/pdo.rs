//! The Fx parallel-loop construct with integrated reductions
//! ("do&merge", the paper's reference [24]: Yang et al., *Do&Merge:
//! Integrating Parallel Loops and Reductions*, LCPC '93).
//!
//! Fx expresses loop parallelism as a special loop whose iterations are
//! distributed over the executing processors and whose outputs are merged
//! with a reduction — the *do* phase runs independent iterations, the
//! *merge* phase combines per-processor partial results. Running inside
//! an `ON SUBGROUP` block scopes both phases to the subgroup.

use fx_runtime::Payload;

use crate::cx::Cx;

/// How loop iterations are dealt to the current group's processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterSched {
    /// Contiguous chunks of `ceil(n/p)` iterations.
    Block,
    /// Iteration `i` on processor `i mod p`.
    Cyclic,
}

impl Cx<'_> {
    /// `pdo`: run `body(i, &mut acc)` for every iteration of `range`,
    /// iterations dealt to the current group per `sched`; then *merge*
    /// the per-processor accumulators with `combine` (associative and
    /// commutative) and return the full reduction on every member.
    ///
    /// This is the do&merge construct: the loop and its reduction are one
    /// operation, so the compiler (here: the runtime) can run the do
    /// phase with zero synchronization and pay one subset reduction at
    /// the end.
    ///
    /// ```
    /// use fx_core::{spmd, IterSched, Machine, MachineModel};
    ///
    /// let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
    ///     cx.pdo_reduce(0..100, IterSched::Block, 0u64, |i, acc| *acc += i as u64, |a, b| a + b)
    /// });
    /// assert!(rep.results.iter().all(|&s| s == 4950));
    /// ```
    pub fn pdo_reduce<A, B, F>(
        &mut self,
        range: std::ops::Range<usize>,
        sched: IterSched,
        init: A,
        mut body: B,
        combine: F,
    ) -> A
    where
        A: Payload + Clone + Sync,
        B: FnMut(usize, &mut A),
        F: Fn(A, A) -> A,
    {
        // Scoped so the profiler splits the construct into its do phase
        // (compute spans under "pdo/do") and merge phase (the reduction's
        // communication under "pdo/merge").
        self.runtime().push_scope("pdo");
        self.runtime().push_scope("do");
        let mut acc = init;
        for i in self.my_iters(range, sched) {
            body(i, &mut acc);
        }
        self.runtime().pop_scope();
        self.runtime().push_scope("merge");
        let out = self.allreduce(acc, combine);
        self.runtime().pop_scope();
        self.runtime().pop_scope();
        out
    }

    /// `pdo` without a reduction: run `body(i)` for this processor's
    /// share of the iterations. No synchronization at all — the caller
    /// owns any cross-iteration dependences (there must be none, as with
    /// the Fortran construct).
    pub fn pdo<B: FnMut(usize)>(&mut self, range: std::ops::Range<usize>, sched: IterSched, mut body: B) {
        for i in self.my_iters(range, sched) {
            body(i);
        }
    }

    /// The iterations of `range` assigned to this processor under `sched`.
    pub fn my_iters(
        &self,
        range: std::ops::Range<usize>,
        sched: IterSched,
    ) -> Box<dyn Iterator<Item = usize>> {
        let p = self.nprocs();
        let me = self.id();
        match sched {
            IterSched::Block => {
                Box::new(block_range(range, p, me).collect::<Vec<_>>().into_iter())
            }
            IterSched::Cyclic => {
                Box::new((range.start + me..range.end).step_by(p).collect::<Vec<_>>().into_iter())
            }
        }
    }
}

/// The contiguous block of `range` owned by virtual processor `me` of a
/// `p`-member group under [`IterSched::Block`]: chunks of `ceil(n/p)`
/// iterations, the last possibly short, trailing members possibly empty.
/// Exposed because the promotion engine (`Cx::pdo_promote`) splits
/// donated tails with exactly this rule.
pub fn block_range(range: std::ops::Range<usize>, p: usize, me: usize) -> std::ops::Range<usize> {
    let n = range.len();
    let chunk = n.div_ceil(p).max(1);
    let lo = (me * chunk).min(n);
    let hi = ((me + 1) * chunk).min(n);
    range.start + lo..range.start + hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cx::spmd;
    use crate::partition::Size;
    use fx_runtime::{Machine, MachineModel};

    #[test]
    fn pdo_reduce_sums_like_sequential() {
        for p in [1usize, 2, 3, 5] {
            let rep = spmd(&Machine::simulated(p, MachineModel::paragon()), |cx| {
                cx.pdo_reduce(0..100, IterSched::Block, 0u64, |i, acc| *acc += i as u64, |a, b| a + b)
            });
            assert!(rep.results.iter().all(|&v| v == 4950), "p = {p}");
        }
    }

    #[test]
    fn block_and_cyclic_schedules_cover_exactly_once() {
        for sched in [IterSched::Block, IterSched::Cyclic] {
            let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), move |cx| {
                cx.my_iters(10..35, sched).collect::<Vec<usize>>()
            });
            let mut all: Vec<usize> = rep.results.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (10..35).collect::<Vec<_>>(), "{sched:?}");
        }
    }

    #[test]
    fn pdo_runs_only_local_iterations() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let mut mine = Vec::new();
            cx.pdo(0..9, IterSched::Cyclic, |i| mine.push(i));
            mine
        });
        assert_eq!(rep.results[0], vec![0, 3, 6]);
        assert_eq!(rep.results[1], vec![1, 4, 7]);
        assert_eq!(rep.results[2], vec![2, 5, 8]);
    }

    #[test]
    fn pdo_reduce_inside_subgroups_is_scoped() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
            cx.task_region(&part, |cx, tr| {
                let a = tr.on(cx, "a", |cx| {
                    cx.pdo_reduce(0..10, IterSched::Block, 0u64, |i, s| *s += i as u64, |x, y| x + y)
                });
                let b = tr.on(cx, "b", |cx| {
                    cx.pdo_reduce(0..10, IterSched::Block, 1u64, |i, s| *s *= (i + 1) as u64, |x, y| x * y)
                });
                a.or(b).unwrap()
            })
        });
        assert_eq!(rep.results[0], 45);
        assert_eq!(rep.results[2], 3628800); // 10!
    }

    #[test]
    fn empty_range_reduces_to_inits() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            cx.pdo_reduce(5..5, IterSched::Block, 7u64, |_, _| unreachable!(), |a, b| a + b)
        });
        assert!(rep.results.iter().all(|&v| v == 21)); // 3 x init merged
    }

    #[test]
    fn more_processors_than_iterations() {
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            cx.pdo_reduce(0..3, IterSched::Block, 0u32, |i, s| *s += i as u32 + 1, |a, b| a + b)
        });
        assert!(rep.results.iter().all(|&v| v == 6));
    }
}
