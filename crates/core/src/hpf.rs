//! The HPF 2.0 approved-extension variant of task parallelism
//! (paper §6, "Related Work").
//!
//! The paper compares its Fx directives with the task-parallelism
//! extension approved for HPF 2.0, which grew out of the same design
//! discussions ("this is because of the strong interaction between the
//! two design efforts"). The differences the paper lists:
//!
//! * HPF has a **general `ON` construct**: execution on a subset of
//!   processors is specified by describing the subset *at the point of
//!   use*, with no declarative `TASK_PARTITION`/`SUBGROUP` statements;
//! * the subset may be **computed during execution** of the procedure
//!   (more flexible than Fx's declared templates);
//! * but only **rectilinear sections of the current processor
//!   arrangement** can be named (less flexible than Fx's arbitrary
//!   named subgroups).
//!
//! This module implements that style against the same runtime, which is
//! the paper's §6 claim made executable: "we do believe that HPF task
//! parallelism can also be implemented efficiently, at least for most
//! common patterns of task parallelism". The Fx execution machinery
//! (mapping stacks, subset collectives) is reused unchanged — only the
//! surface differs, mirroring how close the two designs are.

use std::ops::Range;
use std::sync::Arc;

use crate::cx::Cx;
use crate::group::GroupHandle;
use crate::hash::mix3;

/// Marker mixed into group ids derived from `ON HOME`-style ranges.
const HPF_ON_SALT: u64 = 0x48_50_46_4F; // "HPFO"

impl Cx<'_> {
    /// HPF-style `ON PROCESSORS(lo:hi-1)` block: run `f` on the
    /// rectilinear section `range` of the *current* processor
    /// arrangement, without any declared partition. Non-members skip
    /// past and get `None`.
    ///
    /// The range may be computed at run time (HPF's extra flexibility);
    /// it must be the same value on every member of the current group
    /// (SPMD consistency), which HPF guarantees by evaluating the ON
    /// clause from replicated values.
    ///
    /// ```
    /// use fx_core::{spmd, Machine, MachineModel};
    ///
    /// let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
    ///     cx.on_processors(1..3, |cx| cx.allreduce(1u32, |a, b| a + b))
    /// });
    /// assert_eq!(rep.results, vec![None, Some(2), Some(2), None]);
    /// ```
    pub fn on_processors<R>(
        &mut self,
        range: Range<usize>,
        f: impl FnOnce(&mut Cx) -> R,
    ) -> Option<R> {
        let group = self.processors_section(range);
        if !group.contains_phys(self.phys_rank()) {
            return None;
        }
        Some(self.enter(&group, f))
    }

    /// Build the group handle for a rectilinear section of the current
    /// arrangement (HPF's `PROCESSORS(lo:hi)` subset). The id is derived
    /// from the current group and the range *values*, so textually
    /// different ON blocks naming the same section agree — as HPF
    /// requires — while sections of different parents never collide.
    ///
    /// Note the restriction the paper points out: only *contiguous*
    /// (rectilinear, in 1-D: interval) sections can be described, unlike
    /// Fx subgroups which may be any declared split.
    pub fn processors_section(&self, range: Range<usize>) -> GroupHandle {
        let cur = self.group();
        assert!(
            range.start < range.end && range.end <= cur.len(),
            "ON PROCESSORS({}:{}) outside the current arrangement of {}",
            range.start,
            range.end,
            cur.len()
        );
        let members: Vec<usize> = range.clone().map(|v| cur.phys(v)).collect();
        let gid = mix3(
            cur.gid() ^ HPF_ON_SALT,
            range.start as u64,
            range.end as u64,
        );
        GroupHandle::new(gid, Arc::new(members))
    }
}

impl Cx<'_> {
    /// HPF-style `ON PROCESSORS(r0:r1-1, c0:c1-1)` over a 2-D view of the
    /// current arrangement: the current group's members are read as a
    /// row-major `shape.0 x shape.1` grid (HPF `PROCESSORS P(pr, pc)`),
    /// and `f` runs on the rectilinear sub-grid `rows x cols`.
    /// Non-members skip past and get `None`.
    ///
    /// This is the full generality of the HPF extension's rectilinear
    /// sections that the paper's §6 contrasts with Fx's named subgroups.
    pub fn on_processors_2d<R>(
        &mut self,
        shape: (usize, usize),
        rows: Range<usize>,
        cols: Range<usize>,
        f: impl FnOnce(&mut Cx) -> R,
    ) -> Option<R> {
        let group = self.processors_section_2d(shape, rows, cols);
        if !group.contains_phys(self.phys_rank()) {
            return None;
        }
        Some(self.enter(&group, f))
    }

    /// Build the group for a rectilinear section of a 2-D view of the
    /// current arrangement. Members are listed in row-major order of the
    /// section, so the section can itself be viewed as a
    /// `rows.len() x cols.len()` arrangement in nested ON blocks.
    pub fn processors_section_2d(
        &self,
        (pr, pc): (usize, usize),
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> GroupHandle {
        let cur = self.group();
        assert_eq!(
            pr * pc,
            cur.len(),
            "PROCESSORS({pr},{pc}) does not match the current arrangement of {}",
            cur.len()
        );
        assert!(
            rows.start < rows.end && rows.end <= pr && cols.start < cols.end && cols.end <= pc,
            "ON PROCESSORS({}:{}, {}:{}) outside the {pr}x{pc} arrangement",
            rows.start,
            rows.end,
            cols.start,
            cols.end
        );
        let mut members = Vec::with_capacity(rows.len() * cols.len());
        for r in rows.clone() {
            for c in cols.clone() {
                members.push(cur.phys(r * pc + c));
            }
        }
        let gid = mix3(
            mix3(cur.gid() ^ HPF_ON_SALT, pr as u64, pc as u64),
            (rows.start as u64) << 32 | rows.end as u64,
            (cols.start as u64) << 32 | cols.end as u64,
        );
        GroupHandle::new(gid, Arc::new(members))
    }
}

#[cfg(test)]
mod tests {
    use crate::cx::spmd;
    use fx_runtime::{Machine, MachineModel};

    #[test]
    fn on_processors_executes_on_the_section_only() {
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            let lo = cx.on_processors(0..2, |cx| {
                assert_eq!(cx.nprocs(), 2);
                cx.allreduce(1u32, |a, b| a + b)
            });
            let hi = cx.on_processors(2..6, |cx| {
                assert_eq!(cx.nprocs(), 4);
                cx.allreduce(10u32, |a, b| a + b)
            });
            (lo, hi)
        });
        assert_eq!(rep.results[0], (Some(2), None));
        assert_eq!(rep.results[5], (None, Some(40)));
    }

    #[test]
    fn runtime_computed_sections() {
        // HPF's flexibility: the subset is computed during execution.
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            let split = 3 + (cx.world_nprocs() % 3); // any replicated expression
            let a = cx.on_processors(0..split, |cx| cx.nprocs());
            let b = cx.on_processors(split..8, |cx| cx.nprocs());
            a.or(b).unwrap()
        });
        assert_eq!(rep.results[0], 5);
        assert_eq!(rep.results[7], 3);
    }

    #[test]
    fn same_section_from_different_blocks_shares_identity() {
        // Two textually distinct ON blocks naming the same range must
        // agree on the group (so tags keep matching across them).
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let g1 = cx.processors_section(1..3);
            let g2 = cx.processors_section(1..3);
            (g1.gid() == g2.gid(), g1.members() == g2.members())
        });
        assert!(rep.results.iter().all(|&(a, b)| a && b));
    }

    #[test]
    fn nested_on_blocks_are_relative_to_the_inner_arrangement() {
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            cx.on_processors(2..8, |cx| {
                // Inside: arrangement of 6 (phys 2..8); take its last 3.
                cx.on_processors(3..6, |cx| {
                    assert_eq!(cx.nprocs(), 3);
                    cx.phys_rank()
                })
            })
        });
        // Members of the inner section are phys 5, 6, 7.
        let inner: Vec<usize> = rep
            .results
            .iter()
            .flatten()
            .flatten()
            .copied()
            .collect();
        assert_eq!(inner, vec![5, 6, 7]);
    }

    #[test]
    fn fx_and_hpf_styles_interoperate() {
        // An Fx task partition and an HPF ON block describing the same
        // processors compute the same result.
        use crate::partition::Size;
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
            let fx_style = cx.task_region(&part, |cx, tr| {
                tr.on(cx, "a", |cx| cx.allreduce(cx.id() as u64, |a, b| a + b))
            });
            let hpf_style = cx.on_processors(0..2, |cx| cx.allreduce(cx.id() as u64, |a, b| a + b));
            (fx_style, hpf_style)
        });
        for (fx_r, hpf_r) in rep.results {
            assert_eq!(fx_r, hpf_r);
        }
    }

    #[test]
    fn two_d_sections_partition_a_grid() {
        // 6 processors viewed as 2x3; left 2x2 block and right 2x1 column
        // compute independently.
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            let left =
                cx.on_processors_2d((2, 3), 0..2, 0..2, |cx| cx.allreduce(1u32, |a, b| a + b));
            let right =
                cx.on_processors_2d((2, 3), 0..2, 2..3, |cx| cx.allreduce(10u32, |a, b| a + b));
            (left, right)
        });
        // Grid row-major: ranks 0,1,2 / 3,4,5. Left block = {0,1,3,4};
        // right column = {2,5}.
        assert_eq!(rep.results[0], (Some(4), None));
        assert_eq!(rep.results[1], (Some(4), None));
        assert_eq!(rep.results[2], (None, Some(20)));
        assert_eq!(rep.results[4], (Some(4), None));
        assert_eq!(rep.results[5], (None, Some(20)));
    }

    #[test]
    fn two_d_sections_nest() {
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            // 2x4 arrangement; take the bottom row (4 procs), view it as
            // 2x2, then take its left column.
            cx.on_processors_2d((2, 4), 1..2, 0..4, |cx| {
                cx.on_processors_2d((2, 2), 0..2, 0..1, |cx| cx.phys_rank())
            })
        });
        let inner: Vec<usize> = rep.results.iter().flatten().flatten().copied().collect();
        // Bottom row = phys 4,5,6,7 viewed as [[4,5],[6,7]]; left col = 4, 6.
        assert_eq!(inner, vec![4, 6]);
    }

    #[test]
    #[should_panic(expected = "does not match the current arrangement")]
    fn wrong_arrangement_shape_panics() {
        spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            cx.on_processors_2d((2, 2), 0..1, 0..1, |_| ());
        });
    }

    #[test]
    #[should_panic(expected = "outside the current arrangement")]
    fn out_of_range_section_panics() {
        spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            cx.on_processors(0..5, |_| ());
        });
    }

    #[test]
    fn sections_skip_instantly_in_virtual_time() {
        // The paper's efficiency claim for HPF-style ON: non-members
        // skip without synchronizing.
        let rep = spmd(&Machine::simulated(3, MachineModel::zero_comm(1e-6)), |cx| {
            cx.on_processors(0..1, |cx| cx.charge_seconds(9.0));
            cx.now()
        });
        assert!(rep.results[0] >= 9.0);
        assert_eq!(rep.results[1], 0.0);
        assert_eq!(rep.results[2], 0.0);
    }
}
