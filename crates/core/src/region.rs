//! `TASK_REGION` and `ON SUBGROUP` — the execution directives (paper §2.1)
//! and the execution model they induce (paper §2.2).
//!
//! Inside a task region, code is in one of two scopes:
//!
//! * **subgroup scope** — an `ON SUBGROUP` block, here
//!   [`TaskRegion::on`]: executed only by members of the named subgroup
//!   with the subgroup pushed as the current group. *Everyone else returns
//!   immediately* ("processors not belonging to the named subgroup can
//!   skip past the region") — that skip is what creates task parallelism.
//! * **parent scope** — ordinary statements in the region body: executed by
//!   all current processors in data-parallel mode. Parent-scope operations
//!   that can determine a smaller participating set (e.g. distributed
//!   array assignment) let the remaining processors skip; see
//!   `fx-darray::assign`.
//!
//! Task regions nest *dynamically*: a procedure called inside an `ON
//! SUBGROUP` block may declare its own partition of the subgroup and open
//! another region (quicksort, Barnes-Hut).
//!
//! The partition is *static* for the region's lifetime — the sizes
//! chosen by [`Cx::task_partition`] never adapt to how the work actually
//! skews at run time. Promotable loops ([`Cx::pdo_promote`]) are the
//! dynamic escape hatch: inside an `ON SUBGROUP` block they keep the
//! static assignment as the default but let an overloaded member donate
//! its loop tail to subgroup peers that finished early, without changing
//! the partition or the region structure.

use crate::cx::Cx;
use crate::partition::TaskPartition;

/// An active task region (between `BEGIN TASK_REGION` and
/// `END TASK_REGION`).
pub struct TaskRegion<'p> {
    part: &'p TaskPartition,
}

impl<'p> TaskRegion<'p> {
    /// `ON SUBGROUP name … END ON`: run `f` on the named subgroup.
    ///
    /// Members execute `f` with the subgroup as the current group and get
    /// `Some(result)`; non-members skip instantly and get `None`.
    pub fn on<R>(&self, cx: &mut Cx, name: &str, f: impl FnOnce(&mut Cx) -> R) -> Option<R> {
        let idx = self.part.index_of(name);
        if self.part.my_subgroup() != idx {
            cx.runtime().note_region_skip();
            return None; // skip past the ON block — the heart of the model
        }
        let handle = self.part.subgroups()[idx].handle().clone();
        let cell = self.part.seq_cell(idx);
        // Tag spans recorded inside the block with the subgroup name so the
        // profiler attributes time to stages. No-op unless profiling.
        cx.runtime().push_scope(name);
        let (out, seq) = cx.enter_with_seq(&handle, cell.get(), f);
        cx.runtime().pop_scope();
        cell.set(seq);
        Some(out)
    }

    /// The partition this region activates.
    pub fn partition(&self) -> &TaskPartition {
        self.part
    }

    /// Name of the subgroup this processor belongs to — handy for
    /// data-driven dispatch instead of a chain of `on` calls.
    pub fn my_subgroup_name(&self) -> &str {
        self.part.my_subgroup_name()
    }
}

impl Cx<'_> {
    /// `BEGIN TASK_REGION part … END TASK_REGION`: activate `part` and run
    /// `body`. The body receives the region handle for `ON SUBGROUP`
    /// blocks; statements written directly in the body are parent scope.
    ///
    /// Panics if `part` was not declared on the current group (lexical
    /// nesting of regions is not permitted in the paper's model; dynamic
    /// nesting goes through a procedure executing on a subgroup, i.e.
    /// declare the inner partition inside `on`).
    pub fn task_region<R>(
        &mut self,
        part: &TaskPartition,
        body: impl FnOnce(&mut Cx, &TaskRegion) -> R,
    ) -> R {
        assert_eq!(
            part.parent().gid(),
            self.group().gid(),
            "task region activated on a different group than its partition was declared on \
             (lexically nested task regions are not permitted)"
        );
        let region = TaskRegion { part };
        body(self, &region)
    }
}

#[cfg(test)]
mod tests {
    use crate::cx::spmd;
    use crate::partition::Size;
    use fx_runtime::{Machine, MachineModel};

    #[test]
    fn on_blocks_execute_only_on_members() {
        let rep = spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
            let part =
                cx.task_partition(&[("left", Size::Procs(2)), ("right", Size::Rest)]);
            cx.task_region(&part, |cx, tr| {
                let mut tag = 0u8;
                let l = tr.on(cx, "left", |cx| {
                    assert_eq!(cx.nprocs(), 2);
                    10 + cx.id() as u8
                });
                let r = tr.on(cx, "right", |cx| {
                    assert_eq!(cx.nprocs(), 4);
                    20 + cx.id() as u8
                });
                if let Some(v) = l {
                    tag = v;
                }
                if let Some(v) = r {
                    tag = v;
                }
                assert!(l.is_none() || r.is_none());
                tag
            })
        });
        assert_eq!(rep.results, vec![10, 11, 20, 21, 22, 23]);
    }

    #[test]
    fn parent_scope_runs_on_everyone() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
            cx.task_region(&part, |cx, _tr| {
                // Parent scope: a collective over ALL current processors.
                cx.allreduce(1u32, |x, y| x + y)
            })
        });
        assert!(rep.results.iter().all(|&v| v == 4));
    }

    #[test]
    fn repeated_on_blocks_keep_fresh_tags() {
        // A pipeline-shaped loop: the same subgroup communicates in every
        // iteration; sequence counters must not reset between ON blocks.
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("g", Size::Procs(2)), ("h", Size::Rest)]);
            cx.task_region(&part, |cx, tr| {
                let mut acc = 0u64;
                for i in 0..10 {
                    if let Some(v) = tr.on(cx, "g", |cx| cx.allreduce(i, |a, b| a + b)) {
                        acc += v;
                    }
                    if let Some(v) = tr.on(cx, "h", |cx| cx.allreduce(i * 100, |a, b| a + b)) {
                        acc += v;
                    }
                }
                acc
            })
        });
        // g members: sum over i of 2i = 90. h members: sum of 200i = 9000.
        assert_eq!(rep.results, vec![90, 90, 9000, 9000]);
    }

    #[test]
    fn subgroups_proceed_independently_in_virtual_time() {
        // The "skip past" rule: subgroup "fast" must not wait for "slow".
        let m = MachineModel::zero_comm(1e-6);
        let rep = spmd(&Machine::simulated(2, m), |cx| {
            let part = cx.task_partition(&[("slow", Size::Procs(1)), ("fast", Size::Rest)]);
            cx.task_region(&part, |cx, tr| {
                tr.on(cx, "slow", |cx| cx.charge_flops(1_000_000.0));
                tr.on(cx, "fast", |cx| cx.charge_flops(1_000.0));
                cx.now()
            })
        });
        assert!((rep.results[0] - 1.0).abs() < 1e-9, "slow at {}", rep.results[0]);
        assert!((rep.results[1] - 0.001).abs() < 1e-9, "fast at {}", rep.results[1]);
    }

    #[test]
    fn dynamically_nested_regions() {
        // A subgroup re-partitions itself: quicksort-style nesting.
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            let outer = cx.task_partition(&[("top", Size::Procs(4)), ("bottom", Size::Rest)]);
            cx.task_region(&outer, |cx, tr| {
                let from_top = tr.on(cx, "top", |cx| {
                    let inner =
                        cx.task_partition(&[("t0", Size::Procs(2)), ("t1", Size::Rest)]);
                    cx.task_region(&inner, |cx, tr2| {
                        let a = tr2.on(cx, "t0", |cx| {
                            assert_eq!(cx.nesting_depth(), 3);
                            cx.allreduce(1u32, |a, b| a + b)
                        });
                        let b = tr2.on(cx, "t1", |cx| cx.allreduce(10u32, |a, b| a + b));
                        a.or(b).unwrap()
                    })
                });
                let from_bottom = tr.on(cx, "bottom", |cx| cx.allreduce(100u32, |a, b| a + b));
                from_top.or(from_bottom).unwrap()
            })
        });
        assert_eq!(rep.results, vec![2, 2, 20, 20, 400, 400, 400, 400]);
    }

    #[test]
    #[should_panic(expected = "different group")]
    fn activating_partition_on_wrong_group_panics() {
        spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let outer = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
            let inner_part = cx.task_partition(&[("x", Size::Rest)]);
            cx.task_region(&outer, |cx, tr| {
                tr.on(cx, "a", |cx| {
                    // Declared on the world group, activated on subgroup "a".
                    cx.task_region(&inner_part, |_, _| ());
                });
            });
        });
    }
}
