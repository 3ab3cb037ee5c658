//! `TASK_PARTITION` — templates for dividing the current processors into
//! named subgroups (paper §2.1, declaration directives).
//!
//! A partition is created *relative to the current group*: sizes may be
//! given exactly (`Size::Procs(5)`) or as the remainder
//! (`Size::Rest` — the paper's `NUMBER_OF_PROCESSORS() - 5` idiom).
//! Subgroups receive contiguous runs of the parent's virtual processors,
//! the assignment the Fx implementation favours to minimize communication
//! and synchronization overlap between subgroups.

use std::cell::Cell;
use std::sync::Arc;

use crate::cx::Cx;
use crate::group::GroupHandle;
use crate::hash::mix2;

/// Size specification of one subgroup in a [`TaskPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Exactly this many processors.
    Procs(usize),
    /// All processors not claimed by `Procs` entries. At most one subgroup
    /// may use `Rest`, and it must come out non-empty.
    Rest,
}

/// One named subgroup of a partition.
#[derive(Debug)]
pub struct Subgroup {
    name: String,
    handle: GroupHandle,
}

impl Subgroup {
    /// Declared name of the subgroup.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The subgroup's processor group.
    pub fn handle(&self) -> &GroupHandle {
        &self.handle
    }

    /// Number of processors assigned.
    pub fn len(&self) -> usize {
        self.handle.len()
    }

    /// Always false: subgroups have at least one processor.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A template for partitioning the current processor group into named
/// subgroups (the `TASK_PARTITION` directive). Activated by
/// [`Cx::task_region`].
#[derive(Debug)]
pub struct TaskPartition {
    parent: GroupHandle,
    subgroups: Vec<Subgroup>,
    /// Index of the subgroup this processor belongs to.
    my_subgroup: usize,
    /// Per-subgroup collective sequence counters; persist across region
    /// activations so message tags are never reused.
    sub_seqs: Vec<Cell<u64>>,
}

impl TaskPartition {
    /// Subgroups in declaration order.
    pub fn subgroups(&self) -> &[Subgroup] {
        &self.subgroups
    }

    /// Index of a subgroup by name; panics on an unknown name (a static
    /// error in the Fortran original).
    pub fn index_of(&self, name: &str) -> usize {
        self.subgroups
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("no subgroup named {name:?} in this TASK_PARTITION"))
    }

    /// Group handle of a named subgroup — what `SUBGROUP(name) :: vars`
    /// attaches variables to.
    pub fn group(&self, name: &str) -> GroupHandle {
        self.subgroups[self.index_of(name)].handle.clone()
    }

    /// Index of the subgroup containing this processor.
    pub fn my_subgroup(&self) -> usize {
        self.my_subgroup
    }

    /// Name of the subgroup containing this processor.
    pub fn my_subgroup_name(&self) -> &str {
        &self.subgroups[self.my_subgroup].name
    }

    /// The group this partition divides.
    pub fn parent(&self) -> &GroupHandle {
        &self.parent
    }

    pub(crate) fn seq_cell(&self, idx: usize) -> &Cell<u64> {
        &self.sub_seqs[idx]
    }
}

impl Cx<'_> {
    /// Declare a `TASK_PARTITION` of the current group.
    ///
    /// Panics unless the sizes cover the group exactly: the fixed sizes
    /// must not exceed the group, at most one `Size::Rest` soaks up the
    /// remainder, every subgroup ends up with ≥ 1 processor, and the total
    /// equals the group size.
    ///
    /// ```
    /// use fx_core::{spmd, Machine, MachineModel, Size};
    ///
    /// spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
    ///     // TASK_PARTITION :: some(5), many(NUMBER_OF_PROCESSORS()-5)
    ///     let part = cx.task_partition(&[("some", Size::Procs(5)), ("many", Size::Rest)]);
    ///     assert_eq!(part.group("some").len(), 5);
    ///     assert_eq!(part.group("many").len(), 3);
    /// });
    /// ```
    pub fn task_partition(&mut self, spec: &[(&str, Size)]) -> TaskPartition {
        let parent = self.group();
        let p = parent.len();
        assert!(!spec.is_empty(), "TASK_PARTITION needs at least one subgroup");

        let fixed: usize = spec
            .iter()
            .map(|(_, s)| match s {
                Size::Procs(n) => *n,
                Size::Rest => 0,
            })
            .sum();
        let rests = spec.iter().filter(|(_, s)| *s == Size::Rest).count();
        assert!(rests <= 1, "at most one subgroup may take Size::Rest");
        assert!(
            fixed + rests <= p,
            "TASK_PARTITION wants at least {} processors but the current group has {p}",
            fixed + rests
        );
        assert!(
            rests == 1 || fixed == p,
            "TASK_PARTITION sizes sum to {fixed} but the current group has {p} \
             (add a Size::Rest subgroup or adjust the sizes)"
        );

        let part_id = self.next_op_tag();
        let mut my_subgroup = None;
        let mut subgroups = Vec::with_capacity(spec.len());
        let mut offset = 0;
        for (i, (name, size)) in spec.iter().enumerate() {
            let n = match size {
                Size::Procs(n) => {
                    assert!(*n >= 1, "subgroup {name:?} must have at least one processor");
                    *n
                }
                Size::Rest => p - fixed,
            };
            let members: Vec<usize> =
                parent.members()[offset..offset + n].to_vec();
            let handle = GroupHandle::new(mix2(part_id, i as u64), Arc::new(members));
            if handle.contains_phys(self.phys_rank()) {
                my_subgroup = Some(i);
            }
            assert!(
                subgroups.iter().all(|s: &Subgroup| s.name != *name),
                "duplicate subgroup name {name:?}"
            );
            subgroups.push(Subgroup { name: (*name).to_string(), handle });
            offset += n;
        }
        let my_subgroup = my_subgroup.expect("partition covers the group, so every member belongs somewhere");
        let sub_seqs = (0..subgroups.len()).map(|_| Cell::new(0)).collect();
        TaskPartition { parent, subgroups, my_subgroup, sub_seqs }
    }
}

/// Divide `procs` processors among parts with the given non-negative
/// `weights`, giving every part at least one processor and distributing the
/// remainder by largest fractional share (the paper's
/// `compute_subgroup_sizes` for quicksort and Barnes-Hut).
///
/// Panics if `procs < weights.len()` — a caller should switch to the
/// sequential base case before that (as Figure 4's `qsort` does when
/// `NUMBER_OF_PROCESSORS() == 1`).
pub fn proportional_split(procs: usize, weights: &[f64]) -> Vec<usize> {
    let k = weights.len();
    assert!(k >= 1, "need at least one part");
    assert!(procs >= k, "cannot give {k} parts at least one of {procs} processors");
    assert!(weights.iter().all(|w| *w >= 0.0), "weights must be non-negative");
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        // Degenerate: split as evenly as possible.
        let base = procs / k;
        let extra = procs % k;
        return (0..k).map(|i| base + usize::from(i < extra)).collect();
    }
    let spare = procs - k; // after the mandatory 1 each
    let ideal: Vec<f64> = weights.iter().map(|w| w / total * spare as f64).collect();
    let mut sizes: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = sizes.iter().sum();
    // Largest remainders get the leftover processors.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        (ideal[b] - ideal[b].floor())
            .total_cmp(&(ideal[a] - ideal[a].floor()))
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(spare - assigned) {
        sizes[i] += 1;
    }
    for s in &mut sizes {
        *s += 1;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), procs);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cx::spmd;
    use fx_runtime::{Machine, MachineModel};

    #[test]
    fn partition_covers_group_contiguously() {
        let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[
                ("a", Size::Procs(3)),
                ("b", Size::Rest),
                ("c", Size::Procs(2)),
            ]);
            let a = part.group("a");
            let b = part.group("b");
            let c = part.group("c");
            assert_eq!(a.members(), &[0, 1, 2]);
            assert_eq!(b.members(), &[3, 4, 5]);
            assert_eq!(c.members(), &[6, 7]);
            part.my_subgroup_name().to_string()
        });
        let names: Vec<&str> = rep.results.iter().map(String::as_str).collect();
        assert_eq!(names, ["a", "a", "a", "b", "b", "b", "c", "c"]);
    }

    #[test]
    fn partition_ids_agree_across_members() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("x", Size::Procs(2)), ("y", Size::Rest)]);
            (part.group("x").gid(), part.group("y").gid())
        });
        assert!(rep.results.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(rep.results[0].0, rep.results[0].1);
    }

    #[test]
    fn two_partitions_have_distinct_subgroup_ids() {
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let p1 = cx.task_partition(&[("x", Size::Rest)]);
            let p2 = cx.task_partition(&[("x", Size::Rest)]);
            (p1.group("x").gid(), p2.group("x").gid())
        });
        assert_ne!(rep.results[0].0, rep.results[0].1);
    }

    #[test]
    #[should_panic(expected = "sizes sum to")]
    fn underspecified_partition_panics() {
        spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            cx.task_partition(&[("a", Size::Procs(2))]);
        });
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn oversized_partition_panics() {
        spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            cx.task_partition(&[("a", Size::Procs(3)), ("b", Size::Rest)]);
        });
    }

    #[test]
    #[should_panic(expected = "duplicate subgroup name")]
    fn duplicate_names_panic() {
        spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            cx.task_partition(&[("a", Size::Procs(1)), ("a", Size::Procs(1))]);
        });
    }

    #[test]
    #[should_panic(expected = "no subgroup named")]
    fn unknown_name_panics() {
        spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let p = cx.task_partition(&[("a", Size::Rest)]);
            p.group("zzz");
        });
    }

    #[test]
    fn subgroup_accessors() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[("a", Size::Procs(1)), ("b", Size::Rest)]);
            let sg = &part.subgroups()[1];
            (
                sg.name().to_string(),
                sg.len(),
                sg.is_empty(),
                sg.handle().gid() == part.group("b").gid(),
                part.parent().len(),
                part.index_of("b"),
            )
        });
        assert_eq!(rep.results[0], ("b".into(), 3, false, true, 4, 1));
    }

    #[test]
    fn proportional_split_basic() {
        assert_eq!(proportional_split(10, &[1.0, 1.0]), vec![5, 5]);
        assert_eq!(proportional_split(10, &[3.0, 1.0]), vec![7, 3]);
        assert_eq!(proportional_split(2, &[0.0, 100.0]), vec![1, 1]);
        assert_eq!(proportional_split(3, &[0.0, 0.0]), vec![2, 1]);
    }

    #[test]
    fn proportional_split_always_sums_and_is_positive() {
        for procs in 2..40 {
            for w in [[1.0, 9.0], [5.0, 5.0], [0.1, 0.9]] {
                let s = proportional_split(procs, &w);
                assert_eq!(s.iter().sum::<usize>(), procs);
                assert!(s.iter().all(|&x| x >= 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot give")]
    fn proportional_split_too_few_procs() {
        proportional_split(1, &[1.0, 1.0]);
    }
}
