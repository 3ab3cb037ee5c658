//! Conformance suite for the paper's §2 semantics: each test encodes one
//! numbered rule of the task-parallelism model, quoting the paper's
//! wording. These are the "spec tests" a downstream implementation of
//! the directives should pass.

use fx::prelude::*;

/// §2: "Task parallelism is obtained by dividing the current processors
/// into processor subgroups and performing independent data parallel
/// computations on disjoint processor subgroups."
#[test]
fn rule_subgroups_are_disjoint_and_cover() {
    spmd(&Machine::simulated(9, MachineModel::paragon()), |cx| {
        let part = cx.task_partition(&[
            ("a", Size::Procs(2)),
            ("b", Size::Procs(3)),
            ("c", Size::Rest),
        ]);
        let mut seen = std::collections::HashSet::new();
        for sg in part.subgroups() {
            for &m in sg.handle().members() {
                assert!(seen.insert(m), "processor {m} in two subgroups");
            }
        }
        assert_eq!(seen.len(), 9, "subgroups must cover the current group");
    });
}

/// §2.1: "The expressions in a task partition directive can use formal
/// procedure parameters, and hence the partitioning can be different on
/// different invocations of a procedure."
#[test]
fn rule_partition_sizes_may_be_runtime_values() {
    fn subroutine(cx: &mut Cx, n_some: usize) -> (usize, usize) {
        let part = cx.task_partition(&[("some", Size::Procs(n_some)), ("many", Size::Rest)]);
        (part.group("some").len(), part.group("many").len())
    }
    spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
        assert_eq!(subroutine(cx, 2), (2, 6));
        assert_eq!(subroutine(cx, 5), (5, 3));
    });
}

/// §2.1: "A subprogram unit can have multiple task partition directives
/// to declare multiple templates for partitioning the current processor
/// group."
#[test]
fn rule_multiple_partitions_coexist() {
    spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
        let by_two = cx.task_partition(&[("l", Size::Procs(3)), ("r", Size::Rest)]);
        let by_three = cx.task_partition(&[
            ("x", Size::Procs(2)),
            ("y", Size::Procs(2)),
            ("z", Size::Rest),
        ]);
        // Both templates usable, one after the other.
        let a = cx.task_region(&by_two, |cx, tr| {
            tr.on(cx, "l", |cx| cx.allreduce(1u32, |p, q| p + q))
                .or(tr.on(cx, "r", |cx| cx.allreduce(1u32, |p, q| p + q)))
                .unwrap()
        });
        let b = cx.task_region(&by_three, |cx, tr| {
            ["x", "y", "z"]
                .iter()
                .find_map(|n| tr.on(cx, n, |cx| cx.allreduce(1u32, |p, q| p + q)))
                .unwrap()
        });
        assert_eq!(a, 3);
        assert_eq!(b, 2);
    });
}

/// §2.1: "Each variable can be mapped to at most one processor subgroup.
/// Variables that are not explicitly mapped to a processor subgroup will
/// be mapped to all processors in the current processor group."
#[test]
fn rule_unmapped_data_lives_on_the_whole_group() {
    spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
        let whole = cx.group();
        let unmapped = DArray1::new(cx, &whole, 8, Dist1::Block, 0u8);
        assert!(unmapped.is_member(), "every current processor holds a piece");
        assert_eq!(unmapped.group().len(), 4);
    });
}

/// §2.1: "distribution directives are with respect to their corresponding
/// processor subgroup" — a BLOCK distribution of an array mapped to a
/// 2-processor subgroup splits it two ways, regardless of machine size.
#[test]
fn rule_distribution_is_relative_to_the_subgroup() {
    spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
        let part = cx.task_partition(&[("some", Size::Procs(2)), ("many", Size::Rest)]);
        let g = part.group("some");
        let a = DArray1::new(cx, &g, 10, Dist1::Block, 0u8);
        if a.is_member() {
            assert_eq!(a.local().len(), 5, "BLOCK over the 2-member subgroup");
        } else {
            assert!(a.local().is_empty());
        }
    });
}

/// §2.2: "Processors not belonging to the named subgroup of an ON
/// SUBGROUP region can skip past the region."
#[test]
fn rule_non_members_skip_on_blocks() {
    let rep = spmd(&Machine::simulated(3, MachineModel::zero_comm(1e-6)), |cx| {
        let part = cx.task_partition(&[("busy", Size::Procs(1)), ("idle", Size::Rest)]);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "busy", |cx| cx.charge_seconds(7.0));
        });
        cx.now()
    });
    assert!(rep.results[0] >= 7.0);
    assert_eq!(rep.results[1], 0.0, "skipping costs nothing");
    assert_eq!(rep.results[2], 0.0);
}

/// §2.2: "The code in the parent scope is executed by all current
/// processors, which includes the processors in all the subgroups of the
/// task region, in normal data parallel mode."
#[test]
fn rule_parent_scope_runs_on_all_current_processors() {
    let rep = spmd(&Machine::simulated(5, MachineModel::paragon()), |cx| {
        let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
        cx.task_region(&part, |cx, _tr| {
            // A parent-scope collective must see all 5 processors.
            cx.allreduce(1u32, |x, y| x + y)
        })
    });
    assert!(rep.results.iter().all(|&v| v == 5));
}

/// §2.2: "the statement many_low = some_low itself will not be executed
/// until some processors also reach there, as is required for any legal
/// execution that respects dependence" — a cross-subgroup assignment
/// synchronizes producer and consumer.
#[test]
fn rule_cross_subgroup_assignment_respects_dependence() {
    let rep = spmd(&Machine::simulated(2, MachineModel::zero_comm(1e-6)), |cx| {
        let part = cx.task_partition(&[("some", Size::Procs(1)), ("many", Size::Rest)]);
        let gs = part.group("some");
        let gm = part.group("many");
        let mut some_low = DArray1::new(cx, &gs, 4, Dist1::Block, 0.0f64);
        let mut many_low = DArray1::new(cx, &gm, 4, Dist1::Block, 0.0f64);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "some", |cx| {
                cx.charge_seconds(3.0); // the producer is slow
                some_low.for_each_owned(|i, v| *v = i as f64);
            });
            assign1(cx, &mut many_low, &some_low);
        });
        (cx.now(), many_low.fold_owned(0.0, |s, _, v| s + v))
    });
    // The consumer got the produced values and could not finish before
    // the producer reached the assignment.
    assert_eq!(rep.results[1].1, 0.0 + 1.0 + 2.0 + 3.0);
    assert!(rep.results[1].0 >= 3.0, "consumer finished at {}", rep.results[1].0);
}

/// §2.2: "Computations only involving replicated scalar variables are
/// automatically replicated on all executing processors, and are
/// therefore performed asynchronously on all processors without
/// synchronization or communication."
#[test]
fn rule_replicated_scalars_cost_no_communication() {
    let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
        // A loop of scalar computation: induction variable, bounds,
        // arithmetic — all replicated.
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(i * 3);
        }
        let _ = acc;
        cx.now()
    });
    for (p, &t) in rep.results.iter().enumerate() {
        assert_eq!(t, 0.0, "scalar code must not touch the virtual clock");
        assert_eq!(rep.counters[p].sends, 0, "scalar code must not communicate");
    }
}

/// §2.1: "a procedure called from an ON SUBGROUP region can partition its
/// processors with another task region directive. Thus, dynamic nested
/// partitioning of processors is allowed."
#[test]
fn rule_dynamic_nesting_through_procedures() {
    fn procedure(cx: &mut Cx) -> usize {
        // Declares its own partition of whatever group it executes on.
        if cx.nprocs() == 1 {
            return cx.nesting_depth();
        }
        let part = cx.task_partition(&[("h1", Size::Procs(cx.nprocs() / 2)), ("h2", Size::Rest)]);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "h1", procedure).or(tr.on(cx, "h2", procedure)).unwrap()
        })
    }
    let rep = spmd(&Machine::simulated(8, MachineModel::paragon()), procedure);
    // 8 → 4 → 2 → 1: three nested subgroup levels above the world group.
    assert!(rep.results.iter().all(|&d| d == 4), "{:?}", rep.results);
}

/// §2 (NUMBER_OF_PROCESSORS): the intrinsic reports the *current* group's
/// size at every nesting level.
#[test]
fn rule_number_of_processors_tracks_the_current_group() {
    spmd(&Machine::simulated(6, MachineModel::paragon()), |cx| {
        assert_eq!(cx.nprocs(), 6);
        let part = cx.task_partition(&[("a", Size::Procs(4)), ("b", Size::Rest)]);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "a", |cx| {
                assert_eq!(cx.nprocs(), 4);
                let inner = cx.task_partition(&[("x", Size::Procs(1)), ("y", Size::Rest)]);
                cx.task_region(&inner, |cx, tr2| {
                    tr2.on(cx, "y", |cx| assert_eq!(cx.nprocs(), 3));
                });
            });
            tr.on(cx, "b", |cx| assert_eq!(cx.nprocs(), 2));
        });
        assert_eq!(cx.nprocs(), 6, "region exit restores the group");
    });
}

/// §4 (SPMD or MIMD code generation): "a naive SPMD implementation is
/// likely to be wasteful of memory since it must allocate all variables
/// on all processors. The Fx compiler generates SPMD code and uses
/// dynamic memory allocation to reduce the memory overhead" — here,
/// non-members of an array's subgroup hold only the descriptor, never
/// elements.
#[test]
fn rule_subgroup_variables_allocate_only_on_members() {
    spmd(&Machine::simulated(8, MachineModel::paragon()), |cx| {
        let part = cx.task_partition(&[("tiny", Size::Procs(1)), ("rest", Size::Rest)]);
        let g = part.group("tiny");
        let big = DArray1::new(cx, &g, 1_000_000, Dist1::Block, 0u64);
        let m = DArray2::new(cx, &g, [1000, 1000], (Dist::Block, Dist::Star), 0u64);
        if cx.phys_rank() == 0 {
            assert_eq!(big.local().len(), 1_000_000);
            assert_eq!(m.local().len(), 1_000_000);
        } else {
            assert_eq!(big.local().len(), 0, "non-members must not allocate");
            assert_eq!(m.local().len(), 0);
        }
    });
}

/// §4 (Implication for I/O): "one simple solution is to have a single
/// designated I/O processor that performs all I/O" — an array whose one
/// block spans it (`BLOCK_CYCLIC(n)`) lives on the group's first member,
/// and plain array assignments scatter from it and gather back to it.
#[test]
fn rule_designated_io_processor_pattern() {
    spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
        let g = cx.group();
        let mut io = DArray1::new(cx, &g, 12, Dist1::BlockCyclic(12), 0u32);
        let mut a = DArray1::new(cx, &g, 12, Dist1::Block, 0u32);
        // "Read" on the I/O processor, scatter to the compute processors.
        io.for_each_owned(|i, v| *v = (i * i) as u32);
        assign1(cx, &mut a, &io);
        a.for_each_owned(|_g, v| *v += 1);
        // Gather back for "writing".
        assign1(cx, &mut io, &a);
        if cx.id() == 0 {
            let expect: Vec<u32> = (0..12u32).map(|i| i * i + 1).collect();
            assert_eq!(io.local(), expect);
        } else {
            assert!(io.local().is_empty(), "only the I/O processor holds the array");
        }
    });
}

/// §4 (execution model): "the task parallelism directives are in the form
/// of assertions about the code and hints to the compiler, and hence do
/// not introduce any new semantics" — the task-parallel program computes
/// exactly what the directive-free (sequential-order) program computes.
#[test]
fn rule_directives_preserve_sequential_semantics() {
    // The Figure 1 program with and without the task region.
    let with_directives = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
        let part = cx.task_partition(&[("a", Size::Procs(2)), ("b", Size::Rest)]);
        let ga = part.group("a");
        let gb = part.group("b");
        let mut a = DArray1::from_global(cx, &ga, 4, Dist1::Block, &[1.0f64, 2.0, 3.0, 4.0]);
        let mut b = DArray1::new(cx, &gb, 4, Dist1::Block, 0.0f64);
        cx.task_region(&part, |cx, tr| {
            tr.on(cx, "a", |_| {
                a.for_each_owned(|_i, v| *v *= 10.0);
            });
            assign1(cx, &mut b, &a);
            tr.on(cx, "b", |_| {
                b.for_each_owned(|_i, v| *v += 1.0);
            });
        });
        cx.allreduce(b.fold_owned(0.0, |s, _, v| s + v), |x, y| x + y)
    });
    // Directive-free equivalent: plain sequential statements.
    let mut seq: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0];
    for v in &mut seq {
        *v *= 10.0;
    }
    let mut b: Vec<f64> = seq.clone();
    for v in &mut b {
        *v += 1.0;
    }
    let expect: f64 = b.iter().sum();
    assert!(with_directives.results.iter().all(|&v| (v - expect).abs() < 1e-12));
}
