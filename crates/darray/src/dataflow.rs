//! Dependence-driven synchronization of inter-stage edges.
//!
//! Every statement that moves data between distributed arrays is a
//! potential synchronization point between the producing and consuming
//! processor subsets. Each one moves its data through a cached plan
//! whose per-peer `(source, tag)` receives already order the consumer
//! behind the producer: a statement's receives are its synchronization.
//! The dataflow execution (`FX_DATAFLOW=on`, the default) therefore
//! elides every edge's barrier and only counts it. The conservative
//! execution (`FX_DATAFLOW=off`) inserts a subset barrier over
//! `src.group ∪ dst.group` at each statement — the stage-synchronous
//! schedule a compiler emits when it cannot analyze dependences.

use fx_core::{format_phys_ranges, Cx, DataflowMode, GroupHandle};

/// Sorted, deduplicated union of two groups' physical members.
fn union_members(a: &GroupHandle, b: &GroupHandle) -> Vec<usize> {
    let mut m: Vec<usize> = a.members().iter().chain(b.members()).copied().collect();
    m.sort_unstable();
    m.dedup();
    m
}

/// Sorted copy of a group's members for label formatting.
fn sorted_members(g: &GroupHandle) -> Vec<usize> {
    let mut m = g.members().to_vec();
    m.sort_unstable();
    m
}

/// Synchronize one producer→consumer edge according to the dataflow mode.
///
/// Called by every processor executing the statement, *before* any
/// membership early-return. `On`: count an elided edge; `Off`: a subset
/// barrier with its edge label. Non-members of the union return
/// immediately and count nothing.
pub(crate) fn sync_edge(cx: &mut Cx, op_tag: u64, src: &GroupHandle, dst: &GroupHandle) {
    let me = cx.phys_rank();
    if !src.contains_phys(me) && !dst.contains_phys(me) {
        return;
    }
    match cx.dataflow() {
        DataflowMode::On => {
            cx.runtime().note_barrier_elided();
            return;
        }
        DataflowMode::Off => cx.runtime().note_barrier_kept(),
    }
    let members = union_members(src, dst);
    // Build the edge-labelled scope name only when an observer is
    // attached; the virtual-time path never allocates.
    let label;
    let label_ref: &str = if cx.runtime().scopes_active() {
        label = if src.gid() == dst.gid() {
            format!("barrier[{}]", format_phys_ranges(&members))
        } else {
            format!(
                "barrier[{}>{}]",
                format_phys_ranges(&sorted_members(src)),
                format_phys_ranges(&sorted_members(dst))
            )
        };
        &label
    } else {
        "barrier"
    };
    cx.barrier_among(&members, op_tag, label_ref);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_is_sorted_and_deduped() {
        let a = GroupHandle::synthetic(1, vec![4, 0, 2]);
        let b = GroupHandle::synthetic(2, vec![2, 5]);
        assert_eq!(union_members(&a, &b), vec![0, 2, 4, 5]);
    }
}
