//! Dependence-driven synchronization of inter-stage edges.
//!
//! Every statement that moves data between distributed arrays is a
//! potential synchronization point between the producing and consuming
//! processor subsets. The conservative execution (`FX_DATAFLOW=off`)
//! inserts a subset barrier over `src.group ∪ dst.group` at each one —
//! the stage-synchronous schedule a compiler emits when it cannot analyze
//! dependences. The dataflow execution (`FX_DATAFLOW=on`, the default)
//! classifies each edge against the arrays' read/write version vectors
//! ([`crate::VersionVec`]):
//!
//! * **interval-covered** — every interval of the statement's footprint
//!   was last written by an interval plan, whose per-peer `(source, tag)`
//!   receives already order the consumer behind the producer. The barrier
//!   is elided; the receives are the synchronization.
//! * **barrier-required** — the footprint overlaps an *opaque* write (a
//!   structured `remap*`, which is planned but not yet vouched for). The
//!   subset barrier is kept, and the taint it orders is cleared.
//!
//! The classification is computed redundantly on every processor from its
//! own descriptor replicas, with no extra communication. That is sound
//! under the same SPMD invariant the tag counters rely on: every
//! processor holding a replica executes every statement that transitions
//! its version vector, so replicas agree and all members of an edge's
//! union reach the same keep/elide decision. (Halo exchanges, which run
//! inside a subgroup that outsiders skip, therefore never *clear* taint —
//! they only test it.)

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
/// membership early-return; `tainted` must be the same value on every
/// member of `src.group ∪ dst.group` (it is, when computed from replica
/// version vectors under the SPMD invariant). Non-members of the union
/// return immediately and count nothing.
pub(crate) fn sync_edge(
    cx: &mut Cx,
    op_tag: u64,
    src: &GroupHandle,
    dst: &GroupHandle,
    tainted: bool,
) {
    let me = cx.phys_rank();
    if !src.contains_phys(me) && !dst.contains_phys(me) {
        return;
    }
    match cx.dataflow() {
        DataflowMode::On if !tainted => {
            cx.runtime().note_barrier_elided();
            return;
        }
        DataflowMode::On | DataflowMode::Off => cx.runtime().note_barrier_kept(),
        DataflowMode::Validate => {
            unreachable!("Validate resolves to Off and On passes before processors run")
        }
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
