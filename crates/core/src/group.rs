//! Processor groups and the virtual→physical mapping stack.
//!
//! A **processor group** is an ordered set of physical processors; the
//! position of a processor in the list is its *virtual* rank within the
//! group (paper §4, "Processor mappings"). All data-parallel computation
//! and all collectives are expressed in virtual ranks; the group translates
//! them to physical ranks at the communication boundary.
//!
//! Each processor keeps a **stack** of group frames. The bottom frame is
//! the whole machine; `ON SUBGROUP` pushes the subgroup's frame, leaving a
//! region pops it — exactly the stack of virtual-to-physical processor
//! mappings the Fx implementation maintains.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::hash::mix2;

/// An immutable, shareable description of a processor group.
///
/// `members[v]` is the physical rank of virtual processor `v`. Cloning is
/// cheap (an `Arc` bump); handles are what distributed arrays store to
/// remember where they live.
#[derive(Clone, Debug)]
pub struct GroupHandle {
    pub(crate) gid: u64,
    pub(crate) members: Arc<Vec<usize>>,
    /// Hash of the member list, computed once here.
    fingerprint: u64,
}

impl GroupHandle {
    pub(crate) fn new(gid: u64, members: Arc<Vec<usize>>) -> Self {
        assert!(!members.is_empty(), "a processor group cannot be empty");
        let fingerprint = members.iter().fold(members.len() as u64, |h, &m| mix2(h, m as u64));
        GroupHandle { gid, members, fingerprint }
    }

    /// Stable identifier of the group (derives message tags).
    pub fn gid(&self) -> u64 {
        self.gid
    }

    /// The member list as a cache key. What is planned for a group — who
    /// owns which index, who talks to whom — depends on the group only
    /// through its members, not through the `gid` a partition mints afresh
    /// on every call.
    pub fn membership(&self) -> Membership {
        Membership { fingerprint: self.fingerprint, members: Arc::clone(&self.members) }
    }

    /// Construct a handle directly, outside a running machine — for
    /// benchmarks and tests that exercise communication *planning*, which
    /// is pure metadata arithmetic. Not part of the model API.
    #[doc(hidden)]
    pub fn synthetic(gid: u64, members: Vec<usize>) -> Self {
        GroupHandle::new(gid, Arc::new(members))
    }

    /// Number of processors in the group.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: groups are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false // groups are never empty by construction
    }

    /// Physical rank of virtual processor `v`.
    pub fn phys(&self, v: usize) -> usize {
        self.members[v]
    }

    /// Physical ranks of all members, in virtual-rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Virtual rank of physical processor `p`, if it belongs to the group.
    pub fn vrank_of_phys(&self, p: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == p)
    }

    /// Does physical processor `p` belong to this group?
    pub fn contains_phys(&self, p: usize) -> bool {
        self.members.contains(&p)
    }
}

impl PartialEq for GroupHandle {
    fn eq(&self, other: &Self) -> bool {
        self.gid == other.gid
    }
}
impl Eq for GroupHandle {}

/// A group's ordered member list, as a hashable value: hashes by the
/// fingerprint its [`GroupHandle`] computed once, equal when the lists are
/// (handles cloned from one another share the list and compare by pointer).
#[derive(Clone, Debug)]
pub struct Membership {
    fingerprint: u64,
    members: Arc<Vec<usize>>,
}

impl PartialEq for Membership {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.members, &other.members)
            || (self.fingerprint == other.fingerprint && self.members == other.members)
    }
}
impl Eq for Membership {}

impl Hash for Membership {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// One entry of a processor's mapping stack: a group plus this processor's
/// virtual rank in it and the group-local operation sequence counter used
/// to derive collective tags. The counter advances identically on all
/// members because the program is SPMD.
#[derive(Debug)]
pub(crate) struct Frame {
    pub handle: GroupHandle,
    pub vrank: usize,
    pub seq: u64,
}

impl Frame {
    pub fn new(handle: GroupHandle, vrank: usize) -> Self {
        Frame { handle, vrank, seq: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(gid: u64, members: &[usize]) -> GroupHandle {
        GroupHandle::new(gid, Arc::new(members.to_vec()))
    }

    #[test]
    fn translation_both_ways() {
        let g = group(7, &[4, 9, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.phys(0), 4);
        assert_eq!(g.phys(2), 2);
        assert_eq!(g.vrank_of_phys(9), Some(1));
        assert_eq!(g.vrank_of_phys(5), None);
        assert!(g.contains_phys(2));
        assert!(!g.contains_phys(0));
    }

    #[test]
    fn equality_is_by_gid() {
        let a = group(7, &[0, 1]);
        let b = group(7, &[0, 1]);
        let c = group(8, &[0, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn membership_is_by_member_list() {
        let a = group(7, &[0, 1]);
        assert_eq!(a.membership(), a.clone().membership(), "shared list");
        assert_eq!(a.membership(), group(8, &[0, 1]).membership(), "a fresh gid, the same members");
        assert_ne!(a.membership(), group(7, &[1, 0]).membership(), "order is part of the list");
        assert_ne!(a.membership(), group(7, &[0, 1, 2]).membership());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_group_rejected() {
        group(1, &[]);
    }
}
