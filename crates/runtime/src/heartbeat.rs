//! Heartbeat-style adaptive work promotion: shared state and counters.
//!
//! The static `TASK_PARTITION` model plans subgroup sizes up front, so
//! irregular loop nests (Barnes-Hut force phases over clustered bodies,
//! quicksort base cases over skewed buckets) leave processors idle behind
//! one overloaded peer. Promotable loops (`fx-core`'s `pdo_promote`)
//! close that gap in the style of the heartbeat compilers: bodies run
//! sequential-by-default, and every `FX_HEARTBEAT_US` of *charged virtual
//! compute* the running processor consults a replicated idle-set for its
//! current subgroup and, when peers are parked and the remaining range
//! clears a LogGP profitability bound, splits its tail onto them.
//!
//! This module owns the machine-wide pieces: the [`HeartbeatMode`]
//! configuration and the [`HeartbeatBoard`] — one slot per physical
//! processor through which donors and idle victims rendezvous. (The
//! promotion counters are three entries of [`crate::counters`].)
//!
//! # Why a shared board does not break determinism
//!
//! Virtual time in this simulator is a pure function of the program and
//! the machine model; host scheduling must never leak into it. The board
//! is host-shared mutable state, so every *decision* read from it has to
//! be a pure function of virtual-time values. The promotion protocol in
//! `fx-core` guarantees this with a *resolution frontier*: a donor that
//! heartbeats at virtual time `T` first publishes its announcement, then
//! waits (host-spinning, without advancing its virtual clock) until every
//! subgroup peer is **resolved at `T`**:
//!
//! * a working peer is resolved once its published progress clock has
//!   reached `T` — it cannot later announce at a time `<= T`;
//! * a parked peer with no outstanding grant is resolved (it is eligible
//!   iff it parked at `idle_since < T`, a virtual-time predicate);
//! * a parked peer holding an unserved grant from an earlier heartbeat
//!   is *unresolved*: the donor waits until the victim finishes serving
//!   and re-registers with its post-serve park time.
//!
//! Once the frontier passes `T`, the claimant set (every peer whose
//! announcement history contains exactly `T`) and the victim set (every
//! peer parked strictly before `T` holding no earlier grant, plus peers
//! granted *at* `T` by a tied co-claimant — whether still parked,
//! serving, or already re-parked, tracked via [`PeerView::served_t`])
//! are deterministic virtual-time sets, and the round-robin assignment
//! between them is a pure function both of them compute identically.
//! Host timing decides only how long the spin takes, never what it
//! observes. Two details make the tie case airtight:
//!
//! * announcements are an append-only per-epoch history, so a claimant
//!   that heartbeats again at `T' > T` cannot erase the record a tied
//!   co-claimant at `T` needs to compute the same claimant set;
//! * victim eligibility uses the *strict* bound `idle_since < T`: a peer
//!   parking at exactly `T` may be observed either pre-park (working,
//!   progress `>= T`) or post-park depending on host timing, and the
//!   strict bound makes both observations agree (not eligible).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Whether promotable loops may donate work on a heartbeat.
///
/// `Off` never runs the promotion protocol: a promotable loop executes
/// its static share sequentially, bit-identical to a machine that
/// predates the feature. `On` (the simulated-mode default) arms the
/// heartbeat; results are asserted identical to `Off`, only virtual
/// completion times may improve. Heartbeats are meaningful only under
/// simulated time (idle detection and profitability are virtual-clock
/// predicates); real-time machines always behave as `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatMode {
    /// Promotable loops run their static shares sequentially.
    Off,
    /// Donate loop tails to idle subgroup peers on a virtual-time
    /// heartbeat (the default for simulated machines).
    On,
}

impl std::fmt::Display for HeartbeatMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeartbeatMode::Off => write!(f, "off"),
            HeartbeatMode::On => write!(f, "on"),
        }
    }
}

/// A donated range: `lo..hi` global iterations of the announcing loop,
/// assigned by `donor` (a physical rank) at virtual time `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Physical rank of the donating processor.
    pub donor: usize,
    /// First donated iteration (global loop index).
    pub lo: usize,
    /// One past the last donated iteration.
    pub hi: usize,
    /// Virtual time of the heartbeat that assigned this grant.
    pub t: f64,
}

/// Everything a donor's scan can observe about one peer, read atomically
/// under the peer's slot lock.
#[derive(Debug, Clone)]
pub struct PeerView {
    /// Which promotable-loop instance the peer has most recently entered.
    pub epoch: u64,
    /// The peer's last published virtual clock (monotone within an epoch).
    pub progress: f64,
    /// When the peer parked idle, if it is parked.
    pub idle_since: Option<f64>,
    /// The grant the peer holds but has not started serving, if any.
    pub grant: Option<Grant>,
    /// Every virtual time at which the peer has announced in this epoch,
    /// in order. Append-only so claimants tied at the same virtual time
    /// always see each other, however the host interleaves their scans.
    pub announces: Vec<f64>,
    /// The heartbeat time of the last grant the peer *took* for serving.
    /// Lets a claimant at `T` recognise a victim its tied co-claimant
    /// granted at `T` even after the victim started (or finished)
    /// serving — all tied claimants must compute the same victim set.
    pub served_t: Option<f64>,
}

impl PeerView {
    /// Whether this peer announced at exactly `t` in the current epoch.
    pub fn announced_at(&self, t: f64) -> bool {
        self.announces.contains(&t)
    }
}

/// One processor's slot: a lock-free progress clock (stored as `f64`
/// bits — all clocks are non-negative, so bit order equals numeric
/// order) plus locked rendezvous state. Only the owning processor writes
/// `progress` (single-writer, like the telemetry shards); donors write
/// `grant` into *other* processors' slots under the lock.
#[repr(align(64))]
struct Slot {
    progress: AtomicU64,
    state: Mutex<SlotState>,
}

#[derive(Default)]
struct SlotState {
    epoch: u64,
    idle_since: Option<f64>,
    grant: Option<Grant>,
    announces: Vec<f64>,
    served_t: Option<f64>,
}

/// The replicated idle-set: one [`Slot`] per physical processor, shared
/// by every promotable loop of a run. Epochs (the loop's base op tag,
/// identical on every member by the SPMD tag invariant) distinguish loop
/// instances so a scan never acts on state left over from an earlier
/// loop or a different subgroup.
pub struct HeartbeatBoard {
    slots: Vec<Slot>,
}

impl HeartbeatBoard {
    pub(crate) fn new(nprocs: usize) -> Self {
        HeartbeatBoard {
            slots: (0..nprocs)
                .map(|_| Slot {
                    progress: AtomicU64::new(0),
                    state: Mutex::new(SlotState::default()),
                })
                .collect(),
        }
    }

    /// Enter a promotable loop: reset rank's slot for `epoch` and publish
    /// clock `t` as its initial progress.
    pub fn enter_epoch(&self, rank: usize, epoch: u64, t: f64) {
        let slot = &self.slots[rank];
        {
            let mut st = slot.state.lock().unwrap();
            st.epoch = epoch;
            st.idle_since = None;
            st.grant = None;
            st.announces.clear();
            st.served_t = None;
        }
        slot.progress.store(t.to_bits(), Ordering::Release);
    }

    /// Publish the owning processor's clock. Single-writer: only `rank`
    /// itself stores to its progress word, and its clock is monotone, so
    /// a plain release store preserves monotonicity.
    #[inline]
    pub fn store_progress(&self, rank: usize, t: f64) {
        self.slots[rank].progress.store(t.to_bits(), Ordering::Release);
    }

    /// A peer's last published clock.
    #[inline]
    pub fn progress_of(&self, rank: usize) -> f64 {
        f64::from_bits(self.slots[rank].progress.load(Ordering::Acquire))
    }

    /// Publish an announcement at virtual time `t`, *then* publish `t` as
    /// progress. The order matters: a peer that observes `progress >= t`
    /// and then locks this slot is guaranteed to see the announcement
    /// (the heartbeat accumulator only crosses its threshold on positive
    /// clock deltas, so a processor whose published progress passed `t`
    /// without an announcement at `t` will never announce at `t` later).
    pub fn announce(&self, rank: usize, epoch: u64, t: f64) {
        let slot = &self.slots[rank];
        {
            let mut st = slot.state.lock().unwrap();
            debug_assert_eq!(st.epoch, epoch, "announce outside the slot's epoch");
            st.announces.push(t);
        }
        slot.progress.store(t.to_bits(), Ordering::Release);
    }

    /// Park the owning processor as idle at clock `t` (also publishes `t`
    /// as progress so donors' frontier waits see the final clock).
    pub fn register_idle(&self, rank: usize, epoch: u64, t: f64) {
        let slot = &self.slots[rank];
        {
            let mut st = slot.state.lock().unwrap();
            debug_assert_eq!(st.epoch, epoch, "register_idle outside the slot's epoch");
            debug_assert!(st.grant.is_none(), "parked idle while holding a grant");
            st.idle_since = Some(t);
        }
        slot.progress.store(t.to_bits(), Ordering::Release);
    }

    /// Atomically read one peer's slot (progress first, then the locked
    /// state — the release store in [`HeartbeatBoard::announce`] makes
    /// the progress value a lower bound on what the locked read sees).
    pub fn read_peer(&self, rank: usize) -> PeerView {
        let slot = &self.slots[rank];
        let progress = f64::from_bits(slot.progress.load(Ordering::Acquire));
        let st = slot.state.lock().unwrap();
        PeerView {
            epoch: st.epoch,
            progress,
            idle_since: st.idle_since,
            grant: st.grant,
            announces: st.announces.clone(),
            served_t: st.served_t,
        }
    }

    /// Assign a grant to a parked victim. The victim must be parked in
    /// the same epoch with no outstanding grant — both guaranteed by the
    /// resolution-frontier scan that chose it.
    pub fn set_grant(&self, victim: usize, epoch: u64, grant: Grant) {
        let mut st = self.slots[victim].state.lock().unwrap();
        assert_eq!(st.epoch, epoch, "grant written outside the victim's epoch");
        assert!(st.idle_since.is_some(), "grant written to a non-idle victim");
        assert!(st.grant.is_none(), "grant written over an unserved grant");
        st.grant = Some(grant);
    }

    /// Take the grant assigned to `rank`, if any, atomically clearing
    /// both the grant and the idle registration (the victim is now
    /// working; donors at later virtual times must wait for its
    /// post-serve park). Records the grant's heartbeat time as
    /// [`PeerView::served_t`] so tied co-claimants still count this
    /// victim in the round's victim set.
    pub fn take_grant(&self, rank: usize) -> Option<Grant> {
        let mut st = self.slots[rank].state.lock().unwrap();
        let g = st.grant.take();
        if let Some(g) = g {
            st.idle_since = None;
            st.served_t = Some(g.t);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_reset_clears_rendezvous_state() {
        let b = HeartbeatBoard::new(2);
        b.enter_epoch(0, 7, 1.0);
        b.register_idle(0, 7, 2.0);
        b.set_grant(0, 7, Grant { donor: 1, lo: 0, hi: 4, t: 2.5 });
        b.enter_epoch(0, 8, 3.0);
        let v = b.read_peer(0);
        assert_eq!(v.epoch, 8);
        assert!(v.idle_since.is_none() && v.grant.is_none());
        assert!(v.announces.is_empty() && v.served_t.is_none());
        assert_eq!(v.progress, 3.0);
    }

    #[test]
    fn take_grant_clears_idle_registration() {
        let b = HeartbeatBoard::new(1);
        b.enter_epoch(0, 1, 0.0);
        b.register_idle(0, 1, 1.0);
        assert_eq!(b.progress_of(0), 1.0);
        b.set_grant(0, 1, Grant { donor: 0, lo: 3, hi: 9, t: 1.5 });
        let g = b.take_grant(0).unwrap();
        assert_eq!((g.lo, g.hi, g.donor), (3, 9, 0));
        let v = b.read_peer(0);
        assert!(v.idle_since.is_none() && v.grant.is_none());
        assert_eq!(v.served_t, Some(1.5));
        assert!(b.take_grant(0).is_none());
    }

    #[test]
    fn announce_is_visible_once_progress_reaches_it() {
        let b = HeartbeatBoard::new(2);
        b.enter_epoch(1, 3, 0.0);
        b.announce(1, 3, 4.25);
        assert!(b.progress_of(1) >= 4.25);
        let v = b.read_peer(1);
        assert!(v.announced_at(4.25));
        b.announce(1, 3, 9.5);
        // History is append-only: a later heartbeat never erases the
        // evidence a tied co-claimant needs.
        let v = b.read_peer(1);
        assert!(v.announced_at(4.25) && v.announced_at(9.5));
    }
}
