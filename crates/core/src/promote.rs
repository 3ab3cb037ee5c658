//! Heartbeat-style adaptive work promotion for promotable loops.
//!
//! The static `TASK_PARTITION` model fixes subgroup sizes before a region
//! runs, so an irregular loop (Barnes-Hut forces over clustered bodies, a
//! quicksort base case over skewed buckets) strands the subgroup behind
//! its most loaded member. Promotable loops close that gap in the style
//! of the heartbeat compilers: every iteration runs sequentially on its
//! statically assigned owner, but once per heartbeat — every
//! [`Machine::heartbeat_period`] of *charged virtual compute*, 1 ms by
//! default — the owner consults the loop's board and, when peers are
//! parked and the remaining tail clears a LogGP profitability bound,
//! donates block-split slices of the tail to them.
//!
//! # Programming model
//!
//! [`Cx::pdo_promote`] is `pdo` plus three closures that make an
//! iteration *mobile*:
//!
//! * `pack(cx, i)` — the iteration's inputs as a flat `Vec<In>`, read on
//!   the *donor*. Empty when bodies read replicated state only.
//! * `body(cx, i, ins)` — the work; runs on the owner or on a victim.
//!   It must be compute-only: `charge_*` calls, no group communication,
//!   no nested promotable loops, and its return value must be a pure
//!   function of `(i, ins)` plus replicated state (never of the clock).
//! * `apply(cx, i, outs)` — installs the outputs, always on the owner.
//!   Called in arbitrary order across iterations, so it must write
//!   per-iteration state, not accumulate (use
//!   [`Cx::pdo_reduce_promote`] for reductions).
//!
//! Inputs and outputs ride the runtime's chunk transport (the same
//! zero-copy path as distributed-array plan replay) with per-iteration
//! `u32` counts on the ordinary typed path.
//!
//! Like a collective, a promotable loop must be entered by every member
//! of the current group with no interposed cross-member blocking.
//!
//! # One board per loop instance
//!
//! Each promotable loop instance has its own `Board`: one slot per member
//! of the loop's group, by virtual rank. It is published and taken through
//! the run's replica table under the loop's (group id, first op tag) key,
//! as a [`Cx::replicated`] value is, and dropped when its last member
//! leaves the loop; nothing is reused across loops, so two promotable
//! loops back to back never read each other's slots. A slot holds the
//! member's published virtual clock, when it parked, the grant it holds,
//! its announcement history and the heartbeat time of the last grant it
//! took. A slot whose member has not entered the loop reads as progress
//! −∞ and not parked: unresolved, not a victim and not done, so a member
//! that is ahead waits for it. The heartbeat-off path takes no board.
//!
//! # Determinism
//!
//! With the heartbeat off (`FX_HEARTBEAT=off`, or a one-member group)
//! the construct is a plain sequential loop over the caller's block
//! share — no protocol, no messages, bit-identical to a run that
//! predates the feature. With it on, results are *asserted*
//! equal (see [`assert_promotion_transparent`]) and only virtual
//! completion times change.
//!
//! The board is host-shared mutable state, so every *decision* read from
//! it has to be a pure function of virtual-time values. A *resolution
//! frontier* guarantees this: a donor that heartbeats at virtual time `T`
//! first publishes its announcement, then waits (host-spinning, without
//! advancing its virtual clock) until every peer is **resolved at `T`**:
//!
//! * a working peer is resolved once its published progress clock has
//!   reached `T` — it cannot later announce at a time `<= T` (the
//!   announcement is written before the progress that covers it);
//! * a parked peer with no outstanding grant is resolved (it is eligible
//!   iff it parked at `idle_since < T`, a virtual-time predicate);
//! * a parked peer holding an unserved grant from an earlier heartbeat
//!   is *unresolved*: the donor waits until the victim finishes serving
//!   and re-parks at its post-serve time;
//! * a peer that has not entered the loop is unresolved.
//!
//! Once the frontier passes `T`, the claimant set (every peer whose
//! announcement history contains exactly `T`) and the victim set (every
//! peer parked strictly before `T` holding no grant, plus peers granted
//! *at* `T` by a tied co-claimant — whether still parked, serving, or
//! already re-parked) are deterministic virtual-time sets, and the
//! round-robin assignment between them is a pure function every tied
//! claimant computes identically. Host timing decides only how long the
//! spin takes, never what it observes. Two details make the tie case
//! airtight:
//!
//! * announcements are an append-only history, so a claimant that
//!   heartbeats again at `T' > T` cannot erase the record a tied
//!   co-claimant at `T` needs to compute the same claimant set;
//! * victim eligibility uses the *strict* bound `idle_since < T`: a peer
//!   parking at exactly `T` may be observed either working (progress
//!   `>= T`) or parked depending on host timing, and the strict bound
//!   makes both observations agree (not eligible).
//!
//! Completion needs no message either. Every member parks when its share
//! and its donations' results are done, and serves grants until every
//! slot reads "parked, no grant". That predicate is stable once true —
//! granting requires a working donor, and a donor parks only after
//! collecting every result it is owed — so the first true observation is
//! final, and a member that has left the loop leaves its slot parked.
//! Exiting by board read leaves each member's virtual clock at its own
//! last event: a promotable loop that never donates costs zero virtual
//! time and zero messages over the sequential loop.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use fx_runtime::{Machine, Payload, RunReport};

use crate::coll::format_phys_ranges;
use crate::cx::{spmd, Cx};
use crate::pdo::block_range;

/// A donation must be worth at least this many promotion round-trips per
/// participant before a heartbeat fires a grant.
const PROFIT_FACTOR: f64 = 2.0;

/// Minimum iterations each participant (donor and every victim) must end
/// up with for a donation to be considered.
const MIN_ITERS_PER_PROC: usize = 2;

/// A donated range: `lo..hi` global iterations of the loop, assigned by
/// virtual rank `donor` at virtual time `t`.
#[derive(Clone, Copy)]
struct Grant {
    donor: usize,
    lo: usize,
    hi: usize,
    t: f64,
}

/// One member's rendezvous state on a loop's board.
#[derive(Default)]
struct Slot {
    /// When the member parked idle, if it is parked.
    idle_since: Option<f64>,
    /// The grant the member holds but has not started serving.
    grant: Option<Grant>,
    /// Every virtual time at which the member announced, in order.
    announces: Vec<f64>,
    /// The heartbeat time of the last grant the member took for serving.
    served_t: Option<f64>,
}

/// One promotable loop instance's board (see the module docs). Only a
/// member itself publishes its progress; donors write grants into other
/// members' slots, and every question is answered under the one lock.
struct Board {
    /// Each member's last published virtual clock as `f64` bits, −∞ until
    /// it enters the loop. Single-writer and monotone.
    progress: Vec<AtomicU64>,
    slots: Mutex<Vec<Slot>>,
}

impl Board {
    fn new(p: usize) -> Board {
        Board {
            progress: (0..p).map(|_| AtomicU64::new(f64::NEG_INFINITY.to_bits())).collect(),
            slots: Mutex::new((0..p).map(|_| Slot::default()).collect()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Slot>> {
        // A member that panicked holding the lock is torn down with its
        // run; the others leave their spin on the poison flag.
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn progress(&self, v: usize) -> f64 {
        f64::from_bits(self.progress[v].load(Ordering::Acquire))
    }

    /// Publish member `v`'s clock; the first publication enters the loop.
    fn publish(&self, v: usize, t: f64) {
        self.progress[v].store(t.to_bits(), Ordering::Release);
    }

    /// Announce a heartbeat at `t`, *then* publish `t`: a peer that reads
    /// progress `>= t` sees the announcement (the accumulator crosses its
    /// period only on positive clock deltas, so a member whose progress
    /// passed `t` without an announcement never announces at `t`).
    fn announce(&self, v: usize, t: f64) {
        self.lock()[v].announces.push(t);
        self.publish(v, t);
    }

    /// Park member `v` at `t`, then publish `t` as its final clock.
    fn park(&self, v: usize, t: f64) {
        {
            let slot = &mut self.lock()[v];
            debug_assert!(slot.grant.is_none(), "parked idle while holding a grant");
            slot.idle_since = Some(t);
        }
        self.publish(v, t);
    }

    /// Give a parked victim a grant; the round that chose it saw it parked
    /// with none.
    fn grant(&self, victim: usize, g: Grant) {
        let slot = &mut self.lock()[victim];
        assert!(slot.idle_since.is_some(), "grant written to a non-idle victim");
        assert!(slot.grant.is_none(), "grant written over an unserved grant");
        slot.grant = Some(g);
    }

    /// Take member `v`'s grant, if any. The member is working again, so
    /// donors at later times wait for its post-serve park; tied
    /// co-claimants still count it as a victim of the grant's round.
    fn take_grant(&self, v: usize) -> Option<Grant> {
        let slot = &mut self.lock()[v];
        let g = slot.grant.take()?;
        slot.idle_since = None;
        slot.served_t = Some(g.t);
        Some(g)
    }

    /// The first peer of `me` not resolved at `t`, if any.
    fn unresolved(&self, me: usize, t: f64) -> Option<usize> {
        let slots = self.lock();
        let resolved = |v: usize, s: &Slot| {
            self.progress(v) >= t || (s.idle_since.is_some() && s.grant.is_none_or(|g| g.t >= t))
        };
        slots.iter().enumerate().position(|(v, s)| v != me && !resolved(v, s))
    }

    /// The claimants and the victims of the heartbeat round at `t`, both
    /// ascending.
    fn round(&self, t: f64) -> (Vec<usize>, Vec<usize>) {
        let (mut claimants, mut victims) = (Vec::new(), Vec::new());
        for (v, s) in self.lock().iter().enumerate() {
            if s.announces.contains(&t) {
                claimants.push(v);
            }
            if s.served_t == Some(t)
                || s.grant.is_some_and(|g| g.t == t)
                || (s.idle_since.is_some_and(|ti| ti < t) && s.grant.is_none())
            {
                victims.push(v);
            }
        }
        (claimants, victims)
    }

    /// Whether every member is parked holding no grant: the loop is done.
    fn all_parked(&self) -> bool {
        self.lock().iter().all(|s| s.idle_since.is_some() && s.grant.is_none())
    }
}

/// The victims a claimant serves when the claimants of one round split
/// its victim set round-robin: victim `j` (ascending) belongs to claimant
/// `j mod claimants.len()` (ditto). A pure function of the two sorted
/// sets, so every tied claimant computes the same assignment without
/// communicating. `me` must be one of `claimants`.
fn promotion_assignment(claimants: &[usize], victims: &[usize], me: usize) -> Vec<usize> {
    let mine = claimants.iter().position(|&c| c == me).expect("claimant not in its own claimant set");
    victims.iter().enumerate().filter(|(j, _)| j % claimants.len() == mine).map(|(_, &v)| v).collect()
}

/// Split a donor's remaining iterations `cur..end` among `nvictims`
/// victims: the donor keeps the first `ceil(rem / (nvictims + 1))` (it is
/// warm on them) and the tail is block-split among the victims in order.
/// Returns the donor's new `end` and one range per victim, each non-empty
/// when `rem >= 2 * (nvictims + 1)`, which the profitability gate ensures.
fn donation_split(cur: usize, end: usize, nvictims: usize) -> (usize, Vec<Range<usize>>) {
    let keep = (end - cur).div_ceil(nvictims + 1);
    let tail = cur + keep..end;
    (cur + keep, (0..nvictims).map(|j| block_range(tail.clone(), nvictims, j)).collect())
}

impl Cx<'_> {
    /// The one ragged exchange of a promotion: per-iteration `u32` counts
    /// on the typed path, then the flattened values as one chunk — no
    /// chunk at all when there are no values.
    fn send_ragged<T: Copy + Send + 'static>(&mut self, to: usize, tag: u64, rows: &[Vec<T>]) {
        self.send_v(to, tag, rows.iter().map(|r| r.len() as u32).collect::<Vec<u32>>());
        let total: usize = rows.iter().map(Vec::len).sum();
        if total > 0 {
            let mut ch = self.chunk_for::<T>(total);
            rows.iter().for_each(|r| ch.push_slice(r));
            self.send_chunk_v(to, tag, ch);
        }
    }

    /// Receive the `iters` rows [`Cx::send_ragged`] sent.
    fn recv_ragged<T: Copy + Send + 'static>(
        &mut self,
        from: usize,
        tag: u64,
        iters: usize,
    ) -> Vec<Vec<T>> {
        let counts: Vec<u32> = self.recv_v(from, tag);
        debug_assert_eq!(counts.len(), iters);
        let mut flat = Vec::new();
        if counts.iter().any(|&c| c > 0) {
            let ch = self.recv_chunk_v(from, tag);
            flat = ch.to_vec::<T>();
            self.release_chunk(ch);
        }
        let mut rest = &flat[..];
        let row = |&c: &u32| {
            let (row, tail) = rest.split_at(c as usize);
            rest = tail;
            row.to_vec()
        };
        counts.iter().map(row).collect()
    }

    /// Host-spin, never advancing virtual time, until `poll` answers. A
    /// poisoned run panics, and so does a wait that outlives the recv
    /// timeout, with `wedged()` saying what it waited for.
    fn spin<T>(&mut self, label: &str, mut poll: impl FnMut() -> Option<T>, wedged: impl Fn() -> String) -> T {
        let deadline = self.runtime().watchdog_deadline();
        loop {
            if let Some(answer) = poll() {
                return answer;
            }
            if self.runtime().is_poisoned() {
                panic!("promotable loop '{label}': another processor panicked");
            }
            if self.runtime().watchdog_expired(deadline) {
                panic!("promotable loop '{label}': {}", wedged());
            }
            self.runtime().yield_now();
        }
    }

    /// A *promotable* parallel loop over `range`, block-distributed like
    /// `pdo(.., IterSched::Block, ..)`: sequential by default, donating
    /// its tail to idle subgroup peers on a virtual-time heartbeat. See
    /// the [module docs](self) for the three-closure contract.
    pub fn pdo_promote<In, Out, P, B, A>(
        &mut self,
        label: &str,
        range: Range<usize>,
        pack: P,
        body: B,
        mut apply: A,
    ) where
        In: Copy + Send + 'static,
        Out: Copy + Send + 'static,
        P: Fn(&mut Cx, usize) -> Vec<In>,
        B: Fn(&mut Cx, usize, &[In]) -> Vec<Out>,
        A: FnMut(&mut Cx, usize, Vec<Out>),
    {
        let p = self.nprocs();
        let me = self.id();
        // Two channels per loop instance, allocated SPMD; the first also
        // keys the loop's board.
        let tag_grant = self.next_op_tag();
        let tag_result = self.next_op_tag();

        // Scope the whole construct with the subgroup's physical ranks so
        // `critical_path().by_stage()` splits idle per subgroup.
        let scope = format!("{label}[{}]", format_phys_ranges(self.group().members()));
        self.runtime().push_scope(&scope);

        let share = block_range(range, p, me);

        if !(self.runtime().heartbeat_active() && p > 1) {
            // Off / singleton: the plain sequential loop. The per-iteration
            // charge structure is identical to the local path below, so
            // arming the heartbeat never re-times local iterations.
            for i in share {
                let ins = pack(self, i);
                let outs = body(self, i, &ins);
                apply(self, i, outs);
            }
            self.runtime().pop_scope();
            return;
        }

        let model = *self.runtime().model();
        // One promotion round-trip per victim: counts + data out, counts
        // + data back — four message setups and two network crossings of
        // pure overhead (payload gap is charged when it is actually sent).
        let promote_cost = 2.0 * (model.o_send + model.o_recv) + 2.0 * model.latency;

        let board = self.shared(tag_grant, || Arc::new(Board::new(p)));
        let t0 = self.now();
        board.publish(me, t0);
        self.runtime().heartbeat_reset();

        let mut cur = share.start;
        let mut end = share.end;
        let mut done = 0usize;
        let mut grants_made: Vec<(usize, Grant)> = Vec::new();

        while cur < end {
            let i = cur;
            let ins = pack(self, i);
            let outs = body(self, i, &ins);
            apply(self, i, outs);
            cur += 1;
            done += 1;

            let t = self.now();
            if self.runtime().heartbeat_elapsed() >= self.runtime().heartbeat_period() && cur < end
            {
                // Heartbeat: announce, wait for the frontier, then read
                // the round's claimant and victim sets.
                board.announce(me, t);
                self.runtime().note_promotion_attempted();
                self.runtime().heartbeat_reset();
                self.spin(
                    label,
                    || board.unresolved(me, t).is_none().then_some(()),
                    || {
                        let stuck = board.unresolved(me, t);
                        format!("heartbeat at t={t} stuck waiting for virtual processor {stuck:?} to resolve")
                    },
                );
                let (claimants, victims) = board.round(t);
                let mine = promotion_assignment(&claimants, &victims, me);

                // Profitability: shed victims until the per-participant
                // share of the estimated remaining compute clears the
                // promotion cost. All inputs are virtual-time values.
                let rem = end - cur;
                let avg = (t - t0) / done as f64;
                let mut k = mine.len();
                while k > 0 {
                    let per_share = avg * rem as f64 / (k + 1) as f64;
                    if rem >= MIN_ITERS_PER_PROC * (k + 1)
                        && per_share >= PROFIT_FACTOR * promote_cost
                    {
                        break;
                    }
                    k -= 1;
                }
                if k == 0 {
                    self.runtime().note_promotion_declined();
                    continue;
                }

                let (new_end, shares) = donation_split(cur, end, k);
                // Write every grant before shipping any inputs: a tied
                // co-claimant's round may read these slots, and victims
                // block on the input recv anyway.
                for (&vr, share) in mine.iter().zip(&shares) {
                    let g = Grant { donor: me, lo: share.start, hi: share.end, t };
                    board.grant(vr, g);
                    grants_made.push((vr, g));
                }
                end = new_end;
                self.runtime().note_promotions_taken(k as u64);
                for (&vr, share) in mine.iter().zip(shares) {
                    let ins: Vec<Vec<In>> = share.map(|i| pack(self, i)).collect();
                    self.send_ragged(vr, tag_grant, &ins);
                }
            } else {
                board.publish(me, t);
            }
        }

        // Epilogue: install donated results, grants in the order made.
        for &(vr, g) in &grants_made {
            let outs: Vec<Vec<Out>> = self.recv_ragged(vr, tag_result, g.hi - g.lo);
            for (i, row) in (g.lo..g.hi).zip(outs) {
                apply(self, i, row);
            }
        }

        // Completion (module docs): park, serve grants until every member
        // is parked holding none.
        board.park(me, self.now());
        while let Some(g) = self.spin(
            label,
            || match board.take_grant(me) {
                Some(g) => Some(Some(g)),
                None => board.all_parked().then_some(None),
            },
            || format!("processor {me} wedged in the victim loop (no grant, no completion)"),
        ) {
            let ins: Vec<Vec<In>> = self.recv_ragged(g.donor, tag_grant, g.hi - g.lo);
            let serve_scope = format!("promote[{}-{}<p{}]", g.lo, g.hi, self.group().phys(g.donor));
            self.runtime().push_scope(&serve_scope);
            let mut outs = Vec::with_capacity(ins.len());
            for (i, row) in (g.lo..g.hi).zip(&ins) {
                outs.push(body(self, i, row));
                board.publish(me, self.now());
            }
            self.runtime().pop_scope();
            self.send_ragged(g.donor, tag_result, &outs);
            board.park(me, self.now());
        }
        self.runtime().pop_scope();
    }

    /// Promotable do&merge: `body(cx, i)` produces iteration `i`'s value;
    /// the per-iteration values of this member's whole block share are
    /// folded with `combine` in ascending iteration order starting from
    /// `init`, then merged across the group with one subset reduction.
    ///
    /// Because the fold is over *per-iteration* values in a fixed order —
    /// donated iterations return their value to the owner before folding
    /// — the result is bit-identical with the heartbeat on or off, FP
    /// included, provided `body`'s value is a pure function of `i` plus
    /// replicated state.
    pub fn pdo_reduce_promote<A, B, F>(
        &mut self,
        label: &str,
        range: Range<usize>,
        init: A,
        body: B,
        combine: F,
    ) -> A
    where
        A: Payload + Copy + Sync,
        B: Fn(&mut Cx, usize) -> A,
        F: Fn(A, A) -> A,
    {
        let share = block_range(range.clone(), self.nprocs(), self.id());
        let lo = share.start;
        let parts: std::cell::RefCell<Vec<Option<A>>> =
            std::cell::RefCell::new(vec![None; share.len()]);
        self.pdo_promote(
            label,
            range,
            |_cx, _i| Vec::<()>::new(),
            |cx, i, _ins| vec![body(cx, i)],
            |_cx, i, outs: Vec<A>| parts.borrow_mut()[i - lo] = Some(outs[0]),
        );
        let mut acc = init;
        for v in parts.into_inner() {
            acc = combine(acc, v.expect("uncovered iteration in promotable reduce"));
        }
        self.scoped("merge", |cx| cx.allreduce(acc, combine))
    }
}

/// Dual-run transparency check: execute `f` on `machine` with the
/// heartbeat forced off, then forced on, assert every processor's result
/// is identical, and return the heartbeat-on report (whose completion
/// times reflect any promotions). This is the promotion analogue of
/// `FX_DATAFLOW=validate`, packaged as a helper because `spmd` itself
/// cannot grow a `PartialEq` bound.
pub fn assert_promotion_transparent<R, F>(machine: &Machine, f: F) -> RunReport<R>
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    let off = spmd(&machine.clone().with_heartbeat(false), &f);
    let on = spmd(&machine.clone().with_heartbeat(true), &f);
    for (rank, (a, b)) in off.results.iter().zip(on.results.iter()).enumerate() {
        assert_eq!(
            a, b,
            "heartbeat promotion changed processor {rank}'s result \
             (expected bit-identical results with FX_HEARTBEAT on and off)"
        );
    }
    on
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_runtime::MachineModel;

    #[test]
    fn a_slot_nobody_entered_is_unresolved_not_a_victim_and_not_parked() {
        let b = Board::new(2);
        b.publish(0, 1.0);
        assert_eq!(b.unresolved(0, 0.5), Some(1));
        assert_eq!(b.round(0.5), (vec![], vec![]));
        b.park(0, 2.0);
        assert!(!b.all_parked());
        b.publish(1, 0.0);
        b.park(1, 0.25);
        assert_eq!(b.unresolved(0, 3.0), None);
        assert_eq!(b.round(3.0), (vec![], vec![0, 1]));
        assert!(b.all_parked());
    }

    #[test]
    fn take_grant_clears_idle_registration() {
        let b = Board::new(1);
        b.publish(0, 0.0);
        b.park(0, 1.0);
        assert_eq!(b.progress(0), 1.0);
        b.grant(0, Grant { donor: 0, lo: 3, hi: 9, t: 1.5 });
        assert!(!b.all_parked(), "a parked member holding a grant is not done");
        let g = b.take_grant(0).unwrap();
        assert_eq!((g.lo, g.hi, g.donor), (3, 9, 0));
        assert!(b.take_grant(0).is_none());
        // Serving, it is not idle, but a tied co-claimant at 1.5 still
        // counts it as a victim of that round.
        assert_eq!(b.round(1.5).1, vec![0]);
        assert_eq!(b.round(2.0).1, Vec::<usize>::new());
    }

    #[test]
    fn announce_is_visible_once_progress_reaches_it() {
        let b = Board::new(2);
        b.publish(1, 0.0);
        b.announce(1, 4.25);
        assert!(b.progress(1) >= 4.25);
        assert_eq!(b.round(4.25).0, vec![1]);
        b.announce(1, 9.5);
        // History is append-only: a later heartbeat never erases the
        // evidence a tied co-claimant needs.
        assert_eq!((b.round(4.25).0, b.round(9.5).0), (vec![1], vec![1]));
    }

    #[test]
    fn promotion_assignment_partitions_victims() {
        let claimants = [1, 4, 6];
        let victims = [0, 2, 3, 5, 7];
        let all: Vec<Vec<usize>> =
            claimants.iter().map(|&c| promotion_assignment(&claimants, &victims, c)).collect();
        // Every victim goes to exactly one claimant, round-robin.
        assert_eq!(all[0], vec![0, 5]);
        assert_eq!(all[1], vec![2, 7]);
        assert_eq!(all[2], vec![3]);
        let mut merged: Vec<usize> = all.into_iter().flatten().collect();
        merged.sort_unstable();
        assert_eq!(merged, victims);
    }

    #[test]
    fn donation_split_keeps_warm_prefix_and_covers_tail() {
        let (new_end, shares) = donation_split(10, 30, 3);
        assert_eq!(new_end, 15); // donor keeps ceil(20/4) = 5
        assert_eq!(shares.iter().map(|r| r.len()).sum::<usize>(), 15);
        // Contiguous ascending coverage of the donated tail.
        let mut next = 15;
        for s in &shares {
            assert_eq!(s.start, next);
            assert!(!s.is_empty());
            next = s.end;
        }
        assert_eq!(next, 30);
    }

    fn skewed_machine(p: usize) -> Machine {
        Machine::simulated(p, MachineModel::paragon()).with_heartbeat(true)
    }

    /// A deliberately skewed compute kernel: iteration cost grows with
    /// the iteration index, so the block owner of the tail is the
    /// straggler and early finishers park as victims.
    fn skewed_flops(i: usize) -> f64 {
        100.0 + (i as f64) * 40.0
    }

    #[test]
    fn promoted_loop_matches_sequential_results() {
        let n = 400usize;
        let rep = assert_promotion_transparent(&skewed_machine(4), move |cx| {
            let mut out = vec![0u64; n];
            cx.pdo_promote(
                "sq",
                0..n,
                |_cx, i| vec![i as u64],
                |cx, i, ins| {
                    cx.charge_flops(skewed_flops(i));
                    vec![ins[0] * ins[0]]
                },
                |_cx, i, outs: Vec<u64>| out[i] = outs[0],
            );
            // Share the computed slices so every rank returns its view.
            out
        });
        // Every owner's slice is correct (non-owned entries stay zero).
        for (rank, res) in rep.results.iter().enumerate() {
            let share = block_range(0..n, 4, rank);
            for i in share {
                assert_eq!(res[i], (i as u64) * (i as u64), "rank {rank} iter {i}");
            }
        }
        assert!(rep.promote_total().attempted > 0, "skewed loop never heartbeat");
    }

    #[test]
    fn promotion_donates_and_improves_makespan_on_skew() {
        let n = 600usize;
        let run = |hb: bool| {
            spmd(&skewed_machine(8).with_heartbeat(hb), move |cx| {
                let mut acc = 0u64;
                cx.pdo_promote(
                    "skew",
                    0..n,
                    |_cx, i| vec![i as u32],
                    |cx, i, ins| {
                        cx.charge_flops(skewed_flops(i) * 20.0);
                        vec![u64::from(ins[0]) + i as u64]
                    },
                    |_cx, _i, outs: Vec<u64>| acc += outs[0],
                );
                acc
            })
        };
        let off = run(false);
        let on = run(true);
        // `acc` sums per-index values, so order does not matter: results
        // must agree even though `on` computes some iterations remotely.
        assert_eq!(off.results, on.results);
        let (t_off, t_on) = (off.makespan(), on.makespan());
        assert!(on.promote_total().taken > 0, "no grant fired on a skewed loop");
        assert!(
            t_on < t_off,
            "promotion did not improve the makespan: on={t_on} off={t_off}"
        );
    }

    #[test]
    fn reduce_promote_is_bit_identical_and_exact() {
        let n = 500usize;
        let rep = assert_promotion_transparent(&skewed_machine(6), move |cx| {
            cx.pdo_reduce_promote(
                "dot",
                0..n,
                0.0f64,
                |cx, i| {
                    cx.charge_flops(skewed_flops(i));
                    (i as f64).sqrt() * 1.5
                },
                |a, b| a + b,
            )
        });
        // The transparency helper already asserted off == on bitwise;
        // sanity-check the value against a plain sum with a loose epsilon
        // (the exact association is the collective's business).
        let seq: f64 = (0..n).map(|i| (i as f64).sqrt() * 1.5).sum();
        for r in rep.results {
            assert!((r - seq).abs() < 1e-9 * seq.abs().max(1.0));
        }
    }

    #[test]
    fn heartbeat_off_runs_no_protocol() {
        let rep = spmd(&skewed_machine(4).with_heartbeat(false), |cx| {
            let mut hits = 0u32;
            cx.pdo_promote(
                "quiet",
                0..64,
                |_cx, _i| Vec::<u32>::new(),
                |cx, _i, _ins| {
                    cx.charge_flops(1e5);
                    Vec::<u32>::new()
                },
                |_cx, _i, _outs| hits += 1,
            );
            hits
        });
        let total = rep.promote_total();
        assert_eq!((total.attempted, total.taken, total.declined), (0, 0, 0));
        let msgs: u64 = rep.traffic.iter().map(|t| t.0).sum();
        assert_eq!(msgs, 0, "off-mode promotable loop sent messages");
        for (r, hits) in rep.results.iter().enumerate() {
            assert_eq!(*hits as usize, block_range(0..64, 4, r).len());
        }
    }

    /// The board-based completion protocol is message-free: a promotable
    /// loop whose heartbeats all decline (balanced work, nobody idle in
    /// time) costs zero messages and zero virtual time over the
    /// heartbeat-off run.
    #[test]
    fn declined_heartbeats_cost_nothing() {
        let run = |hb: bool| {
            spmd(&skewed_machine(4).with_heartbeat(hb), |cx| {
                cx.pdo_reduce_promote(
                    "flat",
                    0..64,
                    0u64,
                    |cx, i| {
                        // Uniform cost: every member crosses the
                        // heartbeat period but nobody parks early.
                        cx.charge_flops(1e4);
                        i as u64
                    },
                    |a, b| a + b,
                )
            })
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.results, on.results);
        assert!(on.promote_total().attempted > 0, "loop never heartbeat");
        assert_eq!(on.promote_total().taken, 0, "balanced loop still donated");
        for (a, b) in off.times.iter().zip(on.times.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "no-donation run re-timed a processor");
        }
        assert_eq!(off.traffic, on.traffic, "no-donation run changed message traffic");
    }

    /// `FX_DATAFLOW=validate` runs the program twice on one replica
    /// table: each pass's members take every board they publish, so the
    /// second pass starts on fresh boards. A board left over from the
    /// first (every slot parked) would let the second pass's victims leave
    /// while their donor waits for results.
    #[test]
    fn validate_passes_promote_on_fresh_boards() {
        let machine = skewed_machine(4).with_dataflow(fx_runtime::DataflowMode::Validate);
        let rep = assert_promotion_transparent(&machine, |cx| {
            cx.pdo_reduce_promote("v", 0..200, 0u64, |cx, i| {
                cx.charge_flops(skewed_flops(i) * 20.0);
                i as u64
            }, |a, b| a + b)
        });
        assert!(rep.promote_total().taken > 0, "the second pass never donated");
        assert!(rep.results.iter().all(|&r| r == 199 * 200 / 2));
    }

    #[test]
    fn empty_and_tiny_ranges_complete() {
        for n in [0usize, 1, 3] {
            let rep = assert_promotion_transparent(&skewed_machine(4), move |cx| {
                let mut seen: Vec<usize> = Vec::new();
                cx.pdo_promote(
                    "tiny",
                    0..n,
                    |_cx, _i| Vec::<u8>::new(),
                    |cx, i, _ins| {
                        cx.charge_flops(10.0);
                        vec![i as u32]
                    },
                    |_cx, _i, outs: Vec<u32>| seen.push(outs[0] as usize),
                );
                seen
            });
            let covered: usize = rep.results.iter().map(|v| v.len()).sum();
            assert_eq!(covered, n, "n={n}");
        }
    }
}
