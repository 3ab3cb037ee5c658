//! Heartbeat-style adaptive work promotion for promotable loops.
//!
//! The static `TASK_PARTITION` model fixes subgroup sizes before a region
//! runs, so an irregular loop (Barnes-Hut forces over clustered bodies, a
//! quicksort base case over skewed buckets) strands the subgroup behind
//! its most loaded member. Promotable loops close that gap in the style
//! of the heartbeat compilers: every iteration runs sequentially on its
//! statically assigned owner, but once per heartbeat — every
//! `FX_HEARTBEAT_US` of *charged virtual compute* — the owner consults
//! the replicated idle-set ([`fx_runtime::HeartbeatBoard`]) for its
//! current subgroup and, when peers are parked and the remaining tail
//! clears a LogGP profitability bound, donates block-split slices of the
//! tail to them.
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
//! # Determinism
//!
//! With the heartbeat off (`FX_HEARTBEAT=off`, real-time machines, or
//! one-member groups) the construct is a plain sequential loop over the
//! caller's block share — no protocol, no messages, bit-identical to a
//! run that predates the feature. With it on, results are *asserted*
//! equal (see [`assert_promotion_transparent`]) and only virtual
//! completion times change. All promotion decisions are pure functions
//! of virtual-time values published through the board; host scheduling
//! decides only how long the rendezvous spins take (see the
//! `fx_runtime::heartbeat` module docs for the resolution-frontier
//! argument).
//!
//! Like a collective, a promotable loop must be entered by every member
//! of the current group with no interposed cross-member blocking.

use std::ops::Range;

use fx_runtime::{Grant, Machine, Payload, RunReport};

use crate::coll::format_phys_ranges;
use crate::cx::{spmd, Cx};
use crate::partition::{donation_split, promotion_assignment};
use crate::pdo::block_range;

/// A donation must be worth at least this many promotion round-trips per
/// participant before a heartbeat fires a grant.
const PROFIT_FACTOR: f64 = 2.0;

/// Minimum iterations each participant (donor and every victim) must end
/// up with for a donation to be considered.
const MIN_ITERS_PER_PROC: usize = 2;

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
        // Two channels per loop instance, allocated SPMD so the base tag
        // doubles as the loop's board epoch (identical on every member,
        // monotonically increasing, distinct from every other loop).
        let tag_grant = self.next_op_tag();
        let tag_result = self.next_op_tag();
        let epoch = tag_grant;

        // Scope the whole construct with the subgroup's physical ranks so
        // `critical_path().by_stage()` splits idle per subgroup.
        let scope = format!("{label}[{}]", format_phys_ranges(self.group().members()));
        self.runtime().push_scope(&scope);

        let share = block_range(range, p, me);

        if !(self.runtime().heartbeat_active() && p > 1) {
            // Off / real-time / singleton: the plain sequential loop. The
            // per-iteration charge structure is identical to the local
            // path below, so arming the heartbeat never re-times local
            // iterations.
            for i in share {
                let ins = pack(self, i);
                let outs = body(self, i, &ins);
                apply(self, i, outs);
            }
            self.runtime().pop_scope();
            return;
        }

        let model = *self.time_mode().model().expect("heartbeat_active implies simulated time");
        // One promotion round-trip per victim: counts + data out, counts
        // + data back — four message setups and two network crossings of
        // pure overhead (payload gap is charged when it is actually sent).
        let promote_cost = 2.0 * (model.o_send + model.o_recv) + 2.0 * model.latency;

        let my_phys = self.phys_rank();
        let group = self.group();
        let t0 = self.now();
        self.runtime().heartbeat_board().enter_epoch(my_phys, epoch, t0);
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
                // Heartbeat: publish the announcement (the board stores
                // progress = t after it, in that order), then rendezvous.
                self.runtime().heartbeat_board().announce(my_phys, epoch, t);
                self.runtime().note_promotion_attempted();
                self.runtime().heartbeat_reset();
                self.promote_wait_frontier(label, epoch, t);

                // Claimant and victim sets: pure virtual-time sets every
                // tied claimant computes identically (see heartbeat docs).
                let mut claimants = Vec::new();
                let mut victims = Vec::new();
                for vr in 0..p {
                    let v = self.runtime().heartbeat_board().read_peer(group.phys(vr));
                    debug_assert_eq!(v.epoch, epoch, "frontier passed a stale-epoch peer");
                    if v.announced_at(t) {
                        claimants.push(vr);
                    }
                    let eligible = v.served_t == Some(t)
                        || v.grant.is_some_and(|g| g.t == t)
                        || (v.idle_since.is_some_and(|ti| ti < t) && v.grant.is_none());
                    if eligible {
                        victims.push(vr);
                    }
                }
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
                // co-claimant's scan may observe these slots, and victims
                // block on the input recv anyway.
                for (j, &vr) in mine[..k].iter().enumerate() {
                    let g = Grant {
                        donor: my_phys,
                        lo: shares[j].start,
                        hi: shares[j].end,
                        t,
                    };
                    self.runtime().heartbeat_board().set_grant(group.phys(vr), epoch, g);
                    grants_made.push((vr, g));
                }
                end = new_end;
                self.runtime().note_promotions_taken(k as u64);
                for (j, &vr) in mine[..k].iter().enumerate() {
                    let ins: Vec<Vec<In>> = shares[j].clone().map(|i| pack(self, i)).collect();
                    self.send_ragged(vr, tag_grant, &ins);
                }
            } else {
                self.runtime().heartbeat_board().store_progress(my_phys, t);
            }
        }

        // Epilogue: install donated results, grants in the order made.
        for &(vr, g) in &grants_made {
            let outs: Vec<Vec<Out>> = self.recv_ragged(vr, tag_result, g.hi - g.lo);
            for (i, row) in (g.lo..g.hi).zip(outs) {
                apply(self, i, row);
            }
        }

        // Completion: every member (vrank 0 included) parks on the board
        // and serves grants until the loop is globally done. Termination
        // is detected through the board alone, no messages: the predicate
        // "every member parked in this epoch holding no grant" is stable
        // once true (granting requires a working donor, and a donor parks
        // only after its epilogue collected every result it is owed), so
        // the first true observation is final. A peer whose slot already
        // shows a *later* epoch must itself have observed the predicate
        // before moving on, so it counts as parked; board epochs are
        // op-tag values, monotonic in program order on every member.
        // Exiting by board read leaves each member's virtual clock at its
        // own last event — a promotable loop that never donates costs
        // zero virtual time and zero messages over the sequential loop.
        {
            let t_idle = self.now();
            self.runtime().heartbeat_board().register_idle(my_phys, epoch, t_idle);
            let mut deadline = self.runtime().watchdog_deadline();
            loop {
                if let Some(g) = self.runtime().heartbeat_board().take_grant(my_phys) {
                    let donor_vr = group
                        .vrank_of_phys(g.donor)
                        .expect("grant from outside the loop's group");
                    let ins: Vec<Vec<In>> = self.recv_ragged(donor_vr, tag_grant, g.hi - g.lo);
                    let serve_scope = format!("promote[{}-{}<p{}]", g.lo, g.hi, g.donor);
                    self.runtime().push_scope(&serve_scope);
                    let mut outs = Vec::with_capacity(ins.len());
                    for (i, row) in (g.lo..g.hi).zip(&ins) {
                        outs.push(body(self, i, row));
                        let tn = self.now();
                        self.runtime().heartbeat_board().store_progress(my_phys, tn);
                    }
                    self.runtime().pop_scope();
                    self.send_ragged(donor_vr, tag_result, &outs);
                    let t_idle = self.now();
                    self.runtime().heartbeat_board().register_idle(my_phys, epoch, t_idle);
                    deadline = self.runtime().watchdog_deadline();
                    continue;
                }
                let all_parked = (0..p).all(|vr| {
                    let v = self.runtime().heartbeat_board().read_peer(group.phys(vr));
                    v.epoch > epoch
                        || (v.epoch == epoch && v.idle_since.is_some() && v.grant.is_none())
                });
                if all_parked {
                    break;
                }
                if self.runtime().is_poisoned() {
                    panic!("promotable loop '{label}': another processor panicked");
                }
                if self.runtime().watchdog_expired(deadline) {
                    panic!(
                        "promotable loop '{label}': processor {me} wedged in the victim \
                         loop (no grant, no completion)"
                    );
                }
                self.runtime().yield_now();
            }
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

    /// Host-spin (never advancing virtual time) until every group peer is
    /// *resolved* at announce time `t`: its published progress reached
    /// `t`, or it is parked with no grant from an earlier heartbeat. See
    /// the `fx_runtime::heartbeat` module docs for why this makes every
    /// board decision a pure function of virtual time.
    fn promote_wait_frontier(&mut self, label: &str, epoch: u64, t: f64) {
        let p = self.nprocs();
        let me = self.id();
        let group = self.group();
        let deadline = self.runtime().watchdog_deadline();
        loop {
            let mut unresolved = None;
            for vr in 0..p {
                if vr == me {
                    continue;
                }
                let v = self.runtime().heartbeat_board().read_peer(group.phys(vr));
                let resolved = v.epoch == epoch
                    && (v.progress >= t
                        || (v.idle_since.is_some() && v.grant.is_none_or(|g| g.t >= t)));
                if !resolved {
                    unresolved = Some(vr);
                    break;
                }
            }
            let Some(stuck) = unresolved else { return };
            if self.runtime().is_poisoned() {
                panic!(
                    "promotable loop '{label}': another processor panicked during a \
                     promotion rendezvous"
                );
            }
            if self.runtime().watchdog_expired(deadline) {
                panic!(
                    "promotable loop '{label}': heartbeat at t={t} stuck waiting for \
                     virtual processor {stuck} to resolve"
                );
            }
            self.runtime().yield_now();
        }
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
