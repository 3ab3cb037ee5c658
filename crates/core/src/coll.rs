//! Group collectives: subset barriers, broadcast, reduce, gather, and
//! friends — always scoped to the *current* group.
//!
//! The paper's localization requirement (§4): "Computation and
//! communication inside a subgroup should only use the processors assigned
//! to the subgroup." Every collective here touches only the current group's
//! members, so when it runs inside an `ON SUBGROUP` block it is exactly the
//! subset barrier / subset collective the Fx implementation substitutes for
//! global ones.
//!
//! Tree-shaped algorithms (binomial broadcast and reduce) give the
//! O(log p) virtual-time scaling of real implementations; gathers are
//! root-linear like their real counterparts.

use std::sync::Arc;

use fx_runtime::Payload;

use crate::cx::Cx;
use crate::hash::mix2;

/// Salt separating dataflow subset-barrier wire tags from every other tag
/// family (user tags, collective tags). [`Cx::barrier_among`] derives its
/// wire tag as `mix2(op_tag, BARRIER_SALT)` so a statement's barrier never
/// collides with the statement's own data messages on the same `op_tag`.
const BARRIER_SALT: u64 = 0xBAAA_A125;

/// Compact textual form of a sorted physical-rank set: consecutive runs
/// collapse, e.g. `[0,1,2,5]` → `"p0-2,p5"`. Barrier span labels embed
/// these so nested `ON SUBGROUP` barriers are distinguishable per subgroup
/// in Chrome traces.
pub fn format_phys_ranges(members: &[usize]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < members.len() {
        let start = members[i];
        let mut end = start;
        while i + 1 < members.len() && members[i + 1] == end + 1 {
            i += 1;
            end = members[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            out.push_str(&format!("p{start}"));
        } else {
            out.push_str(&format!("p{start}-{end}"));
        }
        i += 1;
    }
    out
}

/// What [`Cx::allgather_vecs`] returns: every member's contribution, in
/// virtual-rank order, in one flat buffer that all members of the group
/// share.
pub struct Gathered<T> {
    buf: Arc<(Vec<T>, Vec<u64>)>,
    /// `part(v)` is `flat()[offs[v]..offs[v + 1]]`.
    offs: Vec<usize>,
}

impl<T> Gathered<T> {
    /// All parts concatenated in virtual-rank order.
    pub fn flat(&self) -> &[T] {
        &self.buf.0
    }

    /// The vector virtual rank `v` contributed.
    pub fn part(&self, v: usize) -> &[T] {
        &self.buf.0[self.offs[v]..self.offs[v + 1]]
    }

    /// Every member's part, in virtual-rank order.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.offs.len() - 1).map(|v| self.part(v))
    }
}

impl Cx<'_> {
    /// Subset barrier over the current group: no member continues until all
    /// members have arrived. Implemented as a reduce-then-broadcast of unit
    /// messages, so under simulation every member leaves at (roughly) the
    /// maximum arrival time plus the tree latency — the behaviour of a real
    /// subset barrier.
    pub fn barrier(&mut self) {
        // Scoped so the profiler attributes the barrier's send/recv busy
        // halves (and the idle gaps around them) to "barrier" rather than
        // to the surrounding stage. Inside a subgroup the label carries the
        // member set ("barrier[p2-3]") so barriers of sibling subgroups —
        // which otherwise render under one flat label — stay apart in
        // traces; the allocation is skipped entirely when neither the
        // profiler nor telemetry is on.
        self.runtime().note_barrier();
        if self.nesting_depth() > 1 && self.runtime().scopes_active() {
            let label = format!("barrier[{}]", format_phys_ranges(self.group().members()));
            self.runtime().push_scope(&label);
        } else {
            self.runtime().push_scope("barrier");
        }
        // The reduce's Option result (Some on the root, None elsewhere) is
        // exactly the broadcast leg's input — no placeholder value needed.
        let token = self.reduce(0, (), |(), ()| ());
        self.bcast_opt(0, token);
        self.runtime().pop_scope();
    }

    /// Dissemination barrier over an explicit set of *physical* processors
    /// (sorted, distinct), independent of the current group. This is the
    /// synchronization the dataflow classifier inserts at darray statement
    /// edges whose source and destination live in different (sibling)
    /// subgroups: the member set is the union of both arrays' groups, which
    /// is no group on the stack.
    ///
    /// Non-members return immediately. `op_tag` must be an
    /// already-allocated statement tag ([`Cx::next_op_tag`]); the wire tag
    /// is salted so it cannot collide with the statement's data messages.
    /// The schedule is the classic dissemination pattern — round `d = 1, 2,
    /// 4, …` sends to `members[(r+d) % n]` and waits on `members[(r+n-d) %
    /// n]` — which completes in ⌈log₂ n⌉ rounds with every (src, dst) pair
    /// distinct, so FIFO order on the single wire tag is never ambiguous.
    /// Deposits are non-blocking, so the send-then-recv round structure
    /// cannot deadlock.
    pub fn barrier_among(&mut self, members: &[usize], op_tag: u64, label: &str) {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "barrier_among members must be sorted and distinct"
        );
        let me = self.phys_rank();
        let Ok(r) = members.binary_search(&me) else { return };
        self.runtime().note_barrier();
        self.runtime().push_scope(label);
        let n = members.len();
        let wire = mix2(op_tag, BARRIER_SALT);
        let mut d = 1usize;
        while d < n {
            let dst = members[(r + d) % n];
            let src = members[(r + n - d) % n];
            self.send_phys(dst, wire, ());
            let () = self.recv_phys(src, wire);
            d <<= 1;
        }
        self.runtime().pop_scope();
    }

    /// Broadcast `value` from virtual rank `root` to every member of the
    /// current group. All members receive the value (the root keeps its
    /// own). Binomial tree: log2(p) message steps.
    pub fn bcast<T: Payload + Clone + Sync>(&mut self, root: usize, value: T) -> T {
        let mine = if self.id() == root { Some(value) } else { None };
        self.bcast_opt(root, mine)
    }

    /// Broadcast the root's `Some` value; non-roots pass `None` (their
    /// argument is never sent, so allreduce-style call sites don't have to
    /// clone a placeholder). Same tag allocation and message schedule as
    /// [`Cx::bcast`].
    ///
    /// The value travels down the tree as an `Arc<T>`: each hop forwards a
    /// reference-count bump instead of a deep copy, so broadcasting an
    /// n-element vector no longer clones it at every tree level on the
    /// host (`T: Sync` because one allocation becomes visible to several
    /// processor threads). The `Arc` charges its inner value's wire size
    /// and the message schedule is unchanged, so virtual time is
    /// bit-identical to the deep-copy implementation.
    fn bcast_opt<T: Payload + Clone + Sync>(&mut self, root: usize, value: Option<T>) -> T {
        let shared = self.bcast_arc(root, value);
        // At most one deep clone per member, and none when this member's
        // reference is the last one standing.
        Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone())
    }

    /// The binomial broadcast behind [`Cx::bcast_opt`], leaving the value
    /// in the `Arc` that travelled: every member ends up holding the
    /// root's one allocation.
    fn bcast_arc<T: Payload + Sync>(&mut self, root: usize, value: Option<T>) -> Arc<T> {
        let p = self.nprocs();
        assert!(root < p, "bcast root {root} out of range for group of {p}");
        let tag = self.next_op_tag();
        let me = self.id();
        let rel = (me + p - root) % p;
        debug_assert!(
            (rel == 0) == value.is_some(),
            "bcast: exactly the root supplies a value"
        );
        let mut slot: Option<Arc<T>> = value.map(Arc::new);
        let mut mask = 1usize;
        while mask < p {
            if rel < mask {
                let dst_rel = rel + mask;
                if dst_rel < p {
                    let dst = (dst_rel + root) % p;
                    let v =
                        Arc::clone(slot.as_ref().expect("bcast internal: sender without value"));
                    self.send_wire(dst, tag, v);
                }
            } else if rel < 2 * mask {
                let src = (rel - mask + root) % p;
                slot = Some(self.recv_wire(src, tag));
            }
            mask <<= 1;
        }
        slot.expect("bcast internal: member finished without value")
    }

    /// Reduce the members' values with `f` (associative & commutative) onto
    /// virtual rank `root`. Returns `Some(result)` on the root and `None`
    /// elsewhere. Binomial tree: log2(p) message steps.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, f: F) -> Option<T>
    where
        T: Payload,
        F: Fn(T, T) -> T,
    {
        let p = self.nprocs();
        assert!(root < p, "reduce root {root} out of range for group of {p}");
        let tag = self.next_op_tag();
        let me = self.id();
        let rel = (me + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let dst = (rel - mask + root) % p;
                self.send_wire(dst, tag, acc);
                return None;
            }
            let src_rel = rel + mask;
            if src_rel < p {
                let src = (src_rel + root) % p;
                let other: T = self.recv_wire(src, tag);
                acc = f(acc, other);
            }
            mask <<= 1;
        }
        debug_assert_eq!(me, root);
        Some(acc)
    }

    /// Reduce with `f` and broadcast the result to the whole group.
    pub fn allreduce<T, F>(&mut self, value: T, f: F) -> T
    where
        T: Payload + Clone + Sync,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, f);
        self.bcast_opt(0, reduced)
    }

    /// Gather each member's value to `root`, in virtual-rank order.
    /// Returns `Some(vec)` (length p) on the root, `None` elsewhere.
    pub fn gather<T: Payload>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let p = self.nprocs();
        assert!(root < p, "gather root {root} out of range for group of {p}");
        let tag = self.next_op_tag();
        let me = self.id();
        if me == root {
            let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
            out[root] = Some(value);
            for (v, slot) in out.iter_mut().enumerate() {
                if v != root {
                    *slot = Some(self.recv_wire(v, tag));
                }
            }
            Some(out.into_iter().map(|o| o.expect("gather missing element")).collect())
        } else {
            self.send_wire(root, tag, value);
            None
        }
    }

    /// Gather everyone's value to every member (gather + broadcast).
    pub fn allgather<T: Payload + Clone + Sync>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.bcast_opt(0, gathered)
    }

    /// All-gather of variable-length vectors: every member contributes a
    /// `Vec<T>` and receives all members' vectors in virtual-rank order,
    /// as one [`Gathered`] buffer shared by the whole group and read in
    /// place. The root flattens the parts for the broadcast leg, so only
    /// flat buffers travel on the wire, and the broadcast hands every
    /// member the same allocation: no member copies it.
    pub fn allgather_vecs<T: Clone + Send + Sync + 'static>(&mut self, value: Vec<T>) -> Gathered<T> {
        let packed = self.gather(0, value).map(|vs| {
            let lens: Vec<u64> = vs.iter().map(|v| v.len() as u64).collect();
            let flat: Vec<T> = vs.into_iter().flatten().collect();
            (flat, lens)
        });
        let buf: Arc<(Vec<T>, Vec<u64>)> = self.bcast_arc(0, packed);
        let mut offs = Vec::with_capacity(buf.1.len() + 1);
        offs.push(0);
        for &l in &buf.1 {
            offs.push(offs[offs.len() - 1] + l as usize);
        }
        Gathered { buf, offs }
    }

    /// Personalized all-to-all: `data[dst]` is sent to virtual rank `dst`;
    /// the result's `[src]` element is what virtual rank `src` sent here.
    ///
    /// Every member sends to every other member (empty vectors included);
    /// the data-parallel layer avoids empty messages by computing exact
    /// communication sets instead of using this primitive.
    pub fn alltoallv<T: Clone + Send + 'static>(&mut self, mut data: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.nprocs();
        assert_eq!(data.len(), p, "alltoallv needs one bucket per member");
        let tag = self.next_op_tag();
        let me = self.id();
        let mine = std::mem::take(&mut data[me]);
        // Deterministic order: send to me+1, me+2, …; receive likewise.
        for off in 1..p {
            let dst = (me + off) % p;
            self.send_wire(dst, tag, std::mem::take(&mut data[dst]));
        }
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        out[me] = mine;
        for off in 1..p {
            let src = (me + p - off) % p;
            out[src] = self.recv_wire(src, tag);
        }
        out
    }

    /// Inclusive prefix scan: rank k receives `f(v_0, …, v_k)`.
    pub fn scan<T, F>(&mut self, value: T, f: F) -> T
    where
        T: Payload + Clone,
        F: Fn(T, T) -> T,
    {
        match self.exscan(value.clone(), &f) {
            Some(prefix) => f(prefix, value),
            None => value,
        }
    }

    /// Exclusive prefix "scan" of `value` under `f` in virtual-rank order:
    /// rank k receives `f(v_0, …, v_{k-1})` (`None` at rank 0). Linear
    /// chain; used for ordered merges (quicksort result concatenation).
    pub fn exscan<T, F>(&mut self, value: T, f: F) -> Option<T>
    where
        T: Payload + Clone,
        F: Fn(T, T) -> T,
    {
        let p = self.nprocs();
        let tag = self.next_op_tag();
        let me = self.id();
        let incoming: Option<T> = if me > 0 { Some(self.recv_wire(me - 1, tag)) } else { None };
        if me + 1 < p {
            let outgoing = match incoming.clone() {
                Some(acc) => f(acc, value),
                None => value,
            };
            self.send_wire(me + 1, tag, outgoing);
        }
        incoming
    }

    // ----- helpers --------------------------------------------------------

    /// Send to a virtual rank of the current group on an explicit wire tag.
    fn send_wire<T: Payload>(&mut self, dst_v: usize, wire_tag: u64, value: T) {
        let phys = self.top().handle.phys(dst_v);
        self.send_phys(phys, wire_tag, value);
    }

    /// Receive from a virtual rank of the current group on an explicit wire
    /// tag.
    fn recv_wire<T: Payload>(&mut self, src_v: usize, wire_tag: u64) -> T {
        let phys = self.top().handle.phys(src_v);
        self.recv_phys(phys, wire_tag)
    }
}

#[cfg(test)]
mod tests {
    use crate::cx::spmd;
    use fx_runtime::{Machine, MachineModel};

    #[test]
    fn bcast_from_each_root() {
        for root in 0..5 {
            let rep = spmd(&Machine::real(5), move |cx| {
                let v = if cx.id() == root { 100 + root as u64 } else { 0 };
                cx.bcast(root, v)
            });
            assert!(rep.results.iter().all(|&v| v == 100 + root as u64));
        }
    }

    #[test]
    fn reduce_sum_all_roots_all_sizes() {
        for p in 1..=9usize {
            for root in [0, p - 1, p / 2] {
                let rep = spmd(&Machine::real(p), move |cx| {
                    cx.reduce(root, cx.id() as u64 + 1, |a, b| a + b)
                });
                let expect = (p * (p + 1) / 2) as u64;
                for (i, r) in rep.results.iter().enumerate() {
                    if i == root {
                        assert_eq!(*r, Some(expect), "p={p} root={root}");
                    } else {
                        assert_eq!(*r, None);
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let rep = spmd(&Machine::real(7), |cx| cx.allreduce(cx.id() as i64 * 3, i64::max));
        assert!(rep.results.iter().all(|&v| v == 18));
    }

    #[test]
    fn gather_in_rank_order() {
        let rep = spmd(&Machine::real(6), |cx| cx.gather(2, cx.id() as u32 * 10));
        assert_eq!(rep.results[2], Some(vec![0, 10, 20, 30, 40, 50]));
        assert_eq!(rep.results[0], None);
    }

    #[test]
    fn allgather_everyone_sees_all() {
        let rep = spmd(&Machine::real(4), |cx| cx.allgather(cx.id() as u8));
        for r in rep.results {
            assert_eq!(r, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn alltoallv_transpose_pattern() {
        let p = 4;
        let rep = spmd(&Machine::real(p), move |cx| {
            let me = cx.id();
            // Send [me, dst] to each dst.
            let data: Vec<Vec<usize>> = (0..p).map(|dst| vec![me, dst]).collect();
            cx.alltoallv(data)
        });
        for (me, out) in rep.results.iter().enumerate() {
            for (src, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![src, me]);
            }
        }
    }

    #[test]
    fn exscan_prefix_sums() {
        let rep = spmd(&Machine::real(5), |cx| cx.exscan(cx.id() as u64 + 1, |a, b| a + b));
        assert_eq!(rep.results, vec![None, Some(1), Some(3), Some(6), Some(10)]);
    }

    #[test]
    fn scan_inclusive_prefix_sums() {
        let rep = spmd(&Machine::real(5), |cx| cx.scan(cx.id() as u64 + 1, |a, b| a + b));
        assert_eq!(rep.results, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn barrier_aligns_virtual_clocks() {
        let m = MachineModel::paragon();
        let rep = spmd(&Machine::simulated(4, m), |cx| {
            // Wildly different amounts of work before the barrier.
            cx.charge_flops(1e6 * (cx.id() as f64 + 1.0));
            cx.barrier();
            cx.now()
        });
        let min = rep.results.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rep.results.iter().copied().fold(0.0, f64::max);
        // After the barrier every clock is at least the slowest worker's
        // pre-barrier time (0.4 s), and clocks agree to within tree latency.
        assert!(min >= 0.4, "min = {min}");
        assert!(max - min < 1e-3, "spread = {}", max - min);
    }

    #[test]
    fn collectives_in_subgroup_do_not_touch_outsiders() {
        // Procs {0,1} run a collective storm in a subgroup while proc 2
        // runs an independent one; if localization leaked, tags or
        // messages would cross and types/values would mismatch.
        use crate::group::GroupHandle;
        use std::sync::Arc;
        let rep = spmd(&Machine::real(3), |cx| {
            let g01 = GroupHandle::new(777, Arc::new(vec![0, 1]));
            if cx.phys_rank() <= 1 {
                cx.enter(&g01, |cx| {
                    let mut acc = 0u64;
                    for i in 0..50 {
                        acc += cx.allreduce(cx.id() as u64 + i, |a, b| a + b);
                    }
                    acc
                })
            } else {
                // Proc 2 alone in its own "group of one" (the world group
                // restricted to it would be wrong; use singleton).
                let solo = GroupHandle::new(888, Arc::new(vec![2]));
                cx.enter(&solo, |cx| {
                    let mut acc = 0u64;
                    for i in 0..50 {
                        acc += cx.allreduce(1000 + i, |a, b| a + b);
                    }
                    acc
                })
            }
        });
        // Subgroup {0,1}: sum over i of (0+i)+(1+i) = 1 + 2i → 50 + 2*1225 = 2500.
        assert_eq!(rep.results[0], 2500);
        assert_eq!(rep.results[1], 2500);
        // Solo: sum of 1000+i for i in 0..50 = 50*1000 + 1225.
        assert_eq!(rep.results[2], 51225);
    }

    #[test]
    fn single_member_collectives_are_local() {
        let rep = spmd(&Machine::real(1), |cx| {
            cx.barrier();
            let b = cx.bcast(0, 9u8);
            let r = cx.reduce(0, 5u32, |a, b| a + b);
            let g = cx.gather(0, 1u8);
            let ag = cx.allgather(2u8);
            let ar = cx.allreduce(3u8, |a, b| a + b);
            (b, r, g, ag, ar)
        });
        assert_eq!(rep.results[0], (9, Some(5), Some(vec![1]), vec![2], 3));
        assert_eq!(rep.traffic[0].0, 0, "no messages for singleton group");
    }
}
