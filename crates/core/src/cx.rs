//! The task/data-parallel execution context.
//!
//! [`Cx`] wraps a physical processor's [`fx_runtime::ProcCtx`] with the
//! paper's execution model: a stack of processor groups (virtual→physical
//! mappings), group-relative communication, and the sequence counters from
//! which collective message tags are derived.

use std::sync::Arc;

use fx_runtime::{Chunk, Machine, Payload, ProcCtx, RunReport};

use crate::group::{Frame, GroupHandle};
use crate::hash::{mix2, mix3, WORLD_GID};
use crate::plancache::PlanCache;
use crate::replica::Replicas;

/// Salt separating user point-to-point tags from collective tags.
const USER_SALT: u64 = 0xFACE_0FF0;

/// Per-processor context carrying the group mapping stack.
///
/// All Fx-model operations go through this type: group queries
/// (`nprocs()`, `id()` — the paper's `NUMBER_OF_PROCESSORS()` and local
/// index), group-relative messaging, collectives (see `coll` module), task
/// partitions and task regions.
pub struct Cx<'a> {
    rt: &'a mut ProcCtx,
    stack: Vec<Frame>,
    /// Cached communication plans (see [`PlanCache`]). Per-processor, like
    /// the context itself; survives group entry/exit so a plan built inside
    /// one `ON SUBGROUP` execution is reused by the next.
    plans: PlanCache,
    /// The run's table of replicated values in flight (see
    /// [`Cx::replicated`]), shared with every other processor's context.
    pub(crate) replicas: Arc<Replicas>,
}

impl<'a> Cx<'a> {
    /// The context of `rt` with `world`, the run's one whole-machine
    /// group, as the bottom frame, and `replicas`, the run's one table of
    /// replicated values.
    pub(crate) fn new(rt: &'a mut ProcCtx, world: GroupHandle, replicas: Arc<Replicas>) -> Self {
        debug_assert_eq!(world.len(), rt.nprocs(), "the bottom frame is the whole machine");
        let vrank = rt.rank();
        Cx { rt, stack: vec![Frame::new(world, vrank)], plans: PlanCache::default(), replicas }
    }

    // ----- identity ------------------------------------------------------

    /// Number of processors in the *current* group — the paper's
    /// `NUMBER_OF_PROCESSORS()`. Shrinks inside `ON SUBGROUP` blocks.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.top().handle.len()
    }

    /// This processor's virtual rank within the current group.
    #[inline]
    pub fn id(&self) -> usize {
        self.top().vrank
    }

    /// Handle of the current group (for attaching distributed data).
    pub fn group(&self) -> GroupHandle {
        self.top().handle.clone()
    }

    /// Physical rank in the whole machine.
    #[inline]
    pub fn phys_rank(&self) -> usize {
        self.rt.rank()
    }

    /// Total processors in the whole machine.
    #[inline]
    pub fn world_nprocs(&self) -> usize {
        self.rt.nprocs()
    }

    /// Depth of group nesting (1 = whole machine only).
    pub fn nesting_depth(&self) -> usize {
        self.stack.len()
    }

    // ----- time & tracing (delegated to the runtime) ----------------------

    /// Current time (virtual seconds).
    #[inline]
    pub fn now(&self) -> f64 {
        self.rt.now()
    }

    /// Charge local floating-point work to the virtual clock.
    #[inline]
    pub fn charge_flops(&mut self, n: f64) {
        self.rt.charge_flops(n);
    }

    /// Charge local memory traffic to the virtual clock.
    #[inline]
    pub fn charge_mem_bytes(&mut self, n: f64) {
        self.rt.charge_mem_bytes(n);
    }

    /// Charge raw seconds (modeled I/O, etc.) to the virtual clock.
    #[inline]
    pub fn charge_seconds(&mut self, s: f64) {
        self.rt.charge_seconds(s);
    }

    /// Mark an instant on this processor's log.
    pub fn record(&mut self, label: impl AsRef<str>) {
        self.rt.record(label);
    }

    /// True when the machine retains duration events
    /// (`Machine::with_profiling(true)`).
    #[inline]
    pub fn profiling(&self) -> bool {
        self.rt.profiling()
    }

    /// True when causal trace propagation is enabled
    /// (`Machine::with_tracing(true)` or `FX_TRACE=1`).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.rt.tracing()
    }

    /// Start (or switch) the causal trace this processor's work belongs
    /// to; every subsequent event and outgoing message carries `id` until
    /// [`Cx::clear_trace`]. No-op when tracing is off, so origin points
    /// can stamp unconditionally.
    #[inline]
    pub fn set_trace(&mut self, id: u64) {
        self.rt.set_trace(id);
    }

    /// Drop the active causal trace context.
    #[inline]
    pub fn clear_trace(&mut self) {
        self.rt.clear_trace();
    }

    /// The active causal trace id (`0` = none).
    #[inline]
    pub fn trace(&self) -> u64 {
        self.rt.trace()
    }

    /// Execute `f` with `name` pushed onto the scope path, so every event
    /// made inside (compute charges, send/recv busy halves) is labelled
    /// `…/name`. No-op when nobody observes the run. Task regions push their
    /// subgroup names automatically; use this for finer-grained stage
    /// labels (`cx.scoped("cffts", |cx| …)`).
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Cx) -> R) -> R {
        self.rt.push_scope(name);
        let out = f(self);
        self.rt.pop_scope();
        out
    }

    // ----- group-relative messaging ---------------------------------------

    /// Send `value` to virtual processor `dst` of the current group on user
    /// channel `tag`. Tags are namespaced per group, so identical user tags
    /// in different (even nested) groups never collide.
    pub fn send_v<T: Payload>(&mut self, dst: usize, tag: u64, value: T) {
        let (phys, wire) = {
            let f = self.top();
            (f.handle.phys(dst), mix3(f.handle.gid(), USER_SALT, tag))
        };
        self.rt.send(phys, wire, value);
    }

    /// Receive from virtual processor `src` of the current group on user
    /// channel `tag`.
    pub fn recv_v<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        let (phys, wire) = {
            let f = self.top();
            (f.handle.phys(src), mix3(f.handle.gid(), USER_SALT, tag))
        };
        self.rt.recv(phys, wire)
    }

    /// Allocate the next operation tag of the current group, advancing the
    /// group's sequence counter.
    ///
    /// **SPMD invariant**: every member of the current group must call this
    /// for the same operation, *even members that will skip the operation's
    /// communication* (the minimal-processor-subset rule lets them skip the
    /// synchronization, not the tag allocation). Collectives and
    /// distributed-array operations rely on this.
    pub fn next_op_tag(&mut self) -> u64 {
        let f = self.top_mut();
        let t = mix2(f.handle.gid(), f.seq);
        f.seq += 1;
        t
    }

    /// Send to a *physical* processor on a precomputed wire tag. Used by
    /// the data-parallel layer whose communication sets are expressed in
    /// physical ranks (possibly spanning sibling subgroups).
    pub fn send_phys<T: Payload>(&mut self, dst_phys: usize, wire_tag: u64, value: T) {
        self.rt.send(dst_phys, wire_tag, value);
    }

    /// Receive from a *physical* processor on a precomputed wire tag.
    pub fn recv_phys<T: Payload>(&mut self, src_phys: usize, wire_tag: u64) -> T {
        self.rt.recv(src_phys, wire_tag)
    }

    // ----- chunk fast path (pooled bulk transfers) ------------------------

    /// An empty [`Chunk`] for `elems` elements of `T`, drawn from this
    /// processor's buffer pool. The pack buffer of the zero-copy transfer
    /// path used by the data-parallel layer's plan replay.
    pub fn chunk_for<T: Copy + Send + 'static>(&mut self, elems: usize) -> Chunk {
        self.rt.chunk_for::<T>(elems)
    }

    /// Recycle an unpacked chunk's storage into this processor's pool.
    pub fn release_chunk(&mut self, chunk: Chunk) {
        self.rt.release_chunk(chunk);
    }

    /// Send a packed chunk to a *physical* processor on a precomputed wire
    /// tag. Identical virtual-time charges and ordering to
    /// [`Cx::send_phys`] of an equal-sized `Vec<T>`.
    pub fn send_chunk_phys(&mut self, dst_phys: usize, wire_tag: u64, chunk: Chunk) {
        self.rt.send_chunk(dst_phys, wire_tag, chunk);
    }

    /// Receive a chunk from a *physical* processor on a precomputed wire
    /// tag.
    pub fn recv_chunk_phys(&mut self, src_phys: usize, wire_tag: u64) -> Chunk {
        self.rt.recv_chunk(src_phys, wire_tag)
    }

    /// Send a packed chunk to virtual processor `dst` of the current group
    /// on user channel `tag` (chunk analogue of [`Cx::send_v`]).
    pub fn send_chunk_v(&mut self, dst: usize, tag: u64, chunk: Chunk) {
        let (phys, wire) = {
            let f = self.top();
            (f.handle.phys(dst), mix3(f.handle.gid(), USER_SALT, tag))
        };
        self.rt.send_chunk(phys, wire, chunk);
    }

    /// Receive a chunk from virtual processor `src` of the current group
    /// on user channel `tag` (chunk analogue of [`Cx::recv_v`]).
    pub fn recv_chunk_v(&mut self, src: usize, tag: u64) -> Chunk {
        let (phys, wire) = {
            let f = self.top();
            (f.handle.phys(src), mix3(f.handle.gid(), USER_SALT, tag))
        };
        self.rt.recv_chunk(phys, wire)
    }

    // ----- group stack manipulation ---------------------------------------

    /// Execute `f` with `group` pushed as the current group. Panics if this
    /// processor is not a member — callers decide whether to skip first
    /// (that is what `TaskRegion::on` does).
    pub fn enter<R>(&mut self, group: &GroupHandle, f: impl FnOnce(&mut Cx) -> R) -> R {
        self.enter_with_seq(group, 0, f).0
    }

    /// Like [`Cx::enter`] but resuming the group's operation sequence from
    /// `seq`; returns the closure result and the sequence value at exit.
    /// Task regions use this so repeated `ON SUBGROUP` blocks of the same
    /// subgroup keep allocating fresh tags.
    pub(crate) fn enter_with_seq<R>(
        &mut self,
        group: &GroupHandle,
        seq: u64,
        f: impl FnOnce(&mut Cx) -> R,
    ) -> (R, u64) {
        let vrank = group
            .vrank_of_phys(self.phys_rank())
            .unwrap_or_else(|| panic!(
                "processor {} entered group {:#x} it does not belong to",
                self.phys_rank(),
                group.gid()
            ));
        self.stack.push(Frame { handle: group.clone(), vrank, seq });
        let out = f(self);
        let frame = self.stack.pop().expect("group stack underflow");
        debug_assert_eq!(frame.handle.gid(), group.gid(), "unbalanced group stack");
        (out, frame.seq)
    }

    /// The machine's dataflow barrier-elision mode. By the time a
    /// processor is running this is [`fx_runtime::DataflowMode::Off`] or
    /// `On` — `Validate` is resolved by `run` into one pass of each.
    #[inline]
    pub fn dataflow(&self) -> fx_runtime::DataflowMode {
        self.rt.dataflow()
    }

    /// Escape hatch to the raw runtime context.
    pub fn runtime(&mut self) -> &mut ProcCtx {
        self.rt
    }

    // ----- communication-plan cache ---------------------------------------

    /// Look up a communication plan by `key`, building it with `build` on a
    /// miss. Hits and misses are counted in the processor's
    /// [`fx_runtime::ProcTotals`] row (host-side instrumentation only — the
    /// virtual clock is untouched, so caching cannot change simulated
    /// time).
    ///
    /// Keys are compared by exact equality; the data-parallel layer encodes
    /// everything a plan depends on (distributions, group member lists, array
    /// extents, ranges, shifts) into its key types.
    ///
    /// A plan is kept in proportion to its reuse ([`PlanCache`]'s 2Q
    /// admission): a first sighting waits on probation among the last 8,
    /// and only a plan used again — while on probation, or while its key's
    /// hash is still among the last 256 pushed out — joins the 64 plans
    /// kept least recently used first. A run of one-off statements
    /// therefore neither fills memory with plans nor evicts the ones a
    /// pipeline replays.
    pub fn plan_cached<K, P, F>(&mut self, key: K, build: F) -> Arc<P>
    where
        K: Eq + std::hash::Hash + Send + 'static,
        P: Send + Sync + 'static,
        F: FnOnce() -> P,
    {
        let (plan, hit) = self.plans.get_or_build(key, build);
        if hit {
            self.rt.note_plan_hit();
        } else {
            self.rt.note_plan_miss();
        }
        plan
    }

    /// A plan replay or halo exchange begins (see
    /// [`fx_runtime::ProcCtx::exchange_begins`]).
    #[inline]
    pub fn exchange_begins(&mut self) {
        self.rt.exchange_begins();
    }

    /// A pack or unpack step ended: its host time is the `pack_ns`
    /// counter of [`fx_runtime::ProcTotals`] (see
    /// [`fx_runtime::ProcCtx::packed`]).
    #[inline]
    pub fn packed(&mut self) {
        self.rt.packed();
    }

    #[inline]
    pub(crate) fn top(&self) -> &Frame {
        self.stack.last().expect("group stack is never empty")
    }

    #[inline]
    pub(crate) fn top_mut(&mut self) -> &mut Frame {
        self.stack.last_mut().expect("group stack is never empty")
    }
}

/// Run an SPMD program under the Fx model: every processor of `machine`
/// executes `f` with a [`Cx`] whose initial group is the whole machine.
/// That group is built once, here: every processor's bottom frame shares
/// its member list and fingerprint, so set-up is O(P), not O(P²). So is
/// the run's table of replicated values ([`Cx::replicated`]), which goes
/// with the contexts when the run ends or panics.
///
/// ```
/// use fx_core::{spmd, Machine, MachineModel};
///
/// let report = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
///     cx.allreduce(cx.id() as u64, |a, b| a + b)
/// });
/// assert_eq!(report.results, vec![6, 6, 6, 6]); // 0+1+2+3 everywhere
/// ```
pub fn spmd<R, F>(machine: &Machine, f: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut Cx) -> R + Send + Sync,
{
    let world = GroupHandle::new(WORLD_GID, Arc::new((0..machine.nprocs).collect()));
    let replicas = Arc::new(Replicas::default());
    fx_runtime::run(machine, |rt| {
        let mut cx = Cx::new(rt, world.clone(), Arc::clone(&replicas));
        f(&mut cx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_runtime::{Executor, MachineModel, ProcTotals};

    #[test]
    fn world_group_identity() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            assert_eq!(cx.nprocs(), 4);
            assert_eq!(cx.world_nprocs(), 4);
            assert_eq!(cx.id(), cx.phys_rank());
            assert_eq!(cx.nesting_depth(), 1);
            cx.id()
        });
        assert_eq!(rep.results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn group_relative_send_recv() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            if cx.id() == 0 {
                cx.send_v(2, 5, 77u32);
                0
            } else if cx.id() == 2 {
                cx.recv_v::<u32>(0, 5)
            } else {
                0
            }
        });
        assert_eq!(rep.results[2], 77);
    }

    #[test]
    fn enter_subgroup_changes_view() {
        let rep = spmd(&Machine::simulated(4, MachineModel::paragon()), |cx| {
            let g = GroupHandle::new(42, Arc::new(vec![1, 3]));
            if g.contains_phys(cx.phys_rank()) {
                cx.enter(&g, |cx| {
                    assert_eq!(cx.nprocs(), 2);
                    assert_eq!(cx.nesting_depth(), 2);
                    cx.id() as i64
                })
            } else {
                -1
            }
        });
        assert_eq!(rep.results, vec![-1, 0, -1, 1]);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn entering_foreign_group_panics() {
        spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let g = GroupHandle::new(42, Arc::new(vec![0]));
            // Rank 1 is not a member but enters anyway.
            if cx.phys_rank() == 1 {
                cx.enter(&g, |_| ());
            }
        });
    }

    #[test]
    fn op_tags_are_consistent_across_members_and_distinct_in_sequence() {
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let a = cx.next_op_tag();
            let b = cx.next_op_tag();
            assert_ne!(a, b);
            (a, b)
        });
        assert_eq!(rep.results[0], rep.results[1]);
        assert_eq!(rep.results[1], rep.results[2]);
    }

    #[test]
    fn tags_differ_between_groups() {
        let rep = spmd(&Machine::simulated(2, MachineModel::paragon()), |cx| {
            let world_tag = cx.next_op_tag();
            let g = GroupHandle::new(mix2(1, 2), Arc::new(vec![0, 1]));
            let sub_tag = cx.enter(&g, |cx| cx.next_op_tag());
            (world_tag, sub_tag)
        });
        assert_ne!(rep.results[0].0, rep.results[0].1);
    }

    /// A second `spmd` of a size runs on the stacks the first one gave back
    /// and must not differ from it in any bit: results, finish times,
    /// counters (all but `lane_contention`, a `try_lock` outcome) and
    /// profiled logs. In both, every bottom frame shares one member list.
    #[test]
    fn a_warm_spmd_equals_a_cold_one_and_shares_one_world_list() {
        const P: usize = 1024;
        let program = |cx: &mut Cx| {
            let (me, p) = (cx.id(), cx.nprocs());
            let mut token = me as u64;
            for _ in 0..4 {
                cx.send_v((me + 1) % p, 1, token);
                token = cx.recv_v((me + p - 1) % p, 1);
            }
            let sum = cx.allreduce(token, u64::wrapping_add);
            cx.barrier();
            (token, sum, cx.group())
        };
        // One worker, two, and one per processor (4096 is clamped to P).
        for executor in [Executor::Pooled { workers: 1 }, Executor::Pooled { workers: 2 }, Executor::Pooled { workers: 4096 }] {
            let machine = Machine::simulated(P, MachineModel::paragon()).with_executor(executor).with_profiling(true);
            let [cold, warm] = [(); 2].map(|_| spmd(&machine, program));
            for rep in [&cold, &warm] {
                let world = &rep.results[0].2.members;
                assert!(rep.results.iter().all(|r| Arc::ptr_eq(&r.2.members, world)), "{executor}: P world lists");
                assert_eq!(rep.results[0].1, (P * (P - 1) / 2) as u64);
            }
            type Rep = RunReport<(u64, u64, GroupHandle)>;
            let values = |rep: &Rep| rep.results.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>();
            let bits = |rep: &Rep| rep.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            let counts = |rep: &Rep| {
                rep.counters.iter().map(|c| ProcTotals { lane_contention: 0, ..c.clone() }).collect::<Vec<_>>()
            };
            assert_eq!(values(&cold), values(&warm), "{executor}: results");
            assert_eq!(bits(&cold), bits(&warm), "{executor}: finish times");
            assert_eq!(counts(&cold), counts(&warm), "{executor}: counters");
            assert!(cold.logs == warm.logs, "{executor}: logs");
        }
    }

    #[test]
    fn charges_accumulate_in_sim_mode() {
        let rep = spmd(&Machine::simulated(1, MachineModel::zero_comm(1e-6)), |cx| {
            cx.charge_flops(500.0);
            cx.charge_seconds(0.5);
            cx.now()
        });
        assert!((rep.results[0] - 0.5005).abs() < 1e-9);
    }
}
