//! Critical-path analysis over the event logs of one run.
//!
//! The virtual-time execution of an SPMD program induces a dependency
//! graph: per-processor program order plus one edge per message from its
//! send to the receive it unblocked. The makespan of the run equals the
//! length of the longest path through that graph; walking the path
//! backwards from the last-finishing processor attributes every second of
//! the makespan to compute, communication, or idle — and, through event
//! labels, to the task-region/subgroup ("stage") it was spent in.
//!
//! Virtual times are deterministic, ties are broken by lowest processor
//! rank, and map lookups are keyed (never iterated), so the analysis is
//! bit-identical across runs of the same program.

use std::collections::HashMap;
use std::sync::Arc;

use crate::event::{EventKind, Label, Log};

/// What one segment of the critical path was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Local computation.
    Compute,
    /// Sender-side message busy time.
    Send,
    /// Receiver-side message busy time.
    Recv,
    /// Wire latency between a send completing and the payload arriving.
    Wire,
    /// Idle: waiting that is itself on the critical path (startup skew,
    /// `advance_to` jumps — *not* receive waits, which the path bypasses
    /// by jumping to the sender).
    Idle,
}

impl PathKind {
    /// Coarse bucket: compute, comm, or idle.
    pub fn bucket(self) -> &'static str {
        match self {
            PathKind::Compute => "compute",
            PathKind::Send | PathKind::Recv | PathKind::Wire => "comm",
            PathKind::Idle => "idle",
        }
    }
}

/// One maximal interval of the critical path on a single processor (or
/// wire).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Physical processor the interval was spent on (the sender for
    /// [`PathKind::Wire`] segments).
    pub proc: usize,
    /// Start of the interval (virtual seconds).
    pub start: f64,
    /// End of the interval (virtual seconds).
    pub end: f64,
    /// What the interval was spent on.
    pub kind: PathKind,
    /// Scope label active during the interval (stage attribution).
    pub label: Arc<Label>,
}

impl PathSegment {
    /// Duration in virtual seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The stage of the interval's label, or `"<program>"` at top level.
    pub fn stage(&self) -> &str {
        match self.label.stage() {
            "" => "<program>",
            stage => stage,
        }
    }

    /// Subgroup of the interval's label (see [`Label::subgroup`]).
    pub fn subgroup(&self) -> &str {
        self.label.subgroup()
    }
}

/// Per-stage attribution of critical-path time, split per subgroup.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAttribution {
    /// Stage label (first path component, `"<program>"` for unscoped).
    pub stage: String,
    /// Physical-range label of the innermost subset scope active during
    /// the attributed intervals (bracket contents, e.g. `p0-1>p2-3` for
    /// a dataflow barrier or `p0-3` for a promotable loop); `""` for
    /// intervals outside any subset scope. Rows of one stage split by
    /// subgroup, so per-subgroup idle is directly readable.
    pub subgroup: String,
    /// Critical-path compute seconds inside the stage.
    pub compute: f64,
    /// Critical-path communication seconds (send + recv + wire).
    pub comm: f64,
    /// Critical-path idle seconds attributed to the stage.
    pub idle: f64,
}

impl StageAttribution {
    /// Total critical-path seconds attributed to this stage.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.idle
    }
}

/// Result of [`critical_path`]: the longest dependency chain of the run.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// The makespan the path explains (the last processor's finish time).
    pub makespan: f64,
    /// Path segments in forward time order, covering `[0, makespan]`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPathReport {
    /// Total `(compute, comm, idle)` seconds along the path; sums to the
    /// makespan.
    pub fn totals(&self) -> (f64, f64, f64) {
        let mut t = (0.0, 0.0, 0.0);
        for s in &self.segments {
            match s.kind.bucket() {
                "compute" => t.0 += s.dur(),
                "comm" => t.1 += s.dur(),
                _ => t.2 += s.dur(),
            }
        }
        t
    }

    /// Critical-path time per `(stage, subgroup)`, sorted by stage label
    /// then subgroup (deterministic print order). Row totals sum to the
    /// makespan.
    pub fn by_stage(&self) -> Vec<StageAttribution> {
        let mut map: std::collections::BTreeMap<(String, String), StageAttribution> =
            Default::default();
        for s in &self.segments {
            let key = (s.stage().to_string(), s.subgroup().to_string());
            let e = map.entry(key).or_insert_with(|| StageAttribution {
                stage: s.stage().to_string(),
                subgroup: s.subgroup().to_string(),
                compute: 0.0,
                comm: 0.0,
                idle: 0.0,
            });
            match s.kind.bucket() {
                "compute" => e.compute += s.dur(),
                "comm" => e.comm += s.dur(),
                _ => e.idle += s.dur(),
            }
        }
        map.into_values().collect()
    }

    /// Number of processor-to-processor hops (message jumps) on the path.
    pub fn hops(&self) -> usize {
        self.segments.windows(2).filter(|w| w[0].proc != w[1].proc).count()
    }

    /// Critical-path seconds spent inside barrier scopes: every segment
    /// whose label is a barrier scope ([`Label::is_barrier`]: plain group
    /// barriers and the dataflow subset barriers, whose labels carry
    /// member ranges like `barrier[p0-1>p2-3]`). This is the time
    /// `FX_DATAFLOW=on` targets: elided barriers remove exactly these
    /// segments from the path.
    pub fn barrier_wait(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.label.is_barrier())
            .map(|s| s.dur())
            .sum::<f64>()
            // Zero-duration segments can carry an IEEE negative zero;
            // normalize so "no wait" always prints as 0.
            .max(0.0)
    }
}

/// Identity of a message stream: FIFO matching of sends to receives is
/// exact per `(sender, receiver, wire tag)`.
type StreamKey = (usize, u32, u64);

/// FIFO matching of receive events to the sends that produced their
/// messages: the k-th receive of a `(sender, receiver, tag)` stream
/// matches the k-th send of the same stream (the runtime has no wildcard
/// receive, so this is exact). Returns `(recv proc, recv event index) →
/// (send proc, send event index)`. Shared by the critical-path walk and
/// the Chrome-trace flow events.
pub(crate) fn match_recvs_to_sends(logs: &[Log]) -> HashMap<(usize, usize), (usize, usize)> {
    let mut sends: HashMap<StreamKey, Vec<(usize, usize)>> = HashMap::new();
    for (p, log) in logs.iter().enumerate() {
        for (i, s) in log.events().iter().enumerate() {
            if s.kind == EventKind::Send {
                sends.entry((p, s.peer, s.tag)).or_default().push((p, i));
            }
        }
    }
    let mut recv_match: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    let mut stream_pos: HashMap<StreamKey, usize> = HashMap::new();
    for (p, log) in logs.iter().enumerate() {
        for (i, s) in log.events().iter().enumerate() {
            if s.kind == EventKind::Recv {
                let key: StreamKey = (s.peer as usize, p as u32, s.tag);
                let pos = stream_pos.entry(key).or_insert(0);
                if let Some(list) = sends.get(&key) {
                    if let Some(&src) = list.get(*pos) {
                        recv_match.insert((p, i), src);
                    }
                }
                *pos += 1;
            }
        }
    }
    recv_match
}

/// Walk the message dependency graph backwards from the last-finishing
/// processor and return the critical path of the run.
///
/// `logs` is [`crate::RunReport::logs`], `times` is
/// [`crate::RunReport::times`]; the run must have been executed with
/// profiling enabled (logs without duration events
/// yield a path that is all idle).
pub fn critical_path(logs: &[Log], times: &[f64]) -> CriticalPathReport {
    assert_eq!(logs.len(), times.len(), "one log per processor");
    assert!(!logs.is_empty(), "critical path needs at least one processor");

    // Last-finishing processor, lowest rank on ties.
    let mut end_proc = 0usize;
    for (p, &t) in times.iter().enumerate() {
        if t > times[end_proc] {
            end_proc = p;
        }
    }
    let makespan = times[end_proc];

    // FIFO send/recv matching per (sender, receiver, tag): the k-th recv
    // of a stream matches the k-th send. Maps a receiver-side event to the
    // (sender proc, sender event index) that produced its message.
    let recv_match = match_recvs_to_sends(logs);

    // Backward walk over the duration events. Cursor: processor, index of
    // the next event to visit (the one whose end we are at), current time,
    // and the label of whatever ran next on the path.
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut proc = end_proc;
    let mut t = makespan;
    let mut idx = logs[proc].events().len() as isize - 1;
    let mut next_label = logs[proc].labels().get(0);
    while t > 0.0 {
        if idx < 0 {
            // Startup: nothing before time zero; the rest is idle.
            segments.push(PathSegment { proc, start: 0.0, end: t, kind: PathKind::Idle, label: next_label });
            break;
        }
        let s = logs[proc].events()[idx as usize];
        if !s.is_span() {
            idx -= 1;
            continue;
        }
        if s.end < t {
            // A gap the program order cannot explain locally: an
            // `advance_to` jump or trailing wait — idle on the path,
            // attributed to whatever ran next.
            segments.push(PathSegment { proc, start: s.end, end: t, kind: PathKind::Idle, label: Arc::clone(&next_label) });
            t = s.end;
            continue;
        }
        debug_assert!(s.end == t, "duration events of one processor are ordered and non-overlapping");
        let label = logs[proc].labels().get(s.label);
        next_label = Arc::clone(&label);
        let kind = match s.kind {
            EventKind::Recv => PathKind::Recv,
            EventKind::Send => PathKind::Send,
            _ => PathKind::Compute,
        };
        segments.push(PathSegment { proc, start: s.start, end: s.end, kind, label });
        // A receive is gated by its message iff the arrival set its start
        // (ready = max(clock, arrival)); on exact ties the sender side is
        // chosen, deterministically. Then the path jumps to the matched
        // send; everything else — a send, compute, a receive whose message
        // was already waiting or has no match — continues in program order.
        let gate = (s.kind == EventKind::Recv && s.arrival >= s.start)
            .then(|| recv_match.get(&(proc, idx as usize)).copied())
            .flatten();
        match gate {
            Some((sp, si)) => {
                let send = logs[sp].events()[si];
                let send_label = logs[sp].labels().get(send.label);
                if s.arrival > send.end {
                    segments.push(PathSegment {
                        proc: sp,
                        start: send.end,
                        end: s.arrival,
                        kind: PathKind::Wire,
                        label: Arc::clone(&send_label),
                    });
                }
                proc = sp;
                idx = si as isize;
                t = send.end;
                next_label = send_label;
            }
            None => {
                idx -= 1;
                t = s.start;
            }
        }
    }
    // Drop zero-width segments and restore forward time order.
    segments.retain(|s| s.dur() > 0.0);
    segments.reverse();
    CriticalPathReport { makespan, segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;
    use crate::run::{run, Machine};

    fn profiled(p: usize, m: MachineModel) -> Machine {
        Machine::simulated(p, m).with_profiling(true)
    }

    #[test]
    fn single_proc_path_is_all_compute() {
        let rep = run(&profiled(1, MachineModel::zero_comm(1e-6)), |cx| {
            cx.charge_flops(1_000_000.0); // 1 s
        });
        let cp = critical_path(&rep.logs, &rep.times);
        assert!((cp.makespan - 1.0).abs() < 1e-9);
        let (compute, comm, idle) = cp.totals();
        assert!((compute - 1.0).abs() < 1e-9);
        assert_eq!(comm, 0.0);
        assert_eq!(idle, 0.0);
        assert_eq!(cp.hops(), 0);
    }

    #[test]
    fn path_jumps_to_the_sender_through_a_gated_recv() {
        let m = MachineModel::paragon();
        let rep = run(&profiled(2, m), |cx| {
            if cx.rank() == 0 {
                cx.charge_flops(10_000.0); // 1 ms of work first
                cx.send(1, 1, vec![0u8; 3000]);
            } else {
                let _: Vec<u8> = cx.recv(0, 1); // blocked from t=0
            }
        });
        let cp = critical_path(&rep.logs, &rep.times);
        assert!((cp.makespan - rep.makespan()).abs() < 1e-15);
        // The path must route through processor 0's compute, not through
        // processor 1's wait.
        let (compute, comm, idle) = cp.totals();
        assert!((compute - 1e-3).abs() < 1e-9, "compute {compute}");
        assert!(idle < 1e-12, "receive waits must not appear as idle, got {idle}");
        assert!((compute + comm + idle - cp.makespan).abs() < 1e-9);
        assert_eq!(cp.hops(), 1);
        // Segments tile [0, makespan] without overlap.
        let mut t = 0.0;
        for s in &cp.segments {
            assert!((s.start - t).abs() < 1e-12, "segment gap at {t}");
            t = s.end;
        }
        assert!((t - cp.makespan).abs() < 1e-12);
    }

    #[test]
    fn ungated_recv_stays_local() {
        let m = MachineModel::paragon();
        let rep = run(&profiled(2, m), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, 1u8); // sent immediately
            } else {
                cx.charge_flops(1_000_000.0); // 0.1 s — message long arrived
                let _: u8 = cx.recv(0, 1);
            }
        });
        let cp = critical_path(&rep.logs, &rep.times);
        // Proc 1's compute dominates; exactly zero hops back to proc 0.
        assert_eq!(cp.hops(), 0);
        let (compute, _, _) = cp.totals();
        assert!((compute - 0.1).abs() < 1e-9);
    }

    #[test]
    fn attribution_is_deterministic_across_runs() {
        let m = MachineModel::paragon();
        let go = || {
            let rep = run(&profiled(4, m), |cx| {
                let right = (cx.rank() + 1) % cx.nprocs();
                let left = (cx.rank() + cx.nprocs() - 1) % cx.nprocs();
                for i in 0..5 {
                    cx.charge_flops(1000.0 * ((cx.rank() + i) as f64 + 1.0));
                    cx.send(right, 9, cx.rank() as u64);
                    let _: u64 = cx.recv(left, 9);
                }
            });
            let cp = critical_path(&rep.logs, &rep.times);
            (cp.totals(), cp.by_stage(), cp.segments)
        };
        let a = go();
        let b = go();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn advance_to_gap_shows_as_idle() {
        let rep = run(&profiled(1, MachineModel::zero_comm(1e-6)), |cx| {
            cx.charge_flops(500_000.0); // 0.5 s
            cx.advance_to(2.0); // 1.5 s idle jump
            cx.charge_flops(500_000.0); // 0.5 s
        });
        let cp = critical_path(&rep.logs, &rep.times);
        let (compute, comm, idle) = cp.totals();
        assert!((compute - 1.0).abs() < 1e-9);
        assert_eq!(comm, 0.0);
        assert!((idle - 1.5).abs() < 1e-9);
    }
}
