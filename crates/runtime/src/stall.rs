//! The deadlock diagnosis: who waits on whom, and what is queued.
//!
//! When the pool finds the run deadlocked (`pool.rs`, "Deadlock"), every
//! unfinished processor is parked in a receive and nothing runs, so the
//! mailboxes hold a still picture of the run: each parked receive's wait
//! edge, the registration its lane keeps ([`Mailbox::waiting`]), and
//! each mailbox's queued messages with their virtual arrivals
//! ([`Mailbox::depth_snapshot`]). [`declare`] reads it once into one text:
//!
//! * every wait edge, ascending by processor, and whether the awaited
//!   source has finished (at a deadlock, a processor with no wait edge
//!   has returned);
//! * every cycle of wait edges, named by its members — the classic
//!   mismatched-exchange deadlock;
//! * what is queued in each mailbox that holds anything.
//!
//! Nothing in it is a host time or a thread: it is keyed by processor id
//! and made of the program's messages, so the text is the same on every
//! worker count. The first processor the declaration releases panics with
//! it, and when the attached registry asks ([`crate::TelemetryConfig::stall`])
//! the registry keeps it as a [`StallReport`], readable after the run
//! died ([`crate::Telemetry::stall_reports`]).

use std::time::{Duration, Instant};

use crate::clock::ns_since;
use crate::ctx::World;
use crate::mailbox::Mailbox;

/// One processor parked in a deadlocked run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledProc {
    /// Physical rank of the parked processor.
    pub proc: usize,
    /// Source rank it is blocked receiving from.
    pub src: usize,
    /// Tag of the blocking receive.
    pub tag: u64,
}

/// A deadlock diagnosis: which processors are blocked, on whom, and what
/// is actually queued in their mailboxes.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Host time since run start when the deadlock was declared.
    pub at: Duration,
    /// The parked processors, ascending by rank.
    pub stalled: Vec<StalledProc>,
    /// The diagnosis the run panics with (see the module docs).
    pub diagnosis: String,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.1?}] {}", self.at, self.diagnosis)
    }
}

/// Declare `world`'s run deadlocked (the pool saw it so): build the
/// diagnosis, hand it to a registry that asks for it, and release every
/// parked processor to raise it.
pub(crate) fn declare(world: &World, start: Instant) {
    let (stalled, diagnosis) = diagnose(world);
    if let Some(t) = world.telemetry.as_ref().filter(|t| t.config().stall) {
        let at = Duration::from_nanos(ns_since(start));
        t.push_stall_report(StallReport { at, stalled, diagnosis: diagnosis.clone() });
    }
    world.parkers.declare_deadlock(diagnosis);
}

/// The parked processors and the diagnosis text of a deadlocked run.
fn diagnose(world: &World) -> (Vec<StalledProc>, String) {
    let edges: Vec<Option<(usize, u64)>> = world.mailboxes.iter().map(Mailbox::waiting).collect();
    let mut out = String::from("deadlock: every unfinished processor waits in a receive that no processor can satisfy");
    let mut stalled = Vec::new();
    for (proc, &(src, tag)) in edges.iter().enumerate().filter_map(|(p, e)| Some((p, e.as_ref()?))) {
        out.push_str(&format!("\nprocessor {proc} waits in recv(src={src}, tag={tag:#x})"));
        if edges[src].is_none() {
            out.push_str(&format!(" — processor {src} has finished"));
        }
        stalled.push(StalledProc { proc, src, tag });
    }
    for cycle in cycles(&edges) {
        let members: Vec<String> = cycle.iter().chain(&cycle[..1]).map(usize::to_string).collect();
        out.push_str(&format!("\nwait cycle: {}", members.join(" → ")));
    }
    let mut queued = false;
    for (proc, mb) in world.mailboxes.iter().enumerate() {
        let depths = mb.depth_snapshot();
        if !depths.is_empty() {
            out.push_str(&format!("\nqueued for processor {proc}: {depths:?}"));
            queued = true;
        }
    }
    if !queued {
        out.push_str("\nnothing is queued");
    }
    (stalled, out)
}

/// The cycles of the wait graph (each processor waits on at most one
/// source), each listed from its lowest rank in wait order, ascending by
/// that rank.
fn cycles(edges: &[Option<(usize, u64)>]) -> Vec<Vec<usize>> {
    const NEW: u8 = 0;
    const ON_PATH: u8 = 1;
    const DONE: u8 = 2;
    let mut mark = vec![NEW; edges.len()];
    let mut found = Vec::new();
    for first in 0..edges.len() {
        let (mut path, mut p) = (Vec::new(), first);
        while mark[p] == NEW {
            let Some((src, _)) = edges[p] else { break };
            mark[p] = ON_PATH;
            path.push(p);
            p = src;
        }
        if mark[p] == ON_PATH {
            let mut cycle = path[path.iter().position(|&q| q == p).expect("on the path")..].to_vec();
            let lowest = cycle.iter().enumerate().min_by_key(|&(_, &q)| q).map_or(0, |(i, _)| i);
            cycle.rotate_left(lowest);
            found.push(cycle);
        }
        path.iter().for_each(|&q| mark[q] = DONE);
    }
    found.sort_unstable();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(waits: &[Option<usize>]) -> Vec<Option<(usize, u64)>> {
        waits.iter().map(|w| w.map(|src| (src, 0))).collect()
    }

    #[test]
    fn cycles_are_found_once_from_their_lowest_rank() {
        // 0 → 3 → 1 → 0, 2 → 2, 4 → 0 (into a cycle), 5 → 6, 6 finished.
        let waits = edges(&[Some(3), Some(0), Some(2), Some(1), Some(0), Some(6), None]);
        assert_eq!(cycles(&waits), [vec![0, 3, 1], vec![2]]);
        assert!(cycles(&edges(&[None, Some(0)])).is_empty(), "a wait on a finished processor is no cycle");
    }
}
