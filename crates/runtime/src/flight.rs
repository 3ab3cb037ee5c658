//! The flight recorder: a per-processor, lock-free ring buffer holding
//! the newest of the processor's events.
//!
//! When a telemetry registry is attached, every send, receive, barrier,
//! and task-region scope transition the processor emits is also written
//! into its ring — the same [`Event`] its log would keep — beside the
//! processor's latest clock read ([`crate::counters`]), never ahead of
//! the event. The ring holds the newest [`FLIGHT_CAPACITY`] events and
//! silently overwrites older ones, so recording is bounded-overhead no
//! matter how long the run is — the point is not a full trace (the log
//! does that, post-mortem) but a *black box*: when a run panics or
//! deadlocks, the last moments before the incident are available.
//!
//! The ring is single-writer (each processor writes only its own ring)
//! and any-reader (a flight dump, an exporter, or the test harness may
//! read concurrently). Slots carry only plain words stored
//! through atomics, guarded by a per-slot sequence counter in the classic
//! seqlock pattern: the writer never blocks, and a reader that races a
//! wrapping writer simply discards the torn slot. Labels are not stored
//! inline; the event carries its id in the processor's label table, which
//! the reader resolves at dump time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::{Event, EventKind};

/// A slot: a seqlock sequence word plus the event as eight data words,
/// each stored through a relaxed atomic so concurrent reads of a slot
/// being overwritten are well-defined (the sequence check discards them).
/// Word 0 is `kind | label << 8 | peer << 32` (label ids are far below
/// 2^24); then tag, bytes, the bits of start, end and arrival, the trace
/// id, and the wall stamp.
#[derive(Default)]
struct Slot {
    /// Even = consistent, odd = mid-write; increments by 2 per overwrite.
    seq: AtomicU64,
    words: [AtomicU64; 8],
}

/// Events a ring retains (a power of two).
pub(crate) const FLIGHT_CAPACITY: usize = 256;

/// Lock-free single-writer ring of the newest [`FLIGHT_CAPACITY`] events.
pub(crate) struct FlightRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed; `head % FLIGHT_CAPACITY` is the next slot.
    head: AtomicU64,
}

impl Default for FlightRing {
    fn default() -> Self {
        FlightRing { slots: (0..FLIGHT_CAPACITY).map(|_| Slot::default()).collect(), head: AtomicU64::new(0) }
    }
}

impl FlightRing {
    /// Total events pushed over the ring's lifetime (≥ what is retained).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Append an event stamped `wall_ns` (host nanoseconds since the run
    /// started). Called only by the owning processor — one writer
    /// at a time by construction (the scheduler serializes a processor's
    /// execution across the workers it migrates over, with its queue
    /// locks ordering the handoff).
    #[inline]
    pub fn push(&self, wall_ns: u64, ev: &Event) {
        debug_assert!(ev.label < (1 << 24), "flight label id overflow");
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[h as usize % FLIGHT_CAPACITY];
        let words = [
            ev.kind as u64 | ((ev.label as u64) << 8) | ((ev.peer as u64) << 32),
            ev.tag,
            ev.bytes,
            ev.start.to_bits(),
            ev.end.to_bits(),
            ev.arrival.to_bits(),
            ev.trace,
            wall_ns,
        ];
        // Mark the slot inconsistent, publish the data, mark consistent.
        slot.seq.store(2 * h + 1, Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (h + 1), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// The retained `(wall stamp, event)` pairs, oldest first. Slots torn
    /// by a concurrent writer are skipped; once the writer has stopped
    /// (end of run, or a processor parked in a blocked receive) the
    /// snapshot is exact.
    pub fn snapshot(&self) -> Vec<(u64, Event)> {
        let h = self.head.load(Ordering::Acquire);
        let first = h.saturating_sub(FLIGHT_CAPACITY as u64);
        let mut out = Vec::with_capacity((h - first) as usize);
        for i in first..h {
            let slot = &self.slots[i as usize % FLIGHT_CAPACITY];
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 != 2 * (i + 1) {
                continue; // torn or already overwritten by a wrap
            }
            let w: [u64; 8] = std::array::from_fn(|k| slot.words[k].load(Ordering::Relaxed));
            if slot.seq.load(Ordering::Acquire) != s0 {
                continue;
            }
            // A consistent slot holds what `push` stored, so the kind byte
            // is in range; a torn one was discarded above.
            let ev = Event {
                kind: EventKind::ALL[(w[0] & 0xff) as usize],
                label: ((w[0] >> 8) & 0xff_ffff) as u32,
                peer: (w[0] >> 32) as u32,
                tag: w[1],
                bytes: w[2],
                start: f64::from_bits(w[3]),
                end: f64::from_bits(w[4]),
                arrival: f64::from_bits(w[5]),
                trace: w[6],
            };
            out.push((w[7], ev));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;

    fn send_ev(i: u64) -> Event {
        Event { peer: (i % 7) as u32, tag: i, bytes: 8 * i, ..ev(EventKind::Send, i as f64, i as f64 + 0.5) }
    }

    #[test]
    fn ring_retains_newest_in_order() {
        let ring = FlightRing::default();
        let n = FLIGHT_CAPACITY as u64 + 100;
        for i in 0..n {
            ring.push(100 * i, &send_ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY, "exactly the newest capacity events");
        for (k, slot) in snap.iter().enumerate() {
            let i = 100 + k as u64;
            assert_eq!(*slot, (100 * i, send_ev(i)), "slot {k}");
        }
        assert_eq!(ring.pushed(), n);
    }

    #[test]
    fn ring_below_capacity_is_exact() {
        let ring = FlightRing::default();
        for i in 0..5u64 {
            ring.push(i, &send_ev(i));
        }
        assert_eq!(ring.snapshot().len(), 5);
    }

    #[test]
    fn every_field_survives_the_ring() {
        let ring = FlightRing::default();
        let enter = Event {
            kind: EventKind::Enter,
            label: 0x1234,
            peer: u32::MAX,
            tag: u64::MAX,
            bytes: 3,
            start: 1.5,
            end: 2.5,
            arrival: 2.75,
            trace: 0xfeed,
        };
        ring.push(77, &enter);
        assert_eq!(ring.snapshot(), vec![(77, enter)]);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_slots() {
        use std::sync::Arc;
        let ring = Arc::new(FlightRing::default());
        let r2 = Arc::clone(&ring);
        let writer = std::thread::spawn(move || {
            for i in 0..20_000u64 {
                // Every word derives from i, so a reader can validate
                // slot consistency independently of the seqlock.
                let ev = Event {
                    kind: EventKind::Send,
                    label: (i & 0xffff) as u32,
                    peer: 1,
                    tag: i,
                    bytes: i.wrapping_mul(3),
                    start: f64::from_bits(i.wrapping_mul(11)),
                    end: f64::from_bits(i.wrapping_mul(13)),
                    arrival: f64::from_bits(i.wrapping_mul(17)),
                    trace: i.wrapping_mul(7),
                };
                r2.push(i.wrapping_mul(5), &ev);
            }
        });
        for _ in 0..200 {
            for (wall, ev) in ring.snapshot() {
                let i = ev.tag;
                assert_eq!(ev.label, (i & 0xffff) as u32, "torn slot escaped");
                assert_eq!(ev.bytes, i.wrapping_mul(3), "torn slot escaped");
                assert_eq!(wall, i.wrapping_mul(5), "torn slot escaped");
                assert_eq!(ev.trace, i.wrapping_mul(7), "torn slot escaped");
                assert_eq!(ev.start.to_bits(), i.wrapping_mul(11), "torn slot escaped");
                assert_eq!(ev.end.to_bits(), i.wrapping_mul(13), "torn slot escaped");
                assert_eq!(ev.arrival.to_bits(), i.wrapping_mul(17), "torn slot escaped");
            }
        }
        writer.join().unwrap();
    }
}
