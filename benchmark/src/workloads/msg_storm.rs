//! `msg_storm` — P=1024 processors exchanging 8-byte payloads: ring
//! rounds, then `allreduce` + `barrier` rounds. `fx-runtime` (mailbox,
//! coroutine switch, spawn and stacks) and `fx-core`'s collectives do all
//! the host work; kernels and distributed arrays do none.

use std::time::Instant;

use fx_apps::util::unit_hash;
use fx_core::spmd;

use crate::json::Json;
use crate::spans::Recorder;
use crate::workload::{PassBuilder, PassOut, Pin, Size, Workload};

const RING_TAG: u64 = 7;
/// Processor 0 reads the host clock after every so many collective
/// rounds, which cuts the pass's one `spmd` into parts
/// (`PassBuilder::cut_at`). The ring rounds are not cut: one worker runs
/// the ring as a wavefront, and processor 0 passes through all of its
/// rounds in one go once the wave comes round.
const CUT_EVERY: usize = 10;

/// What one processor brings back.
struct ProcOut {
    /// Value received in each ring round.
    ring: Vec<u64>,
    /// Result of each allreduce.
    sums: Vec<u64>,
    /// Virtual time after each round (ring rounds, then collective
    /// rounds) — read on processor 0 only.
    stamps: Vec<f64>,
    /// Host time after every [`CUT_EVERY`]th collective round, on
    /// processor 0 only.
    cuts: Vec<Instant>,
}

/// The set-up workload.
pub struct MsgStorm {
    p: usize,
    ring_rounds: usize,
    coll_rounds: usize,
    /// Each processor's 8-byte token.
    tokens: Vec<u64>,
    /// Expected allreduce result per collective round.
    sums: Vec<u64>,
    seq_s: f64,
}

/// Processor `rank`'s contribution to collective round `k`.
fn contribution(token: u64, k: usize) -> u64 {
    token.rotate_left(k as u32 % 64) ^ k as u64
}

impl MsgStorm {
    /// Generate the tokens from `seed` and the expected sums.
    pub fn setup(seed: u64, size: Size) -> MsgStorm {
        let (p, ring_rounds, coll_rounds) = match size {
            Size::Full => (1024, 120, 60),
            Size::Smoke => (64, 8, 4),
        };
        let t0 = std::time::Instant::now();
        let tokens: Vec<u64> = (0..p)
            .map(|r| (unit_hash(seed, 40, r as u64) * (1u64 << 53) as f64) as u64)
            .collect();
        let sums = (0..coll_rounds)
            .map(|k| {
                tokens
                    .iter()
                    .fold(0u64, |acc, &t| acc.wrapping_add(contribution(t, k)))
            })
            .collect();
        MsgStorm {
            p,
            ring_rounds,
            coll_rounds,
            tokens,
            sums,
            seq_s: t0.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for MsgStorm {
    fn sizes(&self) -> Json {
        Json::obj()
            .set("p", self.p)
            .set("payload_bytes", 8u64)
            .set("ring_rounds", self.ring_rounds)
            .set("allreduce_barrier_rounds", self.coll_rounds)
    }

    fn seq_s(&self) -> f64 {
        self.seq_s
    }

    fn pass(&self, pin: &Pin, rec: &mut Recorder) -> PassOut<'_> {
        let mut b = PassBuilder::new();
        let (p, ring_rounds, coll_rounds) = (self.p, self.ring_rounds, self.coll_rounds);
        let rep = rec.span("runtime", "msg_storm", |_| {
            spmd(&pin.machine(p), |cx| {
                let me = cx.id();
                let (right, left) = ((me + 1) % p, (me + p - 1) % p);
                let mut out = ProcOut {
                    ring: Vec::with_capacity(ring_rounds),
                    sums: Vec::with_capacity(coll_rounds),
                    stamps: Vec::new(),
                    cuts: Vec::new(),
                };
                // Pass-along ring: after round r a processor holds the
                // token that started r+1 places to its left.
                let mut token = self.tokens[me];
                for _ in 0..ring_rounds {
                    cx.send_v(right, RING_TAG, token);
                    token = cx.recv_v(left, RING_TAG);
                    out.ring.push(token);
                    if me == 0 {
                        out.stamps.push(cx.now());
                    }
                }
                for k in 0..coll_rounds {
                    let mine = contribution(self.tokens[me], k);
                    out.sums.push(cx.allreduce(mine, u64::wrapping_add));
                    cx.barrier();
                    if me == 0 {
                        out.stamps.push(cx.now());
                        if k % CUT_EVERY == CUT_EVERY - 1 {
                            out.cuts.push(Instant::now());
                        }
                    }
                }
                out
            })
        });
        b.cut_at(&rep.results[0].cuts);
        b.add_run(&rep);
        // A unit of work is one round; its latency is the virtual time
        // processor 0's clock advanced across it.
        let stamps = &rep.results[0].stamps;
        b.virt.op_latency_s = std::iter::once(stamps[0])
            .chain(stamps.windows(2).map(|w| w[1] - w[0]))
            .collect();

        let results = rep.results;
        b.verify(ring_rounds + coll_rounds, move || {
            let ring_bad = (0..ring_rounds)
                .filter(|&r| {
                    results
                        .iter()
                        .enumerate()
                        .any(|(me, out)| out.ring[r] != self.tokens[(me + p - (r + 1) % p) % p])
                })
                .count();
            let coll_bad = (0..coll_rounds)
                .filter(|&k| results.iter().any(|out| out.sums[k] != self.sums[k]))
                .count();
            ring_bad + coll_bad
        });
        b.finish()
    }

    fn inject_fault(&mut self) {
        self.sums[0] = self.sums[0].wrapping_add(1);
    }
}
