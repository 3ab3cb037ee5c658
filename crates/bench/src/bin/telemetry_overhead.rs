//! Host-time overhead of the live telemetry layer, on the same
//! credit-windowed fan-in pattern as `msg_microbench`.
//!
//! Telemetry must be cheap enough to leave on in deployment. This bin
//! runs the chunk-path fan-in at P=64 with telemetry off and on
//! (interleaved, best-of-N per leg so scheduler noise cancels), prints
//! the delta, asserts the budgets (skipped under `--smoke`), and emits
//! `BENCH_telemetry.json`.
//!
//! The budget is **absolute**: what an observer costs per message,
//! `(on_ns - off_ns) / msgs`, and what an observed message costs,
//! `on_ns / msgs`. It used to be relative (< 5 % of the off leg), with
//! both legs reading the host clock four times a message, so the ratio
//! measured the registry's bookkeeping alone: 103 ns on a 2 252 ns
//! message. An unobserved run no longer reads the clock, so the off leg
//! is cheaper, the same observer is a larger share of it, and the ratio
//! would fail for a reason that is no regression. `overhead_frac` is
//! still recorded; winning the 5 % back is the single-event-stream
//! work's to do (ROADMAP item 2), by making the observed path cheaper.
//!
//! Run with:
//! `cargo run --release -p fx-bench --bin telemetry_overhead [-- --smoke]`

use std::sync::Arc;
use std::time::Instant;

use fx_runtime::{run, Machine, Telemetry, TelemetryConfig};

const TAG_DATA: u64 = 1;
const TAG_ACK: u64 = 2;

/// Observer budget, host ns per message: the 103 ns of registry
/// bookkeeping last recorded with the clocks on both legs
/// (`BENCH_telemetry.json` before this budget: on 74 766 785 - off
/// 71 503 273 ns over 31 744 messages), the four clock reads per message
/// (two in the send, two in the receive, ~36 ns each) that only an
/// observed run still makes, and 100 ns of headroom for a threaded P=64
/// run on a two-core host.
const OBSERVER_BUDGET_NS_PER_MSG: f64 = 103.0 + 4.0 * 36.0 + 100.0;

/// An observed message must cost no more than it did in that recording
/// (74 766 785 ns / 31 744 messages): observing got no slower.
const OBSERVED_BUDGET_NS_PER_MSG: f64 = 2355.0;

/// One chunk-path fan-in run; returns the receiver's nanoseconds over
/// the measured rounds (identical pattern to `msg_microbench`).
fn fan_in_ns(machine: &Machine, fan_in: usize, elems: usize, rounds: usize) -> f64 {
    let window = ((1usize << 25) / (fan_in * elems * 8)).clamp(4, 64);
    let warmup = 2 * window;
    let rep = run(machine, move |cx| {
        let me = cx.rank();
        if me == 0 {
            let mut ends = [0.0f64; 2];
            let mut sink = 0.0f64;
            let mut t = Instant::now();
            for round in 0..warmup + rounds {
                if round == warmup {
                    t = Instant::now();
                }
                for src in 1..=fan_in {
                    let chunk = cx.recv_chunk(src, TAG_DATA);
                    chunk.read_into(0, &mut ends[..1]);
                    chunk.read_into(elems - 1, &mut ends[1..]);
                    cx.send_chunk(src, TAG_ACK, chunk);
                    assert_eq!(ends[0], (src * elems) as f64, "first element corrupt");
                    sink += ends[1];
                }
            }
            let ns = t.elapsed().as_nanos() as f64;
            assert!(sink.is_finite());
            ns
        } else if me <= fan_in {
            let data: Vec<f64> = (0..elems).map(|i| (me * elems + i) as f64).collect();
            let mut in_flight = 0usize;
            for round in 0..warmup + rounds {
                // Stamp a fresh trace context each round (no-op when
                // tracing is off) so the traced leg pays the full
                // piggyback + adoption path on every message.
                cx.set_trace(round as u64 + 1);
                if in_flight == window {
                    let c = cx.recv_chunk(0, TAG_ACK);
                    cx.release_chunk(c);
                    in_flight -= 1;
                }
                let mut c = cx.chunk_for::<f64>(elems);
                c.push_slice(&data);
                cx.send_chunk(0, TAG_DATA, c);
                in_flight += 1;
            }
            while in_flight > 0 {
                let c = cx.recv_chunk(0, TAG_ACK);
                cx.release_chunk(c);
                in_flight -= 1;
            }
            0.0
        } else {
            0.0
        }
    });
    // Exercise the merged-totals path on every telemetry run so the bench
    // doubles as a smoke test for the final snapshot: every message here
    // is a chunk, and the snapshot reads the report's own counter blocks.
    if let Some(snap) = &rep.telemetry {
        let total = snap.total();
        assert_eq!(total.sends, total.chunk_msgs, "every message rides the chunk path");
        assert_eq!(snap.per_proc, rep.counters, "registry vs report rows");
    }
    rep.results[0]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // P=64, 31 senders, 8 KB messages: the contended mid-size regime
    // where per-message overhead (what telemetry adds to) matters most.
    let (p, fan_in, elems) = if smoke { (8, 7, 256) } else { (64, 31, 1024) };
    let rounds = if smoke { 64 } else { 512 };
    let reps = if smoke { 2 } else { 15 };

    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig {
        // Stall sampling off for the measured legs: the budget is about
        // the per-message hot path, not a background thread stealing an
        // oversubscribed core's cycles.
        stall: false,
        ..TelemetryConfig::default()
    }));
    let off = Machine::real(p);
    let on = Machine::real(p).with_telemetry(Arc::clone(&telemetry));
    let traced = Machine::real(p).with_telemetry(Arc::clone(&telemetry)).with_tracing(true);

    // Interleave off/on/traced legs; best-of-N per leg is the least
    // noisy observation of the same deterministic work on a shared host.
    let (mut off_ns, mut on_ns, mut trace_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        off_ns = off_ns.min(fan_in_ns(&off, fan_in, elems, rounds));
        on_ns = on_ns.min(fan_in_ns(&on, fan_in, elems, rounds));
        trace_ns = trace_ns.min(fan_in_ns(&traced, fan_in, elems, rounds));
    }

    let bytes = (rounds * fan_in * elems * 8) as f64;
    let gibs = |ns: f64| bytes / ns * 1e9 / (1u64 << 30) as f64;
    let overhead = on_ns / off_ns - 1.0;
    // One data chunk and one acknowledgement per sender per round.
    let msgs = (2 * rounds * fan_in) as f64;
    let (observer_ns, observed_ns) = ((on_ns - off_ns) / msgs, on_ns / msgs);
    // Tracing rides on top of telemetry in deployment, so its budget is
    // measured against the telemetry-on leg: what does stamping,
    // piggybacking and adopting a trace context per message add?
    let trace_overhead = trace_ns / on_ns - 1.0;

    println!(
        "P={p} fan_in={fan_in} msg={} B rounds={rounds} (best of {reps}):",
        elems * 8
    );
    println!("  telemetry off: {off_ns:>12.0} ns  {:.3} GiB/s", gibs(off_ns));
    println!("  telemetry on : {on_ns:>12.0} ns  {:.3} GiB/s", gibs(on_ns));
    println!("  + tracing    : {trace_ns:>12.0} ns  {:.3} GiB/s", gibs(trace_ns));
    println!("  observer     : {observer_ns:.0} ns/msg (budget < {OBSERVER_BUDGET_NS_PER_MSG:.0})");
    println!("  observed msg : {observed_ns:.0} ns/msg (budget <= {OBSERVED_BUDGET_NS_PER_MSG:.0})");
    println!("  overhead     : {:+.2}% of the off leg (recorded, not a budget)", overhead * 100.0);
    println!("  trace ovhd   : {:+.2}% over telemetry (budget < 5%)", trace_overhead * 100.0);
    let total = telemetry.total();
    println!(
        "  final registry: {} sends, {} recvs, {} chunk bytes",
        total.sends, total.recvs, total.chunk_bytes
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"pattern\": \"credit_windowed_fan_in_chunk\",\n  \
         \"executor\": \"{}\",\n  \"dataflow\": \"{}\",\n  \"heartbeat\": \"{}\",\n  \
         \"p\": {p},\n  \"fan_in\": {fan_in},\n  \"msg_bytes\": {},\n  \"rounds\": {rounds},\n  \
         \"reps\": {reps},\n  \"off_ns\": {off_ns:.0},\n  \"on_ns\": {on_ns:.0},\n  \
         \"trace_ns\": {trace_ns:.0},\n  \
         \"off_gib_s\": {:.3},\n  \"on_gib_s\": {:.3},\n  \"overhead_frac\": {overhead:.4},\n  \
         \"observer_ns_per_msg\": {observer_ns:.0},\n  \
         \"observer_budget_ns_per_msg\": {OBSERVER_BUDGET_NS_PER_MSG:.0},\n  \
         \"observed_ns_per_msg\": {observed_ns:.0},\n  \
         \"observed_budget_ns_per_msg\": {OBSERVED_BUDGET_NS_PER_MSG:.0},\n  \
         \"trace_overhead_frac\": {trace_overhead:.4},\n  \
         \"trace_budget_frac\": 0.05\n}}\n",
        off.executor,
        off.dataflow,
        off.heartbeat,
        elems * 8,
        gibs(off_ns),
        gibs(on_ns),
    );
    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    println!("\nwrote BENCH_telemetry.json");

    if !smoke {
        assert!(
            observer_ns < OBSERVER_BUDGET_NS_PER_MSG,
            "an attached registry must cost under {OBSERVER_BUDGET_NS_PER_MSG:.0} ns/msg: measured {observer_ns:.0}"
        );
        assert!(
            observed_ns <= OBSERVED_BUDGET_NS_PER_MSG,
            "an observed message must cost at most {OBSERVED_BUDGET_NS_PER_MSG:.0} ns: measured {observed_ns:.0}"
        );
        assert!(
            trace_overhead < 0.05,
            "tracing must stay within 5% of the telemetry-on leg: measured {:+.2}%",
            trace_overhead * 100.0
        );
    }
}
