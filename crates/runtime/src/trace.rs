//! The Chrome-trace export of a run's event logs (see [`crate::event`]).

use crate::critical::match_recvs_to_sends;
use crate::event::{EventKind, Log};

/// Escape `s` for a JSON string (RFC 8259 §7: every control character).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Seconds → microseconds for a Chrome-trace `ts`/`dur` field. A
/// non-finite time would serialize as `NaN`/`inf` — invalid JSON that
/// Perfetto rejects — so it is clamped to 0.
fn trace_us(t: f64) -> String {
    let t = if t.is_finite() { t } else { 0.0 };
    format!("{:.3}", t * 1e6)
}

fn push_record(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(body);
}

/// `"M"` metadata records naming the process and one thread lane per
/// processor, so Perfetto shows `proc 0`, `proc 1`, … instead of bare
/// thread ids.
fn push_lane_metadata(out: &mut String, first: &mut bool, nprocs: usize) {
    if nprocs == 0 {
        return;
    }
    push_record(
        out,
        first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"fx simulated multicomputer\"}}",
    );
    for p in 0..nprocs {
        push_record(
            out,
            first,
            &format!("{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"args\":{{\"name\":\"proc {p}\"}}}}"),
        );
    }
}

/// One instant (`"i"`) record per mark.
fn push_instant_events(out: &mut String, first: &mut bool, logs: &[Log], only_trace: Option<u64>) {
    for (proc_id, log) in logs.iter().enumerate() {
        for ev in log.marks().filter(|e| only_trace.is_none_or(|t| e.trace == t)) {
            push_record(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                    escape(log.labels().get(ev.label).path()),
                    trace_us(ev.start),
                    proc_id
                ),
            );
        }
    }
}

/// Flow (`"s"`/`"f"`) event pairs for every matched send/recv pair, so
/// Perfetto draws an arrow from each send slice to the receive it
/// unblocked. The start binds at the send's end, the finish binds to the
/// *enclosing* receive slice (`"bp":"e"`) at the receive's end. When
/// `only_trace` is set, only pairs whose events both carry that trace id
/// are emitted (per-request exports). Pairs are sorted by receiver so
/// flow ids are deterministic.
fn push_flow_events(out: &mut String, first: &mut bool, logs: &[Log], only_trace: Option<u64>) {
    let mut pairs: Vec<((usize, usize), (usize, usize))> = match_recvs_to_sends(logs).into_iter().collect();
    pairs.sort_unstable();
    for (flow_id, ((rp, ri), (sp, si))) in pairs.iter().enumerate() {
        let recv = &logs[*rp].events()[*ri];
        let send = &logs[*sp].events()[*si];
        if only_trace.is_some_and(|t| send.trace != t || recv.trace != t) {
            continue;
        }
        push_record(
            out,
            first,
            &format!(
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                flow_id,
                trace_us(send.end),
                sp
            ),
        );
        push_record(
            out,
            first,
            &format!(
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                flow_id,
                trace_us(recv.end),
                rp
            ),
        );
    }
}

/// One complete duration (`"X"`) record per compute, send and recv event,
/// named by its task-region scope path.
fn push_span_events(out: &mut String, first: &mut bool, logs: &[Log], only_trace: Option<u64>) {
    for (proc_id, log) in logs.iter().enumerate() {
        for s in log.spans().filter(|e| only_trace.is_none_or(|t| e.trace == t)) {
            let (cat, fallback) = match s.kind {
                EventKind::Compute => ("compute", "compute"),
                EventKind::Send => ("comm", "send"),
                _ => ("comm", "recv"),
            };
            let name = match s.label {
                0 => fallback.to_string(),
                id => escape(log.labels().get(id).path()),
            };
            let mut args = String::new();
            if s.kind != EventKind::Compute {
                args = format!(",\"args\":{{\"peer\":{},\"tag\":{}}}", s.peer, s.tag);
            }
            push_record(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}{}}}",
                    name,
                    cat,
                    trace_us(s.start),
                    trace_us(s.dur()),
                    proc_id,
                    args
                ),
            );
        }
    }
}

/// Serialize per-processor logs as a Chrome-trace ("about:tracing" /
/// Perfetto) JSON document: `"M"` metadata records naming one lane per
/// processor; complete duration (`"X"`) events for every compute, send
/// and recv event — named by their task-region scope path, categorized
/// compute/comm (none unless the run was profiled); flow (`"s"`/`"f"`)
/// arrows from every matched send to the receive it unblocked; and one
/// instant event per mark. Open it in Perfetto to see named processor
/// lanes with nested region scopes, the pipeline overlap, and message
/// causality.
///
/// With `only_trace` set, only the events stamped with that causal trace
/// id are emitted, across all lanes — the per-request view: feed it the
/// logs of a traced serve run and a request's trace id and it shows
/// exactly where that request's latency went, hop by hop.
///
/// Times are virtual microseconds; non-finite times are clamped to 0 so
/// the output is always valid JSON. Written by hand rather than with
/// serde so labels are escaped without pulling a JSON dependency into the
/// runtime.
pub fn chrome_trace(logs: &[Log], only_trace: Option<u64>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    push_lane_metadata(&mut out, &mut first, logs.len());
    push_span_events(&mut out, &mut first, logs, only_trace);
    push_flow_events(&mut out, &mut first, logs, only_trace);
    push_instant_events(&mut out, &mut first, logs, only_trace);
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::event::Event;

    /// A log of marks at the given times.
    fn marks(at: &[(f64, &str)]) -> Log {
        let mut log = Log::default();
        for &(t, text) in at {
            let label = log.labels().intern(text);
            log.push(Event { label, ..ev(EventKind::Mark, t, t) });
        }
        log
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let a = marks(&[(0.001, "set \"start\""), (0.002, "set done")]);
        let b = marks(&[(0.0015, "other\n")]);
        let json = chrome_trace(&[a, b], None);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\\\"start\\\""), "quotes escaped: {json}");
        assert!(json.contains("\\n"), "newlines escaped");
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"ts\":1000.000"));
        // Exactly three events.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 3);
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        assert_eq!(chrome_trace(&[], None), "{\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_names_processor_lanes() {
        let json = chrome_trace(&[marks(&[(0.001, "x")]), Log::default()], None);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"proc 0\""));
        assert!(json.contains("\"name\":\"proc 1\""));
    }

    #[test]
    fn chrome_trace_clamps_non_finite_times() {
        // Regression: a NaN event time used to serialize as `"ts":NaN`,
        // which is not JSON and makes Perfetto reject the whole trace.
        let log = marks(&[(f64::NAN, "bad"), (f64::INFINITY, "worse"), (0.002, "good")]);
        let json = chrome_trace(&[log], None);
        assert!(!json.contains("NaN"), "NaN leaked into JSON: {json}");
        assert!(!json.contains("inf"), "inf leaked into JSON: {json}");
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"ts\":2000.000"));
    }

    #[test]
    fn chrome_trace_emits_duration_events() {
        let mut log = marks(&[(0.001, "mark")]);
        let g1 = log.labels().enter(0, "G1");
        let label = log.labels().enter(g1, "assign2");
        log.push(Event { label, ..ev(EventKind::Compute, 0.0, 0.001) });
        log.push(Event { peer: 1, tag: 7, arrival: 0.002, ..ev(EventKind::Send, 0.001, 0.0015) });
        let json = chrome_trace(&[log], None);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"G1/assign2\""));
        assert!(json.contains("\"cat\":\"compute\""));
        assert!(json.contains("\"cat\":\"comm\""));
        assert!(json.contains("\"args\":{\"peer\":1,\"tag\":7}"));
        assert!(json.contains("\"ph\":\"i\""), "instant marks kept alongside spans");
        assert!(json.contains("\"name\":\"proc 0\""));
    }

    fn send_recv_pair(trace: u64) -> Vec<Log> {
        let mut sender = Log::default();
        sender.push(Event { peer: 1, tag: 7, arrival: 0.002, trace, ..ev(EventKind::Send, 0.001, 0.0015) });
        let mut receiver = Log::default();
        receiver.push(Event { peer: 0, tag: 7, arrival: 0.002, trace, ..ev(EventKind::Recv, 0.002, 0.0025) });
        vec![sender, receiver]
    }

    #[test]
    fn chrome_trace_emits_flow_events_for_matched_pairs() {
        let json = chrome_trace(&send_recv_pair(0), None);
        assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish missing: {json}");
        assert!(json.contains("\"bp\":\"e\""), "finish must bind to enclosing slice");
        // Start binds at the send's end on the sender lane; finish at the
        // receive's end on the receiver lane.
        assert!(json.contains("\"ph\":\"s\",\"id\":0,\"ts\":1500.000,\"pid\":0,\"tid\":0"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":0,\"ts\":2500.000,\"pid\":0,\"tid\":1"));
    }

    #[test]
    fn chrome_trace_filters_by_trace_id() {
        let mut logs = send_recv_pair(42);
        // An unrelated compute span on the sender from a different trace.
        let label = logs[0].labels().enter(0, "other");
        logs[0].push(Event { label, trace: 7, ..ev(EventKind::Compute, 0.003, 0.004) });
        let json = chrome_trace(&logs, Some(42));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "only trace-42 spans: {json}");
        assert!(!json.contains("\"name\":\"other\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        // Filtering for an absent trace yields lanes but no events.
        let empty = chrome_trace(&logs, Some(999));
        assert!(!empty.contains("\"ph\":\"X\""));
        assert!(!empty.contains("\"ph\":\"s\""));
    }
}
