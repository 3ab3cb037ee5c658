//! Host-time spans around every call the benchmark makes into a layer.
//!
//! The recorder lives in the benchmark, not in the program: a span is
//! opened around each `spmd`, each probe, each `Server::serve` and each
//! oracle check, so a layer's *self* time (its spans minus the spans
//! nested inside them) says where the host seconds of a traced run
//! went. Spans stay in memory and are written once, as a Chrome trace,
//! when the run ends.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use crate::json::Json;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`apps`, `serve`, `core`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span log. A disabled recorder records nothing and costs one
/// branch per call, so untraced runs go through the same code path.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn on() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that drops them.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::on()
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// The closed spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per key over the spans with index in
    /// `range`: each span's duration minus its direct children's.
    fn self_seconds(
        &self,
        range: Range<usize>,
        key: impl Fn(&Span) -> &str,
    ) -> BTreeMap<String, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for i in range {
            *out.entry(key(&self.spans[i]).to_string()).or_insert(0.0) += own[i] / 1e6;
        }
        out
    }

    /// Self seconds per layer over the spans in `range` (see
    /// [`Recorder::mark`]).
    pub fn self_by_layer(&self, range: Range<usize>) -> BTreeMap<String, f64> {
        self.self_seconds(range, |s| s.layer)
    }

    /// Self seconds per span name over the spans in `range`.
    pub fn self_by_name(&self, range: Range<usize>) -> BTreeMap<String, f64> {
        self.self_seconds(range, |s| &s.name)
    }

    /// Number of spans opened so far: `mark()..mark()` around a piece of
    /// work is the range of the spans it opened.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The log as a Chrome-trace document (`chrome://tracing`, Perfetto):
    /// one complete (`"X"`) event per span, the layer as category, the
    /// workload as process name, the parent index under `args`.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let mut events = vec![Json::obj()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("args", Json::obj().set("name", workload))];
        for (i, s) in self.spans.iter().enumerate() {
            let args = Json::obj()
                .set("id", i)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("workload", workload);
            events.push(
                Json::obj()
                    .set("name", s.name.as_str())
                    .set("cat", s.layer)
                    .set("ph", "X")
                    .set("ts", s.start_us)
                    .set("dur", s.end_us - s.start_us)
                    .set("pid", 1u64)
                    .set("tid", 1u64)
                    .set("args", args),
            );
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::on();
        rec.span("apps", "outer", |rec| {
            rec.span("core", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let by = rec.self_by_layer(0..rec.mark());
        let total = (rec.spans()[0].end_us - rec.spans()[0].start_us) / 1e6;
        assert!(
            (by["apps"] + by["core"] - total).abs() < 1e-9,
            "self times partition the root span"
        );
        assert!(by["core"] >= 0.020 && by["apps"] < by["core"]);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("apps", "x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
