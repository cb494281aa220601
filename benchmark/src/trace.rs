//! The benchmark's own in-memory spans.
//!
//! A span is recorded around each call into a layer: name, start, end,
//! the span that caused it, and the id of the op (deck, request, session)
//! it belongs to. Spans stay in memory until the run ends and are then
//! written to `benchmark/out/trace-<workload>.json`. A layer's self time
//! is its span's duration minus what its child spans cover. With tracing
//! off, [`Tracer::span`] is a plain call — no clock read, no allocation.

use std::time::Instant;

use layerbem_serve::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` on behalf of op `op`; spans
    /// opened by `f` through the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time (seconds) of span `index`: its duration minus its
    /// direct children's.
    pub fn self_seconds(&self, index: usize) -> f64 {
        self_seconds(&self.spans, index)
    }

    /// The trace as one JSON document (spans in record order).
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name.as_str())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

fn self_seconds(spans: &[Span], index: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::seconds)
        .sum();
    spans[index].seconds() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("round", 0, 10_000_000_000, None),
            span("parse", 0, 1_000_000_000, Some(0)),
            span("prepare", 1_000_000_000, 8_000_000_000, Some(0)),
            // A grandchild shrinks its parent's self time, not the root's.
            span("factor", 6_000_000_000, 8_000_000_000, Some(2)),
        ];
        assert!((self_seconds(&spans, 0) - 2.0).abs() < 1e-12);
        assert!((self_seconds(&spans, 1) - 1.0).abs() < 1e-12);
        assert!((self_seconds(&spans, 2) - 5.0).abs() < 1e-12);
        assert!((self_seconds(&spans, 3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nesting_records_parents_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true);
        let out = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(out, 3);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("inner", Some(0))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations("inner").len(), 2);
        assert!(t.self_seconds(0) >= 0.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
