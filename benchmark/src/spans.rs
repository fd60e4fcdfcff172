//! Spans recorded from the benchmark's own files, around calls into each
//! layer's public functions. Kept in memory, written out at exit.
//!
//! One tracer serves one thread of control: a span's parent is whatever
//! span was open when it started.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation (one expansion, one request) share this.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[self.index].end_ns = now;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.index), "spans must close innermost first");
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, op_id: u64) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Time a call as one span.
    pub fn time<T>(&self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(name, op_id);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (overlapping children are not counted twice).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let me = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.duration_ns() - covered
}

/// Seconds spent in spans called `name`, per operation: total duration,
/// or self time when `own` is set. Operations come back in id order.
pub fn seconds_per_op(spans: &[Span], name: &str, own: bool) -> Vec<f64> {
    let mut per_op = std::collections::BTreeMap::<u64, u64>::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == name {
            let ns = if own {
                self_time_ns(spans, i)
            } else {
                span.duration_ns()
            };
            *per_op.entry(span.op_id).or_default() += ns;
        }
    }
    per_op.values().map(|&ns| ns as f64 / 1e9).collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("grandchild", 12, 14, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 2);
        assert_eq!(self_time_ns(&spans, 4), 2);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer", 7);
            tracer.time("inner", 7, || std::hint::black_box(1 + 1));
            tracer.time("inner", 7, || std::hint::black_box(2 + 2));
        }
        tracer.time("next", 8, || ());
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op_id)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7),
                ("next", None, 8),
            ]
        );
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(seconds_per_op(&spans, "inner", false).len(), 1);
        assert_eq!(seconds_per_op(&spans, "next", true).len(), 1);
    }
}
