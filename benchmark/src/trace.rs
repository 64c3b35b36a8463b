//! In-memory spans around the harness's calls into each crate's public
//! functions. Nothing inside the crates is instrumented: a span is a layer
//! boundary seen from outside. Spans are kept in memory and written out once,
//! when the traced run ends.

use std::time::{Duration, Instant};

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The pass and op this span belongs to: spans of one op share them.
    pub pass: usize,
    pub op: String,
    pub start: Duration,
    pub end: Duration,
}

/// Records spans when enabled; when disabled `span` only calls through, so
/// the timed passes and the traced passes run the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Per span, where its next callee-reported child is placed.
    cursors: Vec<Duration>,
    stack: Vec<usize>,
    pass: usize,
    op: String,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
            cursors: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            op: String::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    pub fn begin_op(&mut self, op: &str) {
        if self.enabled {
            self.op = op.to_string();
        }
    }

    /// Runs `work` inside a span named `name`; spans opened by `work` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let start = self.origin.elapsed();
        let index = self.open(name, start);
        let result = work(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Records a child span whose wall the callee reported (a reply's
    /// `wall_micros`, a `SynthesisRound.wall`) instead of one the harness
    /// timed. Only its duration is measured: it is placed after the previous
    /// reported child of the same parent, from the parent's start.
    pub fn reported_child<T>(
        &mut self,
        name: &'static str,
        duration: Duration,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return work(self);
        }
        let parent = *self.stack.last().expect("a reported span has a measured parent");
        let start = self.cursors[parent];
        self.cursors[parent] = start + duration;
        let index = self.open(name, start);
        self.spans[index].end = start + duration;
        let result = work(self);
        self.stack.pop();
        result
    }

    fn open(&mut self, name: &'static str, start: Duration) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            pass: self.pass,
            op: self.op.clone(),
            start,
            end: start,
        });
        self.cursors.push(start);
        self.stack.push(index);
        index
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its self time in seconds: its duration minus the part of
    /// that interval its child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> =
            self.spans.iter().map(|span| (span.end - span.start).as_secs_f64()).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= (span.end - span.start).as_secs_f64();
            }
        }
        own
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|span| {
                    Json::obj([
                        ("name", Json::str(span.name)),
                        ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("pass", Json::Num(span.pass as f64)),
                        ("op", Json::str(span.op.as_str())),
                        ("start_us", Json::Num(span.start.as_secs_f64() * 1e6)),
                        ("end_us", Json::Num(span.end.as_secs_f64() * 1e6)),
                    ])
                })
                .collect(),
        )
    }
}
