//! In-memory span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer (spans inside the program are the PR 10 registry, read in
//! `layers.rs`).  Nothing is written while the benchmark measures: the
//! recorder is a `Vec` that [`SpanRecorder::write_jsonl`] dumps at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, named after the layer and the operation (`core.train`).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The decision tick the span belongs to; spans of one tick share it.
    pub tick: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose clock starts now.
    pub fn new() -> SpanRecorder {
        SpanRecorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            tick: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval that was timed by the caller (a decision tick:
    /// the serving loop takes the two clock reads itself so that the traced
    /// and the untraced passes time a tick with the same instructions).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, tick: usize) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            tick: Some(tick),
        });
    }

    /// Every span recorded so far, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`.
    pub fn total_seconds(&self, name: &str) -> Option<f64> {
        let mut matching = self.spans.iter().filter(|s| s.name == name).peekable();
        matching.peek()?;
        Some(matching.map(Span::seconds).sum())
    }

    /// Writes one JSON object per span, in start order; `parent` is the line
    /// number (0-based) of the enclosing span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(span.name.into())),
                ("start_ns".into(), Json::Num(span.start_ns as f64)),
                ("end_ns".into(), Json::Num(span.end_ns as f64)),
                ("parent".into(), opt(span.parent)),
                ("tick".into(), opt(span.tick)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut rec = SpanRecorder::new();
        let outer = rec.begin("outer");
        rec.scope("inner", || std::hint::black_box(1 + 1));
        let t0 = Instant::now();
        rec.record("tick", t0, Instant::now(), 7);
        rec.scope("inner", || ());
        let outer_s = rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(spans[2].tick, Some(7));
        let inner_s = rec.total_seconds("inner").unwrap();
        assert!(inner_s <= outer_s);
        assert_eq!(rec.total_seconds("absent"), None);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    }
}
