//! Spans recorded by the benchmark around its own calls into the library.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced run
//! pays only for the branch. Spans stay in memory; [`Tracer::write`] dumps
//! them as JSON lines when the run ends.

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of an open span (an index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's default parent.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
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

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        let parent = self.open.last().copied();
        self.begin_under(name, id, SpanId(parent))
    }

    /// Opens a span attributed to `parent` (used for lower layers that are
    /// re-invoked after the call whose work they replay).
    pub fn begin_under(&mut self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `span` and returns its duration in microseconds (0 when
    /// tracing is off).
    pub fn end(&mut self, span: SpanId) -> f64 {
        let Some(idx) = span.0 else {
            return 0.0;
        };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.remove(pos);
        }
        self.spans[idx].duration_ns() as f64 / 1e3
    }

    /// Per span name: (count, total µs, total self µs).
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_ns() as f64 / 1e3;
            e.2 += self_ns as f64 / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"idx\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
