//! The benchmark's own spans, kept in memory and written out once the
//! run ends.
//!
//! Spans are recorded around the calls the benchmark makes into the
//! program (`ModelKind::victim`, `Scenario::from_spec`,
//! `ScenarioRun::run_traced`, `SweepRunner::run_jobs`); the phase spans
//! the program reports from `run_traced` hang below the run span. A
//! scenario's spans share its top-level span as their root.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// An in-memory span list.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty list timed from now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start = self.origin.elapsed();
        self.spans.push(Span { name: name.to_owned(), parent, start, end: None });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn exit(&mut self, id: SpanId) {
        self.spans[id].end = Some(self.origin.elapsed());
    }

    /// Adds already-measured child spans of `parent`, laid end to end
    /// from its start (the program reports phase durations, not start
    /// times).
    pub fn children(&mut self, parent: SpanId, walls: &BTreeMap<String, Duration>) {
        let mut at = self.spans[parent].start;
        for (name, wall) in walls {
            let name = name.clone();
            self.spans.push(Span { name, parent: Some(parent), start: at, end: Some(at + *wall) });
            at += *wall;
        }
    }

    /// Writes one JSON object per span: id, parent, name, start and
    /// duration in microseconds.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let end = span.end.unwrap_or(span.start);
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let name = span.name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{name}\", \"start_us\": {}, \"dur_us\": {}}}",
                span.start.as_micros(),
                end.saturating_sub(span.start).as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
