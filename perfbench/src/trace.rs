//! Spans of a traced run: recorded in memory from the benchmark's own
//! code around each call into a layer, written out once at the end.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or chunk) every span of one unit of work shares.
    pub request: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with `end == start`.
    pub fn set_end(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
    }

    /// Writes one JSON object per span, times in ns from the run start.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .field("id", id)
                .field("name", span.name)
                .field("start_ns", ns(span.start))
                .field("end_ns", ns(span.end))
                .field("parent", span.parent.map_or(Json::Null, Json::from))
                .field("request", span.request);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Runs `f`, returning its value and the (start, end) it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, (Instant, Instant)) {
    let start = Instant::now();
    let value = f();
    (value, (start, Instant::now()))
}

/// Seconds between a (start, end) pair.
pub fn secs((start, end): (Instant, Instant)) -> f64 {
    end.saturating_duration_since(start).as_secs_f64()
}
