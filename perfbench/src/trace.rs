//! In-memory spans recorded around calls into the program's layers.
//!
//! Every span is a `(name, key, parent, start, end)` record relative to the
//! trial's origin. The tracer always measures durations, because the
//! end-to-end metrics need them too, but it keeps spans only when tracing
//! is on; they are written out once, after the measurement ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub key: String,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Handle of an open span; `slot` is `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, key: &str, parent: Option<Open>) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                name,
                key: key.to_string(),
                parent: parent.and_then(|p| p.slot),
                start,
                end: start,
            });
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end = end;
        }
        end - open.start
    }

    /// Records an already-timed span (client round trips).
    pub fn record(
        &mut self,
        name: &'static str,
        key: String,
        parent: Option<Open>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                key,
                parent: parent.and_then(|p| p.slot),
                start,
                end,
            });
        }
    }

    /// Spans named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"key\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.key,
                ns(s.start),
                ns(s.end)
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
