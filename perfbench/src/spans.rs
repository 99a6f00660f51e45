//! In-memory span recorder. Spans are recorded from the benchmark's own
//! code around calls into the library, kept in memory and written once
//! at the end; self times are derived from them by `run.py`.

use std::io::Write;
use std::time::Instant;

/// One recorded call: `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder. A disabled recorder keeps nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin;
    /// fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Tracer {
            origin: self.origin,
            on: self.on,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Time `f` as a span `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Append the spans of a forked recorder; its root spans become
    /// children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    /// Write the spans as JSON: `[[name, start_ns, end_ns, parent], …]`
    /// with `parent` an index into the list or -1.
    pub fn write_json(&self, mut out: impl Write) -> std::io::Result<()> {
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{sep}[\"{}\",{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}
