//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out when the run ends. A disabled log records
//! nothing, so the oracle shares the layer-replay code for free.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// `"<layer>.<call>"`; `probe.*` spans are timed outside the
    /// request path and never enter the self-time attribution.
    pub name: &'static str,
    /// The enclosing span's name (`"setup"` for set-up calls).
    pub parent: &'static str,
    /// Index of the request in the stream; `None` for set-up.
    pub req: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    pub req: Option<usize>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn on() -> Self {
        SpanLog {
            enabled: true,
            req: None,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        SpanLog {
            enabled: false,
            req: None,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as span `name` under `parent` for the current request.
    pub fn time<T>(
        &mut self,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            parent,
            req: self.req,
            start,
            end: Instant::now(),
        });
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Appends the spans of one pass and round as JSON objects, times
    /// relative to `origin`.
    pub fn write_json(&self, pass: &str, round: usize, origin: Instant, out: &mut String) {
        for s in &self.spans {
            let rel = |t: Instant| t.saturating_duration_since(origin).as_nanos();
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"pass\": \"{pass}\", \"round\": {round}, \"req\": {req}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.parent,
                rel(s.start),
                rel(s.end)
            )
            .ok();
        }
    }
}
