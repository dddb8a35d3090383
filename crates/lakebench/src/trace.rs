//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! crate's public functions (the outside-in trace): name, start, end, the
//! span that caused it, and the request (sample) they belong to.  Spans
//! stay in memory; the untraced mode never constructs a `Tracer`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fd.closure`.
    pub name: &'static str,
    /// The request (timed sample) this span belongs to.
    pub request: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Starts a new request: later spans carry the next identifier.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Runs `body` inside a span named `name`, nested under whichever span
    /// is currently open.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, request: self.request, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// As [`span`](Self::span) for a body that opens no spans of its own,
    /// also returning the span's duration in milliseconds.
    pub fn timed<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> (T, f64) {
        let index = self.spans.len();
        let out = self.span(name, |_| body());
        (out, self.spans[index].duration_ms())
    }

    /// Adds a top-level span that was timed elsewhere (a load-generator
    /// thread cannot share the tracer, so it reports instants instead).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let since_epoch = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            request: self.request,
            parent: None,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in milliseconds, by span index: its duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_ms).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ms();
            }
        }
        own.iter().map(|ms| ms.max(0.0)).collect()
    }

    /// Per request, the summed self time of every span called `name`
    /// (milliseconds), in request order.  Requests without such a span are
    /// absent.
    pub fn self_ms_by_request(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        let mut per_request: BTreeMap<u32, f64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            if span.name == name {
                *per_request.entry(span.request).or_insert(0.0) += own;
            }
        }
        per_request.into_values().collect()
    }

    /// Durations (milliseconds) of every span called `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_request() {
        let mut tracer = Tracer::new();
        for _ in 0..2 {
            tracer.next_request();
            tracer.span("unit", |t| {
                t.span("fd.closure", |_| std::hint::black_box((0..20_000).sum::<u64>()));
                t.span("fd.closure", |_| std::hint::black_box((0..20_000).sum::<u64>()));
            });
        }
        assert_eq!(tracer.spans().len(), 6);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[3].request, 2);
        let unit = tracer.durations_ms("unit");
        let closures = tracer.self_ms_by_request("fd.closure");
        let glue = tracer.self_ms_by_request("unit");
        assert_eq!((unit.len(), closures.len(), glue.len()), (2, 2, 2));
        for i in 0..2 {
            assert!((closures[i] + glue[i] - unit[i]).abs() < 1e-6);
        }
    }
}
