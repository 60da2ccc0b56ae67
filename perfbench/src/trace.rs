//! The benchmark's clock, and the spans and counts it records around
//! calls into the workspace crates.
//!
//! Nothing inside the program is instrumented: every span here wraps a
//! public call made from the benchmark's own code. Spans (name, start,
//! end, parent) and counts stay in memory and are written out once, when
//! the run ends. Calls made once per shard or per frame are too many to
//! keep one span each, so they accumulate into a per-name total (seconds
//! and calls) under the span that was open while they ran.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Reads the wall clock. Every duration the benchmark reports starts here.
pub fn now() -> Instant {
    // lint: allow(no-wall-clock) the benchmark's one clock read; it times the program from outside
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Total {
    seconds: f64,
    calls: u64,
    parent: Option<usize>,
}

/// An in-memory trace. A disabled trace records nothing, so the same
/// code path serves the untraced (end-to-end) and traced runs.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: BTreeMap<&'static str, Total>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A trace that records spans and counts.
    pub fn on() -> Trace {
        Trace {
            enabled: true,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A trace that records nothing.
    pub fn off() -> Trace {
        Trace {
            enabled: false,
            ..Trace::on()
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.ns(now());
        self.spans[index].end_ns = end_ns;
        out
    }

    /// Times `f` into the running total `name` (one call), under the
    /// innermost open span.
    pub fn add<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = now();
        let out = f();
        let seconds = secs_since(start);
        let parent = self.open.last().copied();
        let total = self.totals.entry(name).or_default();
        total.seconds += seconds;
        total.calls += 1;
        total.parent = parent;
        out
    }

    /// Records a count (bytes, lines, frames, ...) or a derived ratio.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.insert(name, value);
        }
    }

    /// Total seconds spent in spans and running totals called `name`;
    /// `None` when nothing by that name was recorded.
    pub fn seconds(&self, name: &str) -> Option<f64> {
        let mut spans = self.spans.iter().filter(|s| s.name == name).peekable();
        let total = self.totals.get(name);
        if spans.peek().is_none() && total.is_none() {
            return None;
        }
        let in_spans: f64 = spans.map(|s| (s.end_ns - s.start_ns) as f64 / 1e9).sum();
        Some(in_spans + total.map_or(0.0, |t| t.seconds))
    }

    /// The count recorded under `name`, if any.
    pub fn count_of(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }

    /// Writes every span, total, and count as JSON lines.
    ///
    /// # Errors
    ///
    /// The file system error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let parent = |p: Option<usize>| p.map_or("null".to_owned(), |p| p.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent(s.parent)
            );
        }
        for (name, t) in &self.totals {
            let _ = writeln!(
                out,
                "{{\"total\":\"{name}\",\"seconds\":{},\"calls\":{},\"parent\":{}}}",
                t.seconds,
                t.calls,
                parent(t.parent)
            );
        }
        for (name, value) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_but_runs_the_work() {
        let mut trace = Trace::off();
        let v = trace.span("a", |t| t.add("b", || 7));
        trace.count("c", 1.0);
        assert_eq!(v, 7);
        assert_eq!(trace.seconds("a"), None);
        assert_eq!(trace.count_of("c"), None);
    }

    #[test]
    fn spans_nest_and_totals_sum() {
        let mut trace = Trace::on();
        trace.span("outer", |t| {
            t.span("inner", |_| ());
            t.add("loop", || ());
            t.add("loop", || ());
        });
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.totals["loop"].calls, 2);
        assert_eq!(trace.totals["loop"].parent, Some(0));
        assert!(trace.seconds("outer") >= trace.seconds("inner"));
        assert!(trace.seconds("loop").is_some());
        assert_eq!(trace.seconds("missing"), None);
    }
}
