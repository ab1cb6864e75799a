//! Host spans recorded by the benchmark around each call it makes into
//! a layer, their per-layer self times, and a Perfetto export.
//!
//! A disabled tracer runs the closure and records nothing, so the same
//! workload code serves the untraced (end-to-end) and traced
//! (per-layer) runs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (e.g. `verify.check`).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder. Spans nest through the closure passed to
/// [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Span duration minus the time covered by its child spans, summed.
    pub self_ns: u64,
    /// Number of spans of this name.
    pub calls: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per span name, over the spans recorded
    /// from index `from` on.
    pub fn layer_times(&self, from: usize) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            let t = out.entry(span.name).or_default();
            t.self_ns += (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            t.calls += 1;
        }
        out
    }

    /// The spans as a Chrome/Perfetto trace: one "host" process with one
    /// thread, a complete (`X`) event per span carrying its parent index.
    pub fn perfetto_json(&self, label: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"host\"}},\n",
        );
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"perfbench {label}\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut off = Tracer::off();
        assert_eq!(off.span("a", |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let times = t.layer_times(0);
        let outer = times["outer"];
        let inner = times["inner"];
        assert!(inner.self_ns >= 2_000_000);
        assert!(outer.self_ns < inner.self_ns, "{outer:?} vs {inner:?}");
        let json = t.perfetto_json("test");
        assert!(json.contains("\"name\":\"host\""));
        assert!(json.contains("\"parent\":0"));
    }
}
