//! The traced run's span recorder: every call the benchmark makes into
//! a layer's public functions can be wrapped in a span (name, start,
//! end, parent, request id). Spans stay in memory and are summarised
//! when the run ends; with tracing off every entry point is a no-op.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (operation) the span belongs to.
    pub request: u64,
}

/// A span recorder plus exact work counters.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans and counts are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.insert(name, value);
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every counter.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the time its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        t.enter("op");
        t.time("ir.parse", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let own = t.self_ms();
        assert!(own["ir.parse"] >= 3.0);
        assert!(own["op"] < t.total_ms("op"));
        assert!((own["op"] + own["ir.parse"] - t.total_ms("op")).abs() < 1e-6);

        let mut off = Tracer::new(false);
        off.time("ir.parse", || ());
        off.count("core.iterations", 3.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("core.iterations"), 0.0);
    }
}
