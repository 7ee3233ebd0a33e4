//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, the enclosing span, and the op it
//! belongs to. Spans live in a preallocated `Vec` and are written out once,
//! when the run ends. A span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call (or `"op"` for the root span of one operation).
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Name of the root span that encloses one operation.
pub const OP: &str = "op";

/// A span recorder. Spans are pushed in the order they start.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an interval measured elsewhere; returns its index.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub(crate) fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Ends span `id` now.
    pub(crate) fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub(crate) fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// Adds `offset` to every span's op id, keeping the ops of tracers that
    /// will be merged apart.
    pub(crate) fn offset_ops(&mut self, offset: u64) {
        for span in &mut self.spans {
            span.op += offset;
        }
    }

    /// Appends another tracer's spans (same epoch), re-basing parents.
    pub(crate) fn extend(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, by span index.
    pub(crate) fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per op, the summed self time (µs) of spans named `name`, for every
    /// op that has at least one.
    pub(crate) fn per_op_self_us(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |own| own as f64 / 1e3)
    }

    /// Per op, the number of spans named `name`, for every op that has one.
    pub(crate) fn per_op_count(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |_| 1.0)
    }

    fn per_op(&self, name: &str, value: impl Fn(u64) -> f64) -> Vec<f64> {
        let own = self.self_ns();
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (span, &ns) in self.spans.iter().zip(&own) {
            if span.name == name {
                *by_op.entry(span.op).or_default() += value(ns);
            }
        }
        by_op.into_values().collect()
    }

    /// Durations (µs) of the root [`OP`] spans, in op order.
    pub(crate) fn op_us(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Time (µs) each op spent inside layer spans — its root [`OP`] span's
    /// duration minus the root's self time — in op order.
    pub(crate) fn attributed_us(&self) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == OP)
            .map(|(s, &ns)| (s.duration_ns() - ns) as f64 / 1e3)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.op, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", spans.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tracer = Tracer::new(t0);
        let root = tracer.record(OP, 1, None, at(0), at(100));
        let a = tracer.record("a", 1, Some(root), at(10), at(50));
        tracer.record("b", 1, Some(a), at(20), at(30));
        tracer.record("a", 1, Some(root), at(60), at(70));
        assert_eq!(tracer.self_ns(), vec![50_000, 30_000, 10_000, 10_000]);
        assert_eq!(tracer.per_op_self_us("a"), vec![40.0]);
        assert_eq!(tracer.per_op_count("a"), vec![2.0]);
        assert_eq!(tracer.attributed_us(), vec![50.0]);
        assert_eq!(tracer.op_us(), vec![100.0]);
    }
}
