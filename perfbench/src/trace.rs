//! Wall-clock spans recorded by the benchmark around its own calls
//! into each layer. Spans stay in memory and are written out once, at
//! the end of a traced run; nothing inside the program is touched.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanIdx = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The layer the span's self time is charged to.
    layer: &'static str,
    parent: Option<SpanIdx>,
    /// Shared by every span of one request (or of one run).
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Wall time spent inside the tracer's own calls.
    cost: Duration,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span from explicit instants.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanIdx>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanIdx {
        let entered = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            parent,
            id,
            start_ns,
            end_ns,
        });
        self.cost += entered.elapsed();
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanIdx>,
        id: u64,
    ) -> SpanIdx {
        let now = Instant::now();
        self.record(name, layer, parent, id, now, now)
    }

    pub fn end(&mut self, span: SpanIdx) {
        let entered = Instant::now();
        self.spans[span].end_ns = self.ns(entered);
        self.cost += entered.elapsed();
    }

    /// The traced run's wall time so far over the same time without
    /// the tracer's own calls: what recording the spans cost.
    pub fn overhead(&self) -> f64 {
        let wall = self.origin.elapsed().as_secs_f64();
        wall / (wall - self.cost.as_secs_f64()).max(f64::MIN_POSITIVE)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, seconds: each span's duration minus the
    /// part of it that its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Every span as one JSON document.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = format!("{{\"provenance\": {provenance}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \
                 \"id\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.layer,
                s.id,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let o = t.origin;
        let root = Some(t.record("run", "bench", None, 1, o, o + Duration::from_millis(10)));
        t.record("a", "router", root, 1, o, o + Duration::from_millis(4));
        t.record(
            "b",
            "report",
            root,
            1,
            o + Duration::from_millis(4),
            o + Duration::from_millis(7),
        );
        let s = t.self_seconds();
        assert!((s["bench"] - 0.003).abs() < 1e-9);
        assert!((s["router"] - 0.004).abs() < 1e-9);
        assert!((s["report"] - 0.003).abs() < 1e-9);
    }
}
