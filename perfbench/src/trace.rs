//! In-memory spans around the calls into each layer, written out at exit.

use crate::catalog::Values;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One layer call: which replayed request it served, which layer, when it
/// ran (ns from the tracer's origin), and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder. With `enabled == false` every call is a no-op, so the
/// same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, req: u64, layer: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn wrap<T>(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(req, layer, parent);
        let out = f();
        self.end(id);
        out
    }
}

pub const ROOT: SpanId = SpanId(None);

/// Per-layer self time and per-request coverage derived from spans.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Layer → (total self ns, spans).
    pub self_ns: BTreeMap<&'static str, (u64, u64)>,
    /// Layer → every span duration in ns.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// Per root span: its wall ns and the share of it its children cover.
    pub coverage: Vec<(u64, f64)>,
}

/// Requests shorter than this are below the tracer's resolution: each
/// span boundary costs about 0.1 µs, a tenth of a 5 µs request.
pub const RESOLVABLE_NS: u64 = 50_000;

impl Analysis {
    /// The lowest coverage among requests of at least [`RESOLVABLE_NS`],
    /// the mean coverage over all requests, and how many requests.
    pub fn coverage_stats(&self) -> Option<(f64, f64, u64)> {
        if self.coverage.is_empty() {
            return None;
        }
        let min = self
            .coverage
            .iter()
            .filter(|c| c.0 >= RESOLVABLE_NS)
            .map(|c| c.1)
            .fold(1.0, f64::min);
        let mean = self.coverage.iter().map(|c| c.1).sum::<f64>() / self.coverage.len() as f64;
        Some((min, mean, self.coverage.len() as u64))
    }
}

/// Sets the trace's own metrics: coverage, and each layer's self time per
/// traced request.
pub fn report(a: &Analysis, values: &mut Values) {
    if let Some((min, mean, n)) = a.coverage_stats() {
        values.set("trace.coverage_min", min, n);
        values.set("trace.coverage_mean", mean, n);
    }
    let requests = a.coverage.len().max(1) as f64;
    for (layer, &(ns, n)) in &a.self_ns {
        values.set(
            format!("trace.self_us.{layer}"),
            ns as f64 / requests / 1e3,
            n,
        );
    }
}

pub fn analyze(spans: &[Span]) -> Analysis {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut a = Analysis::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns[i]);
        let e = a.self_ns.entry(s.layer).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
        a.durations.entry(s.layer).or_default().push(dur);
        if s.parent.is_none() && dur > 0 {
            a.coverage
                .push((dur, (child_ns[i] as f64 / dur as f64).min(1.0)));
        }
    }
    a
}

/// The spans as JSON lines, one object per span, after a header line.
pub fn to_jsonl(header: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 * spans.len() + header.len() + 1);
    s.push_str(header);
    s.push('\n');
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            s,
            "{{\"id\": {i}, \"req\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            sp.req, sp.layer, sp.start_ns, sp.end_ns
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            req: 0,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_is_their_share() {
        let spans = vec![
            span("request", 0, 100, None),
            span("store.prepare", 10, 30, Some(0)),
            span("resilient.execute", 30, 90, Some(0)),
        ];
        let a = analyze(&spans);
        assert_eq!(a.self_ns["request"], (20, 1));
        assert_eq!(a.self_ns["resilient.execute"], (60, 1));
        assert_eq!(a.coverage, vec![(100, 0.8)]);
        // a 100 ns request is below the tracer's resolution
        assert_eq!(a.coverage_stats(), Some((1.0, 0.8, 1)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin(1, "request", ROOT);
        assert_eq!(t.wrap(1, "store.plan", id, || 7), 7);
        t.end(id);
        assert!(t.spans.is_empty());
    }
}
