//! Outside-in span recording: the benchmark wraps its own calls into each
//! layer's public functions, keeps the spans in memory, and writes them as
//! Chrome-trace JSON when the run ends. Nothing inside the crates is
//! instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, used to name it as another span's parent.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>`, e.g. `serving.serve_round`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin; `start_ns` while still open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log. A disabled recorder reads no clock and stores nothing,
/// so the untraced pass pays only a branch per call site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name` among those recorded from
    /// span index `from` on (a lap's spans start where the log stood before).
    pub fn durations_ns(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Cost of recording one span, measured on a scratch recorder: the basis
    /// of the computed `trace_overhead_share`.
    pub fn cost_per_span_ns() -> f64 {
        const N: usize = 20_000;
        let mut scratch = Recorder::new(true, Instant::now());
        scratch.spans.reserve(N);
        let start = Instant::now();
        for i in 0..N {
            let id = scratch.begin("calibration", None, i as u64);
            scratch.end(id);
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals of a span log: `(count, total_ns, self_ns)`.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(span.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += span.duration_ns();
        row.2 += self_ns;
    }
    rows
}

/// Share of a parent's time its children do not account for:
/// `(parent − Σ children) / parent`. Negative when the children, timed in
/// isolation, cost more than they do inside the parent.
pub fn residual_share(parent: f64, children: &[f64]) -> f64 {
    if parent <= 0.0 {
        return 0.0;
    }
    (parent - children.iter().sum::<f64>()) / parent
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
/// complete (`X`) events, one track per request.
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.request,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` on [20, 30): that stretch is covered once.
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild covers its parent `c`, never the root.
            span("d", 62, 66, Some(3)),
            // Clipped to the parent's interval.
            span("e", 90, 120, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 10 - 4);
        assert_eq!(selfs[4], 4);
        let rows = ledger(&spans);
        assert_eq!(rows["root"], (1, 100, 40));
    }

    #[test]
    fn residual_is_parent_minus_children_over_parent() {
        assert_eq!(residual_share(100.0, &[60.0, 30.0]), 0.1);
        assert_eq!(residual_share(100.0, &[70.0, 50.0]), -0.2);
        assert_eq!(residual_share(0.0, &[1.0]), 0.0);
    }

    #[test]
    fn disabled_recorder_stores_nothing_and_nested_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut off = Recorder::new(false, origin);
        assert_eq!(off.span("x", None, 0, || 7), 7);
        assert!(off.spans().is_empty());

        let mut main = Recorder::new(true, origin);
        let root = main.begin("root", None, 0);
        let outer = main.begin("outer", root, 1);
        let inner = main.begin("inner", outer, 1);
        main.end(inner);
        main.end(outer);
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let json = render_chrome_trace(spans);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(serde_json::from_str(&json).is_ok());
        assert_eq!(main.durations_ns("inner", 0).len(), 1);
        assert!(main.durations_ns("inner", 3).is_empty());
    }
}
