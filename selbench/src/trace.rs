//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the per-layer self time computed from them.
//!
//! A span has a layer, a name, a start, an end, the span that caused it
//! and the id of the request it belongs to. Spans stay in memory until
//! the run ends; [`Tracer::write_json`] then writes them out. A layer's
//! self time is its spans' durations minus the part of each interval
//! that the span's children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Request (query) id shared by every span of one request.
    pub query: u64,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run executes the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; `None` when tracing is off.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            query,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` and record it as a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(layer, name, query, parent, start, Instant::now());
        out
    }

    /// Open a span whose children are recorded before it ends; end it
    /// with [`Tracer::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        self.record(layer, name, query, parent, start, start)
    }

    /// Set the end of an open span.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = self.ns(end);
            self.spans[id].end_ns = end.max(self.spans[id].start_ns);
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.query, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub spans: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn span_self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(span_self_ns(spans)) {
        let e = out.entry(s.layer).or_default();
        e.self_ns += self_ns;
        e.spans += 1;
    }
    out
}
