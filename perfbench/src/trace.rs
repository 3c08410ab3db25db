//! In-memory spans for the traced run, their JSON-lines dump, and the
//! per-layer self-time summary.
//!
//! Spans are recorded by the benchmark around calls into the
//! program's public entry points — never inside the program. Each
//! span has a name, start, end and parent; spans of one cell (or one
//! wire op) share a `cell` id. A span's self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span id: 1-based index into the recorder; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or step name (`xml.parse`, `wire.ttfb`, …).
    pub name: &'static str,
    /// Parent span (0 = root).
    pub parent: SpanId,
    /// The cell or op this span belongs to.
    pub cell: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// The server's `X-Request-Id` for wire spans.
    pub request_id: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. One per thread; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch` (share it across threads so
    /// merged spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, cell: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: 0,
            request_id: None,
        });
        self.spans.len() as SpanId
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        cell: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Stamps a request id on spans `from..=to`.
    pub fn tag_request(&mut self, from: SpanId, to: SpanId, request_id: u64) {
        for span in &mut self.spans[from as usize - 1..to as usize] {
            span.request_id = Some(request_id);
        }
    }

    /// Id of the most recent span (0 when empty).
    pub fn last_id(&self) -> SpanId {
        self.spans.len() as SpanId
    }

    /// Every span, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans in, renumbering their ids and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::dur_ns)
    }

    /// Per-name `(calls, self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur_ns().saturating_sub(child_ns[i + 1]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                i + 1,
                s.parent,
                s.cell,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
            if let Some(id) = s.request_id {
                write!(out, ",\"request_id\":\"{id:016x}\"")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Per-layer self-time summary of a traced campaign: one row per
/// layer span plus the residual row, which together sum to `wall_s`.
pub struct LayerTable {
    /// `(layer, calls, self seconds)`.
    pub rows: Vec<(&'static str, u64, f64)>,
    /// The wall time being decomposed.
    pub wall_s: f64,
}

impl LayerTable {
    /// Builds the table from the traced layer spans; the residual is
    /// whatever of `wall_s` the layers do not account for. Spans named
    /// in `skip` (roots that only group a cell) are left out.
    pub fn new(tracer: &Tracer, skip: &[&str], wall_s: f64) -> LayerTable {
        let rows = tracer
            .self_times()
            .into_iter()
            .filter(|(name, _)| !skip.contains(name))
            .map(|(name, (calls, ns))| (name, calls, ns as f64 / 1e9))
            .collect();
        LayerTable { rows, wall_s }
    }

    /// Sum of the layer rows.
    pub fn layer_total_s(&self) -> f64 {
        self.rows.iter().map(|r| r.2).sum()
    }

    /// `wall_s` minus the layer total.
    pub fn residual_s(&self) -> f64 {
        self.wall_s - self.layer_total_s()
    }

    /// Renders the table; the last two lines are the residual and the
    /// total, which equals `wall_s`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<34} {:>9} {:>10} {:>7}\n",
            "layer", "calls", "self_s", "share"
        );
        let share = |s: f64| 100.0 * s / self.wall_s;
        for (name, calls, s) in &self.rows {
            out.push_str(&format!(
                "{name:<34} {calls:>9} {s:>10.4} {:>6.1}%\n",
                share(*s)
            ));
        }
        let residual = self.residual_s();
        out.push_str(&format!(
            "{:<34} {:>9} {residual:>10.4} {:>6.1}%\n",
            "campaign.residual",
            "-",
            share(residual)
        ));
        out.push_str(&format!(
            "{:<34} {:>9} {:>10.4} {:>6.1}%\n",
            "total (= -j1 campaign wall)",
            "-",
            self.layer_total_s() + residual,
            100.0
        ));
        out
    }
}
