//! The benchmark's own span log: one span per call into a layer, recorded in
//! memory around the call and written out once when the run ends. Nothing in
//! the crates under test is instrumented for it.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Identifier of a span inside one log; 0 means "no parent".
pub type SpanId = u32;

/// One timed interval. `cycle` is the identifier all spans of one driver
/// period share; `parent` is the span that caused this one.
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub cycle: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Bounded in-memory span store.
pub struct SpanLog {
    spans: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    /// A log that keeps the first `cap` spans and drops the rest, so the
    /// trace file stays small at any run length.
    pub fn new(cap: usize) -> Self {
        SpanLog {
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// True while another cycle's worth of spans still fits.
    pub fn has_room(&self) -> bool {
        self.spans.len() + 16 <= self.cap
    }

    /// Record a span; returns its id for children to name as parent.
    pub fn push(
        &mut self,
        parent: SpanId,
        cycle: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            cycle,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Write the log as one JSON object: `{"workload", "spans": [...]}`.
    /// Each span carries its self time (duration minus the part its
    /// children cover), so a reader needs no second pass.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut covered: HashMap<SpanId, u64> = HashMap::new();
        for s in &self.spans {
            *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let children = covered.get(&s.id).copied().unwrap_or(0);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"cycle\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}{sep}",
                s.id,
                s.parent,
                s.cycle,
                s.name,
                s.start_ns,
                s.end_ns,
                dur as i64 - children as i64,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
