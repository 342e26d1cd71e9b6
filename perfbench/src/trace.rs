//! In-memory spans around the benchmark's calls into the program's layers.
//!
//! A [`Tracer`] records nothing when disabled (untraced runs pay one
//! branch per call site). Enabled, each span holds a name, start and end
//! (ns since the tracer's epoch), its parent span and the id it shares
//! with the other spans of one frame or tick. Spans stay in memory until
//! [`write_spans`] puts them in a CSV file after the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer, or [`NO_SPAN`].
pub type SpanRef = u32;

/// Parent of a root span.
pub const NO_SPAN: SpanRef = u32::MAX;

/// Shared id of the spans of one frame (`session << 32 | seq`) or tick.
pub fn frame_id(session: u64, seq: u32) -> u64 {
    session << 32 | seq as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: SpanRef,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-3
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch across
    /// threads so their spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        let spans = if enabled { Vec::with_capacity(1 << 16) } else { Vec::new() };
        Self { enabled, epoch, spans }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its reference for children.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
        end: Instant,
    ) -> SpanRef {
        if !self.enabled {
            return NO_SPAN;
        }
        let span = Span { name, id, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanRef
    }

    /// Opens a span whose end is filled in later by [`Tracer::close`] —
    /// for parents recorded before their children finish.
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanRef,
        start: Instant,
    ) -> SpanRef {
        self.record(name, id, parent, start, start)
    }

    pub fn close(&mut self, span: SpanRef, end: Instant) {
        if span != NO_SPAN {
            let ns = self.ns(end);
            self.spans[span as usize].end_ns = ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_us).collect()
    }

    /// Moves `other`'s spans in, re-basing their parent references.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanRef;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    /// Ids of the spans called `name`, sorted.
    pub fn ids(&self, name: &str) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }
}

/// Checks that `ids` holds every id of `expected` exactly once and nothing
/// else; returns a description of the first discrepancy.
pub fn check_once(name: &str, ids: &[u64], expected: &[u64]) -> Result<(), String> {
    let mut want = expected.to_vec();
    want.sort_unstable();
    if ids == want.as_slice() {
        return Ok(());
    }
    let dup = ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
    Err(format!(
        "span accounting: {} `{name}` spans for {} expected ids{}",
        ids.len(),
        want.len(),
        dup.map(|d| format!(", id {d:#x} repeated")).unwrap_or_default()
    ))
}

/// Writes spans as CSV (`index,name,id,parent,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index,name,id,parent,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN { -1 } else { s.parent as i64 };
        writeln!(out, "{i},{},{},{parent},{},{}", s.name, s.id, s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let now = Instant::now();
        assert_eq!(t.record("x", 1, NO_SPAN, now, now), NO_SPAN);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.open("root", 1, NO_SPAN, epoch);
        a.record("child", 1, root, epoch, epoch);
        let mut b = Tracer::new(true, epoch);
        let broot = b.open("root", 2, NO_SPAN, epoch);
        b.record("child", 2, broot, epoch, epoch);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(a.ids("child"), vec![1, 2]);
    }

    #[test]
    fn accounting_detects_missing_and_duplicate_ids() {
        assert!(check_once("send", &[1, 2, 3], &[3, 1, 2]).is_ok());
        assert!(check_once("send", &[1, 2], &[1, 2, 3]).is_err());
        let err = check_once("send", &[1, 2, 2], &[1, 2]).unwrap_err();
        assert!(err.contains("repeated"), "{err}");
    }
}
