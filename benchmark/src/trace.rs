//! The benchmark's own span recorder. Spans are taken around calls
//! into each crate's public functions (the layer boundaries visible
//! from outside), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans beyond this many are counted but not kept, so a traced run
/// stays bounded in memory.
const MAX_SPANS: usize = 400_000;
/// The trace file lists this many spans in full; the self-time table
/// above them covers every span kept.
const MAX_SPANS_WRITTEN: usize = 20_000;

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds. The clock reads bracket `f`
    /// directly, so bookkeeping is charged to the parent, not the span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let keep = self.spans.len() < MAX_SPANS;
        let id = self.spans.len() as u32;
        if keep {
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                request,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(id);
        } else {
            self.dropped += 1;
        }
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        if keep {
            self.stack.pop();
            let span = &mut self.spans[id as usize];
            span.start_ns = start;
            span.end_ns = end;
        }
        (out, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans_kept\": {}, \"spans_dropped\": {}, \"self_time_ns\": {{",
            self.spans.len(),
            self.dropped
        )?;
        let totals = self_times(&self.spans);
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "}}, \"spans\": [")?;
        let written = &self.spans[..self.spans.len().min(MAX_SPANS_WRITTEN)];
        for (i, s) in written.iter().enumerate() {
            let sep = if i + 1 == written.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval that child spans cover.
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus the union
/// of its children's intervals clipped to it, so children that overlap
/// one another (work fanned out and joined) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, None, "request", 0, 100),
            // Two children overlap on [30, 40): union covers [10, 60).
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            // A grandchild only reduces its own parent.
            span(3, Some(1), "c", 15, 25),
            // A child sticking out past its parent is clipped.
            span(4, Some(0), "d", 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - 50 - 10);
        assert_eq!(t["a"].self_ns, 30 - 10);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
        assert_eq!(t["request"].total_ns, 100);
    }

    #[test]
    fn tracer_nests_spans_and_tags_requests() {
        let mut tr = Tracer::new();
        let ((), outer_ns) = tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(outer_ns, spans[0].end_ns - spans[0].start_ns);
    }
}
