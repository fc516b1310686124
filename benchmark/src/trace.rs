//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id of
//! the window or job it belongs to. Spans are kept in memory and written to
//! `out/<workload>.trace.jsonl` when the run ends. With tracing off nothing is
//! stored; the call is still timed, because the end-to-end latencies need the
//! same clock readings.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Window or job this span belongs to.
    pub group: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: on.then(|| Mutex::new(Vec::new())),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("a span writer panicked");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Start a span that will have children; end it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, group: u64, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            group,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    pub fn close(&self, id: SpanId) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            let now = self.ns(Instant::now());
            spans.lock().expect("a span writer panicked")[id].end_ns = now;
        }
    }

    /// Run `f` as a leaf span and return its result with its wall time in
    /// seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(Span {
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (out, end.duration_since(start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(s) => s.lock().expect("a span writer panicked").clone(),
            None => Vec::new(),
        }
    }

    /// One JSON object per span: `id`, `name`, `group`, `parent`, `start_ns`,
    /// `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total and self time per span name, for the human-readable report:
/// `(name, count, total_ms, self_ms)`, sorted by name.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let self_ns = self_times_ns(spans);
    let mut rows: std::collections::BTreeMap<&'static str, (usize, f64, f64)> = Default::default();
    for (s, own) in spans.iter().zip(self_ns) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.ms();
        row.2 += own as f64 / 1e6;
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            group: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 70),
            span(Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 160), // overlaps the first by 10
            span(Some(0), 190, 250), // hangs over the parent's end by 50
            span(Some(0), 120, 130), // nested inside the first
        ];
        // Cover: [110,160) = 50 plus [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn a_disabled_tracer_stores_nothing_but_still_times() {
        let t = Tracer::new(false);
        let w = t.open("window", 1, None);
        let (v, secs) = t.time("call", 1, w, || 7);
        t.close(w);
        assert_eq!((v, w), (7, None));
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_links_children_to_parents() {
        let t = Tracer::new(true);
        let w = t.open("window", 3, None);
        t.time("call", 3, w, || ());
        t.close(w);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(by_name(&spans).len(), 2);
    }
}
