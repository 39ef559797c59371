//! In-memory span recorder. Spans are recorded by the benchmark's own code
//! around calls into each layer's public functions; they stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's time origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same (merged) span list.
    pub parent: Option<usize>,
    /// Request (or work-item) id the span belongs to.
    pub req: u64,
    /// Recording thread (client index, or 0 for in-process work).
    pub thread: usize,
}

/// Per-thread recorder. When disabled, [`Tracer::span`] only runs the
/// closure, so untraced runs pay one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an interval timed by the caller (e.g. one pipelined request
    /// whose send and reply straddle other spans).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                req,
                thread: self.thread,
            });
        }
    }

    /// Moves this recorder's spans into `into`, re-basing parent indices.
    pub fn drain_into(&mut self, into: &mut Vec<Span>) {
        let base = into.len();
        into.extend(self.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.open.clear();
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus the part covered by children).
    pub self_s: f64,
}

impl LayerTime {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64 * 1e6
        }
    }
}

/// Per-name totals and self times. A span's self time is its duration minus
/// the union of its children's intervals (children may overlap, e.g. the
/// pipelined requests of one generation).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 * 1e-9;
        e.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `req`, `thread`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"thread\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.req, s.thread
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            thread: 0,
        };
        // Parent 0..100 with overlapping children 10..50 and 30..60.
        let spans = vec![
            mk("p", 0, 100, None),
            mk("c", 10, 50, Some(0)),
            mk("c", 30, 60, Some(0)),
        ];
        let s = summarize(&spans);
        assert!((s["p"].self_s - 50e-9).abs() < 1e-15);
        assert_eq!(s["c"].count, 2);
    }
}
