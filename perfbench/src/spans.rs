//! In-memory spans for the traced run. Each thread records into its own
//! [`SpanLog`]; logs merge at the end and are written out once. A span's
//! layer is its name up to the first `.`; its self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared time base and id source of one traced run.
#[derive(Clone)]
pub struct Clock {
    epoch: Instant,
    ids: Arc<AtomicU64>,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the clock's epoch to `t` (0 before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn log(&self) -> SpanLog {
        SpanLog {
            clock: self.clone(),
            spans: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Free-form qualifier, e.g. the action a maintenance tick took.
    pub tag: &'static str,
    /// The request the span served (0 when none).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    pub id: u64,
    name: &'static str,
    parent: u64,
    req: u64,
    start_ns: u64,
}

pub struct SpanLog {
    clock: Clock,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open {
        Open {
            id: self.clock.ids.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            req,
            start_ns: self.clock.now_ns(),
        }
    }

    pub fn close(&mut self, open: Open, tag: &'static str) -> u64 {
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tag,
            req: open.req,
            start_ns: open.start_ns,
            end_ns,
        });
        open.id
    }

    /// Records a span whose ends were timed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.clock.ids.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name,
            tag: "",
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as one span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open, "");
        out
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, total and self time in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.tag, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            tag: "",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 90, 120),
            span(5, 2, 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 2, 30, 30, 2]);
    }
}
