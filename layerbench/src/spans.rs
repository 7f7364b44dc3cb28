//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the simulator is touched.
//! Each span carries a name, start, end, parent and the id shared by
//! every span of one cell or request. Spans stay in memory and are
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open: `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub pass: u32,
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads; a disabled tracer records
/// nothing, so the untraced pass runs the same code without the cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// A root scope for one pass of the workload.
    pub fn root(&self, pass: u32) -> Scope<'_> {
        Scope {
            tracer: self,
            pass,
            id: 0,
            parent: None,
        }
    }

    /// A fresh id for the spans of one cell or request.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(
        &self,
        pass: u32,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder");
        spans.push(Span {
            pass,
            id,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(spans.len() - 1)
    }

    fn end(&self, index: Option<usize>) {
        if let Some(index) = index {
            let end_ns = self.now_ns();
            self.spans
                .lock()
                .expect("span list lock poisoned by a panicking recorder")[index]
                .end_ns = end_ns;
        }
    }

    /// Every recorded span, in start order per thread.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span list lock poisoned by a panicking recorder")
    }
}

/// Where the next span goes: its pass, its cell/request id, its parent.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    pass: u32,
    id: u64,
    parent: Option<usize>,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a span named `name` that is a leaf.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.nest(name, None, |_| f())
    }

    /// Runs `f` inside a span named `name`; spans opened through the
    /// scope handed to `f` become its children. `id` starts a new cell
    /// or request; `None` keeps the current one.
    pub fn nest<T>(
        &self,
        name: &'static str,
        id: Option<u64>,
        f: impl FnOnce(Scope<'a>) -> T,
    ) -> T {
        let id = id.unwrap_or(self.id);
        let index = self.tracer.begin(self.pass, id, name, self.parent);
        let child = Scope {
            tracer: self.tracer,
            pass: self.pass,
            id,
            parent: index.or(self.parent),
        };
        let out = f(child);
        self.tracer.end(index);
        out
    }

    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }
}

/// Per-pass span analysis: totals by name, self time, and how much of
/// the pass wall the layer spans cover.
pub struct Analysis {
    /// `name → per-pass total nanoseconds`, passes in ascending order.
    pub totals: BTreeMap<&'static str, Vec<f64>>,
    /// `name → per-pass self nanoseconds` (duration minus the union of
    /// its children's intervals).
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Per pass: the union of every `layer` span's interval divided by
    /// the wall of the pass's root span.
    pub coverage: Vec<f64>,
    /// Per pass: the wall of its root span (`root` name), ns.
    pub pass_wall: Vec<f64>,
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

pub fn analyze(spans: &[Span], passes: &[u32], root: &str, layers: &[&str]) -> Analysis {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(index);
        }
    }
    let mut totals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        totals
            .entry(span.name)
            .or_insert_with(|| vec![0.0; passes.len()]);
        self_ns
            .entry(span.name)
            .or_insert_with(|| vec![0.0; passes.len()]);
    }
    let mut coverage = Vec::new();
    let mut pass_wall = Vec::new();
    for (slot, pass) in passes.iter().enumerate() {
        let mut layer_intervals = Vec::new();
        let mut wall = 0;
        for (index, span) in spans.iter().enumerate().filter(|(_, s)| s.pass == *pass) {
            totals.get_mut(span.name).expect("seeded above")[slot] += span.ns() as f64;
            let covered = union_ns(
                children[index]
                    .iter()
                    .map(|c| (spans[*c].start_ns, spans[*c].end_ns))
                    .collect(),
            );
            self_ns.get_mut(span.name).expect("seeded above")[slot] +=
                span.ns().saturating_sub(covered) as f64;
            if layers.contains(&span.name) {
                layer_intervals.push((span.start_ns, span.end_ns));
            }
            if span.name == root {
                wall += span.ns();
            }
        }
        pass_wall.push(wall as f64);
        coverage.push(if wall == 0 {
            0.0
        } else {
            union_ns(layer_intervals) as f64 / wall as f64
        });
    }
    Analysis {
        totals,
        self_ns,
        coverage,
        pass_wall,
    }
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{index},\"pass\":{},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.pass, span.id, span.name, span.start_ns, span.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn nested_spans_share_ids_and_link_parents() {
        let tracer = Tracer::new(true);
        let root = tracer.root(0);
        root.nest("pass", None, |pass| {
            pass.nest("cell", Some(7), |cell| {
                cell.time("leaf", || ());
            });
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].id, 7);
        let analysis = analyze(&spans, &[0], "pass", &["leaf"]);
        assert!(analysis.coverage[0] <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.root(0).time("leaf", || ());
        assert!(tracer.into_spans().is_empty());
    }
}
