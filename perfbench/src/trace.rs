//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: name, start, end, parent span and request
//! id; counts (bytes parsed, nodes checked) are recorded at the same
//! boundaries. Spans stay in memory until the run ends and are then
//! written out as JSON lines. With tracing off, [`Tracer::span`] is a
//! plain call and [`Tracer::count`] does nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
struct Span {
    id: u64,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u64>,
    req: u64,
}

/// Records the spans of the benchmark's one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: Cell<u64>,
    /// Open spans, innermost last.
    open: RefCell<Vec<u64>>,
    spans: RefCell<Vec<Span>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: Cell::new(1),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.fresh_id();
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(Span { id, name, start, end, parent, req });
        out
    }

    /// Records an interval measured elsewhere (e.g. a request's latency
    /// from its due time), under the current span.
    pub fn record(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.fresh_id();
        let parent = self.open.borrow().last().copied();
        let start = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span { id, name, start, end, parent, req });
    }

    /// Adds `n` to the count `name`.
    pub fn count(&self, name: &'static str, n: usize) {
        if self.on {
            *self.counts.borrow_mut().entry(name).or_default() += n as f64;
        }
    }

    pub fn count_of(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it that its children cover (concurrent requests'
    /// spans overlap, so coverage is a union, not a sum).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_within(c, s.start, s.end));
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64 * 1e-9).sum()
    }

    /// Writes every span as one JSON object per line, after a header line.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let spans = self.spans.borrow();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.id, s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}
