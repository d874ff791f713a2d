//! Spans around the calls the benchmark makes into each layer.
//!
//! [`Tracer::time`] always measures the call (the untraced run needs the
//! duration for its end-to-end metrics); only a traced run also records a
//! [`Span`] — name, detail, start, end and parent — in memory. Nesting comes
//! from a per-thread stack of open spans; a worker thread continues a span of
//! its spawner through [`Tracer::adopt`]. The spans are written out once, when
//! the run ends, and a layer's self time is its spans' durations minus the
//! part of each covered by its child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Run-unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: u64,
    /// The layer call, e.g. `store.persist` or `lftj.count`.
    pub name: &'static str,
    /// What the call worked on, e.g. the query name.
    pub detail: String,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Measures calls, and records them as spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its result and its duration; records a span when
    /// tracing.
    pub fn time<T>(
        &self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            detail: detail.to_string(),
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
        (out, end - start)
    }

    /// Like [`time`](Self::time), returning the duration in milliseconds.
    pub fn ms<T>(&self, name: &'static str, detail: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, took) = self.time(name, detail, f);
        (out, took.as_secs_f64() * 1e3)
    }

    /// The innermost open span on this thread (0 if none): pass it to
    /// [`adopt`](Self::adopt) on a worker thread.
    pub fn current(&self) -> u64 {
        OPEN.with(|open| open.borrow().last().copied().unwrap_or(0))
    }

    /// Makes `parent` the enclosing span of this thread's next spans.
    pub fn adopt(&self, parent: u64) {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            open.clear();
            if parent != 0 {
                open.push(parent);
            }
        });
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Writes the spans, one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.detail, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name, in milliseconds: each span's duration minus
/// the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        *totals.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == 0 { "outer" } else { "inner" },
            detail: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of the parent's [0, 100).
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 40)];
        let totals = self_times(&spans);
        assert!((totals["outer"] - 70e-6).abs() < 1e-12);
        assert!((totals["inner"] - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn nested_calls_record_their_parent() {
        let tracer = Tracer::new(true);
        tracer.time("outer", "", || tracer.time("inner", "x", || ()));
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(Tracer::new(false).time("x", "", || 1).0 == 1);
    }
}
