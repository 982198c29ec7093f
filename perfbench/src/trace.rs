//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! it makes into a layer (in process), and around each CLI command and
//! request it sends (out of process). They stay in memory and are written
//! as Chrome trace-event JSON when the run ends. Per-layer metrics come
//! from span self time: a span's duration minus the part its children
//! cover. With recording off (the end-to-end run) every call is a no-op.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::util::json_str;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request (or program) the span serves, when there is one.
    pub req: Option<u64>,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&self, name: &str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.spans.borrow().len() as u64;
        let parent = self.stack.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            req,
        });
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.ns(Instant::now());
        self.spans.borrow_mut()[id as usize].end_ns = end;
        out
    }

    /// Records a span measured elsewhere (a request timed by a client
    /// thread), nested under the innermost open span.
    pub fn record(&self, name: &str, req: Option<u64>, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.borrow().len() as u64;
        let parent = self.stack.borrow().last().copied();
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req,
        };
        self.spans.borrow_mut().push(span);
    }

    /// Self time of every span, summed by name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (complete `X` events;
    /// the parent span and request id ride in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or("bench");
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                json_str(&s.name),
                json_str(layer),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.req.map_or("null".to_owned(), |r| r.to_string()),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", None, || {
            t.span("inner", Some(1), || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by = t.self_ms_by_name();
        assert!(by["inner"] >= 19.0, "{by:?}");
        assert!(by["outer"] < by["inner"], "{by:?}");
        let off = Tracer::new(false);
        off.span("x", None, || ());
        assert!(off.self_ms_by_name().is_empty());
    }
}
