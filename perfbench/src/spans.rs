//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end, the span that caused it, and the op
//! it belongs to. Spans stay in memory and are written out once, when the
//! run ends. With tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Op the span belongs to (0 for set-up and other run-level work).
    pub op: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let idx = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                op,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span log poisoned")[idx].end = end;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write the spans as JSON lines, each with its self time (its
    /// duration minus the time its child spans cover).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
            let line = serde_json::json!({
                "id": i,
                "name": s.name,
                "op": s.op,
                "start_s": s.start,
                "end_s": s.end,
                "parent": s.parent,
                "self_s": self_s,
            });
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("span serializes")
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on one thread never overlap, so the
/// union is their sum, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            covered[p] += (hi - lo).max(0.0);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", 1, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times(&spans);
        assert!(selfs[0] < spans[0].secs() - 0.015);
        assert!((selfs[1] - spans[1].secs()).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
