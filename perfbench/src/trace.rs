//! In-memory spans around calls into the program's public functions.
//!
//! A span records its name, start, end, parent span and an optional
//! request id (a scenario or daemon job). Spans are kept in memory while
//! the run executes and written once, when it ends. Nesting follows a
//! per-thread stack; work handed to another thread names its parent
//! explicitly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cirfix_telemetry::JsonValue;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// What was timed, e.g. `elab.elaborate`.
    pub name: &'static str,
    /// The scenario or daemon job the span belongs to.
    pub request: Option<String>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans while enabled; a disabled tracer records nothing and
/// costs one atomic load per span.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span (its end not yet set); it closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<Span>,
}

impl Guard<'_> {
    /// The span id, for children opened on other threads.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|s| s.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == span.id) {
                s.truncate(pos);
            }
        });
        self.tracer
            .spans
            .lock()
            .expect("span list poisoned")
            .push(span);
    }
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str, request: Option<&str>) -> Guard<'_> {
        let parent = STACK.with(|s| s.borrow().last().copied());
        self.span_under(name, parent, request)
    }

    /// Opens a span under an explicit parent (work on another thread).
    pub fn span_under(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<&str>,
    ) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Guard {
            tracer: self,
            open: Some(Span {
                id,
                parent,
                name,
                request: request.map(str::to_string),
                start_ns: self.now_ns(),
                end_ns: 0,
            }),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, request: Option<&str>, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, request);
        f()
    }

    /// A copy of every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in seconds of every finished span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = JsonValue::obj(vec![
                ("id", JsonValue::Uint(s.id)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::Uint)),
                ("name", JsonValue::Str(s.name.to_string())),
                ("request", s.request.map_or(JsonValue::Null, JsonValue::Str)),
                ("start_ns", JsonValue::Uint(s.start_ns)),
                ("end_ns", JsonValue::Uint(s.end_ns)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

/// Per-name totals: span count, inclusive and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time of each span's direct children.
    pub self_ns: u64,
}

/// Folds spans into per-name self time: each span's duration minus the
/// durations of its direct children. Children that ran concurrently on
/// other threads can add up to more than their parent; the parent's
/// self time then floors at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.nanos();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.nanos();
        e.self_ns += s
            .nanos()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "repair", 10, 60),
            span(3, Some(2), "sim", 20, 40),
            span(4, Some(1), "verify", 60, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_ns, 100 - 50 - 30);
        assert_eq!(t["repair"].self_ns, 50 - 20);
        assert_eq!(t["sim"].self_ns, 20);
        assert_eq!(t["verify"].total_ns, 30);
        let total_self: u64 = t.values().map(|v| v.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn concurrent_children_floor_the_parent_at_zero() {
        let spans = vec![
            span(1, None, "round", 0, 10),
            span(2, Some(1), "job", 0, 9),
            span(3, Some(1), "job", 1, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].self_ns, 0);
        assert_eq!(t["job"].count, 2);
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", Some("req-1"));
            tracer.time("inner", None, || ());
            let id = outer.id();
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.span_under("remote", id, None)));
            });
        }
        drop(tracer.span("sibling", None));
        let spans = tracer.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by("outer");
        assert_eq!(outer.request.as_deref(), Some("req-1"));
        assert_eq!(by("inner").parent, Some(outer.id));
        assert_eq!(by("remote").parent, Some(outer.id));
        assert_eq!(by("sibling").parent, None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.time("x", None, || ());
        assert!(tracer.spans().is_empty());
    }
}
