//! Host-time spans recorded by the benchmark around each public call it
//! makes into a layer of the workspace.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run, as a Chrome trace that `memcomm_obs::chrome::validate` (the
//! `tracecheck` binary's check) accepts. With tracing off every
//! [`Tracer::enter`] is a single branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use memcomm_obs::span::TraceEvent;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder of one benchmark run.
pub struct Tracer {
    enabled: AtomicBool,
    /// Shared by every span of the run; becomes the trace's process id.
    pub run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        self.tracer
            .spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .push(Span {
                id: self.id,
                parent: self.parent,
                layer: self.layer,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
    }
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the current thread's innermost open span.
    pub fn enter(&self, layer: &'static str, name: &'static str) -> Option<Guard<'_>> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Some(Guard {
            tracer: self,
            id,
            parent,
            layer,
            name,
            start_ns: self.now_ns(),
        })
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(layer, name);
        f()
    }

    /// The current thread's innermost open span.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Makes `parent` (a span open on another thread) the parent of the
    /// spans this thread opens next.
    pub fn adopt(&self, parent: Option<u64>) {
        if let Some(parent) = parent {
            OPEN.with(|open| open.borrow_mut().push(parent));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .clone()
    }
}

/// Self time per layer in milliseconds: each span's duration minus the
/// part of it that its child spans cover.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    out
}

/// Spans of one layer and name that go into the Chrome trace. The
/// workspace's JSON parser, which `tracecheck` validates with, re-checks
/// the UTF-8 of the whole remaining document for every string character,
/// so its time grows with the square of the file size; a bounded file
/// keeps the check to a fraction of a second. Self times use every span.
pub const EXPORT_PER_NAME: usize = 16;

/// Renders the first [`EXPORT_PER_NAME`] spans of each layer and name as
/// a Chrome trace (microsecond timestamps, one track per layer, the run id
/// as process id).
pub fn chrome_trace(spans: &[Span], run_id: u64, label: &str) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| s.start_ns);
    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let events: Vec<TraceEvent> = sorted
        .into_iter()
        .filter(|s| {
            let n = seen.entry((s.layer, s.name)).or_default();
            *n += 1;
            *n <= EXPORT_PER_NAME
        })
        .map(|s| TraceEvent {
            pid: run_id,
            track: s.layer,
            name: s.name.to_string(),
            ts: s.start_ns / 1000,
            dur: Some((s.end_ns - s.start_ns) / 1000),
            value: None,
        })
        .collect();
    let labels = BTreeMap::from([(run_id, label.to_string())]);
    memcomm_obs::chrome::render(&events, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_the_trace_validates() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                layer: "harness",
                name: "step",
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                id: 2,
                parent: Some(1),
                layer: "netsim",
                name: "run",
                start_ns: 1_000_000,
                end_ns: 5_000_000,
            },
            Span {
                id: 3,
                parent: Some(1),
                layer: "netsim",
                name: "run",
                start_ns: 4_000_000,
                end_ns: 6_000_000,
            },
        ];
        let own = self_ms_by_layer(&spans);
        assert!((own["harness"] - 5.0).abs() < 1e-9, "{own:?}");
        assert!((own["netsim"] - 6.0).abs() < 1e-9, "{own:?}");
        let text = chrome_trace(&spans, 7, "test");
        let stats = memcomm_obs::chrome::validate(&text).expect("valid trace");
        assert_eq!(stats.spans, 3);
    }

    #[test]
    fn nested_guards_record_parents() {
        let tracer = Tracer::new(true, 1);
        {
            let _outer = tracer.enter("harness", "outer");
            tracer.span("memsim", "inner", || ());
        }
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(Tracer::new(false, 1).enter("x", "y").is_none());
    }
}
