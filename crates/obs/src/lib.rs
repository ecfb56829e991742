//! # memcomm-obs — per-run observability for the simulator stack
//!
//! Zero-dependency (beyond `memcomm-util`) observability: cycle-accurate
//! spans, a per-run [`MetricsRegistry`] and exporters to Chrome
//! `trace_event` JSON ([`chrome`]) and a deterministic text flamegraph
//! ([`flame`]).
//!
//! ## The `Obs` handle
//!
//! Everything hangs off an [`Obs`] handle. A *disabled* handle (the
//! default) is a `None` — every recording call is a single branch, no
//! locks, no allocation, so instrumented simulators cost nothing when
//! nobody is watching. An *enabled* handle owns one run's registry and
//! (optionally) a trace sink behind an `Arc`, so clones are cheap and every
//! component of a co-simulation records into the same run.
//!
//! Handles travel two ways:
//!
//! * **explicitly** — components capture `Obs::current()` at construction
//!   (links, NIC FIFOs) and record through the captured handle;
//! * **implicitly** — [`Obs::install`] puts a handle into thread-local
//!   storage for everything downstream on that thread. A spawned thread
//!   starts with the disabled handle: the sweep's simulate phase installs
//!   its run's handle in each of its workers.
//!
//! ## Determinism contract
//!
//! Recording never feeds back into simulation state or clocks, so an
//! enabled handle cannot change any simulated result ("zero observational
//! interference"). Registry totals are additive and therefore identical
//! across worker counts; trace *files* are canonically sorted by the
//! exporter but span sets may differ across worker counts only in process
//! id assignment order, never in content per point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flame;
pub mod openmetrics;
pub mod registry;
pub mod series;
pub mod span;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use registry::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use series::{Series, SeriesKind};
pub use span::{TraceEvent, TraceSink};

#[derive(Debug)]
struct ObsInner {
    registry: MetricsRegistry,
    trace: Option<TraceSink>,
    next_pid: AtomicU64,
    labels: Mutex<BTreeMap<u64, String>>,
}

/// A cheap, cloneable handle on one run's observability state (or on
/// nothing at all — the disabled handle). See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

thread_local! {
    static CURRENT: RefCell<Obs> = RefCell::new(Obs::disabled());
    static CURRENT_PID: Cell<u64> = const { Cell::new(0) };
}

fn current_pid() -> u64 {
    CURRENT_PID.with(Cell::get)
}

impl Obs {
    /// The disabled handle: every recording call is a no-op branch.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// Creates an enabled handle with a fresh registry, plus a trace sink
    /// when `trace` is true.
    pub fn new(trace: bool) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: MetricsRegistry::new(),
                trace: if trace { Some(TraceSink::new()) } else { None },
                next_pid: AtomicU64::new(1),
                labels: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle carries a trace sink (spans get recorded).
    /// Hot paths check this before building span names.
    pub fn tracing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.is_some())
    }

    /// The handle installed on the current thread (disabled when none is).
    pub fn current() -> Obs {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Installs this handle on the current thread until the guard drops,
    /// resetting the point scope. Nested installs restore the previous
    /// handle on drop.
    pub fn install(&self) -> InstallGuard {
        let previous = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.clone()));
        let previous_pid = CURRENT_PID.with(|p| p.replace(0));
        InstallGuard {
            previous: Some(previous),
            previous_pid,
        }
    }

    /// Opens a per-point scope: allocates a fresh trace process id labelled
    /// `label` and makes it the current point until the guard drops. On a
    /// disabled handle this is a no-op.
    pub fn point_scope(&self, label: &str) -> PointGuard {
        match &self.inner {
            None => PointGuard { previous: None },
            Some(inner) => {
                let pid = inner.next_pid.fetch_add(1, Ordering::Relaxed);
                inner
                    .labels
                    .lock()
                    .expect("obs labels poisoned")
                    .insert(pid, label.to_string());
                let previous = CURRENT_PID.with(|p| p.replace(pid));
                PointGuard {
                    previous: Some(previous),
                }
            }
        }
    }

    /// Adds `delta` to the run counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(name, delta);
        }
    }

    /// Records one sample into the run histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, value);
        }
    }

    /// Folds a pre-aggregated histogram into the run histogram `name` —
    /// the bulk form of [`Obs::observe`] for workers that accumulate
    /// locally and merge once at the end.
    pub fn merge_histogram(&self, name: &str, other: &Histogram) {
        if let Some(inner) = &self.inner {
            inner.registry.merge_histogram(name, other);
        }
    }

    /// Raises the max-tracking gauge `name` to `value`.
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_max(name, value);
        }
    }

    /// Reads the run counter `name` (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.registry.counter(name))
    }

    /// Reads the max-tracking gauge `name` (0 when disabled or absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.registry.gauge(name))
    }

    /// The summary of run histogram `name`, when enabled and recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.inner.as_ref().and_then(|i| i.registry.histogram(name))
    }

    /// A deterministic snapshot of the run's metrics (None when disabled).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// Records a complete span `[start, end]` (cycles) on `track` under the
    /// current point's process id. No-op unless [`tracing`](Obs::tracing).
    pub fn span(&self, track: &'static str, name: &str, start: u64, end: u64) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.trace {
                sink.span(current_pid(), track, name.to_string(), start, end);
            }
        }
    }

    /// Like [`span`](Obs::span) but under an explicit process id captured
    /// earlier with [`pid`](Obs::pid) — for components that outlive the
    /// point scope they were constructed in.
    pub fn span_at(&self, pid: u64, track: &'static str, name: &str, start: u64, end: u64) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.trace {
                sink.span(pid, track, name.to_string(), start, end);
            }
        }
    }

    /// Records an instant event at `ts` cycles on `track` under the current
    /// point's process id. No-op unless [`tracing`](Obs::tracing).
    pub fn instant(&self, track: &'static str, name: &str, ts: u64) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.trace {
                sink.instant(current_pid(), track, name.to_string(), ts);
            }
        }
    }

    /// Records a counter sample — the value of series `name` at cycle `ts`
    /// on `track` — under the current point's process id. Renders as a
    /// Chrome `ph: "C"` series. No-op unless [`tracing`](Obs::tracing).
    pub fn trace_counter(&self, track: &'static str, name: &str, ts: u64, value: u64) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.trace {
                sink.counter(current_pid(), track, name.to_string(), ts, value);
            }
        }
    }

    /// The current point's trace process id (0 outside any point scope).
    pub fn pid(&self) -> u64 {
        current_pid()
    }

    /// Events dropped by the trace sink's buffer cap (0 when not tracing).
    pub fn trace_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.as_ref())
            .map_or(0, TraceSink::dropped)
    }

    /// Number of buffered trace events (0 when not tracing).
    pub fn trace_len(&self) -> usize {
        self.inner
            .as_ref()
            .and_then(|i| i.trace.as_ref())
            .map_or(0, TraceSink::len)
    }

    /// Renders the run's trace as a Chrome trace-event JSON document.
    /// `None` when this handle never traced.
    pub fn chrome_trace(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let sink = inner.trace.as_ref()?;
        let labels = inner.labels.lock().expect("obs labels poisoned").clone();
        Some(chrome::render(&sink.events(), &labels))
    }

    /// Renders the run's trace as a deterministic text flamegraph.
    /// `None` when this handle never traced.
    pub fn flamegraph(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let sink = inner.trace.as_ref()?;
        Some(flame::render(&sink.events()))
    }
}

/// Restores the previously installed handle (and point scope) on drop.
#[derive(Debug)]
pub struct InstallGuard {
    previous: Option<Obs>,
    previous_pid: u64,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
        CURRENT_PID.with(|p| p.set(self.previous_pid));
    }
}

/// Restores the previous point scope on drop.
#[derive(Debug)]
pub struct PointGuard {
    previous: Option<u64>,
}

impl Drop for PointGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous {
            CURRENT_PID.with(|p| p.set(previous));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.tracing());
        obs.count("x", 1);
        obs.observe("h", 5);
        obs.span("t", "s", 0, 10);
        assert_eq!(obs.counter("x"), 0);
        assert!(obs.histogram("h").is_none());
        assert!(obs.metrics_snapshot().is_none());
        assert!(obs.chrome_trace().is_none());
        assert!(obs.flamegraph().is_none());
        let _scope = obs.point_scope("noop");
        assert_eq!(current_pid(), 0);
    }

    #[test]
    fn registry_only_handle_counts_but_does_not_trace() {
        let obs = Obs::new(false);
        assert!(obs.is_enabled());
        assert!(!obs.tracing());
        obs.count("faults.injected", 2);
        obs.count("faults.injected", 1);
        obs.observe("lat", 8);
        assert_eq!(obs.counter("faults.injected"), 3);
        assert_eq!(obs.histogram("lat").expect("recorded").count, 1);
        obs.span("t", "s", 0, 10);
        assert_eq!(obs.trace_len(), 0);
        assert!(obs.chrome_trace().is_none());
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let outer = Obs::new(false);
        {
            let _g = outer.install();
            outer.count("seen", 1);
            assert_eq!(Obs::current().counter("seen"), 1);
            let inner = Obs::new(false);
            {
                let _g2 = inner.install();
                Obs::current().count("seen", 10);
            }
            assert_eq!(Obs::current().counter("seen"), 1, "outer restored");
            assert_eq!(inner.counter("seen"), 10);
        }
        assert!(!Obs::current().is_enabled(), "disabled after last guard");
    }

    #[test]
    fn point_scopes_tag_spans_with_fresh_pids() {
        let obs = Obs::new(true);
        let _g = obs.install();
        {
            let _p = obs.point_scope("first point");
            obs.span("scenario", "a", 0, 5);
            assert_ne!(obs.pid(), 0);
        }
        {
            let _p = obs.point_scope("second point");
            obs.span("scenario", "b", 0, 7);
        }
        assert_eq!(obs.pid(), 0, "scope restored");
        let events = match &obs.inner {
            Some(inner) => inner.trace.as_ref().expect("tracing").events(),
            None => unreachable!(),
        };
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].pid, events[1].pid);
        let trace = obs.chrome_trace().expect("tracing");
        let stats = chrome::validate(&trace).expect("valid trace");
        assert_eq!(stats.spans, 2);
        assert!(trace.contains("first point"));
        assert!(trace.contains("second point"));
    }

    #[test]
    fn flamegraph_renders_spans() {
        let obs = Obs::new(true);
        let _g = obs.install();
        obs.span("phase.pack", "pack", 0, 100);
        obs.span("phase.pack", "pack", 100, 150);
        let flame = obs.flamegraph().expect("tracing");
        assert!(flame.contains("phase.pack;pack 150"), "{flame}");
    }
}
