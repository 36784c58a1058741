//! The live side of tracing: a [`Tracer`] owns the collector, worker
//! threads install [`StreamHandle`]s, and instrumented code talks to an
//! *ambient* per-thread stream through free functions ([`span`],
//! [`counter_add`], ...) that no-op when nothing is installed.
//!
//! Determinism model:
//! - Stream ids are allocated on the **spawning** thread (via
//!   [`Tracer::handle`] / [`fork_stream`]) in program order, so the id
//!   assignment never depends on OS scheduling.
//! - Each stream buffers its own events locally; the only shared state is
//!   the submission list, and [`Tracer::finish`] sorts submitted streams
//!   by id. Two runs of the same program therefore produce the same
//!   stream order and the same per-stream event sequences regardless of
//!   thread interleaving (timestamps are whatever the injected clock
//!   returns; with no clock they are all `0.0`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::hist::Hist;
use crate::trace::{EventKind, SpanTotal, Trace, TraceEvent, TraceStream};

/// One raw event inside a stream buffer. `&'static str` names keep the
/// hot path allocation-free; ownership appears only at export time.
enum Ev {
    B {
        name: &'static str,
        t: f64,
        arg: Option<i64>,
    },
    E {
        t: f64,
    },
}

/// Per-stream buffer: the event log plus aggregated metrics. Metrics are
/// folded per stream (cheap BTreeMap updates) instead of being evented,
/// which keeps counter-heavy code like GEMM dispatch out of the log.
struct StreamBuf {
    id: u64,
    label: String,
    events: Vec<Ev>,
    counters: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl StreamBuf {
    fn new(id: u64, label: String) -> StreamBuf {
        StreamBuf {
            id,
            label,
            events: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn to_stream(&self) -> TraceStream {
        TraceStream {
            id: self.id,
            label: self.label.clone(),
            events: self
                .events
                .iter()
                .map(|e| match *e {
                    Ev::B { name, t, arg } => TraceEvent {
                        kind: EventKind::Begin {
                            name: name.to_string(),
                            arg,
                        },
                        t,
                    },
                    Ev::E { t } => TraceEvent {
                        kind: EventKind::End,
                        t,
                    },
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Shared collector state behind a [`Tracer`].
struct Inner {
    clock: Option<Clock>,
    next_stream: AtomicU64,
    done: Mutex<Vec<StreamBuf>>,
}

impl Inner {
    fn now(&self) -> f64 {
        match &self.clock {
            Some(c) => c(),
            None => 0.0,
        }
    }

    fn submit(&self, buf: StreamBuf) {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(buf);
    }
}

/// An installed stream on the current thread.
struct Active {
    inner: Arc<Inner>,
    buf: StreamBuf,
}

thread_local! {
    /// Stack of installed streams; the top receives ambient events.
    /// It is a stack (not a slot) so inline fallback paths — e.g. a
    /// worker pool running its "worker" stream on the caller's thread
    /// when `workers == 1` — can nest installs without clobbering.
    static CURRENT: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// Owner of a trace collection. Cloning shares the same collector.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// A tracer with no clock: every timestamp is `0.0`, but spans,
    /// counters, and stream structure are still recorded. This is the
    /// fully deterministic mode reproducibility tests run in.
    pub fn new() -> Tracer {
        Tracer::build(None)
    }

    /// A tracer timestamping with `clock` (see [`crate::wall_clock`] and
    /// [`crate::tick_clock`]). The clock must never call back into
    /// tracing APIs.
    pub fn with_clock(clock: Clock) -> Tracer {
        Tracer::build(Some(clock))
    }

    fn build(clock: Option<Clock>) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                clock,
                next_stream: AtomicU64::new(0),
                done: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Allocate a stream id *now* (on this thread, in program order) and
    /// return a `Send` handle a worker thread can later [`install`].
    ///
    /// [`install`]: StreamHandle::install
    pub fn handle(&self, label: &str) -> StreamHandle {
        let id = self.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        StreamHandle {
            inner: Arc::clone(&self.inner),
            id,
            label: label.to_string(),
        }
    }

    /// Allocate and install a stream on the current thread in one step.
    pub fn install(&self, label: &str) -> StreamGuard {
        self.handle(label).install()
    }

    /// Aggregate span/counter totals over everything visible right now:
    /// all submitted streams plus streams still installed on *this*
    /// thread. Spans still open are not counted. Taking totals before
    /// and after a region and calling [`Totals::delta`] yields that
    /// region's cost without stopping the tracer.
    pub fn totals(&self) -> Totals {
        totals_for(&self.inner)
    }

    /// Stop collecting and return the owned [`Trace`], streams sorted by
    /// id. Streams still installed on any thread are not included —
    /// drop their guards first.
    pub fn finish(self) -> Trace {
        let mut bufs =
            std::mem::take(&mut *self.inner.done.lock().unwrap_or_else(|e| e.into_inner()));
        bufs.sort_by_key(|b| b.id);
        Trace {
            streams: bufs.iter().map(StreamBuf::to_stream).collect(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// A pre-allocated stream id that can cross threads. Created by
/// [`Tracer::handle`] or [`fork_stream`]; consumed by [`install`].
///
/// [`install`]: StreamHandle::install
pub struct StreamHandle {
    inner: Arc<Inner>,
    id: u64,
    label: String,
}

impl StreamHandle {
    /// The stream id this handle was allocated.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Install the stream on the current thread; ambient events go to it
    /// until the returned guard drops (which submits the stream to the
    /// collector).
    pub fn install(self) -> StreamGuard {
        CURRENT.with(|c| {
            c.borrow_mut().push(Active {
                inner: Arc::clone(&self.inner),
                buf: StreamBuf::new(self.id, self.label),
            });
        });
        StreamGuard {
            inner: self.inner,
            id: self.id,
            _not_send: PhantomData,
        }
    }
}

/// RAII for an installed stream; dropping submits the stream's buffer to
/// the collector. Not `Send`: it must drop on the installing thread.
pub struct StreamGuard {
    inner: Arc<Inner>,
    id: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        let buf = CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            stack
                .iter()
                .rposition(|a| a.buf.id == self.id && Arc::ptr_eq(&a.inner, &self.inner))
                .map(|pos| stack.remove(pos).buf)
        });
        if let Some(buf) = buf {
            self.inner.submit(buf);
        }
    }
}

/// RAII span: records a begin event at creation and the matching end
/// event on drop. If the stream it started on is no longer the thread's
/// top stream at drop time, the end is skipped (the stream was already
/// submitted), leaving an unclosed begin that replay tolerates.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    stream: u64,
    live: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(a) = stack.last_mut() {
                if a.buf.id == self.stream {
                    let t = a.inner.now();
                    a.buf.events.push(Ev::E { t });
                }
            }
        });
    }
}

fn span_inner(name: &'static str, arg: Option<i64>) -> Span {
    CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        match stack.last_mut() {
            None => Span {
                stream: 0,
                live: false,
                _not_send: PhantomData,
            },
            Some(a) => {
                let t = a.inner.now();
                a.buf.events.push(Ev::B { name, t, arg });
                Span {
                    stream: a.buf.id,
                    live: true,
                    _not_send: PhantomData,
                }
            }
        }
    })
}

/// Open a span named `name` on the current thread's stream. No-op (a
/// dead span) when no stream is installed.
pub fn span(name: &'static str) -> Span {
    span_inner(name, None)
}

/// Like [`span`] but attaches an integer argument (batch index, token
/// count, ...) to the begin event.
pub fn span_arg(name: &'static str, arg: i64) -> Span {
    span_inner(name, Some(arg))
}

/// Add `delta` to the named counter on the current stream. No-op when
/// tracing is off — safe to leave in hot loops.
pub fn counter_add(name: &'static str, delta: f64) {
    CURRENT.with(|c| {
        if let Some(a) = c.borrow_mut().last_mut() {
            *a.buf.counters.entry(name).or_insert(0.0) += delta;
        }
    });
}

/// Set the named gauge (a last-observed level, e.g. live tape nodes) on
/// the current stream.
pub fn gauge_set(name: &'static str, v: f64) {
    CURRENT.with(|c| {
        if let Some(a) = c.borrow_mut().last_mut() {
            a.buf.gauges.insert(name, v);
        }
    });
}

/// Record `v` into the named fixed-bucket histogram (default edges) on
/// the current stream.
pub fn hist_record(name: &'static str, v: f64) {
    CURRENT.with(|c| {
        if let Some(a) = c.borrow_mut().last_mut() {
            a.buf
                .hists
                .entry(name)
                .or_insert_with(Hist::default_edges)
                .record(v);
        }
    });
}

/// Whether a stream is installed on the current thread (i.e. ambient
/// tracing calls will record something).
pub fn enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Allocate a child stream handle from the current thread's tracer, for
/// handing to a worker thread. Returns `None` when tracing is off.
///
/// Ids are allocated here, on the calling thread, so spawning handles in
/// loop order gives workers deterministic stream ids no matter how the
/// OS schedules them.
pub fn fork_stream(label: &str) -> Option<StreamHandle> {
    CURRENT.with(|c| {
        let stack = c.borrow();
        let top = stack.last()?;
        let id = top.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        Some(StreamHandle {
            inner: Arc::clone(&top.inner),
            id,
            label: label.to_string(),
        })
    })
}

/// Ambient version of [`Tracer::totals`]: totals for the tracer behind
/// the current thread's top stream, or empty totals when tracing is off.
pub fn totals() -> Totals {
    CURRENT.with(|c| {
        let stack = c.borrow();
        match stack.last() {
            None => Totals::default(),
            Some(top) => totals_for(&top.inner),
        }
    })
}

fn totals_for(inner: &Arc<Inner>) -> Totals {
    let mut t = Totals::default();
    for buf in inner.done.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        t.absorb(&buf.to_stream());
    }
    CURRENT.with(|c| {
        for a in c.borrow().iter().filter(|a| Arc::ptr_eq(&a.inner, inner)) {
            t.absorb(&a.buf.to_stream());
        }
    });
    t
}

/// Aggregated completed-span and counter totals, used for live
/// before/after deltas (the trainer's phase profile is built this way).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Completed-span totals keyed by span name (not path).
    pub spans: BTreeMap<String, SpanTotal>,
    /// Counter values keyed by name, summed across streams.
    pub counters: BTreeMap<String, f64>,
}

impl Totals {
    fn absorb(&mut self, s: &TraceStream) {
        for (name, total) in s.span_totals() {
            let e = self.spans.entry(name).or_default();
            e.count += total.count;
            e.total_s += total.total_s;
        }
        for (name, v) in &s.counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += v;
        }
    }

    /// `self - earlier`, keyed by `self`'s entries (totals only grow, so
    /// every key in `earlier` is present in `self`).
    pub fn delta(&self, earlier: &Totals) -> Totals {
        let spans = self
            .spans
            .iter()
            .map(|(k, v)| {
                let prev = earlier.spans.get(k).cloned().unwrap_or_default();
                (
                    k.clone(),
                    SpanTotal {
                        count: v.count.saturating_sub(prev.count),
                        total_s: v.total_s - prev.total_s,
                    },
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v - earlier.counters.get(k).copied().unwrap_or(0.0),
                )
            })
            .collect();
        Totals { spans, counters }
    }

    /// Total seconds spent in completed spans named `name` (0 if absent).
    pub fn span_seconds(&self, name: &str) -> f64 {
        self.spans.get(name).map(|s| s.total_s).unwrap_or(0.0)
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::tick_clock;

    #[test]
    fn ambient_calls_are_noops_without_install() {
        assert!(!enabled());
        let s = span("nothing");
        counter_add("c", 1.0);
        gauge_set("g", 2.0);
        hist_record("h", 3.0);
        drop(s);
        assert!(fork_stream("w").is_none());
        assert_eq!(totals(), Totals::default());
    }

    #[test]
    fn spans_and_metrics_land_in_the_trace() {
        let tracer = Tracer::with_clock(tick_clock());
        {
            let _g = tracer.install("main");
            {
                let _outer = span("outer");
                let _inner = span_arg("inner", 7);
                counter_add("work", 2.0);
                counter_add("work", 3.0);
                gauge_set("level", 1.0);
                gauge_set("level", 4.0);
                hist_record("sizes", 10.0);
            }
        }
        let trace = tracer.finish();
        assert_eq!(trace.streams.len(), 1);
        let s = &trace.streams[0];
        assert_eq!(s.label, "main");
        assert_eq!(s.events.len(), 4); // outer-B, inner-B, inner-E, outer-E
        assert_eq!(s.counters.get("work"), Some(&5.0));
        assert_eq!(s.gauges.get("level"), Some(&4.0));
        assert_eq!(s.hists.get("sizes").map(|h| h.n), Some(1));
        let totals = trace.span_totals();
        assert_eq!(totals.get("outer").map(|t| t.count), Some(1));
        assert_eq!(totals.get("inner").map(|t| t.count), Some(1));
        // tick clock: outer B=0, inner B=1, inner E=2, outer E=3.
        assert_eq!(totals.get("outer").map(|t| t.total_s), Some(3.0));
        assert_eq!(totals.get("inner").map(|t| t.total_s), Some(1.0));
    }

    #[test]
    fn worker_streams_merge_in_handle_order() {
        let tracer = Tracer::new();
        let _main = tracer.install("main");
        // Allocate handles in loop order on this thread, then install on
        // workers spawned in reverse to show ids do not depend on spawn
        // or completion order.
        let handles: Vec<StreamHandle> = (0..4).map(|i| tracer.handle(&format!("w{i}"))).collect();
        std::thread::scope(|scope| {
            for h in handles.into_iter().rev() {
                scope.spawn(move || {
                    let _g = h.install();
                    let _s = span("work");
                    counter_add("items", 1.0);
                });
            }
        });
        drop(_main);
        let trace = tracer.finish();
        let labels: Vec<&str> = trace.streams.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["main", "w0", "w1", "w2", "w3"]);
        assert_eq!(trace.counters().get("items"), Some(&4.0));
    }

    #[test]
    fn fork_stream_allocates_from_ambient_tracer() {
        let tracer = Tracer::new();
        let _main = tracer.install("main");
        let h = fork_stream("child").expect("ambient tracer installed");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _g = h.install();
                counter_add("child_work", 1.0);
            });
        });
        drop(_main);
        let trace = tracer.finish();
        assert_eq!(trace.streams.len(), 2);
        assert_eq!(trace.counters().get("child_work"), Some(&1.0));
    }

    #[test]
    fn stacked_installs_route_to_the_top_stream() {
        let tracer = Tracer::new();
        let _outer = tracer.install("outer");
        counter_add("c", 1.0);
        {
            // Inline worker fallback: a second stream on the same thread.
            let _inner = tracer.install("inner");
            counter_add("c", 10.0);
        }
        counter_add("c", 100.0);
        drop(_outer);
        let trace = tracer.finish();
        // inner submitted first (dropped first), but sort is by id.
        assert_eq!(trace.streams[0].label, "outer");
        assert_eq!(trace.streams[0].counters.get("c"), Some(&101.0));
        assert_eq!(trace.streams[1].label, "inner");
        assert_eq!(trace.streams[1].counters.get("c"), Some(&10.0));
    }

    #[test]
    fn totals_delta_isolates_a_region() {
        let tracer = Tracer::with_clock(tick_clock());
        let _g = tracer.install("main");
        {
            let _s = span("phase");
            counter_add("n", 1.0);
        }
        let before = tracer.totals();
        {
            let _s = span("phase");
            let _s2 = span("phase");
            counter_add("n", 5.0);
        }
        let after = tracer.totals();
        let d = after.delta(&before);
        assert_eq!(d.spans["phase"].count, 2);
        assert_eq!(d.counter("n"), 5.0);
        // Each tick-clock span costs its nesting window; what matters is
        // that the pre-existing phase time is subtracted out.
        assert!(d.span_seconds("phase") > 0.0);
        assert_eq!(before.spans["phase"].count, 1);
    }

    #[test]
    fn open_spans_are_excluded_from_totals() {
        let tracer = Tracer::with_clock(tick_clock());
        let _g = tracer.install("main");
        let _open = span("open");
        {
            let _closed = span("closed");
        }
        let t = tracer.totals();
        assert_eq!(t.spans["closed"].count, 1);
        assert!(!t.spans.contains_key("open"));
    }
}
