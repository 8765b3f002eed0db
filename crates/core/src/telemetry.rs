//! Unified zero-dependency observability: spans, metrics, and
//! deterministic inference traces across device → CIM → runtime.
//!
//! The workspace produces rich signals — [`neuspin_cim::OpCounter`]
//! tallies, [`neuspin_energy::EnergyModel`] joules,
//! [`crate::HealthMonitor`] drift scores, [`crate::Supervisor`]
//! recovery trails — but before this module each was an ad-hoc side
//! channel read differently by every experiment binary. `telemetry` is
//! the one substrate they all flow through:
//!
//! * **Spans** ([`crate::span!`]) — hierarchical, nesting across
//!   `HardwareModel::predict*` → per-pass → per-block → crossbar
//!   evaluations. A span records wall time (metrics sink only) and any
//!   deterministic annotations the instrumentation attaches (op-counter
//!   deltas, energy, model-time device-hours). Spans consume **zero RNG
//!   draws**, so a traced run is bit-identical to an untraced one.
//! * **Metrics** — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s, registered once in a global registry. With
//!   telemetry disabled every recording call is a single relaxed atomic
//!   load and an early return, cheap enough that the disabled path
//!   stays within noise of the untelemetered throughput baseline
//!   (enforced by `exp_observe --check`).
//! * **Sinks** — an in-memory [`snapshot`], a Prometheus-style text
//!   exposition ([`prometheus_text`]), and a JSONL trace writer
//!   ([`trace_to_jsonl`]) built on the hand-rolled [`crate::json`]
//!   module with stable field ordering.
//!
//! ## Determinism contract
//!
//! Trace events carry **only deterministic fields** (span name, depth,
//! pass/layer indices, op-counter deltas, model-time hours, energy).
//! Wall-clock time goes exclusively into histograms and the metrics
//! sinks, never into the trace. Each thread buffers its events locally;
//! the parallel MC engine ([`crate::mc_predict_par`]) harvests each
//! pass's events with [`trace_mark`]/[`take_trace_since`] and re-appends
//! them in ascending pass order — the same merge-on-join discipline the
//! op counters use — so the emitted JSONL byte-compares across
//! `NEUSPIN_THREADS` settings.
//!
//! ## Example
//!
//! ```
//! use neuspin_core::{span, telemetry};
//!
//! telemetry::set_enabled(true, true);
//! {
//!     let mut outer = span!("predict", passes = 4usize);
//!     let _inner = span!("mc_pass", pass = 0usize);
//!     outer.record("note", "deterministic");
//! }
//! let events = telemetry::take_trace();
//! assert_eq!(events.len(), 2, "inner exits first, then outer");
//! let jsonl = telemetry::trace_to_jsonl(&events);
//! assert!(jsonl.starts_with("{\"span\":\"mc_pass\",\"depth\":1"));
//! telemetry::set_enabled(false, false);
//! ```

use crate::json::{Json, ToJson};
use neuspin_cim::OpCounter;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Enable flags
// ---------------------------------------------------------------------

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static TRACE_ON: AtomicBool = AtomicBool::new(false);
/// Virtual device time in hours (f64 bits) — set by the runtime
/// supervisor, stamped into span trace events. Deterministic: it only
/// changes with simulated time, never with the wall clock.
static MODEL_TIME_BITS: AtomicU64 = AtomicU64::new(0);

/// Turns the metrics and trace pipelines on or off (both default off).
///
/// Metrics feed the registry sinks (snapshot / Prometheus); the trace
/// feeds the per-thread deterministic event buffers. Each hot-path
/// check is one relaxed atomic load.
pub fn set_enabled(metrics: bool, trace: bool) {
    METRICS_ON.store(metrics, Ordering::Relaxed);
    TRACE_ON.store(trace, Ordering::Relaxed);
}

/// Whether the metrics pipeline is recording.
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Whether the deterministic trace pipeline is recording.
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Whether any telemetry pipeline is on (the single check on the
/// instrumented hot paths).
pub fn active() -> bool {
    metrics_enabled() || trace_enabled()
}

/// Sets the virtual device time stamped into span trace events and the
/// `model_time_hours` gauge. No-op while telemetry is fully disabled.
pub fn set_model_time_hours(hours: f64) {
    if !active() {
        return;
    }
    MODEL_TIME_BITS.store(hours.to_bits(), Ordering::Relaxed);
    if metrics_enabled() {
        gauge("model_time_hours").set(hours);
    }
}

/// The current virtual device time in hours (0 until set).
pub fn model_time_hours() -> f64 {
    f64::from_bits(MODEL_TIME_BITS.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

struct HistInner {
    /// Ascending, finite upper bounds; an implicit `+Inf` bucket is
    /// appended, so `buckets.len() == bounds.len() + 1`.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observed values, as f64 bits updated by CAS.
    sum_bits: AtomicU64,
}

#[derive(Default)]
struct Registry {
    counters: Vec<(String, Arc<AtomicU64>)>,
    gauges: Vec<(String, Arc<AtomicU64>)>,
    histograms: Vec<(String, Arc<HistInner>)>,
    /// Device-op rollup: every instrumented op-counter delta is folded
    /// in here through the one shared [`OpCounter::merge`].
    ops: OpCounter,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .expect("telemetry registry poisoned")
}

/// A monotonically increasing named metric. Clone-cheap handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (no-op while metrics are disabled).
    pub fn add(&self, n: u64) {
        if metrics_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while metrics are disabled).
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named point-in-time value (f64). Clone-cheap handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value (no-op while metrics are disabled).
    pub fn set(&self, value: f64) {
        if metrics_enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (CAS loop; no-op while metrics are disabled).
    pub fn add(&self, delta: f64) {
        if !metrics_enabled() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram (Prometheus `le` semantics: bucket `i`
/// counts observations `<= bounds[i]`, plus a final `+Inf` bucket).
/// Clone-cheap handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one observation (no-op while metrics are disabled).
    pub fn observe(&self, value: f64) {
        if !metrics_enabled() {
            return;
        }
        let h = &self.0;
        let idx = h.bounds.iter().position(|&b| value <= b).unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = h.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match h.sum_bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// Registers (or fetches) the named counter. Register-once semantics:
/// the first call creates it, later calls return a handle to the same
/// underlying cell.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry();
    if let Some((_, c)) = reg.counters.iter().find(|(n, _)| n == name) {
        return Counter(Arc::clone(c));
    }
    let cell = Arc::new(AtomicU64::new(0));
    reg.counters.push((name.to_string(), Arc::clone(&cell)));
    Counter(cell)
}

/// Registers (or fetches) the named gauge.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry();
    if let Some((_, g)) = reg.gauges.iter().find(|(n, _)| n == name) {
        return Gauge(Arc::clone(g));
    }
    let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
    reg.gauges.push((name.to_string(), Arc::clone(&cell)));
    Gauge(cell)
}

/// Registers (or fetches) the named histogram with the given ascending
/// finite bucket upper bounds (a `+Inf` overflow bucket is implicit).
///
/// # Panics
///
/// Panics if `bounds` is empty, not strictly ascending, or non-finite —
/// or if the name was already registered with different bounds.
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    assert!(!bounds.is_empty(), "histogram '{name}' needs at least one bucket bound");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
        "histogram '{name}' bounds must be finite and strictly ascending"
    );
    let mut reg = registry();
    if let Some((_, h)) = reg.histograms.iter().find(|(n, _)| n == name) {
        assert_eq!(h.bounds, bounds, "histogram '{name}' re-registered with different bounds");
        return Histogram(Arc::clone(h));
    }
    let inner = Arc::new(HistInner {
        bounds: bounds.to_vec(),
        buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        count: AtomicU64::new(0),
        sum_bits: AtomicU64::new(0f64.to_bits()),
    });
    reg.histograms.push((name.to_string(), Arc::clone(&inner)));
    Histogram(inner)
}

/// The default wall-time bucket ladder for span histograms:
/// 1 µs … 10 s in decades, in nanoseconds.
pub fn default_time_buckets_ns() -> [f64; 8] {
    [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10]
}

/// Serve-latency bucket bounds in milliseconds, tuned to the observed
/// serving distribution (p50 ≈ 11 ms, p95 ≈ 21 ms, p99 ≈ 35 ms in
/// `BENCH_serving.json`): dense 1–2 ms steps through the p50–p99 band
/// so adjacent percentiles land in distinct buckets, decade-spaced
/// tails on both sides. The decade ladder above collapsed p95 and p99
/// into one 10–100 ms bucket.
pub fn serve_latency_buckets_ms() -> [f64; 18] {
    [
        0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0, 21.0, 25.0, 30.0, 35.0, 45.0,
        75.0, 150.0, 500.0,
    ]
}

/// Folds an op-counter delta into the registry's device-op rollup via
/// the single shared [`OpCounter::merge`] (no-op while metrics are
/// disabled).
pub fn record_ops(delta: &OpCounter) {
    if metrics_enabled() {
        registry().ops.merge(delta);
    }
}

/// The accumulated device-op rollup.
pub fn ops_snapshot() -> OpCounter {
    registry().ops
}

/// Zeroes every registered metric value and the device-op rollup, and
/// clears the calling thread's trace buffer (registrations are kept).
/// Bench binaries call this between measurement phases.
pub fn reset() {
    {
        let mut reg = registry();
        for (_, c) in &reg.counters {
            c.store(0, Ordering::Relaxed);
        }
        for (_, g) in &reg.gauges {
            g.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for (_, h) in &reg.histograms {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        }
        reg.ops.reset();
    }
    MODEL_TIME_BITS.store(0, Ordering::Relaxed);
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.events.clear();
        t.depth = 0;
    });
}

// ---------------------------------------------------------------------
// Snapshot + Prometheus sinks
// ---------------------------------------------------------------------

/// Frozen view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Finite upper bounds (the final `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

crate::impl_to_json!(HistogramSnapshot { name, bounds, buckets, count, sum });

/// Frozen view of the whole registry, sorted by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// The device-op rollup.
    pub ops: OpCounter,
}

impl MetricsSnapshot {
    /// Looks up a counter value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters.iter().map(|(n, v)| (n.clone(), v.to_json())).collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Obj(self.gauges.iter().map(|(n, v)| (n.clone(), v.to_json())).collect()),
            ),
            ("histograms".to_string(), self.histograms.to_json()),
            ("ops".to_string(), self.ops.to_json()),
        ])
    }
}

/// Takes a frozen, name-sorted snapshot of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> =
        reg.counters.iter().map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed))).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut gauges: Vec<(String, f64)> = reg
        .gauges
        .iter()
        .map(|(n, g)| (n.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<HistogramSnapshot> = reg
        .histograms
        .iter()
        .map(|(n, h)| HistogramSnapshot {
            name: n.clone(),
            bounds: h.bounds.clone(),
            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { counters, gauges, histograms, ops: reg.ops }
}

/// Renders the registry in the Prometheus text exposition format
/// (counters, gauges, and cumulative-`le` histograms with `_sum` and
/// `_count` series), metrics sorted by name.
pub fn prometheus_text() -> String {
    use std::fmt::Write as _;
    let snap = snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    }
    for h in &snap.histograms {
        let _ = writeln!(out, "# TYPE {} histogram", h.name);
        let mut cumulative = 0u64;
        for (i, &bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            if i < h.bounds.len() {
                let _ =
                    writeln!(out, "{}_bucket{{le=\"{}\"}} {cumulative}", h.name, h.bounds[i]);
            } else {
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cumulative}", h.name);
            }
        }
        let _ = writeln!(out, "{}_sum {}\n{}_count {}", h.name, h.sum, h.name, h.count);
    }
    out
}

// ---------------------------------------------------------------------
// Deterministic trace: per-thread event buffers
// ---------------------------------------------------------------------

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (emitted at exit, so children precede parents).
    Span,
    /// A point event emitted by [`emit`] / [`crate::trace_event!`].
    Point,
}

/// One deterministic trace record. Contains **no wall-clock data** —
/// that is the contract that lets traces byte-compare across thread
/// counts and reruns.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span or point event.
    pub kind: EventKind,
    /// Static name (low cardinality by construction).
    pub name: &'static str,
    /// Nesting depth at which the span/point lived.
    pub depth: u32,
    /// Deterministic annotations, in recording order.
    pub fields: Vec<(&'static str, Json)>,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let key = match self.kind {
            EventKind::Span => "span",
            EventKind::Point => "event",
        };
        let mut pairs = Vec::with_capacity(2 + self.fields.len());
        pairs.push((key.to_string(), Json::Str(self.name.to_string())));
        pairs.push(("depth".to_string(), self.depth.to_json()));
        pairs.extend(self.fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        Json::Obj(pairs)
    }
}

struct ThreadTrace {
    events: Vec<TraceEvent>,
    depth: u32,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> =
        const { RefCell::new(ThreadTrace { events: Vec::new(), depth: 0 }) };
}

/// The calling thread's current span nesting depth.
pub fn trace_depth() -> u32 {
    TRACE.with(|t| t.borrow().depth)
}

/// Forces the calling thread's nesting depth — used by the parallel
/// engine so a worker thread's spans nest at the fan-out point's depth.
pub fn set_trace_depth(depth: u32) {
    TRACE.with(|t| t.borrow_mut().depth = depth);
}

/// The calling thread's current buffered event count — a cursor for
/// [`take_trace_since`].
pub fn trace_mark() -> usize {
    TRACE.with(|t| t.borrow().events.len())
}

/// Drains events buffered after `mark` (in emission order). The
/// parallel engine harvests each pass's events this way and re-appends
/// them in pass order.
pub fn take_trace_since(mark: usize) -> Vec<TraceEvent> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if mark >= t.events.len() {
            Vec::new()
        } else {
            t.events.split_off(mark)
        }
    })
}

/// Drains the calling thread's whole trace buffer.
pub fn take_trace() -> Vec<TraceEvent> {
    take_trace_since(0)
}

/// Appends pre-harvested events to the calling thread's buffer (the
/// merge half of the harvest/merge protocol).
pub fn append_trace(events: Vec<TraceEvent>) {
    if events.is_empty() {
        return;
    }
    TRACE.with(|t| t.borrow_mut().events.extend(events));
}

/// Emits a point event at the current depth (no-op unless tracing).
pub fn emit(name: &'static str, fields: Vec<(&'static str, Json)>) {
    if !trace_enabled() {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let depth = t.depth;
        t.events.push(TraceEvent { kind: EventKind::Point, name, depth, fields });
    });
}

/// Serializes events to JSON-lines: one compact object per line with
/// stable field ordering (`span`/`event`, `depth`, then annotations in
/// recording order). Byte-stable across thread counts by the
/// determinism contract above.
pub fn trace_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json().to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct SpanInner {
    name: &'static str,
    fields: Vec<(&'static str, Json)>,
    /// Wall-clock start — metrics sink only, never traced.
    start: Option<Instant>,
    /// Depth this span opened at (restored on drop).
    depth: u32,
}

/// RAII guard for one span; created by [`crate::span!`]. While
/// telemetry is disabled the guard is an inert no-op.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Enters a span. `make_fields` is only invoked when telemetry is
    /// active, so a disabled span allocates nothing.
    pub fn enter_with(
        name: &'static str,
        make_fields: impl FnOnce() -> Vec<(&'static str, Json)>,
    ) -> SpanGuard {
        if !active() {
            return SpanGuard { inner: None };
        }
        let depth = TRACE.with(|t| {
            let mut t = t.borrow_mut();
            let d = t.depth;
            t.depth = d + 1;
            d
        });
        let start = metrics_enabled().then(Instant::now);
        SpanGuard { inner: Some(SpanInner { name, fields: make_fields(), start, depth }) }
    }

    /// Whether this guard is live (telemetry was active at entry).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a deterministic annotation to the span's trace event.
    pub fn record(&mut self, key: &'static str, value: impl ToJson) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.to_json()));
        }
    }

    /// Attaches an op-counter delta (all fields, stable order) and
    /// folds it into the registry's device-op rollup.
    pub fn record_ops(&mut self, delta: &OpCounter) {
        if self.inner.is_some() {
            self.record("ops", delta.to_json());
            record_ops(delta);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut inner) = self.inner.take() else {
            return;
        };
        TRACE.with(|t| t.borrow_mut().depth = inner.depth);
        if trace_enabled() {
            inner.fields.push(("t_hours", Json::Num(model_time_hours())));
            TRACE.with(|t| {
                t.borrow_mut().events.push(TraceEvent {
                    kind: EventKind::Span,
                    name: inner.name,
                    depth: inner.depth,
                    fields: std::mem::take(&mut inner.fields),
                });
            });
        }
        if let Some(start) = inner.start {
            let ns = start.elapsed().as_nanos() as f64;
            span_histogram(inner.name).observe(ns);
            counter("spans_total").inc();
        }
    }
}

/// The wall-time histogram for a span name (`span_ns_<name>`, default
/// decade buckets).
pub fn span_histogram(name: &str) -> Histogram {
    histogram(&format!("span_ns_{name}"), &default_time_buckets_ns())
}

/// Opens a hierarchical span: `span!("name")` or
/// `span!("name", key = value, ...)`. Returns a [`SpanGuard`] whose
/// drop closes the span. Field values go through
/// [`ToJson`](crate::json::ToJson) and must be deterministic — never
/// record wall-clock readings here.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::SpanGuard::enter_with($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::telemetry::SpanGuard::enter_with($name, || ::std::vec![
            $((stringify!($key), $crate::json::ToJson::to_json(&$value))),+
        ])
    };
}

/// Emits a deterministic point event: `trace_event!("name", key = value, ...)`.
/// No-op unless tracing is enabled (field expressions are not evaluated).
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        $crate::telemetry::emit($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::telemetry::trace_enabled() {
            $crate::telemetry::emit($name, ::std::vec![
                $((stringify!($key), $crate::json::ToJson::to_json(&$value))),+
            ]);
        }
    };
}

/// Serializes tests that flip the process-wide enable flags (the
/// `cargo test` harness is multi-threaded). Not part of the public API.
#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// Tests that assert exact values of the global registry live in their
// own binary, `tests/telemetry.rs`, where no other test emits telemetry.
#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> MutexGuard<'static, ()> {
        test_lock()
    }

    fn with_telemetry<T>(metrics: bool, trace: bool, f: impl FnOnce() -> T) -> T {
        let _guard = lock();
        reset();
        set_enabled(metrics, trace);
        let out = f();
        set_enabled(false, false);
        reset();
        out
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        with_telemetry(false, false, || {
            let c = counter("test_disabled_counter");
            let g = gauge("test_disabled_gauge");
            let h = histogram("test_disabled_hist", &[1.0, 2.0]);
            c.add(5);
            g.set(3.5);
            h.observe(1.5);
            assert_eq!(c.get(), 0);
            assert_eq!(g.get(), 0.0);
            assert_eq!(h.count(), 0);
            let span = span!("test_disabled_span", k = 1u32);
            assert!(!span.is_active());
            drop(span);
            assert!(take_trace().is_empty());
        });
    }

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        with_telemetry(true, false, || {
            let c = counter("test_counter");
            c.add(2);
            c.inc();
            assert_eq!(c.get(), 3);
            // Register-once: a second handle sees the same cell.
            assert_eq!(counter("test_counter").get(), 3);

            let g = gauge("test_gauge");
            g.set(2.0);
            g.add(0.5);
            assert_eq!(g.get(), 2.5);

            let h = histogram("test_hist", &[10.0, 100.0]);
            h.observe(5.0); // bucket 0 (<= 10)
            h.observe(10.0); // bucket 0 (le semantics)
            h.observe(50.0); // bucket 1
            h.observe(1e9); // +Inf bucket
            assert_eq!(h.count(), 4);
            assert!((h.sum() - (5.0 + 10.0 + 50.0 + 1e9)).abs() < 1e-6);
            let snap = snapshot();
            let hs = snap.histogram("test_hist").expect("registered");
            assert_eq!(hs.buckets, vec![2, 1, 1]);
        });
    }

    #[test]
    fn snapshot_is_name_sorted() {
        with_telemetry(true, false, || {
            counter("test_zz").inc();
            counter("test_aa").inc();
            gauge("test_g2").set(1.0);
            gauge("test_g1").set(2.0);
            let snap = snapshot();
            let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted);
            let gnames: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
            let mut gsorted = gnames.clone();
            gsorted.sort_unstable();
            assert_eq!(gnames, gsorted);
            assert_eq!(snap.counter("test_aa"), Some(1));
            assert_eq!(snap.gauge("test_g1"), Some(2.0));
        });
    }

    #[test]
    fn spans_nest_and_trace_in_exit_order() {
        with_telemetry(false, true, || {
            assert_eq!(trace_depth(), 0);
            {
                let mut outer = span!("test_outer", a = 1u32);
                assert_eq!(trace_depth(), 1);
                {
                    let _inner = span!("test_inner");
                    assert_eq!(trace_depth(), 2);
                }
                assert_eq!(trace_depth(), 1);
                outer.record("b", 2.5f64);
            }
            assert_eq!(trace_depth(), 0);
            let events = take_trace();
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].name, "test_inner");
            assert_eq!(events[0].depth, 1);
            assert_eq!(events[1].name, "test_outer");
            assert_eq!(events[1].depth, 0);
            // Insertion-ordered fields: declared, then recorded, then
            // the model-time stamp.
            let keys: Vec<&str> = events[1].fields.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec!["a", "b", "t_hours"]);
        });
    }

    #[test]
    fn trace_jsonl_is_stable_and_parseable() {
        let jsonl = with_telemetry(false, true, || {
            {
                let _s = span!("test_pass", pass = 3usize);
            }
            trace_event!("test_point", layer = 1usize, flagged = 4u64);
            trace_to_jsonl(&take_trace())
        });
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"span":"test_pass","depth":0,"pass":3,"t_hours":0}"#);
        assert_eq!(lines[1], r#"{"event":"test_point","depth":0,"layer":1,"flagged":4}"#);
        for line in lines {
            crate::json::parse(line).expect("every trace line is valid JSON");
        }
    }

    #[test]
    fn harvest_and_merge_round_trips() {
        with_telemetry(false, true, || {
            {
                let _a = span!("test_before");
            }
            let mark = trace_mark();
            {
                let _b = span!("test_job");
            }
            let harvested = take_trace_since(mark);
            assert_eq!(harvested.len(), 1);
            assert_eq!(trace_mark(), 1, "earlier events stay in place");
            append_trace(harvested);
            let all = take_trace();
            assert_eq!(all.len(), 2);
            assert_eq!(all[0].name, "test_before");
            assert_eq!(all[1].name, "test_job");
        });
    }

    #[test]
    fn prometheus_exposition_shape() {
        with_telemetry(true, false, || {
            counter("test_prom_total").add(3);
            gauge("test_prom_temp").set(1.5);
            let h = histogram("test_prom_ns", &[10.0, 100.0]);
            h.observe(7.0);
            h.observe(70.0);
            h.observe(700.0);
            let text = prometheus_text();
            assert!(text.contains("# TYPE test_prom_total counter\ntest_prom_total 3\n"));
            assert!(text.contains("# TYPE test_prom_temp gauge\ntest_prom_temp 1.5\n"));
            assert!(text.contains("test_prom_ns_bucket{le=\"10\"} 1\n"));
            assert!(text.contains("test_prom_ns_bucket{le=\"100\"} 2\n"));
            assert!(text.contains("test_prom_ns_bucket{le=\"+Inf\"} 3\n"));
            assert!(text.contains("test_prom_ns_sum 777\n"));
            assert!(text.contains("test_prom_ns_count 3\n"));
        });
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        with_telemetry(true, true, || {
            counter("test_reset").add(9);
            {
                let _s = span!("test_reset_span");
            }
            reset();
            assert_eq!(counter("test_reset").get(), 0);
            assert!(take_trace().is_empty());
            assert_eq!(trace_depth(), 0);
        });
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = histogram("test_bad_bounds", &[2.0, 1.0]);
    }

    #[test]
    fn worker_depth_override() {
        with_telemetry(false, true, || {
            set_trace_depth(3);
            {
                let _s = span!("test_deep");
            }
            set_trace_depth(0);
            let events = take_trace();
            assert_eq!(events[0].depth, 3);
        });
    }
}
