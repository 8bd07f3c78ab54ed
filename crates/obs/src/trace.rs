//! Lightweight structured tracing: named spans with wall-clock timing,
//! `key=value` fields and parent/child nesting.
//!
//! A [`Span`] is opened with [`span`] (parent taken from a thread-local
//! stack) or [`child_of`] (explicit parent, e.g. from a worker thread
//! handed a [`SpanContext`], or `None` for a fresh trace). Dropping the span records its duration and
//! sends the finished [`SpanRecord`] to every registered [`Subscriber`],
//! plus the default ring-buffer collector behind [`recent`]. With no
//! subscriber registered, spans are disabled no-ops (one atomic load), so
//! uninstrumented runs pay essentially nothing.
//!
//! Spans carry a `trace_id` inherited from their root, so concurrent
//! queries interleave in the subscribers but are separable afterwards —
//! that is what [`crate::report::profile`] builds EXPLAIN trees from.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Uint(u64),
    Int(i64),
    Float(f64),
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Uint(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Uint(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Uint(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Uint(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Uint(v as u64)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A finished span, as delivered to subscribers.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub duration_ns: u64,
    pub fields: Vec<(&'static str, Value)>,
}

impl SpanRecord {
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The identity of a live span: enough to parent children across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub trace_id: u64,
    pub span_id: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The stack of live spans on this thread.
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span on this thread, if any.
pub fn current() -> Option<SpanContext> {
    STACK.with(|s| s.borrow().last().copied())
}

/// A live span. Dropping it records the duration and publishes the record.
///
/// When no subscriber is registered the span is *disabled*: no clock
/// reads, no id allocation, no thread-local push, and `record` is a
/// no-op — instrumented code pays one atomic load per span. The
/// EXPLAIN/profile path and any debugging subscriber re-enable full
/// recording for their duration.
pub struct Span {
    ctx: SpanContext,
    parent_id: Option<u64>,
    name: &'static str,
    /// `None` marks a disabled span (opened with no subscribers).
    start: Option<Instant>,
    start_ns: u64,
    fields: Vec<(&'static str, Value)>,
}

const DISABLED_CTX: SpanContext = SpanContext {
    trace_id: 0,
    span_id: 0,
};

fn disabled(name: &'static str) -> Span {
    Span {
        ctx: DISABLED_CTX,
        parent_id: None,
        name,
        start: None,
        start_ns: 0,
        fields: Vec::new(),
    }
}

fn tracing_enabled() -> bool {
    SUBSCRIBER_COUNT.load(Ordering::Acquire) > 0
}

/// Open a span as a child of the current thread-local span (or as a new
/// trace root when there is none).
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return disabled(name);
    }
    child_of(current(), name)
}

/// Open a span under an explicit parent context — the cross-thread entry
/// point. `None` starts a fresh trace. The span is also pushed on *this*
/// thread's stack, so nested [`span`] calls parent correctly.
pub fn child_of(parent: Option<SpanContext>, name: &'static str) -> Span {
    if !tracing_enabled() {
        return disabled(name);
    }
    let start = Instant::now();
    let ctx = SpanContext {
        trace_id: parent.map_or_else(next_id, |p| p.trace_id),
        span_id: next_id(),
    };
    STACK.with(|s| s.borrow_mut().push(ctx));
    Span {
        ctx,
        parent_id: parent.map(|p| p.span_id),
        name,
        start: Some(start),
        start_ns: start.duration_since(epoch()).as_nanos() as u64,
        fields: Vec::new(),
    }
}

impl Span {
    /// Whether this span actually records (a subscriber was registered
    /// when it opened). Callers computing an *expensive* field value —
    /// anything that allocates or re-derives state — should skip the
    /// computation entirely on a disabled span instead of relying on
    /// [`Span::record`]'s no-op.
    pub fn enabled(&self) -> bool {
        self.start.is_some()
    }

    /// Attach (or overwrite) a `key=value` field.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_none() {
            return;
        }
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key, value));
        }
    }

    /// Record `key` as a per-second rate: `count` items divided by the time
    /// elapsed since the span opened, rounded to a whole number. No-op on
    /// disabled spans (tracing off).
    pub fn record_rate(&mut self, key: &'static str, count: u64) {
        let Some(start) = self.start else {
            return;
        };
        let secs = start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            (count as f64 / secs) as u64
        } else {
            0
        };
        self.record(key, rate);
    }

    /// The context to hand to worker threads ([`child_of`]).
    pub fn context(&self) -> SpanContext {
        self.ctx
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally the top of the stack; be defensive about guards
            // dropped out of order.
            if let Some(pos) = stack.iter().rposition(|c| c.span_id == self.ctx.span_id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_ns: self.start_ns,
            duration_ns: start.elapsed().as_nanos() as u64,
            fields: std::mem::take(&mut self.fields),
        };
        dispatch(record);
    }
}

/// Receives finished spans.
pub trait Subscriber: Send + Sync {
    fn on_span(&self, record: &SpanRecord);
}

type SubscriberList = Vec<(u64, Arc<dyn Subscriber>)>;

fn subscribers() -> &'static RwLock<SubscriberList> {
    static SUBSCRIBERS: OnceLock<RwLock<SubscriberList>> = OnceLock::new();
    SUBSCRIBERS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Lock-free fast-path check so uninstrumented runs (no collector, no
/// stderr writer) skip the subscriber lock entirely on every span drop.
static SUBSCRIBER_COUNT: AtomicU64 = AtomicU64::new(0);

/// Register a subscriber; returns a token for [`unsubscribe`].
pub fn subscribe(subscriber: Arc<dyn Subscriber>) -> u64 {
    let token = next_id();
    let mut subs = subscribers().write().expect("subscriber lock");
    subs.push((token, subscriber));
    SUBSCRIBER_COUNT.store(subs.len() as u64, Ordering::Release);
    token
}

pub fn unsubscribe(token: u64) {
    let mut subs = subscribers().write().expect("subscriber lock");
    subs.retain(|(t, _)| *t != token);
    SUBSCRIBER_COUNT.store(subs.len() as u64, Ordering::Release);
}

fn dispatch(record: SpanRecord) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) > 0 {
        for (_, s) in subscribers().read().expect("subscriber lock").iter() {
            s.on_span(&record);
        }
    }
    // The record is moved (not cloned) into the always-on ring.
    default_ring().push(record);
}

/// The default subscriber: a bounded ring buffer of the most recent spans.
pub struct RingBuffer {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingBuffer {
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Oldest-first copy of the buffered spans.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }

    pub fn clear(&self) {
        self.buf.lock().expect("ring lock").clear();
    }

    fn push(&self, record: SpanRecord) {
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(record);
    }
}

impl Subscriber for RingBuffer {
    fn on_span(&self, record: &SpanRecord) {
        self.push(record.clone());
    }
}

fn default_ring() -> &'static RingBuffer {
    static RING: OnceLock<RingBuffer> = OnceLock::new();
    RING.get_or_init(|| RingBuffer::new(4096))
}

/// The most recent spans from the default ring buffer (populated while
/// at least one subscriber is registered — see [`Span`]).
pub fn recent() -> Vec<SpanRecord> {
    default_ring().records()
}

/// An optional subscriber that writes one line per span to stderr
/// (`name dur=1.234ms parent=… k=v …`). Subscribe it for ad-hoc
/// debugging: `obs::subscribe(Arc::new(obs::StderrWriter))`.
pub struct StderrWriter;

impl Subscriber for StderrWriter {
    fn on_span(&self, record: &SpanRecord) {
        let mut line = format!(
            "[obs] {} dur={:.3}ms trace={}",
            record.name,
            record.duration_ns as f64 / 1e6,
            record.trace_id
        );
        for (k, v) in &record.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line.push('\n');
        // Best-effort: observability must never fail the observed code.
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }
}

/// A subscriber that accumulates every span it sees (the EXPLAIN
/// collector).
#[derive(Default)]
pub struct Collector {
    records: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    pub fn new() -> Self {
        Collector::default()
    }

    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.records.lock().expect("collector lock"))
    }
}

impl Subscriber for Collector {
    fn on_span(&self, record: &SpanRecord) {
        self.records
            .lock()
            .expect("collector lock")
            .push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_via_thread_local_stack() {
        let collector = Arc::new(Collector::new());
        let token = subscribe(collector.clone());
        {
            let mut outer = span("outer");
            outer.record("k", 1u64);
            {
                let _inner = span("inner");
            }
        }
        unsubscribe(token);
        let records = collector.take();
        // Our two spans, in close order (inner first), same trace.
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent_id, Some(outer.span_id));
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(outer.parent_id, None);
        assert_eq!(outer.field("k"), Some(&Value::Uint(1)));
    }

    #[test]
    fn cross_thread_parenting() {
        let collector = Arc::new(Collector::new());
        let token = subscribe(collector.clone());
        {
            let parent = span("parent");
            let ctx = parent.context();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _child = child_of(Some(ctx), "worker");
                });
            });
        }
        unsubscribe(token);
        let records = collector.take();
        let parent = records.iter().find(|r| r.name == "parent").unwrap();
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(worker.parent_id, Some(parent.span_id));
        assert_eq!(worker.trace_id, parent.trace_id);
    }

    #[test]
    fn record_overwrites_field() {
        let collector = Arc::new(Collector::new());
        let token = subscribe(collector.clone());
        {
            let mut s = span("overwrite");
            s.record("rows", 1u64);
            s.record("rows", 2u64);
        }
        unsubscribe(token);
        let records = collector.take();
        let s = records.iter().find(|r| r.name == "overwrite").unwrap();
        assert_eq!(s.fields.len(), 1);
        assert_eq!(s.field("rows"), Some(&Value::Uint(2)));
    }

    #[test]
    fn ring_buffer_caps() {
        let ring = RingBuffer::new(2);
        for i in 0..5u64 {
            ring.on_span(&SpanRecord {
                trace_id: 1,
                span_id: i,
                parent_id: None,
                name: "x",
                start_ns: 0,
                duration_ns: 0,
                fields: Vec::new(),
            });
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].span_id, 3);
        assert_eq!(records[1].span_id, 4);
    }
}
