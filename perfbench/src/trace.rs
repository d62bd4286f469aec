//! In-memory span recording and the pass-through wrappers that emit
//! spans at layer boundaries.
//!
//! A span is one call across a layer boundary: its layer and operation
//! names, start and end on one process-wide clock, the span that was
//! open on the same thread when it began (its parent), and the number
//! of items the call carried. Spans are kept in memory and written out
//! once, when the run ends. Recording is off unless [`set_enabled`]
//! turned it on, so the untraced run goes through the same wrappers at
//! the cost of one relaxed load per call.
//!
//! Only whole calls are timed — a batch, a query, a checkpoint — never
//! single per-key backend calls inside a batch.

use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use td_decay::checkpoint::{Checkpoint, RestoreError};
use td_decay::{ErrorBound, StorageAccounting, StreamAggregate, Time};
use td_persist::{KeyedCheckpoint, Storage};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique, non-zero.
    pub id: u64,
    /// The span open on this thread when this one began (0: none).
    pub parent: u64,
    /// Small per-thread index (1 = first thread that recorded).
    pub thread: u64,
    /// Layer name, e.g. `"shard"`.
    pub layer: &'static str,
    /// Operation name, e.g. `"observe_batch"`.
    pub op: &'static str,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub end_ns: u64,
    /// Items the call carried (0 for item-less calls).
    pub items: u64,
    /// Distinct ticks among those items (batch ingest only).
    pub ticks: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// An open span; recorded when [`SpanGuard::end`] is called or the
/// guard drops.
pub struct SpanGuard {
    open: Option<(u64, u64, u64)>,
    layer: &'static str,
    op: &'static str,
    items: u64,
    ticks: u64,
}

impl SpanGuard {
    /// Sets the item and distinct-tick counts recorded with the span.
    pub fn count(&mut self, items: u64, ticks: u64) {
        self.items = items;
        self.ticks = ticks;
    }

    /// Closes the span now.
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((id, parent, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            CURRENT.with(|c| c.set(parent));
            let span = Span {
                id,
                parent,
                thread: THREAD.with(|t| *t),
                layer: self.layer,
                op: self.op,
                start_ns,
                end_ns,
                items: self.items,
                ticks: self.ticks,
            };
            // Never panic in drop: a poisoned sink only loses the span.
            if let Ok(mut sink) = SINK.lock() {
                sink.push(span);
            }
        }
    }
}

/// Opens a span (a no-op guard while recording is off).
#[inline]
pub fn span(layer: &'static str, op: &'static str) -> SpanGuard {
    let open = enabled().then(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        (id, parent, now_ns())
    });
    SpanGuard {
        open,
        layer,
        op,
        items: 0,
        ticks: 0,
    }
}

fn distinct_ticks(items: &[(Time, u64)]) -> u64 {
    let mut n = 0;
    let mut prev = None;
    for &(t, _) in items {
        if prev != Some(t) {
            n += 1;
            prev = Some(t);
        }
    }
    n
}

/// A pass-through [`StreamAggregate`] (and, where the wrapped type has
/// them, [`Checkpoint`] and [`KeyedCheckpoint`]) that records one span
/// per call under its layer name. It wraps the sharded engine as the
/// reorder stage's inner aggregate, each WBMH shard backend, and the
/// keyed registry inside the durable store.
#[derive(Clone, Debug)]
pub struct Traced<A> {
    inner: A,
    layer: &'static str,
}

impl<A> Traced<A> {
    /// Wraps `inner`, naming its spans after `layer`.
    pub fn new(layer: &'static str, inner: A) -> Self {
        Traced { inner, layer }
    }

    /// The wrapped value.
    pub fn get(&self) -> &A {
        &self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: StorageAccounting> StorageAccounting for Traced<A> {
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl<A: StreamAggregate> StreamAggregate for Traced<A> {
    fn observe(&mut self, t: Time, f: u64) {
        let mut s = span(self.layer, "observe_batch");
        self.inner.observe(t, f);
        s.count(1, 1);
    }

    fn observe_batch(&mut self, items: &[(Time, u64)]) {
        let ticks = if enabled() { distinct_ticks(items) } else { 0 };
        let mut s = span(self.layer, "observe_batch");
        self.inner.observe_batch(items);
        s.count(items.len() as u64, ticks);
    }

    fn batched_ingest_amortizes(&self) -> bool {
        self.inner.batched_ingest_amortizes()
    }

    fn advance(&mut self, t: Time) {
        self.inner.advance(t);
    }

    fn query(&self, t: Time) -> f64 {
        let _s = span(self.layer, "query");
        self.inner.query(t)
    }

    fn merge_from(&mut self, other: &Self) {
        let _s = span(self.layer, "merge_from");
        self.inner.merge_from(&other.inner);
    }

    fn error_bound(&self) -> ErrorBound {
        self.inner.error_bound()
    }
}

impl<A: Checkpoint> Checkpoint for Traced<A> {
    fn save_checkpoint(&self) -> Vec<u8> {
        let _s = span(self.layer, "save_checkpoint");
        self.inner.save_checkpoint()
    }

    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let _s = span(self.layer, "restore_checkpoint");
        self.inner.restore_checkpoint(bytes)
    }
}

impl<A: KeyedCheckpoint> KeyedCheckpoint for Traced<A> {
    fn observe_keyed(&mut self, key: u64, t: Time, f: u64) {
        let mut s = span(self.layer, "observe_keyed_batch");
        self.inner.observe_keyed(key, t, f);
        s.count(1, 1);
    }

    fn observe_keyed_batch(&mut self, items: &[(u64, Time, u64)]) {
        let mut s = span(self.layer, "observe_keyed_batch");
        self.inner.observe_keyed_batch(items);
        s.count(items.len() as u64, 0);
    }
}

/// A pass-through [`Storage`] that counts the bytes the durable store
/// writes (WAL appends plus atomic checkpoint and manifest writes).
pub struct CountingStorage<S> {
    inner: S,
    written: std::sync::Arc<AtomicU64>,
}

impl<S> CountingStorage<S> {
    /// Wraps `inner`; `written` accumulates bytes written.
    pub fn new(inner: S, written: std::sync::Arc<AtomicU64>) -> Self {
        CountingStorage { inner, written }
    }
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(name, bytes)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_atomic(name, bytes)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// Summary of a span set: per-`(layer, op)` totals and self times.
pub struct Analysis {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Analysis {
    /// Computes self times: a span's duration minus the part of its
    /// interval its direct children cover. Children of one span run on
    /// its thread and nest inside it, so their durations add.
    pub fn new(mut spans: Vec<Span>) -> Self {
        spans.sort_unstable_by_key(|s| s.id);
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if s.parent != 0 {
                if let Ok(i) = spans.binary_search_by_key(&s.parent, |p| p.id) {
                    child_ns[i] += s.dur_ns();
                }
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect();
        Analysis { spans, self_ns }
    }

    /// All spans of one `(layer, op)`.
    pub fn of<'a>(&'a self, layer: &'a str, op: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.op == op)
    }

    /// Total self time of one layer (all its operations), in ns.
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &n)| n)
            .sum()
    }

    /// Total duration of one `(layer, op)`, in ns.
    pub fn total_ns(&self, layer: &str, op: &str) -> u64 {
        self.of(layer, op).map(|s| s.dur_ns()).sum()
    }

    /// Total items of one `(layer, op)`.
    pub fn items(&self, layer: &str, op: &str) -> u64 {
        self.of(layer, op).map(|s| s.items).sum()
    }

    /// Number of spans of one `(layer, op)`.
    pub fn calls(&self, layer: &str, op: &str) -> u64 {
        self.of(layer, op).count() as u64
    }

    /// Durations of one `(layer, op)`, in ns.
    pub fn durations(&self, layer: &str, op: &str) -> Vec<f64> {
        self.of(layer, op).map(|s| s.dur_ns() as f64).collect()
    }

    /// The span with id `id`.
    pub fn by_id(&self, id: u64) -> Option<&Span> {
        self.spans
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> io::Result<()> {
        use std::io::Write;
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(limit) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}.{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.thread, s.layer, s.op, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}
