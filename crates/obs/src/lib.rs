//! # mcpat-obs — span-scoped tracing and metrics for the mcpat stack
//!
//! The modeling layers (solve cache, thread pool, allocator
//! probe) maintain process-global monotonic counters that are useful
//! for whole-process dashboards but **wrong** for per-call attribution:
//! two concurrent `Processor::build` calls differencing the same global
//! counter each see the other's traffic. This crate provides the scoped
//! alternative:
//!
//! * [`Collector`] — a cheap-to-clone, thread-safe bag of counters.
//!   [`Collector::enter`] pushes it onto a **thread-local scope chain**;
//!   every event recorded while the chain is active bills *every*
//!   collector on the chain, so nested scopes (a build inside an
//!   exploration) each see exactly the traffic that happened inside
//!   them.
//! * [`ScopeChain`] / [`current_chain`] — a `Send + Sync` snapshot of
//!   the chain, captured when work is handed to another thread (the
//!   `mcpat-par` pool captures it at task submission). Activating the
//!   chain on the executing thread makes stolen work bill the
//!   *submitting* scope, not the thief.
//! * Event seams — [`record_solve`], [`record_pool_submitted`],
//!   [`record_pool_steal`], [`record_pool_inline`] — called by
//!   `mcpat-array`'s memo cache and `mcpat-par`'s pool next to their
//!   global counters.
//! * Allocation attribution — [`register_alloc_probe`] accepts a
//!   `fn() -> u64` returning the **calling thread's** allocation count
//!   (a binary with a counting `#[global_allocator]` registers one).
//!   Deltas are flushed to the active chain at every chain switch, so
//!   allocations bill the scope that was active when they happened,
//!   on whichever thread they happened.
//! * Structured spans — [`span`] records component path, wall time,
//!   cache outcome and relaxation events into every enclosing
//!   collector, but **only** when tracing is enabled via
//!   [`set_tracing`]; when disabled (the default) a span is a single
//!   relaxed atomic load. [`Trace`] bundles the span list with counter
//!   totals and exports hand-rolled JSON for `--trace FILE`.
//!
//! Scope guards are `!Send` and must drop in LIFO order (ordinary Rust
//! scoping guarantees this); the chain itself is a persistent linked
//! list of `Arc` nodes, so capturing it is O(1).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Counter totals observed by one [`Collector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Solve-cache hits billed to this scope.
    pub solve_cache_hits: u64,
    /// Solve-cache misses (full solves) billed to this scope.
    pub solve_cache_misses: u64,
    /// Hits that waited for an in-flight identical solve.
    pub solve_cache_coalesced: u64,
    /// Solve-cache entries evicted (CLOCK cap) while this scope was
    /// active — nonzero means the working set exceeds the cache cap.
    pub solve_cache_evictions: u64,
    /// Tasks submitted to the pool from inside this scope.
    pub pool_submitted: u64,
    /// Pool tasks submitted by this scope that another worker stole.
    pub pool_steals: u64,
    /// Closures this scope ran inline instead of submitting.
    pub pool_inline: u64,
    /// Heap allocations billed to this scope (0 unless a probe is
    /// registered via [`register_alloc_probe`]).
    pub allocs: u64,
    /// DSE candidates killed by the frontier's lower-bound prune before
    /// any build ran.
    pub dse_pruned: u64,
    /// DSE candidates served by an incremental delta rebuild (a probe)
    /// instead of a full build.
    pub dse_probes: u64,
    /// DSE candidates (and row bases) that needed a full chip build.
    pub dse_full_builds: u64,
}

/// One completed [`span`]: a named phase with wall time and the cache /
/// relaxation outcome observed while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Component path, e.g. `build.core`.
    pub path: String,
    /// Wall-clock duration of the span, seconds.
    pub wall_s: f64,
    /// Solve-cache hits observed inside the span.
    pub solve_cache_hits: u64,
    /// Solve-cache misses observed inside the span.
    pub solve_cache_misses: u64,
    /// Heap allocations observed inside the span (0 without a probe).
    pub allocs: u64,
    /// Relaxation events noted via [`SpanGuard::note_relaxations`].
    pub relaxations: u64,
}

#[derive(Default)]
struct Inner {
    solve_cache_hits: AtomicU64,
    solve_cache_misses: AtomicU64,
    solve_cache_coalesced: AtomicU64,
    solve_cache_evictions: AtomicU64,
    pool_submitted: AtomicU64,
    pool_steals: AtomicU64,
    pool_inline: AtomicU64,
    allocs: AtomicU64,
    dse_pruned: AtomicU64,
    dse_probes: AtomicU64,
    dse_full_builds: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A scoped counter bag. Clones share the same counters.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Collector {
    /// A fresh collector with all counters at zero.
    #[must_use]
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Pushes this collector onto the current thread's scope chain.
    /// Until the returned guard drops, every event recorded on this
    /// thread — and on any pool worker executing tasks submitted from
    /// inside the scope — bills this collector (and every outer one).
    #[must_use]
    pub fn enter(&self) -> ScopeGuard {
        flush_allocs();
        let prev = chain_head();
        let node = Arc::new(Node {
            collector: self.clone(),
            parent: prev.clone(),
        });
        set_chain_head(Some(node));
        ScopeGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Current counter totals.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let i = &self.inner;
        Snapshot {
            solve_cache_hits: i.solve_cache_hits.load(Ordering::Relaxed),
            solve_cache_misses: i.solve_cache_misses.load(Ordering::Relaxed),
            solve_cache_coalesced: i.solve_cache_coalesced.load(Ordering::Relaxed),
            solve_cache_evictions: i.solve_cache_evictions.load(Ordering::Relaxed),
            pool_submitted: i.pool_submitted.load(Ordering::Relaxed),
            pool_steals: i.pool_steals.load(Ordering::Relaxed),
            pool_inline: i.pool_inline.load(Ordering::Relaxed),
            allocs: i.allocs.load(Ordering::Relaxed),
            dse_pruned: i.dse_pruned.load(Ordering::Relaxed),
            dse_probes: i.dse_probes.load(Ordering::Relaxed),
            dse_full_builds: i.dse_full_builds.load(Ordering::Relaxed),
        }
    }

    /// The spans recorded inside this scope plus the counter totals.
    /// Spans are only recorded while [`set_tracing`]`(true)` is active.
    #[must_use]
    pub fn trace(&self) -> Trace {
        let spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        Trace {
            spans,
            totals: self.snapshot(),
        }
    }

    fn push_span(&self, rec: SpanRecord) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rec);
    }
}

struct Node {
    collector: Collector,
    parent: Option<Arc<Node>>,
}

thread_local! {
    static HEAD: Cell<Option<Arc<Node>>> = const { Cell::new(None) };
    static ALLOC_MARK: Cell<u64> = const { Cell::new(0) };
}

fn chain_head() -> Option<Arc<Node>> {
    HEAD.with(|h| {
        let head = h.take();
        let copy = head.clone();
        h.set(head);
        copy
    })
}

fn set_chain_head(head: Option<Arc<Node>>) {
    HEAD.with(|h| h.set(head));
}

/// Applies `f` to every collector on the current thread's chain.
fn bill(f: impl Fn(&Inner)) {
    HEAD.with(|h| {
        let head = h.take();
        let mut cur = head.as_ref();
        while let Some(node) = cur {
            f(&node.collector.inner);
            cur = node.parent.as_ref();
        }
        h.set(head);
    });
}

/// Drop guard returned by [`Collector::enter`]. `!Send`; drop in LIFO
/// order (ordinary scoping).
pub struct ScopeGuard {
    prev: Option<Arc<Node>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        flush_allocs();
        set_chain_head(self.prev.take());
    }
}

/// A `Send + Sync` snapshot of a thread's scope chain, captured with
/// [`current_chain`] when work is handed to another thread.
#[derive(Clone, Default)]
pub struct ScopeChain {
    head: Option<Arc<Node>>,
}

// SAFETY-free: Arc<Node> is Send + Sync because Collector's interior is
// atomics plus a Mutex; the auto traits propagate. (No unsafe impls —
// this comment documents why the derive-free struct is still shareable.)
impl ScopeChain {
    /// Installs this chain on the current thread until the guard drops,
    /// restoring whatever chain was active before. Allocation deltas
    /// are flushed on both switches so they bill the right scope.
    #[must_use]
    pub fn activate(&self) -> ChainGuard {
        flush_allocs();
        let prev = chain_head();
        set_chain_head(self.head.clone());
        ChainGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

/// The scope chain active on the current thread (empty if none).
#[must_use]
pub fn current_chain() -> ScopeChain {
    ScopeChain { head: chain_head() }
}

/// Drop guard returned by [`ScopeChain::activate`].
pub struct ChainGuard {
    prev: Option<Arc<Node>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ChainGuard {
    fn drop(&mut self) {
        flush_allocs();
        set_chain_head(self.prev.take());
    }
}

// ---------------------------------------------------------------------------
// Event seams (called by mcpat-array's memo cache and mcpat-par's pool).
// ---------------------------------------------------------------------------

/// Bills one solve-cache lookup outcome to the active scope chain.
pub fn record_solve(hit: bool, coalesced: bool) {
    bill(|i| {
        if hit {
            i.solve_cache_hits.fetch_add(1, Ordering::Relaxed);
            if coalesced {
                i.solve_cache_coalesced.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            i.solve_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Bills `n` solve-cache evictions to the active scope chain (the memo
/// cache calls this when the CLOCK cap forces entries out).
pub fn record_solve_evictions(n: u64) {
    if n > 0 {
        bill(|i| {
            i.solve_cache_evictions.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills `n` pool task submissions to the active scope chain.
pub fn record_pool_submitted(n: u64) {
    if n > 0 {
        bill(|i| {
            i.pool_submitted.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills one steal to the active scope chain. The pool activates the
/// *submitter's* captured chain before calling this, so the steal bills
/// the scope that submitted the task, not the thief's own scope.
pub fn record_pool_steal() {
    bill(|i| {
        i.pool_steals.fetch_add(1, Ordering::Relaxed);
    });
}

/// Bills `n` inline (non-submitted) closure executions to the active
/// scope chain.
pub fn record_pool_inline(n: u64) {
    if n > 0 {
        bill(|i| {
            i.pool_inline.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills `n` lower-bound-pruned DSE candidates to the active scope
/// chain (the streaming explorer calls this for candidates it never
/// builds).
pub fn record_dse_pruned(n: u64) {
    if n > 0 {
        bill(|i| {
            i.dse_pruned.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills `n` incremental delta-rebuild probes to the active scope chain.
pub fn record_dse_probes(n: u64) {
    if n > 0 {
        bill(|i| {
            i.dse_probes.fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Bills `n` full DSE chip builds to the active scope chain.
pub fn record_dse_full_builds(n: u64) {
    if n > 0 {
        bill(|i| {
            i.dse_full_builds.fetch_add(n, Ordering::Relaxed);
        });
    }
}

// ---------------------------------------------------------------------------
// Allocation attribution.
// ---------------------------------------------------------------------------

static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers a callback that reports the **calling thread's** heap
/// allocation count (a binary with a counting `#[global_allocator]`
/// registers one; see `benchline`). Returns `false` if a probe was
/// already registered (the first registration wins).
pub fn register_alloc_probe(probe: fn() -> u64) -> bool {
    ALLOC_PROBE.set(probe).is_ok()
}

/// Bills allocations made since the last flush to the chain that was
/// active while they happened. Called automatically at every chain
/// switch; call it manually before snapshotting a collector that is
/// still entered on the current thread.
pub fn flush_allocs() {
    let Some(probe) = ALLOC_PROBE.get() else {
        return;
    };
    let now = probe();
    ALLOC_MARK.with(|mark| {
        let delta = now.saturating_sub(mark.get());
        mark.set(now);
        if delta > 0 {
            bill(|i| {
                i.allocs.fetch_add(delta, Ordering::Relaxed);
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables span recording. Scoped *counters* are
/// always on; spans are the opt-in part. Enabling tracing must not
/// change any model output (asserted in `tests/perf_identity.rs`).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Opens a named span. When tracing is disabled this is one relaxed
/// atomic load and the guard is inert. When enabled, the span gets an
/// ephemeral [`Collector`] on the scope chain; on drop a [`SpanRecord`]
/// is appended to every collector that encloses the span.
#[must_use]
pub fn span(path: &str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard {
            active: None,
            _not_send: PhantomData,
        };
    }
    flush_allocs();
    let collector = Collector::new();
    let prev = chain_head();
    let node = Arc::new(Node {
        collector: collector.clone(),
        parent: prev.clone(),
    });
    set_chain_head(Some(node));
    SpanGuard {
        active: Some(ActiveSpan {
            path: path.to_owned(),
            start: Instant::now(),
            collector,
            prev,
            relaxations: Cell::new(0),
        }),
        _not_send: PhantomData,
    }
}

struct ActiveSpan {
    path: String,
    start: Instant,
    collector: Collector,
    prev: Option<Arc<Node>>,
    relaxations: Cell<u64>,
}

/// Drop guard returned by [`span`]. `!Send`; drop in LIFO order.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Notes `n` relaxation events (solver fallbacks, degraded clock
    /// targets) against this span. Inert when tracing is disabled.
    pub fn note_relaxations(&self, n: u64) {
        if let Some(active) = &self.active {
            active
                .relaxations
                .set(active.relaxations.get().saturating_add(n));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        flush_allocs();
        set_chain_head(active.prev.clone());
        let snap = active.collector.snapshot();
        let rec = SpanRecord {
            path: active.path,
            wall_s: active.start.elapsed().as_secs_f64(),
            solve_cache_hits: snap.solve_cache_hits,
            solve_cache_misses: snap.solve_cache_misses,
            allocs: snap.allocs,
            relaxations: active.relaxations.get(),
        };
        // Every enclosing collector gets the record: the build's own
        // collector exports it via `trace()`, and an outer benchmark
        // scope can summarize spans across many builds.
        let mut cur = active.prev.as_ref();
        while let Some(node) = cur {
            node.collector.push_span(rec.clone());
            cur = node.parent.as_ref();
        }
    }
}

// ---------------------------------------------------------------------------
// Trace export.
// ---------------------------------------------------------------------------

/// A completed trace: the spans recorded inside one collector scope
/// plus that scope's counter totals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
    /// Counter totals for the whole scope.
    pub totals: Snapshot,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Trace {
    /// Serializes the trace as a stable, self-describing JSON document
    /// (`schema: "mcpat-trace-v1"`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 160);
        out.push_str("{\n  \"schema\": \"mcpat-trace-v1\",\n  \"totals\": {");
        let t = self.totals;
        out.push_str(&format!(
            "\n    \"solve_cache_hits\": {},\n    \"solve_cache_misses\": {},\n    \
             \"solve_cache_coalesced\": {},\n    \"solve_cache_evictions\": {},\n    \
             \"pool_submitted\": {},\n    \
             \"pool_steals\": {},\n    \"pool_inline\": {},\n    \"allocs\": {},\n    \
             \"dse_pruned\": {},\n    \"dse_probes\": {},\n    \"dse_full_builds\": {}\n  }},",
            t.solve_cache_hits,
            t.solve_cache_misses,
            t.solve_cache_coalesced,
            t.solve_cache_evictions,
            t.pool_submitted,
            t.pool_steals,
            t.pool_inline,
            t.allocs,
            t.dse_pruned,
            t.dse_probes,
            t.dse_full_builds
        ));
        out.push_str("\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"path\": \"");
            escape_json(&s.path, &mut out);
            out.push_str(&format!(
                "\", \"wall_s\": {:.9}, \"solve_cache_hits\": {}, \"solve_cache_misses\": {}, \
                 \"allocs\": {}, \"relaxations\": {} }}",
                s.wall_s, s.solve_cache_hits, s.solve_cache_misses, s.allocs, s.relaxations
            ));
        }
        if self.spans.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Tests in this module mutate the process-wide tracing flag and the
    // (thread-local) chain; serialize them.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn events_bill_every_collector_on_the_chain() {
        let _l = lock();
        let outer = Collector::new();
        let inner = Collector::new();
        {
            let _o = outer.enter();
            record_solve(false, false);
            {
                let _i = inner.enter();
                record_solve(true, false);
                record_pool_inline(2);
            }
            record_pool_submitted(3);
        }
        let o = outer.snapshot();
        let i = inner.snapshot();
        assert_eq!(o.solve_cache_misses, 1);
        assert_eq!(o.solve_cache_hits, 1);
        assert_eq!(o.pool_inline, 2);
        assert_eq!(o.pool_submitted, 3);
        assert_eq!(i.solve_cache_misses, 0);
        assert_eq!(i.solve_cache_hits, 1);
        assert_eq!(i.pool_inline, 2);
        assert_eq!(i.pool_submitted, 0);
    }

    #[test]
    fn events_outside_any_scope_are_dropped() {
        let _l = lock();
        let c = Collector::new();
        record_solve(true, true);
        record_pool_steal();
        assert_eq!(c.snapshot(), Snapshot::default());
    }

    #[test]
    fn captured_chain_bills_from_another_thread() {
        let _l = lock();
        let c = Collector::new();
        let chain = {
            let _s = c.enter();
            current_chain()
        };
        // The scope has exited on this thread, but the captured chain
        // still routes events recorded by the "worker".
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _g = chain.activate();
                record_pool_steal();
                record_solve(false, false);
            });
        });
        let snap = c.snapshot();
        assert_eq!(snap.pool_steals, 1);
        assert_eq!(snap.solve_cache_misses, 1);
    }

    #[test]
    fn spans_are_inert_when_tracing_is_disabled() {
        let _l = lock();
        set_tracing(false);
        let c = Collector::new();
        {
            let _s = c.enter();
            let sp = span("build.core");
            sp.note_relaxations(5);
            drop(sp);
        }
        assert!(c.trace().spans.is_empty());
    }

    #[test]
    fn spans_record_path_counters_and_relaxations() {
        let _l = lock();
        let c = Collector::new();
        set_tracing(true);
        {
            let _s = c.enter();
            let sp = span("build.l2");
            record_solve(false, false);
            record_solve(true, false);
            sp.note_relaxations(2);
            drop(sp);
            // A solve after the span closed must not appear in it.
            record_solve(false, false);
        }
        set_tracing(false);
        let trace = c.trace();
        assert_eq!(trace.spans.len(), 1);
        let s = &trace.spans[0];
        assert_eq!(s.path, "build.l2");
        assert_eq!(s.solve_cache_hits, 1);
        assert_eq!(s.solve_cache_misses, 1);
        assert_eq!(s.relaxations, 2);
        assert!(s.wall_s >= 0.0);
        assert_eq!(trace.totals.solve_cache_misses, 2);
    }

    #[test]
    fn nested_spans_propagate_to_all_ancestors() {
        let _l = lock();
        let c = Collector::new();
        set_tracing(true);
        {
            let _s = c.enter();
            let outer = span("build");
            {
                let _inner = span("build.core");
                record_solve(false, false);
            }
            drop(outer);
        }
        set_tracing(false);
        let trace = c.trace();
        let paths: Vec<&str> = trace.spans.iter().map(|s| s.path.as_str()).collect();
        // Children complete first; both land on the root collector.
        assert_eq!(paths, ["build.core", "build"]);
        assert_eq!(trace.spans[1].solve_cache_misses, 1);
    }

    #[test]
    fn trace_json_is_well_formed_and_escaped() {
        let _l = lock();
        let trace = Trace {
            spans: vec![SpanRecord {
                path: String::from("a\"b\\c"),
                wall_s: 0.25,
                solve_cache_hits: 1,
                solve_cache_misses: 2,
                allocs: 3,
                relaxations: 4,
            }],
            totals: Snapshot {
                solve_cache_hits: 1,
                ..Snapshot::default()
            },
        };
        let json = trace.to_json();
        assert!(json.contains("\"schema\": \"mcpat-trace-v1\""));
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("\"wall_s\": 0.250000000"));
        assert!(json.contains("\"solve_cache_hits\": 1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let empty = Trace::default().to_json();
        assert!(empty.contains("\"spans\": []"));
    }

    #[test]
    fn clones_share_counters() {
        let _l = lock();
        let a = Collector::new();
        let b = a.clone();
        {
            let _s = a.enter();
            record_pool_inline(7);
        }
        assert_eq!(b.snapshot().pool_inline, 7);
    }
}
