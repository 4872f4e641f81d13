//! Heap-allocation telemetry: a [`GlobalAlloc`] wrapper counting
//! allocations, and per-span figures read back from the registry.
//!
//! The workspace's litho/STA hot paths are allocation-sensitive (scratch
//! buffers, memo keys), so knowing *which span* allocates is as valuable
//! as knowing which span burns time. [`CountingAlloc`] wraps the system
//! allocator; binaries opt in with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: svt_obs::alloc::CountingAlloc = svt_obs::alloc::CountingAlloc::system();
//! ```
//!
//! # Attribution
//!
//! The hook knows nothing about spans. It bumps the process totals
//! ([`totals`]) and two per-thread counters. A [`crate::Span`] reads the
//! thread's counters when it opens and when it drops, and records the
//! difference into its [`crate::SpanStat`] next to its time, so a span's
//! allocation figure is *inclusive* (child spans count) and
//! *same-thread* (a pool task's allocations belong to the task's own
//! span, which roots at its own name). [`snapshot_sites`] derives the
//! per-leaf view: each span's self allocations (inclusive minus direct
//! children, [`crate::registry::self_values`]) summed by leaf name. Two
//! span paths sharing a leaf name aggregate together; every leaf in this
//! workspace is unique enough in practice. Figures cover completed spans
//! only, so a span that is still open shows nothing yet.
//!
//! # Cost contract
//!
//! The hook runs *inside* `malloc`, so it never allocates, locks, or
//! panics: it touches relaxed atomics and const-initialized thread-local
//! [`Cell`]s (no lazy initializer). Mirrors the rest of `svt-obs`:
//! compiled out entirely without the `alloc-telemetry` feature, and when
//! compiled in but not activated (the default) the hook is **one relaxed
//! atomic load** before falling through to the real allocator.
//! [`set_active`] turns recording on — `svtd` and `bench_pipeline` do
//! this explicitly; batch runs never pay.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Runtime switch; off by default so the hook costs one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Process-wide allocation totals (count, bytes) while active.
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocation count and bytes while active. Const-init
    /// and drop-free: reading them from the hook never runs a lazy TLS
    /// initializer or registers a destructor.
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's running `(count, bytes)` allocation counters; a span
/// keeps the difference between its open and its drop.
#[inline]
pub(crate) fn thread_counters() -> (u64, u64) {
    (
        THREAD_COUNT.try_with(Cell::get).unwrap_or(0),
        THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// The leaf name of the innermost open span on this thread, or `None`
/// outside any span (and whenever tracing is off).
#[must_use]
pub fn current_span() -> Option<&'static str> {
    crate::SPAN_STACK
        .try_with(|stack| stack.borrow().last().copied())
        .ok()
        .flatten()
}

/// Turns allocation recording on or off at runtime. Independent of
/// `SVT_TRACE` so a daemon can watch memory even while trace mode is off.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Whether allocation recording is currently active.
#[inline]
#[must_use]
pub fn active() -> bool {
    cfg!(feature = "alloc-telemetry") && ACTIVE.load(Ordering::Relaxed)
}

/// The allocation hook proper: atomics and TLS cells only, no
/// allocation, no panic.
#[inline]
fn record_alloc(bytes: usize) {
    if !cfg!(feature = "alloc-telemetry") {
        return;
    }
    if !ACTIVE.load(Ordering::Relaxed) {
        return; // the entire inactive cost: one relaxed load
    }
    TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Self allocations of every span sharing one leaf name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Span leaf name the allocations happened under.
    pub span: String,
    /// Number of heap allocations (realloc growth counts once).
    pub count: u64,
    /// Total bytes requested.
    pub bytes: u64,
}

/// Process-wide `(count, bytes)` totals recorded while active.
#[must_use]
pub fn totals() -> (u64, u64) {
    (
        TOTAL_COUNT.load(Ordering::Relaxed),
        TOTAL_BYTES.load(Ordering::Relaxed),
    )
}

/// Zeroes the process totals. Lets a benchmark isolate one measured
/// section (warm up, reset, measure) instead of reporting cumulative
/// process history. The per-span figures live in the registry and reset
/// with [`crate::Registry::reset_metrics`].
pub fn reset() {
    TOTAL_COUNT.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
}

/// Self allocations per span leaf name, read from the registry's span
/// aggregates and sorted by name. Leaves with no allocations are left
/// out. Safe to call from a scrape handler while the hook is live.
#[must_use]
pub fn snapshot_sites() -> Vec<AllocSite> {
    let spans = crate::registry().snapshot().spans;
    let counts = crate::registry::self_values(&spans, |e| e.alloc_count);
    let bytes = crate::registry::self_values(&spans, |e| e.alloc_bytes);
    let mut sites: Vec<AllocSite> = Vec::new();
    for ((entry, count), bytes) in spans.iter().zip(counts).zip(bytes) {
        if count == 0 {
            continue;
        }
        let leaf = entry.path.rsplit('/').next().unwrap_or(&entry.path);
        if let Some(site) = sites.iter_mut().find(|s| s.span == leaf) {
            site.count += count;
            site.bytes += bytes;
        } else {
            sites.push(AllocSite {
                span: leaf.to_string(),
                count,
                bytes,
            });
        }
    }
    sites.sort_by(|a, b| a.span.cmp(&b.span));
    sites
}

/// Pushes the current allocation totals and per-span attribution into the
/// global registry as gauges (`alloc.total.count`, `alloc.total.bytes`,
/// `alloc.span.<leaf>.bytes`, …) so they ride along in every snapshot,
/// exposition, and scrape. Allocates freely — never call from the hook.
pub fn publish_gauges() {
    let (count, bytes) = totals();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    crate::registry()
        .gauge("alloc.total.count")
        .set(clamp(count));
    crate::registry()
        .gauge("alloc.total.bytes")
        .set(clamp(bytes));
    for site in snapshot_sites() {
        crate::registry()
            .gauge(&format!("alloc.span.{}.count", site.span))
            .set(clamp(site.count));
        crate::registry()
            .gauge(&format!("alloc.span.{}.bytes", site.span))
            .set(clamp(site.bytes));
    }
}

/// A [`GlobalAlloc`] wrapper that forwards to `A` and, while
/// [`set_active`] is on, counts each allocation into the process totals
/// and the calling thread's counters. Deallocations are forwarded
/// untouched: the telemetry answers "who allocates", and churn shows up
/// in `count` regardless.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc<A = System>(A);

impl CountingAlloc<System> {
    /// The system allocator, wrapped. `const` so it can initialize a
    /// `#[global_allocator]` static.
    #[must_use]
    pub const fn system() -> CountingAlloc<System> {
        CountingAlloc(System)
    }
}

// SAFETY: forwards every call verbatim to the inner allocator; the
// recording hook touches only atomics and const-init TLS cells, so the
// GlobalAlloc contract (no unwinding, no reentrant allocation) holds.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() && new_size > layout.size() {
            record_alloc(new_size - layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
    }
}
