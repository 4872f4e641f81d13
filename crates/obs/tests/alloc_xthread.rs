//! A span's allocation figure counts its own thread only: bytes another
//! thread allocates while the span is open belong to that thread's span.
//!
//! Its own test binary (with the counting allocator installed as the
//! process `#[global_allocator]`) because the hook's activity switch is
//! process-global and `alloc_attr.rs` asserts exact totals.

use std::sync::Barrier;

use svt_obs::alloc::{self, CountingAlloc};
use svt_obs::TraceMode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

#[test]
fn an_open_span_is_not_charged_for_another_threads_allocations() {
    const MIB: u64 = 1 << 20;
    svt_obs::set_mode(TraceMode::Summary);
    alloc::set_active(true);
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _a = svt_obs::span("t.xthread.a");
            barrier.wait(); // A is open ...
            barrier.wait(); // ... until B has allocated and closed.
        });
        scope.spawn(|| {
            barrier.wait();
            {
                let _b = svt_obs::span("t.xthread.b");
                let big: Vec<u8> = Vec::with_capacity(MIB as usize);
                std::hint::black_box(&big);
            }
            barrier.wait();
        });
    });
    alloc::set_active(false);
    svt_obs::set_mode(TraceMode::Off);

    let spans = svt_obs::registry().snapshot().spans;
    let span = |path: &str| {
        spans
            .iter()
            .find(|s| s.path == path)
            .unwrap_or_else(|| panic!("no span `{path}`"))
    };
    assert!(span("t.xthread.b").alloc_bytes >= MIB, "B owns its MiB");
    assert!(
        span("t.xthread.a").alloc_bytes < MIB,
        "A was charged for B's MiB: {} bytes",
        span("t.xthread.a").alloc_bytes
    );
    let sites = alloc::snapshot_sites();
    assert!(sites
        .iter()
        .any(|s| s.span == "t.xthread.b" && s.bytes >= MIB));
    assert!(!sites
        .iter()
        .any(|s| s.span == "t.xthread.a" && s.bytes >= MIB));
}
