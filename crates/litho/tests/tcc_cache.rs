//! The TCC table cache stays within its byte budget on long windows.
//!
//! A table grows with the square of its window, so full-chip OPC rows
//! (~100 µm) build tables of megabytes each. The cache resets once the
//! tables it holds would pass its budget; a rebuilt table must give a
//! bit-identical image. This lives in its own test binary so no other test
//! touches the process-wide cache while it counts entries.

use svt_litho::{clear_litho_caches, transfer_cache_stats, MaskCutline, Process};

#[test]
fn long_windows_reset_the_cache_and_rebuild_identically() {
    clear_litho_caches();
    // A coarse grid keeps the FFTs small; the table size depends only on
    // the window, and each of these two is over half the budget.
    let sim = Process::nm90().with_grid_nm(8.0).simulator();
    let lines: Vec<(f64, f64)> = (-200..=200)
        .map(|i| {
            let c = f64::from(i) * 300.0;
            (c - 45.0, c + 45.0)
        })
        .collect();
    let window_a = MaskCutline::from_lines(-70_000.0, 140_000.0, 8.0, &lines).unwrap();
    let window_b = MaskCutline::from_lines(-70_000.0, 140_008.0, 8.0, &lines).unwrap();

    let first = sim.aerial_image(&window_a, 0.0);
    assert_eq!(transfer_cache_stats().entries, 1);
    let _ = sim.aerial_image(&window_b, 0.0);
    assert_eq!(
        transfer_cache_stats().entries,
        1,
        "the second long-window table must reset the cache, not join it"
    );

    let again = sim.aerial_image(&window_a, 0.0);
    let stats = transfer_cache_stats();
    assert_eq!(stats.misses, 3, "window A's table was rebuilt: {stats:?}");
    assert!(
        first
            .samples()
            .iter()
            .zip(again.samples())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "a rebuilt table must reproduce the image bit for bit"
    );
}
