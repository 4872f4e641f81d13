//! Exact order statistics, op accounting and per-op counter deltas.
//!
//! Percentiles come from the sorted samples themselves (nearest rank),
//! never from a bucketed histogram: a log2 bucket is wider than any bound
//! the benchmark sets.

use svt_exec::CacheStats;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of all samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // ceil(p * n / 100) in integers, so no rounding moves the rank.
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median, tail and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples of one quantity, one per op (or per request).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median and p90 of the samples; all zero when there are none.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Summary {
            p50: percentile(&sorted, 50).unwrap_or(0.0),
            p90: percentile(&sorted, 90).unwrap_or(0.0),
            n: sorted.len(),
        }
    }

    /// The median, zero when there are no samples.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.summary().p50
    }
}

/// Ops attempted and failed. A run is correct only when it attempted at
/// least one op and none failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops whose output did not check out (or that returned an error).
    pub failed: u64,
}

impl Tally {
    /// Counts one op; `ok` is whether every check on its output passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether the run passes.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Miss counters of the four process-wide memo caches the paper flow
/// fills: litho transfer tables, printed CDs, pitch-table pairs and
/// library-OPC rows. The counters are cumulative, so an op's misses are
/// the difference of two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMisses {
    /// `svt_litho::transfer_cache_stats` misses.
    pub transfer: u64,
    /// `svt_litho::cd_cache_stats` misses.
    pub cd: u64,
    /// Pitch-table pair misses (`svt_stdcell::expand_cache_stats().0`).
    pub pitch_pair: u64,
    /// Library-OPC row misses (`svt_stdcell::expand_cache_stats().1`).
    pub opc_row: u64,
}

impl CacheMisses {
    /// Builds a reading from the four caches' stats.
    #[must_use]
    pub fn from_stats(
        transfer: CacheStats,
        cd: CacheStats,
        pitch_pair: CacheStats,
        opc_row: CacheStats,
    ) -> CacheMisses {
        CacheMisses {
            transfer: transfer.misses,
            cd: cd.misses,
            pitch_pair: pitch_pair.misses,
            opc_row: opc_row.misses,
        }
    }

    /// Reads the live caches.
    #[must_use]
    pub fn read() -> CacheMisses {
        let (pairs, rows) = svt_stdcell::expand_cache_stats();
        CacheMisses::from_stats(
            svt_litho::transfer_cache_stats(),
            svt_litho::cd_cache_stats(),
            pairs,
            rows,
        )
    }

    /// Misses counted since `before` (clearing a cache does not reset its
    /// counters, so the difference never goes negative in practice).
    #[must_use]
    pub fn since(&self, before: &CacheMisses) -> CacheMisses {
        CacheMisses {
            transfer: self.transfer.saturating_sub(before.transfer),
            cd: self.cd.saturating_sub(before.cd),
            pitch_pair: self.pitch_pair.saturating_sub(before.pitch_pair),
            opc_row: self.opc_row.saturating_sub(before.opc_row),
        }
    }

    /// Total misses over the four caches.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transfer + self.cd + self.pitch_pair + self.opc_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50), Some(5.0));
        assert_eq!(percentile(&ten, 90), Some(9.0));
        assert_eq!(percentile(&ten, 100), Some(10.0));
        assert_eq!(percentile(&ten, 0), Some(1.0));
        assert_eq!(percentile(&ten, 91), Some(10.0));
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&odd, 50), Some(3.0));
        assert_eq!(percentile(&odd, 90), Some(5.0));
        assert_eq!(percentile(&[7.5], 50), Some(7.5));
        assert_eq!(percentile(&[], 50), None);
        // 100 samples: p90 is exactly the 90th, not an interpolation.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), Some(90.0));
        assert_eq!(percentile(&hundred, 50), Some(50.0));
    }

    #[test]
    fn summary_sorts_before_ranking() {
        let mut s = Samples::default();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0] {
            s.push(v);
        }
        assert_eq!(
            s.summary(),
            Summary {
                p50: 5.0,
                p90: 9.0,
                n: 10
            }
        );
        assert_eq!(Samples::default().summary().n, 0);
    }

    #[test]
    fn tally_fails_on_any_failed_or_no_ops() {
        let mut t = Tally::default();
        assert!(!t.correct(), "a run with no ops does not pass");
        t.record(true);
        t.record(true);
        assert!(t.correct());
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!(!t.correct());
    }

    #[test]
    fn cache_miss_deltas_subtract_per_cache() {
        let stats = |misses| CacheStats {
            misses,
            hits: 1000,
            ..CacheStats::default()
        };
        let before = CacheMisses::from_stats(stats(10), stats(20), stats(30), stats(40));
        let after = CacheMisses::from_stats(stats(15), stats(20), stats(37), stats(41));
        let d = after.since(&before);
        assert_eq!(
            d,
            CacheMisses {
                transfer: 5,
                cd: 0,
                pitch_pair: 7,
                opc_row: 1
            }
        );
        assert_eq!(d.total(), 13);
        assert_eq!(after.since(&after).total(), 0);
    }

    #[test]
    fn live_cd_cache_delta_counts_a_cold_lookup_once() {
        let sim = svt_litho::Process::nm90().simulator();
        svt_litho::clear_litho_caches();
        let before = CacheMisses::read();
        let cold = sim.print_line_array(90.0, 240.0, 0.0, 1.0);
        let first = CacheMisses::read().since(&before);
        assert!(first.cd >= 1, "a cleared cache must miss: {first:?}");
        let mid = CacheMisses::read();
        let warm = sim.print_line_array(90.0, 240.0, 0.0, 1.0);
        let second = CacheMisses::read().since(&mid);
        assert_eq!(second.cd, 0, "the repeated lookup must hit: {second:?}");
        assert_eq!(cold.is_ok(), warm.is_ok());
    }
}
