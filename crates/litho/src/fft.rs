//! In-place radix-2 complex FFT.
//!
//! The imaging engine needs forward and inverse transforms on
//! power-of-two-length buffers (mask spectrum ↔ field amplitude). The
//! approved offline dependency set has no FFT crate, so this module
//! implements the iterative Cooley–Tukey algorithm with bit-reversal
//! permutation. Correctness is pinned against a direct `O(n²)` DFT in the
//! test suite.
//!
//! Convention: [`forward`] computes `X[k] = Σ_n x[n]·e^{-2πi kn/N}` (no
//! scaling); [`inverse`] computes `x[n] = (1/N)·Σ_k X[k]·e^{+2πi kn/N}`.
//!
//! Transforms of the same length share a cached plan (bit-reversal
//! permutation plus per-stage twiddle tables), so the trigonometry is paid
//! once per size instead of once per call. Twiddles are tabulated directly
//! as `cis(-2πk/len)` rather than by repeated multiplication, which is
//! also slightly more accurate than the incremental recurrence.

use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

use svt_exec::MemoCache;

use crate::Complex;

/// Precomputed machinery for one transform length.
struct Plan {
    /// `bitrev[i]` is the bit-reversed index of `i`.
    bitrev: Vec<u32>,
    /// `forward[s]` holds the `len/2` twiddles `cis(-2πk/len)` for
    /// butterfly length `len = 2^(s+1)`.
    forward: Vec<Vec<Complex>>,
    /// The conjugates of `forward`, for the inverse pass (`conj` is exact,
    /// so both directions use the same twiddle bits up to sign).
    inverse: Vec<Vec<Complex>>,
}

impl Plan {
    fn build(n: usize) -> Plan {
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                let j = (i.reverse_bits() >> (usize::BITS - bits)) as u32;
                j
            })
            .collect();
        let mut forward: Vec<Vec<Complex>> = Vec::with_capacity(bits as usize);
        let mut len = 2usize;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            forward.push((0..len / 2).map(|k| Complex::cis(ang * k as f64)).collect());
            len <<= 1;
        }
        let inverse = forward
            .iter()
            .map(|stage| stage.iter().map(|w| w.conj()).collect())
            .collect();
        Plan {
            bitrev,
            forward,
            inverse,
        }
    }
}

/// Cached plans keyed by transform length. Aerial imaging uses a handful
/// of sizes (one per mask window), so this stays tiny.
fn plan_for(n: usize) -> Arc<Plan> {
    static PLANS: OnceLock<MemoCache<usize, Arc<Plan>>> = OnceLock::new();
    PLANS
        .get_or_init(|| MemoCache::new(4, 64))
        .get_or_insert_with(n, || Arc::new(Plan::build(n)))
}

/// Returns the smallest power of two `≥ n` (and `≥ 1`).
///
/// # Examples
///
/// ```
/// assert_eq!(svt_litho::fft::next_pow2(1000), 1024);
/// assert_eq!(svt_litho::fft::next_pow2(1024), 1024);
/// assert_eq!(svt_litho::fft::next_pow2(0), 1);
/// ```
#[must_use]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn forward(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (including the `1/N` normalization).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn inverse(data: &mut [Complex]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n <= 1 {
        return;
    }

    let plan = plan_for(n);

    // Bit-reversal permutation.
    for (i, &rev) in plan.bitrev.iter().enumerate() {
        let j = rev as usize;
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies; the direction picks its twiddle tables once, so the
    // inner loop is branch-free.
    let stages = if inverse {
        &plan.inverse
    } else {
        &plan.forward
    };
    for twiddles in stages {
        let half = twiddles.len();
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
    }
}

/// The signed FFT bin frequency for bin `k` of an `n`-point transform over a
/// window of physical length `window` (same length unit as the result's
/// reciprocal): bins above `n/2` alias to negative frequencies.
///
/// # Examples
///
/// ```
/// use svt_litho::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 8, 800.0), 0.0);
/// assert_eq!(bin_frequency(1, 8, 800.0), 1.0 / 800.0);
/// assert_eq!(bin_frequency(7, 8, 800.0), -1.0 / 800.0);
/// ```
#[must_use]
pub fn bin_frequency(k: usize, n: usize, window: f64) -> f64 {
    let k = k as i64;
    let n = n as i64;
    let signed = if k <= n / 2 { k } else { k - n };
    signed as f64 / window
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_dft(x: &[Complex], sign: f64) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    let ang = sign * 2.0 * PI * (k * j) as f64 / n as f64;
                    acc += xj * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).norm() < tol,
                "bin {i}: {x} vs {y} differ by {}",
                (*x - *y).norm()
            );
        }
    }

    #[test]
    fn forward_matches_direct_dft() {
        // Deterministic pseudo-random input.
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.37).sin() + 0.2 * t.cos(), (t * 1.7).cos())
            })
            .collect();
        let expected = direct_dft(&x, -1.0);
        let mut got = x.clone();
        forward(&mut got);
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn inverse_round_trips() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let mut y = x.clone();
        forward(&mut y);
        inverse(&mut y);
        assert_close(&y, &x, 1e-10);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        forward(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9);
            } else {
                assert!(z.norm() < 1e-9, "leakage at bin {k}: {z}");
            }
        }
    }

    #[test]
    fn trivial_lengths() {
        let mut x = vec![Complex::new(3.0, 1.0)];
        forward(&mut x);
        assert_eq!(x[0], Complex::new(3.0, 1.0));
        inverse(&mut x);
        assert_eq!(x[0], Complex::new(3.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_pow2() {
        let mut x = vec![Complex::ZERO; 12];
        forward(&mut x);
    }

    #[test]
    fn bin_frequencies_are_symmetric() {
        let n = 8;
        let w = 800.0;
        assert_eq!(bin_frequency(4, n, w), 4.0 / 800.0); // Nyquist stays positive
        assert_eq!(bin_frequency(5, n, w), -3.0 / 800.0);
        assert_eq!(bin_frequency(n - 1, n, w), -1.0 / 800.0);
    }

    #[test]
    fn next_pow2_edges() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4097), 8192);
    }
}
