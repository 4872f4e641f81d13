use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use svt_exec::{qf64, CacheStats, MemoCache};

use crate::fft::{self, bin_frequency};
use crate::{Complex, Illumination, LithoError, MaskCutline, Pupil};

/// Revision of the imaging arithmetic, folded into
/// [`LithoSimulator::identity`](crate::LithoSimulator::identity) and from
/// there into every downstream memo key and the snapshot fingerprint.
/// Bump it whenever a change to this module can move an intensity bit, so
/// results of the old and new engine never share a cache entry or a
/// snapshot. Revision 2 is the Hopkins TCC form (revision 1, implicit, was
/// the per-source-point Abbe sum).
pub(crate) const IMAGING_REVISION: u64 = 2;

/// Key identifying one TCC table: pupil optics, source variant tag and
/// both σ parameters, source sample count, grid size, window length and
/// defocus — all keyed on exact `f64` bit patterns so distinct inputs never
/// share a table.
type TccKey = (u64, u64, u8, u64, u64, usize, usize, u64, u64);

/// The Hopkins transmission cross coefficients of one imaging setup.
///
/// Abbe's sum `I(x) = Σ_s w_s·|IFFT(M·H_s)(x)|²` expands into the bilinear
/// form `Σ_{k₁,k₂} M(k₁)·M*(k₂)·TCC(k₁,k₂)·e^{2πi(k₁−k₂)x/n}` with
/// `TCC(k₁,k₂) = Σ_s w_s·H_s(k₁)·H_s*(k₂)`. Only the bins some shifted
/// pupil passes (a few dozen of the ~2k at the library window) carry a
/// coefficient, and the matrix is Hermitian, so the upper triangle over
/// that union passband holds all of it.
///
/// The passband is stored in signed-frequency order, where every shifted
/// pupil passes one contiguous run of bins. Row `a` of the triangle is
/// then the contiguous band `b = a, a+1, …` up to the last bin any pupil
/// passing `a` also passes, and entry `(a, a+j)` lands in output bin
/// `(k_a − k_b) mod n = −j mod n` — implied by its offset in the row.
#[derive(Default)]
struct Tcc {
    /// FFT bin of each passband position, in ascending signed frequency.
    bins: Vec<u32>,
    /// `(start, len)` of each row's band in `coeffs`.
    rows: Vec<(u32, u32)>,
    /// Row-major band coefficients; off-diagonal ones are doubled so the
    /// real part of the triangle's image equals the full Hermitian sum.
    coeffs: Vec<Complex>,
}

impl Tcc {
    fn build(config: &ImagingConfig, n: usize, window: f64, defocus_nm: f64) -> Tcc {
        let pupil = config.pupil;
        // Signed bin index m ∈ [−n/2+1, n/2] ↔ FFT bin m mod n (the same
        // convention as `bin_frequency`).
        let half = (n / 2) as i64;
        let (m_min, m_max) = (half + 1 - n as i64, half);
        let bin = |m: i64| m.rem_euclid(n as i64) as usize;
        let passes = |m: i64, shift: f64| pupil.passes(bin_frequency(bin(m), n, window) + shift);

        // Each source point's passband: the contiguous run `lo..=hi` of
        // signed bins its shifted pupil passes (points passing nothing
        // contribute nothing and are dropped).
        let runs: Vec<SourceRun> = config
            .source
            .sample_1d(config.source_samples)
            .iter()
            .filter_map(|p| {
                let shift = p.s * pupil.cutoff();
                let centre = ((-shift * window).round() as i64).clamp(m_min, m_max);
                passes(centre, shift).then(|| {
                    let (mut lo, mut hi) = (centre, centre);
                    while lo > m_min && passes(lo - 1, shift) {
                        lo -= 1;
                    }
                    while hi < m_max && passes(hi + 1, shift) {
                        hi += 1;
                    }
                    SourceRun {
                        weight: p.weight,
                        shift,
                        lo,
                        hi,
                    }
                })
            })
            .collect();
        let (Some(first), Some(last)) = (
            runs.iter().map(|r| r.lo).min(),
            runs.iter().map(|r| r.hi).max(),
        ) else {
            return Tcc::default();
        };
        let index = |m: i64| (m - first) as usize;

        // Band length of each row: up to the furthest bin that a pupil
        // passing the row's bin also passes.
        let mut row_len = vec![0usize; index(last) + 1];
        for run in &runs {
            for m in run.lo..=run.hi {
                let len = &mut row_len[index(m)];
                *len = (*len).max((run.hi - m + 1) as usize);
            }
        }
        let mut rows = Vec::with_capacity(row_len.len());
        let mut total = 0usize;
        for len in row_len {
            rows.push((to_u32(total), to_u32(len)));
            total += len;
        }

        // Σ_s w_s·H_s(a)·H_s*(b), one rank-1 update per source point over
        // its own run, accumulated in source order.
        let mut coeffs = vec![Complex::ZERO; total];
        let mut transfer = Vec::new();
        for run in &runs {
            transfer.clear();
            transfer.extend(
                (run.lo..=run.hi).map(|m| {
                    pupil.transfer(bin_frequency(bin(m), n, window) + run.shift, defocus_nm)
                }),
            );
            for (i, &ha) in transfer.iter().enumerate() {
                let ha = ha.scale(run.weight);
                let start = rows[index(run.lo) + i].0 as usize;
                for (c, &hb) in coeffs[start..].iter_mut().zip(&transfer[i..]) {
                    *c += ha * hb.conj();
                }
            }
        }
        for &(start, len) in &rows {
            for c in coeffs[start as usize..(start + len) as usize]
                .iter_mut()
                .skip(1)
            {
                *c = c.scale(2.0);
            }
        }
        Tcc {
            bins: (first..=last).map(|m| to_u32(bin(m))).collect(),
            rows,
            coeffs,
        }
    }

    /// Heap bytes held by the table, for the cache budget.
    fn bytes(&self) -> usize {
        self.bins.len() * std::mem::size_of::<u32>()
            + self.rows.len() * std::mem::size_of::<(u32, u32)>()
            + self.coeffs.len() * std::mem::size_of::<Complex>()
    }
}

/// The contiguous run of signed bins `lo..=hi` one source point's shifted
/// pupil passes, with that point's weight and frequency shift.
struct SourceRun {
    weight: f64,
    shift: f64,
    lo: i64,
    hi: i64,
}

fn to_u32(v: usize) -> u32 {
    u32::try_from(v).expect("TCC index fits in u32")
}

/// Upper bound on the bytes of cached TCC tables. A library-window table
/// (4 µm) is ~20 KB, but a table grows with the square of its window: a
/// 100 µm full-chip OPC row needs ~11 MB. The budget holds the few row
/// tables in use at once; when an insert would exceed it the cache is
/// reset wholesale, like a full `MemoCache` shard. Rebuilt tables are
/// bit-identical, so a reset costs time, never results.
const TCC_CACHE_BYTES: usize = 32 << 20;

/// Bytes currently charged against [`TCC_CACHE_BYTES`] (approximate under
/// racing inserts; only the reset point depends on it).
static TCC_CACHED_BYTES: AtomicUsize = AtomicUsize::new(0);

fn tcc_tables() -> &'static MemoCache<TccKey, Arc<Tcc>> {
    static TABLES: OnceLock<MemoCache<TccKey, Arc<Tcc>>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = TABLES.get_or_init(|| MemoCache::new(4, 256));
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("litho.tcc_tables", cache));
    cache
}

fn cached_tcc(config: &ImagingConfig, n: usize, window: f64, defocus_nm: f64) -> Arc<Tcc> {
    let (tag, sigma_a, sigma_b) = match config.source {
        Illumination::Conventional { sigma } => (0u8, qf64(sigma), 0),
        Illumination::Annular {
            sigma_in,
            sigma_out,
        } => (1u8, qf64(sigma_in), qf64(sigma_out)),
    };
    let key = (
        qf64(config.pupil.wavelength_nm()),
        qf64(config.pupil.na()),
        tag,
        sigma_a,
        sigma_b,
        config.source_samples,
        n,
        qf64(window),
        qf64(defocus_nm),
    );
    tcc_tables().get_or_insert_with(key, || {
        let tcc = Tcc::build(config, n, window, defocus_nm);
        let bytes = tcc.bytes();
        if TCC_CACHED_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes > TCC_CACHE_BYTES {
            clear_imaging_caches();
            TCC_CACHED_BYTES.store(bytes, Ordering::Relaxed);
        }
        Arc::new(tcc)
    })
}

/// Drops every imaging-layer cache (the TCC tables; FFT plans are kept).
pub fn clear_imaging_caches() {
    tcc_tables().clear();
    TCC_CACHED_BYTES.store(0, Ordering::Relaxed);
}

/// Hit/miss counters of the TCC table cache.
#[must_use]
pub fn transfer_cache_stats() -> CacheStats {
    tcc_tables().stats()
}

thread_local! {
    /// Per-thread scratch (full spectrum, gathered passband) reused across
    /// calls so the inner loop allocates nothing.
    static FFT_SCRATCH: RefCell<(Vec<Complex>, Vec<Complex>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Configuration of the partially coherent imaging system.
///
/// # Examples
///
/// ```
/// use svt_litho::{Illumination, ImagingConfig, Pupil};
///
/// let config = ImagingConfig::new(
///     Pupil::new(193.0, 0.7)?,
///     Illumination::annular(0.55, 0.85)?,
///     24,
///     2.0,
/// );
/// assert_eq!(config.grid_nm(), 2.0);
/// # Ok::<(), svt_litho::LithoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImagingConfig {
    pupil: Pupil,
    source: Illumination,
    source_samples: usize,
    grid_nm: f64,
}

impl ImagingConfig {
    /// Creates an imaging configuration.
    ///
    /// `source_samples` controls the source discretization (16–32 is ample
    /// for 1-D work). It costs time only in the one-off TCC build of each
    /// (window, defocus) setup; a cached image costs the same at any count.
    /// `grid_nm` sets the spatial sampling of mask and image.
    ///
    /// # Panics
    ///
    /// Panics if `source_samples < 2` or `grid_nm ≤ 0`.
    #[must_use]
    pub fn new(
        pupil: Pupil,
        source: Illumination,
        source_samples: usize,
        grid_nm: f64,
    ) -> ImagingConfig {
        assert!(source_samples >= 2, "need at least 2 source samples");
        assert!(grid_nm > 0.0, "grid must be positive");
        ImagingConfig {
            pupil,
            source,
            source_samples,
            grid_nm,
        }
    }

    /// The lens pupil.
    #[must_use]
    pub fn pupil(&self) -> Pupil {
        self.pupil
    }

    /// The illumination source.
    #[must_use]
    pub fn source(&self) -> Illumination {
        self.source
    }

    /// Source discretization point count.
    #[must_use]
    pub fn source_samples(&self) -> usize {
        self.source_samples
    }

    /// Spatial sampling pitch in nanometres.
    #[must_use]
    pub fn grid_nm(&self) -> f64 {
        self.grid_nm
    }

    /// Returns a copy with a different source sampling density (used by the
    /// accuracy-vs-runtime ablation bench; the density only changes the
    /// cost of the one-off TCC build).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_source_samples(mut self, n: usize) -> ImagingConfig {
        assert!(n >= 2, "need at least 2 source samples");
        self.source_samples = n;
        self
    }

    /// Returns a copy with a different spatial grid (runtime/accuracy
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if the grid is not positive.
    #[must_use]
    pub fn with_grid(mut self, grid_nm: f64) -> ImagingConfig {
        assert!(grid_nm > 0.0, "grid must be positive");
        self.grid_nm = grid_nm;
        self
    }

    /// Returns a copy with a different illumination source (model
    /// miscalibration studies).
    #[must_use]
    pub fn with_source(mut self, source: Illumination) -> ImagingConfig {
        self.source = source;
        self
    }

    /// Computes the aerial image of a mask cutline at the given defocus.
    ///
    /// The Hopkins TCC form of the Abbe source integral: each sampled
    /// source point `s` shifts the pupil to `f + s·NA/λ` (with the defocus
    /// phase evaluated at the *shifted* frequency, i.e. the true
    /// propagation angle), and the weighted sum of the partial intensities
    /// `|A_s(x)|²` is folded into a cached table of transmission cross
    /// coefficients. Per image that leaves one forward FFT of the mask, a
    /// bilinear sum over the passband bins, and one inverse FFT. A fully
    /// clear mask images to intensity 1 everywhere, which anchors the
    /// resist-threshold scale.
    #[must_use]
    pub fn aerial_image(&self, mask: &MaskCutline, defocus_nm: f64) -> AerialImage {
        if svt_obs::enabled() {
            svt_obs::counter!("litho.aerial_images").incr();
            // An aerial-image simulation is the expensive leaf of every
            // litho cache miss — mark it on the Chrome timeline so miss
            // stalls are attributable in Perfetto.
            svt_obs::instant("litho.aerial_image");
        }
        let n = mask.samples().len();
        let tcc = cached_tcc(self, n, mask.length(), defocus_nm);

        let intensity = FFT_SCRATCH.with(|scratch| {
            let (spectrum, passband) = &mut *scratch.borrow_mut();

            // Mask spectrum (unnormalized forward FFT).
            spectrum.clear();
            spectrum.extend(mask.samples().iter().map(|&t| Complex::from(t)));
            fft::forward(spectrum);

            passband.clear();
            passband.extend(tcc.bins.iter().map(|&k| spectrum[k as usize]));

            // Intensity spectrum Ĩ[d] = Σ M(k₁)·M*(k₂)·TCC(k₁,k₂) over the
            // triangle, reusing the spectrum buffer. Entry (a, a+j) lands in
            // bin −j mod n (see `Tcc`).
            spectrum.fill(Complex::ZERO);
            for (a, &(start, len)) in tcc.rows.iter().enumerate() {
                let m1 = passband[a];
                let band = &tcc.coeffs[start as usize..(start + len) as usize];
                for (j, (&t, &m2)) in band.iter().zip(&passband[a..]).enumerate() {
                    spectrum[(n - j) & (n - 1)] += m1 * m2.conj() * t;
                }
            }
            fft::inverse(spectrum);
            let scale = 1.0 / n as f64;
            spectrum.iter().map(|z| z.re * scale).collect()
        });

        AerialImage {
            x0: mask.x0(),
            dx: mask.dx(),
            intensity,
        }
    }
}

/// A sampled aerial-image intensity profile.
///
/// Intensity 1.0 corresponds to the clear-field exposure at nominal dose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AerialImage {
    x0: f64,
    dx: f64,
    intensity: Vec<f64>,
}

impl AerialImage {
    /// Window start coordinate.
    #[must_use]
    pub fn x0(&self) -> f64 {
        self.x0
    }

    /// Sample pitch in nanometres.
    #[must_use]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// The intensity samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.intensity
    }

    /// The coordinate of sample `k`.
    #[must_use]
    pub fn position(&self, k: usize) -> f64 {
        self.x0 + k as f64 * self.dx
    }

    /// The sample index closest to `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::EdgeOutsideWindow`] if `x` is outside the
    /// window.
    pub fn index_of(&self, x: f64) -> Result<usize, LithoError> {
        let idx = ((x - self.x0) / self.dx).round();
        if idx < 0.0 || idx as usize >= self.intensity.len() {
            return Err(LithoError::EdgeOutsideWindow { at: x });
        }
        Ok(idx as usize)
    }

    /// Linearly interpolated intensity at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::EdgeOutsideWindow`] if `x` is outside the
    /// window.
    pub fn intensity_at(&self, x: f64) -> Result<f64, LithoError> {
        let t = (x - self.x0) / self.dx;
        if t < 0.0 || t > (self.intensity.len() - 1) as f64 {
            return Err(LithoError::EdgeOutsideWindow { at: x });
        }
        let i = t.floor() as usize;
        let frac = t - i as f64;
        if i + 1 >= self.intensity.len() {
            return Ok(self.intensity[i]);
        }
        Ok(self.intensity[i] * (1.0 - frac) + self.intensity[i + 1] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ImagingConfig {
        ImagingConfig::new(
            Pupil::new(193.0, 0.7).unwrap(),
            Illumination::annular(0.55, 0.85).unwrap(),
            16,
            2.0,
        )
    }

    #[test]
    fn clear_field_images_to_unity() {
        let mask = MaskCutline::from_lines(0.0, 1024.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        for &i in img.samples() {
            assert!((i - 1.0).abs() < 1e-9, "clear field intensity {i}");
        }
    }

    #[test]
    fn clear_field_is_unity_even_defocused() {
        let mask = MaskCutline::from_lines(0.0, 1024.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 300.0);
        for &i in img.samples() {
            assert!((i - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn chrome_line_creates_a_dip_at_its_center() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        let center = img.intensity_at(0.0).unwrap();
        let far = img.intensity_at(800.0).unwrap();
        assert!(center < 0.3, "center intensity {center} should be dark");
        assert!(far > 0.8, "far field {far} should be bright");
    }

    #[test]
    fn image_is_symmetric_for_symmetric_mask() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let img = config().aerial_image(&mask, 150.0);
        for x in [50.0, 100.0, 200.0, 400.0] {
            let a = img.intensity_at(x).unwrap();
            let b = img.intensity_at(-x).unwrap();
            assert!((a - b).abs() < 1e-6, "asymmetry at ±{x}: {a} vs {b}");
        }
    }

    #[test]
    fn defocus_degrades_contrast() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let cfg = config();
        let focused = cfg.aerial_image(&mask, 0.0);
        let blurred = cfg.aerial_image(&mask, 400.0);
        let c0 = focused.intensity_at(0.0).unwrap();
        let c1 = blurred.intensity_at(0.0).unwrap();
        assert!(
            c1 > c0,
            "defocus should lift the dark-line floor: {c0} -> {c1}"
        );
    }

    #[test]
    fn intensity_interpolation_and_bounds() {
        let mask = MaskCutline::from_lines(0.0, 64.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        assert!(img.intensity_at(3.0).is_ok());
        assert!(img.intensity_at(-1.0).is_err());
        assert!(img.intensity_at(1e6).is_err());
        assert!(img.index_of(4.0).is_ok());
        assert!(img.index_of(-5.0).is_err());
        assert_eq!(img.position(0), 0.0);
    }

    #[test]
    fn denser_source_sampling_converges() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let coarse = config().with_source_samples(8).aerial_image(&mask, 100.0);
        let fine = config().with_source_samples(64).aerial_image(&mask, 100.0);
        let finer = config().with_source_samples(128).aerial_image(&mask, 100.0);
        let d_coarse = (coarse.intensity_at(0.0).unwrap() - finer.intensity_at(0.0).unwrap()).abs();
        let d_fine = (fine.intensity_at(0.0).unwrap() - finer.intensity_at(0.0).unwrap()).abs();
        assert!(d_fine <= d_coarse + 1e-12, "refinement must not diverge");
    }
}
