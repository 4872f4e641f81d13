use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use svt_exec::{qf64, quantize_f64, unquantize_f64, CacheStats, MemoCache};

use crate::cd::{measure_cd_at, PrintedCd, ThresholdResist};
use crate::imaging::IMAGING_REVISION;
use crate::{AerialImage, Illumination, ImagingConfig, LithoError, MaskCutline};

/// Memo key for a printed CD: pattern kind, full simulator identity (exact
/// bit patterns of every field that influences the image), and the four
/// quantized pattern parameters.
type CdKey = (u8, [u64; 10], i64, i64, i64, i64);

const PATTERN_LINE_ARRAY: u8 = 0;
const PATTERN_ISOLATED: u8 = 1;

fn cd_cache() -> &'static MemoCache<CdKey, f64> {
    static CACHE: OnceLock<MemoCache<CdKey, f64>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = CACHE.get_or_init(MemoCache::default);
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("litho.cd", cache));
    cache
}

/// Hit/miss counters of the printed-CD memo cache.
#[must_use]
pub fn cd_cache_stats() -> CacheStats {
    cd_cache().stats()
}

/// Drops every cached printed-CD result.
pub fn clear_cd_cache() {
    cd_cache().clear();
}

/// High-level lithography simulator: imaging + resist + etch + CD metrology.
///
/// This is the interface the OPC and characterization crates consume. It
/// wraps an [`ImagingConfig`], a [`ThresholdResist`], and a constant
/// resist-to-device etch bias, and provides the common pattern
/// constructions (isolated line, line array, arbitrary line sets) with
/// sensible simulation windows. All `print_*` methods return the **final
/// device CD** (resist CD minus etch bias).
///
/// # Examples
///
/// ```
/// use svt_litho::Process;
///
/// let sim = Process::nm90().simulator();
/// let semi_dense = sim.print_line_array(90.0, 300.0, 0.0, 1.0)?;
/// let sparse = sim.print_line_array(90.0, 600.0, 0.0, 1.0)?;
/// assert!((semi_dense - sparse).abs() > 0.5, "through-pitch bias should be visible");
/// # Ok::<(), svt_litho::LithoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LithoSimulator {
    config: ImagingConfig,
    resist: ThresholdResist,
    etch_bias_nm: f64,
}

impl LithoSimulator {
    /// Default window half-width for single-feature simulations, generously
    /// beyond the radius of influence.
    const HALF_WINDOW_NM: f64 = 2048.0;

    /// Creates a simulator with a default 0.3 resist threshold and no etch
    /// bias. Use [`crate::Process::simulator`] for the calibrated 90 nm
    /// stack.
    #[must_use]
    pub fn new(config: ImagingConfig) -> LithoSimulator {
        LithoSimulator {
            config,
            resist: ThresholdResist::new(0.3),
            etch_bias_nm: 0.0,
        }
    }

    /// Replaces the resist model.
    #[must_use]
    pub fn with_resist(mut self, resist: ThresholdResist) -> LithoSimulator {
        self.resist = resist;
        self
    }

    /// Replaces the etch bias (resist CD − device CD).
    ///
    /// # Panics
    ///
    /// Panics if the bias is negative.
    #[must_use]
    pub fn with_etch_bias(mut self, etch_bias_nm: f64) -> LithoSimulator {
        assert!(etch_bias_nm >= 0.0, "etch bias must be non-negative");
        self.etch_bias_nm = etch_bias_nm;
        self
    }

    /// The imaging configuration.
    #[must_use]
    pub fn config(&self) -> &ImagingConfig {
        &self.config
    }

    /// The resist model.
    #[must_use]
    pub fn resist(&self) -> ThresholdResist {
        self.resist
    }

    /// The etch bias in nanometres.
    #[must_use]
    pub fn etch_bias_nm(&self) -> f64 {
        self.etch_bias_nm
    }

    /// Computes the aerial image of a mask cutline.
    #[must_use]
    pub fn aerial_image(&self, mask: &MaskCutline, defocus_nm: f64) -> AerialImage {
        self.config.aerial_image(mask, defocus_nm)
    }

    /// Prints an arbitrary set of chrome lines in the window
    /// `[x0, x0 + length]` and measures the *resist* feature at `measure_x`
    /// (no etch bias applied; use [`LithoSimulator::device_cd`] to convert).
    ///
    /// # Errors
    ///
    /// Propagates window construction and metrology errors; see
    /// [`MaskCutline::from_lines`] and [`measure_cd_at`].
    pub fn print_pattern(
        &self,
        x0: f64,
        length: f64,
        lines: &[(f64, f64)],
        measure_x: f64,
        defocus_nm: f64,
        dose: f64,
    ) -> Result<PrintedCd, LithoError> {
        let mask = MaskCutline::from_lines(x0, length, self.config.grid_nm(), lines)?;
        let image = self.aerial_image(&mask, defocus_nm);
        measure_cd_at(&image, measure_x, self.resist, dose)
    }

    /// Converts a printed resist feature to the final device CD by applying
    /// the etch bias.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::FeatureNotPrinted`] if the etch would consume
    /// the entire resist line.
    pub fn device_cd(&self, printed: PrintedCd) -> Result<f64, LithoError> {
        let cd = printed.cd() - self.etch_bias_nm;
        if cd <= 0.0 {
            return Err(LithoError::FeatureNotPrinted {
                at: printed.center(),
            });
        }
        Ok(cd)
    }

    /// Prints an arbitrary line set and returns the **device CD** of the
    /// feature at `measure_x`.
    ///
    /// # Errors
    ///
    /// See [`LithoSimulator::print_pattern`] and
    /// [`LithoSimulator::device_cd`].
    pub fn print_device_cd(
        &self,
        x0: f64,
        length: f64,
        lines: &[(f64, f64)],
        measure_x: f64,
        defocus_nm: f64,
        dose: f64,
    ) -> Result<f64, LithoError> {
        let printed = self.print_pattern(x0, length, lines, measure_x, defocus_nm, dose)?;
        self.device_cd(printed)
    }

    /// Exact identity of every simulator field that influences a printed
    /// CD, plus the imaging-engine revision, embedded in memo keys so
    /// distinct simulators (or engine generations) never share one.
    /// Downstream crates (OPC, library expansion) fold this into their own
    /// cache keys, and the snapshot fingerprint into its gate, for the same
    /// reason.
    #[must_use]
    pub fn identity(&self) -> [u64; 10] {
        let (tag, sigma_a, sigma_b) = match self.config.source() {
            Illumination::Conventional { sigma } => (0u64, qf64(sigma), 0),
            Illumination::Annular {
                sigma_in,
                sigma_out,
            } => (1, qf64(sigma_in), qf64(sigma_out)),
        };
        [
            qf64(self.config.pupil().wavelength_nm()),
            qf64(self.config.pupil().na()),
            tag,
            sigma_a,
            sigma_b,
            self.config.source_samples() as u64,
            qf64(self.config.grid_nm()),
            qf64(self.resist.threshold()),
            qf64(self.etch_bias_nm),
            IMAGING_REVISION,
        ]
    }

    /// Memoizes a printed-CD computation on the quantized parameter grid.
    ///
    /// `compute` receives the bucket *representatives*, never the raw
    /// inputs: every parameter set that lands in a bucket maps to one
    /// canonical result, making cached values independent of fill order.
    /// Errors are never cached; non-finite parameters bypass the cache so
    /// the underlying computation reports them in its own terms.
    fn memoized_cd(
        &self,
        kind: u8,
        width_nm: f64,
        pitch_nm: f64,
        defocus_nm: f64,
        dose: f64,
        compute: impl FnOnce(&LithoSimulator, f64, f64, f64, f64) -> Result<f64, LithoError>,
    ) -> Result<f64, LithoError> {
        let finite = width_nm.is_finite()
            && pitch_nm.is_finite()
            && defocus_nm.is_finite()
            && dose.is_finite();
        if !finite {
            return compute(self, width_nm, pitch_nm, defocus_nm, dose);
        }
        let qw = quantize_f64(width_nm);
        let qp = quantize_f64(pitch_nm);
        let qf = quantize_f64(defocus_nm);
        let qd = quantize_f64(dose);
        let key = (kind, self.identity(), qw, qp, qf, qd);
        let cache = cd_cache();
        if let Some(cd) = cache.get(&key) {
            return Ok(cd);
        }
        let cd = compute(
            self,
            unquantize_f64(qw),
            unquantize_f64(qp),
            unquantize_f64(qf),
            unquantize_f64(qd),
        )?;
        cache.insert(key, cd);
        Ok(cd)
    }

    /// Prints an isolated line of the given drawn width centered at 0 and
    /// returns its device CD. Results are memoized on the quantized
    /// `(width, defocus, dose)` grid.
    ///
    /// # Errors
    ///
    /// See [`LithoSimulator::print_device_cd`].
    pub fn print_isolated_line(
        &self,
        width_nm: f64,
        defocus_nm: f64,
        dose: f64,
    ) -> Result<f64, LithoError> {
        self.memoized_cd(
            PATTERN_ISOLATED,
            width_nm,
            0.0,
            defocus_nm,
            dose,
            |sim, width_nm, _, defocus_nm, dose| {
                let lines = [(-width_nm / 2.0, width_nm / 2.0)];
                sim.print_device_cd(
                    -Self::HALF_WINDOW_NM,
                    2.0 * Self::HALF_WINDOW_NM,
                    &lines,
                    0.0,
                    defocus_nm,
                    dose,
                )
            },
        )
    }

    /// Prints an equal-pitch array of lines filling the window and returns
    /// the device CD of the center line. This is the paper's through-pitch
    /// test pattern ("parallel poly lines with fixed width and varying
    /// spacing").
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::InvalidWindow`] if `pitch ≤ width`; otherwise
    /// see [`LithoSimulator::print_device_cd`]. Results are memoized on the
    /// quantized `(width, pitch, defocus, dose)` grid.
    pub fn print_line_array(
        &self,
        width_nm: f64,
        pitch_nm: f64,
        defocus_nm: f64,
        dose: f64,
    ) -> Result<f64, LithoError> {
        if pitch_nm <= width_nm {
            return Err(LithoError::InvalidWindow {
                reason: format!("pitch {pitch_nm} must exceed line width {width_nm}"),
            });
        }
        self.memoized_cd(
            PATTERN_LINE_ARRAY,
            width_nm,
            pitch_nm,
            defocus_nm,
            dose,
            |sim, width_nm, pitch_nm, defocus_nm, dose| {
                // Fill the window with neighbors, leaving a clear margin at
                // the ends.
                let margin = 700.0;
                let count = ((Self::HALF_WINDOW_NM - margin) / pitch_nm).floor() as i64;
                let lines: Vec<(f64, f64)> = (-count..=count)
                    .map(|k| {
                        let c = k as f64 * pitch_nm;
                        (c - width_nm / 2.0, c + width_nm / 2.0)
                    })
                    .collect();
                sim.print_device_cd(
                    -Self::HALF_WINDOW_NM,
                    2.0 * Self::HALF_WINDOW_NM,
                    &lines,
                    0.0,
                    defocus_nm,
                    dose,
                )
            },
        )
    }

    /// Prints a line of `width_nm` centered at 0 with one neighbor line at
    /// edge-to-edge spacing `left_space` on the left and `right_space` on
    /// the right (`None` = no neighbor within the radius of influence), and
    /// returns the center device CD. This is the asymmetric-context pattern
    /// used to build the boundary-device CD lookup table.
    ///
    /// # Errors
    ///
    /// See [`LithoSimulator::print_device_cd`].
    pub fn print_with_neighbors(
        &self,
        width_nm: f64,
        left_space: Option<f64>,
        right_space: Option<f64>,
        defocus_nm: f64,
        dose: f64,
    ) -> Result<f64, LithoError> {
        let mut lines = vec![(-width_nm / 2.0, width_nm / 2.0)];
        if let Some(s) = left_space {
            let hi = -width_nm / 2.0 - s;
            lines.push((hi - width_nm, hi));
        }
        if let Some(s) = right_space {
            let lo = width_nm / 2.0 + s;
            lines.push((lo, lo + width_nm));
        }
        self.print_device_cd(
            -Self::HALF_WINDOW_NM,
            2.0 * Self::HALF_WINDOW_NM,
            &lines,
            0.0,
            defocus_nm,
            dose,
        )
    }

    /// Calibrates the resist threshold so that the anchor pattern (a line
    /// array of `width_nm` at `pitch_nm`) prints at a device CD of exactly
    /// `width_nm` at nominal focus and dose, mirroring how production OPC
    /// models are anchored. Returns the calibrated simulator.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::CalibrationFailed`] if no threshold in
    /// `(0.05, 0.95)` reaches the target.
    pub fn calibrated_to(
        mut self,
        width_nm: f64,
        pitch_nm: f64,
    ) -> Result<LithoSimulator, LithoError> {
        use std::cmp::Ordering;
        let mut lo = 0.05f64;
        let mut hi = 0.95f64;
        // Compares the printed CD at threshold `th` against the target.
        // A dark line grows with threshold, so the comparison is monotone:
        // washed-away features count as "too small", resist covering the
        // whole window counts as "too large".
        let compare = |sim: &LithoSimulator, th: f64| -> Result<Ordering, LithoError> {
            let probe = sim.clone().with_resist(ThresholdResist::new(th));
            match probe.print_line_array(width_nm, pitch_nm, 0.0, 1.0) {
                Ok(cd) => Ok(cd.total_cmp(&width_nm)),
                Err(LithoError::FeatureNotPrinted { .. }) => Ok(Ordering::Less),
                Err(LithoError::EdgeOutsideWindow { .. }) => Ok(Ordering::Greater),
                Err(e) => Err(e),
            }
        };
        if compare(&self, lo)? != Ordering::Less || compare(&self, hi)? != Ordering::Greater {
            return Err(LithoError::CalibrationFailed {
                target_cd: width_nm,
            });
        }
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            match compare(&self, mid)? {
                Ordering::Less => lo = mid,
                Ordering::Greater => hi = mid,
                Ordering::Equal => {
                    lo = mid;
                    hi = mid;
                    break;
                }
            }
        }
        self.resist = ThresholdResist::new(0.5 * (lo + hi));
        // Bisection can converge onto a discontinuity (e.g. the space
        // pinching shut) without ever reaching the target; verify the
        // calibrated threshold actually prints to size.
        let check = self.print_line_array(width_nm, pitch_nm, 0.0, 1.0)?;
        if (check - width_nm).abs() > 0.5 {
            return Err(LithoError::CalibrationFailed {
                target_cd: width_nm,
            });
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Process;

    fn sim() -> LithoSimulator {
        Process::nm90().simulator()
    }

    #[test]
    fn through_pitch_bias_is_visible() {
        let s = sim();
        let dense = s.print_line_array(90.0, 240.0, 0.0, 1.0).unwrap();
        let semi = s.print_line_array(90.0, 300.0, 0.0, 1.0).unwrap();
        let sparse = s.print_line_array(90.0, 600.0, 0.0, 1.0).unwrap();
        let iso = s.print_isolated_line(90.0, 0.0, 1.0).unwrap();
        for (name, cd) in [
            ("dense", dense),
            ("semi", semi),
            ("sparse", sparse),
            ("iso", iso),
        ] {
            assert!(cd > 40.0 && cd < 180.0, "{name} CD {cd} implausible");
        }
        assert!(
            (semi - sparse).abs() > 0.5,
            "no through-pitch bias: {semi} vs {sparse}"
        );
    }

    #[test]
    fn identity_carries_the_imaging_engine_revision() {
        // Memo keys and the snapshot fingerprint separate engine
        // generations only because the revision is part of the identity.
        assert_eq!(sim().identity().last(), Some(&IMAGING_REVISION));
    }

    #[test]
    fn line_array_requires_pitch_above_width() {
        assert!(sim().print_line_array(90.0, 80.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn memoized_cd_hit_is_bit_identical() {
        let s = sim();
        // Parameters no other test uses, so the first call is a miss.
        let a = s.print_line_array(91.0, 310.0, 25.0, 1.02).unwrap();
        let hits_before = cd_cache_stats().hits;
        let b = s.print_line_array(91.0, 310.0, 25.0, 1.02).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "cache hit changed the CD");
        assert!(
            cd_cache_stats().hits > hits_before,
            "repeat call missed the cache"
        );
        // A perturbation below the 1e-6 nm quantum lands in the same bucket
        // and returns the exact cached value.
        let c = s.print_line_array(91.0 + 1e-9, 310.0, 25.0, 1.02).unwrap();
        assert_eq!(
            a.to_bits(),
            c.to_bits(),
            "sub-quantum key missed the bucket"
        );
    }

    #[test]
    fn neighbor_context_changes_cd() {
        let s = sim();
        let both_close = s
            .print_with_neighbors(90.0, Some(150.0), Some(150.0), 0.0, 1.0)
            .unwrap();
        let alone = s.print_with_neighbors(90.0, None, None, 0.0, 1.0).unwrap();
        assert!(
            (both_close - alone).abs() > 0.5,
            "neighbors must matter: {both_close} vs {alone}"
        );
        // Beyond the radius of influence the neighbor should barely matter.
        let far = s
            .print_with_neighbors(90.0, Some(1400.0), Some(1400.0), 0.0, 1.0)
            .unwrap();
        assert!(
            (far - alone).abs() < 1.0,
            "1400 nm neighbors are outside the ROI: {far} vs {alone}"
        );
    }

    #[test]
    fn calibration_anchors_the_dense_pattern() {
        let s = sim().calibrated_to(90.0, 240.0).unwrap();
        let cd = s.print_line_array(90.0, 240.0, 0.0, 1.0).unwrap();
        assert!((cd - 90.0).abs() < 0.05, "calibrated dense CD {cd} != 90");
    }

    #[test]
    fn calibration_failure_is_reported() {
        // A 200 nm device target at a 210 nm pitch needs a 240 nm resist
        // line inside a 210 nm pitch: impossible, the space pinches first.
        let err = sim().calibrated_to(200.0, 210.0);
        assert!(err.is_err());
    }

    #[test]
    fn etch_bias_shifts_device_cd_exactly() {
        let p = Process::nm90();
        let biased = p.simulator();
        let unbiased = biased.clone().with_etch_bias(0.0);
        let a = biased.print_isolated_line(90.0, 0.0, 1.0).unwrap();
        let b = unbiased.print_isolated_line(90.0, 0.0, 1.0).unwrap();
        assert!((b - a - p.etch_bias_nm()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_etch_bias_rejected() {
        let _ = sim().with_etch_bias(-1.0);
    }
}
