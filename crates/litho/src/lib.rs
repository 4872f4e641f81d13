//! 1-D partially coherent aerial-image simulation for the `svt` workspace.
//!
//! The DAC 2004 methodology this workspace reproduces consumed a commercial
//! lithography simulator (PROLITH 8.0). This crate replaces it with a
//! from-scratch partially coherent imaging engine (the Hopkins TCC form of
//! the Abbe source integral) specialised to the 1-D line/space patterns
//! that matter for polysilicon gates:
//!
//! * [`fft`] — radix-2 complex FFT (no external FFT crate exists in the
//!   approved dependency set),
//! * [`Illumination`] — conventional and annular sources with the correct
//!   1-D projected weighting of a 2-D source shape,
//! * [`Pupil`] — ideal lens pupil with exact (non-paraxial) defocus phase,
//! * [`MaskCutline`] / [`AerialImage`] — sampled mask transmission and the
//!   resulting image intensity,
//! * [`ThresholdResist`] + [`measure_cd_at`] — constant-threshold resist
//!   model and CD metrology with sub-grid edge interpolation,
//! * [`pitch_sweep`], [`bossung`], [`FocusExposureMatrix`] — the
//!   through-pitch (paper Fig. 1) and through-focus (paper Figs. 2 and 6)
//!   characterizations the timing methodology is built on.
//!
//! # Examples
//!
//! Print a dense line array and measure the centre line's CD:
//!
//! ```
//! use svt_litho::Process;
//!
//! let sim = Process::nm90().simulator();
//! let cd = sim.print_line_array(90.0, 240.0, 0.0, 1.0)?;
//! assert!(cd > 40.0 && cd < 160.0, "CD {cd} out of plausible range");
//! # Ok::<(), svt_litho::LithoError>(())
//! ```

mod bossung;
mod cd;
mod complex;
mod error;
mod fem;
pub mod fft;
mod imaging;
mod mask;
mod metrics;
mod process;
mod pupil;
mod simulator;
mod snap_impls;
mod source;
mod sweep;

pub use bossung::{bossung, BossungCurve, BossungFamily};
pub use cd::{measure_cd_at, PrintedCd, ThresholdResist};
pub use complex::Complex;
pub use error::LithoError;
pub use fem::{FemPoint, FocusExposureMatrix};
pub use imaging::{clear_imaging_caches, transfer_cache_stats, AerialImage, ImagingConfig};
pub use simulator::{cd_cache_stats, clear_cd_cache};

/// Drops every cache in the crate: FFT plans are kept (they are tiny and
/// size-keyed), TCC tables and memoized CDs are cleared. Benchmarks call
/// this between cold-cache measurements.
pub fn clear_litho_caches() {
    clear_imaging_caches();
    clear_cd_cache();
}
pub use mask::MaskCutline;
pub use metrics::{depth_of_focus, image_metrics, meef, ImageMetrics};
pub use process::Process;
pub use pupil::Pupil;
pub use simulator::LithoSimulator;
pub use source::Illumination;
pub use sweep::{pitch_sweep, PitchCdCurve, PitchCdPoint};
