//! Oracle test of the imaging engine: the Hopkins TCC image must equal the
//! direct Abbe source sum it replaces.
//!
//! The oracle below is the textbook per-source-point loop — one pupil
//! filter and one inverse FFT per source point, summing `w_s·|A_s(x)|²` —
//! written against the crate's public pieces (pupil, source sampling,
//! FFT). It lives only here; the engine itself never runs it.

use svt_litho::fft::{self, bin_frequency};
use svt_litho::{Complex, Illumination, ImagingConfig, MaskCutline, Pupil};

/// Absolute intensity tolerance between the two forms of the integral.
const TOLERANCE: f64 = 1e-12;

fn abbe_image(config: &ImagingConfig, mask: &MaskCutline, defocus_nm: f64) -> Vec<f64> {
    let pupil = config.pupil();
    let n = mask.samples().len();
    let window = mask.length();
    let mut spectrum: Vec<Complex> = mask.samples().iter().map(|&t| Complex::from(t)).collect();
    fft::forward(&mut spectrum);

    let mut intensity = vec![0.0; n];
    for p in config.source().sample_1d(config.source_samples()) {
        let shift = p.s * pupil.cutoff();
        let mut field: Vec<Complex> = (0..n)
            .map(|k| spectrum[k] * pupil.transfer(bin_frequency(k, n, window) + shift, defocus_nm))
            .collect();
        fft::inverse(&mut field);
        for (i, a) in field.iter().enumerate() {
            intensity[i] += p.weight * a.norm_sqr();
        }
    }
    intensity
}

fn sources() -> [(&'static str, Illumination); 3] {
    [
        ("conventional 0.6", Illumination::conventional(0.6).unwrap()),
        (
            "sign-off annulus",
            Illumination::annular(0.55, 0.85).unwrap(),
        ),
        (
            "production annulus",
            Illumination::annular(0.575, 0.825).unwrap(),
        ),
    ]
}

/// Isolated, dense and irregular gate patterns inside `[x0, x0 + length]`.
fn masks(x0: f64, length: f64, grid_nm: f64) -> Vec<(&'static str, MaskCutline)> {
    let isolated = vec![(-45.0, 45.0)];
    let dense: Vec<(f64, f64)> = (-4..=4)
        .map(|i| {
            let c = f64::from(i) * 240.0;
            (c - 45.0, c + 45.0)
        })
        .collect();
    let irregular = vec![
        (-610.0, -540.0),
        (-300.0, -190.0),
        (-95.0, -5.0),
        (130.0, 250.0),
        (330.0, 385.0),
        (700.0, 812.0),
    ];
    [
        ("isolated", isolated),
        ("dense", dense),
        ("irregular", irregular),
    ]
    .into_iter()
    .map(|(name, lines)| {
        (
            name,
            MaskCutline::from_lines(x0, length, grid_nm, &lines).unwrap(),
        )
    })
    .collect()
}

fn assert_matches_abbe(config: &ImagingConfig, x0: f64, length: f64) {
    for (mask_name, mask) in masks(x0, length, config.grid_nm()) {
        for defocus in [0.0, 150.0, -250.0] {
            let tcc = config.aerial_image(&mask, defocus);
            let abbe = abbe_image(config, &mask, defocus);
            assert_eq!(tcc.samples().len(), abbe.len());
            let worst = tcc
                .samples()
                .iter()
                .zip(&abbe)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= TOLERANCE,
                "{:?} {mask_name} mask, window {length} nm, defocus {defocus} nm: \
                 max |ΔI| = {worst:e}",
                config.source()
            );
        }
    }
}

#[test]
fn tcc_image_equals_abbe_sum_on_the_production_window() {
    let pupil = Pupil::new(193.0, 0.7).unwrap();
    for (_, source) in sources() {
        let config = ImagingConfig::new(pupil, source, 24, 2.0);
        assert_matches_abbe(&config, -2048.0, 4096.0);
    }
}

#[test]
fn tcc_image_equals_abbe_sum_on_other_windows_and_samplings() {
    let pupil = Pupil::new(193.0, 0.7).unwrap();
    for (_, source) in sources() {
        // A 2 µm window (1024 bins) with a coarser source, and an 8 µm
        // window on a 4 nm grid with an odd sample count.
        let config = ImagingConfig::new(pupil, source, 16, 2.0);
        assert_matches_abbe(&config, -1024.0, 2048.0);
        let config = ImagingConfig::new(pupil, source, 31, 4.0);
        assert_matches_abbe(&config, -4096.0, 8192.0);
    }
}
