//! Lithography-engine benchmarks: aerial-image throughput, CD metrology,
//! and the source-sampling accuracy/runtime ablation called out in
//! DESIGN.md.
//!
//! The imaging engine folds the source into a cached TCC table, so the
//! sample count shows up only in the one-off table build
//! (`tcc_build/source_samples`, caches cleared every iteration); a warm
//! image (`aerial_image/source_samples`) costs the same at every count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use svt_litho::{clear_imaging_caches, pitch_sweep, MaskCutline, Process};

fn bench_aerial_image(c: &mut Criterion) {
    let process = Process::nm90();
    let sim = process.simulator();
    let lines: Vec<(f64, f64)> = (-6..=6)
        .map(|k| {
            let center = k as f64 * 300.0;
            (center - 45.0, center + 45.0)
        })
        .collect();
    let mask = MaskCutline::from_lines(-2048.0, 4096.0, 2.0, &lines).expect("valid mask");

    let mut group = c.benchmark_group("aerial_image");
    for &samples in &[8usize, 16, 24, 48] {
        let config = sim.config().clone().with_source_samples(samples);
        group.bench_with_input(
            BenchmarkId::new("source_samples", samples),
            &samples,
            |b, _| b.iter(|| std::hint::black_box(config.aerial_image(&mask, 100.0))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("tcc_build");
    for &samples in &[8usize, 16, 24, 48] {
        let config = sim.config().clone().with_source_samples(samples);
        group.bench_with_input(
            BenchmarkId::new("source_samples", samples),
            &samples,
            |b, _| {
                b.iter(|| {
                    clear_imaging_caches();
                    std::hint::black_box(config.aerial_image(&mask, 100.0))
                })
            },
        );
    }
    group.finish();
}

fn bench_print_line_array(c: &mut Criterion) {
    let sim = Process::nm90().simulator();
    c.bench_function("print_line_array_90_240", |b| {
        b.iter(|| {
            sim.print_line_array(90.0, 240.0, 0.0, 1.0)
                .expect("dense pattern prints")
        })
    });
}

fn bench_pitch_sweep(c: &mut Criterion) {
    let sim = Process::nm90().simulator();
    let pitches: Vec<f64> = (0..8).map(|i| 240.0 + 60.0 * i as f64).collect();
    c.bench_function("pitch_sweep_8_points", |b| {
        b.iter(|| pitch_sweep(&sim, 90.0, &pitches, 0.0, 1.0).expect("sweep succeeds"))
    });
}

fn bench_grid_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_ablation");
    for &grid in &[2.0f64, 4.0, 8.0] {
        let sim = Process::nm90().with_grid_nm(grid).simulator();
        group.bench_with_input(BenchmarkId::new("grid_nm", grid as u32), &grid, |b, _| {
            b.iter(|| {
                sim.print_isolated_line(90.0, 150.0, 1.0)
                    .expect("iso line prints")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_aerial_image,
    bench_print_line_array,
    bench_pitch_sweep,
    bench_grid_ablation
);
criterion_main!(benches);
