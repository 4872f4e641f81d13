//! Timing-engine benchmarks: full-circuit analysis runtime vs benchmark
//! size, and binding-construction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt_sta::{analyze, AnalysisInputs, CellBinding, TimingOptions};
use svt_stdcell::Library;

fn bench_analysis_scaling(c: &mut Criterion) {
    let library = Library::svt90();
    let mut group = c.benchmark_group("sta_analyze");
    group.sample_size(20);
    for name in ["c432", "c880", "c1908"] {
        let profile = BenchmarkProfile::iscas85(name).expect("known benchmark");
        let netlist = generate_benchmark(&profile);
        let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
        let binding = CellBinding::nominal(&mapped, &library).expect("binding succeeds");
        let options = TimingOptions::default();
        group.bench_with_input(BenchmarkId::new("benchmark", name), name, |b, _| {
            b.iter(|| {
                analyze(&mapped, &binding, &options, &AnalysisInputs::default())
                    .expect("analysis succeeds")
            })
        });
    }
    group.finish();
}

fn bench_binding_construction(c: &mut Criterion) {
    let library = Library::svt90();
    let profile = BenchmarkProfile::iscas85("c880").expect("known benchmark");
    let netlist = generate_benchmark(&profile);
    let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
    c.bench_function("nominal_binding_c880", |b| {
        b.iter(|| CellBinding::nominal(&mapped, &library).expect("binding succeeds"))
    });
}

criterion_group!(benches, bench_analysis_scaling, bench_binding_construction);
criterion_main!(benches);
