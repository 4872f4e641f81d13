//! The in-process paper workloads: `paper_cold` (library expansion plus
//! Table-2 sign-off, caches cleared every op) and `paper_warm` (snapshot
//! restore plus design build and sign-off, no litho or OPC work).

use std::path::Path;
use std::time::Instant;

use svt_bench::Design;
use svt_core::snapshot::{stack_fingerprint, PipelineSnapshot};
use svt_core::{SignoffComparison, SignoffFlow, SignoffOptions};
use svt_litho::clear_litho_caches;
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt_place::{place, PlacementOptions};
use svt_stdcell::{clear_expand_caches, expand_library, ExpandOptions, Library};

use crate::report::Report;
use crate::stats::{CacheMisses, Samples};
use crate::sys::{ms_since, process_cpu_ms};
use crate::{run_ops, Ctx, OpLoop, SplitMix};

/// How many times a `paper_cold` run repeats its set-up; `setup_s` is
/// the median. One set-up takes about 20 ms, so it is repeated often
/// enough to span more than one of the host's short slow-downs.
const COLD_SETUP_REPEATS: usize = 25;
/// How many times a `paper_warm` run repeats its set-up (about 0.6 s).
const WARM_SETUP_REPEATS: usize = 5;

/// The largest seeded scaling design whose sign-off stays steady on a
/// small host; `paper_warm` adds it to the paper's five.
const WARM_EXTRA: &str = "s10k";

/// Formats a sign-off exactly as `tab2_timing` prints its Table-2 row.
#[must_use]
pub fn table2_row(cmp: &SignoffComparison, source_gates: usize) -> String {
    format!(
        "{:<8} {:>7} | {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} | {:>9.1}%",
        cmp.testcase,
        source_gates,
        cmp.traditional.nom_ns,
        cmp.traditional.bc_ns,
        cmp.traditional.wc_ns,
        cmp.aware.nom_ns,
        cmp.aware.bc_ns,
        cmp.aware.wc_ns,
        cmp.uncertainty_reduction_pct(),
    )
}

/// The Table-2 rows a run must reproduce, kept with the benchmark.
#[derive(Debug, Clone)]
pub struct Reference(Vec<String>);

impl Reference {
    /// Parses reference text: one row per line, `#` lines are comments.
    #[must_use]
    pub fn parse(text: &str) -> Reference {
        Reference(
            text.lines()
                .map(str::trim_end)
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        )
    }

    /// Reads and parses the reference file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read.
    pub fn load(path: &Path) -> Result<Reference, String> {
        std::fs::read_to_string(path)
            .map(|t| Reference::parse(&t))
            .map_err(|e| format!("reading reference {}: {e}", path.display()))
    }

    /// Checks one sign-off: its row must equal the reference row at
    /// printed precision, and its BC→WC spread reduction must lie in the
    /// paper's 28–40 % band.
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch.
    pub fn check(&self, cmp: &SignoffComparison, source_gates: usize) -> Result<(), String> {
        let row = table2_row(cmp, source_gates);
        let want = self
            .0
            .iter()
            .find(|r| r.split_whitespace().next() == Some(cmp.testcase.as_str()))
            .ok_or_else(|| format!("no reference row for `{}`", cmp.testcase))?;
        if row != *want {
            return Err(format!("row `{row}` differs from reference `{want}`"));
        }
        let reduction = cmp.uncertainty_reduction_pct();
        if !(28.0..=40.0).contains(&reduction) {
            return Err(format!(
                "{}: reduction {reduction:.1}% is outside the paper's 28-40%",
                cmp.testcase
            ));
        }
        Ok(())
    }
}

/// Wall time spent in each build stage, summed over the designs of one
/// build.
#[derive(Debug, Clone, Copy, Default)]
struct BuildTimes {
    generate_ms: f64,
    techmap_ms: f64,
    place_ms: f64,
}

/// generate → techmap → place, timing each public call. The placement
/// recipe is `svt_bench::build_design_from_profile`'s, so the designs are
/// the ones `tab2_timing` signs off (the reference check would show any
/// drift).
fn build(library: &Library, name: &str, times: &mut BuildTimes) -> Result<Design, String> {
    let profile = BenchmarkProfile::iscas85(name)
        .or_else(|| BenchmarkProfile::scaling(name))
        .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let t = Instant::now();
    let netlist = {
        let _s = svt_obs::span("perfbench.generate");
        generate_benchmark(&profile)
    };
    times.generate_ms += ms_since(t);
    let t = Instant::now();
    let mapped = {
        let _s = svt_obs::span("perfbench.techmap");
        technology_map(&netlist, library).map_err(|e| format!("mapping {name}: {e}"))?
    };
    times.techmap_ms += ms_since(t);
    let options = PlacementOptions {
        seed: profile.seed,
        utilization: 0.62 + 0.04 * (profile.seed % 5) as f64,
        ..PlacementOptions::default()
    };
    let t = Instant::now();
    let placement = {
        let _s = svt_obs::span("perfbench.place");
        place(&mapped, library, &options).map_err(|e| format!("placing {name}: {e}"))?
    };
    times.place_ms += ms_since(t);
    Ok(Design {
        name: profile.name.clone(),
        source_gates: netlist.gates().len(),
        mapped,
        placement,
    })
}

fn build_all(library: &Library, names: &[&str]) -> Result<(Vec<Design>, BuildTimes), String> {
    let mut times = BuildTimes::default();
    let designs = names
        .iter()
        .map(|n| build(library, n, &mut times))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((designs, times))
}

fn clear_caches() {
    clear_litho_caches();
    clear_expand_caches();
}

fn signoff(
    flow: &SignoffFlow<'_>,
    design: &Design,
) -> Result<SignoffComparison, svt_core::FlowError> {
    let _s = svt_obs::span("perfbench.signoff");
    flow.run(&design.mapped, &design.placement)
}

/// The fingerprint of the paper stack (default expansion options).
#[must_use]
pub fn paper_fingerprint() -> u64 {
    stack_fingerprint(
        &svt_bench::signoff_simulator(),
        &Library::svt90(),
        &ExpandOptions::default(),
    )
}

fn misses_layer(report: &mut Report, misses: &[Samples; 4]) {
    report.median("litho.transfer_cache.misses", "count", misses[0].summary());
    report.median("litho.cd_cache.misses", "count", misses[1].summary());
    report.median("stdcell.pitch_pair.misses", "count", misses[2].summary());
    report.median("stdcell.opc_row.misses", "count", misses[3].summary());
}

fn push_misses(samples: &mut [Samples; 4], m: CacheMisses) {
    #[allow(clippy::cast_precision_loss)]
    for (s, v) in samples
        .iter_mut()
        .zip([m.transfer, m.cd, m.pitch_pair, m.opc_row])
    {
        s.push(v as f64);
    }
}

/// `paper_cold`: every op clears the memo caches, expands the 81-context
/// library with default options and signs off c432…c3540 in a seeded
/// order, checking each Table-2 row against the reference.
///
/// # Errors
///
/// Returns a message when the set-up cannot build the designs or read
/// the reference.
pub fn paper_cold(ctx: &Ctx, report: &mut Report) -> Result<OpLoop, String> {
    let library = Library::svt90();
    let sim = svt_bench::signoff_simulator();
    let reference = Reference::load(&ctx.reference)?;
    let mut setup = Samples::default();
    let mut built = None;
    for _ in 0..COLD_SETUP_REPEATS {
        let t = Instant::now();
        built = Some(build_all(&library, &svt_bench::PAPER_TESTCASES)?);
        setup.push(ms_since(t) / 1e3);
    }
    let (designs, build_times) = built.expect("at least one set-up ran");

    let mut rng = SplitMix(ctx.seed);
    let mut order: Vec<usize> = (0..designs.len()).collect();
    let mut reads = Samples::default();
    let mut expand_ms = Samples::default();
    let mut expand_cpu_ms = Samples::default();
    let mut efficiency = Samples::default();
    let mut misses: [Samples; 4] = Default::default();
    let mut variants = 0usize;
    let threads = svt_exec::resolve_threads(None);
    let ops = run_ops(ctx, |traced| {
        clear_caches();
        let misses_before = CacheMisses::read();
        let cpu0 = process_cpu_ms();
        let t = Instant::now();
        let expanded = {
            let _s = svt_obs::span("perfbench.expand_library");
            expand_library(&library, &sim, &ExpandOptions::default())
        };
        let wall = ms_since(t);
        let cpu = process_cpu_ms() - cpu0;
        let expanded = match expanded {
            Ok(e) => e,
            Err(e) => {
                eprintln!("perfbench: expand_library failed: {e}");
                return false;
            }
        };
        if !traced {
            expand_ms.push(wall);
            expand_cpu_ms.push(cpu);
            #[allow(clippy::cast_precision_loss)]
            efficiency.push(cpu / (wall * threads as f64));
            push_misses(&mut misses, CacheMisses::read().since(&misses_before));
        }
        variants = expanded.len();
        let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());
        rng.shuffle(&mut order);
        let mut ok = true;
        let mut table_ms = 0.0;
        for &i in &order {
            let t = Instant::now();
            let cmp = signoff(&flow, &designs[i]);
            table_ms += ms_since(t);
            let checked = cmp
                .map_err(|e| e.to_string())
                .and_then(|c| reference.check(&c, designs[i].source_gates));
            if let Err(e) = checked {
                eprintln!("perfbench: {}: {e}", designs[i].name);
                ok = false;
            }
        }
        if !traced {
            reads.push(table_ms);
        }
        ok
    });

    if ctx.trace {
        report.median("stdcell.expand_ms", "ms", expand_ms.summary());
        report.median("stdcell.expand_cpu_ms", "ms", expand_cpu_ms.summary());
        report.median("exec.parallel_eff", "ratio", efficiency.summary());
        misses_layer(report, &misses);
        #[allow(clippy::cast_precision_loss)]
        report.value("stdcell.variants", "count", variants as f64);
        report.value("netlist.generate_ms", "ms", build_times.generate_ms);
        report.value("netlist.techmap_ms", "ms", build_times.techmap_ms);
        report.value("place.place_ms", "ms", build_times.place_ms);
        for (name, leaf) in [
            ("trace.opc.correct.self_ms", "opc.correct"),
            (
                "trace.stdcell.pitch_table.build.self_ms",
                "stdcell.pitch_table.build",
            ),
            (
                "trace.stdcell.expand.library_opc.self_ms",
                "stdcell.expand.library_opc",
            ),
            (
                "trace.stdcell.expand.characterize.self_ms",
                "stdcell.expand.characterize",
            ),
        ] {
            report.value(name, "ms", ops.self_ms_per_traced_op(leaf));
        }
    } else {
        report.median("setup_s", "s", setup.summary());
        report.median("op_p50_ms", "ms", ops.untraced.summary());
        report.median("read_p50_ms", "ms", reads.summary());
    }
    Ok(ops)
}

/// `paper_warm`: set-up expands cold, signs off every design and writes
/// a snapshot into the run's own directory. Every op clears the caches,
/// restores the snapshot, builds c432…c3540 plus s10k and signs each off
/// on a fresh flow; each result must equal the cold one, and the op must
/// miss no litho or stdcell cache.
///
/// # Errors
///
/// Returns a message when the set-up fails (expansion, build, sign-off
/// or snapshot write).
pub fn paper_warm(ctx: &Ctx, report: &mut Report) -> Result<OpLoop, String> {
    let library = Library::svt90();
    let sim = svt_bench::signoff_simulator();
    let options = ExpandOptions::default();
    let fingerprint = paper_fingerprint();
    // The run's own directory, removed when the run ends.
    let path = ctx.tmp_dir.join("paper_warm.svtsnap");
    let mut names: Vec<&str> = svt_bench::PAPER_TESTCASES.to_vec();
    names.push(WARM_EXTRA);

    let mut setup = Samples::default();
    let mut cold: Vec<SignoffComparison> = Vec::new();
    let mut size_bytes = 0u64;
    for _ in 0..WARM_SETUP_REPEATS {
        clear_caches();
        let t = Instant::now();
        let expanded =
            expand_library(&library, &sim, &options).map_err(|e| format!("cold expansion: {e}"))?;
        let (designs, _) = build_all(&library, &names)?;
        let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());
        cold = designs
            .iter()
            .map(|d| signoff(&flow, d).map_err(|e| format!("cold sign-off of {}: {e}", d.name)))
            .collect::<Result<_, _>>()?;
        size_bytes = PipelineSnapshot::capture(&expanded, None, Some(&flow))
            .write_file(&path, fingerprint)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        setup.push(ms_since(t) / 1e3);
    }

    let mut rng = SplitMix(ctx.seed);
    let mut order: Vec<usize> = (0..names.len()).collect();
    let mut restore_ms = Samples::default();
    let mut preload_ms = Samples::default();
    let mut stages = [Samples::default(), Samples::default(), Samples::default()];
    let mut iscas_ms = Samples::default();
    let mut s10k_ms = Samples::default();
    let mut misses: [Samples; 4] = Default::default();
    let s10k = names.len() - 1;
    let ops = run_ops(ctx, |traced| {
        clear_caches();
        let misses_before = CacheMisses::read();
        let t = Instant::now();
        let snap = {
            let _s = svt_obs::span("perfbench.read_file");
            PipelineSnapshot::read_file(&path, fingerprint)
        };
        let read_ms = ms_since(t);
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: snapshot restore failed: {e}");
                return false;
            }
        };
        let t = Instant::now();
        let flow = {
            let _s = svt_obs::span("perfbench.preload");
            snap.preload_expand_caches();
            let flow = SignoffFlow::new(&library, &snap.expanded, SignoffOptions::default());
            snap.preload_flow(&flow);
            flow
        };
        let load_ms = ms_since(t);
        rng.shuffle(&mut order);
        let mut ok = true;
        let mut times = BuildTimes::default();
        let mut signoff_ms = vec![0.0; names.len()];
        for &i in &order {
            let design = match build(&library, names[i], &mut times) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ok = false;
                    continue;
                }
            };
            let t = Instant::now();
            let cmp = signoff(&flow, &design);
            signoff_ms[i] = ms_since(t);
            match cmp {
                Ok(c) if c == cold[i] => {}
                Ok(c) => {
                    eprintln!("perfbench: warm {} differs from cold: {c:?}", names[i]);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: warm sign-off of {}: {e}", names[i]);
                    ok = false;
                }
            }
        }
        let missed = CacheMisses::read().since(&misses_before);
        if missed.total() != 0 {
            eprintln!("perfbench: warm op missed litho/stdcell caches: {missed:?}");
            ok = false;
        }
        if !traced {
            restore_ms.push(read_ms);
            preload_ms.push(load_ms);
            stages[0].push(times.generate_ms);
            stages[1].push(times.techmap_ms);
            stages[2].push(times.place_ms);
            iscas_ms.push(signoff_ms[..s10k].iter().sum());
            s10k_ms.push(signoff_ms[s10k]);
            push_misses(&mut misses, missed);
        }
        ok
    });

    if ctx.trace {
        report.median("snap.restore_ms", "ms", restore_ms.summary());
        report.median("snap.preload_ms", "ms", preload_ms.summary());
        #[allow(clippy::cast_precision_loss)]
        report.value("snap.size_mb", "MB", size_bytes as f64 / (1024.0 * 1024.0));
        report.median("netlist.generate_ms", "ms", stages[0].summary());
        report.median("netlist.techmap_ms", "ms", stages[1].summary());
        report.median("place.place_ms", "ms", stages[2].summary());
        let iscas = iscas_ms.summary();
        let big = s10k_ms.summary();
        report.median("core.signoff_iscas_ms", "ms", iscas);
        report.median("core.signoff_s10k_ms", "ms", big);
        let iscas_gates: usize = cold[..s10k].iter().map(|c| c.gates).sum();
        #[allow(clippy::cast_precision_loss)]
        {
            report.value(
                "core.signoff_iscas_us_per_instance",
                "us",
                iscas.p50 * 1e3 / iscas_gates as f64,
            );
            report.value(
                "core.signoff_us_per_instance",
                "us",
                big.p50 * 1e3 / cold[s10k].gates as f64,
            );
        }
        misses_layer(report, &misses);
        for (name, leaf) in [
            ("trace.sta.analyze.self_ms", "sta.analyze"),
            (
                "trace.core.signoff.aware.instance.self_ms",
                "core.signoff.aware.instance",
            ),
        ] {
            report.value(name, "ms", ops.self_ms_per_traced_op(leaf));
        }
    } else {
        report.median("setup_s", "s", setup.summary());
        report.median("op_p50_ms", "ms", ops.untraced.summary());
        report.median("read_p50_ms", "ms", iscas_ms.summary());
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_core::CornerTiming;

    const REFERENCE: &str = "# comment\n\
        c432         160 |    4.958    3.688    6.463 |    4.872    3.982    5.723 |      37.2%\n";

    fn c432() -> SignoffComparison {
        SignoffComparison {
            testcase: "c432".into(),
            gates: 203,
            traditional: CornerTiming {
                bc_ns: 3.6881,
                nom_ns: 4.9579,
                wc_ns: 6.4629,
            },
            aware: CornerTiming {
                bc_ns: 3.9816,
                nom_ns: 4.8721,
                wc_ns: 5.7230,
            },
        }
    }

    #[test]
    fn matching_row_passes_at_printed_precision() {
        let reference = Reference::parse(REFERENCE);
        assert_eq!(reference.check(&c432(), 160), Ok(()));
    }

    #[test]
    fn corrupted_reference_row_fails_the_op() {
        let corrupted = Reference::parse(&REFERENCE.replace("5.723", "5.724"));
        let err = corrupted.check(&c432(), 160).expect_err("row must differ");
        assert!(err.contains("differs from reference"), "{err}");
        // The op loop counts the failure, and the run stops passing.
        let mut tally = crate::stats::Tally::default();
        tally.record(corrupted.check(&c432(), 160).is_ok());
        tally.record(Reference::parse(REFERENCE).check(&c432(), 160).is_ok());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!tally.correct());
    }

    #[test]
    fn missing_row_and_out_of_band_reduction_fail() {
        let empty = Reference::parse("# nothing\n");
        assert!(empty.check(&c432(), 160).is_err());
        let mut narrow = c432();
        narrow.aware.wc_ns = narrow.traditional.wc_ns;
        narrow.aware.bc_ns = narrow.traditional.bc_ns;
        let row = table2_row(&narrow, 160);
        assert!(Reference::parse(&row)
            .check(&narrow, 160)
            .expect_err("0% reduction is outside the band")
            .contains("outside"));
    }
}
