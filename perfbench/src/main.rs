//! `perfbench` — end-to-end and per-layer benchmark of the svt paper flow
//! and the `svtd` ECO loop. See `perfbench/README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! ```text
//! perfbench --workload paper_cold|paper_warm|eco_svtd --seed N --seconds S --trace 0|1
//!           [--svtd PATH] [--reference PATH] [--out DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` is a separate run that prints the per-layer metrics: in
//! the in-process workloads every other op runs with `svt_obs` tracing
//! (and allocation counting) on, so the same run also measures the
//! tracing overhead; the registry's span aggregates are written to
//! `<out>/trace-<workload>-<seed>.json` when the run ends.

mod eco;
mod paper;
mod report;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use stats::{Samples, Tally};
use sys::{ms_since, HostTag};
use trace::SpanTotals;

#[global_allocator]
static ALLOC: svt_obs::alloc::CountingAlloc = svt_obs::alloc::CountingAlloc::system();

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("stdcell.expand_ms", "ms"),
    ("stdcell.expand_cpu_ms", "ms"),
    ("exec.parallel_eff", "ratio"),
    ("litho.transfer_cache.misses", "count"),
    ("litho.cd_cache.misses", "count"),
    ("stdcell.pitch_pair.misses", "count"),
    ("stdcell.opc_row.misses", "count"),
    ("stdcell.variants", "count"),
    ("snap.restore_ms", "ms"),
    ("snap.preload_ms", "ms"),
    ("snap.size_mb", "MB"),
    ("netlist.generate_ms", "ms"),
    ("netlist.techmap_ms", "ms"),
    ("place.place_ms", "ms"),
    ("core.signoff_iscas_ms", "ms"),
    ("core.signoff_s10k_ms", "ms"),
    ("core.signoff_iscas_us_per_instance", "us"),
    ("core.signoff_us_per_instance", "us"),
    ("obs.alloc_count", "count"),
    ("obs.alloc_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
    ("eco.apply_ms", "ms"),
    ("eco.recharacterized", "count"),
    ("eco.rows_extracted", "count"),
    ("eco.forward_instances", "count"),
    ("eco.backward_nets", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.cpu_ms_per_cycle", "ms"),
    ("serve.cold_boot_s", "s"),
    ("serve.non2xx", "count"),
    ("trace.opc.correct.self_ms", "ms"),
    ("trace.stdcell.pitch_table.build.self_ms", "ms"),
    ("trace.stdcell.expand.library_opc.self_ms", "ms"),
    ("trace.stdcell.expand.characterize.self_ms", "ms"),
    ("trace.sta.analyze.self_ms", "ms"),
    ("trace.core.signoff.aware.instance.self_ms", "ms"),
    ("trace.eco.litho.self_ms", "ms"),
    ("trace.eco.characterize.self_ms", "ms"),
    ("trace.eco.timing.self_ms", "ms"),
    ("trace.sta.analyze_incremental.self_ms", "ms"),
    ("trace.serve.request.self_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["paper_cold", "paper_warm", "eco_svtd"];

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the op loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `svtd` binary (`eco_svtd`).
    pub svtd: PathBuf,
    /// Table-2 reference rows (`paper_cold`).
    pub reference: PathBuf,
    /// Where results and traces are written.
    pub out_dir: PathBuf,
    /// This run's own scratch directory, removed when the run ends.
    pub tmp_dir: PathBuf,
}

/// SplitMix64: the seeded generator behind every input choice.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// What an in-process op loop measured.
pub struct OpLoop {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Wall time of each op run with tracing off.
    pub untraced: Samples,
    /// Wall time of each op run with tracing on (`--trace 1` only).
    pub traced: Samples,
    /// Allocations per traced op.
    pub alloc_count: Samples,
    /// Allocated MiB per traced op.
    pub alloc_mb: Samples,
    /// Span totals recorded during the traced ops.
    pub spans: SpanTotals,
}

impl OpLoop {
    /// Self time of the layer `leaf` per traced op, in milliseconds.
    #[must_use]
    pub fn self_ms_per_traced_op(&self, leaf: &str) -> f64 {
        trace::self_ms_per_op(&self.spans, leaf, self.traced.len())
    }
}

fn set_traced(on: bool) {
    svt_obs::set_mode(if on {
        svt_obs::TraceMode::Summary
    } else {
        svt_obs::TraceMode::Off
    });
    svt_obs::alloc::set_active(on);
}

/// Runs `op` until `ctx.seconds` have passed, at least once. `op` gets
/// whether it runs traced and returns whether its outputs checked out.
/// In a traced run every even-numbered op is traced.
pub fn run_ops(ctx: &Ctx, mut op: impl FnMut(bool) -> bool) -> OpLoop {
    let mut out = OpLoop {
        tally: Tally::default(),
        untraced: Samples::default(),
        traced: Samples::default(),
        alloc_count: Samples::default(),
        alloc_mb: Samples::default(),
        spans: Vec::new(),
    };
    let spans_before = trace::local_spans();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut k = 0u64;
    while k == 0 || Instant::now() < deadline {
        let traced = ctx.trace && k.is_multiple_of(2);
        set_traced(traced);
        let (count0, bytes0) = svt_obs::alloc::totals();
        let t = Instant::now();
        let ok = {
            let _span = svt_obs::span("perfbench.op");
            op(traced)
        };
        let ms = ms_since(t);
        set_traced(false);
        out.tally.record(ok);
        if traced {
            let (count1, bytes1) = svt_obs::alloc::totals();
            out.traced.push(ms);
            #[allow(clippy::cast_precision_loss)]
            {
                out.alloc_count.push((count1 - count0) as f64);
                out.alloc_mb
                    .push((bytes1 - bytes0) as f64 / (1024.0 * 1024.0));
            }
        } else {
            out.untraced.push(ms);
        }
        k += 1;
    }
    out.spans = trace::since(&trace::local_spans(), &spans_before);
    out
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let mut svtd = target.join("release").join("svtd");
    let mut reference = PathBuf::from("perfbench/reference/tab2.txt");
    let mut out_dir = target.join("perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            "--svtd" => svtd = PathBuf::from(value),
            "--reference" => reference = PathBuf::from(value),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    let tmp_dir = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        svtd,
        reference,
        out_dir,
        tmp_dir,
    })
}

/// Removes the run's scratch directory on every exit path.
struct TmpDir<'a>(&'a std::path::Path);

impl Drop for TmpDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

fn run(ctx: &Ctx) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.tmp_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.tmp_dir.display()))?;
    let _tmp = TmpDir(&ctx.tmp_dir);
    set_traced(false);
    let mut report = Report::default();
    let (tally, fingerprint) = match ctx.workload.as_str() {
        "paper_cold" | "paper_warm" => {
            let ops = if ctx.workload == "paper_cold" {
                paper::paper_cold(ctx, &mut report)?
            } else {
                paper::paper_warm(ctx, &mut report)?
            };
            if ctx.trace {
                report.median("obs.alloc_count", "count", ops.alloc_count.summary());
                report.median("obs.alloc_mb", "MB", ops.alloc_mb.summary());
                let overhead = 100.0 * (ops.traced.p50() / ops.untraced.p50() - 1.0);
                report.value("obs.trace_overhead_pct", "%", overhead);
                let path = ctx
                    .out_dir
                    .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
                if let Err(e) = std::fs::write(&path, svt_obs::registry().snapshot().to_json()) {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                }
            } else {
                report.value(
                    "peak_rss_mb",
                    "MB",
                    sys::peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?,
                );
            }
            (ops.tally, paper::paper_fingerprint())
        }
        _ => (eco::eco_svtd(ctx, &mut report)?, eco::svtd_fingerprint()),
    };
    if ctx.trace {
        report.complete(&PER_LAYER);
    } else {
        report.complete(&END_TO_END);
    }
    let host = HostTag::collect(ctx.seed, fingerprint);
    let out_file = ctx.out_dir.join(format!(
        "result-{}-{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    report.finish(&ctx.workload, tally, &host, &out_file);
    Ok(())
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_shuffle_is_a_repeatable_permutation() {
        let mut a: Vec<usize> = (0..10).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        let mut c: Vec<usize> = (0..10).collect();
        SplitMix(8).shuffle(&mut c);
        assert_ne!(a, c, "another seed gives another order");
    }

    /// `BENCHMARK.json` declares the same metrics, units and order as
    /// `END_TO_END` and `PER_LAYER`.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = svt_obs::json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(svt_obs::json::JsonValue::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(svt_obs::json::JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
