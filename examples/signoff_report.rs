//! A production-flavoured sign-off session: placement-extracted wire
//! parasitics, in-context corner analysis, a classic critical-path report,
//! and statistical timing yield at the chosen clock.
//!
//! ```text
//! cargo run --release --example signoff_report [benchmark] [clock_ns]
//! ```

use svt::core::{
    hpwl_wire_caps, GateLengthModel, MonteCarloOptions, MonteCarloSta, SignoffFlow, SignoffOptions,
    DEFAULT_CAP_PER_NM_PF,
};
use svt::litho::Process;
use svt::netlist::{generate_benchmark, technology_map, verilog, BenchmarkProfile};
use svt::place::{def, place, PlacementOptions};
use svt::sta::{analyze, format_path_report, AnalysisInputs, CellBinding, TimingOptions};
use svt::stdcell::{expand_library, ExpandOptions, Library};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "c880".into());
    let clock_ns: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8.0);

    let library = Library::svt90();
    let sim = Process::nm90().simulator();
    let profile = BenchmarkProfile::iscas85(&name).ok_or("unknown benchmark")?;
    let netlist = generate_benchmark(&profile);
    let mapped = technology_map(&netlist, &library)?;
    let placement = place(&mapped, &library, &PlacementOptions::default())?;
    println!(
        "{name}: {} instances in {} rows; Verilog {} lines, DEF {} lines",
        mapped.instances().len(),
        placement.rows().len(),
        verilog::write(&mapped, &library).lines().count(),
        def::write(&placement, &mapped).lines().count(),
    );

    // Placement-extracted wire parasitics feed the timer.
    let wire_caps = hpwl_wire_caps(&mapped, &placement, &library, DEFAULT_CAP_PER_NM_PF)?;
    let total_wire: f64 = wire_caps.values().sum();
    println!(
        "extracted {} nets, total wire cap {:.3} pF",
        wire_caps.len(),
        total_wire
    );

    let binding = CellBinding::nominal(&mapped, &library)?;
    let opts = TimingOptions {
        clock_period_ns: Some(clock_ns),
        ..TimingOptions::default()
    };
    let inputs = AnalysisInputs {
        wire_caps_pf: Some(&wire_caps),
        ..AnalysisInputs::default()
    };
    let state = analyze(&mapped, &binding, &opts, &inputs)?;
    println!(
        "\n{}",
        format_path_report(state.report(), &mapped, &binding)
    );

    // Corner sign-off and statistical yield.
    let expanded = expand_library(&library, &sim, &ExpandOptions::fast())?;
    let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());
    let corners = flow.run(&mapped, &placement)?;
    println!(
        "corners: traditional WC {:.3} ns, aware WC {:.3} ns ({:.1}% less spread)",
        corners.traditional.wc_ns,
        corners.aware.wc_ns,
        corners.uncertainty_reduction_pct()
    );

    let mc = MonteCarloSta::new(
        &library,
        &expanded,
        MonteCarloOptions {
            samples: 120,
            ..MonteCarloOptions::default()
        },
    );
    let dist = mc.sample(&mapped, &placement, GateLengthModel::SystematicAware)?;
    println!(
        "statistical: mean {:.3} ns, σ {:.4} ns, yield at {clock_ns} ns clock: {:.1}%",
        dist.mean_ns(),
        dist.std_ns(),
        100.0 * dist.yield_at(clock_ns)
    );
    Ok(())
}
