//! `svt` — a systematic-variation aware timing methodology.
//!
//! A full-system reproduction of **Gupta & Heng, "Toward a
//! Systematic-Variation Aware Timing Methodology" (DAC 2004)**: a static
//! timing sign-off flow that exploits the *systematic* (through-pitch and
//! through-focus) components of across-chip linewidth variation instead of
//! worst-casing them, built on from-scratch EDA substrates:
//!
//! | Crate | Substrate |
//! |---|---|
//! | [`geom`] | nm-grid layout geometry |
//! | [`litho`] | Partially coherent aerial-image simulation (Hopkins TCC form of the Abbe source integral) |
//! | [`opc`] | model-based / library-based OPC + SRAFs |
//! | [`stdcell`] | 10-cell 90 nm-class library, NLDM, 81-context expansion |
//! | [`netlist`] | `.bench` netlists, ISCAS85-profile generation, mapping |
//! | [`place`] | row placement, whitespace, neighbor-spacing extraction |
//! | [`sta`] | graph-based static timing analysis, full + incremental |
//! | [`core`] | the paper's methodology: classes, labels, corners, flows |
//! | [`exec`] | deterministic worker pool + sharded memo caches |
//! | [`obs`] | spans, counters, Chrome traces, sign-off audit trails |
//! | [`eco`] | incremental ECO re-sign-off with bit-exact delta audits |
//!
//! # Quickstart
//!
//! ```
//! use svt::litho::Process;
//! use svt::netlist::{generate_benchmark, technology_map, BenchmarkProfile};
//! use svt::place::{place, PlacementOptions};
//! use svt::stdcell::{expand_library, ExpandOptions, Library};
//! use svt::core::{SignoffFlow, SignoffOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = Library::svt90();
//! let sim = Process::nm90().simulator();
//! let expanded = expand_library(&library, &sim, &ExpandOptions::fast())?;
//!
//! let profile = BenchmarkProfile::iscas85("c432").expect("known benchmark");
//! let netlist = generate_benchmark(&profile);
//! let mapped = technology_map(&netlist, &library)?;
//! let placement = place(&mapped, &library, &PlacementOptions::default())?;
//!
//! let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());
//! let result = flow.run(&mapped, &placement)?;
//! println!(
//!     "{}: BC/WC spread reduced by {:.1}%",
//!     result.testcase,
//!     result.uncertainty_reduction_pct()
//! );
//! assert!(result.uncertainty_reduction_pct() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use svt_core as core;
pub use svt_eco as eco;
pub use svt_exec as exec;
pub use svt_geom as geom;
pub use svt_litho as litho;
pub use svt_netlist as netlist;
pub use svt_obs as obs;
pub use svt_opc as opc;
pub use svt_place as place;
pub use svt_sta as sta;
pub use svt_stdcell as stdcell;
