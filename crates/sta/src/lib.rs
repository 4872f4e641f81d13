//! Graph-based static timing analysis for the `svt` workspace.
//!
//! A deliberately mainstream STA core (the paper's methodology plugs into
//! "a traditional static timing analysis", §3.1.3):
//!
//! * [`CellBinding`] — assigns one [`svt_stdcell::CharacterizedCell`] to
//!   every instance of a mapped netlist. Corner analysis and the
//!   in-context flow differ *only* in which variants they bind.
//! * [`analyze`] — levelized propagation of arrival times and slews with
//!   NLDM lookup (bilinear + edge extrapolation), lumped capacitive loads
//!   (optionally placement-extracted wire caps), worst-slew merging, and
//!   late (max) or early (min) mode. It returns a [`StaState`]; warm
//!   callers pass a prebuilt [`SharedTopology`] and a scratch arena
//!   through [`AnalysisInputs`].
//! * [`TimingReport`] — per-net arrivals, circuit delay, critical path
//!   extraction, and required-time/slack computation against a clock
//!   period.
//! * [`analyze_incremental`] — the incremental (ECO) path: advances an
//!   [`StaState`] after an edit by recomputing only the forward fan-out
//!   cone of arrivals and the backward fan-in cone of required times,
//!   under the options and wire caps the state carries, bit-identically
//!   to a from-scratch analysis.
//!
//! # Examples
//!
//! ```
//! use svt_netlist::{bench, technology_map};
//! use svt_sta::{analyze, AnalysisInputs, CellBinding, TimingOptions};
//! use svt_stdcell::Library;
//!
//! let lib = Library::svt90();
//! let n = bench::parse("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")?;
//! let mapped = technology_map(&n, &lib)?;
//! let binding = CellBinding::nominal(&mapped, &lib)?;
//! let opts = TimingOptions::default();
//! let state = analyze(&mapped, &binding, &opts, &AnalysisInputs::default())?;
//! assert!(state.report().circuit_delay_ns() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod binding;
mod error;
mod incremental;
mod report;

pub use analysis::{analyze, AnalysisInputs, AnalysisMode, TimingOptions};
pub use binding::CellBinding;
pub use error::StaError;
pub use incremental::{analyze_incremental, IncrementalStats, SharedTopology, StaState};
pub use report::{format_path_report, PathStep, TimingReport};
