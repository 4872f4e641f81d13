//! Property tests pinning the arena/SoA timing state to the allocating
//! reference paths, bit for bit.
//!
//! Two ways of reaching a state must agree exactly with a plain
//! from-scratch [`analyze`] run with the same options and wire caps:
//!
//! * [`analyze`] with a cached [`SharedTopology`] plus a reused scratch
//!   arena (the sign-off hot path),
//! * [`analyze_incremental`] — cone-limited update of a prior state,
//!   through a fresh and through a reused arena. It takes no options and
//!   no wire caps: the state carries the ones it was computed with.
//!
//! Every property runs on randomized generator netlists (seeded, so
//! failures replay) with a random wire-cap map (including caps on nets
//! outside the netlist) and compares whole [`svt_sta::StaState`]s with
//! `==`, which is bit-exact: the state holds raw `f64` vectors and
//! `PartialEq` on them is IEEE equality (no NaNs arise from finite NLDM
//! tables).
//!
//! Thread-count independence: these APIs never touch the worker pool, so
//! the properties hold under any `SVT_THREADS`; CI's differential matrix
//! runs this suite under every `SVT_THREADS` × `SVT_TRACE` cell to pin
//! the claim end to end.

use std::collections::HashMap;

use proptest::prelude::*;

use svt_exec::ScratchArena;
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile, MappedNetlist};
use svt_sta::{
    analyze, analyze_incremental, AnalysisInputs, CellBinding, SharedTopology, TimingOptions,
};
use svt_stdcell::Library;

/// A randomized benchmark profile small enough for ~100 ms cases.
fn profile_strategy() -> impl Strategy<Value = BenchmarkProfile> {
    (2usize..10, 1usize..5, 8usize..60, 0u64..u64::MAX).prop_map(|(pi, po, extra, seed)| {
        // `custom` requires gates >= outputs.
        BenchmarkProfile::custom("prop", pi, po, po + extra, seed)
    })
}

/// Raw wire-cap picks: `(net pick, cap pF)`; resolved against a netlist
/// by [`wire_caps`].
fn caps_strategy() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop::collection::vec((0usize..1_000_000, 0.0f64..0.004), 0..24)
}

fn mapped(profile: &BenchmarkProfile, lib: &Library) -> MappedNetlist {
    technology_map(&generate_benchmark(profile), lib).expect("generated netlists map")
}

/// Resolves wire-cap picks to net names: mostly nets of `netlist`, and
/// one pick in eight a net the netlist does not have.
fn wire_caps(netlist: &MappedNetlist, picks: &[(usize, f64)]) -> HashMap<String, f64> {
    let mut nets: Vec<&str> = netlist.inputs().iter().map(String::as_str).collect();
    for inst in netlist.instances() {
        nets.extend(inst.connections.iter().map(|(_, net)| net.as_str()));
    }
    picks
        .iter()
        .map(|&(pick, cap)| {
            let net = if pick % 8 == 0 {
                format!("ghost{pick}")
            } else {
                nets[pick % nets.len()].to_string()
            };
            (net, cap)
        })
        .collect()
}

/// Timing options with the backward pass on, so required-time state is
/// part of the comparison too.
fn options() -> TimingOptions {
    TimingOptions {
        clock_period_ns: Some(1.0),
        ..TimingOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arena path (shared topology + reused scratch) reproduces the
    /// allocating path bit-for-bit, including across scratch reuse.
    #[test]
    fn arena_full_analysis_matches_the_allocating_path(
        profile in profile_strategy(),
        cap_picks in caps_strategy(),
    ) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let binding = CellBinding::nominal(&netlist, &lib).unwrap();
        let opts = options();
        let caps = wire_caps(&netlist, &cap_picks);
        let with_caps = AnalysisInputs {
            wire_caps_pf: Some(&caps),
            ..AnalysisInputs::default()
        };

        let reference = analyze(&netlist, &binding, &opts, &with_caps).unwrap();

        let topo = SharedTopology::build(&netlist, &binding).unwrap();
        let mut scratch = ScratchArena::new();
        for _ in 0..2 {
            let inputs = AnalysisInputs {
                topology: Some(&topo),
                scratch: Some(&scratch),
                ..with_caps
            };
            let state = analyze(&netlist, &binding, &opts, &inputs).unwrap();
            prop_assert_eq!(&state, &reference);
            scratch.reset();
        }
    }

    /// A chain of incremental rebind edits stays bit-identical to a
    /// from-scratch analysis with the same options and wire caps after
    /// every step, through both a fresh and a reused arena.
    #[test]
    fn incremental_updates_match_full_reruns(
        profile in profile_strategy(),
        edits in prop::collection::vec((0usize..1_000_000, 88.0f64..97.0), 1..4),
        cap_picks in caps_strategy(),
    ) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let mut binding = CellBinding::nominal(&netlist, &lib).unwrap();
        let opts = options();
        let caps = wire_caps(&netlist, &cap_picks);
        let with_caps = AnalysisInputs {
            wire_caps_pf: Some(&caps),
            ..AnalysisInputs::default()
        };

        let mut state = analyze(&netlist, &binding, &opts, &with_caps).unwrap();
        let mut scratch = ScratchArena::new();
        for (pick, length) in edits {
            let idx = pick % netlist.instances().len();
            let cell = CellBinding::uniform_scaled_cell(
                &lib,
                &netlist.instances()[idx].cell,
                length,
            )
            .unwrap();
            binding.replace(&netlist, idx, cell).unwrap();

            let (plain, _) =
                analyze_incremental(&netlist, &binding, &state, &[idx], &ScratchArena::new())
                    .unwrap();
            let (arena_state, _) =
                analyze_incremental(&netlist, &binding, &state, &[idx], &scratch).unwrap();
            scratch.reset();
            let full = analyze(&netlist, &binding, &opts, &with_caps).unwrap();

            prop_assert_eq!(&plain, &full);
            prop_assert_eq!(&arena_state, &full);
            state = arena_state;
        }
    }
}
