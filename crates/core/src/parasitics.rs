//! Placement-extracted wire parasitics: half-perimeter wire-length (HPWL)
//! capacitance estimation per net.
//!
//! The paper keeps interconnect orthogonal to its contribution ("to
//! evaluate the benefit of the proposed timing methodology independent of
//! any orthogonal effects"), but a production sign-off flow loads every
//! net with placement-dependent wire capacitance. This module estimates it
//! the standard pre-route way: the half-perimeter of the bounding box of
//! the net's pins, scaled by a capacitance-per-length coefficient, fed to
//! [`svt_sta::analyze`] through
//! [`svt_sta::AnalysisInputs::wire_caps_pf`].

use std::collections::HashMap;

use svt_netlist::MappedNetlist;
use svt_place::Placement;
use svt_stdcell::{CellAbstract, Library};

use crate::flow::FlowError;

/// A typical 90 nm-class wire capacitance per nanometre of estimated wire
/// length (0.2 fF/µm).
pub const DEFAULT_CAP_PER_NM_PF: f64 = 0.2e-6;

/// Estimates per-net wire capacitance from placement HPWL.
///
/// Pin positions are approximated by the owning instance's center (the
/// standard pre-route approximation); primary I/O pins sit at the chip
/// boundary nearest to their single connected instance and contribute no
/// extra extent.
///
/// # Errors
///
/// Returns [`FlowError::Inconsistent`] if an instance is missing from the
/// placement or its cell from the library.
pub fn hpwl_wire_caps(
    netlist: &MappedNetlist,
    placement: &Placement,
    library: &Library,
    cap_per_nm_pf: f64,
) -> Result<HashMap<String, f64>, FlowError> {
    // Instance centers.
    let mut centers: Vec<Option<(f64, f64)>> = vec![None; netlist.instances().len()];
    for placed in placement.placed() {
        let inst = &netlist.instances()[placed.instance];
        let cell = library
            .cell(&inst.cell)
            .ok_or_else(|| FlowError::Inconsistent {
                reason: format!("unknown cell `{}`", inst.cell),
            })?;
        let x = placed.x_nm + cell.layout().width_nm() / 2.0;
        let y =
            placed.row as f64 * CellAbstract::CELL_HEIGHT_NM + CellAbstract::CELL_HEIGHT_NM / 2.0;
        centers[placed.instance] = Some((x, y));
    }

    // Gather the pin positions of every net.
    let mut extents: HashMap<String, (f64, f64, f64, f64)> = HashMap::new();
    for (idx, inst) in netlist.instances().iter().enumerate() {
        let (x, y) = centers[idx].ok_or_else(|| FlowError::Inconsistent {
            reason: format!("instance `{}` is not placed", inst.name),
        })?;
        for (_, net) in &inst.connections {
            let e = extents.entry(net.clone()).or_insert((
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ));
            e.0 = e.0.min(x);
            e.1 = e.1.max(x);
            e.2 = e.2.min(y);
            e.3 = e.3.max(y);
        }
    }

    Ok(extents
        .into_iter()
        .map(|(net, (x0, x1, y0, y1))| {
            let hpwl = (x1 - x0) + (y1 - y0);
            (net, hpwl * cap_per_nm_pf)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
    use svt_place::{place, PlacementOptions};
    use svt_sta::{analyze, AnalysisInputs, CellBinding, TimingOptions};

    fn with_caps(caps: &HashMap<String, f64>) -> AnalysisInputs<'_> {
        AnalysisInputs {
            wire_caps_pf: Some(caps),
            ..AnalysisInputs::default()
        }
    }

    fn setup() -> (Library, MappedNetlist, Placement) {
        let library = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let mapped = technology_map(&n, &library).unwrap();
        let placement = place(&mapped, &library, &PlacementOptions::default()).unwrap();
        (library, mapped, placement)
    }

    #[test]
    fn every_net_gets_a_nonnegative_cap() {
        let (library, mapped, placement) = setup();
        let caps = hpwl_wire_caps(&mapped, &placement, &library, DEFAULT_CAP_PER_NM_PF).unwrap();
        assert!(!caps.is_empty());
        for (net, cap) in &caps {
            assert!(*cap >= 0.0, "net `{net}` has negative cap");
            assert!(*cap < 0.05, "net `{net}` cap {cap} pF implausible");
        }
        // Multi-row nets exist and carry more cap than single-point nets.
        let max = caps.values().cloned().fold(0.0, f64::max);
        assert!(max > 1e-4, "some net should span rows: max {max} pF");
    }

    #[test]
    fn wire_caps_slow_the_circuit_down() {
        let (library, mapped, placement) = setup();
        let caps = hpwl_wire_caps(&mapped, &placement, &library, DEFAULT_CAP_PER_NM_PF).unwrap();
        let binding = CellBinding::nominal(&mapped, &library).unwrap();
        let opts = TimingOptions::default();
        let bare = analyze(&mapped, &binding, &opts, &AnalysisInputs::default())
            .unwrap()
            .report()
            .circuit_delay_ns();
        let loaded = analyze(&mapped, &binding, &opts, &with_caps(&caps))
            .unwrap()
            .report()
            .circuit_delay_ns();
        assert!(
            loaded > bare,
            "wire load must slow timing: {bare} -> {loaded}"
        );
        assert!(
            loaded < 3.0 * bare,
            "wire load {loaded} implausibly dominant vs {bare}"
        );
    }

    #[test]
    fn spread_out_placements_carry_more_wire_cap() {
        let (library, mapped, _) = setup();
        let total = |utilization: f64| {
            let placement = place(
                &mapped,
                &library,
                &PlacementOptions {
                    utilization,
                    ..PlacementOptions::default()
                },
            )
            .unwrap();
            hpwl_wire_caps(&mapped, &placement, &library, DEFAULT_CAP_PER_NM_PF)
                .unwrap()
                .values()
                .sum::<f64>()
        };
        assert!(
            total(0.4) > total(0.9),
            "sparser placement must have longer wires"
        );
    }

    #[test]
    fn negative_wire_caps_are_rejected_by_the_timer() {
        let (library, mapped, _) = setup();
        let binding = CellBinding::nominal(&mapped, &library).unwrap();
        let mut caps = HashMap::new();
        caps.insert("nonexistent".to_string(), -1.0);
        let opts = TimingOptions::default();
        assert!(analyze(&mapped, &binding, &opts, &with_caps(&caps)).is_err());
    }
}
