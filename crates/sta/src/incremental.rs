//! Cone-limited incremental timing analysis.
//!
//! [`analyze`](crate::analyze) returns a [`StaState`] — the timing
//! report plus the internal products a re-analysis needs (the interned
//! netlist topology, net loads, per-arc delays, completion order) and
//! the options and wire caps it was computed with.
//! [`analyze_incremental`] advances that state after a small
//! netlist/binding edit by recomputing only the affected cones:
//!
//! * **forward (fan-out) cone** — arrival times and slews of every net
//!   reachable from a changed instance,
//! * **backward (fan-in) cone** — required times of every net from which
//!   a changed instance is reachable.
//!
//! The result is *bit-identical* to a from-scratch
//! [`analyze`](crate::analyze) of the edited design, by construction:
//!
//! 1. Per-instance evaluation is a pure function of the bound variant,
//!    the upstream net timings, and the output load — dirty instances
//!    re-run exactly the shared evaluation routine, in a valid
//!    topological order (the stored completion order; edits never change
//!    connectivity).
//! 2. Arrival/required merges are max/min *selections*, which are
//!    order-insensitive for the non-NaN values the timer produces.
//! 3. The only order-sensitive floating-point arithmetic in the timer is
//!    the net-load accumulation — so the load vector is recomputed from
//!    scratch in the canonical order on every update (O(pins), cheap)
//!    and bit-diffed against the previous one to discover nets whose
//!    drivers must be re-evaluated (e.g. a cell swap changing input pin
//!    capacitance slows the *upstream* driver).
//!
//! Everything the per-update passes touch repeatedly is integer-keyed:
//! [`Topology`] interns net names once per full analysis, and all timing
//! state lives in flat id-indexed vectors (see
//! [`TimingReport`]), so the incremental path does no string hashing
//! beyond an O(connections) equality sweep that verifies connectivity is
//! unchanged. Per-update temporaries (seed flags, cone marks, the DFS
//! stack) are carved from a caller-supplied
//! [`ScratchArena`](svt_exec::ScratchArena) — warm updates through a
//! reused arena touch the heap only for the cloned result vectors. That
//! keeps the per-update fixed cost small enough for the `svt-eco`
//! latency target (a single-cell ECO must re-sign-off ≥ 10× faster than
//! a warm full rebuild).
//!
//! The equivalence is enforced by the `svt-eco` differential test, which
//! compares incremental sessions against full rebuilds bit-for-bit
//! across `SVT_THREADS` settings.

use std::collections::HashMap;
use std::sync::Arc;

use svt_exec::ScratchArena;
use svt_netlist::MappedNetlist;

use crate::analysis::{
    compute_loads, connected_input_pins, evaluate_instance, validate, EvalScratch,
};
use crate::report::TimingReport;
use crate::{CellBinding, StaError, TimingOptions};

/// The netlist connectivity with every net name interned to a dense id,
/// plus the instance⇄net relations every timing pass walks. Built once
/// (see [`SharedTopology::build`]) and shared (via [`Arc`]) by every
/// state advanced from it — edits that qualify for incremental analysis
/// never change connectivity, so the topology never goes stale (and
/// [`Topology::verify`] rejects states whose netlist did change).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Topology {
    /// Design name, carried so reports need no netlist back-reference.
    pub(crate) design: String,
    /// Interned net names; `net_names[id]` is the name of net `id`.
    pub(crate) net_names: Vec<String>,
    /// Net name → id, for mapping externally keyed inputs (wire caps).
    pub(crate) net_ids: HashMap<String, u32>,
    /// Interned pin names; `pin_names[id]` is the name of pin id `id`.
    pub(crate) pin_names: Vec<String>,
    /// Per instance, the net id of each `connections` entry, in order.
    pub(crate) conn_ids: Vec<Vec<u32>>,
    /// Per instance, the pin-name id of each `connections` entry — used
    /// only to reconstruct path reports without the netlist.
    pub(crate) conn_pins: Vec<Vec<u16>>,
    /// Per instance, the net id its output pin drives.
    pub(crate) out_net: Vec<u32>,
    /// Per net, the driving instance (`u32::MAX` for primary inputs and
    /// undriven nets).
    pub(crate) driver_of: Vec<u32>,
    /// Per net, the sink instances — one entry per connected *input
    /// pin*, so an instance sampling a net twice appears twice (the
    /// levelizer counts pins, not distinct nets).
    pub(crate) users_of: Vec<Vec<u32>>,
    /// Primary-output net ids, in `netlist.outputs()` order.
    pub(crate) po_ids: Vec<u32>,
}

impl Topology {
    /// Interns the bound netlist. Pin roles come from the binding: the
    /// first zero-capacitance pin is the output (as everywhere else in
    /// the timer), every positive-capacitance pin is an input.
    pub(crate) fn build(
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<Topology, StaError> {
        let n = netlist.instances().len();
        let mut net_names: Vec<String> = Vec::new();
        let mut net_ids: HashMap<String, u32> = HashMap::new();
        let mut intern = |name: &str, net_names: &mut Vec<String>| -> u32 {
            if let Some(&id) = net_ids.get(name) {
                return id;
            }
            let id = u32::try_from(net_names.len()).expect("net count fits u32");
            net_ids.insert(name.to_string(), id);
            net_names.push(name.to_string());
            id
        };

        // Deterministic id order: primary inputs, then instance
        // connections in netlist order, then primary outputs.
        for pi in netlist.inputs() {
            intern(pi, &mut net_names);
        }
        let mut conn_ids: Vec<Vec<u32>> = Vec::with_capacity(n);
        for inst in netlist.instances() {
            conn_ids.push(
                inst.connections
                    .iter()
                    .map(|(_, net)| intern(net, &mut net_names))
                    .collect(),
            );
        }
        let po_ids: Vec<u32> = netlist
            .outputs()
            .iter()
            .map(|po| intern(po, &mut net_names))
            .collect();

        // Pin names recur across the whole design (a handful per
        // library), so a linear probe beats hashing.
        let mut pin_names: Vec<String> = Vec::new();
        let mut conn_pins: Vec<Vec<u16>> = Vec::with_capacity(n);
        for inst in netlist.instances() {
            conn_pins.push(
                inst.connections
                    .iter()
                    .map(|(pin, _)| match pin_names.iter().position(|p| p == pin) {
                        Some(i) => u16::try_from(i).expect("pin name count fits u16"),
                        None => {
                            pin_names.push(pin.clone());
                            u16::try_from(pin_names.len() - 1).expect("pin name count fits u16")
                        }
                    })
                    .collect(),
            );
        }

        let mut out_net: Vec<u32> = Vec::with_capacity(n);
        let mut driver_of: Vec<u32> = vec![u32::MAX; net_names.len()];
        let mut users_of: Vec<Vec<u32>> = vec![Vec::new(); net_names.len()];
        for (idx, inst) in netlist.instances().iter().enumerate() {
            let cell = binding.cell(idx);
            let out_pin = cell
                .pins
                .iter()
                .find(|p| p.capacitance_pf == 0.0)
                .ok_or_else(|| StaError::MissingTiming {
                    instance: inst.name.clone(),
                    reason: "variant has no output pin".into(),
                })?;
            let out_conn = inst
                .connections
                .iter()
                .position(|(pin, _)| *pin == out_pin.name)
                .ok_or_else(|| StaError::MissingTiming {
                    instance: inst.name.clone(),
                    reason: "output pin unconnected".into(),
                })?;
            let out_id = conn_ids[idx][out_conn];
            out_net.push(out_id);
            driver_of[out_id as usize] = u32::try_from(idx).expect("instance count fits u32");
            for pin in &cell.pins {
                if pin.capacitance_pf <= 0.0 {
                    continue;
                }
                let conn = inst
                    .connections
                    .iter()
                    .position(|(name, _)| *name == pin.name)
                    .ok_or_else(|| StaError::MissingTiming {
                        instance: inst.name.clone(),
                        reason: format!("input pin `{}` unconnected", pin.name),
                    })?;
                users_of[conn_ids[idx][conn] as usize]
                    .push(u32::try_from(idx).expect("instance count fits u32"));
            }
        }

        Ok(Topology {
            design: netlist.name().to_string(),
            net_names,
            net_ids,
            pin_names,
            conn_ids,
            conn_pins,
            out_net,
            driver_of,
            users_of,
            po_ids,
        })
    }

    /// The pin name of one `connections` entry of one instance.
    pub(crate) fn conn_pin(&self, inst: u32, conn: u32) -> &str {
        &self.pin_names[self.conn_pins[inst as usize][conn as usize] as usize]
    }

    /// Checks that `netlist`/`binding` still have the connectivity this
    /// topology was interned from: same instance count, same `(pin,
    /// net)` connections, and each bound variant's output pin still
    /// drives the recorded net. O(connections) string *equality* — no
    /// hashing, no allocation.
    pub(crate) fn verify(
        &self,
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<(), StaError> {
        let stale = |reason: &str| StaError::InvalidBinding {
            reason: format!("incremental state is stale: {reason}"),
        };
        if netlist.instances().len() != self.conn_ids.len() {
            return Err(stale("instance count changed"));
        }
        for (idx, inst) in netlist.instances().iter().enumerate() {
            let ids = &self.conn_ids[idx];
            if inst.connections.len() != ids.len() {
                return Err(stale(&format!("connections of `{}` changed", inst.name)));
            }
            for ((_, net), &id) in inst.connections.iter().zip(ids) {
                if self.net_names[id as usize] != *net {
                    return Err(stale(&format!("connections of `{}` changed", inst.name)));
                }
            }
            let cell = binding.cell(idx);
            let out_pin = cell
                .pins
                .iter()
                .find(|p| p.capacitance_pf == 0.0)
                .ok_or_else(|| StaError::MissingTiming {
                    instance: inst.name.clone(),
                    reason: "variant has no output pin".into(),
                })?;
            let out_conn = inst
                .connections
                .iter()
                .position(|(pin, _)| *pin == out_pin.name)
                .ok_or_else(|| StaError::MissingTiming {
                    instance: inst.name.clone(),
                    reason: "output pin unconnected".into(),
                })?;
            if ids[out_conn] != self.out_net[idx] {
                return Err(stale(&format!("output pin of `{}` moved", inst.name)));
            }
        }
        Ok(())
    }
}

/// A reusable handle to the interned connectivity of one bound netlist.
///
/// Building the topology (string interning, driver/user relations) is
/// the only string-heavy step of an analysis. Callers that analyze the
/// same design repeatedly — the sign-off flow runs six corners per
/// `run()`, ECO sessions re-analyze after every edit — build it once and
/// pass it to [`analyze`](crate::analyze) through
/// [`AnalysisInputs::topology`](crate::AnalysisInputs::topology), which
/// only performs the O(connections) [`verify`](SharedTopology::verify)
/// sweep.
/// Cloning is an [`Arc`] bump.
#[derive(Debug, Clone)]
pub struct SharedTopology(pub(crate) Arc<Topology>);

impl SharedTopology {
    /// Interns the bound netlist's connectivity.
    ///
    /// # Errors
    ///
    /// [`StaError::MissingTiming`] when a bound variant has no output
    /// pin or an input/output pin is unconnected.
    pub fn build(
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<SharedTopology, StaError> {
        Ok(SharedTopology(Arc::new(Topology::build(netlist, binding)?)))
    }

    /// Checks that `netlist`/`binding` still match this topology —
    /// O(connections) string equality, no allocation.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidBinding`] when connectivity changed,
    /// [`StaError::MissingTiming`] when a variant's pin roles are
    /// inconsistent.
    pub fn verify(&self, netlist: &MappedNetlist, binding: &CellBinding) -> Result<(), StaError> {
        self.0.verify(netlist, binding)
    }
}

/// A completed analysis plus the internal products needed to advance it
/// incrementally: the interned net topology (shared with the report),
/// the canonical per-net load vector, the per-instance arc delays of the
/// backward pass (flat CSR layout), and the topological completion order.
///
/// The state also carries the [`TimingOptions`] and the wire caps it was
/// computed with, and [`analyze_incremental`] reuses them. An update
/// computed under other inputs than its prior state would mix two
/// analyses — e.g. dropping the wire caps re-seeds only the drivers of
/// capped nets and silently differs from a full re-analysis — so the
/// incremental entry point takes neither. Only caps on nets of the
/// netlist are kept (interned by id); a state built without wire caps
/// holds none.
#[derive(Debug, Clone, PartialEq)]
pub struct StaState {
    pub(crate) report: TimingReport,
    /// The options the analysis ran with.
    pub(crate) options: TimingOptions,
    /// Explicit wire caps (pF) by net id, sorted by id.
    pub(crate) wire_caps: Vec<(u32, f64)>,
    /// Net loads (pF) indexed by topology net id.
    pub(crate) loads: Vec<f64>,
    /// CSR offsets into [`Self::arc_data`]: instance `i`'s evaluated
    /// arcs live at `arc_data[arc_offsets[i]..arc_offsets[i + 1]]`.
    /// Length `instances + 1`.
    pub(crate) arc_offsets: Vec<u32>,
    /// `(input net id, arc delay)` of every evaluated arc, flat.
    pub(crate) arc_data: Vec<(u32, f64)>,
    pub(crate) completion_order: Vec<usize>,
}

impl StaState {
    /// The timing report of the analysis this state captures.
    #[must_use]
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Consumes the state, yielding just the timing report.
    #[must_use]
    pub fn into_report(self) -> TimingReport {
        self.report
    }

    /// Instance indices in the order the levelized forward pass resolved
    /// them — a topological order of the instance graph, valid for any
    /// edit that keeps connectivity (cell swaps, moves, resizes).
    #[must_use]
    pub fn completion_order(&self) -> &[usize] {
        &self.completion_order
    }
}

/// Work accounting of one incremental update, for telemetry and for
/// asserting that a small edit really did a small amount of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Directly edited instances plus drivers of load-changed nets.
    pub seed_instances: usize,
    /// Instances re-evaluated in the forward (fan-out) cone.
    pub forward_instances: usize,
    /// Nets whose required time was recomputed in the backward cone.
    pub backward_nets: usize,
}

/// Advances a completed analysis after an edit that re-bound (or
/// re-loaded) the given instances, recomputing only the forward fan-out
/// cone of arrivals and the backward fan-in cone of required times.
///
/// The update runs under the options and wire caps `prev` was computed
/// with, so the result equals a full [`analyze`](crate::analyze) of the
/// edited design with those same inputs. Per-update temporaries are
/// carved from `scratch`; reusing one arena across updates (an ECO
/// session walking many edits) avoids reallocating them.
///
/// `changed_instances` lists every instance whose bound variant changed
/// (duplicates are fine). Instances whose *loads* changed — e.g. the
/// driver of a net whose sink pin capacitances moved with a cell swap —
/// are discovered automatically by bit-diffing a fresh canonical load
/// vector against `prev`'s, so callers only report what they edited.
///
/// Connectivity must be unchanged since `prev` was computed: nets,
/// pins-to-net connections, and instance count must match (pin-name
/// compatible cell swaps, moves, and resizes all qualify). This is
/// checked — the connections are swept against the interned topology —
/// and violations return
/// [`StaError::InvalidBinding`].
///
/// # Errors
///
/// * [`StaError::InvalidBinding`] as in [`analyze`](crate::analyze),
///   plus binding-shape mismatches against `prev`,
/// * [`StaError::MissingTiming`] when a re-bound variant lacks an arc
///   for a connected input pin.
#[allow(clippy::too_many_lines)]
pub fn analyze_incremental(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    prev: &StaState,
    changed_instances: &[usize],
    scratch: &ScratchArena,
) -> Result<(StaState, IncrementalStats), StaError> {
    let _span = svt_obs::span("sta.analyze_incremental");
    let options = &prev.options;
    validate(netlist, binding, options)?;
    let n = netlist.instances().len();
    if prev.completion_order.len() != n || prev.arc_offsets.len() != n + 1 {
        return Err(StaError::InvalidBinding {
            reason: "incremental state does not match the netlist".into(),
        });
    }
    let topo = &prev.report.topo;
    topo.verify(netlist, binding)?;
    let net_count = topo.net_names.len();

    // Canonical load recompute + bit-diff: a net whose load bits moved
    // re-times its *driver* (delay/slew lookups read the output load).
    let loads = compute_loads(netlist, binding, options, &prev.wire_caps, topo);
    // `dirty` doubles as the seed-dedup set: before the DFS below it
    // holds exactly the seeds.
    let dirty: &mut [bool] = scratch.alloc_slice_fill(n, false);
    let stack: &mut [u32] = scratch.alloc_slice_fill(n, 0u32);
    let mut stack_len = 0usize;
    let mut seed_count = 0usize;
    for &idx in changed_instances {
        if idx >= n {
            return Err(StaError::InvalidBinding {
                reason: format!("changed instance index {idx} out of range"),
            });
        }
        if !dirty[idx] {
            dirty[idx] = true;
            stack[stack_len] = u32::try_from(idx).expect("instance count fits u32");
            stack_len += 1;
            seed_count += 1;
        }
    }
    for (id, cap) in loads.iter().enumerate() {
        if cap.to_bits() != prev.loads[id].to_bits() {
            let d = topo.driver_of[id];
            if d != u32::MAX && !dirty[d as usize] {
                dirty[d as usize] = true;
                stack[stack_len] = d;
                stack_len += 1;
                seed_count += 1;
            }
        }
    }

    // Forward (fan-out) cone: everything reachable from a seed.
    // Mark-on-push bounds the stack by the instance count.
    while stack_len > 0 {
        stack_len -= 1;
        let idx = stack[stack_len] as usize;
        for &u in &topo.users_of[topo.out_net[idx] as usize] {
            if !dirty[u as usize] {
                dirty[u as usize] = true;
                stack[stack_len] = u;
                stack_len += 1;
            }
        }
    }

    // Clone the previous SoA state; only cone members get overwritten,
    // so everything outside the cones stays bit-identical.
    let mut arrival = prev.report.arrival.clone();
    let mut slew = prev.report.slew.clone();
    let mut from = prev.report.from.clone();
    let mut arc_offsets = prev.arc_offsets.clone();
    let mut arc_data = prev.arc_data.clone();

    // A re-bound variant can change the number of connected input pins
    // (and therefore its arc count). When that happens the CSR layout is
    // rebuilt, copying clean instances' slices; dirty slices are written
    // by the re-evaluation below.
    let relayout = (0..n).any(|idx| {
        dirty[idx]
            && connected_input_pins(netlist, binding, idx)
                != (arc_offsets[idx + 1] - arc_offsets[idx]) as usize
    });
    if relayout {
        let mut new_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        new_offsets.push(0);
        for idx in 0..n {
            let count = if dirty[idx] {
                u32::try_from(connected_input_pins(netlist, binding, idx))
                    .expect("arc count fits u32")
            } else {
                arc_offsets[idx + 1] - arc_offsets[idx]
            };
            new_offsets.push(new_offsets[idx] + count);
        }
        let mut new_data: Vec<(u32, f64)> = vec![(u32::MAX, 0.0); new_offsets[n] as usize];
        for idx in 0..n {
            if dirty[idx] {
                continue;
            }
            let src = &arc_data[arc_offsets[idx] as usize..arc_offsets[idx + 1] as usize];
            new_data[new_offsets[idx] as usize..new_offsets[idx + 1] as usize].copy_from_slice(src);
        }
        arc_offsets = new_offsets;
        arc_data = new_data;
    }

    // Re-evaluate dirty instances in the stored topological order; every
    // non-dirty instance keeps bit-identical inputs, so its stored
    // timing is already the post-edit answer.
    let mut eval = EvalScratch::default();
    let mut forward_instances = 0usize;
    for &idx in &prev.completion_order {
        if !dirty[idx] {
            continue;
        }
        forward_instances += 1;
        let out = evaluate_instance(
            netlist,
            binding,
            idx,
            topo,
            &loads,
            &arrival,
            &slew,
            options.mode,
            &mut eval,
        )?;
        arc_data[arc_offsets[idx] as usize..arc_offsets[idx + 1] as usize]
            .copy_from_slice(&eval.arcs);
        let out_id = topo.out_net[idx] as usize;
        arrival[out_id] = out.arrival_ns;
        slew[out_id] = out.slew_ns;
        from[out_id] = out.from;
    }

    // Backward (fan-in) cone: nets whose required time can change are
    // the inputs of dirty instances, closed transitively upstream. One
    // reversed pass computes the closure: consumers of a net appear
    // before its driver in reversed topological order, so membership is
    // settled before the driver's inputs are considered.
    let mut required = prev.report.required.clone();
    let mut has_required = prev.report.has_required.clone();
    let mut backward_nets = 0usize;
    if let Some(period) = options.clock_period_ns {
        let in_cone: &mut [bool] = scratch.alloc_slice_fill(net_count, false);
        for &idx in prev.completion_order.iter().rev() {
            if dirty[idx] || in_cone[topo.out_net[idx] as usize] {
                for &(in_id, _) in
                    &arc_data[arc_offsets[idx] as usize..arc_offsets[idx + 1] as usize]
                {
                    in_cone[in_id as usize] = true;
                }
            }
        }

        // Reset cone members to their boundary condition, then replay
        // the min-merge contributions — only into the cone; everything
        // outside it keeps bit-identical contributions.
        let is_po: &mut [bool] = scratch.alloc_slice_fill(net_count, false);
        for &po in &topo.po_ids {
            is_po[po as usize] = true;
        }
        for (id, &inside) in in_cone.iter().enumerate() {
            if !inside {
                continue;
            }
            backward_nets += 1;
            if is_po[id] {
                required[id] = period;
                has_required[id] = true;
            } else {
                required[id] = 0.0;
                has_required[id] = false;
            }
        }
        for &idx in prev.completion_order.iter().rev() {
            let out_id = topo.out_net[idx] as usize;
            if !has_required[out_id] {
                continue; // net drives nothing timed
            }
            let r_out = required[out_id];
            for &(in_id, delay) in
                &arc_data[arc_offsets[idx] as usize..arc_offsets[idx + 1] as usize]
            {
                let i = in_id as usize;
                if !in_cone[i] {
                    continue;
                }
                let candidate = r_out - delay;
                if has_required[i] {
                    required[i] = required[i].min(candidate);
                } else {
                    has_required[i] = true;
                    required[i] = candidate;
                }
            }
        }
    }

    svt_obs::counter!("sta.incremental.updates").add(1);
    svt_obs::counter!("sta.incremental.forward_instances").add(forward_instances as u64);
    svt_obs::counter!("sta.incremental.backward_nets").add(backward_nets as u64);

    Ok((
        StaState {
            report: TimingReport::from_soa(
                Arc::clone(topo),
                options.mode,
                arrival,
                slew,
                from,
                required,
                has_required,
            ),
            options: *options,
            wire_caps: prev.wire_caps.clone(),
            loads,
            arc_offsets,
            arc_data,
            completion_order: prev.completion_order.clone(),
        },
        IncrementalStats {
            seed_instances: seed_count,
            forward_instances,
            backward_nets,
        },
    ))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisInputs, AnalysisMode};
    use svt_netlist::{bench, generate_benchmark, technology_map, BenchmarkProfile};
    use svt_stdcell::Library;

    fn c432() -> (MappedNetlist, Library) {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        (technology_map(&n, &lib).unwrap(), lib)
    }

    fn full_analysis(m: &MappedNetlist, b: &CellBinding, opts: &TimingOptions) -> StaState {
        analyze(m, b, opts, &AnalysisInputs::default()).unwrap()
    }

    fn assert_states_bit_identical(a: &StaState, b: &StaState) {
        assert_eq!(
            a.report.topo.net_names, b.report.topo.net_names,
            "interning order"
        );
        let nn = a.report.topo.net_names.len();
        assert_eq!(a.report.arrival.len(), nn);
        assert_eq!(b.report.arrival.len(), nn);
        for id in 0..nn {
            let net = &a.report.topo.net_names[id];
            assert_eq!(
                a.report.arrival[id].to_bits(),
                b.report.arrival[id].to_bits(),
                "arrival of `{net}`"
            );
            assert_eq!(
                a.report.slew[id].to_bits(),
                b.report.slew[id].to_bits(),
                "slew of `{net}`"
            );
            assert_eq!(
                a.report.from[id], b.report.from[id],
                "winner arc of `{net}`"
            );
        }
        assert_eq!(a.report.has_required, b.report.has_required);
        assert_eq!(a.report.required.len(), b.report.required.len());
        for id in 0..a.report.required.len() {
            if a.report.has_required[id] {
                assert_eq!(
                    a.report.required[id].to_bits(),
                    b.report.required[id].to_bits(),
                    "required of `{}`",
                    a.report.topo.net_names[id]
                );
            }
        }
        assert_eq!(a.loads.len(), b.loads.len());
        for (id, l) in a.loads.iter().enumerate() {
            assert_eq!(
                l.to_bits(),
                b.loads[id].to_bits(),
                "load of `{}`",
                a.report.topo.net_names[id]
            );
        }
        assert_eq!(a.options, b.options);
        assert_eq!(a.wire_caps, b.wire_caps);
        assert_eq!(a.arc_offsets, b.arc_offsets);
        assert_eq!(a.arc_data.len(), b.arc_data.len());
        for ((nx, dx), (ny, dy)) in a.arc_data.iter().zip(&b.arc_data) {
            assert_eq!(nx, ny);
            assert_eq!(dx.to_bits(), dy.to_bits());
        }
    }

    #[test]
    fn rebinding_one_instance_matches_full_reanalysis() {
        let (m, lib) = c432();
        let opts = TimingOptions {
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::uniform_scaled(&m, &lib, 90.0).unwrap();
        let base = full_analysis(&m, &binding, &opts);

        // Slow down one mid-design instance to the worst corner.
        let idx = m.instances().len() / 2;
        let cell_name = m.instances()[idx].cell.clone();
        let slow = CellBinding::uniform_scaled_cell(&lib, &cell_name, 99.0).unwrap();
        binding.replace(&m, idx, slow).unwrap();

        let (incr, stats) =
            analyze_incremental(&m, &binding, &base, &[idx], &ScratchArena::new()).unwrap();
        let full = full_analysis(&m, &binding, &opts);
        assert_states_bit_identical(&incr, &full);
        assert!(stats.seed_instances >= 1);
        assert!(
            stats.forward_instances < m.instances().len(),
            "a mid-design edit must not re-time the whole chip \
             ({} of {})",
            stats.forward_instances,
            m.instances().len()
        );
    }

    #[test]
    fn load_change_dirties_the_upstream_driver() {
        // z = NAND(a, y), y = NOT(x), x = NOT(a): swapping the variant
        // bound to the NAND changes its input pin caps, which loads nets
        // `a` and `y` differently — net `y`'s driver (the second
        // inverter) must be re-timed even though it was not edited.
        let lib = Library::svt90();
        let n =
            bench::parse("# skew\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NAND(a, y)\n")
                .unwrap();
        let m = technology_map(&n, &lib).unwrap();
        let opts = TimingOptions {
            clock_period_ns: Some(2.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = full_analysis(&m, &binding, &opts);

        let nand_idx = m
            .instances()
            .iter()
            .position(|i| i.cell == "NAND2X1")
            .unwrap();
        // Corner scaling keeps pin caps, so synthesize a variant with
        // heavier input pins to exercise the load-diff path.
        let mut slow = CellBinding::uniform_scaled_cell(&lib, "NAND2X1", 99.0).unwrap();
        for pin in &mut slow.pins {
            if pin.capacitance_pf > 0.0 {
                pin.capacitance_pf *= 1.25;
            }
        }
        binding.replace(&m, nand_idx, slow).unwrap();

        let (incr, stats) =
            analyze_incremental(&m, &binding, &base, &[nand_idx], &ScratchArena::new()).unwrap();
        let full = full_analysis(&m, &binding, &opts);
        assert_states_bit_identical(&incr, &full);
        assert!(
            stats.seed_instances >= 2,
            "load diff must seed the upstream driver too: {stats:?}"
        );
    }

    #[test]
    fn empty_edit_is_a_bit_identical_no_op() {
        let (m, lib) = c432();
        let opts = TimingOptions::default();
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = full_analysis(&m, &binding, &opts);
        let (incr, stats) =
            analyze_incremental(&m, &binding, &base, &[], &ScratchArena::new()).unwrap();
        assert_states_bit_identical(&incr, &base);
        assert_eq!(stats.forward_instances, 0);
    }

    #[test]
    fn scratch_reuse_across_updates_is_bit_identical() {
        // The ECO path drives many updates through one arena; warm
        // reuse must not perturb results.
        let (m, lib) = c432();
        let opts = TimingOptions {
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::uniform_scaled(&m, &lib, 90.0).unwrap();
        let base = full_analysis(&m, &binding, &opts);
        let mut scratch = ScratchArena::new();
        for idx in [3usize, 17, 101] {
            let cell_name = m.instances()[idx].cell.clone();
            let slow = CellBinding::uniform_scaled_cell(&lib, &cell_name, 99.0).unwrap();
            binding.replace(&m, idx, slow).unwrap();
            let (incr, _) = analyze_incremental(&m, &binding, &base, &[idx], &scratch).unwrap();
            let plain = analyze_incremental(&m, &binding, &base, &[idx], &ScratchArena::new())
                .unwrap()
                .0;
            assert_states_bit_identical(&incr, &plain);
            // Undo for the next round so every step edits from `base`.
            let nominal = CellBinding::uniform_scaled_cell(&lib, &cell_name, 90.0).unwrap();
            binding.replace(&m, idx, nominal).unwrap();
            scratch.reset();
        }
    }

    #[test]
    fn early_mode_cones_match_full() {
        let (m, lib) = c432();
        let opts = TimingOptions {
            mode: AnalysisMode::Early,
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = full_analysis(&m, &binding, &opts);
        let idx = 7;
        let fast =
            CellBinding::uniform_scaled_cell(&lib, &m.instances()[idx].cell.clone(), 81.0).unwrap();
        binding.replace(&m, idx, fast).unwrap();
        let (incr, _) =
            analyze_incremental(&m, &binding, &base, &[idx], &ScratchArena::new()).unwrap();
        let full = full_analysis(&m, &binding, &opts);
        assert_states_bit_identical(&incr, &full);
    }

    #[test]
    fn stale_state_is_rejected() {
        let (m, lib) = c432();
        let opts = TimingOptions::default();
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = full_analysis(&m, &binding, &opts);
        // A different netlist cannot reuse this state.
        let other = {
            let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
            technology_map(&n, &lib).unwrap()
        };
        let other_binding = CellBinding::nominal(&other, &lib).unwrap();
        assert!(
            analyze_incremental(&other, &other_binding, &base, &[], &ScratchArena::new()).is_err()
        );
        // Out-of-range seed.
        assert!(
            analyze_incremental(&m, &binding, &base, &[usize::MAX], &ScratchArena::new()).is_err()
        );
    }
}
