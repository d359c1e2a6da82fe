//! Single-stage timing: a driving cell, its interconnect RC tree, and the
//! receiving loads.
//!
//! This is the unit of computation of every Elmore-based static timing
//! analyser: the driver's switch resistance is prepended to the extracted
//! interconnect tree, every sink node is loaded with the input capacitance
//! of the gate it drives, and the Penfield–Rubinstein machinery then yields
//! the Elmore delay plus guaranteed lower/upper delay bounds per sink.

use rctree_core::algebra::SymbolicTimes;
use rctree_core::batch::{BatchTimes, SymbolicScratch};
use rctree_core::bounds::{symbolic_delay_bounds, DelayBounds, SymbolicDelayBounds};
use rctree_core::builder::RcTreeBuilder;
use rctree_core::corner::CornerSet;
use rctree_core::element::Branch;
use rctree_core::moments::CharacteristicTimes;
use rctree_core::tree::{NodeId, RcTree};
use rctree_core::units::{Farads, Ohms, Seconds};

use crate::error::Result;

/// Name given to the driver's output node in the augmented stage tree.
pub const DRIVER_OUTPUT_NODE: &str = "__driver_out";

/// Timing of one sink of a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkTiming {
    /// The sink node in the *original* interconnect tree.
    pub node: NodeId,
    /// Node name in the original tree.
    pub name: String,
    /// Characteristic times of this sink in the augmented (driver + loads)
    /// tree.
    pub times: CharacteristicTimes,
    /// Elmore delay (`T_De`) of this sink.
    pub elmore: Seconds,
    /// Penfield–Rubinstein delay bounds at the analysis threshold.
    pub bounds: DelayBounds,
}

/// Timing of a complete stage (driver + interconnect + loads).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// The analysis threshold (fraction of the final swing).
    pub threshold: f64,
    /// Per-sink results, in the order the sinks were supplied.
    pub sinks: Vec<SinkTiming>,
}

impl StageTiming {
    /// The sink with the largest delay upper bound.
    pub fn critical_sink(&self) -> Option<&SinkTiming> {
        self.sinks
            .iter()
            .max_by(|a, b| a.bounds.upper.value().total_cmp(&b.bounds.upper.value()))
    }

    /// Looks up the timing of a specific sink node (of the original tree).
    pub fn sink(&self, node: NodeId) -> Option<&SinkTiming> {
        self.sinks.iter().find(|s| s.node == node)
    }
}

/// Computes the timing of one stage.
///
/// `driver_resistance` is the effective switch resistance of the driving
/// cell; `interconnect` is the extracted RC tree whose input node is the
/// driver's output pin; `sink_loads` lists `(sink node, added load
/// capacitance)` pairs — typically the input capacitances of the driven
/// gates; `threshold` is the switching threshold as a fraction of the swing.
///
/// All sinks of the stage are evaluated from one
/// [`BatchTimes`] sweep of the augmented tree, so a net with `m` fan-outs
/// costs `O(n + m)` instead of `m` full traversals.
///
/// # Errors
///
/// Propagates node-lookup and threshold-validation errors from the core
/// crate.
pub fn analyze_stage(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    threshold: f64,
) -> Result<StageTiming> {
    // A sink-less net has nothing to time; skip the sweep so that e.g. a
    // capacitance-free placeholder interconnect stays analysable.
    if sink_loads.is_empty() {
        return Ok(StageTiming {
            threshold,
            sinks: Vec::new(),
        });
    }
    let (augmented, node_map) = prepend_driver(driver_resistance, interconnect, sink_loads)?;
    let batch = BatchTimes::of(&augmented)?;

    let mut sinks = Vec::with_capacity(sink_loads.len());
    for &(node, _) in sink_loads {
        let mapped = node_map[node.index()];
        let times = batch.times(mapped)?;
        let bounds = times.delay_bounds(threshold)?;
        sinks.push(SinkTiming {
            node,
            name: interconnect.name(node)?.to_string(),
            elmore: times.elmore_delay(),
            times,
            bounds,
        });
    }
    Ok(StageTiming { threshold, sinks })
}

/// Name given to the augmented stage tree's input node.
pub const STAGE_INPUT_NODE: &str = "__stage_input";

/// Per-sink Penfield–Rubinstein delay bounds of one stage, computed by a
/// **flat pre-order sweep** over the augmented tree's arrays instead of
/// constructing the augmented tree through the builder.
///
/// This is the nominal reading of `augmented_batch`, the kernel behind
/// [`crate::Design`]'s per-net evaluation and the incremental ECO path: the
/// driver resistor and the sink load capacitances are spliced around the
/// interconnect as plain array entries (`O(n)` with no hashing and no
/// per-node allocation), and the sweep runs through
/// [`BatchTimes::of_preorder`].  The result is **bit-identical** to
/// [`analyze_stage`] — `prepend_driver` inserts the augmented nodes in
/// pre-order, so both paths accumulate the same floats in the same order —
/// which `flat_stage_is_bit_identical_to_the_builder_stage` pins.
///
/// Returns one [`DelayBounds`] per entry of `sink_loads`, in order.
///
/// # Errors
///
/// As for [`analyze_stage`], including
/// [`rctree_core::CoreError::DuplicateName`] when the interconnect already
/// uses one of the reserved augmented-node names (the builder path fails
/// the same way).
pub fn stage_delay_bounds(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    threshold: f64,
) -> Result<Vec<DelayBounds>> {
    if sink_loads.is_empty() {
        return Ok(Vec::new());
    }
    let (batch, pos) = augmented_batch(
        driver_resistance,
        interconnect,
        sink_loads,
        StageScales::NOMINAL,
    )?;
    let mut bounds = Vec::with_capacity(sink_loads.len());
    for &(node, _) in sink_loads {
        let times = batch.times_at(pos[node.index()] as usize)?;
        bounds.push(times.delay_bounds(threshold)?);
    }
    Ok(bounds)
}

/// The **symbolic sibling** of [`stage_delay_bounds`]: per-sink delay
/// bounds as polynomials in the uniform `(r, c)` scale factors, from one
/// [`SymbolicScratch`] sweep of the same augmented arrays the scalar path
/// splices.
///
/// The arrays carry the nominal element values; the `Poly2` algebra's
/// injectors attach the symbolic scale to each element, so the driver
/// resistance rides the `r` axis and the sink loads ride the `c` axis —
/// exactly the quantities a corner's `r_scale`/`c_scale` multiply.  For any
/// `r, c > 0`, `result[k].eval(r, c)` agrees with the scalar sweep of
/// `augmented_batch` at uniform `StageScales`
/// `{wire_r: r, wire_c: c, driver_r: r, load_c: c}` (to rounding), and
/// `eval(1, 1)` reproduces [`stage_delay_bounds`] **bit-for-bit** (the
/// shared generic kernel applies the identical scalar operations cellwise).
///
/// Returns one [`SymbolicDelayBounds`] per entry of `sink_loads`, in order.
///
/// # Errors
///
/// As for [`stage_delay_bounds`].
pub fn stage_symbolic_bounds(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    threshold: f64,
) -> Result<Vec<SymbolicDelayBounds>> {
    if sink_loads.is_empty() {
        return Ok(Vec::new());
    }
    let stage = Spliced::new(
        driver_resistance,
        interconnect,
        sink_loads,
        StageScales::NOMINAL,
    )?;
    let mut scratch = SymbolicScratch::new();
    let view = scratch.sweep(
        &stage.parent,
        &stage.values.branch_r,
        &stage.values.branch_c,
        &stage.values.node_cap,
    )?;
    let mut bounds = Vec::with_capacity(sink_loads.len());
    for &(node, _) in sink_loads {
        let times = view.times_at(stage.pos[node.index()] as usize)?;
        bounds.push(symbolic_delay_bounds(&times, threshold)?);
    }
    Ok(bounds)
}

/// Symbolic characteristic times at an arbitrary node of a stage's
/// interconnect — the symbolic sibling of [`stage_node_times`], behind
/// per-node sensitivity queries (`QUERY <net> <node> --sens` in
/// `rctree-serve`).
///
/// Like [`stage_node_times`], an empty `sink_loads` slice still runs the
/// sweep.
///
/// # Errors
///
/// As for [`stage_node_times`].
pub fn stage_node_symbolic_times(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    node: NodeId,
) -> Result<SymbolicTimes> {
    // Validate the queried node against the tree before indexing `pos`.
    let _ = interconnect.name(node)?;
    let stage = Spliced::new(
        driver_resistance,
        interconnect,
        sink_loads,
        StageScales::NOMINAL,
    )?;
    let mut scratch = SymbolicScratch::new();
    let view = scratch.sweep(
        &stage.parent,
        &stage.values.branch_r,
        &stage.values.branch_c,
        &stage.values.node_cap,
    )?;
    Ok(view.times_at(stage.pos[node.index()] as usize)?)
}

/// The materialized symbolic sweep of a whole stage: the per-augmented-node
/// [`SymbolicTimes`] table plus the raw-node → augmented-position map.
/// [`crate::graph::NetTiming`] caches this per snapshot view so repeated
/// node-level symbolic queries (`QUERY … --sens`) are `O(1)` lookups after
/// the first — the per-net coefficient table the snapshots carry.
///
/// # Errors
///
/// As for [`stage_node_symbolic_times`].
pub(crate) fn stage_symbolic_sweep(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
) -> Result<(Vec<SymbolicTimes>, Vec<u32>)> {
    let stage = Spliced::new(
        driver_resistance,
        interconnect,
        sink_loads,
        StageScales::NOMINAL,
    )?;
    let mut scratch = SymbolicScratch::new();
    let view = scratch.sweep(
        &stage.parent,
        &stage.values.branch_r,
        &stage.values.branch_c,
        &stage.values.node_cap,
    )?;
    let mut times = Vec::with_capacity(view.node_count());
    for i in 0..view.node_count() {
        times.push(view.times_at(i)?);
    }
    Ok((times, stage.pos))
}

/// Characteristic times at an arbitrary node of a stage's interconnect,
/// evaluated on the same augmented tree (driver resistance + sink loads)
/// as [`stage_delay_bounds`] — the kernel behind per-node snapshot queries
/// (`QUERY <net> <node>` in `rctree-serve`).
///
/// Unlike [`stage_delay_bounds`], an empty `sink_loads` slice still runs
/// the sweep: a sink-less net's nodes remain queryable.
///
/// # Errors
///
/// As for [`stage_delay_bounds`], plus node-lookup errors when `node` is
/// not part of `interconnect`.
pub fn stage_node_times(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    node: NodeId,
) -> Result<CharacteristicTimes> {
    // Validate the queried node against the tree before indexing `pos`.
    let _ = interconnect.name(node)?;
    let (batch, pos) = augmented_batch(
        driver_resistance,
        interconnect,
        sink_loads,
        StageScales::NOMINAL,
    )?;
    Ok(batch.times_at(pos[node.index()] as usize)?)
}

/// Per-corner multiplicative scale factors applied when a stage is
/// evaluated at a PVT corner — one [`StageScales`] per corner lane, the
/// nominal lane's being [`StageScales::NOMINAL`].
///
/// Every element is scaled **individually before** any accumulation — the
/// corner value of each array entry is a single rounding `x * s`, taken at
/// splice time by [`augmented_arrays`].  Scaling after summation
/// (`(a + b) * s`) would round differently from a materialized scaled
/// design and break the lane-equivalence bit-identity gates.
///
/// `wire_r`/`wire_c` apply to the interconnect's branch resistances and
/// (branch + node) capacitances and may carry a per-net override;
/// `driver_r` and `load_c` are the corner's global `r_scale`/`c_scale`
/// applied to the driving cell's resistance and the sink cells' input
/// capacitances (cell parameters are not overridable per net).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageScales {
    /// Scale on interconnect branch resistances.
    pub wire_r: f64,
    /// Scale on interconnect branch and node capacitances.
    pub wire_c: f64,
    /// Scale on the driving cell's output resistance.
    pub driver_r: f64,
    /// Scale on sink cells' input (load) capacitances.
    pub load_c: f64,
}

impl StageScales {
    /// The identity scaling: multiplying any finite `x` by `1.0` returns
    /// `x` bit-for-bit, so the nominal lane runs the exact float sequence
    /// of an unscaled splice.
    pub const NOMINAL: StageScales = StageScales {
        wire_r: 1.0,
        wire_c: 1.0,
        driver_r: 1.0,
        load_c: 1.0,
    };

    /// The scales of the net named `net` at corner `k` of `set`: wire
    /// scales honour the set's per-net override, cell-side scales are
    /// always the corner's global `r_scale`/`c_scale`.  Corner 0 yields
    /// [`StageScales::NOMINAL`] (the nominal corner has unit scales and
    /// cannot be overridden).
    pub fn at(set: &CornerSet, net: &str, k: usize) -> StageScales {
        let corner = set.corner(k);
        let (wire_r, wire_c) = set.wire_scales(net, k);
        StageScales {
            wire_r,
            wire_c,
            driver_r: corner.r_scale,
            load_c: corner.c_scale,
        }
    }
}

/// The one scaled stage sweep: splices the stage at `scales` (driver
/// resistor above the interconnect, sink loads added) and runs the batched
/// pre-order sweep, returning the [`BatchTimes`] plus the raw-node →
/// augmented-pre-order-position map.  [`stage_delay_bounds`] and
/// [`stage_node_times`] read it at [`StageScales::NOMINAL`]; ECO re-timing
/// and snapshot node queries read it once per corner lane.  Because the
/// splice is the arena's, the result is bit-identical to the arena's sweep
/// of the same lane.
pub(crate) fn augmented_batch(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    scales: StageScales,
) -> Result<(BatchTimes, Vec<u32>)> {
    let stage = Spliced::new(driver_resistance, interconnect, sink_loads, scales)?;
    let batch = BatchTimes::of_preorder(
        &stage.parent,
        &stage.values.branch_r,
        &stage.values.branch_c,
        &stage.values.node_cap,
    )?;
    Ok((batch, stage.pos))
}

/// One lane of spliced element values, in augmented pre-order: the branch
/// resistance and distributed capacitance feeding each node and its
/// lumped capacitance (interconnect plus spliced sink loads).
#[derive(Debug)]
pub(crate) struct LaneValues {
    pub branch_r: Vec<f64>,
    pub branch_c: Vec<f64>,
    pub node_cap: Vec<f64>,
}

impl LaneValues {
    /// Empty columns with room for `n` entries each.
    pub fn with_capacity(n: usize) -> LaneValues {
        LaneValues {
            branch_r: Vec::with_capacity(n),
            branch_c: Vec::with_capacity(n),
            node_cap: Vec::with_capacity(n),
        }
    }

    /// Number of entries per column.
    pub fn len(&self) -> usize {
        self.node_cap.len()
    }

    /// Truncates (or zero-pads) every column to `len` entries.
    pub fn resize(&mut self, len: usize) {
        self.branch_r.resize(len, 0.0);
        self.branch_c.resize(len, 0.0);
        self.node_cap.resize(len, 0.0);
    }
}

/// One whole stage spliced into fresh arrays, for one-shot sweeps.
struct Spliced {
    parent: Vec<u32>,
    values: LaneValues,
    pos: Vec<u32>,
}

impl Spliced {
    fn new(
        driver_resistance: Ohms,
        interconnect: &RcTree,
        sink_loads: &[(NodeId, Farads)],
        scales: StageScales,
    ) -> Result<Spliced> {
        let n_aug = interconnect.node_count() + 1;
        let mut stage = Spliced {
            parent: Vec::with_capacity(n_aug),
            values: LaneValues::with_capacity(n_aug),
            pos: Vec::new(),
        };
        augmented_arrays(
            driver_resistance,
            interconnect,
            sink_loads,
            scales,
            &mut stage.parent,
            &mut stage.values,
            &mut stage.pos,
        )?;
        Ok(stage)
    }
}

/// The one splice: appends one corner lane of one stage to caller-owned
/// columns.  Pushes the augmented pre-order parent of every node to
/// `parent` and its element values to `values`, each multiplied by its
/// [`StageScales`] factor as it is spliced (one rounding per element), and
/// leaves each raw node's augmented position — local to the appended
/// range, as are the parents — in `pos`.  Reusing the caller's buffers lets
/// the arena build splice every lane of every net without allocating per
/// net.
///
/// The splice and validation order is the builder path's
/// ([`prepend_driver`]): driver check, pre-order walk with reserved-name
/// checks, then per-sink node and load checks, each on the **scaled**
/// value.  On error the columns hold a partial append, which the caller
/// discards.
pub(crate) fn augmented_arrays(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    scales: StageScales,
    parent: &mut Vec<u32>,
    values: &mut LaneValues,
    pos: &mut Vec<u32>,
) -> Result<()> {
    // The builder path validates the spliced-in values through
    // `RcTreeBuilder`'s finite/non-negative checks; reject the same inputs
    // with the same error (the interconnect's own values were validated at
    // its construction).
    let check = |what: &'static str, value: f64| -> Result<()> {
        if !value.is_finite() || value < 0.0 {
            Err(rctree_core::CoreError::InvalidValue { what, value }.into())
        } else {
            Ok(())
        }
    };
    let driver_r = driver_resistance.value() * scales.driver_r;
    check("resistance", driver_r)?;
    let base = values.len();
    // Raw node id -> augmented pre-order position, local to this stage.
    pos.clear();
    pos.resize(interconnect.node_count(), 0);

    // Augmented node 0: the stage input (no element, no capacitance), and
    // node 1: the driver's output, carrying the driver resistance and the
    // interconnect input's lumped capacitance.
    parent.push(0);
    values.branch_r.push(0.0);
    values.branch_c.push(0.0);
    values.node_cap.push(0.0);
    parent.push(0);
    values.branch_r.push(driver_r);
    values.branch_c.push(0.0);
    values
        .node_cap
        .push(interconnect.capacitance(interconnect.input())?.value() * scales.wire_c);
    pos[interconnect.input().index()] = 1;

    for id in interconnect.preorder() {
        if id == interconnect.input() {
            // The raw input's name is dropped by the augmentation (the node
            // is merged into the driver output), so it cannot collide.
            continue;
        }
        let name = interconnect.name(id)?;
        if name == DRIVER_OUTPUT_NODE || name == STAGE_INPUT_NODE {
            // The builder path would collide on the reserved names; fail
            // identically so both evaluations agree on such inputs.
            return Err(rctree_core::CoreError::DuplicateName {
                name: name.to_string(),
            }
            .into());
        }
        let p = interconnect.parent(id)?.expect("non-input node");
        let branch = interconnect.branch(id)?.expect("non-input node");
        pos[id.index()] = (values.len() - base) as u32;
        parent.push(pos[p.index()]);
        values
            .branch_r
            .push(branch.resistance().value() * scales.wire_r);
        values
            .branch_c
            .push(branch.capacitance().value() * scales.wire_c);
        values
            .node_cap
            .push(interconnect.capacitance(id)?.value() * scales.wire_c);
    }

    for &(node, load) in sink_loads {
        // Validates the node and the load value, exactly like (and in the
        // same order as) the builder path's load loop.
        let _ = interconnect.name(node)?;
        let load_c = load.value() * scales.load_c;
        check("capacitance", load_c)?;
        values.node_cap[base + pos[node.index()] as usize] += load_c;
    }
    Ok(())
}

/// Builds the augmented stage tree: a new input, a lumped resistor equal to
/// the driver resistance, and a copy of the interconnect tree hanging off
/// it, with the extra sink load capacitances added.  Returns the augmented
/// tree and the mapping from original node ids to augmented node ids.
///
/// # Errors
///
/// Propagates construction errors (they indicate inconsistent inputs such as
/// a sink node that is not part of `interconnect`).
pub fn prepend_driver(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
) -> Result<(RcTree, Vec<NodeId>)> {
    let mut b = RcTreeBuilder::with_input_name(STAGE_INPUT_NODE);
    let mut map = vec![NodeId::INPUT; interconnect.node_count()];

    // The interconnect's input node becomes the driver's output node.
    let drv_out = b.add_resistor(b.input(), DRIVER_OUTPUT_NODE, driver_resistance)?;
    map[interconnect.input().index()] = drv_out;
    b.add_capacitance(drv_out, interconnect.capacitance(interconnect.input())?)?;

    for id in interconnect.preorder() {
        if id == interconnect.input() {
            continue;
        }
        let parent = interconnect.parent(id)?.expect("non-input node");
        let new_parent = map[parent.index()];
        let name = interconnect.name(id)?;
        let new_id = match interconnect.branch(id)?.expect("non-input node") {
            Branch::Resistor { resistance } => b.add_resistor(new_parent, name, resistance)?,
            Branch::Line {
                resistance,
                capacitance,
            } => b.add_line(new_parent, name, resistance, capacitance)?,
        };
        b.add_capacitance(new_id, interconnect.capacitance(id)?)?;
        if interconnect.is_output(id)? {
            b.mark_output(new_id)?;
        }
        map[id.index()] = new_id;
    }

    for &(node, load) in sink_loads {
        // Validates that the node belongs to the interconnect tree.
        let _ = interconnect.name(node)?;
        let mapped = map[node.index()];
        b.add_capacitance(mapped, load)?;
        b.mark_output(mapped)?;
    }

    Ok((b.build()?, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::moments::characteristic_times;
    use rctree_workloads::fig7::figure7_tree;

    fn simple_interconnect() -> (RcTree, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let stem = b
            .add_line(
                b.input(),
                "stem",
                Ohms::new(100.0),
                Farads::from_femto(20.0),
            )
            .unwrap();
        let near = b.add_resistor(stem, "near", Ohms::new(10.0)).unwrap();
        let far = b
            .add_line(stem, "far", Ohms::new(300.0), Farads::from_femto(60.0))
            .unwrap();
        let tree = b.build().unwrap();
        (tree, near, far)
    }

    #[test]
    fn stage_reports_every_sink() {
        let (net, near, far) = simple_interconnect();
        let loads = vec![
            (near, Farads::from_femto(13.0)),
            (far, Farads::from_femto(13.0)),
        ];
        let timing = analyze_stage(Ohms::new(1000.0), &net, &loads, 0.5).unwrap();
        assert_eq!(timing.sinks.len(), 2);
        assert_eq!(timing.threshold, 0.5);
        assert!(timing.sink(near).is_some());
        assert!(timing.sink(far).is_some());
        for s in &timing.sinks {
            assert!(s.bounds.lower <= s.bounds.upper);
            // At the 50% threshold the Elmore delay is never below the lower
            // bound (it can exceed the upper bound, since Elmore is itself an
            // upper bound on the 50% delay).
            assert!(s.elmore >= s.bounds.lower);
            assert!(s.elmore.value() > 0.0);
        }
    }

    #[test]
    fn far_sink_is_critical() {
        let (net, near, far) = simple_interconnect();
        let loads = vec![
            (near, Farads::from_femto(13.0)),
            (far, Farads::from_femto(13.0)),
        ];
        let timing = analyze_stage(Ohms::new(1000.0), &net, &loads, 0.5).unwrap();
        assert_eq!(timing.critical_sink().unwrap().node, far);
    }

    #[test]
    fn stronger_driver_gives_smaller_delay() {
        let (net, _, far) = simple_interconnect();
        let loads = vec![(far, Farads::from_femto(13.0))];
        let weak = analyze_stage(Ohms::new(10_000.0), &net, &loads, 0.5).unwrap();
        let strong = analyze_stage(Ohms::new(500.0), &net, &loads, 0.5).unwrap();
        assert!(strong.sinks[0].bounds.upper < weak.sinks[0].bounds.upper);
        assert!(strong.sinks[0].elmore < weak.sinks[0].elmore);
    }

    #[test]
    fn driver_dominated_stage_has_tight_bounds() {
        // The paper: bounds are "very tight in the case where most of the
        // resistance is in the pullup".
        let (net, _, far) = simple_interconnect();
        let loads = vec![(far, Farads::from_femto(13.0))];
        let wire_dominated = analyze_stage(Ohms::new(10.0), &net, &loads, 0.5).unwrap();
        let driver_dominated = analyze_stage(Ohms::new(100_000.0), &net, &loads, 0.5).unwrap();
        assert!(
            driver_dominated.sinks[0].bounds.relative_uncertainty()
                < wire_dominated.sinks[0].bounds.relative_uncertainty()
        );
    }

    #[test]
    fn added_load_increases_delay() {
        let (net, _, far) = simple_interconnect();
        let light = analyze_stage(
            Ohms::new(1000.0),
            &net,
            &[(far, Farads::from_femto(5.0))],
            0.5,
        )
        .unwrap();
        let heavy = analyze_stage(
            Ohms::new(1000.0),
            &net,
            &[(far, Farads::from_femto(100.0))],
            0.5,
        )
        .unwrap();
        assert!(heavy.sinks[0].elmore > light.sinks[0].elmore);
    }

    #[test]
    fn augmented_tree_preserves_figure7_timing_when_driver_is_zero() {
        // Prepending a 0 Ω driver and adding no load must not change the
        // characteristic times of the Figure 7 output.
        let (tree, out) = figure7_tree();
        let timing = analyze_stage(Ohms::ZERO, &tree, &[(out, Farads::ZERO)], 0.5).unwrap();
        let reference = characteristic_times(&tree, out).unwrap();
        let s = &timing.sinks[0];
        assert!((s.times.t_p.value() - reference.t_p.value()).abs() < 1e-9);
        assert!((s.times.t_d.value() - reference.t_d.value()).abs() < 1e-9);
        assert!((s.times.t_r.value() - reference.t_r.value()).abs() < 1e-9);
    }

    #[test]
    fn sinkless_capacitance_free_net_yields_empty_timing() {
        // A placeholder net with no sinks and a resistor-only interconnect
        // must produce an empty report, not a NoCapacitance error.
        let mut b = RcTreeBuilder::new();
        b.add_resistor(b.input(), "stub", Ohms::new(10.0)).unwrap();
        let net = b.build().unwrap();
        let timing = analyze_stage(Ohms::new(1000.0), &net, &[], 0.5).unwrap();
        assert!(timing.sinks.is_empty());
        assert!(timing.critical_sink().is_none());
    }

    #[test]
    fn flat_stage_is_bit_identical_to_the_builder_stage() {
        // Exhaustive bit-exact comparison (not a tolerance) across driver
        // strengths, thresholds and load mixes, including a sink on the
        // interconnect's input node and doubled-up loads on one node.
        let (net, near, far) = simple_interconnect();
        let load_sets: Vec<Vec<(NodeId, Farads)>> = vec![
            vec![(near, Farads::from_femto(13.0))],
            vec![
                (near, Farads::from_femto(13.0)),
                (far, Farads::from_femto(52.0)),
            ],
            vec![
                (net.input(), Farads::from_femto(104.0)),
                (far, Farads::ZERO),
                (far, Farads::from_femto(7.0)),
            ],
        ];
        for driver in [Ohms::ZERO, Ohms::new(380.0), Ohms::new(10_000.0)] {
            for threshold in [0.1, 0.5, 0.9] {
                for loads in &load_sets {
                    let built = analyze_stage(driver, &net, loads, threshold).unwrap();
                    let flat = stage_delay_bounds(driver, &net, loads, threshold).unwrap();
                    assert_eq!(flat.len(), built.sinks.len());
                    for (f, s) in flat.iter().zip(built.sinks.iter()) {
                        assert_eq!(f, &s.bounds, "driver {driver}, threshold {threshold}");
                    }
                }
            }
        }

        // Seeded random trees from the workloads crate, every node loaded.
        for seed in [3u64, 17, 91] {
            let tree = rctree_workloads::RandomTreeConfig::default().generate(seed);
            let loads: Vec<(NodeId, Farads)> = tree
                .node_ids()
                .map(|id| (id, Farads::from_femto(1.0 + id.index() as f64)))
                .collect();
            let built = analyze_stage(Ohms::new(1000.0), &tree, &loads, 0.5).unwrap();
            let flat = stage_delay_bounds(Ohms::new(1000.0), &tree, &loads, 0.5).unwrap();
            for (f, s) in flat.iter().zip(built.sinks.iter()) {
                assert_eq!(f, &s.bounds, "seed {seed}");
            }
        }
    }

    #[test]
    fn flat_stage_matches_builder_errors() {
        // Reserved augmented-node names fail identically on both paths.
        let mut b = RcTreeBuilder::new();
        let clash = b
            .add_resistor(b.input(), DRIVER_OUTPUT_NODE, Ohms::new(5.0))
            .unwrap();
        b.add_capacitance(clash, Farads::from_femto(3.0)).unwrap();
        let tree = b.build().unwrap();
        let loads = vec![(clash, Farads::from_femto(1.0))];
        let built = analyze_stage(Ohms::new(100.0), &tree, &loads, 0.5).unwrap_err();
        let flat = stage_delay_bounds(Ohms::new(100.0), &tree, &loads, 0.5).unwrap_err();
        assert_eq!(format!("{built}"), format!("{flat}"));

        // An empty sink list short-circuits to no bounds, like the builder
        // path's sink-less early return.
        let (net, _, _) = simple_interconnect();
        assert!(stage_delay_bounds(Ohms::new(100.0), &net, &[], 0.5)
            .unwrap()
            .is_empty());

        // Non-finite / negative spliced-in values fail with the builder's
        // `InvalidValue` on both paths (the builder validates them in
        // `add_resistor` / `add_capacitance`).
        let (net, near, _) = simple_interconnect();
        for (driver, load) in [
            (Ohms::new(f64::NAN), Farads::from_femto(1.0)),
            (Ohms::new(-5.0), Farads::from_femto(1.0)),
            (Ohms::new(100.0), Farads::new(f64::INFINITY)),
            (Ohms::new(100.0), Farads::new(-1e-15)),
        ] {
            let loads = vec![(near, load)];
            let built = analyze_stage(driver, &net, &loads, 0.5).unwrap_err();
            let flat = stage_delay_bounds(driver, &net, &loads, 0.5).unwrap_err();
            assert_eq!(format!("{built}"), format!("{flat}"));
        }
    }

    #[test]
    fn sink_on_the_driver_output_node_is_allowed() {
        // Loading the interconnect's input node directly (a gate right at
        // the driver) is legal and yields a purely driver-limited delay.
        let (net, _, _) = simple_interconnect();
        let timing = analyze_stage(
            Ohms::new(1000.0),
            &net,
            &[(net.input(), Farads::from_femto(13.0))],
            0.5,
        )
        .unwrap();
        assert_eq!(timing.sinks.len(), 1);
        assert!(timing.sinks[0].bounds.upper.value() > 0.0);
    }

    #[test]
    fn symbolic_stage_at_nominal_is_bit_identical_to_the_scalar_stage() {
        let (net, near, far) = simple_interconnect();
        let loads = vec![
            (near, Farads::from_femto(13.0)),
            (far, Farads::from_femto(29.0)),
        ];
        for threshold in [0.1, 0.5, 0.9] {
            for driver in [Ohms::new(42.0), Ohms::new(1000.0), Ohms::new(50_000.0)] {
                let scalar = stage_delay_bounds(driver, &net, &loads, threshold).unwrap();
                let symbolic = stage_symbolic_bounds(driver, &net, &loads, threshold).unwrap();
                assert_eq!(scalar.len(), symbolic.len());
                for (s, p) in scalar.iter().zip(&symbolic) {
                    let at_nominal = p.eval(1.0, 1.0);
                    assert_eq!(s.lower, at_nominal.lower);
                    assert_eq!(s.upper, at_nominal.upper);
                }
            }
        }
    }

    #[test]
    fn symbolic_stage_evaluates_to_the_scaled_scalar_stage() {
        // Evaluating the polynomials at (r, c) must reproduce the
        // materialized uniform-corner analysis at those scales.
        let (net, near, far) = simple_interconnect();
        let loads = vec![
            (near, Farads::from_femto(13.0)),
            (far, Farads::from_femto(29.0)),
        ];
        for (r, c) in [(0.8, 0.9), (1.3, 1.2), (2.5, 0.4), (1.0, 3.0)] {
            let scales = StageScales {
                wire_r: r,
                wire_c: c,
                driver_r: r,
                load_c: c,
            };
            let (batch, pos) = augmented_batch(Ohms::new(1000.0), &net, &loads, scales).unwrap();
            let scaled: Vec<DelayBounds> = loads
                .iter()
                .map(|&(node, _)| {
                    let times = batch.times_at(pos[node.index()] as usize).unwrap();
                    times.delay_bounds(0.5).unwrap()
                })
                .collect();
            let symbolic = stage_symbolic_bounds(Ohms::new(1000.0), &net, &loads, 0.5).unwrap();
            for (s, p) in scaled.iter().zip(&symbolic) {
                let at = p.eval(r, c);
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
                assert!(
                    rel(at.lower.value(), s.lower.value()) < 1e-9,
                    "lower at r={r} c={c}: {} vs {}",
                    at.lower.value(),
                    s.lower.value()
                );
                assert!(
                    rel(at.upper.value(), s.upper.value()) < 1e-9,
                    "upper at r={r} c={c}: {} vs {}",
                    at.upper.value(),
                    s.upper.value()
                );
            }
        }
    }

    #[test]
    fn symbolic_node_times_match_scalar_node_times_at_nominal() {
        let (net, near, far) = simple_interconnect();
        let loads = vec![(far, Farads::from_femto(13.0))];
        for node in [near, far, net.input()] {
            let scalar = stage_node_times(Ohms::new(700.0), &net, &loads, node).unwrap();
            let symbolic = stage_node_symbolic_times(Ohms::new(700.0), &net, &loads, node).unwrap();
            assert_eq!(symbolic.t_p.eval(1.0, 1.0), scalar.t_p.value());
            assert_eq!(symbolic.t_d.eval(1.0, 1.0), scalar.t_d.value());
            assert_eq!(symbolic.t_r.eval(1.0, 1.0), scalar.t_r.value());
        }
    }

    #[test]
    fn symbolic_stage_propagates_the_scalar_path_errors() {
        let (net, near, _) = simple_interconnect();
        let loads = vec![(near, Farads::new(-1e-15))];
        let scalar = stage_delay_bounds(Ohms::new(100.0), &net, &loads, 0.5).unwrap_err();
        let symbolic = stage_symbolic_bounds(Ohms::new(100.0), &net, &loads, 0.5).unwrap_err();
        assert_eq!(format!("{scalar}"), format!("{symbolic}"));
        assert!(stage_symbolic_bounds(Ohms::new(100.0), &net, &[], 0.5)
            .unwrap()
            .is_empty());
    }
}
