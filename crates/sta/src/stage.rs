//! Single-stage timing: a driving cell, its interconnect RC tree, and the
//! receiving loads.
//!
//! This is the unit of computation of every Elmore-based static timing
//! analyser: the driver's switch resistance is prepended to the extracted
//! interconnect tree, every sink node is loaded with the input capacitance
//! of the gate it drives, and the Penfield–Rubinstein machinery then yields
//! the Elmore delay plus guaranteed lower/upper delay bounds per sink.

use rctree_core::algebra::{DelayValue, SymbolicTimes};
use rctree_core::batch::{BatchScratch, BatchTimes, Scratch, SymbolicScratch, View};
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
/// This is the nominal lane of `lane_bounds`, the one stage sweep behind
/// [`crate::Design`]'s batch analysis, ECO warm-up and dirty-net re-time,
/// run through a fresh scratch: the driver resistor and the sink load
/// capacitances are spliced around the interconnect as plain array entries
/// (`O(n)` with no hashing and no per-node allocation), and the sweep runs
/// through [`BatchScratch::sweep`], the kernel of
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
    let mut out = [Vec::with_capacity(sink_loads.len())];
    lane_bounds(
        driver_resistance,
        interconnect,
        sink_loads,
        [StageScales::NOMINAL],
        threshold,
        &mut StageScratch::default(),
        &mut out,
    )?;
    let [bounds] = out;
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
    let view = stage.sweep(&mut scratch)?;
    let mut bounds = Vec::with_capacity(sink_loads.len());
    for &(node, _) in sink_loads {
        let times = view.times_at(stage.pos[node.index()] as usize)?;
        bounds.push(symbolic_delay_bounds(&times, threshold)?);
    }
    Ok(bounds)
}

/// The materialized symbolic sweep of a whole stage: the per-augmented-node
/// [`SymbolicTimes`] table plus the raw-node → augmented-position map.
/// [`crate::graph::NetTiming`] caches this per snapshot view so repeated
/// node-level symbolic queries (`QUERY … --sens`) are `O(1)` lookups after
/// the first — the per-net coefficient table the snapshots carry.
///
/// Unlike [`stage_delay_bounds`], an empty `sink_loads` slice still runs
/// the sweep: a sink-less net's nodes remain queryable.
///
/// # Errors
///
/// As for [`stage_delay_bounds`].
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
    let view = stage.sweep(&mut scratch)?;
    let mut times = Vec::with_capacity(view.node_count());
    for i in 0..view.node_count() {
        times.push(view.times_at(i)?);
    }
    Ok((times, stage.pos))
}

/// Per-corner multiplicative scale factors applied when a stage is
/// evaluated at a PVT corner — one [`StageScales`] per corner lane, the
/// nominal lane's being [`StageScales::NOMINAL`].
///
/// Every element is scaled **individually before** any accumulation — the
/// corner value of each array entry is a single rounding `x * s`, taken at
/// splice time by `augmented_arrays`.  Scaling after summation
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

/// One scaled stage sweep into owned results: splices the stage at
/// `scales` (driver resistor above the interconnect, sink loads added) and
/// runs [`BatchTimes::of_preorder`], returning the [`BatchTimes`] plus the
/// raw-node → augmented-pre-order-position map: the kernel behind per-node
/// snapshot queries (`QUERY <net> <node>` in `rctree-serve`), which read
/// it once per corner lane and cache it.  An empty `sink_loads` slice
/// still runs the sweep, so a sink-less net's nodes remain queryable.
/// The splice is [`lane_bounds`]'s and
/// [`BatchTimes::of_preorder`] runs its sweep kernel, so every lane is
/// bit-identical to that lane of the net's stage sweep.
pub(crate) fn augmented_batch(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    scales: StageScales,
) -> Result<(BatchTimes, Vec<u32>)> {
    let stage = Spliced::new(driver_resistance, interconnect, sink_loads, scales)?;
    let batch = BatchTimes::of_preorder(
        &stage.parent,
        &stage.branch_r,
        &stage.branch_c,
        &stage.node_cap,
    )?;
    Ok((batch, stage.pos))
}

/// Reusable splice columns and sweep buffers for [`lane_bounds`].  Kept
/// once per worker thread, it leaves a net's stage sweep allocating
/// nothing of its own: the splice walks the tree's stored pre-order in
/// place, and the windows go to the caller's buffers.
#[derive(Debug, Default)]
pub(crate) struct StageScratch {
    stage: Spliced,
    sweep: BatchScratch,
}

/// The one stage sweep of a net: appends every sink's delay bounds, in
/// `sink_loads` order, at each lane of `lanes` to that lane's buffer in
/// `out` (lane `k` to `out[k]`; lanes past the end of `out` are not
/// swept).  Each lane is spliced into `scratch` by `augmented_arrays` at
/// its [`StageScales`] and swept by [`BatchScratch::sweep`], so lane `k`
/// is bit-identical to [`analyze_stage`] on the net rebuilt with corner
/// `k`'s scaled values.  Batch analysis, the ECO warm-up and the dirty-net
/// re-time all run it, each into buffers of its own: a range of nets'
/// share of the window columns, or one dirty net's windows.
///
/// A sink-less net has nothing to time: nothing is appended and nothing
/// is validated.
///
/// # Errors
///
/// As for [`stage_delay_bounds`]; the error returned is the lowest failing
/// lane's, and `out` may then hold part of the net's windows.
pub(crate) fn lane_bounds(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    lanes: impl IntoIterator<Item = StageScales>,
    threshold: f64,
    scratch: &mut StageScratch,
    out: &mut [Vec<DelayBounds>],
) -> Result<()> {
    if sink_loads.is_empty() {
        return Ok(());
    }
    let StageScratch { stage, sweep } = scratch;
    for (scales, out) in lanes.into_iter().zip(out) {
        augmented_arrays(driver_resistance, interconnect, sink_loads, scales, stage)?;
        let view = stage.sweep(sweep)?;
        for &(node, _) in sink_loads {
            let times = view.times_at(stage.pos[node.index()] as usize)?;
            out.push(times.delay_bounds(threshold)?);
        }
    }
    Ok(())
}

/// One stage spliced at one lane, in augmented pre-order: each node's
/// parent, the branch resistance and distributed capacitance feeding it
/// and its lumped capacitance (interconnect plus spliced sink loads), and
/// each raw node's augmented position.
#[derive(Debug, Default)]
struct Spliced {
    parent: Vec<u32>,
    branch_r: Vec<f64>,
    branch_c: Vec<f64>,
    node_cap: Vec<f64>,
    pos: Vec<u32>,
}

impl Spliced {
    /// One stage spliced into fresh columns, for one-shot sweeps.
    fn new(
        driver_resistance: Ohms,
        interconnect: &RcTree,
        sink_loads: &[(NodeId, Farads)],
        scales: StageScales,
    ) -> Result<Spliced> {
        let mut stage = Spliced::default();
        augmented_arrays(
            driver_resistance,
            interconnect,
            sink_loads,
            scales,
            &mut stage,
        )?;
        Ok(stage)
    }

    /// Sweeps the spliced columns through `scratch`.
    fn sweep<'a, V: DelayValue>(&self, scratch: &'a mut Scratch<V>) -> Result<View<'a, V>> {
        Ok(scratch.sweep(&self.parent, &self.branch_r, &self.branch_c, &self.node_cap)?)
    }
}

/// The one splice: fills `out` with one corner lane of one stage.  Writes
/// the augmented pre-order parent of every node and its element values,
/// each multiplied by its [`StageScales`] factor as it is spliced (one
/// rounding per element), and each raw node's augmented position.  Reusing
/// the caller's columns lets a worker splice every lane of every net it
/// sweeps without allocating per net.
///
/// The validation order is the builder path's ([`prepend_driver`]):
/// driver check, reserved-name check (the first reserved name in
/// pre-order), then per-sink node and load checks, each on the **scaled**
/// value.  On error `out` holds a partial splice, which the next splice
/// overwrites.
fn augmented_arrays(
    driver_resistance: Ohms,
    interconnect: &RcTree,
    sink_loads: &[(NodeId, Farads)],
    scales: StageScales,
    out: &mut Spliced,
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
    // The builder path would collide on a reserved name; fail identically
    // (two probes decide, a clash walks the pre-order to name the first)
    // so both evaluations agree on such inputs.  The pre-order starts at
    // the raw input, whose name the augmentation drops (the node is merged
    // into the driver output), so it cannot collide.
    let input = interconnect.input();
    let reserved = [DRIVER_OUTPUT_NODE, STAGE_INPUT_NODE];
    if reserved
        .iter()
        .any(|name| interconnect.find_node(name).is_some_and(|id| id != input))
    {
        for id in interconnect.preorder().skip(1) {
            let name = interconnect.name(id)?;
            if reserved.contains(&name) {
                let name = name.to_string();
                return Err(rctree_core::CoreError::DuplicateName { name }.into());
            }
        }
    }
    let Spliced {
        parent,
        branch_r,
        branch_c,
        node_cap,
        pos,
    } = out;
    let n_aug = interconnect.node_count() + 1;
    parent.clear();
    parent.reserve(n_aug);
    for column in [&mut *branch_r, &mut *branch_c, &mut *node_cap] {
        column.clear();
        column.reserve(n_aug);
    }
    // Raw node id -> augmented pre-order position.
    pos.clear();
    pos.resize(interconnect.node_count(), 0);

    // Augmented node 0: the stage input (no element, no capacitance), and
    // node 1: the driver's output, carrying the driver resistance and the
    // interconnect input's lumped capacitance.
    parent.push(0);
    branch_r.push(0.0);
    branch_c.push(0.0);
    node_cap.push(0.0);
    parent.push(0);
    branch_r.push(driver_r);
    branch_c.push(0.0);
    node_cap.push(interconnect.capacitance(interconnect.input())?.value() * scales.wire_c);
    pos[interconnect.input().index()] = 1;

    for id in interconnect.preorder().skip(1) {
        let p = interconnect.parent(id)?.expect("non-input node");
        let branch = interconnect.branch(id)?.expect("non-input node");
        pos[id.index()] = parent.len() as u32;
        parent.push(pos[p.index()]);
        branch_r.push(branch.resistance().value() * scales.wire_r);
        branch_c.push(branch.capacitance().value() * scales.wire_c);
        node_cap.push(interconnect.capacitance(id)?.value() * scales.wire_c);
    }

    for &(node, load) in sink_loads {
        // Validates the node and the load value, exactly like (and in the
        // same order as) the builder path's load loop.
        let _ = interconnect.name(node)?;
        let load_c = load.value() * scales.load_c;
        check("capacitance", load_c)?;
        node_cap[pos[node.index()] as usize] += load_c;
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

        // An input node named like the driver's output is merged into it,
        // so both paths accept it.
        let mut b = RcTreeBuilder::with_input_name(DRIVER_OUTPUT_NODE);
        let out = b.add_resistor(b.input(), "out", Ohms::new(5.0)).unwrap();
        b.add_capacitance(out, Farads::from_femto(3.0)).unwrap();
        let tree = b.build().unwrap();
        let loads = vec![(out, Farads::from_femto(1.0))];
        let built = analyze_stage(Ohms::new(100.0), &tree, &loads, 0.5).unwrap();
        let flat = stage_delay_bounds(Ohms::new(100.0), &tree, &loads, 0.5).unwrap();
        assert_eq!(flat, [built.sinks[0].bounds]);

        // Both reserved names, the later id first in pre-order: both paths
        // name the one pre-order reaches first.
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(5.0)).unwrap();
        let drv = b
            .add_resistor(b.input(), DRIVER_OUTPUT_NODE, Ohms::new(5.0))
            .unwrap();
        let stage = b.add_resistor(a, STAGE_INPUT_NODE, Ohms::new(5.0)).unwrap();
        let tree = b.build().unwrap();
        assert!(drv < stage && tree.preorder().eq([tree.input(), a, stage, drv]));
        let loads = vec![(a, Farads::from_femto(1.0))];
        let built = analyze_stage(Ohms::new(100.0), &tree, &loads, 0.5).unwrap_err();
        let flat = stage_delay_bounds(Ohms::new(100.0), &tree, &loads, 0.5).unwrap_err();
        assert_eq!(format!("{built}"), format!("{flat}"));
        assert!(format!("{flat}").contains(STAGE_INPUT_NODE), "{flat}");

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

    /// A net's tree, driver resistance and sink loads.
    type Fixture = (RcTree, Ohms, Vec<(NodeId, Farads)>);

    /// A two-sink branching net with slightly irregular element values so
    /// that scaled lanes cannot accidentally coincide with lane 0.
    fn fixture(skew: f64) -> Fixture {
        let mut b = RcTreeBuilder::new();
        let trunk = b
            .add_line(
                b.input(),
                "trunk",
                Ohms::new(120.0 * skew),
                Farads::from_femto(30.0),
            )
            .unwrap();
        let s1 = b
            .add_line(
                trunk,
                "s1",
                Ohms::new(80.0),
                Farads::from_femto(18.0 * skew),
            )
            .unwrap();
        let s2 = b
            .add_line(
                trunk,
                "s2",
                Ohms::new(210.0 * skew),
                Farads::from_femto(9.0),
            )
            .unwrap();
        b.add_capacitance(s2, Farads::from_femto(4.0)).unwrap();
        let loads = vec![
            (s1, Farads::from_femto(13.0)),
            (s2, Farads::from_femto(52.0 * skew)),
        ];
        (b.build().unwrap(), Ohms::new(1000.0 * skew), loads)
    }

    /// The fixture nets `n0` and `n1`.
    fn fixtures() -> [(&'static str, Fixture); 2] {
        [("n0", fixture(1.0)), ("n1", fixture(1.7))]
    }

    /// A three-corner set with a wire override on `n1` at corner 2.
    fn corners() -> CornerSet {
        let mut set = CornerSet::nominal();
        set.push("fast", 0.8, 0.85, 0.9).unwrap();
        set.push("slow", 1.3, 1.2, 1.15).unwrap();
        set.override_net("n1", 2, 1.45, 1.05).unwrap();
        set
    }

    /// Every lane of `set` of the named net, swept through `scratch` into
    /// one buffer per lane.
    fn sweep_lanes(
        set: &CornerSet,
        name: &str,
        (tree, driver, loads): &Fixture,
        scratch: &mut StageScratch,
    ) -> Vec<Vec<DelayBounds>> {
        let lanes = (0..set.len()).map(|k| StageScales::at(set, name, k));
        let mut out = vec![Vec::new(); set.len()];
        lane_bounds(*driver, tree, loads, lanes, 0.5, scratch, &mut out).unwrap();
        out
    }

    fn assert_bits_eq(a: &DelayBounds, b: &DelayBounds) {
        assert_eq!(a.lower.value().to_bits(), b.lower.value().to_bits());
        assert_eq!(a.upper.value().to_bits(), b.upper.value().to_bits());
    }

    #[test]
    fn lane_zero_is_bit_identical_to_the_single_lane_sweep() {
        let (multi, single) = (corners(), CornerSet::nominal());
        let mut scratch = StageScratch::default();
        for (name, net) in &fixtures() {
            let lanes = sweep_lanes(&multi, name, net, &mut scratch);
            let solo = sweep_lanes(&single, name, net, &mut scratch);
            assert_eq!((lanes.len(), solo.len()), (3, 1));
            let stage = stage_delay_bounds(net.1, &net.0, &net.2, 0.5).unwrap();
            for ((a, b), c) in lanes[0].iter().zip(&solo[0]).zip(&stage) {
                assert_bits_eq(a, b);
                assert_bits_eq(a, c);
            }
        }
    }

    #[test]
    fn corner_lanes_match_the_scaled_stage_evaluation_bit_for_bit() {
        // The oracle shares nothing with the splice: each corner's net is
        // rebuilt through the builder with every element scaled, and
        // `analyze_stage` prepends the scaled driver through the builder
        // too.
        let set = corners();
        let mut scratch = StageScratch::default();
        for (name, net) in &fixtures() {
            let (tree, driver, loads) = net;
            let lanes = sweep_lanes(&set, name, net, &mut scratch);
            for (k, lane) in lanes.iter().enumerate().skip(1) {
                let corner = set.corner(k);
                let (wire_r, wire_c) = set.wire_scales(name, k);
                let scaled = crate::graph::scale_tree(tree, wire_r, wire_c).unwrap();
                let scaled_loads: Vec<(NodeId, Farads)> = loads
                    .iter()
                    .map(|&(node, load)| {
                        let id = scaled.node_by_name(tree.name(node).unwrap()).unwrap();
                        (id, Farads::new(load.value() * corner.c_scale))
                    })
                    .collect();
                let driver_r = Ohms::new(driver.value() * corner.r_scale);
                let oracle = analyze_stage(driver_r, &scaled, &scaled_loads, 0.5).unwrap();
                assert_eq!(lane.len(), oracle.sinks.len());
                for (a, b) in lane.iter().zip(&oracle.sinks) {
                    assert_bits_eq(a, &b.bounds);
                }
            }
        }
    }

    #[test]
    fn the_override_lane_differs_from_the_global_scale_lane() {
        // `n1` carries a wire override at corner 2; `n0` does not.  The
        // override must change n1's slow-corner windows but leave n0's
        // matching the global slow scales.
        let set = corners();
        let mut no_override = CornerSet::nominal();
        no_override.push("fast", 0.8, 0.85, 0.9).unwrap();
        no_override.push("slow", 1.3, 1.2, 1.15).unwrap();
        let mut scratch = StageScratch::default();
        let [(n0, net0), (n1, net1)] = fixtures();
        let a = sweep_lanes(&set, n1, &net1, &mut scratch);
        let b = sweep_lanes(&no_override, n1, &net1, &mut scratch);
        assert_ne!(a[2], b[2], "override should change corner-2 windows");
        let a0 = sweep_lanes(&set, n0, &net0, &mut scratch);
        let b0 = sweep_lanes(&no_override, n0, &net0, &mut scratch);
        assert_eq!(a0[2], b0[2], "un-overridden net must match global scales");
    }

    #[test]
    fn sink_less_nets_sweep_to_empty_windows_in_every_lane() {
        let (tree, driver, _) = fixture(1.0);
        let lanes = sweep_lanes(
            &corners(),
            "n0",
            &(tree, driver, Vec::new()),
            &mut StageScratch::default(),
        );
        assert_eq!(lanes, vec![Vec::new(); 3]);
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
        // The two sweeps a served `QUERY <net> <node> [--sens]` reads.
        let (batch, pos) =
            augmented_batch(Ohms::new(700.0), &net, &loads, StageScales::NOMINAL).unwrap();
        let (table, symbolic_pos) = stage_symbolic_sweep(Ohms::new(700.0), &net, &loads).unwrap();
        assert_eq!(symbolic_pos, pos);
        for node in [near, far, net.input()] {
            let at = pos[node.index()] as usize;
            let scalar = batch.times_at(at).unwrap();
            let symbolic = &table[at];
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
