//! Contiguous SoA net arena: every net's augmented stage arrays packed
//! into one allocation per column, with one value lane per PVT corner.
//!
//! [`Design::analyze_with_jobs`](crate::Design::analyze_with_jobs) used to
//! rebuild four per-net `Vec`s (parent / branch R / branch C / node cap)
//! inside every worker on every call — at `10^6` nets that is four million
//! short-lived allocations per analysis and a heap walk that defeats the
//! cache.  [`NetArena`] materialises the same arrays **once** per design
//! revision, each net occupying one contiguous range of four structure-of-
//! arrays columns, so the sharded stage sweep streams through memory
//! linearly and reuses one per-worker [`BatchScratch`] for every net it
//! visits.
//!
//! Every net is spliced by [`crate::stage::augmented_arrays`], the one
//! splice the one-shot and ECO paths use too (same splice order, same
//! validation, same floats), and every sweep runs through
//! [`BatchScratch::sweep`], which is pinned bit-identical to
//! [`rctree_core::batch::BatchTimes::of_preorder`] — so arena-backed
//! analysis reproduces the per-net evaluation exactly.
//!
//! ## Corner lanes
//!
//! A corner is one more lane of element values over the same topology.
//! The arena holds one lane of `branch_r`/`branch_c`/`node_cap` columns per
//! corner of the design's [`CornerSet`] (one lane for a nominal-only
//! design); the `parent` column, the per-net ranges and the sink positions
//! are shared, so net `i` occupies the same `[start, end)` in every lane.
//! Lane `k` is filled by splicing each net with corner `k`'s
//! [`StageScales`], which scale every element **individually** as it is
//! spliced (one IEEE-754 rounding per element, never a scaled sum): wire
//! branch R/C and interconnect node caps by the net's wire scales (per-net
//! override or the corner's globals), the driver resistance by the
//! corner's global `r_scale`, each sink load by the global `c_scale`.
//! These are exactly the arrays a fully *materialised* scaled design
//! splices, which is what the corner-equivalence suite pins.  Lane 0 is
//! the nominal corner, whose unit scales leave every value's bits
//! unchanged.  [`NetArena::sweep_net`] sweeps one lane of one net, so `K`
//! corners cost `K` runs of the same `f64` kernel.
//!
//! ## Alignment
//!
//! Each net's range starts on a 64-byte boundary of the `f64` columns
//! (ranges are padded to a multiple of 8 entries with zero filler rows), so
//! adjacent workers of the sharded sweep never false-share a cache line.
//! Padding changes offsets only — every slice a sweep sees is unchanged.
//!
//! Per-net validation failures are **deferred**, not raised at build time:
//! each lane of each net carries an optional error slot that the sweep
//! surfaces when (and only when) that lane of that net is evaluated,
//! preserving the first-failing-net-in-net-order error semantics of the
//! parallel map.

use rctree_core::batch::BatchScratch;
use rctree_core::corner::CornerSet;
use rctree_core::units::Seconds;

use crate::error::{Result, StaError};
use crate::graph::{Net, NetAug};
use crate::stage::{augmented_arrays, LaneValues, StageScales};

/// Entries per cache line for the `f64` value columns.
const LANE_ALIGN: usize = 8;

/// The packed augmented-stage arrays of every net of a design.
///
/// Built lazily (and cached on the design core) from the committed nets and
/// their pre-resolved [`NetAug`] side table; any mutation of the nets or
/// the corner set invalidates the cache.
#[derive(Debug)]
pub(crate) struct NetArena {
    /// Parent index of every augmented node, **local** to its net's range
    /// (each range is a standalone pre-order array).  Shared by all lanes.
    parent: Vec<u32>,
    /// One value lane per corner, nominal first.
    lanes: Vec<ArenaLane>,
    /// Per net: `[start, end)` into every column.  Empty for sink-less nets
    /// (which the stage evaluation skips) and for nets no lane could
    /// splice.
    node_range: Vec<(u32, u32)>,
    /// Per-net sink positions (local pre-order indices), concatenated.
    sink_pos: Vec<u32>,
    /// Per net: `[start, end)` into `sink_pos`.
    sink_range: Vec<(u32, u32)>,
}

/// One corner's value columns over the arena's shared topology.
#[derive(Debug)]
struct ArenaLane {
    /// Branch R/C and node caps of every augmented node, as long as the
    /// arena's `parent` column.
    values: LaneValues,
    /// Per net: the error this lane's splice raised, surfaced when this
    /// lane of the net is swept.
    errors: Vec<Option<StaError>>,
}

impl NetArena {
    /// Splices every lane of every net.  Infallible: a lane's per-net
    /// validation failure is recorded in that lane's error slot instead,
    /// and the lane's range is zero-filled.
    pub(crate) fn build(nets: &[Net], aug: &[NetAug], set: &CornerSet) -> NetArena {
        let total_nodes: usize = nets
            .iter()
            .zip(aug)
            .filter(|(_, a)| !a.loads.is_empty())
            .map(|(n, _)| n.interconnect.node_count() + 1 + LANE_ALIGN)
            .sum();
        let total_sinks: usize = aug.iter().map(|a| a.loads.len()).sum();
        let mut arena = NetArena {
            parent: Vec::with_capacity(total_nodes),
            lanes: (0..set.len())
                .map(|_| ArenaLane {
                    values: LaneValues::with_capacity(total_nodes),
                    errors: Vec::with_capacity(nets.len()),
                })
                .collect(),
            node_range: Vec::with_capacity(nets.len()),
            sink_pos: Vec::with_capacity(total_sinks),
            sink_range: Vec::with_capacity(nets.len()),
        };
        // Reused across nets: raw node id -> local augmented position, and
        // the parents a lane splices once the net's topology is laid down.
        let (mut pos, mut lane_parent) = (Vec::new(), Vec::new());
        for (net, net_aug) in nets.iter().zip(aug) {
            // Align every net's range to a cache line of the f64 columns.
            let start = arena.parent.len().next_multiple_of(LANE_ALIGN);
            arena.parent.resize(start, 0);
            let sink_start = arena.sink_pos.len();
            // The first lane to splice lays down the net's shared parents
            // and sink positions.
            let mut end = None;
            for (k, lane) in arena.lanes.iter_mut().enumerate() {
                lane.values.resize(start);
                // A sink-less net has nothing to time —
                // `stage_delay_bounds` short-circuits before any
                // validation, and so does the sweep.
                if net_aug.loads.is_empty() {
                    lane.errors.push(None);
                    continue;
                }
                let parent = if end.is_none() {
                    &mut arena.parent
                } else {
                    lane_parent.clear();
                    &mut lane_parent
                };
                let spliced = augmented_arrays(
                    net_aug.driver_r,
                    &net.interconnect,
                    &net_aug.loads,
                    StageScales::at(set, &net.name, k),
                    parent,
                    &mut lane.values,
                    &mut pos,
                );
                match &spliced {
                    Ok(()) if end.is_none() => {
                        end = Some(arena.parent.len());
                        arena
                            .sink_pos
                            .extend(net_aug.loads.iter().map(|&(node, _)| pos[node.index()]));
                    }
                    Ok(()) => {}
                    Err(_) => {
                        // Roll the partial append back so the ranges of
                        // later nets stay consistent; the error replays at
                        // sweep time.
                        if end.is_none() {
                            arena.parent.truncate(start);
                        }
                        lane.values.resize(start);
                    }
                }
                lane.errors.push(spliced.err());
            }
            // Every lane spans the net's shared range; a lane whose splice
            // failed is zero-filled there.
            let end = end.unwrap_or(start);
            for lane in &mut arena.lanes {
                lane.values.resize(end);
            }
            arena.node_range.push((start as u32, end as u32));
            arena
                .sink_range
                .push((sink_start as u32, arena.sink_pos.len() as u32));
        }
        arena
    }

    /// Number of corner lanes (1 for a nominal-only design).
    #[cfg(test)]
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Heap bytes of the packed columns as `(base, corner_lanes)`: the
    /// nominal arena (parent, lane 0's three value columns, ranges, sinks)
    /// and the other corners' value lanes.
    pub(crate) fn bytes(&self) -> (usize, usize) {
        let f64s = std::mem::size_of::<f64>();
        let lane_len = self.parent.len();
        let base = self.parent.len() * std::mem::size_of::<u32>()
            + 3 * lane_len * f64s
            + (self.node_range.len() + self.sink_range.len()) * std::mem::size_of::<(u32, u32)>()
            + self.sink_pos.len() * std::mem::size_of::<u32>();
        let corner = 3 * (self.lanes.len() - 1) * lane_len * f64s;
        (base, corner)
    }

    /// Number of nets the arena covers.
    #[cfg(test)]
    pub(crate) fn net_count(&self) -> usize {
        self.node_range.len()
    }

    /// Total packed augmented nodes across every net (padding included).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Sweeps lane `k` of net `i` in place: runs the batched pre-order
    /// kernel over the lane's columns in the net's range through the
    /// caller's reusable scratch and returns the `(lower, upper)` delay
    /// window of every sink, in sink order — bit-identical to
    /// `stage_delay_bounds` on the same net at corner `k`.
    pub(crate) fn sweep_net(
        &self,
        i: usize,
        k: usize,
        threshold: f64,
        scratch: &mut BatchScratch,
    ) -> Result<Vec<(Seconds, Seconds)>> {
        let lane = &self.lanes[k];
        if let Some(e) = &lane.errors[i] {
            return Err(e.clone());
        }
        let (start, end) = self.node_range[i];
        let (start, end) = (start as usize, end as usize);
        if start == end {
            return Ok(Vec::new());
        }
        let view = scratch.sweep(
            &self.parent[start..end],
            &lane.values.branch_r[start..end],
            &lane.values.branch_c[start..end],
            &lane.values.node_cap[start..end],
        )?;
        let (ks, ke) = self.sink_range[i];
        let mut out = Vec::with_capacity((ke - ks) as usize);
        for &p in &self.sink_pos[ks as usize..ke as usize] {
            let times = view.times_at(p as usize)?;
            let bounds = times.delay_bounds(threshold)?;
            out.push((bounds.lower, bounds.upper));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{scale_tree, Driver, Load, Net, NetAug, Sink};
    use crate::stage::{analyze_stage, stage_delay_bounds};
    use rctree_core::builder::RcTreeBuilder;
    use rctree_core::tree::NodeId;
    use rctree_core::units::{Farads, Ohms};

    /// Every lane of net `i`, swept lane by lane through one scratch.
    fn sweep_lanes(arena: &NetArena, i: usize) -> Vec<Vec<(Seconds, Seconds)>> {
        let mut scratch = BatchScratch::new();
        (0..arena.lane_count())
            .map(|k| arena.sweep_net(i, k, 0.5, &mut scratch).unwrap())
            .collect()
    }

    /// A two-sink branching net with slightly irregular element values so
    /// that scaled lanes cannot accidentally coincide with lane 0.
    fn fixture_net(name: &str, skew: f64) -> (Net, NetAug) {
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
        b.mark_output(s1).unwrap();
        b.mark_output(s2).unwrap();
        let tree = b.build().unwrap();
        let s1_id = tree.node_by_name("s1").unwrap();
        let s2_id = tree.node_by_name("s2").unwrap();
        let net = Net {
            name: name.to_string(),
            driver: Driver::PrimaryInput,
            interconnect: tree,
            sinks: vec![
                Sink {
                    node: "s1".to_string(),
                    load: Load::PrimaryOutput(format!("{name}_o1")),
                },
                Sink {
                    node: "s2".to_string(),
                    load: Load::PrimaryOutput(format!("{name}_o2")),
                },
            ],
        };
        let aug = NetAug {
            driver_r: Ohms::new(1000.0 * skew),
            loads: vec![
                (s1_id, Farads::from_femto(13.0)),
                (s2_id, Farads::from_femto(52.0 * skew)),
            ],
        };
        (net, aug)
    }

    /// A three-corner set with a wire override on `n1` at corner 2.
    fn corners() -> CornerSet {
        let mut set = CornerSet::nominal();
        set.push("fast", 0.8, 0.85, 0.9).unwrap();
        set.push("slow", 1.3, 1.2, 1.15).unwrap();
        set.override_net("n1", 2, 1.45, 1.05).unwrap();
        set
    }

    fn fixtures() -> (Vec<Net>, Vec<NetAug>) {
        let (n0, a0) = fixture_net("n0", 1.0);
        let (n1, a1) = fixture_net("n1", 1.7);
        (vec![n0, n1], vec![a0, a1])
    }

    #[test]
    fn nominal_arena_has_one_lane_and_no_corner_bytes() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, &CornerSet::default());
        assert_eq!(arena.lane_count(), 1);
        assert_eq!(arena.bytes().1, 0);
        assert!(arena.bytes().0 > 0);
    }

    #[test]
    fn nominal_only_set_builds_a_single_lane() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, &CornerSet::nominal());
        assert_eq!(arena.lane_count(), 1);
        assert_eq!(arena.bytes().1, 0);
    }

    #[test]
    fn net_ranges_start_on_cache_line_boundaries() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, &corners());
        assert_eq!(arena.net_count(), 2);
        for &(start, _) in &arena.node_range {
            assert!((start as usize).is_multiple_of(LANE_ALIGN));
        }
    }

    #[test]
    fn corner_bytes_cover_three_columns_per_extra_lane() {
        let (nets, aug) = fixtures();
        let arena = NetArena::build(&nets, &aug, &corners());
        assert_eq!(arena.lane_count(), 3);
        let (base, corner) = arena.bytes();
        assert!(base > 0);
        assert_eq!(
            corner,
            3 * 2 * arena.parent.len() * std::mem::size_of::<f64>()
        );
    }

    #[test]
    fn lane_zero_is_bit_identical_to_the_single_lane_sweep() {
        let (nets, aug) = fixtures();
        let multi = NetArena::build(&nets, &aug, &corners());
        let single = NetArena::build(&nets, &aug, &CornerSet::nominal());
        let mut scratch = BatchScratch::new();
        for i in 0..nets.len() {
            let lanes = sweep_lanes(&multi, i);
            let solo = single.sweep_net(i, 0, 0.5, &mut scratch).unwrap();
            assert_eq!(lanes.len(), 3);
            for (a, b) in lanes[0].iter().zip(&solo) {
                assert_eq!(a.0.value().to_bits(), b.0.value().to_bits());
                assert_eq!(a.1.value().to_bits(), b.1.value().to_bits());
            }
            // And lane 0 matches the historical per-net stage evaluation.
            let stage =
                stage_delay_bounds(aug[i].driver_r, &nets[i].interconnect, &aug[i].loads, 0.5)
                    .unwrap();
            for (a, b) in lanes[0].iter().zip(&stage) {
                assert_eq!(a.0.value().to_bits(), b.lower.value().to_bits());
                assert_eq!(a.1.value().to_bits(), b.upper.value().to_bits());
            }
        }
    }

    #[test]
    fn corner_lanes_match_the_scaled_stage_evaluation_bit_for_bit() {
        // The oracle shares nothing with the arena's splice: each corner's
        // net is rebuilt through the builder with every element scaled,
        // and `analyze_stage` prepends the scaled driver through the
        // builder too.
        let (nets, aug) = fixtures();
        let set = corners();
        let arena = NetArena::build(&nets, &aug, &set);
        for (i, net) in nets.iter().enumerate() {
            let lanes = sweep_lanes(&arena, i);
            for (k, lane) in lanes.iter().enumerate().skip(1) {
                let corner = set.corner(k);
                let (wire_r, wire_c) = set.wire_scales(&net.name, k);
                let tree = scale_tree(&net.interconnect, wire_r, wire_c).unwrap();
                let loads: Vec<(NodeId, Farads)> = aug[i]
                    .loads
                    .iter()
                    .map(|&(node, load)| {
                        let name = net.interconnect.name(node).unwrap();
                        let id = tree.node_by_name(name).unwrap();
                        (id, Farads::new(load.value() * corner.c_scale))
                    })
                    .collect();
                let driver_r = Ohms::new(aug[i].driver_r.value() * corner.r_scale);
                let oracle = analyze_stage(driver_r, &tree, &loads, 0.5).unwrap();
                assert_eq!(lane.len(), oracle.sinks.len());
                for (a, b) in lane.iter().zip(&oracle.sinks) {
                    assert_eq!(a.0.value().to_bits(), b.bounds.lower.value().to_bits());
                    assert_eq!(a.1.value().to_bits(), b.bounds.upper.value().to_bits());
                }
            }
        }
    }

    #[test]
    fn the_override_lane_differs_from_the_global_scale_lane() {
        // `n1` carries a wire override at corner 2; `n0` does not.  The
        // override must change n1's slow-corner windows but leave n0's
        // matching the global slow scales.
        let (nets, aug) = fixtures();
        let set = corners();
        let mut no_override = CornerSet::nominal();
        no_override.push("fast", 0.8, 0.85, 0.9).unwrap();
        no_override.push("slow", 1.3, 1.2, 1.15).unwrap();
        let with_ov = NetArena::build(&nets, &aug, &set);
        let without = NetArena::build(&nets, &aug, &no_override);
        let a = sweep_lanes(&with_ov, 1);
        let b = sweep_lanes(&without, 1);
        assert_ne!(a[2], b[2], "override should change corner-2 windows");
        let a0 = sweep_lanes(&with_ov, 0);
        let b0 = sweep_lanes(&without, 0);
        assert_eq!(a0[2], b0[2], "un-overridden net must match global scales");
    }

    #[test]
    fn sink_less_nets_sweep_to_empty_windows_in_every_lane() {
        let (mut nets, mut aug) = fixtures();
        aug[0].loads.clear();
        nets[0].sinks.clear();
        let arena = NetArena::build(&nets, &aug, &corners());
        let lanes = sweep_lanes(&arena, 0);
        assert_eq!(lanes, vec![Vec::new(); 3]);
    }
}
