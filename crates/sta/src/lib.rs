//! # rctree-sta
//!
//! A miniature static-timing-analysis layer built on the Penfield–Rubinstein
//! delay bounds — the way downstream tools (OpenSTA, OpenROAD, timing-driven
//! placers) consume Elmore-style interconnect delay today.
//!
//! * [`cell`] — linear switch-resistance gate models and a small 1981-style
//!   NMOS library;
//! * [`stage`] — one driver + extracted RC tree + loads, with Elmore delay
//!   and guaranteed delay bounds per sink;
//! * [`graph`] — multi-stage designs, interval arrival-time propagation,
//!   critical paths, slack and three-valued certification;
//! * [`report`] — timing reports over a persistent, chunk-shared endpoint
//!   order that ECO publishes update in `O(dirty)`.
//!
//! Design-wide analysis shards its per-net stage evaluation across the
//! persistent global worker pool (`rctree-par`); results are merged in net
//! order and are bit-identical to the serial evaluation for any worker
//! count ([`Design::analyze_with_jobs`]).  [`Design::apply_eco`] is the
//! incremental path, end to end: net-level [`EcoEdit`]s are written into
//! the dirty nets' own column tables
//! ([`rctree_core::tree::RcTree::apply`]; a value edit writes one row),
//! dirty nets are re-timed with the same per-net stage sweep the
//! batch analysis runs, and arrival times are re-propagated only through
//! the **affected fan-out cone** over the cached Kahn topology — untouched
//! cones keep their cached arrival windows and endpoint contributions
//! verbatim.  See [`Design::apply_eco_with_jobs`] for the per-step
//! complexity table; the report stays bit-identical to a full
//! [`Design::analyze_with_jobs`] of the edited design for every worker
//! count.
//!
//! A net is one record of the design: its interconnect, one `Arc`-shared
//! column table ([`rctree_core::tree::RcTree`]), its driver and its sinks,
//! with every name resolved once, when the net is added.  The design
//! interns its net and instance names into one
//! [`rctree_core::intern::Interner`]; a record holds instance ids and node
//! ids, and only snapshot views and reports turn them back into text.
//! Every stage sweep — batch analysis, the ECO warm-up and the dirty-net
//! re-time — splices a net from its record into per-worker scratch and
//! sweeps it there ([`stage_delay_bounds`] is its nominal lane), and every
//! snapshot view shares the same table and loads, so nothing in this crate
//! copies a tree.  An edit copies the one table it lands on, on its first
//! write, so a snapshot published before an edit keeps answering from its
//! own trees.  Sink nodes, edit targets and `QUERY <net> <node>` names
//! resolve through the tree's interned name index, one hash probe each.
//!
//! ## The corner model
//!
//! Multi-corner (PVT) timing rides on a [`rctree_core::corner::CornerSet`]
//! installed with [`Design::set_corners`]: named corners, each a triple of
//! `r_scale`/`c_scale`/`delay_scale` factors, with optional per-net wire
//! overrides.  Corner 0 is always the implicit **nominal** corner.
//!
//! *Lanes as data.*  A corner keeps a net's topology and changes only its
//! element values, so it is one more lane of values, and every lane —
//! nominal included — runs through the same code: one splice (which scales
//! each element as it splices it), one `f64` sweep, and one lane list from
//! the stage sweep to the snapshot.  The stage sweep of a net splices and
//! sweeps its lanes one after the other through the same per-worker
//! scratch, so a corner costs one more `O(n)` pass and no stored copy.
//! [`Design::analyze_corners`] sweeps each lane of each net that way, then
//! propagates arrivals once per corner with `delay_scale`d intrinsic
//! delays.  The incremental ECO state and every snapshot view keep one
//! entry per lane too, so an ECO re-times each dirty net once per corner
//! and walks the same cone in every lane.
//!
//! *Scaling semantics.*  Every element is scaled **individually, before
//! any accumulation**: a corner value is always the single rounding
//! `x * s`.  Wire elements (branch R/C, node caps) use the corner's wire
//! scales (per-net override when present); the driving cell's resistance,
//! sink input capacitances and intrinsic delays always use the corner's
//! global factors.  Batch analysis and the ECO re-timing share the splice,
//! so they agree by construction, errors included; a fully materialized
//! scaled design ([`Design::materialize_corner`]) makes the same single
//! multiplications, so it agrees bit-for-bit too.
//!
//! *Lane-0 invariant.*  Lane 0's unit scales leave every value's bits
//! unchanged, so it runs the exact float sequence of the single-corner
//! path — installing corners never changes nominal results, and
//! `analyze_corners(..).report(0)` is bit-identical to
//! [`Design::analyze_with_jobs`].  The nominal corner cannot carry
//! overrides (the core's `CornerSet` rejects them), so no configuration
//! can break this.
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::units::{Farads, Ohms};
//! use rctree_sta::stage::analyze_stage;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 1 kΩ driver through 200 Ω of wire into a 13 fF gate.
//! let mut b = RcTreeBuilder::new();
//! let load = b.add_line(b.input(), "load", Ohms::new(200.0), Farads::from_femto(20.0))?;
//! let net = b.build()?;
//! let timing = analyze_stage(Ohms::new(1000.0), &net, &[(load, Farads::from_femto(13.0))], 0.5)?;
//! let sink = &timing.sinks[0];
//! assert!(sink.bounds.lower <= sink.elmore && sink.bounds.lower <= sink.bounds.upper);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cell;
mod chunk_tree;
pub mod error;
pub mod graph;
pub mod report;
pub mod script;
pub mod stage;

pub use crate::cell::{Cell, CellLibrary};
pub use crate::error::{Result, StaError};
pub use crate::graph::{
    BoxCertification, CornerAnalysis, Design, DesignSnapshot, Driver, EcoEdit, EcoEditKind, Load,
    Net, NetTiming, Sink, SinkWindow, SymbolicAnalysis, SymbolicEndpointTiming, SymbolicEndpoints,
};
pub use crate::report::{ArrivalWindow, EndpointTiming, Endpoints, TimingReport};
pub use crate::script::{
    parse_eco_script, parse_eco_script_line, ScriptEdit, ScriptError, ScriptLine,
};
pub use crate::stage::{
    analyze_stage, prepend_driver, stage_delay_bounds, SinkTiming, StageTiming,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Design>();
        assert_send_sync::<crate::TimingReport>();
        assert_send_sync::<crate::CellLibrary>();
        assert_send_sync::<crate::StaError>();
    }
}
