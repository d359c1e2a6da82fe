//! # rctree-core
//!
//! A faithful, production-quality implementation of
//! *Signal Delay in RC Tree Networks* (Paul Penfield, Jr. and Jorge
//! Rubinstein, Caltech Conference on VLSI / DAC, 1981).
//!
//! In MOS integrated circuits a driver may fan out to several gates through
//! wires whose distributed resistance and capacitance are not negligible.
//! The exact step response of such an *RC tree* has no closed form, but the
//! paper shows that three easily computed characteristic times —
//! `T_P`, `T_De` (the Elmore delay) and `T_Re` — yield tight **upper and
//! lower bounds** on the response voltage and on the delay to any threshold.
//! Those bounds can (1) bound the delay given a threshold, (2) bound the
//! voltage given a time, or (3) certify that a circuit is "fast enough".
//!
//! ## Crate layout
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`units`] | `Ohms`, `Farads`, `Seconds`, `Volts` newtypes |
//! | [`algebra`] | the delay algebra: `DelayValue` trait, `f64` scalar and `Poly2` symbolic instances |
//! | [`element`], [`tree`], [`builder`] | the RC-tree data model and its one edit path (`RcTree::apply`) |
//! | [`resistance`] | path and shared resistances `R_kk`, `R_ke` |
//! | [`moments`] | the characteristic times (direct and linear algorithms) |
//! | [`batch`] | all-outputs batch engine: every node's times in `O(n)` total |
//! | [`intern`] | deck-scoped string interning: names to dense `u32` ids |
//! | [`bounds`] | the Penfield–Rubinstein voltage/delay bounds (Eqs. 8–17) |
//! | [`cert`] | the three-valued `OK` certification |
//! | [`corner`] | named PVT corners: per-element R/C/delay scale factors |
//! | [`twoport`], [`expr`] | the constructive `URC`/`WB`/`WC` algebra of Section IV |
//! | [`elmore`] | Elmore delay of every node in one traversal |
//! | [`analysis`] | whole-tree, multi-output reports |
//! | [`ramp`] | finite-slew excitation via the superposition integral |
//! | [`shortest`] | `f64` to its shortest round-trip decimal bytes, as `Display` prints it |
//!
//! ## Complexity
//!
//! The per-output algorithms in [`moments`] are linear in the tree size `n`,
//! so analysing all `m` outputs of a net by looping over them costs
//! `O(n·m)`.  The [`batch`] engine computes the characteristic times of
//! every node — hence every output — in `O(n + m)` total via a few passes
//! over the tree's base columns in id order (parents before children);
//! [`analysis::TreeAnalysis`],
//! [`moments::characteristic_times_all`] and the `rctree-sta` stage
//! evaluation all run on it.
//!
//! ## Quick start
//!
//! ```
//! use rctree_core::prelude::*;
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! // A 1 kΩ driver charging a 100 fF load through a short wire.
//! let mut b = RcTreeBuilder::new();
//! let drv = b.add_resistor(b.input(), "driver", Ohms::new(1000.0))?;
//! let load = b.add_line(drv, "wire", Ohms::new(200.0), Farads::from_femto(20.0))?;
//! b.add_capacitance(load, Farads::from_femto(100.0))?;
//! b.mark_output(load)?;
//! let tree = b.build()?;
//!
//! let times = characteristic_times(&tree, tree.node_by_name("wire")?)?;
//! let delay = times.delay_bounds(0.5)?;
//! assert!(delay.lower <= delay.upper);
//!
//! // Certify against a 1 ns budget at the 90% threshold.
//! let verdict = times.certify(0.9, Seconds::from_nano(1.0))?;
//! assert!(verdict.is_pass());
//! # Ok(())
//! # }
//! ```
//!
//! The companion crates `rctree-sim` (exact transient/modal simulation),
//! `rctree-netlist` (SPICE/SPEF-lite ingestion), `rctree-workloads`
//! (paper workloads and generators) and `rctree-sta` (a miniature static
//! timing layer) build on this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod analysis;
pub mod batch;
pub mod bounds;
pub mod builder;
pub mod cert;
pub mod corner;
pub mod element;
pub mod elmore;
pub mod error;
pub mod expr;
pub mod intern;
pub mod moments;
pub mod ramp;
pub mod resistance;
pub mod shortest;
pub mod tree;
pub mod twoport;
pub mod units;

/// Commonly used items, re-exported for convenient glob import.
pub mod prelude {
    pub use crate::algebra::{DelayValue, Poly2, SymbolicTimes};
    pub use crate::analysis::{OutputTiming, TreeAnalysis};
    pub use crate::batch::{BatchScratch, BatchTimes, BatchView, SymbolicScratch, SymbolicView};
    pub use crate::bounds::{
        symbolic_delay_bounds, DelayBounds, SymbolicDelayBounds, VoltageBounds,
    };
    pub use crate::builder::RcTreeBuilder;
    pub use crate::cert::Certification;
    pub use crate::corner::{Corner, CornerSet};
    pub use crate::element::Branch;
    pub use crate::elmore::{critical_output, elmore_delay, elmore_delays};
    pub use crate::error::{CoreError, Result};
    pub use crate::expr::NetworkExpr;
    pub use crate::intern::{Interner, NameId};
    pub use crate::moments::{
        characteristic_times, characteristic_times_all, characteristic_times_direct,
        CharacteristicTimes,
    };
    pub use crate::ramp::RampResponse;
    pub use crate::resistance::{path_resistance, shared_resistance, shared_resistances_to};
    pub use crate::tree::{NodeId, RcTree, TreeEdit};
    pub use crate::twoport::TwoPort;
    pub use crate::units::{Farads, OhmSeconds, Ohms, Seconds, Volts};
}

pub use crate::algebra::{DelayValue, Poly2, SymbolicTimes};
pub use crate::analysis::TreeAnalysis;
pub use crate::batch::{BatchScratch, BatchTimes, BatchView, SymbolicScratch, SymbolicView};
pub use crate::bounds::{symbolic_delay_bounds, DelayBounds, SymbolicDelayBounds, VoltageBounds};
pub use crate::builder::RcTreeBuilder;
pub use crate::cert::Certification;
pub use crate::corner::{Corner, CornerSet};
pub use crate::error::{CoreError, Result};
pub use crate::intern::{Interner, NameId};
pub use crate::moments::CharacteristicTimes;
pub use crate::tree::{NodeId, RcTree, TreeEdit};
pub use crate::twoport::TwoPort;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        #[allow(unused_imports)]
        use crate::prelude::*;
    }

    #[test]
    fn core_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::RcTree>();
        assert_send_sync::<crate::CharacteristicTimes>();
        assert_send_sync::<crate::TreeAnalysis>();
        assert_send_sync::<crate::CoreError>();
        assert_send_sync::<crate::TwoPort>();
    }
}
