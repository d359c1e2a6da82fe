//! # penfield-rubinstein
//!
//! Facade crate for the reproduction of *Signal Delay in RC Tree Networks*
//! (Penfield & Rubinstein, 1981).  It re-exports the workspace crates under
//! short module names so that examples and downstream users can depend on a
//! single crate:
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`core`] | `rctree-core` | RC-tree model, characteristic times, Penfield–Rubinstein bounds |
//! | [`par`] | `rctree-par` | one persistent thread pool and its order-preserving parallel map, for deck-scale parallelism |
//! | [`sim`] | `rctree-sim` | exact transient / modal simulation |
//! | [`netlist`] | `rctree-netlist` | SPICE-subset, SPEF-lite, wiring-algebra parsers |
//! | [`workloads`] | `rctree-workloads` | paper networks, PLA lines, H-trees, random trees, SPEF decks, request mixes |
//! | [`sta`] | `rctree-sta` | miniature static-timing layer |
//! | [`serve`] | `rctree-serve` | concurrent timing-query + ECO server and load generator |
//!
//! See the repository `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure and table.
//!
//! ```
//! use penfield_rubinstein::core::moments::characteristic_times;
//! use penfield_rubinstein::workloads::fig7::figure7_tree;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (tree, out) = figure7_tree();
//! let bounds = characteristic_times(&tree, out)?.delay_bounds(0.9)?;
//! // Figure 10, last row: [723.66, 988.5] seconds.
//! assert!((bounds.lower.value() - 723.66).abs() < 0.05);
//! assert!((bounds.upper.value() - 988.5).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rctree_core as core;
pub use rctree_netlist as netlist;
pub use rctree_par as par;
pub use rctree_serve as serve;
pub use rctree_sim as sim;
pub use rctree_sta as sta;
pub use rctree_workloads as workloads;

/// Commonly used items from every sub-crate.
pub mod prelude {
    pub use rctree_core::prelude::*;
    pub use rctree_netlist::{parse_expr, parse_spef, parse_spef_deck, parse_spice, write_spice};
    pub use rctree_par::{available_parallelism, default_jobs, par_map_global};
    pub use rctree_sim::{exact_step_response, InputSource, LumpedNetwork, TransientOptions};
    pub use rctree_sta::{analyze_stage, CellLibrary, Design};
    pub use rctree_workloads::{figure7_tree, h_tree, PlaLine, RandomTreeConfig, Technology};
}
