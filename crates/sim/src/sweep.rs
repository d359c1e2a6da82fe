//! Parallel workload sweeps over the exact simulators.
//!
//! Validation campaigns ("the exact response always lies between the
//! bounds") and technology explorations simulate *batches* of trees — one
//! exact solve per generated workload.  Each solve is independent, so a
//! sweep maps over the trees on the `rctree-par` global pool
//! ([`rctree_par::par_map_global`]), the pool `rctree-sta`'s design
//! analysis shards nets on: every tree is solved whole by one runner and
//! results come back in input order, which keeps the output
//! **bit-identical** to the serial sweep for any worker count (the
//! eigendecomposition and integration paths never depend on scheduling).
//! Pool jobs own their data, so a sweep clones the trees into one shared
//! `Arc`: an [`RcTree`] is an `Arc`-shared table, and each clone is one
//! refcount.
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::units::{Farads, Ohms};
//! use rctree_sim::sweep::modal_crossing_sweep;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = RcTreeBuilder::new();
//! let n = b.add_resistor(b.input(), "n", Ohms::new(1.0))?;
//! b.add_capacitance(n, Farads::new(1.0))?;
//! b.mark_output(n)?;
//! let trees = vec![b.build()?];
//!
//! let crossings = modal_crossing_sweep(&trees, 0.5, 4, 2);
//! let per_output = crossings[0].as_ref().unwrap();
//! // 1 Ω · 1 F lump crosses 50% at t = RC·ln 2.
//! assert!((per_output[0].1 - (2.0_f64).ln()).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use rctree_core::tree::{NodeId, RcTree};

use crate::error::{Result, SimError};
use crate::modal::ModalStepResponse;
use crate::network::LumpedNetwork;
use crate::transient::{simulate, InputSource, TransientOptions};

/// Resolves a tree output to its index in the lumped network.
fn output_index(lumped: &LumpedNetwork, output: NodeId) -> Result<usize> {
    lumped.index_of(output)?.ok_or(SimError::NodeOutOfRange {
        index: output.index(),
        len: lumped.node_count(),
    })
}

/// Exact modal threshold-crossing times of every output of every tree,
/// sharded over `jobs` workers.
///
/// Per tree: one symmetric eigendecomposition of the condensed network,
/// then a bisection per output.  Results come back in input order, one
/// `(output, crossing time)` list per tree; per-tree failures (e.g. a
/// capacitance-free tree) surface as that slot's `Err` without aborting
/// the sweep.
pub fn modal_crossing_sweep(
    trees: &[RcTree],
    threshold: f64,
    segments_per_line: usize,
    jobs: usize,
) -> Vec<Result<Vec<(NodeId, f64)>>> {
    let shared = Arc::new(trees.to_vec());
    rctree_par::par_map_global(jobs, shared, trees.len(), move |i, trees| {
        let tree = &trees[i];
        let lumped = LumpedNetwork::from_tree(tree, segments_per_line)?;
        let modal = ModalStepResponse::new(&lumped)?;
        let mut out = Vec::new();
        for output in tree.outputs() {
            let idx = output_index(&lumped, output)?;
            out.push((output, modal.crossing_time(idx, threshold)?));
        }
        Ok(out)
    })
}

/// Transient (fixed-step integration) threshold crossings of every output
/// of every tree, sharded over `jobs` workers.
///
/// Per tree: one backward-Euler/trapezoidal run over the whole network,
/// then a grid interpolation per output.  Same ordering and determinism
/// guarantees as [`modal_crossing_sweep`].
pub fn transient_crossing_sweep(
    trees: &[RcTree],
    threshold: f64,
    segments_per_line: usize,
    options: TransientOptions,
    jobs: usize,
) -> Vec<Result<Vec<(NodeId, f64)>>> {
    let shared = Arc::new(trees.to_vec());
    rctree_par::par_map_global(jobs, shared, trees.len(), move |i, trees| {
        let tree = &trees[i];
        let lumped = LumpedNetwork::from_tree(tree, segments_per_line)?;
        let result = simulate(&lumped, InputSource::Step, options)?;
        let mut out = Vec::new();
        for output in tree.outputs() {
            let idx = output_index(&lumped, output)?;
            out.push((output, result.waveform(idx)?.first_crossing(threshold)?));
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::builder::RcTreeBuilder;
    use rctree_core::units::{Farads, Ohms};

    fn lump(r: f64, c: f64) -> RcTree {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(r)).unwrap();
        b.add_capacitance(n, Farads::new(c)).unwrap();
        b.mark_output(n).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn modal_sweep_matches_closed_form_lumps() {
        let trees: Vec<RcTree> = (1..=6).map(|k| lump(k as f64, 1.0)).collect();
        let crossings = modal_crossing_sweep(&trees, 0.5, 4, 3);
        for (k, slot) in crossings.iter().enumerate() {
            let per_output = slot.as_ref().unwrap();
            assert_eq!(per_output.len(), 1);
            let rc = (k + 1) as f64;
            let want = rc * (2.0_f64).ln();
            assert!(
                (per_output[0].1 - want).abs() < 1e-6 * want,
                "tree {k}: {} vs {want}",
                per_output[0].1
            );
        }
    }

    #[test]
    fn sweeps_are_identical_across_worker_counts() {
        let trees: Vec<RcTree> = (1..=9).map(|k| lump(k as f64, 0.5)).collect();
        let opts = TransientOptions::new(0.01, 20.0);
        let serial_modal = modal_crossing_sweep(&trees, 0.9, 4, 1);
        let serial_tran = transient_crossing_sweep(&trees, 0.9, 4, opts, 1);
        for jobs in [2, 5, rctree_par::available_parallelism()] {
            assert_eq!(
                modal_crossing_sweep(&trees, 0.9, 4, jobs),
                serial_modal,
                "modal, jobs = {jobs}"
            );
            assert_eq!(
                transient_crossing_sweep(&trees, 0.9, 4, opts, jobs),
                serial_tran,
                "transient, jobs = {jobs}"
            );
        }
    }

    #[test]
    fn per_tree_failures_do_not_abort_the_sweep() {
        // A capacitance-free tree cannot be simulated; its slot errors while
        // the healthy neighbours still produce results.
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.mark_output(n).unwrap();
        let broken = b.build().unwrap();
        let trees = vec![lump(1.0, 1.0), broken, lump(2.0, 1.0)];
        let crossings = modal_crossing_sweep(&trees, 0.5, 4, 2);
        assert!(crossings[0].is_ok());
        assert!(crossings[1].is_err());
        assert!(crossings[2].is_ok());
    }
}
