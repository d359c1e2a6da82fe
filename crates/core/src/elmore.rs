//! Elmore delay for every node of an RC tree in a single traversal.
//!
//! The first-order moment `T_De = Σ_k R_ke·C_k` "has been called *delay* by
//! Elmore" (paper, Section III, citing Elmore 1948).  Re-grouping the sum by
//! the branches on the path from the input to `e` gives the form used by
//! every modern timing tool:
//!
//! ```text
//! T_De = Σ_{branches b on path(input → e)}  R_b · ( C_subtree(b) + C_b/2 )
//! ```
//!
//! where `C_subtree(b)` is all capacitance strictly downstream of branch `b`
//! and `C_b` is the branch's own distributed capacitance (which, being spread
//! uniformly along the branch, sees on average half of the branch's own
//! resistance).  The kernel of [`crate::batch`] carries this prefix sum
//! down the tree's ids and yields the Elmore delay of **every** node in
//! `O(n)` total time.

use crate::batch::BatchTimes;
use crate::error::{CoreError, Result};
use crate::tree::{NodeId, RcTree};
use crate::units::Seconds;

/// Elmore delay of every node, indexed by [`NodeId::index`].
///
/// The input node has delay zero.  The result agrees with the `t_d`
/// component of [`characteristic_times`](crate::moments::characteristic_times)
/// for every node (this is checked by the test-suite).
///
/// # Errors
///
/// Returns [`CoreError::NoCapacitance`] if the tree carries no capacitance.
pub fn elmore_delays(tree: &RcTree) -> Result<Vec<Seconds>> {
    let batch = BatchTimes::of(tree)?;
    Ok(batch.t_d.into_iter().map(Seconds::new).collect())
}

/// Elmore delay of a single node.
///
/// For repeated queries prefer [`elmore_delays`], which computes all nodes at
/// once.
///
/// # Errors
///
/// * [`CoreError::NodeNotFound`] if `node` does not belong to the tree;
/// * [`CoreError::NoCapacitance`] if the tree carries no capacitance.
pub fn elmore_delay(tree: &RcTree, node: NodeId) -> Result<Seconds> {
    tree.check(node)?;
    Ok(elmore_delays(tree)?[node.index()])
}

/// The node with the largest Elmore delay among the tree's outputs, together
/// with that delay.
///
/// This is the "critical sink" heuristic used pervasively in timing-driven
/// layout.
///
/// # Errors
///
/// * [`CoreError::NoOutputs`] if no outputs are marked;
/// * [`CoreError::NoCapacitance`] if the tree carries no capacitance.
pub fn critical_output(tree: &RcTree) -> Result<(NodeId, Seconds)> {
    let delays = elmore_delays(tree)?;
    tree.outputs()
        .map(|id| (id, delays[id.index()]))
        .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
        .ok_or(CoreError::NoOutputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;
    use crate::moments::characteristic_times;
    use crate::units::{Farads, Ohms};

    fn sample_tree() -> RcTree {
        let mut b = RcTreeBuilder::new();
        let a = b
            .add_line(b.input(), "a", Ohms::new(15.0), Farads::new(1.0))
            .unwrap();
        b.add_capacitance(a, Farads::new(2.0)).unwrap();
        let s = b.add_resistor(a, "s", Ohms::new(8.0)).unwrap();
        b.add_capacitance(s, Farads::new(7.0)).unwrap();
        let o = b
            .add_line(a, "o", Ohms::new(3.0), Farads::new(4.0))
            .unwrap();
        b.add_capacitance(o, Farads::new(9.0)).unwrap();
        b.mark_output(o).unwrap();
        b.mark_output(s).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn input_has_zero_delay() {
        let tree = sample_tree();
        let delays = elmore_delays(&tree).unwrap();
        assert_eq!(delays[tree.input().index()], Seconds::ZERO);
    }

    #[test]
    fn matches_characteristic_times_for_every_node() {
        let tree = sample_tree();
        let delays = elmore_delays(&tree).unwrap();
        for id in tree.node_ids() {
            if id == tree.input() {
                continue;
            }
            let t = characteristic_times(&tree, id).unwrap();
            assert!(
                (delays[id.index()].value() - t.t_d.value()).abs() < 1e-9,
                "node {id}: {} vs {}",
                delays[id.index()],
                t.t_d
            );
        }
    }

    #[test]
    fn single_node_query_agrees_with_bulk() {
        let tree = sample_tree();
        let delays = elmore_delays(&tree).unwrap();
        for id in tree.node_ids() {
            assert_eq!(elmore_delay(&tree, id).unwrap(), delays[id.index()]);
        }
    }

    #[test]
    fn critical_output_picks_the_slowest_sink() {
        let tree = sample_tree();
        let (node, delay) = critical_output(&tree).unwrap();
        let delays = elmore_delays(&tree).unwrap();
        for out in tree.outputs() {
            assert!(delays[out.index()] <= delay);
        }
        assert!(tree.is_output(node).unwrap());
    }

    #[test]
    fn no_capacitance_is_an_error() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.mark_output(n).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(
            elmore_delays(&tree),
            Err(CoreError::NoCapacitance)
        ));
    }

    #[test]
    fn no_outputs_is_an_error_for_critical_output() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.add_capacitance(n, Farads::new(1.0)).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(critical_output(&tree), Err(CoreError::NoOutputs)));
    }

    #[test]
    fn delay_grows_along_a_chain() {
        let mut b = RcTreeBuilder::new();
        let mut prev = b.input();
        for i in 0..10 {
            prev = b
                .add_resistor(prev, format!("n{i}"), Ohms::new(1.0))
                .unwrap();
            b.add_capacitance(prev, Farads::new(1.0)).unwrap();
        }
        let tree = b.build().unwrap();
        let delays = elmore_delays(&tree).unwrap();
        for id in tree.node_ids().skip(1) {
            let parent = tree.parent(id).unwrap().unwrap();
            assert!(delays[id.index()] > delays[parent.index()]);
        }
    }
}
