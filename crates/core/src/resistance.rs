//! Path and shared-resistance computations (`R_kk`, `R_ke`, `R_ee`).
//!
//! Section III of the paper defines `R_ke` as "the resistance of the portion
//! of the (unique) path between the input and `e` that is common with the
//! (unique) path between the input and node `k`".  In a tree rooted at the
//! input, that common portion is exactly the path from the input to the
//! lowest common ancestor of `k` and `e`, so
//!
//! ```text
//! R_ke = R(input → lca(k, e))        R_kk = R(input → k)       R_ee = R(input → e)
//! ```
//!
//! and the paper's inequalities `R_ke ≤ R_kk`, `R_ke ≤ R_ee` follow
//! immediately.
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::resistance::shared_resistance;
//! use rctree_core::units::{Ohms, Farads};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! // Figure 3 of the paper: R_ke = R1 + R2.
//! let mut b = RcTreeBuilder::new();
//! let a = b.add_resistor(b.input(), "a", Ohms::new(1.0))?;   // R1
//! let fork = b.add_resistor(a, "fork", Ohms::new(2.0))?;     // R2
//! let k = b.add_resistor(fork, "k", Ohms::new(3.0))?;        // R3
//! let e = b.add_resistor(fork, "e", Ohms::new(5.0))?;        // R5
//! b.add_capacitance(k, Farads::new(1.0))?;
//! b.mark_output(e)?;
//! let tree = b.build()?;
//! assert_eq!(shared_resistance(&tree, k, e)?, Ohms::new(3.0)); // R1 + R2
//! # Ok(())
//! # }
//! ```

use crate::error::Result;
use crate::tree::{NodeId, RcTree};
use crate::units::Ohms;

/// Resistance of the unique path between the input and `node` (`R_kk`).
///
/// This is a thin, discoverable alias for
/// [`RcTree::resistance_from_input`].
///
/// # Errors
///
/// Returns [`CoreError::NodeNotFound`](crate::error::CoreError::NodeNotFound)
/// if `node` does not belong to the tree.
pub fn path_resistance(tree: &RcTree, node: NodeId) -> Result<Ohms> {
    tree.resistance_from_input(node)
}

/// Shared resistance `R_ke`: resistance of the portion of the input→`e` path
/// common with the input→`k` path.
///
/// # Errors
///
/// Returns [`CoreError::NodeNotFound`](crate::error::CoreError::NodeNotFound)
/// if either node does not belong to the tree.
pub fn shared_resistance(tree: &RcTree, k: NodeId, e: NodeId) -> Result<Ohms> {
    let lca = tree.lowest_common_ancestor(k, e)?;
    tree.resistance_from_input(lca)
}

/// For a fixed output `e`, the shared resistance `R_ke` of **every** node
/// `k`, computed in a single O(n) traversal.
///
/// The returned vector is indexed by [`NodeId::index`]; entry `k` is
/// `R_ke`.  For nodes on the path input→`e` the value is their own path
/// resistance; for nodes hanging off that path it is the path resistance of
/// their attachment point.
///
/// # Errors
///
/// Returns [`CoreError::NodeNotFound`](crate::error::CoreError::NodeNotFound)
/// if `e` does not belong to the tree.
pub fn shared_resistances_to(tree: &RcTree, e: NodeId) -> Result<Vec<Ohms>> {
    tree.check(e)?;
    let n = tree.node_count();
    let mut on_path = vec![false; n];
    for id in tree.path_from_input(e)? {
        on_path[id.index()] = true;
    }

    // One pass over ids (parents first): nodes on the path to `e` share
    // their entire own path, summed from the input down as `R_kk` is, and
    // every other node shares its parent's attachment resistance.
    let t = tree.columns();
    let mut shared = vec![Ohms::ZERO; n];
    for k in 1..n {
        let p = t.parent[k] as usize;
        shared[k] = if on_path[k] {
            Ohms::new(shared[p].value() + t.branch_r[k])
        } else {
            shared[p]
        };
    }
    Ok(shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;
    use crate::units::Farads;

    /// The exact topology of Figure 3: input --R1-- a --R2-- fork, with
    /// fork --R3-- m --R4-- k (node k after R3 in the paper; we keep both)
    /// and fork --R5-- e (the output).
    fn fig3_tree() -> (RcTree, NodeId, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
        let fork = b.add_resistor(a, "fork", Ohms::new(2.0)).unwrap();
        let k = b.add_resistor(fork, "k", Ohms::new(3.0)).unwrap();
        let m = b.add_resistor(k, "m", Ohms::new(4.0)).unwrap();
        let e = b.add_resistor(fork, "e", Ohms::new(5.0)).unwrap();
        b.add_capacitance(k, Farads::new(1.0)).unwrap();
        b.add_capacitance(e, Farads::new(1.0)).unwrap();
        b.mark_output(e).unwrap();
        (b.build().unwrap(), k, m, e)
    }

    #[test]
    fn figure3_values_match_paper() {
        // Paper: R_ke = R1 + R2, R_kk = R1 + R2 + R3, R_ee = R1 + R2 + R5.
        let (tree, k, _, e) = fig3_tree();
        assert_eq!(shared_resistance(&tree, k, e).unwrap(), Ohms::new(3.0));
        assert_eq!(path_resistance(&tree, k).unwrap(), Ohms::new(6.0));
        assert_eq!(path_resistance(&tree, e).unwrap(), Ohms::new(8.0));
    }

    #[test]
    fn shared_resistance_is_symmetric() {
        let (tree, k, m, e) = fig3_tree();
        for &a in &[k, m, e, tree.input()] {
            for &b in &[k, m, e, tree.input()] {
                assert_eq!(
                    shared_resistance(&tree, a, b).unwrap(),
                    shared_resistance(&tree, b, a).unwrap()
                );
            }
        }
    }

    #[test]
    fn shared_resistance_bounded_by_path_resistances() {
        // R_ke ≤ R_kk and R_ke ≤ R_ee (paper, Section III).
        let (tree, k, m, e) = fig3_tree();
        for &a in &[k, m, e] {
            for &b in &[k, m, e] {
                let rab = shared_resistance(&tree, a, b).unwrap();
                assert!(rab <= path_resistance(&tree, a).unwrap());
                assert!(rab <= path_resistance(&tree, b).unwrap());
            }
        }
    }

    #[test]
    fn shared_with_self_is_path_resistance() {
        let (tree, k, m, e) = fig3_tree();
        for &a in &[k, m, e] {
            assert_eq!(
                shared_resistance(&tree, a, a).unwrap(),
                path_resistance(&tree, a).unwrap()
            );
        }
    }

    #[test]
    fn shared_with_input_is_zero() {
        let (tree, k, _, _) = fig3_tree();
        assert_eq!(
            shared_resistance(&tree, tree.input(), k).unwrap(),
            Ohms::ZERO
        );
    }

    #[test]
    fn bulk_shared_resistances_match_pairwise() {
        let (tree, _, _, e) = fig3_tree();
        let all = shared_resistances_to(&tree, e).unwrap();
        for id in tree.node_ids() {
            assert_eq!(all[id.index()], shared_resistance(&tree, id, e).unwrap());
        }
    }

    #[test]
    fn bulk_shared_resistances_for_internal_output() {
        // Outputs "may be taken anywhere in the tree": use an internal node.
        let (tree, k, _, _) = fig3_tree();
        let all = shared_resistances_to(&tree, k).unwrap();
        for id in tree.node_ids() {
            assert_eq!(all[id.index()], shared_resistance(&tree, id, k).unwrap());
        }
    }
}
