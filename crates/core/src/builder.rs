//! Incremental construction of [`RcTree`] networks.
//!
//! The builder mirrors how the paper describes networks: starting from the
//! input, resistors and uniform RC lines extend or branch the tree, grounded
//! capacitors attach to nodes, and some nodes are marked as outputs.
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::units::{Ohms, Farads};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! // The example network of Figure 7 (values in ohms and farads).
//! let mut b = RcTreeBuilder::new();
//! let n1 = b.add_line(b.input(), "n1", Ohms::new(15.0), Farads::ZERO)?;
//! b.add_capacitance(n1, Farads::new(2.0))?;
//! let side = b.add_resistor(n1, "side", Ohms::new(8.0))?;
//! b.add_capacitance(side, Farads::new(7.0))?;
//! let out = b.add_line(n1, "out", Ohms::new(3.0), Farads::new(4.0))?;
//! b.add_capacitance(out, Farads::new(9.0))?;
//! b.mark_output(out)?;
//! let tree = b.build()?;
//! assert_eq!(tree.node_count(), 4);
//! # Ok(())
//! # }
//! ```

use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::intern::NameId;
use crate::tree::{line_bit, NodeId, NodeTable, RcTree, OUTPUT};
use crate::units::{Farads, Ohms};

/// Default name given to the input node.
pub const INPUT_NAME: &str = "input";

/// Builder for [`RcTree`] networks.
///
/// It writes the tree's base columns directly, one row per added node;
/// names are borrowed and interned as they arrive, so the duplicate check
/// is one hash probe and a node allocates no name of its own.  See the
/// [module documentation](self) for a complete example.
#[derive(Debug, Clone)]
pub struct RcTreeBuilder {
    table: NodeTable,
}

impl Default for RcTreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RcTreeBuilder {
    /// Creates a builder containing only the input node (named
    /// [`INPUT_NAME`]).
    pub fn new() -> Self {
        Self::with_input_name(INPUT_NAME)
    }

    /// Creates a builder whose input node carries the given name.
    pub fn with_input_name(name: impl AsRef<str>) -> Self {
        RcTreeBuilder {
            table: NodeTable::with_input(name.as_ref()),
        }
    }

    /// Creates a builder whose input node carries the given name, with its
    /// columns and name table allocated once for a tree of `nodes` nodes
    /// (the input included) whose names total `name_bytes` bytes.
    ///
    /// A parser that knows the final size up front gets a tree whose
    /// columns never grow; the numbers are a hint, and a tree that
    /// outgrows them still builds.
    ///
    /// ```
    /// use rctree_core::builder::RcTreeBuilder;
    /// use rctree_core::units::Ohms;
    ///
    /// # fn main() -> rctree_core::error::Result<()> {
    /// let mut b = RcTreeBuilder::with_capacity("drv", 2, "drvload".len());
    /// b.add_resistor(b.input(), "load", Ohms::new(1.0))?;
    /// assert_eq!(b.build()?.node_count(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_capacity(input: impl AsRef<str>, nodes: usize, name_bytes: usize) -> Self {
        RcTreeBuilder {
            table: NodeTable::with_capacity(input.as_ref(), nodes, name_bytes),
        }
    }

    /// The input node id (always valid).
    pub fn input(&self) -> NodeId {
        NodeId::INPUT
    }

    /// Number of nodes added so far, including the input.
    pub fn node_count(&self) -> usize {
        self.table.len()
    }

    /// Looks up a previously added node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NameNotFound`] if no node has the given name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId> {
        self.table
            .names
            .get(name)
            .map(|id| NodeId(id.index()))
            .ok_or_else(|| CoreError::NameNotFound {
                name: name.to_string(),
            })
    }

    /// Adds a lumped resistor from `parent` to a new node called `name` and
    /// returns the new node's id.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `parent` is unknown,
    /// [`CoreError::InvalidValue`] if the resistance is negative or not
    /// finite, or [`CoreError::DuplicateName`] if `name` is already used.
    pub fn add_resistor(
        &mut self,
        parent: NodeId,
        name: impl AsRef<str>,
        resistance: Ohms,
    ) -> Result<NodeId> {
        check_value("resistance", resistance.value())?;
        self.add_branch(parent, name.as_ref(), Branch::resistor(resistance))
    }

    /// Adds a uniform distributed RC line from `parent` to a new node called
    /// `name` and returns the new node's id.
    ///
    /// A line with zero capacitance degenerates to a lumped resistor and a
    /// line with zero resistance to a lumped capacitor hung on `parent`
    /// — both are accepted, mirroring the paper's single `URC` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `parent` is unknown,
    /// [`CoreError::InvalidValue`] if either value is negative or not finite,
    /// or [`CoreError::DuplicateName`] if `name` is already used.
    pub fn add_line(
        &mut self,
        parent: NodeId,
        name: impl AsRef<str>,
        resistance: Ohms,
        capacitance: Farads,
    ) -> Result<NodeId> {
        check_value("line resistance", resistance.value())?;
        check_value("line capacitance", capacitance.value())?;
        self.add_branch(parent, name.as_ref(), Branch::line(resistance, capacitance))
    }

    /// Adds lumped grounded capacitance at an existing node (accumulating
    /// with any capacitance already attached there).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` is unknown or
    /// [`CoreError::InvalidValue`] if the capacitance is negative or not
    /// finite.
    pub fn add_capacitance(&mut self, node: NodeId, capacitance: Farads) -> Result<()> {
        check_value("capacitance", capacitance.value())?;
        let cap = self
            .table
            .node_cap
            .get_mut(node.0)
            .ok_or(CoreError::NodeNotFound { node })?;
        *cap += capacitance.value();
        Ok(())
    }

    /// Marks a node as an output of interest.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` is unknown.
    pub fn mark_output(&mut self, node: NodeId) -> Result<()> {
        let flags = self
            .table
            .flags
            .get_mut(node.0)
            .ok_or(CoreError::NodeNotFound { node })?;
        *flags |= OUTPUT;
        Ok(())
    }

    /// Finalizes the builder into an immutable [`RcTree`].
    ///
    /// The base columns are complete at this point; the only column
    /// derived here is the depth-first pre-order, in one backward and one
    /// forward pass over ids.  Path resistances, subtree capacitances and
    /// the like are derived by the analyses that read them, from the base
    /// columns in id order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTree`] if no branches or capacitance were
    /// added at all.
    pub fn build(self) -> Result<RcTree> {
        let t = &self.table;
        let has_branch = t.len() > 1;
        let has_cap = t.node_cap.iter().chain(&t.branch_c).any(|&c| c != 0.0);
        if !has_branch && !has_cap {
            return Err(CoreError::EmptyTree);
        }
        Ok(RcTree::from_table(self.table))
    }

    fn add_branch(&mut self, parent: NodeId, name: &str, branch: Branch) -> Result<NodeId> {
        let id = self.table.len();
        if parent.0 >= id {
            return Err(CoreError::NodeNotFound { node: parent });
        }
        // Interning an existing name returns its (smaller) id unchanged.
        if self.table.names.intern(name) != NameId(id as u32) {
            return Err(CoreError::DuplicateName {
                name: name.to_string(),
            });
        }
        let (r, c) = (branch.resistance().value(), branch.capacitance().value());
        self.table.push_row(parent.0, r, c, 0.0, line_bit(&branch));
        Ok(NodeId(id))
    }
}

/// Rejects a negative or non-finite element value.
pub(crate) fn check_value(what: &'static str, value: f64) -> Result<()> {
    if !value.is_finite() || value < 0.0 {
        Err(CoreError::InvalidValue { what, value })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_chain() {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
        let c = b.add_resistor(a, "b", Ohms::new(2.0)).unwrap();
        b.add_capacitance(c, Farads::new(3.0)).unwrap();
        b.mark_output(c).unwrap();
        let tree = b.build().unwrap();
        assert_eq!(tree.node_count(), 3);
        assert_eq!(tree.resistance_from_input(c).unwrap(), Ohms::new(3.0));
    }

    #[test]
    fn rejects_negative_resistance() {
        let mut b = RcTreeBuilder::new();
        let err = b.add_resistor(b.input(), "a", Ohms::new(-1.0)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidValue { .. }));
    }

    #[test]
    fn rejects_nan_capacitance() {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
        let err = b.add_capacitance(a, Farads::new(f64::NAN)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidValue { .. }));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = RcTreeBuilder::new();
        b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
        let err = b.add_resistor(b.input(), "a", Ohms::new(2.0)).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateName { .. }));
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut b = RcTreeBuilder::new();
        let err = b.add_resistor(NodeId(42), "a", Ohms::new(1.0)).unwrap_err();
        assert!(matches!(err, CoreError::NodeNotFound { .. }));
    }

    #[test]
    fn rejects_empty_tree() {
        let b = RcTreeBuilder::new();
        assert!(matches!(b.build(), Err(CoreError::EmptyTree)));
    }

    #[test]
    fn capacitor_only_tree_is_allowed() {
        let mut b = RcTreeBuilder::new();
        b.add_capacitance(b.input(), Farads::new(1.0)).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn capacitance_accumulates() {
        let mut b = RcTreeBuilder::new();
        let a = b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
        b.add_capacitance(a, Farads::new(1.0)).unwrap();
        b.add_capacitance(a, Farads::new(2.5)).unwrap();
        let tree = b.build().unwrap();
        assert_eq!(tree.capacitance(a).unwrap(), Farads::new(3.5));
    }

    #[test]
    fn custom_input_name_and_lookup() {
        let mut b = RcTreeBuilder::with_input_name("drv");
        assert_eq!(b.node_by_name("drv").unwrap(), b.input());
        let a = b
            .add_line(b.input(), "w1", Ohms::new(1.0), Farads::new(1.0))
            .unwrap();
        assert_eq!(b.node_by_name("w1").unwrap(), a);
        assert!(b.node_by_name("nope").is_err());
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn a_sized_builder_builds_the_same_tree() {
        let grow = |mut b: RcTreeBuilder| {
            let a = b.add_resistor(b.input(), "a", Ohms::new(1.0)).unwrap();
            let c = b
                .add_line(a, "c", Ohms::new(2.0), Farads::new(4.0))
                .unwrap();
            b.add_capacitance(c, Farads::new(3.0)).unwrap();
            b.mark_output(c).unwrap();
            b.build().unwrap()
        };
        let plain = grow(RcTreeBuilder::with_input_name("drv"));
        for (nodes, bytes) in [(3, 5), (0, 0), (1, 1), (64, 512)] {
            assert_eq!(
                grow(RcTreeBuilder::with_capacity("drv", nodes, bytes)),
                plain
            );
        }
    }

    #[test]
    fn default_builder_matches_new() {
        let d = RcTreeBuilder::default();
        assert_eq!(d.node_count(), 1);
    }
}
