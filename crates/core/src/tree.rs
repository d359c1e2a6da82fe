//! The RC tree data model.
//!
//! An *RC tree* (paper, Section II) is a resistor tree with no resistor to
//! ground, in which every node may carry a grounded capacitor and any
//! resistor may be replaced by a uniform distributed RC line.  The tree has a
//! single input (the root, where the step excitation is applied) and any
//! number of outputs, which may be taken at any node.  The defining property
//! exploited by the whole theory is that there is a **unique path** from any
//! point of the tree to the input.
//!
//! [`RcTree`] is an immutable, validated structure produced by
//! [`RcTreeBuilder`](crate::builder::RcTreeBuilder).  It is one table of
//! columns indexed by [`NodeId::index`], shared behind an `Arc`, and it
//! holds the network and nothing derived from its values:
//!
//! * the base columns — parent, branch resistance and capacitance with a
//!   line bit, lumped node capacitance and an output bit.  Every
//!   construction path keeps `parent[i] < i`: the builder only hangs a
//!   node on an existing one, a graft appends ids and a prune compacts them
//!   in order;
//! * the node names, in the crate's [`Interner`], whose ids are the node
//!   ids, so a name lookup is one hash probe;
//! * the depth-first pre-order (children in id order, which is insertion
//!   order), derived from the parent column in one backward and one
//!   forward pass over ids.  It is the order in which the `rctree-sta`
//!   stage splice lays a net out, so it fixes that sweep's summation
//!   order.
//!
//! Everything else — path resistances (`R_kk` of Section III) and subtree
//! capacitances — is derived by the consumer that reads it, from the base
//! columns in id order: the one kernel of [`crate::batch`], or the
//! on-demand walks of the accessors below.
//!
//! Cloning a tree bumps a refcount.  The one mutator, [`RcTree::apply`],
//! applies a [`TreeEdit`] and copies the table on its first write: a value
//! edit writes one row, and a graft or a prune appends or compacts rows
//! and re-derives the pre-order.  The table's write path lives in this
//! module alone.

use std::fmt;
use std::sync::Arc;

use crate::builder::check_value;
use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::intern::{Interner, NameId};
use crate::units::{Farads, Ohms};

/// Identifier of a node within one [`RcTree`].
///
/// Node ids are indices into the tree's node table; id 0 is always the input
/// node.  Ids are only meaningful for the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The input (root) node of every tree.
    pub const INPUT: NodeId = NodeId(0);

    /// Returns the underlying index of this node id.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// `flags` bit: the branch feeding the node is a uniform RC line.
const LINE: u8 = 1;
/// `flags` bit: the node is marked as an output.
pub(crate) const OUTPUT: u8 = 2;

/// The [`LINE`] bit of a branch element.
pub(crate) fn line_bit(branch: &Branch) -> u8 {
    match branch {
        Branch::Resistor { .. } => 0,
        Branch::Line { .. } => LINE,
    }
}

/// The columns of one tree, indexed by [`NodeId::index`].
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeTable {
    /// Parent index per node (`parent[i] < i`); the input maps to itself.
    pub(crate) parent: Vec<u32>,
    /// Series resistance of the branch `parent → node` (0 for the input).
    pub(crate) branch_r: Vec<f64>,
    /// Distributed capacitance of the branch `parent → node` (0 for the
    /// input and for lumped resistors).
    pub(crate) branch_c: Vec<f64>,
    /// Lumped grounded capacitance at the node.
    pub(crate) node_cap: Vec<f64>,
    /// [`LINE`] and [`OUTPUT`] bits per node.
    pub(crate) flags: Vec<u8>,
    /// Node names; name id `i` is node `i`.
    pub(crate) names: Interner,
    /// Node indices in depth-first pre-order (children in id order); entry
    /// 0 is always the input.  Iterating it in reverse gives a valid
    /// post-order (children before parents).
    pub(crate) preorder: Vec<u32>,
}

impl NodeTable {
    /// A table holding only the input node (pre-order not yet derived).
    pub(crate) fn with_input(name: &str) -> Self {
        Self::with_capacity(name, 0, 0)
    }

    /// [`NodeTable::with_input`] with the base columns and the name table
    /// sized for `nodes` nodes whose names total `name_bytes` bytes, the
    /// input's included: filling that many rows allocates nothing more.
    pub(crate) fn with_capacity(name: &str, nodes: usize, name_bytes: usize) -> Self {
        let mut table = NodeTable {
            parent: Vec::with_capacity(nodes),
            branch_r: Vec::with_capacity(nodes),
            branch_c: Vec::with_capacity(nodes),
            node_cap: Vec::with_capacity(nodes),
            flags: Vec::with_capacity(nodes),
            names: Interner::with_capacity(nodes, name_bytes),
            ..NodeTable::default()
        };
        table.names.intern(name);
        table.push_row(0, 0.0, 0.0, 0.0, 0);
        table
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }

    /// Appends one node's base row; its name must already be interned
    /// under the new id.
    pub(crate) fn push_row(&mut self, parent: usize, r: f64, c: f64, cap: f64, flags: u8) {
        debug_assert_eq!(self.names.len(), self.parent.len() + 1);
        self.parent.push(parent as u32);
        self.branch_r.push(r);
        self.branch_c.push(c);
        self.node_cap.push(cap);
        self.flags.push(flags);
    }

    /// The branch feeding node `i`, or `None` for the input.
    pub(crate) fn branch(&self, i: usize) -> Option<Branch> {
        let r = Ohms::new(self.branch_r[i]);
        let c = Farads::new(self.branch_c[i]);
        (i != 0).then(|| match self.flags[i] & LINE {
            0 => Branch::resistor(r),
            _ => Branch::line(r, c),
        })
    }

    /// Re-derives the pre-order from the parent column.
    ///
    /// Because `parent[i] < i`, a backward pass over ids sees every node
    /// after all its descendants (subtree sizes), and a forward pass sees
    /// it after its parent: each child takes the next free slot of its
    /// parent, in id order.
    fn derive_preorder(&mut self) {
        let n = self.len();
        // Subtree sizes until a node is placed, then its next free child
        // slot.
        let mut next = vec![1u32; n];
        for i in (1..n).rev() {
            next[self.parent[i] as usize] += next[i];
        }
        self.preorder.clear();
        self.preorder.resize(n, 0);
        next[0] = 1;
        for i in 1..n {
            let p = self.parent[i] as usize;
            let pos = next[p];
            next[p] += next[i];
            self.preorder[pos as usize] = i as u32;
            next[i] = pos + 1;
        }
    }

    /// Per node id: whether the node lies in the subtree rooted at node
    /// `v`.  One forward pass over `parent`: a node after `v` is inside
    /// exactly when its parent is.
    fn subtree_mask(&self, v: usize) -> Vec<bool> {
        let mut inside = vec![false; self.len()];
        inside[v] = true;
        for k in v + 1..self.len() {
            inside[k] = inside[self.parent[k] as usize];
        }
        inside
    }
}

/// A validated RC tree network.
///
/// Construct one with [`RcTreeBuilder`](crate::builder::RcTreeBuilder):
///
/// ```
/// use rctree_core::builder::RcTreeBuilder;
/// use rctree_core::units::{Ohms, Farads};
///
/// # fn main() -> rctree_core::error::Result<()> {
/// let mut b = RcTreeBuilder::new();
/// let a = b.add_resistor(b.input(), "a", Ohms::new(100.0))?;
/// b.add_capacitance(a, Farads::new(1e-12))?;
/// b.mark_output(a)?;
/// let tree = b.build()?;
/// assert_eq!(tree.node_count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// The tree is one `Arc`-shared table of columns (see the
/// [module documentation](self)): a clone shares it, and equality compares
/// the base columns and names, never the pre-order derived from them.
///
/// NOTE for restoring the (currently placeholder) `serde` feature: serialize
/// the base columns and names only; deserialization must re-intern the names
/// in id order and re-derive the pre-order (as [`RcTree::rebuild`] does) —
/// nothing else is stored.
#[derive(Debug, Clone)]
pub struct RcTree {
    table: Arc<NodeTable>,
}

impl PartialEq for RcTree {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.table, &*other.table);
        a.parent == b.parent
            && a.branch_r == b.branch_r
            && a.branch_c == b.branch_c
            && a.node_cap == b.node_cap
            && a.flags == b.flags
            && a.names.same_names(&b.names)
    }
}

impl RcTree {
    /// Wraps a table whose base columns are complete, deriving its
    /// pre-order.
    pub(crate) fn from_table(mut table: NodeTable) -> Self {
        table.derive_preorder();
        RcTree {
            table: Arc::new(table),
        }
    }

    /// The columns shared by the whole-tree algorithms.
    pub(crate) fn columns(&self) -> &NodeTable {
        &self.table
    }

    /// The columns for writing, copied first if another handle shares them.
    fn table_mut(&mut self) -> &mut NodeTable {
        Arc::make_mut(&mut self.table)
    }

    /// Whether two handles share one table.
    #[cfg(test)]
    pub(crate) fn shares_table(&self, other: &RcTree) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// A copy of the table with its pre-order re-derived from the base
    /// columns, from scratch.
    ///
    /// The returned tree is structurally identical to `self`
    /// (`rebuilt == *self` under [`PartialEq`], which compares base columns
    /// only).  It is the from-scratch oracle for [`RcTree::apply`]: the
    /// pre-order an edit leaves must equal its rebuild's.
    pub fn rebuild(&self) -> RcTree {
        RcTree::from_table((*self.table).clone())
    }

    /// The input (root) node where the step excitation is applied.
    pub fn input(&self) -> NodeId {
        NodeId::INPUT
    }

    /// Number of nodes in the tree, including the input.
    pub fn node_count(&self) -> usize {
        self.table.len()
    }

    /// Number of branches (elements) in the tree.
    pub fn branch_count(&self) -> usize {
        self.node_count().saturating_sub(1)
    }

    /// Iterator over all node ids, input first, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over the node ids marked as outputs.
    pub fn outputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.table
            .flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| f & OUTPUT != 0)
            .map(|(i, _)| NodeId(i))
    }

    /// Returns the name of a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn name(&self, node: NodeId) -> Result<&str> {
        self.check(node)?;
        Ok(self.table.names.resolve(NameId(node.0 as u32)))
    }

    /// Looks up a node by name (one hash probe).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NameNotFound`] if no node has the given name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId> {
        self.find_node(name).ok_or_else(|| CoreError::NameNotFound {
            name: name.to_string(),
        })
    }

    /// The node named `name`, if any: [`RcTree::node_by_name`] without
    /// the error, so a miss allocates nothing.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.table.names.get(name).map(|id| NodeId(id.index()))
    }

    /// Returns the parent of a node, or `None` for the input node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn parent(&self, node: NodeId) -> Result<Option<NodeId>> {
        self.check(node)?;
        Ok((node.0 != 0).then(|| NodeId(self.table.parent[node.0] as usize)))
    }

    /// Returns the branch element connecting a node to its parent, or `None`
    /// for the input node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn branch(&self, node: NodeId) -> Result<Option<Branch>> {
        self.check(node)?;
        Ok(self.table.branch(node.0))
    }

    /// Returns the lumped grounded capacitance attached at a node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn capacitance(&self, node: NodeId) -> Result<Farads> {
        self.check(node)?;
        Ok(Farads::new(self.table.node_cap[node.0]))
    }

    /// Returns the children of a node in insertion order: one lazy pass
    /// over the ids after the node (`O(n)` to exhaust).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn children(&self, node: NodeId) -> Result<impl Iterator<Item = NodeId> + '_> {
        self.check(node)?;
        let parent = &self.table.parent;
        Ok((node.0 + 1..parent.len())
            .filter(move |&i| parent[i] as usize == node.0)
            .map(NodeId))
    }

    /// Returns `true` if the node is marked as an output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn is_output(&self, node: NodeId) -> Result<bool> {
        self.check(node)?;
        Ok(self.table.flags[node.0] & OUTPUT != 0)
    }

    /// Total capacitance of the network: all lumped node capacitors plus the
    /// distributed capacitance of every line (the quantity `C_T` of
    /// Section IV).
    pub fn total_capacitance(&self) -> Farads {
        let lumped: f64 = self.table.node_cap.iter().sum();
        let distributed: f64 = self.table.branch_c[1..].iter().sum();
        Farads::new(lumped) + Farads::new(distributed)
    }

    /// Total series resistance of all branches in the tree.
    pub fn total_resistance(&self) -> Ohms {
        Ohms::new(self.table.branch_r[1..].iter().sum())
    }

    /// The unique path from the input to `node`, inclusive of both ends.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn path_from_input(&self, node: NodeId) -> Result<Vec<NodeId>> {
        self.check(node)?;
        let mut path = vec![node];
        let mut cur = node.0;
        while cur != 0 {
            cur = self.table.parent[cur] as usize;
            path.push(NodeId(cur));
        }
        path.reverse();
        Ok(path)
    }

    /// Resistance of the unique path between the input and `node`
    /// (the quantity `R_kk` of Section III for `k = node`).
    ///
    /// `O(depth)`: the branch resistances are summed from the input
    /// down, in the order of the prefix pass of [`crate::batch`], so the
    /// result is that pass's `R_kk` bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn resistance_from_input(&self, node: NodeId) -> Result<Ohms> {
        let path = self.path_from_input(node)?;
        let branch_r = &self.table.branch_r;
        let r_kk = path[1..].iter().fold(0.0, |r, k| r + branch_r[k.0]);
        Ok(Ohms::new(r_kk))
    }

    /// Depth of a node (number of branches between it and the input).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn depth(&self, node: NodeId) -> Result<usize> {
        Ok(self.path_from_input(node)?.len() - 1)
    }

    /// The node ids in depth-first pre-order starting at the input
    /// (children in insertion order), borrowed from the stored column.
    pub fn preorder(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.table.preorder.iter().map(|&i| NodeId(i as usize))
    }

    /// Returns the node ids in depth-first post-order (children before
    /// parents), ending at the input.
    pub fn postorder(&self) -> Vec<NodeId> {
        self.preorder().rev().collect()
    }

    /// Lowest common ancestor of two nodes — the node at which the unique
    /// paths from the input to `a` and to `b` diverge.
    ///
    /// The resistance of the common path, `R_ab` in the paper's notation, is
    /// exactly `resistance_from_input(lca(a, b))`.
    ///
    /// `O(depth)`: two parent walks in step.  A parent's id is below its
    /// child's, so the larger of the two ids is never the other's ancestor
    /// and always steps up.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.check(a)?;
        self.check(b)?;
        let parent = &self.table.parent;
        let (mut a, mut b) = (a.0, b.0);
        while a != b {
            if a > b {
                a = parent[a] as usize;
            } else {
                b = parent[b] as usize;
            }
        }
        Ok(NodeId(a))
    }

    /// Returns `true` if `descendant` lies in the subtree rooted at
    /// `ancestor` (a node is its own descendant).
    ///
    /// `O(depth)`: a parent walk up from `descendant` that stops once its
    /// id drops to `ancestor`'s or below (ids fall along every walk).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn is_descendant(&self, descendant: NodeId, ancestor: NodeId) -> Result<bool> {
        self.check(ancestor)?;
        self.check(descendant)?;
        let mut k = descendant.0;
        while k > ancestor.0 {
            k = self.table.parent[k] as usize;
        }
        Ok(k == ancestor.0)
    }

    /// Number of nodes in the subtree rooted at `node`, including `node`
    /// itself (`O(n)`: one forward pass over ids).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_size(&self, node: NodeId) -> Result<usize> {
        self.check(node)?;
        Ok(self
            .table
            .subtree_mask(node.0)
            .iter()
            .filter(|&&d| d)
            .count())
    }

    /// Total capacitance in the subtree rooted at `node` (its own lumped
    /// capacitance, the full distributed capacitance of branches *below* it,
    /// and all descendant node capacitances).  The branch connecting `node`
    /// to its parent is **not** included.
    ///
    /// `O(n)`: the backward pass over ids of [`crate::batch`]'s kernel,
    /// with the same bits as its `C_sub`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_capacitance(&self, node: NodeId) -> Result<Farads> {
        self.check(node)?;
        let t = &*self.table;
        let mut down_cap = Vec::new();
        crate::batch::subtree_caps::<f64>(&t.parent, &t.branch_c, &t.node_cap, &mut down_cap);
        Ok(Farads::new(down_cap[node.0]))
    }

    pub(crate) fn check(&self, node: NodeId) -> Result<()> {
        if node.0 < self.node_count() {
            Ok(())
        } else {
            Err(CoreError::NodeNotFound { node })
        }
    }
}

/// One delta applied to a tree by [`RcTree::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum TreeEdit {
    /// Replace the lumped grounded capacitance at a node (any node,
    /// including the input).
    SetCap {
        /// Node whose capacitance is replaced.
        node: NodeId,
        /// New total lumped capacitance at the node.
        cap: Farads,
    },
    /// Replace the branch element feeding a node from its parent (resize a
    /// resistor, re-extract a wire as a different line).
    SetBranch {
        /// Node whose feeding branch is replaced (not the input).
        node: NodeId,
        /// The new branch element.
        branch: Branch,
    },
    /// Attach a whole validated subtree under an existing node through a
    /// new branch.  The subtree's input node becomes a new child of
    /// `parent`; every node name in `subtree` must be unused in the host
    /// tree.
    GraftSubtree {
        /// Host node the subtree is attached under.
        parent: NodeId,
        /// The new branch connecting `parent` to the subtree's input node.
        via: Branch,
        /// The subtree to graft (its output marks and capacitances carry
        /// over).  Boxed to keep the edit enum small (grafts are the rare
        /// op; cap/branch tweaks dominate edit streams).
        subtree: Box<RcTree>,
    },
    /// Remove a node, its feeding branch, and its entire subtree.
    ///
    /// Compaction renumbers the surviving node ids, so [`NodeId`]s obtained
    /// before the prune are invalidated; re-resolve nodes by name.
    PruneSubtree {
        /// Root of the subtree to remove (not the input).
        node: NodeId,
    },
}

impl RcTree {
    /// Applies one edit to the tree's columns: a value edit writes the
    /// edited node's row and nothing else; a graft appends rows and a
    /// prune compacts them, and both re-derive the pre-order.  The table
    /// is copied first if another handle shares it, so every other handle
    /// keeps the pre-edit tree.  A value edit costs `O(1)` and a graft or
    /// prune `O(n)`, plus that one `O(n)` copy of a shared table.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NodeNotFound`] for a node outside the tree;
    /// * [`CoreError::InvalidValue`] for negative or non-finite values;
    /// * [`CoreError::CannotEditInput`] for a [`TreeEdit::SetBranch`] or
    ///   [`TreeEdit::PruneSubtree`] aimed at the input node;
    /// * [`CoreError::DuplicateName`] when a grafted subtree reuses a host
    ///   node name.
    ///
    /// On error the tree is unchanged and no table is copied.
    pub fn apply(&mut self, edit: &TreeEdit) -> Result<()> {
        self.check_edit(edit)?;
        let t = self.table_mut();
        match edit {
            TreeEdit::SetCap { node, cap } => t.node_cap[node.index()] = cap.value(),
            TreeEdit::SetBranch { node, branch } => {
                let i = node.index();
                t.branch_r[i] = branch.resistance().value();
                t.branch_c[i] = branch.capacitance().value();
                t.flags[i] = (t.flags[i] & !LINE) | line_bit(branch);
            }
            TreeEdit::GraftSubtree {
                parent,
                via,
                subtree,
            } => {
                // Subtree node `j` becomes host node `n_old + j`; its input
                // hangs on `parent` through `via`, so it is the parent's
                // last child.
                let sub = subtree.columns();
                let n_old = t.len();
                for (j, name) in sub.names.iter() {
                    let j = j.index();
                    t.names.intern(name);
                    if j == 0 {
                        let flags = (sub.flags[0] & OUTPUT) | line_bit(via);
                        let (r, c) = (via.resistance().value(), via.capacitance().value());
                        t.push_row(parent.index(), r, c, sub.node_cap[0], flags);
                    } else {
                        let p = n_old + sub.parent[j] as usize;
                        t.push_row(
                            p,
                            sub.branch_r[j],
                            sub.branch_c[j],
                            sub.node_cap[j],
                            sub.flags[j],
                        );
                    }
                }
                t.derive_preorder();
            }
            TreeEdit::PruneSubtree { node } => {
                // Surviving ids shift down past the holes, in order, so
                // every parent stays below its child.
                let doomed = t.subtree_mask(node.index());
                let new_id: Vec<u32> = doomed
                    .iter()
                    .scan(0, |next, &d| {
                        let id = *next;
                        *next += u32::from(!d);
                        Some(id)
                    })
                    .collect();
                // Compact the base columns in order, re-interning the
                // surviving names, and re-derive the pre-order.
                let names = std::mem::take(&mut t.names);
                for (k, name) in names.iter() {
                    let k = k.index();
                    if !doomed[k] {
                        t.parent[k] = new_id[t.parent[k] as usize];
                        t.names.intern(name);
                    }
                }
                retain(&mut t.parent, &doomed);
                retain(&mut t.branch_r, &doomed);
                retain(&mut t.branch_c, &doomed);
                retain(&mut t.node_cap, &doomed);
                retain(&mut t.flags, &doomed);
                t.derive_preorder();
            }
        }
        Ok(())
    }

    /// The checks of [`RcTree::apply`], in its order, without writing.
    fn check_edit(&self, edit: &TreeEdit) -> Result<()> {
        match edit {
            TreeEdit::SetCap { node, cap } => {
                self.check(*node)?;
                check_value("capacitance", cap.value())
            }
            TreeEdit::SetBranch { node, branch } => {
                self.check(*node)?;
                if *node == NodeId::INPUT {
                    return Err(CoreError::CannotEditInput);
                }
                check_value("resistance", branch.resistance().value())?;
                check_value("line capacitance", branch.capacitance().value())
            }
            TreeEdit::GraftSubtree {
                parent,
                via,
                subtree,
            } => {
                self.check(*parent)?;
                check_value("resistance", via.resistance().value())?;
                check_value("line capacitance", via.capacitance().value())?;
                let host = &self.columns().names;
                let sub = &subtree.columns().names;
                match sub.iter().find(|(_, name)| host.get(name).is_some()) {
                    Some((_, name)) => Err(CoreError::DuplicateName {
                        name: name.to_string(),
                    }),
                    None => Ok(()),
                }
            }
            TreeEdit::PruneSubtree { node } => {
                self.check(*node)?;
                if *node == NodeId::INPUT {
                    return Err(CoreError::CannotEditInput);
                }
                Ok(())
            }
        }
    }
}

/// Drops the elements of `v` whose flag in `doomed` is set, keeping order.
fn retain<T>(v: &mut Vec<T>, doomed: &[bool]) {
    let mut doomed = doomed.iter();
    v.retain(|_| !doomed.next().expect("one flag per element"));
}

impl fmt::Display for RcTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RcTree: {} nodes, {} branches, C_total = {}",
            self.node_count(),
            self.branch_count(),
            self.total_capacitance()
        )?;
        let t = &*self.table;
        let mut depth = vec![0usize; t.len()];
        for i in 1..t.len() {
            depth[i] = depth[t.parent[i] as usize] + 1;
        }
        for &i in &t.preorder {
            let i = i as usize;
            let name = t.names.resolve(NameId(i as u32));
            write!(
                f,
                "{:indent$}{} ({})",
                "",
                name,
                NodeId(i),
                indent = depth[i] * 2
            )?;
            match t.branch(i) {
                Some(Branch::Resistor { resistance }) => write!(f, " -- R {resistance}")?,
                Some(Branch::Line {
                    resistance,
                    capacitance,
                }) => write!(f, " -- URC {resistance}, {capacitance}")?,
                None => {}
            }
            let cap = Farads::new(t.node_cap[i]);
            if !cap.is_zero() {
                write!(f, " [C {cap}]")?;
            }
            if t.flags[i] & OUTPUT != 0 {
                write!(f, " <output>")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::BatchTimes;
    use crate::builder::RcTreeBuilder;
    use crate::units::{Farads, Ohms};

    use super::*;

    /// The network of Figure 3: R1–R2 to the branching node, then R5 to the
    /// output e and R3–R4 to node k.
    fn fig3() -> (RcTree, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let n1 = b
            .add_resistor(b.input(), "after_r1", Ohms::new(1.0))
            .unwrap();
        let n2 = b.add_resistor(n1, "after_r2", Ohms::new(2.0)).unwrap();
        let n3 = b.add_resistor(n2, "after_r3", Ohms::new(3.0)).unwrap();
        let k = b.add_resistor(n3, "k", Ohms::new(4.0)).unwrap();
        let e = b.add_resistor(n2, "e", Ohms::new(5.0)).unwrap();
        b.add_capacitance(k, Farads::new(1.0)).unwrap();
        b.add_capacitance(e, Farads::new(1.0)).unwrap();
        b.mark_output(e).unwrap();
        (b.build().unwrap(), k, e)
    }

    /// The same network inserted breadth-first, so `e` comes before `k`'s
    /// parent and the ids are not in pre-order.
    fn fig3_breadth_first() -> (RcTree, NodeId, NodeId) {
        let mut b = RcTreeBuilder::new();
        let n1 = b
            .add_resistor(b.input(), "after_r1", Ohms::new(1.0))
            .unwrap();
        let n2 = b.add_resistor(n1, "after_r2", Ohms::new(2.0)).unwrap();
        let n3 = b.add_resistor(n2, "after_r3", Ohms::new(3.0)).unwrap();
        let e = b.add_resistor(n2, "e", Ohms::new(5.0)).unwrap();
        let k = b.add_resistor(n3, "k", Ohms::new(4.0)).unwrap();
        b.add_capacitance(k, Farads::new(1.0)).unwrap();
        b.add_capacitance(e, Farads::new(1.0)).unwrap();
        b.mark_output(e).unwrap();
        let tree = b.build().unwrap();
        assert!(tree.preorder().eq([0, 1, 2, 3, 5, 4].map(NodeId)));
        (tree, k, e)
    }

    /// Both insertion orders of Figure 3, for the walk tests.
    fn fixtures() -> [(RcTree, NodeId, NodeId); 2] {
        [fig3(), fig3_breadth_first()]
    }

    #[test]
    fn figure3_path_resistances() {
        for (tree, k, e) in fixtures() {
            // R_kk = R1 + R2 + R3 + R4 ... careful: the paper's Figure 3
            // node k is after R3 only; here we check the general machinery
            // instead.
            assert_eq!(tree.resistance_from_input(e).unwrap(), Ohms::new(8.0));
            assert_eq!(tree.resistance_from_input(k).unwrap(), Ohms::new(10.0));
            let lca = tree.lowest_common_ancestor(k, e).unwrap();
            assert_eq!(tree.resistance_from_input(lca).unwrap(), Ohms::new(3.0));
            assert_eq!(tree.lowest_common_ancestor(e, k).unwrap(), lca);
        }
    }

    #[test]
    fn lca_with_self_and_root() {
        for (tree, k, e) in fixtures() {
            assert_eq!(tree.lowest_common_ancestor(e, e).unwrap(), e);
            assert_eq!(
                tree.lowest_common_ancestor(tree.input(), k).unwrap(),
                tree.input()
            );
            assert!(matches!(
                tree.lowest_common_ancestor(k, NodeId(999)),
                Err(CoreError::NodeNotFound { .. })
            ));
        }
    }

    #[test]
    fn descendant_relationships() {
        for (tree, k, e) in fixtures() {
            assert!(tree.is_descendant(k, tree.input()).unwrap());
            assert!(tree.is_descendant(e, e).unwrap());
            assert!(!tree.is_descendant(e, k).unwrap());
            assert!(!tree.is_descendant(k, e).unwrap());
        }
    }

    #[test]
    fn totals_and_counts() {
        let (tree, _, _) = fig3();
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.branch_count(), 5);
        assert_eq!(tree.total_capacitance(), Farads::new(2.0));
        assert_eq!(tree.total_resistance(), Ohms::new(15.0));
    }

    #[test]
    fn outputs_iterator() {
        let (tree, _, e) = fig3();
        let outs: Vec<_> = tree.outputs().collect();
        assert_eq!(outs, vec![e]);
        assert!(tree.is_output(e).unwrap());
    }

    #[test]
    fn preorder_visits_every_node_once() {
        for (tree, _, _) in fixtures() {
            let order: Vec<NodeId> = tree.preorder().collect();
            assert_eq!(order.len(), tree.node_count());
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), tree.node_count());
            assert_eq!(order[0], tree.input());
            // Depth-first: every node right after its parent or after a
            // sibling's whole subtree.
            for pair in order.windows(2) {
                let parent = tree.parent(pair[1]).unwrap().unwrap();
                assert!(tree.is_descendant(pair[0], parent).unwrap());
            }
        }
    }

    #[test]
    fn postorder_ends_at_input() {
        let (tree, _, _) = fig3();
        let order = tree.postorder();
        assert_eq!(*order.last().unwrap(), tree.input());
    }

    #[test]
    fn subtree_capacitance_counts_descendants() {
        for (tree, k, e) in fixtures() {
            assert_eq!(tree.subtree_capacitance(k).unwrap(), Farads::new(1.0));
            assert_eq!(tree.subtree_capacitance(e).unwrap(), Farads::new(1.0));
            assert_eq!(
                tree.subtree_capacitance(tree.input()).unwrap(),
                Farads::new(2.0)
            );
        }
    }

    #[test]
    fn name_lookup_round_trips() {
        let (tree, k, _) = fig3();
        assert_eq!(tree.node_by_name("k").unwrap(), k);
        assert_eq!(tree.name(k).unwrap(), "k");
        assert!(matches!(
            tree.node_by_name("nope"),
            Err(CoreError::NameNotFound { .. })
        ));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let (tree, _, _) = fig3();
        let bogus = NodeId(999);
        assert!(matches!(
            tree.capacitance(bogus),
            Err(CoreError::NodeNotFound { .. })
        ));
        assert!(matches!(
            tree.path_from_input(bogus),
            Err(CoreError::NodeNotFound { .. })
        ));
    }

    #[test]
    fn display_renders_structure() {
        let (tree, _, _) = fig3();
        let text = tree.to_string();
        assert!(text.contains("RcTree"));
        assert!(text.contains("<output>"));
        assert!(text.contains("after_r1"));
    }

    #[test]
    fn cached_subtree_capacitance_matches_explicit_walk() {
        // The on-demand backward pass must agree with a naive stack-based
        // walk over the node table.
        for (tree, _, _) in fixtures() {
            for id in tree.node_ids() {
                let mut total = Farads::ZERO;
                let mut stack = vec![id];
                while let Some(cur) = stack.pop() {
                    total += tree.capacitance(cur).unwrap();
                    for child in tree.children(cur).unwrap() {
                        if let Some(branch) = tree.branch(child).unwrap() {
                            total += branch.capacitance();
                        }
                        stack.push(child);
                    }
                }
                assert_eq!(tree.subtree_capacitance(id).unwrap(), total);
            }
        }
    }

    #[test]
    fn cached_path_resistance_matches_explicit_walk() {
        for (tree, _, _) in fixtures() {
            for id in tree.node_ids() {
                let mut total = Ohms::ZERO;
                let mut cur = id;
                while let Some(parent) = tree.parent(cur).unwrap() {
                    if let Some(branch) = tree.branch(cur).unwrap() {
                        total += branch.resistance();
                    }
                    cur = parent;
                }
                assert_eq!(tree.resistance_from_input(id).unwrap(), total);
            }
        }
    }

    #[test]
    fn equality_ignores_the_derived_cache() {
        let (a, _, _) = fig3();
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_reproduces_the_tree_and_its_cache() {
        for (tree, k, e) in fixtures() {
            let rebuilt = tree.rebuild();
            assert_eq!(rebuilt, tree);
            assert!(rebuilt.preorder().eq(tree.preorder()));
            assert_eq!(
                rebuilt.resistance_from_input(k).unwrap(),
                tree.resistance_from_input(k).unwrap()
            );
            assert_eq!(
                rebuilt.subtree_capacitance(e).unwrap(),
                tree.subtree_capacitance(e).unwrap()
            );
        }
    }

    #[test]
    fn subtree_intervals_agree_with_parent_walks() {
        for (tree, _, _) in fixtures() {
            // The descendant test and the LCA must agree with a naive
            // parent walk for every node pair.
            for a in tree.node_ids() {
                for d in tree.node_ids() {
                    let mut walk = false;
                    let mut cur = Some(d);
                    while let Some(id) = cur {
                        if id == a {
                            walk = true;
                            break;
                        }
                        cur = tree.parent(id).unwrap();
                    }
                    assert_eq!(tree.is_descendant(d, a).unwrap(), walk, "{d} under {a}");
                    let path_a = tree.path_from_input(a).unwrap();
                    let path_d = tree.path_from_input(d).unwrap();
                    let common = path_a.iter().zip(&path_d).take_while(|(x, y)| x == y);
                    let lca = *common.last().unwrap().0;
                    assert_eq!(tree.lowest_common_ancestor(a, d).unwrap(), lca);
                }
                // Subtree size equals the number of descendants.
                let count = tree
                    .node_ids()
                    .filter(|&d| tree.is_descendant(d, a).unwrap())
                    .count();
                assert_eq!(tree.subtree_size(a).unwrap(), count);
            }
            assert_eq!(tree.subtree_size(tree.input()).unwrap(), tree.node_count());
            assert!(matches!(
                tree.subtree_size(NodeId(999)),
                Err(CoreError::NodeNotFound { .. })
            ));
        }
    }

    /// The branching network of the edit tests: lines and resistors, two
    /// outputs, capacitance at every node but the input.
    fn branching_tree() -> RcTree {
        let mut b = RcTreeBuilder::new();
        let a = b
            .add_line(b.input(), "a", Ohms::new(15.0), Farads::new(1.5))
            .unwrap();
        b.add_capacitance(a, Farads::new(2.0)).unwrap();
        let s1 = b.add_resistor(a, "s1", Ohms::new(8.0)).unwrap();
        b.add_capacitance(s1, Farads::new(7.0)).unwrap();
        let s2 = b
            .add_line(s1, "s2", Ohms::new(2.0), Farads::new(0.5))
            .unwrap();
        b.add_capacitance(s2, Farads::new(0.25)).unwrap();
        let o = b
            .add_line(a, "o", Ohms::new(3.0), Farads::new(4.0))
            .unwrap();
        b.add_capacitance(o, Farads::new(9.0)).unwrap();
        b.mark_output(o).unwrap();
        b.mark_output(s2).unwrap();
        b.build().unwrap()
    }

    /// The same network inserted breadth-first (`o` before `s2`), so the
    /// ids are not in pre-order.
    fn branching_tree_breadth_first() -> RcTree {
        let mut b = RcTreeBuilder::new();
        let a = b
            .add_line(b.input(), "a", Ohms::new(15.0), Farads::new(1.5))
            .unwrap();
        b.add_capacitance(a, Farads::new(2.0)).unwrap();
        let s1 = b.add_resistor(a, "s1", Ohms::new(8.0)).unwrap();
        b.add_capacitance(s1, Farads::new(7.0)).unwrap();
        let o = b
            .add_line(a, "o", Ohms::new(3.0), Farads::new(4.0))
            .unwrap();
        b.add_capacitance(o, Farads::new(9.0)).unwrap();
        let s2 = b
            .add_line(s1, "s2", Ohms::new(2.0), Farads::new(0.5))
            .unwrap();
        b.add_capacitance(s2, Farads::new(0.25)).unwrap();
        b.mark_output(o).unwrap();
        b.mark_output(s2).unwrap();
        let tree = b.build().unwrap();
        assert!(!tree.preorder().map(NodeId::index).eq(0..tree.node_count()));
        tree
    }

    /// Both insertion orders of the branching network.
    fn branching_fixtures() -> [RcTree; 2] {
        [branching_tree(), branching_tree_breadth_first()]
    }

    /// Asserts that an edited tree equals a from-scratch rebuild of its
    /// table: the same base columns and names, and the same pre-order.
    fn assert_matches_rebuild(tree: &RcTree) {
        let rebuilt = tree.rebuild();
        assert_eq!(*tree, rebuilt);
        assert_eq!(
            format!("{:?}", tree.columns()),
            format!("{:?}", rebuilt.columns())
        );
    }

    #[test]
    fn a_value_edit_writes_one_row_and_keeps_the_preorder() {
        for tree in branching_fixtures() {
            let (s1, o) = (
                tree.node_by_name("s1").unwrap(),
                tree.node_by_name("o").unwrap(),
            );
            let edits = [
                TreeEdit::SetCap {
                    node: s1,
                    cap: Farads::new(3.5),
                },
                TreeEdit::SetBranch {
                    node: s1,
                    branch: Branch::line(Ohms::new(11.0), Farads::new(0.5)),
                },
                TreeEdit::SetBranch {
                    node: o,
                    branch: Branch::resistor(Ohms::new(6.0)),
                },
            ];
            for edit in &edits {
                let mut edited = tree.clone();
                edited.apply(edit).unwrap();
                // The original table with the edited node's row written
                // over, and nothing else.
                let mut want = tree.columns().clone();
                match edit {
                    TreeEdit::SetCap { node, cap } => want.node_cap[node.index()] = cap.value(),
                    TreeEdit::SetBranch { node, branch } => {
                        let i = node.index();
                        want.branch_r[i] = branch.resistance().value();
                        want.branch_c[i] = branch.capacitance().value();
                        want.flags[i] = (want.flags[i] & !LINE) | line_bit(branch);
                    }
                    _ => unreachable!("value edits only"),
                }
                let got = edited.columns();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{edit:?}");
                assert!(
                    edited.preorder().eq(edited.rebuild().preorder()),
                    "{edit:?}"
                );
            }
        }
    }

    #[test]
    fn graft_and_prune_track_the_rebuild_oracle() {
        for tree in branching_fixtures() {
            graft_and_prune_on(tree);
        }
    }

    fn graft_and_prune_on(mut tree: RcTree) {
        let mut gb = RcTreeBuilder::with_input_name("g0");
        let g1 = gb.add_resistor(gb.input(), "g1", Ohms::new(4.0)).unwrap();
        gb.add_capacitance(g1, Farads::new(1.25)).unwrap();
        gb.add_capacitance(gb.input(), Farads::new(0.5)).unwrap();
        gb.mark_output(g1).unwrap();
        let graft = gb.build().unwrap();

        let parent = tree.node_by_name("s1").unwrap();
        let via = Branch::line(Ohms::new(2.0), Farads::new(0.75));
        tree.apply(&TreeEdit::GraftSubtree {
            parent,
            via,
            subtree: Box::new(graft),
        })
        .unwrap();
        assert_eq!(tree.node_count(), 7);
        // The grafted input hangs on `parent` through `via`; the inner
        // node keeps its branch, capacitance and output mark.
        let (g0, g1) = (
            tree.node_by_name("g0").unwrap(),
            tree.node_by_name("g1").unwrap(),
        );
        assert_eq!(tree.parent(g0).unwrap(), Some(parent));
        assert_eq!(tree.branch(g0).unwrap(), Some(via));
        assert_eq!(tree.capacitance(g0).unwrap(), Farads::new(0.5));
        assert!(!tree.is_output(g0).unwrap());
        assert_eq!(tree.parent(g1).unwrap(), Some(g0));
        assert_eq!(
            tree.branch(g1).unwrap(),
            Some(Branch::resistor(Ohms::new(4.0)))
        );
        assert_eq!(tree.capacitance(g1).unwrap(), Farads::new(1.25));
        assert!(tree.is_output(g1).unwrap());
        assert_matches_rebuild(&tree);

        // Prune the original deep branch; ids are re-resolved by name.
        let prune = tree.node_by_name("s2").unwrap();
        tree.apply(&TreeEdit::PruneSubtree { node: prune }).unwrap();
        assert!(tree.node_by_name("s2").is_err());
        assert_eq!(tree.node_count(), 6);
        assert_matches_rebuild(&tree);

        // Prune the grafted subtree again.
        let prune = tree.node_by_name("g0").unwrap();
        tree.apply(&TreeEdit::PruneSubtree { node: prune }).unwrap();
        assert!(tree.node_by_name("g1").is_err());
        assert_eq!(tree.node_count(), 4);
        assert_matches_rebuild(&tree);
    }

    #[test]
    fn invalid_edits_are_rejected_and_leave_state_unchanged() {
        let before = branching_tree();
        let mut tree = before.clone();
        let o = tree.node_by_name("o").unwrap();
        assert!(matches!(
            tree.apply(&TreeEdit::SetCap {
                node: NodeId(999),
                cap: Farads::new(1.0)
            }),
            Err(CoreError::NodeNotFound { .. })
        ));
        assert!(matches!(
            tree.apply(&TreeEdit::SetCap {
                node: o,
                cap: Farads::new(-1.0)
            }),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            tree.apply(&TreeEdit::SetBranch {
                node: NodeId::INPUT,
                branch: Branch::resistor(Ohms::new(1.0))
            }),
            Err(CoreError::CannotEditInput)
        ));
        assert!(matches!(
            tree.apply(&TreeEdit::PruneSubtree {
                node: NodeId::INPUT
            }),
            Err(CoreError::CannotEditInput)
        ));
        // Grafting a subtree whose name collides with the host.
        let mut gb = RcTreeBuilder::with_input_name("s1");
        gb.add_capacitance(gb.input(), Farads::new(1.0)).unwrap();
        assert!(matches!(
            tree.apply(&TreeEdit::GraftSubtree {
                parent: o,
                via: Branch::resistor(Ohms::new(1.0)),
                subtree: Box::new(gb.build().unwrap()),
            }),
            Err(CoreError::DuplicateName { .. })
        ));
        assert_eq!(tree, before);
        assert!(tree.shares_table(&before), "a rejected edit copies nothing");
    }

    #[test]
    fn an_edit_copies_a_shared_table_and_leaves_the_other_handle_unchanged() {
        let tree = branching_tree();
        let node = |name: &str| tree.node_by_name(name).unwrap();
        let mut gb = RcTreeBuilder::with_input_name("g0");
        let g1 = gb.add_resistor(gb.input(), "g1", Ohms::new(4.0)).unwrap();
        gb.add_capacitance(g1, Farads::new(1.25)).unwrap();
        gb.mark_output(g1).unwrap();
        let edits = [
            TreeEdit::SetCap {
                node: node("s1"),
                cap: Farads::new(3.0),
            },
            TreeEdit::SetBranch {
                node: node("o"),
                branch: Branch::resistor(Ohms::new(6.0)),
            },
            TreeEdit::GraftSubtree {
                parent: node("s1"),
                via: Branch::line(Ohms::new(2.0), Farads::new(0.75)),
                subtree: Box::new(gb.build().unwrap()),
            },
            TreeEdit::PruneSubtree { node: node("s1") },
        ];
        let names: Vec<String> = tree
            .node_ids()
            .map(|id| tree.name(id).unwrap().to_string())
            .collect();
        let before = format!("{:?}", tree.columns());
        for edit in &edits {
            let mut edited = tree.clone();
            assert!(edited.shares_table(&tree), "a clone shares its table");
            edited.apply(edit).unwrap();
            assert!(!edited.shares_table(&tree), "{edit:?} copies the table");
            assert_eq!(format!("{:?}", tree.columns()), before, "{edit:?}");
            for (i, name) in names.iter().enumerate() {
                assert_eq!(tree.node_by_name(name).unwrap(), NodeId(i), "{edit:?}");
            }
            // Value edits keep the pre-order, structural edits re-derive
            // it: every column equals a rebuild's either way.
            assert_matches_rebuild(&edited);
        }
        // A rejected edit copies nothing.
        let mut edited = tree.clone();
        let bad = TreeEdit::SetCap {
            node: node("o"),
            cap: Farads::new(-1.0),
        };
        assert!(edited.apply(&bad).is_err());
        assert!(edited.shares_table(&tree));
    }

    #[test]
    fn capacitance_free_tree_is_editable_but_not_queryable() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(5.0)).unwrap();
        let mut tree = b.build().unwrap();
        assert!(matches!(
            BatchTimes::of(&tree),
            Err(CoreError::NoCapacitance)
        ));
        tree.apply(&TreeEdit::SetCap {
            node: n,
            cap: Farads::new(2.0),
        })
        .unwrap();
        assert_matches_rebuild(&tree);
        let times = BatchTimes::of(&tree).unwrap();
        assert_eq!(times.total_capacitance(), Farads::new(2.0));
    }
}
