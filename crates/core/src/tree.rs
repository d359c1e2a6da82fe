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
//! Everything else — path resistances (`R_kk` of Section III), subtree
//! capacitances, subtree intervals — is derived by the consumer that reads
//! it, from the base columns in id order: the one kernel of
//! [`crate::batch`], the repair columns of
//! [`EditableTree`](crate::incremental::EditableTree), or the on-demand
//! walks of the accessors below.
//!
//! Cloning a tree bumps a refcount; the only mutator,
//! [`RcTree::apply`], copies the table on its first write.

use std::fmt;
use std::sync::Arc;

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
pub(crate) const LINE: u8 = 1;
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
    pub(crate) fn derive_preorder(&mut self) {
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
    pub(crate) fn subtree_mask(&self, v: usize) -> Vec<bool> {
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
    pub(crate) fn table_mut(&mut self) -> &mut NodeTable {
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
    /// only).  This is the rebuild-and-rerun oracle against which the
    /// incremental engine ([`crate::incremental`]) is validated and
    /// benchmarked.
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
}
