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
//! columns indexed by [`NodeId::index`], shared behind an `Arc`:
//!
//! * the base columns — parent, branch resistance and capacitance with a
//!   line bit, lumped node capacitance and an output bit — hold the
//!   network itself.  Every construction path keeps `parent[i] < i`: the
//!   builder only hangs a node on an existing one, a graft appends ids and
//!   a prune compacts them in order;
//! * the node names live in the crate's [`Interner`], whose ids are the
//!   node ids, so a name lookup is one hash probe;
//! * the derived columns — pre-order, path resistance (`R_kk` of
//!   Section III), subtree capacitance and pre-order subtree intervals —
//!   come from one backward and one forward pass over ids.  Children are
//!   taken in id order, which is insertion order, so no child lists or
//!   traversal stack exist.
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
///
/// The derived columns are what the hot loops of [`crate::batch`],
/// [`crate::elmore`] and [`crate::incremental`] walk: allocation-free
/// array passes instead of `Result`-returning accessor calls.
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
    /// Prefix path resistance input → node (`R_kk` of Section III).
    pub(crate) path_r: Vec<f64>,
    /// Capacitance in the subtree rooted at the node: its lumped capacitor,
    /// all descendant capacitors, and the full distributed capacitance of
    /// every branch *below* the node (not the branch feeding it).
    pub(crate) down_cap: Vec<f64>,
    /// Position of each node in `preorder` (the inverse permutation).
    pub(crate) pre_index: Vec<u32>,
    /// Exclusive end of each node's subtree interval in `preorder`: the
    /// subtree rooted at node `i` occupies
    /// `preorder[pre_index[i] .. subtree_end[i]]`.  This is the
    /// subtree-extent index shared by the one-shot batch engine and the
    /// incremental delta engine ([`crate::incremental`]): "the whole subtree
    /// under a node" is always one contiguous slice.
    pub(crate) subtree_end: Vec<u32>,
}

impl NodeTable {
    /// A table holding only the input node (derived columns not yet built).
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

    /// Re-derives the pre-order columns from the base columns.
    ///
    /// Because `parent[i] < i`, a backward pass over ids sees every node
    /// after all its descendants (subtree capacitance and sizes), and a
    /// forward pass sees it after its parent (path resistance and pre-order
    /// positions, each child taking the next free slot of its parent, in id
    /// order).  Children are added to their parent in descending id order,
    /// the reverse of the pre-order, so the sums match a depth-first walk
    /// bit for bit.
    pub(crate) fn derive(&mut self) {
        let n = self.len();
        self.down_cap.clone_from(&self.node_cap);
        // `subtree_end` holds subtree sizes until a node is placed, then
        // its next free child slot, which ends as its interval end.
        self.subtree_end.clear();
        self.subtree_end.resize(n, 1);
        for i in (1..n).rev() {
            let p = self.parent[i] as usize;
            self.down_cap[p] += self.down_cap[i] + self.branch_c[i];
            self.subtree_end[p] += self.subtree_end[i];
        }
        for column in [&mut self.preorder, &mut self.pre_index] {
            column.clear();
            column.resize(n, 0);
        }
        self.path_r.clear();
        self.path_r.resize(n, 0.0);
        self.subtree_end[0] = 1;
        for i in 1..n {
            let p = self.parent[i] as usize;
            self.path_r[i] = self.path_r[p] + self.branch_r[i];
            let pos = self.subtree_end[p];
            self.subtree_end[p] += self.subtree_end[i];
            self.pre_index[i] = pos;
            self.preorder[pos as usize] = i as u32;
            self.subtree_end[i] = pos + 1;
        }
    }

    /// The half-open `preorder` interval occupied by the subtree rooted at
    /// node index `i`.
    pub(crate) fn interval(&self, i: usize) -> (usize, usize) {
        (self.pre_index[i] as usize, self.subtree_end[i] as usize)
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
/// the base columns and names, never the derived pre-order state.
///
/// NOTE for restoring the (currently placeholder) `serde` feature: serialize
/// the base columns and names only; deserialization must re-intern the names
/// in id order and re-run the derivation ([`RcTree::rebuild`]'s pass).
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
    /// Wraps a table whose base columns are complete, deriving the rest.
    pub(crate) fn from_table(mut table: NodeTable) -> Self {
        table.derive();
        RcTree {
            table: Arc::new(table),
        }
    }

    /// The columns shared by the whole-tree algorithms.
    pub(crate) fn traversal(&self) -> &NodeTable {
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

    /// Rebuilds every piece of derived state from the base columns, from
    /// scratch (a copy of the table, re-derived).
    ///
    /// The returned tree is structurally identical to `self`
    /// (`rebuilt == *self` under [`PartialEq`], which compares base columns
    /// only) but carries freshly recomputed prefix sums.  This is the
    /// rebuild-and-rerun oracle against which the incremental engine
    /// ([`crate::incremental`]) is validated and benchmarked.
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
        self.table
            .names
            .get(name)
            .map(|id| NodeId(id.index()))
            .ok_or_else(|| CoreError::NameNotFound {
                name: name.to_string(),
            })
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

    /// Returns the children of a node in insertion order, walking the
    /// pre-order: the first child sits right after the node, and each
    /// next sibling where the previous child's subtree ends.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn children(&self, node: NodeId) -> Result<impl Iterator<Item = NodeId> + '_> {
        self.check(node)?;
        let t = &*self.table;
        let (mut pos, end) = t.interval(node.0);
        pos += 1;
        Ok(std::iter::from_fn(move || {
            (pos < end).then(|| {
                let child = t.preorder[pos] as usize;
                pos = t.subtree_end[child] as usize;
                NodeId(child)
            })
        }))
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
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn resistance_from_input(&self, node: NodeId) -> Result<Ohms> {
        self.check(node)?;
        Ok(Ohms::new(self.table.path_r[node.0]))
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

    /// Returns the node ids in depth-first pre-order starting at the input.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.table
            .preorder
            .iter()
            .map(|&i| NodeId(i as usize))
            .collect()
    }

    /// Returns the node ids in depth-first post-order (children before
    /// parents), ending at the input.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = self.preorder();
        order.reverse();
        order
    }

    /// Lowest common ancestor of two nodes — the node at which the unique
    /// paths from the input to `a` and to `b` diverge.
    ///
    /// The resistance of the common path, `R_ab` in the paper's notation, is
    /// exactly `resistance_from_input(lca(a, b))`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let mut lca = a;
        while !self.is_descendant(b, lca)? {
            lca = NodeId(self.table.parent[lca.0] as usize);
        }
        Ok(lca)
    }

    /// Returns `true` if `descendant` lies in the subtree rooted at
    /// `ancestor` (a node is its own descendant).
    ///
    /// `O(1)` via the pre-order subtree intervals: `descendant` is in the
    /// subtree of `ancestor` exactly when its pre-order position falls
    /// inside `ancestor`'s interval.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if either node does not belong to
    /// this tree.
    pub fn is_descendant(&self, descendant: NodeId, ancestor: NodeId) -> Result<bool> {
        self.check(ancestor)?;
        self.check(descendant)?;
        let (start, end) = self.table.interval(ancestor.0);
        let pos = self.table.pre_index[descendant.0] as usize;
        Ok(start <= pos && pos < end)
    }

    /// Number of nodes in the subtree rooted at `node`, including `node`
    /// itself (`O(1)` via the pre-order subtree intervals).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_size(&self, node: NodeId) -> Result<usize> {
        self.check(node)?;
        let (start, end) = self.table.interval(node.0);
        Ok(end - start)
    }

    /// Total capacitance in the subtree rooted at `node` (its own lumped
    /// capacitance, the full distributed capacitance of branches *below* it,
    /// and all descendant node capacitances).  The branch connecting `node`
    /// to its parent is **not** included.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` does not belong to this
    /// tree.
    pub fn subtree_capacitance(&self, node: NodeId) -> Result<Farads> {
        self.check(node)?;
        Ok(Farads::new(self.table.down_cap[node.0]))
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

    #[test]
    fn figure3_path_resistances() {
        let (tree, k, e) = fig3();
        // R_kk = R1 + R2 + R3 + R4 ... careful: the paper's Figure 3 node k is
        // after R3 only; here we check the general machinery instead.
        assert_eq!(tree.resistance_from_input(e).unwrap(), Ohms::new(8.0));
        assert_eq!(tree.resistance_from_input(k).unwrap(), Ohms::new(10.0));
        let lca = tree.lowest_common_ancestor(k, e).unwrap();
        assert_eq!(tree.resistance_from_input(lca).unwrap(), Ohms::new(3.0));
    }

    #[test]
    fn lca_with_self_and_root() {
        let (tree, k, e) = fig3();
        assert_eq!(tree.lowest_common_ancestor(e, e).unwrap(), e);
        assert_eq!(
            tree.lowest_common_ancestor(tree.input(), k).unwrap(),
            tree.input()
        );
    }

    #[test]
    fn descendant_relationships() {
        let (tree, k, e) = fig3();
        assert!(tree.is_descendant(k, tree.input()).unwrap());
        assert!(tree.is_descendant(e, e).unwrap());
        assert!(!tree.is_descendant(e, k).unwrap());
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
        let (tree, _, _) = fig3();
        let order = tree.preorder();
        assert_eq!(order.len(), tree.node_count());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), tree.node_count());
        assert_eq!(order[0], tree.input());
    }

    #[test]
    fn postorder_ends_at_input() {
        let (tree, _, _) = fig3();
        let order = tree.postorder();
        assert_eq!(*order.last().unwrap(), tree.input());
    }

    #[test]
    fn subtree_capacitance_counts_descendants() {
        let (tree, k, e) = fig3();
        assert_eq!(tree.subtree_capacitance(k).unwrap(), Farads::new(1.0));
        assert_eq!(tree.subtree_capacitance(e).unwrap(), Farads::new(1.0));
        assert_eq!(
            tree.subtree_capacitance(tree.input()).unwrap(),
            Farads::new(2.0)
        );
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
        // The cached post-order accumulation must agree with a naive
        // stack-based walk over the node table.
        let (tree, _, _) = fig3();
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

    #[test]
    fn cached_path_resistance_matches_explicit_walk() {
        let (tree, _, _) = fig3();
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

    #[test]
    fn equality_ignores_the_derived_cache() {
        let (a, _, _) = fig3();
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn rebuild_reproduces_the_tree_and_its_cache() {
        let (tree, k, e) = fig3();
        let rebuilt = tree.rebuild();
        assert_eq!(rebuilt, tree);
        assert_eq!(rebuilt.preorder(), tree.preorder());
        assert_eq!(
            rebuilt.resistance_from_input(k).unwrap(),
            tree.resistance_from_input(k).unwrap()
        );
        assert_eq!(
            rebuilt.subtree_capacitance(e).unwrap(),
            tree.subtree_capacitance(e).unwrap()
        );
    }

    #[test]
    fn subtree_intervals_agree_with_parent_walks() {
        let (tree, _, _) = fig3();
        // Interval-based descendant test must agree with a naive parent walk
        // for every node pair.
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
            }
            // Subtree size equals the number of interval-descendants.
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
