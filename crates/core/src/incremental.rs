//! Incremental (ECO) re-analysis of mutable RC trees.
//!
//! The paper's pitch is that `T_P`, `T_De` and `T_Re` are cheap enough to
//! recompute *constantly* during design iteration.  The one-shot engine in
//! [`crate::batch`] delivers that for a frozen tree, but an engineering
//! change order (ECO) loop — resize a driver, tweak a load, re-query the
//! slack, repeat — pays the full `O(n)` rebuild on every edit.  This module
//! removes that cost.  [`RcTree::apply`] validates one [`TreeEdit`] delta
//! locally and writes it into the tree's column table — one row for a
//! value edit; an [`EditableTree`] wraps it with an [`IncrementalTimes`]
//! engine whose characteristic-time state is repaired instead of
//! recomputed.  The table is shared with every clone of the tree until the
//! first accepted edit copies it (`Arc::make_mut`); a rejected edit copies
//! and changes nothing.
//!
//! # How the delta propagates
//!
//! Both per-node quantities are sums of per-edge weights along the unique
//! root→node path (the recurrence of [`crate::batch`]):
//!
//! ```text
//! T_De(k)      = Σ_{edges c on path(k)} w₁(c),  w₁(c) = r·(C_sub(c) + c_ℓ/2)
//! N(k)·R_kk⁻¹ = T_Re(k),  N(k) = Σ w₂(c),      w₂(c) = (R_cc+R_pp)·r·C_sub(c)
//!                                                     + c_ℓ·(R_pp·r + r²/3)
//! ```
//!
//! A value edit at node `v` only perturbs the weights of edges on the
//! root→`v` path (plus, for a branch-resistance change, the `w₂` weights
//! inside `v`'s subtree).  An edge's weight change affects exactly the
//! nodes *below* that edge — one contiguous slice of the tree's pre-order.
//! The engine therefore stores each node's time as
//!
//! ```text
//! value(k) = base[k] + lazy(pre_index[k])
//! ```
//!
//! where `lazy` is a Fenwick tree over pre-order positions supporting
//! `O(log n)` subtree-range add and `O(log n)` point query.  `T_P` and
//! `C_T` are maintained as running sums.  The engine also owns the
//! derived columns its repairs read — `R_kk`, `C_sub` and each node's
//! pre-order interval (the inverse of the tree's stored pre-order plus
//! subtree sizes) — and patches them itself: `C_sub` along the root path,
//! and for a resistance change `R_kk` over the subtree.
//!
//! # Complexity
//!
//! | Edit | Numeric work | Index work |
//! |------|--------------|------------|
//! | [`TreeEdit::SetCap`] | `O(depth · log n)` | one row; `O(depth)` `C_sub` patch |
//! | [`TreeEdit::SetBranch`] | `O(depth · log n + |subtree| · log n)` | one row; `O(depth + |subtree|)` column patch |
//! | [`TreeEdit::GraftSubtree`] | `O(depth · log n + |subtree|)` | `O(n)` append + re-derive |
//! | [`TreeEdit::PruneSubtree`] | `O(depth · log n + |subtree|)` | `O(n)` compact + re-derive |
//! | query ([`EditableTree::characteristic_times`]) | `O(log n)` | — |
//!
//! Structural edits append to or compact the base columns and re-derive
//! the tree's pre-order; the engine then re-derives its own columns from
//! the new tree — a few machine ops per node — while its floating-point
//! repair stays proportional to the dirty region.  The first edit on a
//! shared tree also pays one `O(n)` copy of its table.
//! [`EditableTree::new`] seeds the engine from the un-normalised sweep of
//! [`BatchTimes`]' kernel, so an unedited engine answers bit for bit as
//! [`BatchTimes::of`].
//!
//! # Invariants
//!
//! * The base columns are always exact: edits write the new element values
//!   directly, so [`BatchTimes::of`](crate::batch::BatchTimes::of) on the
//!   edited tree (or on [`RcTree::rebuild`]) is a from-scratch oracle at
//!   any point.
//! * The tree's pre-order is exact after every edit: a value edit leaves
//!   it alone, and a graft or prune re-derives it.
//! * Graft and prune re-derive the engine's columns exactly.  After value
//!   edits the patched columns (`R_kk`, `C_sub`) and, always, the engine
//!   state equal a from-scratch rebuild up to floating-point accumulation
//!   order; the `incremental_equivalence` suite pins the agreement to 1e-9
//!   relative after every edit of seeded streams over every workload
//!   generator (with an absolute floor of `1e-12 × T_P`: the
//!   difference-array lazy structure stores `±Δ` pairs in separate
//!   accumulators, so a node whose true value is exactly zero can read
//!   back an `eps`-scale residue).
//! * [`TreeEdit::PruneSubtree`] compacts node ids: ids at or above the
//!   pruned region are renumbered, so previously held [`NodeId`]s are
//!   invalidated (look nodes up by name across structural edits).
//!
//! ```
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::incremental::{EditableTree, TreeEdit};
//! use rctree_core::units::{Farads, Ohms};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! let mut b = RcTreeBuilder::new();
//! let load = b.add_resistor(b.input(), "load", Ohms::new(1000.0))?;
//! b.add_capacitance(load, Farads::from_femto(100.0))?;
//! b.mark_output(load)?;
//! let mut eco = EditableTree::new(b.build()?);
//!
//! let before = eco.characteristic_times(load)?.t_d;
//! eco.apply(&TreeEdit::SetCap {
//!     node: load,
//!     cap: Farads::from_femto(200.0),
//! })?;
//! let after = eco.characteristic_times(load)?.t_d;
//! assert!(after > before);
//! # Ok(())
//! # }
//! ```

use crate::batch::{normalise, path_resistances, raw_sweep, subtree_caps, BatchTimes};
use crate::builder::check_value;
use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::tree::{line_bit, NodeId, NodeTable, RcTree, LINE, OUTPUT};
use crate::units::{Farads, Seconds};

/// A Fenwick (binary indexed) tree over pre-order positions, holding the
/// lazy per-subtree offsets of the incremental engine: `O(log n)`
/// half-open range add, `O(log n)` point query, `O(n)` drain-to-points when
/// a structural edit re-shapes the position space.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    /// 1-based implicit tree over the difference array.
    tree: Vec<f64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0.0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `v` to the difference array at 0-based position `i`.
    fn add(&mut self, i: usize, v: f64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Adds `v` to every position in the half-open range `[l, r)`.
    fn range_add(&mut self, l: usize, r: usize, v: f64) {
        if v == 0.0 || l >= r {
            return;
        }
        self.add(l, v);
        if r < self.len() {
            self.add(r, -v);
        }
    }

    /// The accumulated offset at 0-based position `i`.
    fn point(&self, i: usize) -> f64 {
        let mut i = i + 1;
        let mut sum = 0.0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Recovers every point value in `O(n)` and resets the structure to
    /// zero (used to fold lazy offsets into the base arrays before a
    /// structural edit invalidates the position space).
    fn drain_points(&mut self) -> Vec<f64> {
        let n = self.len();
        let mut diff = std::mem::replace(&mut self.tree, vec![0.0; n + 1]);
        // Invert the implicit-tree accumulation back into the difference
        // array, then prefix-sum it into point values.
        for i in (1..=n).rev() {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                diff[j] -= diff[i];
            }
        }
        let mut points = Vec::with_capacity(n);
        let mut acc = 0.0;
        for d in diff.iter().skip(1) {
            acc += d;
            points.push(acc);
        }
        points
    }
}

/// One delta applied to a tree ([`RcTree::apply`]) or an [`EditableTree`].
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

/// The live characteristic-time state of an [`EditableTree`]: the
/// un-normalised arrays of [`BatchTimes`]' kernel and the derived columns
/// its repairs read, kept resident and *repaired* on each edit instead of
/// recomputed.
#[derive(Debug, Clone)]
pub struct IncrementalTimes {
    /// `T_P = Σ R_kk·C_k`, maintained as a running sum.
    t_p: f64,
    /// Total network capacitance, maintained as a running sum.
    total_cap: f64,
    /// Base Elmore delay per node id; the true value adds the lazy offset
    /// at the node's pre-order position.
    td_base: Vec<f64>,
    /// Base `Σ R_ke²·C_k` numerator per node id (same convention).
    trn_base: Vec<f64>,
    /// Lazy subtree offsets for `T_De`, over pre-order positions.
    td_lazy: Fenwick,
    /// Lazy subtree offsets for the `T_Re` numerator.
    trn_lazy: Fenwick,
    /// Path resistance input → node (`R_kk`) per node id.
    path_r: Vec<f64>,
    /// Subtree capacitance (`C_sub`) per node id: the node's lumped
    /// capacitor, all descendants', and every branch line below it.
    down_cap: Vec<f64>,
    /// Position of each node in the tree's pre-order (the inverse
    /// permutation).
    pre_index: Vec<u32>,
    /// Exclusive end of each node's subtree interval in the pre-order:
    /// the subtree rooted at node `i` occupies positions
    /// `pre_index[i] .. subtree_end[i]`.
    subtree_end: Vec<u32>,
}

impl IncrementalTimes {
    /// `T_P`, the output-independent characteristic time.
    pub fn t_p(&self) -> Seconds {
        Seconds::new(self.t_p.max(0.0))
    }

    /// Total capacitance `C_T` of the network as currently edited.
    pub fn total_capacitance(&self) -> Farads {
        Farads::new(self.total_cap.max(0.0))
    }

    /// Number of live nodes covered by the engine.
    pub fn node_count(&self) -> usize {
        self.td_base.len()
    }

    /// The half-open pre-order interval of the subtree rooted at node `i`.
    fn interval(&self, i: usize) -> (usize, usize) {
        (self.pre_index[i] as usize, self.subtree_end[i] as usize)
    }

    /// Re-derives the pre-order intervals from the tree's stored
    /// pre-order: its inverse, plus subtree sizes from one backward pass
    /// over ids.
    fn derive_intervals(&mut self, t: &NodeTable) {
        let n = t.len();
        self.pre_index.clear();
        self.pre_index.resize(n, 0);
        for (pos, &k) in t.preorder.iter().enumerate() {
            self.pre_index[k as usize] = pos as u32;
        }
        self.subtree_end.clear();
        self.subtree_end.resize(n, 1);
        for i in (1..n).rev() {
            self.subtree_end[t.parent[i] as usize] += self.subtree_end[i];
        }
        for (end, &pos) in self.subtree_end.iter_mut().zip(&self.pre_index) {
            *end += pos;
        }
    }

    /// Adds `delta` to the subtree capacitance of node `a` and its
    /// ancestors.
    fn add_down_cap(&mut self, t: &NodeTable, mut a: usize, delta: f64) {
        self.down_cap[a] += delta;
        while a != 0 {
            a = t.parent[a] as usize;
            self.down_cap[a] += delta;
        }
    }
}

impl RcTree {
    /// Applies one edit to the tree's columns: a value edit writes the
    /// edited node's row and nothing else; a graft appends rows and a
    /// prune compacts them, and both re-derive the pre-order.  The table
    /// is copied first if another handle shares it, so every other handle
    /// keeps the pre-edit tree.
    ///
    /// This is the one mutator of a tree: [`EditableTree::apply`] calls it
    /// and repairs its [`IncrementalTimes`] around it.
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
    pub(crate) fn check_edit(&self, edit: &TreeEdit) -> Result<()> {
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

/// A mutable RC tree with live incremental analysis.
///
/// Wraps a validated [`RcTree`]; [`EditableTree::apply`] writes each
/// [`TreeEdit`] through [`RcTree::apply`] and repairs the attached
/// [`IncrementalTimes`] in `O(depth + |affected subtree|)` numeric work
/// instead of `O(n)`.
///
/// Unlike [`BatchTimes::of`](crate::batch::BatchTimes::of), construction
/// accepts capacitance-free trees (an ECO may be about to *add* the first
/// capacitor); queries on such a state return
/// [`CoreError::NoCapacitance`], matching the one-shot engine.
#[derive(Debug, Clone)]
pub struct EditableTree {
    tree: RcTree,
    times: IncrementalTimes,
}

impl EditableTree {
    /// Wraps a tree, seeding the incremental engine with one `O(n)` sweep:
    /// the un-normalised sweep of [`BatchTimes::of`](crate::batch::BatchTimes::of)'s
    /// kernel, plus the pre-order intervals.
    pub fn new(tree: RcTree) -> Self {
        let t = tree.columns();
        let n = tree.node_count();
        let mut times = IncrementalTimes {
            t_p: 0.0,
            total_cap: 0.0,
            td_base: Vec::new(),
            trn_base: Vec::new(),
            td_lazy: Fenwick::new(n),
            trn_lazy: Fenwick::new(n),
            path_r: Vec::new(),
            down_cap: Vec::new(),
            pre_index: Vec::new(),
            subtree_end: Vec::new(),
        };
        (times.t_p, times.total_cap) = raw_sweep(
            &t.parent,
            &t.branch_r,
            &t.branch_c,
            &t.node_cap,
            &mut times.path_r,
            &mut times.down_cap,
            &mut times.td_base,
            &mut times.trn_base,
        );
        times.derive_intervals(t);
        EditableTree { tree, times }
    }

    /// The current state of the tree (base columns and pre-order always
    /// exact).
    pub fn tree(&self) -> &RcTree {
        &self.tree
    }

    /// The live analysis engine (running `T_P` / `C_T` sums).
    pub fn times(&self) -> &IncrementalTimes {
        &self.times
    }

    /// Unwraps the edited tree.
    pub fn into_tree(self) -> RcTree {
        self.tree
    }

    /// Applies one edit through [`RcTree::apply`], repairing the analysis
    /// state around it: the repair reads the pre-edit values it needs
    /// first, and folds the lazy offsets into the base arrays before a
    /// graft or prune re-shapes the pre-order.
    ///
    /// # Errors
    ///
    /// As for [`RcTree::apply`].  On error the tree and engine state are
    /// unchanged.
    pub fn apply(&mut self, edit: &TreeEdit) -> Result<()> {
        // Validate before touching the engine: a rejected edit changes
        // nothing.
        self.tree.check_edit(edit)?;
        match edit {
            TreeEdit::SetCap { node, cap } => {
                let i = node.index();
                let delta = cap.value() - self.tree.columns().node_cap[i];
                self.tree.apply(edit)?;
                if delta != 0.0 {
                    self.times.total_cap += delta;
                    self.times.t_p += self.times.path_r[i] * delta;
                    self.times.add_down_cap(self.tree.columns(), i, delta);
                    // Every edge on the root path carries the extra
                    // capacitance: its weight change reaches exactly the
                    // nodes below it (one pre-order interval each).
                    self.root_path_add(i, delta);
                }
            }
            TreeEdit::SetBranch { node, .. } => {
                let i = node.index();
                let t = self.tree.columns();
                let old = (t.branch_r[i], t.branch_c[i]);
                self.tree.apply(edit)?;
                self.repair_branch(i, old);
            }
            TreeEdit::GraftSubtree { parent, via, .. } => {
                // Pre-order positions are about to shift: fold the lazy
                // offsets into the base arrays first.
                self.flatten();
                let n_old = self.tree.node_count();
                self.tree.apply(edit)?;
                self.rederive();
                // The grafted input's subtree is the whole subtree, whose
                // capacitance comes in with the graft's line.
                let c_add = self.times.down_cap[n_old] + via.capacitance().value();
                self.repair_graft(parent.index(), n_old, c_add);
            }
            TreeEdit::PruneSubtree { node } => {
                self.flatten();
                let i = node.index();
                let t = self.tree.columns();
                let times = &mut self.times;
                let (l, e) = times.interval(i);
                let c_rem = times.down_cap[i] + t.branch_c[i];
                // Numeric removals, against the pre-edit columns.
                for &k in &t.preorder[l..e] {
                    let k = k as usize;
                    let pk = t.parent[k] as usize;
                    times.t_p -= t.node_cap[k] * times.path_r[k]
                        + t.branch_c[k] * (times.path_r[pk] + t.branch_r[k] / 2.0);
                }
                times.total_cap -= c_rem;
                let doomed = t.subtree_mask(i);
                // Ids below `i` survive unchanged, the parent's included.
                let parent = t.parent[i] as usize;
                self.tree.apply(edit)?;
                retain(&mut self.times.td_base, &doomed);
                retain(&mut self.times.trn_base, &doomed);
                self.rederive();
                let n_new = self.tree.node_count();
                self.times.td_lazy = Fenwick::new(n_new);
                self.times.trn_lazy = Fenwick::new(n_new);
                // Root-path correction with the surviving ids.
                self.root_path_add(parent, -c_rem);
            }
        }
        Ok(())
    }

    /// The characteristic times of one node under the current edits
    /// (`O(log n)`).
    ///
    /// # Errors
    ///
    /// * [`CoreError::NodeNotFound`] if `node` is out of range;
    /// * [`CoreError::NoCapacitance`] if the edited tree currently carries
    ///   no capacitance.
    pub fn characteristic_times(&self, node: NodeId) -> Result<CharacteristicTimes> {
        self.tree.check(node)?;
        if self.times.total_cap <= 0.0 {
            return Err(CoreError::NoCapacitance);
        }
        let i = node.index();
        let pos = self.times.pre_index[i] as usize;
        // Clamp away the tiny negative residue that cancelling deltas can
        // leave where the true value is zero.
        let t_d = (self.times.td_base[i] + self.times.td_lazy.point(pos)).max(0.0);
        let num = (self.times.trn_base[i] + self.times.trn_lazy.point(pos)).max(0.0);
        let r_ee = self.times.path_r[i];
        let t_r = if num == 0.0 {
            0.0
        } else if r_ee == 0.0 {
            return Err(CoreError::NoPathResistance { output: node });
        } else {
            num / r_ee
        };
        CharacteristicTimes::new(
            self.times.t_p(),
            Seconds::new(t_d),
            Seconds::new(t_r),
            crate::units::Ohms::new(r_ee),
            self.times.total_capacitance(),
        )
    }

    /// Elmore delay of one node under the current edits (`O(log n)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` is out of range.
    pub fn elmore_delay(&self, node: NodeId) -> Result<Seconds> {
        self.tree.check(node)?;
        let i = node.index();
        let pos = self.times.pre_index[i] as usize;
        Ok(Seconds::new(
            (self.times.td_base[i] + self.times.td_lazy.point(pos)).max(0.0),
        ))
    }

    /// Materialises the current state into a one-shot [`BatchTimes`]
    /// snapshot (`O(n log n)`).
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoCapacitance`] if the edited tree currently carries
    ///   no capacitance;
    /// * [`CoreError::NoPathResistance`] (defensive, as for
    ///   [`BatchTimes::of`](crate::batch::BatchTimes::of)).
    pub fn batch(&self) -> Result<BatchTimes> {
        let times = &self.times;
        if times.total_cap <= 0.0 {
            return Err(CoreError::NoCapacitance);
        }
        let at = |base: &[f64], lazy: &Fenwick| -> Vec<f64> {
            let pos = times.pre_index.iter();
            let values = base.iter().zip(pos);
            values
                .map(|(v, &p)| (v + lazy.point(p as usize)).max(0.0))
                .collect()
        };
        let mut t_r = at(&times.trn_base, &times.trn_lazy);
        normalise(&mut t_r, &times.path_r)?;
        Ok(BatchTimes {
            t_p: times.t_p.max(0.0),
            total_cap: times.total_cap,
            r_ee: times.path_r.clone(),
            t_d: at(&times.td_base, &times.td_lazy),
            t_r,
        })
    }

    /// Re-derives the engine's columns from the tree after a graft or
    /// prune: `R_kk` and `C_sub` by the kernel's passes, the intervals
    /// from the new pre-order.
    fn rederive(&mut self) {
        let t = self.tree.columns();
        let times = &mut self.times;
        path_resistances(&t.parent, &t.branch_r, &mut times.path_r);
        subtree_caps(&t.parent, &t.branch_c, &t.node_cap, &mut times.down_cap);
        times.derive_intervals(t);
    }

    /// Folds the lazy pre-order offsets into the base arrays and resets
    /// them; required before any edit that re-shapes the pre-order
    /// position space.
    fn flatten(&mut self) {
        let times = &mut self.times;
        let td_pts = times.td_lazy.drain_points();
        let trn_pts = times.trn_lazy.drain_points();
        for (i, &pos) in times.pre_index.iter().enumerate() {
            times.td_base[i] += td_pts[pos as usize];
            times.trn_base[i] += trn_pts[pos as usize];
        }
    }

    /// Adds the lazy `T_De` / `T_Re`-numerator offsets of `delta` more
    /// capacitance under every edge from node `a` up to the root.
    fn root_path_add(&mut self, mut a: usize, delta: f64) {
        let t = self.tree.columns();
        let times = &mut self.times;
        while a != 0 {
            let p = t.parent[a] as usize;
            let r = t.branch_r[a];
            if r != 0.0 {
                let (l, e) = times.interval(a);
                let r_sum = times.path_r[a] + times.path_r[p];
                times.td_lazy.range_add(l, e, r * delta);
                times.trn_lazy.range_add(l, e, r_sum * r * delta);
            }
            a = p;
        }
    }

    /// Repairs the engine after [`RcTree::apply`] replaced the branch
    /// feeding node `i`, whose pre-edit resistance and line capacitance
    /// were `old`: the lazy offsets first, from the columns as they were
    /// (none of those it reads moves but the edited branch), then the
    /// engine's own `R_kk` and `C_sub` columns.
    fn repair_branch(&mut self, i: usize, (old_r, old_c): (f64, f64)) {
        let t = self.tree.columns();
        let (new_r, new_c) = (t.branch_r[i], t.branch_c[i]);
        let (dr, dc) = (new_r - old_r, new_c - old_c);
        if dr == 0.0 && dc == 0.0 {
            return;
        }
        let times = &mut self.times;
        let p = t.parent[i] as usize;
        let r_pp = times.path_r[p];
        let d = times.down_cap[i];
        times.t_p += dr * d + (new_c * (r_pp + new_r / 2.0) - old_c * (r_pp + old_r / 2.0));
        times.total_cap += dc;
        // The edited edge itself: both weights change for everything below.
        let (l, e) = times.interval(i);
        let w1 = |r: f64, cl: f64| r * (d + cl / 2.0);
        let w2 = |r: f64, cl: f64| (2.0 * r_pp + r) * r * d + cl * (r_pp * r + r * r / 3.0);
        times
            .td_lazy
            .range_add(l, e, w1(new_r, new_c) - w1(old_r, old_c));
        times
            .trn_lazy
            .range_add(l, e, w2(new_r, new_c) - w2(old_r, old_c));
        if dr != 0.0 {
            // Path resistances below the edge shifted by `dr`, which
            // perturbs the T_Re weight of every inner edge.  (T_De weights
            // are unaffected: they depend only on the edge's own r and its
            // downstream capacitance.)
            for &k in &t.preorder[l + 1..e] {
                let k = k as usize;
                let rk = t.branch_r[k];
                if rk != 0.0 {
                    let (kl, ke) = times.interval(k);
                    let dw = dr * rk * (2.0 * times.down_cap[k] + t.branch_c[k]);
                    times.trn_lazy.range_add(kl, ke, dw);
                }
            }
        }
        if dc != 0.0 {
            self.root_path_add(p, dc);
        }
        // The columns last: `R_kk` shifts by `dr` over the subtree (one
        // pre-order slice), and the line's own capacitance sits in every
        // ancestor's `C_sub`.
        let t = self.tree.columns();
        let times = &mut self.times;
        if dr != 0.0 {
            for &k in &t.preorder[l..e] {
                times.path_r[k as usize] += dr;
            }
        }
        if dc != 0.0 {
            times.add_down_cap(t, p, dc);
        }
    }

    /// Repairs the engine after [`RcTree::apply`] grafted nodes
    /// `n_old..` (carrying `c_add` of new capacitance) under node `gp`,
    /// with the engine's columns already re-derived: new contributions to
    /// `C_T` and `T_P`, base times for the new nodes seeded from the graft
    /// parent's flattened value (ids put parents first), then one
    /// root-path correction shared by old and new nodes alike.
    fn repair_graft(&mut self, gp: usize, n_old: usize, c_add: f64) {
        let t = self.tree.columns();
        let n = t.len();
        let times = &mut self.times;
        times.total_cap += c_add;
        times.td_base.resize(n, 0.0);
        times.trn_base.resize(n, 0.0);
        for k in n_old..n {
            let pk = t.parent[k] as usize;
            let r = t.branch_r[k];
            let cl = t.branch_c[k];
            let (r_pp, r_cc) = (times.path_r[pk], times.path_r[k]);
            let d = times.down_cap[k];
            times.t_p += t.node_cap[k] * r_cc + cl * (r_pp + r / 2.0);
            times.td_base[k] = times.td_base[pk] + r * (d + cl / 2.0);
            times.trn_base[k] =
                times.trn_base[pk] + (r_cc + r_pp) * r * d + cl * (r_pp * r + r * r / 3.0);
        }
        times.td_lazy = Fenwick::new(n);
        times.trn_lazy = Fenwick::new(n);
        // Every subtree capacitance from the graft parent up grew by
        // `c_add`.
        self.root_path_add(gp, c_add);
    }
}

/// Drops the elements of `v` whose flag in `doomed` is set, keeping order.
fn retain<T>(v: &mut Vec<T>, doomed: &[bool]) {
    let mut doomed = doomed.iter();
    v.retain(|_| !doomed.next().expect("one flag per element"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;
    use crate::units::Ohms;

    /// Asserts that the incremental state matches a from-scratch rebuild of
    /// the same node table at every node: 1e-9 relative, with an absolute
    /// floor of `1e-12 × <whole-tree scale>` absorbing the ±Δ rounding
    /// residue the lazy difference arrays can leave at exactly-zero nodes.
    fn assert_matches_rebuild(eco: &EditableTree) {
        let rebuilt = eco.tree().rebuild();
        assert!(
            rebuilt.preorder().eq(eco.tree().preorder()),
            "pre-order drifted"
        );
        let oracle = BatchTimes::of(&rebuilt).expect("rebuilt tree analyses");
        let close = |g: f64, w: f64, scale: f64| (g - w).abs() <= 1e-9 * w.abs().max(1e-3 * scale);
        let time_scale = oracle.t_p().value();
        for node in rebuilt.node_ids() {
            let want = oracle.times(node).unwrap();
            let got = eco.characteristic_times(node).unwrap();
            for (g, w) in [
                (got.t_p, want.t_p),
                (got.t_d, want.t_d),
                (got.t_r, want.t_r),
            ] {
                assert!(
                    close(g.value(), w.value(), time_scale),
                    "node {node}: got {g:?}, want {w:?}"
                );
            }
            assert!(
                close(
                    got.r_ee.value(),
                    want.r_ee.value(),
                    rebuilt.total_resistance().value()
                ),
                "node {node}"
            );
            assert!(close(
                got.total_cap.value(),
                want.total_cap.value(),
                rebuilt.total_capacitance().value()
            ));
        }
    }

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
    /// ids are not in pre-order and the intervals are not id ranges.
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
    fn fixtures() -> [RcTree; 2] {
        [branching_tree(), branching_tree_breadth_first()]
    }

    #[test]
    fn fenwick_range_add_point_query_and_drain() {
        let mut f = Fenwick::new(10);
        f.range_add(2, 7, 1.5);
        f.range_add(0, 10, -0.5);
        f.range_add(6, 10, 2.0);
        let expect = |i: usize| {
            let mut v = -0.5;
            if (2..7).contains(&i) {
                v += 1.5;
            }
            if i >= 6 {
                v += 2.0;
            }
            v
        };
        for i in 0..10 {
            assert!((f.point(i) - expect(i)).abs() < 1e-15, "point {i}");
        }
        let pts = f.drain_points();
        for (i, p) in pts.iter().enumerate() {
            assert!((p - expect(i)).abs() < 1e-15, "drained {i}");
        }
        for i in 0..10 {
            assert_eq!(f.point(i), 0.0, "reset {i}");
        }
    }

    #[test]
    fn unedited_state_matches_batch_exactly() {
        for tree in fixtures() {
            let batch = BatchTimes::of(&tree).unwrap();
            let eco = EditableTree::new(tree);
            for node in eco.tree().node_ids() {
                assert_eq!(
                    eco.characteristic_times(node).unwrap(),
                    batch.times(node).unwrap(),
                    "node {node}"
                );
            }
            assert_eq!(eco.batch().unwrap(), batch);
        }
    }

    #[test]
    fn set_cap_tracks_the_rebuild_oracle() {
        for tree in fixtures() {
            let mut eco = EditableTree::new(tree);
            for (name, cap) in [("o", 1.0), ("s1", 20.0), ("a", 0.0), ("input", 3.0)] {
                let node = eco.tree().node_by_name(name).unwrap();
                eco.apply(&TreeEdit::SetCap {
                    node,
                    cap: Farads::new(cap),
                })
                .unwrap();
                assert_matches_rebuild(&eco);
            }
        }
    }

    #[test]
    fn set_branch_tracks_the_rebuild_oracle() {
        for tree in fixtures() {
            let mut eco = EditableTree::new(tree);
            let edits = [
                ("s1", Branch::resistor(Ohms::new(80.0))),
                ("a", Branch::line(Ohms::new(1.0), Farads::new(6.0))),
                ("o", Branch::resistor(Ohms::new(3.0))), // line -> resistor
                ("s2", Branch::line(Ohms::new(7.5), Farads::new(0.1))),
            ];
            for (name, branch) in edits {
                let node = eco.tree().node_by_name(name).unwrap();
                eco.apply(&TreeEdit::SetBranch { node, branch }).unwrap();
                assert_matches_rebuild(&eco);
            }
        }
    }

    #[test]
    fn a_value_edit_writes_one_row_and_keeps_the_preorder() {
        for tree in fixtures() {
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
        for tree in fixtures() {
            graft_and_prune_on(tree);
        }
    }

    fn graft_and_prune_on(tree: RcTree) {
        let mut eco = EditableTree::new(tree);

        let mut gb = RcTreeBuilder::with_input_name("g0");
        let g1 = gb.add_resistor(gb.input(), "g1", Ohms::new(4.0)).unwrap();
        gb.add_capacitance(g1, Farads::new(1.25)).unwrap();
        gb.add_capacitance(gb.input(), Farads::new(0.5)).unwrap();
        gb.mark_output(g1).unwrap();
        let graft = gb.build().unwrap();

        let parent = eco.tree().node_by_name("s1").unwrap();
        eco.apply(&TreeEdit::GraftSubtree {
            parent,
            via: Branch::line(Ohms::new(2.0), Farads::new(0.75)),
            subtree: Box::new(graft),
        })
        .unwrap();
        assert_eq!(eco.tree().node_count(), 7);
        assert!(eco.tree().node_by_name("g1").is_ok());
        assert_matches_rebuild(&eco);

        // Prune the original deep branch; ids are re-resolved by name.
        let prune = eco.tree().node_by_name("s2").unwrap();
        eco.apply(&TreeEdit::PruneSubtree { node: prune }).unwrap();
        assert!(eco.tree().node_by_name("s2").is_err());
        assert_eq!(eco.tree().node_count(), 6);
        assert_matches_rebuild(&eco);

        // Prune the grafted subtree again.
        let prune = eco.tree().node_by_name("g0").unwrap();
        eco.apply(&TreeEdit::PruneSubtree { node: prune }).unwrap();
        assert_eq!(eco.tree().node_count(), 4);
        assert_matches_rebuild(&eco);
    }

    #[test]
    fn invalid_edits_are_rejected_and_leave_state_unchanged() {
        let mut eco = EditableTree::new(branching_tree());
        let snapshot = eco.batch().unwrap();
        let o = eco.tree().node_by_name("o").unwrap();
        assert!(matches!(
            eco.apply(&TreeEdit::SetCap {
                node: NodeId(999),
                cap: Farads::new(1.0)
            }),
            Err(CoreError::NodeNotFound { .. })
        ));
        assert!(matches!(
            eco.apply(&TreeEdit::SetCap {
                node: o,
                cap: Farads::new(-1.0)
            }),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            eco.apply(&TreeEdit::SetBranch {
                node: NodeId::INPUT,
                branch: Branch::resistor(Ohms::new(1.0))
            }),
            Err(CoreError::CannotEditInput)
        ));
        assert!(matches!(
            eco.apply(&TreeEdit::PruneSubtree {
                node: NodeId::INPUT
            }),
            Err(CoreError::CannotEditInput)
        ));
        // Grafting a subtree whose name collides with the host.
        let mut gb = RcTreeBuilder::with_input_name("s1");
        gb.add_capacitance(gb.input(), Farads::new(1.0)).unwrap();
        assert!(matches!(
            eco.apply(&TreeEdit::GraftSubtree {
                parent: o,
                via: Branch::resistor(Ohms::new(1.0)),
                subtree: Box::new(gb.build().unwrap()),
            }),
            Err(CoreError::DuplicateName { .. })
        ));
        assert_eq!(eco.batch().unwrap(), snapshot);
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
            let mut eco = EditableTree::new(tree.clone());
            assert!(eco.tree().shares_table(&tree), "a clone shares its table");
            eco.apply(edit).unwrap();
            assert!(!eco.tree().shares_table(&tree), "{edit:?} copies the table");
            assert_eq!(format!("{:?}", tree.columns()), before, "{edit:?}");
            for (i, name) in names.iter().enumerate() {
                assert_eq!(tree.node_by_name(name).unwrap(), NodeId(i), "{edit:?}");
            }
            let rebuilt = eco.tree().rebuild();
            assert_eq!(*eco.tree(), rebuilt, "{edit:?}");
            if matches!(
                edit,
                TreeEdit::GraftSubtree { .. } | TreeEdit::PruneSubtree { .. }
            ) {
                // Structural edits re-derive: every column is exact.
                assert_eq!(
                    format!("{:?}", eco.tree().columns()),
                    format!("{:?}", rebuilt.columns()),
                    "{edit:?}"
                );
            }
            assert_matches_rebuild(&eco);
        }
        // A rejected edit copies nothing.
        let mut eco = EditableTree::new(tree.clone());
        let bad = TreeEdit::SetCap {
            node: node("o"),
            cap: Farads::new(-1.0),
        };
        assert!(eco.apply(&bad).is_err());
        assert!(eco.tree().shares_table(&tree));
    }

    #[test]
    fn capacitance_free_tree_is_editable_but_not_queryable() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(5.0)).unwrap();
        let mut eco = EditableTree::new(b.build().unwrap());
        assert!(matches!(
            eco.characteristic_times(n),
            Err(CoreError::NoCapacitance)
        ));
        assert!(matches!(eco.batch(), Err(CoreError::NoCapacitance)));
        eco.apply(&TreeEdit::SetCap {
            node: n,
            cap: Farads::new(2.0),
        })
        .unwrap();
        assert_matches_rebuild(&eco);
    }

    #[test]
    fn long_mixed_stream_stays_within_tolerance() {
        for tree in fixtures() {
            long_mixed_stream_on(tree);
        }
    }

    /// A deterministic worst-of-everything sequence on one tree.
    fn long_mixed_stream_on(tree: RcTree) {
        let mut eco = EditableTree::new(tree);
        for round in 0..30u32 {
            let n = eco.tree().node_count();
            let node = NodeId((round as usize * 7 + 1) % n);
            match round % 4 {
                0 => {
                    let cap = eco.tree().capacitance(node).unwrap();
                    eco.apply(&TreeEdit::SetCap {
                        node,
                        cap: cap * 1.5 + Farads::new(0.01),
                    })
                    .unwrap();
                }
                1 => {
                    if node != NodeId::INPUT {
                        let b = eco.tree().branch(node).unwrap().unwrap();
                        eco.apply(&TreeEdit::SetBranch {
                            node,
                            branch: Branch::line(
                                b.resistance() * 0.75 + Ohms::new(0.5),
                                b.capacitance() * 1.25 + Farads::new(0.02),
                            ),
                        })
                        .unwrap();
                    }
                }
                2 => {
                    let mut gb = RcTreeBuilder::with_input_name(format!("x{round}"));
                    let leaf = gb
                        .add_resistor(gb.input(), format!("y{round}"), Ohms::new(2.0))
                        .unwrap();
                    gb.add_capacitance(leaf, Farads::new(0.5)).unwrap();
                    eco.apply(&TreeEdit::GraftSubtree {
                        parent: node,
                        via: Branch::resistor(Ohms::new(1.0)),
                        subtree: Box::new(gb.build().unwrap()),
                    })
                    .unwrap();
                }
                _ => {
                    // Prune, but keep the tree non-trivial and capacitive.
                    let removed = eco.tree().subtree_capacitance(node).unwrap()
                        + eco
                            .tree()
                            .branch(node)
                            .unwrap()
                            .map_or(Farads::ZERO, |b| b.capacitance());
                    let total = eco.tree().total_capacitance();
                    let remaining = total - removed;
                    if eco.tree().node_count() > 4
                        && node != NodeId::INPUT
                        && remaining.value() > 1e-9 * total.value()
                    {
                        eco.apply(&TreeEdit::PruneSubtree { node }).unwrap();
                    }
                }
            }
            assert_matches_rebuild(&eco);
        }
    }
}
