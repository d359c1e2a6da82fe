//! Incremental (ECO) re-analysis of mutable RC trees.
//!
//! The paper's pitch is that `T_P`, `T_De` and `T_Re` are cheap enough to
//! recompute *constantly* during design iteration.  The one-shot engine in
//! [`crate::batch`] delivers that for a frozen tree, but an engineering
//! change order (ECO) loop — resize a driver, tweak a load, re-query the
//! slack, repeat — pays the full `O(n)` rebuild on every edit.  This module
//! removes that cost.  [`RcTree::apply`] validates one [`TreeEdit`] delta
//! locally and writes it into the tree's column table, patching the derived
//! columns a value edit moves; an [`EditableTree`] wraps it with an
//! [`IncrementalTimes`] engine whose characteristic-time state is repaired
//! instead of recomputed.  The table is shared with every clone of the tree
//! until the first accepted edit copies it (`Arc::make_mut`); a rejected
//! edit copies and changes nothing.
//!
//! # How the delta propagates
//!
//! Both per-node quantities are sums of per-edge weights along the unique
//! root→node path (the pre-order recurrence of [`crate::batch`]):
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
//! nodes *below* that edge — which, thanks to the tree's pre-order subtree
//! intervals, is one contiguous slice of pre-order positions.  The engine
//! therefore stores each node's time as
//!
//! ```text
//! value(k) = base[k] + lazy(pre_index[k])
//! ```
//!
//! where `lazy` is a Fenwick tree over pre-order positions supporting
//! `O(log n)` subtree-range add and `O(log n)` point query.  `T_P` and
//! `C_T` are maintained as running sums.  [`RcTree::apply`] patches the
//! tree's `C_sub` column along the root path (and, for a resistance change,
//! the path-resistance column over the subtree).
//!
//! # Complexity
//!
//! | Edit | Numeric work | Index work |
//! |------|--------------|------------|
//! | [`TreeEdit::SetCap`] | `O(depth · log n)` | `O(depth)` |
//! | [`TreeEdit::SetBranch`] | `O(depth · log n + |subtree| · log n)` | `O(|subtree|)` |
//! | [`TreeEdit::GraftSubtree`] | `O(depth · log n + |subtree|)` | `O(n)` append + re-derive |
//! | [`TreeEdit::PruneSubtree`] | `O(depth · log n + |subtree|)` | `O(n)` compact + re-derive |
//! | query ([`EditableTree::characteristic_times`]) | `O(log n)` | — |
//!
//! Structural edits append to or compact the base columns and re-run the
//! tree's derivation pass ([`RcTree::rebuild`]'s two passes over ids) — a
//! few machine ops per node — while the engine's floating-point work stays
//! proportional to the dirty region.  The first edit on a shared tree also
//! pays one `O(n)` copy of its table.  The one-shot
//! [`BatchTimes`](crate::batch::BatchTimes) is a facade over [`raw_times`],
//! the same recurrence this engine uses to seed its state.
//!
//! # Invariants
//!
//! * The base columns are always exact: edits write the new element values
//!   directly, so a [`RcTree::rebuild`] produces a bit-exact from-scratch
//!   oracle at any point.
//! * Graft and prune re-derive the derived columns exactly.  After value
//!   edits the patched columns (`path_r`, `down_cap`) and, always, the
//!   engine state equal a from-scratch rebuild up to floating-point
//!   accumulation order; the
//!   `incremental_equivalence` suite pins the agreement to 1e-9 relative
//!   after every edit of seeded streams over every workload generator
//!   (with an absolute floor of `1e-12 × T_P`: the difference-array lazy
//!   structure stores `±Δ` pairs in separate accumulators, so a node whose
//!   true value is exactly zero can read back an `eps`-scale residue).
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

use crate::batch::BatchTimes;
use crate::builder::check_value;
use crate::element::Branch;
use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::tree::{line_bit, NodeId, NodeTable, RcTree, LINE, OUTPUT};
use crate::units::{Farads, Seconds};

/// Raw (un-normalised) characteristic-time state of every node: the shared
/// computation underneath both the one-shot
/// [`BatchTimes`](crate::batch::BatchTimes) facade and the incremental
/// engine.  `t_r_num` holds the `Σ R_ke²·C_k` numerators before division by
/// `R_ee`.
pub(crate) struct RawTimes {
    pub(crate) t_p: f64,
    pub(crate) total_cap: f64,
    pub(crate) t_d: Vec<f64>,
    pub(crate) t_r_num: Vec<f64>,
}

/// Computes the raw characteristic times of every node in one pass over the
/// tree's columns (the former body of `BatchTimes::of`, shared so the
/// incremental engine seeds from the identical float sequence).
pub(crate) fn raw_times(tree: &RcTree) -> RawTimes {
    let cache = tree.traversal();
    let n = cache.preorder.len();

    // C_T via the tree's own summation (bit-identical to the value the
    // per-output oracles embed), T_P in one pass over the flat arrays.
    let total_cap = tree.total_capacitance().value();
    let mut t_p = 0.0_f64;
    for i in 0..n {
        let p = cache.parent[i] as usize;
        t_p += cache.node_cap[i] * cache.path_r[i]
            + cache.branch_c[i] * (cache.path_r[p] + cache.branch_r[i] / 2.0);
    }

    // Pre-order pass: carry T_De and the Σ R_ke²·C_k numerator down every
    // root→node edge.
    let mut t_d = vec![0.0_f64; n];
    let mut t_r_num = vec![0.0_f64; n];
    for &c in &cache.preorder[1..] {
        let c = c as usize;
        let p = cache.parent[c] as usize;
        let r = cache.branch_r[c];
        let c_line = cache.branch_c[c];
        let c_sub = cache.down_cap[c];
        let (r_pp, r_cc) = (cache.path_r[p], cache.path_r[c]);
        t_d[c] = t_d[p] + r * (c_sub + c_line / 2.0);
        t_r_num[c] = t_r_num[p] + (r_cc + r_pp) * r * c_sub + c_line * (r_pp * r + r * r / 3.0);
    }

    RawTimes {
        t_p,
        total_cap,
        t_d,
        t_r_num,
    }
}

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
/// refactored heart of [`BatchTimes`](crate::batch::BatchTimes) whose
/// subtree-capacitance and prefix-sum arrays stay resident and are
/// *repaired* on each edit instead of recomputed.
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
}

impl RcTree {
    /// Applies one edit to the tree's columns: the base values the edit
    /// names, then the derived columns — patched for a value edit (the
    /// subtree capacitances up the root path, and for a branch-resistance
    /// change the path resistances of the edited subtree), re-derived for a
    /// graft or prune.  The table is copied first if another handle shares
    /// it, so every other handle keeps the pre-edit tree.
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
            TreeEdit::SetCap { node, cap } => {
                let i = node.index();
                let delta = cap.value() - t.node_cap[i];
                t.node_cap[i] = cap.value();
                if delta != 0.0 {
                    add_down_cap(t, i, delta);
                }
            }
            TreeEdit::SetBranch { node, branch } => {
                let i = node.index();
                let (new_r, new_c) = (branch.resistance().value(), branch.capacitance().value());
                let (dr, dc) = (new_r - t.branch_r[i], new_c - t.branch_c[i]);
                t.branch_r[i] = new_r;
                t.branch_c[i] = new_c;
                t.flags[i] = (t.flags[i] & !LINE) | line_bit(branch);
                if dr != 0.0 {
                    // Path resistances below the edge shift by `dr`: one
                    // contiguous pre-order slice.
                    let (l, e) = t.interval(i);
                    for pos in l..e {
                        let k = t.preorder[pos] as usize;
                        t.path_r[k] += dr;
                    }
                }
                if dc != 0.0 {
                    // The line's own distributed capacitance sits in every
                    // ancestor's subtree capacitance.
                    add_down_cap(t, t.parent[i] as usize, dc);
                }
            }
            TreeEdit::GraftSubtree {
                parent,
                via,
                subtree,
            } => {
                // Subtree node `j` becomes host node `n_old + j`; its input
                // hangs on `parent` through `via`, so it is the parent's
                // last child.
                let sub = subtree.traversal();
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
                t.derive();
            }
            TreeEdit::PruneSubtree { node } => {
                // Surviving ids shift down past the holes, in order, so
                // every parent stays below its child.
                let doomed = subtree_mask(t, node.index());
                let new_id: Vec<u32> = doomed
                    .iter()
                    .scan(0, |next, &d| {
                        let id = *next;
                        *next += u32::from(!d);
                        Some(id)
                    })
                    .collect();
                // Compact the base columns in order, re-interning the
                // surviving names, and re-derive.
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
                t.derive();
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
                let host = &self.traversal().names;
                let sub = &subtree.traversal().names;
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
    /// Wraps a tree, seeding the incremental engine with one `O(n)` sweep
    /// (the same recurrence as [`BatchTimes::of`](crate::batch::BatchTimes::of)).
    pub fn new(tree: RcTree) -> Self {
        let raw = raw_times(&tree);
        let n = tree.node_count();
        EditableTree {
            times: IncrementalTimes {
                t_p: raw.t_p,
                total_cap: raw.total_cap,
                td_base: raw.t_d,
                trn_base: raw.t_r_num,
                td_lazy: Fenwick::new(n),
                trn_lazy: Fenwick::new(n),
            },
            tree,
        }
    }

    /// The current state of the tree (base columns always exact; derived
    /// columns patched or re-derived).
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
                let delta = cap.value() - self.tree.traversal().node_cap[i];
                self.tree.apply(edit)?;
                if delta != 0.0 {
                    self.times.total_cap += delta;
                    self.times.t_p += self.tree.traversal().path_r[i] * delta;
                    // Every edge on the root path carries the extra
                    // capacitance: its weight change reaches exactly the
                    // nodes below it (one pre-order interval each).
                    self.root_path_add(i, delta);
                }
            }
            TreeEdit::SetBranch { node, .. } => {
                let i = node.index();
                let t = self.tree.traversal();
                let old = (t.branch_r[i], t.branch_c[i]);
                self.tree.apply(edit)?;
                self.repair_branch(i, old);
            }
            TreeEdit::GraftSubtree {
                parent,
                via,
                subtree,
            } => {
                // Pre-order positions are about to shift: fold the lazy
                // offsets into the base arrays first.
                self.flatten();
                let n_old = self.tree.node_count();
                self.tree.apply(edit)?;
                let c_add = subtree.traversal().down_cap[0] + via.capacitance().value();
                self.repair_graft(parent.index(), n_old, c_add);
            }
            TreeEdit::PruneSubtree { node } => {
                self.flatten();
                let i = node.index();
                let t = self.tree.traversal();
                let (l, e) = t.interval(i);
                let c_rem = t.down_cap[i] + t.branch_c[i];
                // Numeric removals, against the pre-edit columns.
                for &k in &t.preorder[l..e] {
                    let k = k as usize;
                    let pk = t.parent[k] as usize;
                    self.times.t_p -= t.node_cap[k] * t.path_r[k]
                        + t.branch_c[k] * (t.path_r[pk] + t.branch_r[k] / 2.0);
                }
                self.times.total_cap -= c_rem;
                let doomed = subtree_mask(t, i);
                // Ids below `i` survive unchanged, the parent's included.
                let parent = t.parent[i] as usize;
                self.tree.apply(edit)?;
                retain(&mut self.times.td_base, &doomed);
                retain(&mut self.times.trn_base, &doomed);
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
        let cache = self.tree.traversal();
        let pos = cache.pre_index[i] as usize;
        // Clamp away the tiny negative residue that cancelling deltas can
        // leave where the true value is zero.
        let t_d = (self.times.td_base[i] + self.times.td_lazy.point(pos)).max(0.0);
        let num = (self.times.trn_base[i] + self.times.trn_lazy.point(pos)).max(0.0);
        let r_ee = cache.path_r[i];
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
        let pos = self.tree.traversal().pre_index[i] as usize;
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
        if self.times.total_cap <= 0.0 {
            return Err(CoreError::NoCapacitance);
        }
        let cache = self.tree.traversal();
        let n = cache.preorder.len();
        let mut t_d = vec![0.0_f64; n];
        let mut t_r_num = vec![0.0_f64; n];
        for i in 0..n {
            let pos = cache.pre_index[i] as usize;
            t_d[i] = (self.times.td_base[i] + self.times.td_lazy.point(pos)).max(0.0);
            t_r_num[i] = (self.times.trn_base[i] + self.times.trn_lazy.point(pos)).max(0.0);
        }
        BatchTimes::from_raw(
            RawTimes {
                t_p: self.times.t_p.max(0.0),
                total_cap: self.times.total_cap,
                t_d,
                t_r_num,
            },
            cache.path_r.clone(),
        )
    }

    /// Folds the lazy pre-order offsets into the base arrays and resets
    /// them; required before any edit that re-shapes the pre-order
    /// position space.
    fn flatten(&mut self) {
        let t = self.tree.traversal();
        let td_pts = self.times.td_lazy.drain_points();
        let trn_pts = self.times.trn_lazy.drain_points();
        for (i, &pos) in t.pre_index.iter().enumerate() {
            self.times.td_base[i] += td_pts[pos as usize];
            self.times.trn_base[i] += trn_pts[pos as usize];
        }
    }

    /// Adds the lazy `T_De` / `T_Re`-numerator offsets of `delta` more
    /// capacitance under every edge from node `a` up to the root.
    fn root_path_add(&mut self, mut a: usize, delta: f64) {
        let t = self.tree.traversal();
        while a != 0 {
            let p = t.parent[a] as usize;
            let r = t.branch_r[a];
            if r != 0.0 {
                let (l, e) = t.interval(a);
                self.times.td_lazy.range_add(l, e, r * delta);
                self.times
                    .trn_lazy
                    .range_add(l, e, (t.path_r[a] + t.path_r[p]) * r * delta);
            }
            a = p;
        }
    }

    /// Repairs the engine after [`RcTree::apply`] replaced the branch
    /// feeding node `i`, whose pre-edit resistance and line capacitance
    /// were `old`.  Every column the repair reads other than the edited
    /// branch is one the edit left unchanged.
    fn repair_branch(&mut self, i: usize, (old_r, old_c): (f64, f64)) {
        let t = self.tree.traversal();
        let (new_r, new_c) = (t.branch_r[i], t.branch_c[i]);
        let (dr, dc) = (new_r - old_r, new_c - old_c);
        if dr == 0.0 && dc == 0.0 {
            return;
        }
        let times = &mut self.times;
        let p = t.parent[i] as usize;
        let r_pp = t.path_r[p];
        let d = t.down_cap[i];
        times.t_p += dr * d + (new_c * (r_pp + new_r / 2.0) - old_c * (r_pp + old_r / 2.0));
        times.total_cap += dc;
        // The edited edge itself: both weights change for everything below.
        let (l, e) = t.interval(i);
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
            for pos in l + 1..e {
                let k = t.preorder[pos] as usize;
                let rk = t.branch_r[k];
                if rk != 0.0 {
                    let (kl, ke) = t.interval(k);
                    times.trn_lazy.range_add(
                        kl,
                        ke,
                        dr * rk * (2.0 * t.down_cap[k] + t.branch_c[k]),
                    );
                }
            }
        }
        if dc != 0.0 {
            self.root_path_add(p, dc);
        }
    }

    /// Repairs the engine after [`RcTree::apply`] grafted nodes
    /// `n_old..` (carrying `c_add` of new capacitance) under node `gp`:
    /// new contributions to `C_T` and `T_P`, base times for the new nodes
    /// seeded from the graft parent's flattened value (ids put parents
    /// first), then one root-path correction shared by old and new nodes
    /// alike.
    fn repair_graft(&mut self, gp: usize, n_old: usize, c_add: f64) {
        let t = self.tree.traversal();
        let n = t.len();
        let times = &mut self.times;
        times.total_cap += c_add;
        times.td_base.resize(n, 0.0);
        times.trn_base.resize(n, 0.0);
        for k in n_old..n {
            let pk = t.parent[k] as usize;
            let r = t.branch_r[k];
            let cl = t.branch_c[k];
            let (r_pp, r_cc) = (t.path_r[pk], t.path_r[k]);
            times.t_p += t.node_cap[k] * r_cc + cl * (r_pp + r / 2.0);
            times.td_base[k] = times.td_base[pk] + r * (t.down_cap[k] + cl / 2.0);
            times.trn_base[k] = times.trn_base[pk]
                + (r_cc + r_pp) * r * t.down_cap[k]
                + cl * (r_pp * r + r * r / 3.0);
        }
        times.td_lazy = Fenwick::new(n);
        times.trn_lazy = Fenwick::new(n);
        // Every subtree capacitance from the graft parent up grew by
        // `c_add`.
        self.root_path_add(gp, c_add);
    }
}

/// Adds `delta` to the subtree capacitance of node `a` and its ancestors.
fn add_down_cap(t: &mut NodeTable, mut a: usize, delta: f64) {
    loop {
        t.down_cap[a] += delta;
        if a == 0 {
            return;
        }
        a = t.parent[a] as usize;
    }
}

/// Per node id: whether the node lies in the subtree rooted at node `i`.
fn subtree_mask(t: &NodeTable, i: usize) -> Vec<bool> {
    let (l, e) = t.interval(i);
    t.pre_index
        .iter()
        .map(|&p| (l..e).contains(&(p as usize)))
        .collect()
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
        assert_eq!(
            rebuilt.preorder(),
            eco.tree().preorder(),
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
        let tree = branching_tree();
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

    #[test]
    fn set_cap_tracks_the_rebuild_oracle() {
        let mut eco = EditableTree::new(branching_tree());
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

    #[test]
    fn set_branch_tracks_the_rebuild_oracle() {
        let mut eco = EditableTree::new(branching_tree());
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

    #[test]
    fn graft_and_prune_track_the_rebuild_oracle() {
        let mut eco = EditableTree::new(branching_tree());

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
        let before = format!("{:?}", tree.traversal());
        for edit in &edits {
            let mut eco = EditableTree::new(tree.clone());
            assert!(eco.tree().shares_table(&tree), "a clone shares its table");
            eco.apply(edit).unwrap();
            assert!(!eco.tree().shares_table(&tree), "{edit:?} copies the table");
            assert_eq!(format!("{:?}", tree.traversal()), before, "{edit:?}");
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
                    format!("{:?}", eco.tree().traversal()),
                    format!("{:?}", rebuilt.traversal()),
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
        // A deterministic worst-of-everything sequence on one tree.
        let mut eco = EditableTree::new(branching_tree());
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
