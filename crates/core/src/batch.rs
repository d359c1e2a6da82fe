//! Characteristic times of **every** node of an RC tree in `O(n)` total.
//!
//! The paper's central selling point is that `T_P`, `T_De` and `T_Re` are
//! cheap enough to compute for *every* output of a large MOS net.  The
//! per-output routines in [`crate::moments`] are linear in the tree size, so
//! analysing `m` outputs with them costs `O(n·m)` — quadratic on exactly the
//! multi-sink clock-tree and PLA workloads the paper targets (Figs. 10–13).
//!
//! [`BatchTimes`] removes the extra factor: a few passes over the base
//! columns of an [`RcTree`], in id order, produce the characteristic times
//! of all `n` nodes at once, after which any output's signature is an
//! `O(1)` lookup.
//!
//! # Algorithm
//!
//! A tree's ids put every parent before its children, so a forward pass
//! over ids carries the path resistance `R_kk` down every edge and a
//! backward pass accumulates the subtree capacitance `C_sub(v)` under every
//! node.  A second forward pass then carries the Elmore delay and the
//! `T_Re` numerator `N(e) = Σ_k R_ke²·C_k` across each edge `p → c` with
//! branch resistance `r` and distributed capacitance `c_ℓ`:
//!
//! ```text
//! T_De(c) = T_De(p) + r·(C_sub(c) + c_ℓ/2)
//! N(c)    = N(p) + (R_cc + R_pp)·r·C_sub(c) + c_ℓ·(R_pp·r + r²/3)
//! ```
//!
//! The first recurrence is the classical Elmore prefix sum.  The second
//! follows from splitting the capacitors by position: for `k` outside the
//! subtree of `c`, `R_kc = R_kp` (the common path cannot reach below `p`);
//! for `k` inside it, `R_kc = R_cc` while `R_kp = R_pp`, contributing
//! `(R_cc² − R_pp²)·C_k = (R_cc + R_pp)·r·C_k`; and the slice integral over
//! the edge's own uniform line contributes
//! `c_ℓ·(R_pp² + R_pp·r + r²/3) − c_ℓ·R_pp²`.  `T_P = Σ R_kk·C_k` does not
//! depend on the output at all and is computed once and shared.
//!
//! Total cost: `O(n)` time and four `Vec` allocations (`R_kk`, kept as
//! `R_ee`, `C_sub`, `T_De` and `T_Re`), no per-output work — an
//! asymptotic win over calling
//! [`characteristic_times`](crate::moments::characteristic_times) in a
//! loop (kept, together with
//! [`characteristic_times_direct`](crate::moments::characteristic_times_direct),
//! as independent oracles; the `batch_equivalence` suite checks agreement to
//! 1e-9 relative on every workload generator).
//!
//! This is the one kernel: [`BatchTimes::of`] runs it over a tree's
//! columns, and [`BatchTimes::of_preorder`] and [`Scratch::sweep`] over
//! spliced arrays.  An edited tree ([`RcTree::apply`]) is re-timed by
//! running it again: one `O(n)` sweep of the edited net.
//!
//! ```
//! use rctree_core::batch::BatchTimes;
//! use rctree_core::builder::RcTreeBuilder;
//! use rctree_core::units::{Farads, Ohms};
//!
//! # fn main() -> rctree_core::error::Result<()> {
//! let mut b = RcTreeBuilder::new();
//! let stem = b.add_resistor(b.input(), "stem", Ohms::new(100.0))?;
//! let x = b.add_resistor(stem, "x", Ohms::new(50.0))?;
//! let y = b.add_resistor(stem, "y", Ohms::new(200.0))?;
//! b.add_capacitance(x, Farads::from_pico(0.1))?;
//! b.add_capacitance(y, Farads::from_pico(0.2))?;
//! b.mark_output(x)?;
//! b.mark_output(y)?;
//! let tree = b.build()?;
//!
//! let batch = BatchTimes::of(&tree)?;           // O(n), covers every node
//! let tx = batch.times(x)?;                     // O(1) per lookup
//! let ty = batch.times(y)?;
//! assert_eq!(tx.t_p, ty.t_p);                   // T_P is output-independent
//! assert!(ty.t_d > tx.t_d);
//! # Ok(())
//! # }
//! ```

use crate::algebra::{DelayValue, Poly2, SymbolicTimes};
use crate::error::{CoreError, Result};
use crate::moments::CharacteristicTimes;
use crate::tree::{NodeId, RcTree};
use crate::units::{Farads, Ohms, Seconds};

/// `R_kk` of every node in one forward pass over a parent-before-child
/// order: `R(i) = R(parent(i)) + r_i`, with `R(0) = 0`.
fn path_resistances<V: DelayValue>(parent: &[u32], branch_r: &[f64], path_r: &mut Vec<V>) {
    path_r.clear();
    path_r.resize(parent.len(), V::zero());
    for i in 1..parent.len() {
        path_r[i] = path_r[parent[i] as usize].add(&V::from_r(branch_r[i]));
    }
}

/// `C_sub` of every node in one backward pass over a parent-before-child
/// order: the node's lumped capacitor plus, per child in descending order,
/// the child's `C_sub` and the line capacitance of the branch feeding it.
pub(crate) fn subtree_caps<V: DelayValue>(
    parent: &[u32],
    branch_c: &[f64],
    node_cap: &[f64],
    down_cap: &mut Vec<V>,
) {
    down_cap.clear();
    down_cap.extend(node_cap.iter().map(|&c| V::from_c(c)));
    for i in (1..parent.len()).rev() {
        let p = parent[i] as usize;
        down_cap[p] = down_cap[p].add(&down_cap[i].add(&V::from_c(branch_c[i])));
    }
}

/// Divides each `T_Re` numerator by its node's `R_ee`, in place.
///
/// # Errors
///
/// [`CoreError::NoPathResistance`] at the first node with a nonzero
/// numerator and no path resistance.
fn normalise<V: DelayValue>(t_r: &mut [V], path_r: &[V]) -> Result<()> {
    for (i, num) in t_r.iter_mut().enumerate() {
        if num.is_zero() {
            // No capacitor shares any resistance with this node.
        } else if path_r[i].is_zero() {
            return Err(CoreError::NoPathResistance { output: NodeId(i) });
        } else {
            match num.div_exact(&path_r[i]) {
                Some(v) => *num = v,
                // Unreachable for kernel-produced values: the divisor is a
                // path resistance, which every instance's divisor class
                // covers (f64: nonzero scalar; Poly2: the r-monomial).
                None => {
                    return Err(CoreError::InvalidValue {
                        what: "path-resistance divisor",
                        value: i as f64,
                    })
                }
            }
        }
    }
    Ok(())
}

/// The one kernel, written once over the [delay algebra](crate::algebra):
/// validation, `C_T`, one forward pass for `R_kk`, one backward pass for
/// `C_sub`, then the `T_P` / `T_De` / `T_Re`-numerator passes and the
/// in-place `T_Re` normalisation, filling the caller's buffers and
/// returning `(T_P, C_T)`.
///
/// Instantiated at `f64` this **is** the scalar kernel: every operation
/// maps onto the identical native float operation in the identical order
/// (see the bit-identity contract in [`crate::algebra`]).  Instantiated at
/// [`Poly2`] the same traversal yields every characteristic time as a
/// polynomial in the uniform `(r, c)` scale factors.
#[allow(clippy::too_many_arguments)]
fn sweep_algebra<V: DelayValue>(
    parent: &[u32],
    branch_r: &[f64],
    branch_c: &[f64],
    node_cap: &[f64],
    path_r: &mut Vec<V>,
    down_cap: &mut Vec<V>,
    t_d: &mut Vec<V>,
    t_r: &mut Vec<V>,
) -> Result<(V, V)> {
    let n = parent.len();
    let invalid = |what, value| Err(CoreError::InvalidValue { what, value });
    if n == 0 || branch_r.len() != n || branch_c.len() != n || node_cap.len() != n {
        return invalid("pre-order array length", n as f64);
    }
    if parent[0] != 0 {
        return invalid("pre-order root parent", parent[0] as f64);
    }
    // The root has no feeding element; a nonzero root branch would make
    // the total-capacitance and T_P accumulations inconsistent.
    if branch_r[0] != 0.0 {
        return invalid("pre-order root branch resistance", branch_r[0]);
    }
    if branch_c[0] != 0.0 {
        return invalid("pre-order root branch capacitance", branch_c[0]);
    }
    for (i, &p) in parent.iter().enumerate().skip(1) {
        if p as usize >= i {
            return invalid("pre-order parent index", p as f64);
        }
    }
    // Total capacitance exactly as `RcTree::total_capacitance`: the lumped
    // sum and the distributed sum are accumulated separately (in id order)
    // and added at the end.
    let mut lumped = V::zero();
    for &c in node_cap {
        lumped = lumped.add(&V::from_c(c));
    }
    let mut distributed = V::zero();
    for &c in &branch_c[1..] {
        distributed = distributed.add(&V::from_c(c));
    }
    let total_cap = lumped.add(&distributed);

    path_resistances(parent, branch_r, path_r);
    subtree_caps(parent, branch_c, node_cap, down_cap);
    let mut t_p = V::zero();
    for i in 0..n {
        let p = parent[i] as usize;
        let term = V::from_c(node_cap[i])
            .mul(&path_r[i])
            .add(&V::from_c(branch_c[i]).mul(&path_r[p].add(&V::from_r(branch_r[i]).div(2.0))));
        t_p = t_p.add(&term);
    }
    // Carry T_De and the T_Re numerator down every edge; a parent comes
    // before its children, so its values are final when they are read.
    t_d.clear();
    t_d.resize(n, V::zero());
    t_r.clear();
    t_r.resize(n, V::zero());
    for i in 1..n {
        let p = parent[i] as usize;
        let r = V::from_r(branch_r[i]);
        let c_line = V::from_c(branch_c[i]);
        let c_sub = down_cap[i].clone();
        let (r_pp, r_cc) = (path_r[p].clone(), path_r[i].clone());
        t_d[i] = t_d[p].add(&r.mul(&c_sub.add(&c_line.div(2.0))));
        t_r[i] = t_r[p]
            .add(&r_cc.add(&r_pp).mul(&r).mul(&c_sub))
            .add(&c_line.mul(&r_pp.mul(&r).add(&r.mul(&r).div(3.0))));
    }
    if total_cap.is_zero() {
        return Err(CoreError::NoCapacitance);
    }
    normalise(t_r, path_r)?;
    Ok((t_p, total_cap))
}

/// Characteristic times of every node of one tree, computed in `O(n)`.
///
/// Obtain one with [`BatchTimes::of`]; query any node with
/// [`BatchTimes::times`] (an `O(1)` lookup).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTimes {
    /// `T_P = Σ R_kk·C_k`, identical for every output.
    pub(crate) t_p: f64,
    /// Total network capacitance `C_T`.
    pub(crate) total_cap: f64,
    /// Per-node path resistance `R_ee`.
    pub(crate) r_ee: Vec<f64>,
    /// Per-node Elmore delay `T_De`.
    pub(crate) t_d: Vec<f64>,
    /// Per-node rise time `T_Re`.
    pub(crate) t_r: Vec<f64>,
}

impl BatchTimes {
    /// Computes the characteristic times of all nodes of `tree` in a few
    /// linear passes over its base columns in id order:
    /// [`BatchTimes::of_preorder`] on the tree's parent and element
    /// columns.  Node ids index the result.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoCapacitance`] if the tree carries no capacitance
    ///   (`T_Re` is undefined everywhere);
    /// * [`CoreError::NoPathResistance`] if a node with a nonzero `T_Re`
    ///   numerator has no resistance to the input (unreachable for trees the
    ///   builder accepts, since `R_ke ≤ R_ee` forces the numerator to zero
    ///   with `R_ee`; kept as a defensive check).
    pub fn of(tree: &RcTree) -> Result<Self> {
        let t = tree.columns();
        Self::of_preorder(&t.parent, &t.branch_r, &t.branch_c, &t.node_cap)
    }

    /// Computes the characteristic times of an ad-hoc tree given as flat
    /// arrays, without constructing an [`RcTree`].
    ///
    /// The nodes may come in any order that puts every parent before its
    /// children (`parent[i] < i` for every non-root node, `parent[0] ==
    /// 0`) — a depth-first pre-order, or a tree's own id order;
    /// `branch_r`/`branch_c` describe the element feeding node `i` from its
    /// parent (both zero for the root), and `node_cap` is the lumped
    /// grounded capacitance at the node.
    ///
    /// This is the allocation-light kernel behind the static-timing layer's
    /// stage evaluation: a driver resistor and sink load capacitances can be
    /// spliced around an interconnect tree as plain array entries, skipping
    /// the name-validating builder entirely.  [`BatchTimes::of`] is this
    /// function on a tree's columns, so arrays that list a tree's nodes in
    /// the same order give **bit-identical** results: both run the one
    /// generic kernel (see [`crate::algebra`]), whose `f64` instantiation
    /// *is* the scalar kernel.  Every sum over nodes runs in array order,
    /// so a different order of the same nodes may round differently.  The
    /// `rctree-sta` stage tests pin the splice against `analyze_stage`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidValue`] if the arrays disagree in length, are
    ///   empty, or `parent` does not put every parent first;
    /// * [`CoreError::NoCapacitance`] / [`CoreError::NoPathResistance`] as
    ///   for [`BatchTimes::of`] (node ids in the latter refer to array
    ///   positions).
    pub fn of_preorder(
        parent: &[u32],
        branch_r: &[f64],
        branch_c: &[f64],
        node_cap: &[f64],
    ) -> Result<Self> {
        let (mut path_r, mut down_cap) = (Vec::new(), Vec::new());
        let (mut t_d, mut t_r) = (Vec::new(), Vec::new());
        let (t_p, total_cap) = sweep_algebra::<f64>(
            parent,
            branch_r,
            branch_c,
            node_cap,
            &mut path_r,
            &mut down_cap,
            &mut t_d,
            &mut t_r,
        )?;
        Ok(BatchTimes {
            t_p,
            total_cap,
            r_ee: path_r,
            t_d,
            t_r,
        })
    }

    /// Number of analysed nodes (every node of the source tree).
    pub fn node_count(&self) -> usize {
        self.r_ee.len()
    }

    /// `T_P`, the output-independent characteristic time.
    pub fn t_p(&self) -> Seconds {
        Seconds::new(self.t_p)
    }

    /// Total capacitance `C_T` of the network.
    pub fn total_capacitance(&self) -> Farads {
        Farads::new(self.total_cap)
    }

    /// Elmore delay `T_De` of one node (`O(1)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` is out of range.
    pub fn elmore_delay(&self, node: NodeId) -> Result<Seconds> {
        self.check(node)?;
        Ok(Seconds::new(self.t_d[node.index()]))
    }

    /// The complete signature of one node (`O(1)` — assembles the same
    /// [`CharacteristicTimes`] the per-output algorithms produce).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `node` is out of range.
    pub fn times(&self, node: NodeId) -> Result<CharacteristicTimes> {
        self.check(node)?;
        let i = node.index();
        CharacteristicTimes::new(
            Seconds::new(self.t_p),
            Seconds::new(self.t_d[i]),
            Seconds::new(self.t_r[i]),
            Ohms::new(self.r_ee[i]),
            Farads::new(self.total_cap),
        )
    }

    /// The complete signature of the node at a raw index (`O(1)`).
    ///
    /// Equivalent to [`BatchTimes::times`]; useful with
    /// [`BatchTimes::of_preorder`], whose nodes are addressed by array
    /// position rather than by a tree's [`NodeId`]s.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `index` is out of range.
    pub fn times_at(&self, index: usize) -> Result<CharacteristicTimes> {
        self.times(NodeId(index))
    }

    /// Signatures of every node, indexed by [`NodeId::index`].
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`CharacteristicTimes::new`]
    /// (unreachable for values this engine produces).
    pub fn all_times(&self) -> Result<Vec<CharacteristicTimes>> {
        (0..self.node_count())
            .map(|i| self.times(NodeId(i)))
            .collect()
    }

    fn check(&self, node: NodeId) -> Result<()> {
        if node.index() < self.r_ee.len() {
            Ok(())
        } else {
            Err(CoreError::NodeNotFound { node })
        }
    }
}

/// Reusable buffers for repeated [`BatchTimes::of_preorder`]-shaped sweeps
/// over one [delay algebra](crate::algebra).
///
/// Sweeping a million small nets through [`BatchTimes::of_preorder`] pays
/// four `Vec` allocations per net.  A `Scratch` owns those buffers once per
/// worker; [`Scratch::sweep`] runs the *identical* float sequence (the one
/// generic kernel: same validation, same accumulation order — pinned
/// bit-identical by a unit test) and returns a borrowed [`View`] for
/// `O(1)` per-node lookups, so the steady-state sweep allocates nothing.
///
/// At `f64` ([`BatchScratch`]) a view yields [`CharacteristicTimes`].  At
/// [`Poly2`] ([`SymbolicScratch`]) the input arrays carry the *nominal*
/// element values and the algebra's injectors attach the symbolic scale to
/// each element (`x` ohms becomes `x·r`, `y` farads becomes `y·c`), so one
/// traversal yields every node's characteristic times as polynomials in the
/// uniform resistance/capacitance scale factors `(r, c)`.  Because the
/// kernel is shared and `Poly2` coefficient arithmetic applies the
/// identical scalar operations cellwise, evaluating any result at `(1, 1)`
/// reproduces the scalar sweep's nominal value **bit-for-bit** (pinned by a
/// test below), and evaluating at any `(r, c)` agrees with a scalar sweep
/// of pre-scaled arrays to rounding.
#[derive(Debug, Clone)]
pub struct Scratch<V> {
    path_r: Vec<V>,
    down_cap: Vec<V>,
    t_d: Vec<V>,
    t_r: Vec<V>,
}

/// The result of one [`Scratch::sweep`], borrowing the scratch buffers:
/// per-node characteristic times in the scratch's algebra.  At `f64` it is
/// equivalent to the [`BatchTimes`] of the same arrays.
#[derive(Debug)]
pub struct View<'a, V> {
    t_p: V,
    total_cap: V,
    r_ee: &'a [V],
    t_d: &'a [V],
    t_r: &'a [V],
}

/// The scalar sweep scratch.
pub type BatchScratch = Scratch<f64>;
/// The result of one [`BatchScratch::sweep`].
pub type BatchView<'a> = View<'a, f64>;
/// The symbolic (`Poly2`) sweep scratch.
pub type SymbolicScratch = Scratch<Poly2>;
/// The result of one [`SymbolicScratch::sweep`]: per-node
/// characteristic-time polynomials in `(r, c)`.
pub type SymbolicView<'a> = View<'a, Poly2>;

impl<V> Default for Scratch<V> {
    fn default() -> Self {
        Scratch {
            path_r: Vec::new(),
            down_cap: Vec::new(),
            t_d: Vec::new(),
            t_r: Vec::new(),
        }
    }
}

impl<V: DelayValue> Scratch<V> {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Runs the [`BatchTimes::of_preorder`] sweep over parent-first arrays
    /// (nominal element values), reusing this scratch's buffers instead of
    /// allocating.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`BatchTimes::of_preorder`] on the same
    /// inputs, in the same detection order.
    pub fn sweep<'a>(
        &'a mut self,
        parent: &[u32],
        branch_r: &[f64],
        branch_c: &[f64],
        node_cap: &[f64],
    ) -> Result<View<'a, V>> {
        let Scratch {
            path_r,
            down_cap,
            t_d,
            t_r,
        } = self;
        let (t_p, total_cap) = sweep_algebra::<V>(
            parent, branch_r, branch_c, node_cap, path_r, down_cap, t_d, t_r,
        )?;
        Ok(View {
            t_p,
            total_cap,
            r_ee: path_r,
            t_d,
            t_r,
        })
    }
}

impl<V> View<'_, V> {
    /// Number of analysed nodes.
    pub fn node_count(&self) -> usize {
        self.r_ee.len()
    }

    fn check(&self, index: usize) -> Result<()> {
        if index < self.r_ee.len() {
            Ok(())
        } else {
            Err(CoreError::NodeNotFound {
                node: NodeId(index),
            })
        }
    }
}

impl View<'_, f64> {
    /// The complete signature of the node at an array index (`O(1)`) —
    /// the same [`CharacteristicTimes`] that [`BatchTimes::times_at`]
    /// yields for these arrays.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `index` is out of range.
    pub fn times_at(&self, index: usize) -> Result<CharacteristicTimes> {
        self.check(index)?;
        CharacteristicTimes::new(
            Seconds::new(self.t_p),
            Seconds::new(self.t_d[index]),
            Seconds::new(self.t_r[index]),
            Ohms::new(self.r_ee[index]),
            Farads::new(self.total_cap),
        )
    }
}

impl View<'_, Poly2> {
    /// The complete symbolic signature of the node at an array index
    /// (`O(1)` — copies five small coefficient grids).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NodeNotFound`] if `index` is out of range.
    pub fn times_at(&self, index: usize) -> Result<SymbolicTimes> {
        self.check(index)?;
        Ok(SymbolicTimes {
            t_p: self.t_p,
            t_d: self.t_d[index],
            t_r: self.t_r[index],
            r_ee: self.r_ee[index],
            total_cap: self.total_cap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RcTreeBuilder;
    use crate::moments::{characteristic_times, characteristic_times_direct};

    fn branching_tree_with_lines() -> RcTree {
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

    /// The same network inserted breadth-first: `o` gets an id before
    /// `s2`, so the ids are not in pre-order.
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
        b.build().unwrap()
    }

    #[test]
    fn matches_per_output_oracles_on_every_node() {
        let breadth_first = branching_tree_breadth_first();
        let ids: Vec<usize> = breadth_first.preorder().map(NodeId::index).collect();
        assert_eq!(ids, [0, 1, 2, 4, 3], "ids out of pre-order");
        for tree in [branching_tree_with_lines(), breadth_first] {
            let batch = BatchTimes::of(&tree).unwrap();
            for node in tree.node_ids() {
                let one = characteristic_times(&tree, node).unwrap();
                let direct = characteristic_times_direct(&tree, node).unwrap();
                let got = batch.times(node).unwrap();
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
                for (g, want) in [
                    (got.t_p, one.t_p),
                    (got.t_d, one.t_d),
                    (got.t_r, one.t_r),
                    (got.t_p, direct.t_p),
                    (got.t_d, direct.t_d),
                    (got.t_r, direct.t_r),
                ] {
                    assert!(rel(g.value(), want.value()) < 1e-12, "node {node}");
                }
                assert_eq!(got.r_ee, one.r_ee);
                assert_eq!(got.total_cap, one.total_cap);
            }
        }
    }

    #[test]
    fn input_node_has_zero_delay_and_rise_time() {
        let tree = branching_tree_with_lines();
        let batch = BatchTimes::of(&tree).unwrap();
        let t = batch.times(tree.input()).unwrap();
        assert_eq!(t.t_d, Seconds::ZERO);
        assert_eq!(t.t_r, Seconds::ZERO);
        assert!(t.t_p.value() > 0.0);
    }

    #[test]
    fn ordering_holds_at_every_node() {
        let tree = branching_tree_with_lines();
        let batch = BatchTimes::of(&tree).unwrap();
        for t in batch.all_times().unwrap() {
            assert!(t.satisfies_ordering());
        }
    }

    #[test]
    fn no_capacitance_is_an_error() {
        let mut b = RcTreeBuilder::new();
        let n = b.add_resistor(b.input(), "n", Ohms::new(1.0)).unwrap();
        b.mark_output(n).unwrap();
        let tree = b.build().unwrap();
        assert!(matches!(
            BatchTimes::of(&tree),
            Err(CoreError::NoCapacitance)
        ));
    }

    #[test]
    fn zero_resistance_branch_keeps_t_r_zero() {
        // A 0 Ω output next to a resistive side branch: Σ R_ke² C_k is zero,
        // so T_Re must be 0 rather than an error (mirrors the per-output
        // behaviour).
        let mut b = RcTreeBuilder::new();
        let out = b
            .add_line(b.input(), "out", Ohms::ZERO, Farads::ZERO)
            .unwrap();
        let far = b.add_resistor(b.input(), "far", Ohms::new(5.0)).unwrap();
        b.add_capacitance(far, Farads::new(1.0)).unwrap();
        b.add_capacitance(out, Farads::new(1.0)).unwrap();
        b.mark_output(out).unwrap();
        let tree = b.build().unwrap();
        let batch = BatchTimes::of(&tree).unwrap();
        let t = batch.times(out).unwrap();
        assert_eq!(t.t_r, Seconds::ZERO);
        assert_eq!(t.t_d, Seconds::ZERO);
    }

    #[test]
    fn of_preorder_is_bit_identical_to_the_builder_path() {
        // The builder inserts nodes in pre-order here, so ids equal
        // pre-order positions and the flat kernel must reproduce the exact
        // float sequence of the tree-based sweep.
        let tree = branching_tree_with_lines();
        let cache = tree.columns();
        let n = tree.node_count();
        assert_eq!(
            cache.preorder,
            (0..n as u32).collect::<Vec<_>>(),
            "test tree must be inserted in pre-order"
        );
        let flat = BatchTimes::of_preorder(
            &cache.parent,
            &cache.branch_r,
            &cache.branch_c,
            &cache.node_cap,
        )
        .unwrap();
        assert_eq!(flat, BatchTimes::of(&tree).unwrap());
    }

    #[test]
    fn of_preorder_rejects_malformed_inputs() {
        let ok = |p: &[u32]| BatchTimes::of_preorder(p, &[0.0; 3], &[0.0; 3], &[1.0; 3]);
        assert!(matches!(
            BatchTimes::of_preorder(&[], &[], &[], &[]),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            BatchTimes::of_preorder(&[0, 0], &[0.0], &[0.0, 0.0], &[1.0, 1.0]),
            Err(CoreError::InvalidValue { .. })
        ));
        // Root must be its own parent; parents must precede children.
        assert!(matches!(
            ok(&[1, 0, 1]),
            Err(CoreError::InvalidValue { .. })
        ));
        // The root carries no feeding element: a nonzero root branch would
        // silently skew the C_T / T_P accumulations.
        assert!(matches!(
            BatchTimes::of_preorder(&[0, 0], &[3.0, 5.0], &[0.0, 0.0], &[1.0, 1.0]),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            BatchTimes::of_preorder(&[0, 0], &[0.0, 5.0], &[2.0, 0.0], &[1.0, 1.0]),
            Err(CoreError::InvalidValue { .. })
        ));
        assert!(matches!(
            ok(&[0, 2, 1]),
            Err(CoreError::InvalidValue { .. })
        ));
        // A capacitance-free network is rejected like `of`.
        assert!(matches!(
            BatchTimes::of_preorder(&[0, 0], &[0.0, 5.0], &[0.0, 0.0], &[0.0, 0.0]),
            Err(CoreError::NoCapacitance)
        ));
    }

    #[test]
    fn scratch_sweep_is_bit_identical_to_of_preorder() {
        let tree = branching_tree_with_lines();
        let cache = tree.columns();
        let batch = BatchTimes::of_preorder(
            &cache.parent,
            &cache.branch_r,
            &cache.branch_c,
            &cache.node_cap,
        )
        .unwrap();
        let mut scratch = BatchScratch::new();
        // Pollute the scratch with an unrelated sweep first: reuse must not
        // leak state between nets.
        scratch
            .sweep(&[0, 0], &[0.0, 7.0], &[0.0, 0.0], &[3.0, 4.0])
            .unwrap();
        let view = scratch
            .sweep(
                &cache.parent,
                &cache.branch_r,
                &cache.branch_c,
                &cache.node_cap,
            )
            .unwrap();
        assert_eq!(view.node_count(), batch.node_count());
        for i in 0..batch.node_count() {
            assert_eq!(view.times_at(i).unwrap(), batch.times_at(i).unwrap());
        }
        assert!(matches!(
            view.times_at(999),
            Err(CoreError::NodeNotFound { .. })
        ));
    }

    #[test]
    fn scratch_sweep_rejects_malformed_inputs_like_of_preorder() {
        type Case<'a> = (&'a [u32], &'a [f64], &'a [f64], &'a [f64]);
        let mut scratch = BatchScratch::new();
        let cases: [Case; 6] = [
            (&[], &[], &[], &[]),
            (&[0, 0], &[0.0], &[0.0, 0.0], &[1.0, 1.0]),
            (&[1, 0, 1], &[0.0; 3], &[0.0; 3], &[1.0; 3]),
            (&[0, 0], &[3.0, 5.0], &[0.0, 0.0], &[1.0, 1.0]),
            (&[0, 0], &[0.0, 5.0], &[2.0, 0.0], &[1.0, 1.0]),
            (&[0, 0], &[0.0, 5.0], &[0.0, 0.0], &[0.0, 0.0]),
        ];
        for (parent, r, c, cap) in cases {
            let want = BatchTimes::of_preorder(parent, r, c, cap).unwrap_err();
            let got = scratch.sweep(parent, r, c, cap).map(|_| ()).unwrap_err();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn symbolic_sweep_at_nominal_is_bit_identical_to_scalar_sweep() {
        // Evaluating the Poly2 lane at (1, 1) must reproduce the scalar
        // kernel's exact bits: the generic kernel applies the identical
        // scalar operations cellwise and Horner evaluation at 1.0 returns
        // the lone coefficient unchanged.
        let tree = branching_tree_with_lines();
        let cache = tree.columns();
        let mut scratch = BatchScratch::new();
        let want = scratch
            .sweep(
                &cache.parent,
                &cache.branch_r,
                &cache.branch_c,
                &cache.node_cap,
            )
            .unwrap();
        let mut sym = SymbolicScratch::new();
        let view = sym
            .sweep(
                &cache.parent,
                &cache.branch_r,
                &cache.branch_c,
                &cache.node_cap,
            )
            .unwrap();
        assert_eq!(view.node_count(), want.node_count());
        for i in 0..want.node_count() {
            let s = view.times_at(i).unwrap();
            let w = want.times_at(i).unwrap();
            assert_eq!(s.t_p.eval(1.0, 1.0), w.t_p.value(), "node {i}");
            assert_eq!(s.t_d.eval(1.0, 1.0), w.t_d.value(), "node {i}");
            assert_eq!(s.t_r.eval(1.0, 1.0), w.t_r.value(), "node {i}");
            assert_eq!(s.r_ee.eval(1.0, 1.0), w.r_ee.value(), "node {i}");
            assert_eq!(s.total_cap.eval(1.0, 1.0), w.total_cap.value(), "node {i}");
        }
        assert!(matches!(
            view.times_at(999),
            Err(CoreError::NodeNotFound { .. })
        ));
    }

    #[test]
    fn symbolic_sweep_evaluates_to_the_scaled_scalar_sweep() {
        // Poly2 at (r, c) must agree with the scalar kernel run on arrays
        // pre-scaled by (r, c) — the materialized-corner contract, to
        // rounding.
        let tree = branching_tree_with_lines();
        let cache = tree.columns();
        let mut sym = SymbolicScratch::new();
        // Pollute the scratch first: reuse must not leak state.
        sym.sweep(&[0, 0], &[0.0, 7.0], &[0.0, 0.0], &[3.0, 4.0])
            .unwrap();
        let view = sym
            .sweep(
                &cache.parent,
                &cache.branch_r,
                &cache.branch_c,
                &cache.node_cap,
            )
            .unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        for &(rs, cs) in &[(1.3, 1.2), (0.8, 0.9), (2.5, 0.4)] {
            let branch_r: Vec<f64> = cache.branch_r.iter().map(|&r| r * rs).collect();
            let branch_c: Vec<f64> = cache.branch_c.iter().map(|&c| c * cs).collect();
            let node_cap: Vec<f64> = cache.node_cap.iter().map(|&c| c * cs).collect();
            let mut scratch = BatchScratch::new();
            let want = scratch
                .sweep(&cache.parent, &branch_r, &branch_c, &node_cap)
                .unwrap();
            for i in 0..want.node_count() {
                let s = view.times_at(i).unwrap();
                let w = want.times_at(i).unwrap();
                assert!(rel(s.t_p.eval(rs, cs), w.t_p.value()) < 1e-12);
                assert!(rel(s.t_d.eval(rs, cs), w.t_d.value()) < 1e-12);
                assert!(rel(s.t_r.eval(rs, cs), w.t_r.value()) < 1e-12);
                assert!(rel(s.r_ee.eval(rs, cs), w.r_ee.value()) < 1e-12);
                assert!(rel(s.total_cap.eval(rs, cs), w.total_cap.value()) < 1e-12);
            }
        }
    }

    #[test]
    fn symbolic_sweep_rejects_malformed_inputs_like_of_preorder() {
        type Case<'a> = (&'a [u32], &'a [f64], &'a [f64], &'a [f64]);
        let mut sym = SymbolicScratch::new();
        let cases: [Case; 6] = [
            (&[], &[], &[], &[]),
            (&[0, 0], &[0.0], &[0.0, 0.0], &[1.0, 1.0]),
            (&[1, 0, 1], &[0.0; 3], &[0.0; 3], &[1.0; 3]),
            (&[0, 0], &[3.0, 5.0], &[0.0, 0.0], &[1.0, 1.0]),
            (&[0, 0], &[0.0, 5.0], &[2.0, 0.0], &[1.0, 1.0]),
            (&[0, 0], &[0.0, 5.0], &[0.0, 0.0], &[0.0, 0.0]),
        ];
        for (parent, r, c, cap) in cases {
            let want = BatchTimes::of_preorder(parent, r, c, cap).unwrap_err();
            let got = sym.sweep(parent, r, c, cap).map(|_| ()).unwrap_err();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn unknown_node_is_rejected() {
        let tree = branching_tree_with_lines();
        let batch = BatchTimes::of(&tree).unwrap();
        assert!(matches!(
            batch.times(NodeId(999)),
            Err(CoreError::NodeNotFound { .. })
        ));
        assert!(matches!(
            batch.elmore_delay(NodeId(999)),
            Err(CoreError::NodeNotFound { .. })
        ));
    }

    #[test]
    fn accessors_report_whole_network_quantities() {
        let tree = branching_tree_with_lines();
        let batch = BatchTimes::of(&tree).unwrap();
        assert_eq!(batch.node_count(), tree.node_count());
        assert_eq!(batch.total_capacitance(), tree.total_capacitance());
        let any = batch.times(tree.input()).unwrap();
        assert_eq!(batch.t_p(), any.t_p);
    }
}
