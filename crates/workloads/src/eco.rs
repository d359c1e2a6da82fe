//! Seeded ECO edit-stream generation.
//!
//! The ECO paths (`RcTree::apply`, and through it `Design::apply_eco` and
//! the server's edits) need realistic edit traffic to be validated
//! against: single-capacitor tweaks (load changes), branch resizes
//! (driver/wire sizing bursts), subtree grafts (buffer insertion,
//! re-extraction) and prunes.  An [`EcoStream`] produces such a stream
//! deterministically from a seed, *against the evolving tree*: each call
//! to [`EcoStream::next_edit`] inspects the tree's current state, so the
//! stream stays valid across structural edits that renumber node ids.
//!
//! ```
//! use rctree_workloads::eco::{EcoStream, EcoStreamParams};
//! use rctree_workloads::htree::{h_tree, HTreeParams};
//!
//! let (mut tree, _) = h_tree(HTreeParams::default());
//! let mut stream = EcoStream::new(EcoStreamParams::default(), 7);
//! for _ in 0..20 {
//!     let edit = stream.next_edit(&tree);
//!     tree.apply(&edit).expect("generated edits are valid");
//! }
//! assert!(tree.total_capacitance().value() > 0.0);
//! ```

use rctree_core::builder::RcTreeBuilder;
use rctree_core::element::Branch;
use rctree_core::tree::{NodeId, RcTree, TreeEdit};
use rctree_core::units::{Farads, Ohms};

use crate::rng::Rng;

/// Shape of a generated edit stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcoStreamParams {
    /// Relative weight of single-capacitor tweaks.
    pub p_set_cap: f64,
    /// Relative weight of branch resizes.
    pub p_set_branch: f64,
    /// Relative weight of subtree grafts.
    pub p_graft: f64,
    /// Relative weight of subtree prunes.
    pub p_prune: f64,
    /// Multiplicative range applied to existing values (kept away from
    /// zero so repeated edits cannot cancel catastrophically).
    pub scale_range: (f64, f64),
    /// Maximum node count of a grafted chain.
    pub graft_nodes: usize,
}

impl Default for EcoStreamParams {
    fn default() -> Self {
        EcoStreamParams {
            p_set_cap: 0.55,
            p_set_branch: 0.25,
            p_graft: 0.12,
            p_prune: 0.08,
            scale_range: (0.25, 4.0),
            graft_nodes: 3,
        }
    }
}

/// A deterministic, stateful generator of [`TreeEdit`]s.
///
/// The same `(params, seed)` pair fed the same sequence of tree states
/// produces the same edits.  Generated edits are always valid for the tree
/// they were generated against: prunes never target the input, never
/// remove the tree's entire capacitance, and grafted names are fresh.
#[derive(Debug, Clone)]
pub struct EcoStream {
    rng: Rng,
    params: EcoStreamParams,
    /// Monotone counter behind fresh graft node names.
    fresh: usize,
}

impl EcoStream {
    /// Creates a stream from the given seed.
    pub fn new(params: EcoStreamParams, seed: u64) -> Self {
        EcoStream {
            rng: Rng::from_seed(seed),
            params,
            fresh: 0,
        }
    }

    /// Generates the next edit against the tree's current state.
    pub fn next_edit(&mut self, tree: &RcTree) -> TreeEdit {
        let weights = [
            self.params.p_set_cap,
            self.params.p_set_branch,
            self.params.p_graft,
            self.params.p_prune,
        ];
        let total: f64 = weights.iter().sum();
        let mut roll = self.rng.uniform() * total.max(f64::MIN_POSITIVE);
        let mut op = 0;
        for (k, w) in weights.iter().enumerate() {
            if roll < *w {
                op = k;
                break;
            }
            roll -= w;
        }
        match op {
            1 => self.set_branch(tree).unwrap_or_else(|| self.set_cap(tree)),
            2 => self.graft(tree),
            3 => self.prune(tree).unwrap_or_else(|| self.set_cap(tree)),
            _ => self.set_cap(tree),
        }
    }

    /// A node-capacitance scale well away from degenerate values.
    fn scale(&mut self) -> f64 {
        let (lo, hi) = self.params.scale_range;
        self.rng.range_f64(lo, hi)
    }

    fn pick_node(&mut self, tree: &RcTree) -> NodeId {
        let idx = self.rng.index(tree.node_count());
        tree.node_ids().nth(idx).expect("index in range")
    }

    /// A representative capacitance for nodes that currently carry none.
    fn typical_cap(tree: &RcTree) -> f64 {
        let avg = tree.total_capacitance().value() / tree.node_count() as f64;
        if avg > 0.0 {
            avg
        } else {
            1e-15
        }
    }

    fn set_cap(&mut self, tree: &RcTree) -> TreeEdit {
        let node = self.pick_node(tree);
        let old = tree.capacitance(node).expect("valid node").value();
        let base = if old > 0.0 {
            old
        } else {
            Self::typical_cap(tree)
        };
        TreeEdit::SetCap {
            node,
            cap: Farads::new(base * self.scale()),
        }
    }

    fn set_branch(&mut self, tree: &RcTree) -> Option<TreeEdit> {
        if tree.node_count() < 2 {
            return None;
        }
        let idx = 1 + self.rng.index(tree.node_count() - 1);
        let node = tree.node_ids().nth(idx).expect("index in range");
        let old = tree.branch(node).expect("valid node").expect("non-input");
        let r = Ohms::new(old.resistance().value().max(1e-3) * self.scale());
        // Dropping a line's distributed capacitance may not drain the
        // tree's entire capacitance (the analysis would become undefined).
        let drop_keeps_capacitance = {
            let total = tree.total_capacitance().value();
            total - old.capacitance().value() > 1e-6 * total
        };
        // Occasionally flip the element kind (re-extraction changing a
        // lumped resistor into a distributed line or back).
        let branch = if self.rng.chance(0.25) {
            match old {
                Branch::Resistor { .. } => {
                    Branch::line(r, Farads::new(Self::typical_cap(tree) * self.scale()))
                }
                Branch::Line { .. } if drop_keeps_capacitance => Branch::resistor(r),
                Branch::Line { capacitance, .. } => Branch::line(
                    r,
                    Farads::new(capacitance.value().max(1e-18) * self.scale()),
                ),
            }
        } else {
            match old {
                Branch::Resistor { .. } => Branch::resistor(r),
                Branch::Line { capacitance, .. } => Branch::line(
                    r,
                    Farads::new(capacitance.value().max(1e-18) * self.scale()),
                ),
            }
        };
        Some(TreeEdit::SetBranch { node, branch })
    }

    fn graft(&mut self, tree: &RcTree) -> TreeEdit {
        let parent = self.pick_node(tree);
        // Fresh, collision-free name prefix.
        let mut tag = self.fresh;
        while tree.node_by_name(&format!("eco{tag}_0")).is_ok() {
            tag += 1;
        }
        self.fresh = tag + 1;

        let typical = Self::typical_cap(tree);
        let typical_r = {
            let avg = tree.total_resistance().value() / tree.branch_count().max(1) as f64;
            if avg > 0.0 {
                avg
            } else {
                10.0
            }
        };
        let nodes = 1 + self.rng.index(self.params.graft_nodes.max(1));
        let mut b = RcTreeBuilder::with_input_name(format!("eco{tag}_0"));
        b.add_capacitance(b.input(), Farads::new(typical * self.scale()))
            .expect("generated values are valid");
        let mut cur = b.input();
        for j in 1..nodes {
            let r = Ohms::new(typical_r * self.scale());
            let name = format!("eco{tag}_{j}");
            cur = if self.rng.chance(0.4) {
                b.add_line(cur, name, r, Farads::new(typical * self.scale()))
            } else {
                b.add_resistor(cur, name, r)
            }
            .expect("generated values are valid");
            if self.rng.chance(0.7) {
                b.add_capacitance(cur, Farads::new(typical * self.scale()))
                    .expect("generated values are valid");
            }
        }
        if self.rng.chance(0.5) {
            b.mark_output(cur).expect("valid node");
        }
        TreeEdit::GraftSubtree {
            parent,
            via: Branch::line(
                Ohms::new(typical_r * self.scale()),
                Farads::new(if self.rng.chance(0.5) {
                    typical * self.scale()
                } else {
                    0.0
                }),
            ),
            subtree: Box::new(b.build().expect("grafted chain always has capacitance")),
        }
    }

    fn prune(&mut self, tree: &RcTree) -> Option<TreeEdit> {
        let n = tree.node_count();
        if n < 3 {
            return None;
        }
        let total = tree.total_capacitance().value();
        for _ in 0..4 {
            let idx = 1 + self.rng.index(n - 1);
            let node = tree.node_ids().nth(idx).expect("index in range");
            let removed = tree.subtree_capacitance(node).expect("valid node").value()
                + tree
                    .branch(node)
                    .expect("valid node")
                    .map_or(0.0, |b| b.capacitance().value());
            let small_enough = tree.subtree_size(node).expect("valid node") <= n / 2;
            let keeps_capacitance = total - removed > 1e-6 * total;
            if small_enough && keeps_capacitance {
                return Some(TreeEdit::PruneSubtree { node });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::htree::{h_tree, HTreeParams};
    use crate::random::RandomTreeConfig;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let make = |seed| {
            let mut tree = RandomTreeConfig::default().generate(3);
            let mut stream = EcoStream::new(EcoStreamParams::default(), seed);
            let mut log = Vec::new();
            for _ in 0..25 {
                let edit = stream.next_edit(&tree);
                log.push(format!("{edit:?}"));
                tree.apply(&edit).expect("generated edits are valid");
            }
            (log, tree)
        };
        let (log_a, tree_a) = make(11);
        let (log_b, tree_b) = make(11);
        assert_eq!(log_a, log_b);
        assert_eq!(tree_a, tree_b);
        let (log_c, _) = make(12);
        assert_ne!(log_a, log_c);
    }

    #[test]
    fn generated_edits_keep_trees_valid_and_capacitive() {
        let (mut tree, _) = h_tree(HTreeParams {
            levels: 3,
            ..HTreeParams::default()
        });
        let mut stream = EcoStream::new(EcoStreamParams::default(), 42);
        for step in 0..120 {
            let edit = stream.next_edit(&tree);
            tree.apply(&edit)
                .unwrap_or_else(|e| panic!("step {step}: {e} for {edit:?}"));
            assert!(
                tree.total_capacitance().value() > 0.0,
                "step {step} drained all capacitance"
            );
        }
    }
}
