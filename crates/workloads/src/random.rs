//! Seeded random RC-tree generation.
//!
//! Property-based tests and the validity experiments ("the exact response
//! always lies between the bounds") need a large supply of structurally
//! diverse RC trees.  [`RandomTreeConfig`] generates them reproducibly from
//! a seed: every non-input node attaches to a uniformly chosen existing
//! node, branches are randomly lumped resistors or distributed lines, and
//! every leaf is marked as an output.

use rctree_core::builder::RcTreeBuilder;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms};

use crate::rng::Rng;

/// Configuration for the random tree generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomTreeConfig {
    /// Number of nodes to generate (excluding the input).
    pub nodes: usize,
    /// Probability that a branch is a distributed line rather than a lumped
    /// resistor.
    pub line_probability: f64,
    /// Resistance range for branches (Ω).
    pub resistance_range: (f64, f64),
    /// Capacitance range for node capacitors and line capacitances (F).
    pub capacitance_range: (f64, f64),
    /// Probability that a node carries a lumped capacitor.
    pub capacitor_probability: f64,
    /// If `true`, attach each new node to the previously created node with
    /// 50% probability (producing deeper trees); otherwise attach uniformly.
    pub prefer_chains: bool,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            nodes: 20,
            line_probability: 0.4,
            resistance_range: (1.0, 1000.0),
            capacitance_range: (1e-15, 1e-12),
            capacitor_probability: 0.7,
            prefer_chains: true,
        }
    }
}

impl RandomTreeConfig {
    /// Generates a tree from the given seed.
    ///
    /// The same `(config, seed)` pair always produces the same tree.  At
    /// least one capacitor is guaranteed (so the tree is always analysable)
    /// and every leaf is marked as an output.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or a range is inverted.
    pub fn generate(&self, seed: u64) -> RcTree {
        assert!(self.nodes > 0, "need at least one node");
        assert!(
            self.resistance_range.0 <= self.resistance_range.1
                && self.capacitance_range.0 <= self.capacitance_range.1,
            "ranges must be ordered"
        );
        let mut rng = Rng::from_seed(seed);
        let mut b = RcTreeBuilder::new();
        let mut ids = vec![b.input()];
        // Per node id: whether a later node hangs on it.
        let mut has_child = vec![false];

        for i in 1..=self.nodes {
            let parent = if self.prefer_chains && rng.chance(0.5) {
                *ids.last().expect("non-empty")
            } else {
                ids[rng.index(ids.len())]
            };
            let r = Ohms::new(rng.range_f64(self.resistance_range.0, self.resistance_range.1));
            let name = format!("n{i}");
            let node = if rng.chance(self.line_probability) {
                let c =
                    Farads::new(rng.range_f64(self.capacitance_range.0, self.capacitance_range.1));
                b.add_line(parent, name, r, c)
                    .expect("generated values are valid")
            } else {
                b.add_resistor(parent, name, r)
                    .expect("generated values are valid")
            };
            if rng.chance(self.capacitor_probability) {
                let c =
                    Farads::new(rng.range_f64(self.capacitance_range.0, self.capacitance_range.1));
                b.add_capacitance(node, c)
                    .expect("generated values are valid");
            }
            ids.push(node);
            has_child[parent.index()] = true;
            has_child.push(false);
        }

        // Guarantee at least one capacitor so the analysis never degenerates.
        let last = *ids.last().expect("non-empty");
        b.add_capacitance(
            last,
            Farads::new(self.capacitance_range.1.max(self.capacitance_range.0)),
        )
        .expect("generated values are valid");

        // Mark every leaf as an output; if the tree is a single chain the
        // last node is the only leaf.
        for (&id, &inner) in ids.iter().zip(&has_child).skip(1) {
            if !inner {
                b.mark_output(id).expect("valid node");
            }
        }
        b.build().expect("at least one capacitor exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::moments::{characteristic_times, characteristic_times_direct};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = RandomTreeConfig::default();
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert_eq!(a, b);
        let c = cfg.generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_trees_have_requested_size_and_outputs() {
        let cfg = RandomTreeConfig {
            nodes: 50,
            ..RandomTreeConfig::default()
        };
        let tree = cfg.generate(7);
        assert_eq!(tree.node_count(), 51);
        assert!(tree.outputs().count() >= 1);
        assert!(tree.total_capacitance().value() > 0.0);
    }

    #[test]
    fn every_output_satisfies_the_ordering_invariant() {
        for seed in 0..20 {
            let tree = RandomTreeConfig::default().generate(seed);
            for out in tree.outputs().collect::<Vec<_>>() {
                let t = characteristic_times(&tree, out).unwrap();
                assert!(t.satisfies_ordering(), "seed {seed}");
            }
        }
    }

    #[test]
    fn fast_and_direct_algorithms_agree_on_random_trees() {
        for seed in 0..10 {
            let tree = RandomTreeConfig {
                nodes: 30,
                ..RandomTreeConfig::default()
            }
            .generate(seed);
            for out in tree.outputs().collect::<Vec<_>>() {
                let fast = characteristic_times(&tree, out).unwrap();
                let slow = characteristic_times_direct(&tree, out).unwrap();
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
                assert!(
                    rel(fast.t_p.value(), slow.t_p.value()) < 1e-9,
                    "seed {seed}"
                );
                assert!(
                    rel(fast.t_d.value(), slow.t_d.value()) < 1e-9,
                    "seed {seed}"
                );
                assert!(
                    rel(fast.t_r.value(), slow.t_r.value()) < 1e-9,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn pure_resistor_trees_can_be_generated() {
        let cfg = RandomTreeConfig {
            line_probability: 0.0,
            capacitor_probability: 1.0,
            ..RandomTreeConfig::default()
        };
        let tree = cfg.generate(3);
        // No distributed branches at all.
        for id in tree.node_ids() {
            if let Some(branch) = tree.branch(id).unwrap() {
                assert!(!branch.is_distributed());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = RandomTreeConfig {
            nodes: 0,
            ..RandomTreeConfig::default()
        }
        .generate(1);
    }
}
