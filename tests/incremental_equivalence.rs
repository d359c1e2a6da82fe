//! ECO edits against independent oracles: seeded edit streams over
//! **every** workload generator, asserting after **every**
//! `RcTree::apply` that
//!
//! * the edited tree keeps the pre-order of a from-scratch
//!   `RcTree::rebuild()`, and `BatchTimes::of` on it agrees with the
//!   per-output `characteristic_times_direct` to 1e-9 relative at every
//!   node;
//! * its rows equal a name-keyed model that applies each edit by name,
//!   bit for bit (parent, branch, capacitance and output mark);
//!
//! and that `Design::apply_eco` matches a full `Design::analyze` of the
//! edited design bit for bit.

use std::collections::BTreeMap;

use penfield_rubinstein::core::batch::BatchTimes;
use penfield_rubinstein::core::element::Branch;
use penfield_rubinstein::core::moments::characteristic_times_direct;
use penfield_rubinstein::core::tree::{RcTree, TreeEdit};
use penfield_rubinstein::core::units::{Farads, Ohms, Seconds};
use penfield_rubinstein::sta::{CellLibrary, Design, EcoEdit, EcoEditKind};
use penfield_rubinstein::workloads::eco::{EcoStream, EcoStreamParams};
use penfield_rubinstein::workloads::htree::HTreeParams;
use penfield_rubinstein::workloads::ladder::{distributed_line, rc_ladder, repeated_chain};
use penfield_rubinstein::workloads::{
    figure3_tree, figure7_tree, h_tree, representative_mos_fanout, Figure3Values, PlaLine,
    RandomTreeConfig, SpefDeckParams,
};

/// One tree from every generator family in `rctree-workloads`.
fn generators() -> Vec<(String, RcTree)> {
    let mut trees: Vec<(String, RcTree)> = vec![
        ("fig3".into(), figure3_tree(Figure3Values::default()).0),
        ("fig7".into(), figure7_tree().0),
        (
            "htree".into(),
            h_tree(HTreeParams {
                levels: 4,
                ..HTreeParams::default()
            })
            .0,
        ),
        (
            "ladder".into(),
            rc_ladder(Ohms::new(100.0), Farads::from_pico(1.0), 24).0,
        ),
        (
            "line".into(),
            distributed_line(Ohms::new(500.0), Farads::from_pico(0.4)).0,
        ),
        (
            "chain".into(),
            repeated_chain(Ohms::new(10.0), Farads::from_femto(50.0), 16),
        ),
        ("pla".into(), PlaLine::new(12).tree().0),
        ("mos".into(), representative_mos_fanout().0),
    ];
    for (seed, nodes, chains) in [(1u64, 24usize, true), (2, 40, false)] {
        trees.push((
            format!("random{seed}"),
            RandomTreeConfig {
                nodes,
                prefer_chains: chains,
                ..RandomTreeConfig::default()
            }
            .generate(seed),
        ));
    }
    let deck = SpefDeckParams {
        nets: 3,
        ..SpefDeckParams::default()
    };
    for (name, tree) in deck.trees(77) {
        trees.push((format!("deck/{name}"), tree));
    }
    trees
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-30)
}

/// The acceptance bar for an edited tree: its pre-order equals a
/// from-scratch rebuild's, and the batch kernel on it agrees with the
/// per-output direct algorithm to 1e-9 relative at every node.
fn assert_matches_oracle(tree: &RcTree, context: &str) {
    assert_eq!(
        tree.rebuild().preorder().collect::<Vec<_>>(),
        tree.preorder().collect::<Vec<_>>(),
        "{context}: the edited pre-order drifted from a rebuild"
    );
    let batch = BatchTimes::of(tree).expect("edited trees stay analysable");
    for node in tree.node_ids() {
        let got = batch.times(node).unwrap();
        let want = characteristic_times_direct(tree, node).expect("direct oracle");
        for (label, g, w) in [
            ("T_P", got.t_p.value(), want.t_p.value()),
            ("T_D", got.t_d.value(), want.t_d.value()),
            ("T_R", got.t_r.value(), want.t_r.value()),
            ("R_ee", got.r_ee.value(), want.r_ee.value()),
            ("C_T", got.total_cap.value(), want.total_cap.value()),
        ] {
            assert!(
                rel(g, w) < 1e-9,
                "{context}, node {node}: {label} {g} vs oracle {w}"
            );
        }
    }
}

#[test]
fn incremental_matches_rebuild_oracle_on_every_generator() {
    for (label, tree) in generators() {
        for stream_seed in [5u64, 6] {
            let mut tree = tree.clone();
            let mut stream = EcoStream::new(EcoStreamParams::default(), stream_seed);
            for step in 0..40 {
                let edit = stream.next_edit(&tree);
                tree.apply(&edit)
                    .unwrap_or_else(|e| panic!("{label} seed {stream_seed} step {step}: {e}"));
                assert_matches_oracle(&tree, &format!("{label}, seed {stream_seed}, step {step}"));
            }
        }
    }
}

/// One node as the model keeps it: its parent's name, its feeding branch
/// as `(is line, R bits, C bits)`, its capacitance's bits and its output
/// mark.  The input has neither parent nor branch.
type Row = (Option<String>, Option<(bool, u64, u64)>, u64, bool);

fn branch_bits(branch: Branch) -> (bool, u64, u64) {
    (
        matches!(branch, Branch::Line { .. }),
        branch.resistance().value().to_bits(),
        branch.capacitance().value().to_bits(),
    )
}

/// Every row of `tree`, keyed by node name, read through the public
/// accessors.
fn rows(tree: &RcTree) -> BTreeMap<String, Row> {
    let name = |node| tree.name(node).unwrap().to_string();
    tree.node_ids()
        .map(|node| {
            let row = (
                tree.parent(node).unwrap().map(name),
                tree.branch(node).unwrap().map(branch_bits),
                tree.capacitance(node).unwrap().value().to_bits(),
                tree.is_output(node).unwrap(),
            );
            (name(node), row)
        })
        .collect()
}

/// Applies `edit`, whose node ids refer to `tree`, to the name-keyed
/// model.
fn apply_to_model(model: &mut BTreeMap<String, Row>, tree: &RcTree, edit: &TreeEdit) {
    let name = |node| tree.name(node).unwrap().to_string();
    match edit {
        TreeEdit::SetCap { node, cap } => {
            model.get_mut(&name(*node)).unwrap().2 = cap.value().to_bits();
        }
        TreeEdit::SetBranch { node, branch } => {
            model.get_mut(&name(*node)).unwrap().1 = Some(branch_bits(*branch));
        }
        TreeEdit::GraftSubtree {
            parent,
            via,
            subtree,
        } => {
            // The subtree's rows, with its input hung on `parent` through
            // `via`.
            for (sub_name, mut row) in rows(subtree) {
                if row.0.is_none() {
                    row.0 = Some(name(*parent));
                    row.1 = Some(branch_bits(*via));
                }
                assert!(model.insert(sub_name, row).is_none(), "fresh name");
            }
        }
        TreeEdit::PruneSubtree { node } => {
            // The node and every row whose parent is already doomed, to a
            // fixed point.
            let mut doomed = vec![name(*node)];
            loop {
                let more: Vec<String> = model
                    .iter()
                    .filter(|(k, row)| {
                        !doomed.contains(k) && row.0.as_ref().is_some_and(|p| doomed.contains(p))
                    })
                    .map(|(k, _)| k.clone())
                    .collect();
                if more.is_empty() {
                    break;
                }
                doomed.extend(more);
            }
            for k in &doomed {
                model.remove(k);
            }
        }
    }
}

#[test]
fn apply_matches_a_name_keyed_model() {
    let mut trees: Vec<(String, RcTree)> = vec![(
        "htree".into(),
        h_tree(HTreeParams {
            levels: 4,
            ..HTreeParams::default()
        })
        .0,
    )];
    for (seed, nodes, chains) in [(3u64, 30usize, true), (4, 50, false)] {
        let config = RandomTreeConfig {
            nodes,
            prefer_chains: chains,
            ..RandomTreeConfig::default()
        };
        trees.push((format!("random{seed}"), config.generate(seed)));
    }
    let deck = SpefDeckParams {
        nets: 4,
        ..SpefDeckParams::default()
    };
    for (name, tree) in deck.trees(41) {
        trees.push((format!("deck/{name}"), tree));
    }
    for (label, tree) in &trees {
        for stream_seed in [1u64, 2, 3] {
            let mut tree = tree.clone();
            let mut model = rows(&tree);
            let mut stream = EcoStream::new(EcoStreamParams::default(), stream_seed);
            for step in 0..60 {
                let edit = stream.next_edit(&tree);
                apply_to_model(&mut model, &tree, &edit);
                tree.apply(&edit)
                    .unwrap_or_else(|e| panic!("{label} seed {stream_seed} step {step}: {e}"));
                assert_eq!(
                    rows(&tree),
                    model,
                    "{label}, seed {stream_seed}, step {step}: {edit:?}"
                );
            }
        }
    }
}

/// Translates a generated id-based edit into the name-based design-level
/// vocabulary.
fn to_eco_edit(net: &str, tree: &RcTree, edit: &TreeEdit) -> EcoEdit {
    let name = |node: &penfield_rubinstein::core::tree::NodeId| {
        tree.name(*node).expect("generated node exists").to_string()
    };
    let kind = match edit {
        TreeEdit::SetCap { node, cap } => EcoEditKind::SetCap {
            node: name(node),
            cap: *cap,
        },
        TreeEdit::SetBranch { node, branch } => EcoEditKind::SetBranch {
            node: name(node),
            branch: *branch,
        },
        TreeEdit::GraftSubtree {
            parent,
            via,
            subtree,
        } => EcoEditKind::Graft {
            parent: name(parent),
            via: *via,
            subtree: subtree.clone(),
        },
        TreeEdit::PruneSubtree { node } => EcoEditKind::Prune { node: name(node) },
    };
    EcoEdit {
        net: net.to_string(),
        kind,
    }
}

#[test]
fn design_apply_eco_matches_full_analyze() {
    let nets = SpefDeckParams {
        nets: 10,
        ..SpefDeckParams::default()
    }
    .trees(123);
    let mut design = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets.clone())
        .expect("generated deck builds");
    let budget = Seconds::from_nano(100.0);
    let threshold = 0.5;

    // Shadow copies of the net interconnects drive the edit generation
    // (the design does not expose its trees).  Prunes are excluded here:
    // every leaf of a generated deck net is a sink, and `apply_eco`
    // correctly refuses to prune a node a sink hangs on (covered by the
    // sta unit tests).
    let mut shadows = nets;
    let params = EcoStreamParams {
        p_prune: 0.0,
        ..EcoStreamParams::default()
    };
    let mut stream = EcoStream::new(params, 2024);

    for round in 0..30 {
        let (net_name, shadow) = &mut shadows[round % 10];
        let edit = stream.next_edit(shadow);
        let eco_edit = to_eco_edit(net_name, shadow, &edit);
        shadow.apply(&edit).expect("generated edits are valid");

        let incremental = design
            .apply_eco(std::slice::from_ref(&eco_edit), threshold, budget)
            .unwrap_or_else(|e| panic!("round {round}: {e} applying {eco_edit:?}"));
        let full = design
            .analyze(threshold, budget)
            .expect("edited design analyses");
        assert_eq!(incremental, full, "round {round}");
    }
}
