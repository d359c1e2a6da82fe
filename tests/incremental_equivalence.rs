//! Equivalence of the incremental (ECO) engine against the
//! rebuild-and-rerun oracle: seeded edit streams over **every** workload
//! generator, asserting after **every** edit that the live
//! `EditableTree`/`IncrementalTimes` state matches a from-scratch
//! `RcTree::rebuild()` + `BatchTimes::of` to 1e-9 relative at every node —
//! and that `Design::apply_eco` matches a full `Design::analyze` of the
//! edited design bit for bit.

use penfield_rubinstein::core::batch::BatchTimes;
use penfield_rubinstein::core::incremental::{EditableTree, TreeEdit};
use penfield_rubinstein::core::tree::RcTree;
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

/// The acceptance bar: incremental state equals a from-scratch rebuild +
/// `BatchTimes` oracle to 1e-9 relative at every node.
///
/// An absolute floor of `1e-12 × <whole-tree scale>` backs the relative
/// comparison: the lazy difference-array structure stores `±Δ` pairs in
/// separate accumulators, so a node whose true value is *exactly zero* can
/// carry an `eps`-scale rounding residue (~1e-24 in these workloads) that
/// no relative tolerance can absorb, while every physically meaningful
/// value sits many orders of magnitude above the floor.
fn assert_matches_oracle(eco: &EditableTree, context: &str) {
    let rebuilt = eco.tree().rebuild();
    assert_eq!(
        rebuilt.preorder().collect::<Vec<_>>(),
        eco.tree().preorder().collect::<Vec<_>>(),
        "{context}: patched pre-order drifted from a rebuild"
    );
    let oracle = BatchTimes::of(&rebuilt).expect("edited trees stay analysable");
    let time_scale = oracle.t_p().value();
    let r_scale = rebuilt.total_resistance().value().max(1e-30);
    let c_scale = rebuilt.total_capacitance().value();
    for node in rebuilt.node_ids() {
        let want = oracle.times(node).unwrap();
        let got = eco.characteristic_times(node).unwrap();
        for (label, g, w, scale) in [
            ("T_P", got.t_p.value(), want.t_p.value(), time_scale),
            ("T_D", got.t_d.value(), want.t_d.value(), time_scale),
            ("T_R", got.t_r.value(), want.t_r.value(), time_scale),
            ("R_ee", got.r_ee.value(), want.r_ee.value(), r_scale),
            (
                "C_T",
                got.total_cap.value(),
                want.total_cap.value(),
                c_scale,
            ),
        ] {
            let tol = 1e-9 * w.abs().max(1e-3 * scale);
            assert!(
                (g - w).abs() <= tol,
                "{context}, node {node}: {label} {g} vs oracle {w}"
            );
        }
    }
}

#[test]
fn incremental_matches_rebuild_oracle_on_every_generator() {
    for (label, tree) in generators() {
        for stream_seed in [5u64, 6] {
            let mut eco = EditableTree::new(tree.clone());
            let mut stream = EcoStream::new(EcoStreamParams::default(), stream_seed);
            for step in 0..40 {
                let edit = stream.next_edit(eco.tree());
                eco.apply(&edit)
                    .unwrap_or_else(|e| panic!("{label} seed {stream_seed} step {step}: {e}"));
                assert_matches_oracle(&eco, &format!("{label}, seed {stream_seed}, step {step}"));
            }
        }
    }
}

#[test]
fn caps_only_streams_match_the_oracle_too() {
    // The benchmark's hot path (single-capacitor tweaks, the shallowest
    // dirty region) gets its own dense sweep.
    for (label, tree) in generators() {
        let mut eco = EditableTree::new(tree);
        let mut stream = EcoStream::new(EcoStreamParams::caps_only(), 99);
        for step in 0..60 {
            let edit = stream.next_edit(eco.tree());
            eco.apply(&edit).expect("cap edits are always valid");
            if step % 10 == 9 {
                assert_matches_oracle(&eco, &format!("{label}, caps-only, step {step}"));
            }
        }
        assert_matches_oracle(&eco, &format!("{label}, caps-only, final"));
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
    let mut shadows: Vec<(String, EditableTree)> = nets
        .into_iter()
        .map(|(name, tree)| (name, EditableTree::new(tree)))
        .collect();
    let params = EcoStreamParams {
        p_prune: 0.0,
        ..EcoStreamParams::default()
    };
    let mut stream = EcoStream::new(params, 2024);

    for round in 0..30 {
        let (net_name, shadow) = &mut shadows[round % 10];
        let edit = stream.next_edit(shadow.tree());
        let eco_edit = to_eco_edit(net_name, shadow.tree(), &edit);
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
