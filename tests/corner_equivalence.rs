//! Multi-corner lanes versus serial single-corner runs, **bit for bit**.
//!
//! `Design::analyze_corners` splices and sweeps every corner lane of a net
//! through one per-worker scratch, each lane one pre-order pass.  These
//! sweeps pin its two hard contracts, with `assert_eq!` on full
//! [`TimingReport`]s — no tolerance:
//!
//! * **Lane 0 is the pre-corner path.**  Installing a corner set never
//!   perturbs nominal results: `analyze_corners(..).report(0)` equals
//!   `analyze_with_jobs` of the same design with no corners installed.
//! * **Lane `k` is the serial oracle.**  Every corner lane equals a
//!   from-scratch `analyze_with_jobs` of the fully materialized scaled
//!   design ([`Design::materialize_corner`]) — one independent
//!   single-corner run per corner, the way K separate signoff runs would
//!   compute it.
//!
//! Both hold across every workloads generator family, `jobs ∈ {1, 2, 7}`,
//! and — through the incremental snapshot path — after every edit of a
//! seeded ECO stream.

use penfield_rubinstein::core::incremental::{EditableTree, TreeEdit};
use penfield_rubinstein::core::tree::RcTree;
use penfield_rubinstein::core::units::{Farads, Ohms, Seconds};
use penfield_rubinstein::sta::{CellLibrary, CornerAnalysis, Design, EcoEdit, EcoEditKind};
use penfield_rubinstein::workloads::corners::{corner_set, CornerSpecParams};
use penfield_rubinstein::workloads::eco::{EcoStream, EcoStreamParams};
use penfield_rubinstein::workloads::htree::HTreeParams;
use penfield_rubinstein::workloads::ladder::{distributed_line, rc_ladder, repeated_chain};
use penfield_rubinstein::workloads::{
    figure3_tree, figure7_tree, h_tree, representative_mos_fanout, Figure3Values, PlaLine,
    RandomTreeConfig, SpefDeckParams,
};

const JOBS_SWEEP: [usize; 3] = [1, 2, 7];
const THRESHOLD: f64 = 0.5;

/// One tree from every generator family in `rctree-workloads`.
fn generator_trees() -> Vec<(String, RcTree)> {
    let mut trees: Vec<(String, RcTree)> = vec![
        ("fig3".into(), figure3_tree(Figure3Values::default()).0),
        ("fig7".into(), figure7_tree().0),
        (
            "htree".into(),
            h_tree(HTreeParams {
                levels: 3,
                ..HTreeParams::default()
            })
            .0,
        ),
        (
            "ladder".into(),
            rc_ladder(Ohms::new(100.0), Farads::from_pico(1.0), 12).0,
        ),
        (
            "line".into(),
            distributed_line(Ohms::new(500.0), Farads::from_pico(0.4)).0,
        ),
        (
            "chain".into(),
            repeated_chain(Ohms::new(10.0), Farads::from_femto(50.0), 10),
        ),
        ("pla".into(), PlaLine::new(8).tree().0),
        ("mos".into(), representative_mos_fanout().0),
        (
            "random".into(),
            RandomTreeConfig {
                nodes: 20,
                ..RandomTreeConfig::default()
            }
            .generate(9),
        ),
    ];
    let deck = SpefDeckParams {
        nets: 2,
        ..SpefDeckParams::default()
    };
    for (name, tree) in deck.trees(41) {
        trees.push((format!("deck/{name}"), tree));
    }
    trees
}

fn single_net_design(tree: &RcTree) -> Design {
    Design::from_extracted(
        CellLibrary::nmos_1981(),
        "inv_4x",
        vec![("the_net".to_string(), tree.clone())],
    )
    .expect("generator tree builds a design")
}

/// Asserts both contracts for one design/corner-set/jobs combination and
/// returns the sweep for cross-jobs comparison.
fn check_lanes(
    label: &str,
    design: &Design,
    with_corners: &Design,
    budget: Seconds,
    jobs: usize,
) -> CornerAnalysis {
    let analysis = with_corners
        .analyze_corners(THRESHOLD, budget, jobs)
        .unwrap_or_else(|e| panic!("{label}, jobs {jobs}: corner sweep failed: {e}"));
    let nominal = design
        .analyze_with_jobs(THRESHOLD, budget, jobs)
        .expect("analyzable");
    assert_eq!(
        analysis.report(0),
        Some(&nominal),
        "{label}, jobs {jobs}: lane 0 diverged from the corner-free path"
    );
    for k in 0..analysis.len() {
        let oracle = with_corners
            .materialize_corner(k)
            .expect("lane index in range")
            .analyze_with_jobs(THRESHOLD, budget, jobs)
            .expect("materialized corner analyses");
        assert_eq!(
            analysis.report(k),
            Some(&oracle),
            "{label}, jobs {jobs}: lane {k} ({}) diverged from its serial \
             single-corner oracle",
            analysis.names()[k]
        );
    }
    analysis
}

#[test]
fn corner_lanes_match_serial_single_corner_runs_for_every_generator() {
    let budget = Seconds::from_nano(100.0);
    for (label, tree) in generator_trees() {
        let design = single_net_design(&tree);
        let set = corner_set(
            &CornerSpecParams::default(),
            &["the_net".to_string()],
            0xBEEF ^ tree.node_count() as u64,
        );
        let mut with_corners = single_net_design(&tree);
        with_corners.set_corners(set.clone());
        assert_eq!(set.len(), 4, "{label}: seeded spec shape");

        let serial = check_lanes(&label, &design, &with_corners, budget, 1);
        for jobs in &JOBS_SWEEP[1..] {
            let wide = check_lanes(&label, &design, &with_corners, budget, *jobs);
            assert_eq!(wide.names(), serial.names(), "{label}: corner vector");
            assert_eq!(
                wide.reports(),
                serial.reports(),
                "{label}: jobs {jobs} diverged from the serial sweep"
            );
        }
    }
}

#[test]
fn snapshot_corners_track_the_oracle_through_seeded_eco_streams() {
    let budget = Seconds::from_nano(100.0);
    for (label, tree) in generator_trees() {
        // Shadow engines drive the edit generation (the design does not
        // expose its trees).  Prunes are excluded: every leaf of an
        // extracted net is a sink, and `apply_eco` refuses to prune sinks.
        let params = EcoStreamParams {
            p_prune: 0.0,
            ..EcoStreamParams::default()
        };
        let mut shadow = EditableTree::new(tree.clone());
        let mut stream = EcoStream::new(params, 0xFACE ^ tree.node_count() as u64);
        let mut edits = Vec::new();
        for _ in 0..6 {
            let edit = stream.next_edit(shadow.tree());
            edits.push(to_eco_edit("the_net", shadow.tree(), &edit));
            shadow.apply(&edit).expect("generated edits are valid");
        }

        let set = corner_set(
            &CornerSpecParams::default(),
            &["the_net".to_string()],
            0xD0 ^ tree.node_count() as u64,
        );
        let mut design = single_net_design(&tree);
        design.set_corners(set.clone());
        let mut snapshot = design
            .publish(THRESHOLD, budget, 2)
            .unwrap_or_else(|e| panic!("{label}: baseline publish failed: {e}"));
        for (step, edit) in edits.iter().enumerate() {
            snapshot = design
                .publish_after_eco(std::slice::from_ref(edit), THRESHOLD, budget, 2, &snapshot)
                .unwrap_or_else(|e| panic!("{label}, step {step}: {e} for {edit:?}"));
            let corners = snapshot
                .corners()
                .unwrap_or_else(|| panic!("{label}: multi-corner snapshot has corner reports"));
            assert_eq!(corners.names_csv(), set.names_csv(), "{label}, step {step}");
            // Every lane of the incrementally re-timed snapshot equals a
            // from-scratch analysis of the edited, materialized corner.
            for k in 0..corners.len() {
                let oracle = design
                    .materialize_corner(k)
                    .expect("lane index in range")
                    .analyze_with_jobs(THRESHOLD, budget, 1)
                    .expect("edited corner analyses");
                assert_eq!(
                    corners.report(k),
                    Some(&oracle),
                    "{label}, step {step}: lane {k} ({}) diverged after the edit",
                    corners.names()[k]
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
