//! Trees are shared from design to snapshot and copied on write: a
//! snapshot published before a stream of value and structural edits to
//! one net keeps answering from the trees it was published with.
//! Its node sweeps are built lazily, so the test queries it for the first
//! time only after every edit has landed, at every corner lane, and
//! compares against a snapshot of a design clone taken before the edits.

use rctree_core::builder::RcTreeBuilder;
use rctree_core::element::Branch;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_sta::{CellLibrary, Design, EcoEdit, EcoEditKind};
use rctree_workloads::corners::{corner_set, CornerSpecParams};
use rctree_workloads::deck::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(200e-9);
const NET: &str = "edited";
const NODES: [&str; 5] = ["input", "stub", "a", "b", "c"];

/// A non-output `stub` leaf first, so pruning it renumbers every other
/// node, then a wire `a` forking to the sinks `b` and `c`.
fn edited_net() -> RcTree {
    let mut b = RcTreeBuilder::new();
    let stub = b.add_resistor(b.input(), "stub", Ohms::new(40.0)).unwrap();
    b.add_capacitance(stub, Farads::from_femto(6.0)).unwrap();
    let a = b.add_resistor(b.input(), "a", Ohms::new(120.0)).unwrap();
    b.add_capacitance(a, Farads::from_femto(4.0)).unwrap();
    for (name, ohms, ff) in [("b", 300.0, 9.0), ("c", 80.0, 12.0)] {
        let sink = b
            .add_line(a, name, Ohms::new(ohms), Farads::from_femto(2.0))
            .unwrap();
        b.add_capacitance(sink, Farads::from_femto(ff)).unwrap();
        b.mark_output(sink).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn a_snapshot_answers_from_its_own_trees_after_later_edits() {
    let params = SpefDeckParams {
        nets: 11,
        ..SpefDeckParams::default()
    };
    let mut trees = params.trees(0xC0DE);
    trees.push((NET.to_string(), edited_net()));
    let names: Vec<String> = trees.iter().map(|(name, _)| name.clone()).collect();
    let mut design = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees).unwrap();
    design.set_corners(corner_set(&CornerSpecParams::default(), &names, 0xC0DE));
    assert_eq!(design.corner_count(), 4);
    let before = design.clone();
    let report0 = before.analyze_with_jobs(THRESHOLD, BUDGET, 2).unwrap();

    let snap0 = design.publish(THRESHOLD, BUDGET, 2).unwrap();
    let mut tap = RcTreeBuilder::with_input_name("tap");
    tap.add_capacitance(tap.input(), Farads::from_femto(5.0))
        .unwrap();
    let edits = [
        EcoEditKind::SetCap {
            node: "b".to_string(),
            cap: Farads::from_femto(20.0),
        },
        EcoEditKind::SetBranch {
            node: "a".to_string(),
            branch: Branch::line(Ohms::new(150.0), Farads::from_femto(3.0)),
        },
        EcoEditKind::Graft {
            parent: "c".to_string(),
            via: Branch::resistor(Ohms::new(25.0)),
            subtree: Box::new(tap.build().unwrap()),
        },
        EcoEditKind::Prune {
            node: "stub".to_string(),
        },
    ];
    let mut snapshot = snap0.clone();
    for kind in edits {
        let edit = EcoEdit {
            net: NET.to_string(),
            kind,
        };
        snapshot = design
            .publish_after_eco(&[edit], THRESHOLD, BUDGET, 2, &snapshot)
            .unwrap();
    }
    let edited = snapshot.net(NET).unwrap();
    assert!(edited.node_times("stub", THRESHOLD).is_err());
    assert!(edited.node_times("tap", THRESHOLD).is_ok());

    // Only now is `snap0` queried, for the first time.
    let oracle = before.clone().publish(THRESHOLD, BUDGET, 1).unwrap();
    let (view, want) = (snap0.net(NET).unwrap(), oracle.net(NET).unwrap());
    for k in 0..design.corner_count() {
        assert_eq!(view.sinks_at(k), want.sinks_at(k), "lane {k}");
        for node in NODES {
            assert_eq!(
                view.node_times_at(node, THRESHOLD, k).unwrap(),
                want.node_times_at(node, THRESHOLD, k).unwrap(),
                "{node} lane {k}"
            );
        }
    }
    assert!(view.node_times("tap", THRESHOLD).is_err());
    assert_eq!(*snap0.report(), report0);
    assert_eq!(
        before.analyze_with_jobs(THRESHOLD, BUDGET, 2).unwrap(),
        report0
    );
    assert_ne!(*snapshot.report(), report0);
}
