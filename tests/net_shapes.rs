//! Long and wide nets: a 50,000-node chain and a 50,000-sink star, built
//! with `RcTreeBuilder`, written as SPEF and SPICE text and parsed back,
//! and the star through the publish path with a value edit and two
//! structural edits.
//!
//! Every step here is linear in nodes — name lookups are hash probes and a
//! snapshot shares its trees — so these sizes finish in seconds.  A lookup
//! or a copy per node that scanned or cloned the whole net would not.

use std::fmt::Write;

use rctree_core::builder::RcTreeBuilder;
use rctree_core::element::Branch;
use rctree_core::error::CoreError;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_netlist::{parse_spef, parse_spice, write_spice, NetlistError};
use rctree_sta::{CellLibrary, Design, EcoEdit, EcoEditKind};

const N: usize = 50_000;
const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(1e-3);

/// `n1 … nN` hung one below the other; the far end is the only output.
fn chain() -> RcTree {
    let mut b = RcTreeBuilder::new();
    let mut node = b.input();
    for i in 1..=N {
        node = b
            .add_resistor(node, format!("n{i}"), Ohms::new(1.0 + (i % 7) as f64))
            .unwrap();
        b.add_capacitance(node, Farads::from_femto(1.0 + (i % 5) as f64))
            .unwrap();
    }
    b.mark_output(node).unwrap();
    b.build().unwrap()
}

/// A non-output `stub` leaf, then the sinks `s1 … sN`, all on the input.
fn star() -> RcTree {
    let mut b = RcTreeBuilder::new();
    let stub = b.add_resistor(b.input(), "stub", Ohms::new(2.0)).unwrap();
    b.add_capacitance(stub, Farads::from_femto(3.0)).unwrap();
    for i in 1..=N {
        let sink = b
            .add_resistor(b.input(), format!("s{i}"), Ohms::new(1.0 + (i % 7) as f64))
            .unwrap();
        b.add_capacitance(sink, Farads::from_femto(1.0 + (i % 5) as f64))
            .unwrap();
        b.mark_output(sink).unwrap();
    }
    b.build().unwrap()
}

/// One `*D_NET` section for `tree`, resistors in id order, plus one more
/// resistor between `extra` when given.
fn spef(net: &str, tree: &RcTree, extra: Option<(&str, &str)>) -> String {
    let name = |id| tree.name(id).unwrap();
    let mut out = String::from("*SPEF \"IEEE 1481-1998\"\n*R_UNIT 1 OHM\n*C_UNIT 1 PF\n");
    let total_pf = tree.total_capacitance().value() * 1e12;
    writeln!(out, "\n*D_NET {net} {total_pf}\n*CONN").unwrap();
    writeln!(out, "*I {} I", name(tree.input())).unwrap();
    for id in tree.outputs() {
        writeln!(out, "*P {} O", name(id)).unwrap();
    }
    out.push_str("*CAP\n");
    for (k, id) in tree.node_ids().enumerate() {
        let pf = tree.capacitance(id).unwrap().value() * 1e12;
        writeln!(out, "{} {} {pf}", k + 1, name(id)).unwrap();
    }
    out.push_str("*RES\n");
    for id in tree.node_ids().skip(1) {
        let parent = tree.parent(id).unwrap().unwrap();
        let ohms = tree.branch(id).unwrap().unwrap().resistance().value();
        writeln!(out, "{} {} {} {ohms}", id.index(), name(parent), name(id)).unwrap();
    }
    if let Some((a, b)) = extra {
        writeln!(out, "{} {a} {b} 1", tree.node_count()).unwrap();
    }
    out.push_str("*END\n");
    out
}

/// `tree` as a SPICE deck, plus one more resistor between `extra`.
fn spice(tree: &RcTree, extra: Option<(&str, &str)>) -> String {
    let mut deck = write_spice(tree, "net shape");
    if let Some((a, b)) = extra {
        let end = deck.rfind(".end").unwrap();
        deck.insert_str(end, &format!("Rdup {a} {b} 1\n"));
    }
    deck
}

/// Names, parents and outputs of `parsed` are those of `built`, and every
/// name looks up its own node.
fn assert_same_shape(label: &str, built: &RcTree, parsed: &RcTree) {
    assert_eq!(parsed.node_count(), built.node_count(), "{label}");
    for id in built.node_ids() {
        let name = built.name(id).unwrap();
        assert_eq!(parsed.name(id).unwrap(), name, "{label}");
        assert_eq!(
            parsed.parent(id).unwrap(),
            built.parent(id).unwrap(),
            "{label}"
        );
        assert_eq!(
            parsed.is_output(id).unwrap(),
            built.is_output(id).unwrap(),
            "{label}"
        );
        assert_eq!(parsed.node_by_name(name).unwrap(), id, "{label}");
    }
}

/// Both shapes survive a SPEF and a SPICE round trip, and a repeated name
/// appended at the end is rejected by the builder and by both parsers,
/// naming it (the parsers see a second element reaching a placed node).
#[test]
fn long_and_wide_nets_round_trip_through_spef_and_spice() {
    // The repeated name is an existing node that the tree elaboration has
    // already placed when it meets the appended card: the last node's
    // parent on the chain, the first sink on the star.
    for (label, tree, repeated, last) in [
        ("chain", chain(), format!("n{}", N - 1), format!("n{N}")),
        ("star", star(), "s1".to_string(), format!("s{N}")),
    ] {
        let nets = parse_spef(&spef(label, &tree, None)).unwrap();
        assert_eq!(nets.len(), 1);
        assert_same_shape(&format!("{label} spef"), &tree, &nets[0].tree);
        let parsed = parse_spice(&spice(&tree, None)).unwrap();
        assert_same_shape(&format!("{label} spice"), &tree, &parsed);

        let mut b = RcTreeBuilder::new();
        for id in tree.node_ids().skip(1) {
            let parent = tree.parent(id).unwrap().unwrap();
            let ohms = tree.branch(id).unwrap().unwrap().resistance();
            b.add_resistor(parent, tree.name(id).unwrap(), ohms)
                .unwrap();
        }
        let last_id = tree.node_by_name(&last).unwrap();
        assert_eq!(
            b.add_resistor(last_id, repeated.as_str(), Ohms::new(1.0)),
            Err(CoreError::DuplicateName {
                name: repeated.clone()
            }),
            "{label} builder"
        );

        let loop_error = |line: usize| NetlistError::NotATree {
            message: format!(
                "line {line}: element between `{last}` and `{repeated}` closes a loop"
            ),
        };
        let text = spef(label, &tree, Some((&last, &repeated)));
        let line = text.lines().count() - 1;
        assert_eq!(
            parse_spef(&text).unwrap_err(),
            loop_error(line),
            "{label} spef"
        );
        let deck = spice(&tree, Some((&last, &repeated)));
        let line = deck.lines().position(|l| l.starts_with("Rdup")).unwrap() + 1;
        assert_eq!(
            parse_spice(&deck).unwrap_err(),
            loop_error(line),
            "{label} spice"
        );
    }
}

/// The star through `from_extracted`, `publish` and `publish_after_eco`: a
/// setcap on the last sink, then a prune that renumbers every sink and a
/// graft of a leaf.  The report equals a full analysis of the edited
/// design, and the last sink answers like a fresh publish.
#[test]
fn a_wide_net_publishes_and_takes_edits_in_linear_time() {
    let mut design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        "inv_4x",
        vec![("star".to_string(), star())],
    )
    .unwrap();
    let last = format!("s{N}");
    let edit = |kind| EcoEdit {
        net: "star".to_string(),
        kind,
    };
    let snapshot = design.publish(THRESHOLD, BUDGET, 2).unwrap();
    let setcap = [edit(EcoEditKind::SetCap {
        node: last.clone(),
        cap: Farads::from_femto(9.0),
    })];
    let snapshot = design
        .publish_after_eco(&setcap, THRESHOLD, BUDGET, 2, &snapshot)
        .unwrap();
    let mut leaf = RcTreeBuilder::with_input_name("tap");
    leaf.add_capacitance(leaf.input(), Farads::from_femto(2.0))
        .unwrap();
    let structural = [
        edit(EcoEditKind::Prune {
            node: "stub".to_string(),
        }),
        edit(EcoEditKind::Graft {
            parent: last.clone(),
            via: Branch::resistor(Ohms::new(3.0)),
            subtree: Box::new(leaf.build().unwrap()),
        }),
    ];
    let snapshot = design
        .publish_after_eco(&structural, THRESHOLD, BUDGET, 2, &snapshot)
        .unwrap();

    assert_eq!(
        *snapshot.report(),
        design.analyze_with_jobs(THRESHOLD, BUDGET, 2).unwrap()
    );
    assert_eq!(snapshot.report().endpoints.len(), N);
    let fresh = design.clone().publish(THRESHOLD, BUDGET, 1).unwrap();
    let view = snapshot.net("star").unwrap();
    assert_eq!(
        view.node_times(&last, THRESHOLD).unwrap(),
        fresh
            .net("star")
            .unwrap()
            .node_times(&last, THRESHOLD)
            .unwrap()
    );
    assert!(view.node_times("stub", THRESHOLD).is_err());
    assert!(view.node_times("tap", THRESHOLD).is_ok());
}
