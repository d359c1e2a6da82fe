//! Cone-limited ECO re-propagation versus the full analysis, **bit for
//! bit**.
//!
//! `Design::apply_eco_with_jobs` now keeps per-net sink windows, the
//! cached Kahn topology and per-instance arrival windows, and after an
//! edit re-propagates only the affected fan-out cone.  These sweeps pin
//! its one hard contract: after *every* edit, for every worker count, the
//! incremental report equals a from-scratch `analyze_with_jobs` of the
//! edited design exactly (`assert_eq!` on the reports — no tolerance),
//! across:
//!
//! * per-net designs built from **every** workloads generator family
//!   (`Design::from_extracted`), driven by seeded [`EcoStream`]s;
//! * DAG-shaped multi-stage designs ([`eco_dag`]) where edits land in one
//!   cone while other cones keep cached windows, including edit sequences
//!   that move the critical endpoint **across cones**;
//! * `jobs ∈ {1, 2, 7}`, cross-checked against the serial sequence.

use penfield_rubinstein::core::incremental::{EditableTree, TreeEdit};
use penfield_rubinstein::core::tree::RcTree;
use penfield_rubinstein::core::units::{Farads, Ohms, Seconds};
use penfield_rubinstein::sta::{CellLibrary, Design, EcoEdit, EcoEditKind, TimingReport};
use penfield_rubinstein::workloads::dag::{eco_dag, EcoDagParams};
use penfield_rubinstein::workloads::eco::{EcoStream, EcoStreamParams};
use penfield_rubinstein::workloads::htree::HTreeParams;
use penfield_rubinstein::workloads::ladder::{distributed_line, rc_ladder, repeated_chain};
use penfield_rubinstein::workloads::rng::Rng;
use penfield_rubinstein::workloads::{
    figure3_tree, figure7_tree, h_tree, representative_mos_fanout, Figure3Values, PlaLine,
    RandomTreeConfig, SpefDeckParams,
};

const JOBS_SWEEP: [usize; 3] = [1, 2, 7];

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

/// Drives one design through an edit sequence at the given worker count,
/// asserting the bit-exact contract after every edit, and returns the
/// per-step reports for cross-jobs comparison.
fn drive(
    label: &str,
    mut design: Design,
    edits: &[EcoEdit],
    threshold: f64,
    budget: Seconds,
    jobs: usize,
) -> Vec<TimingReport> {
    let mut reports = Vec::with_capacity(edits.len() + 1);
    let warm = design
        .apply_eco_with_jobs(&[], threshold, budget, jobs)
        .unwrap_or_else(|e| panic!("{label}, jobs {jobs}: warm-up failed: {e}"));
    assert_eq!(
        warm,
        design
            .analyze_with_jobs(threshold, budget, jobs)
            .expect("analyzable"),
        "{label}, jobs {jobs}: warm-up"
    );
    reports.push(warm);
    for (step, edit) in edits.iter().enumerate() {
        let incremental = design
            .apply_eco_with_jobs(std::slice::from_ref(edit), threshold, budget, jobs)
            .unwrap_or_else(|e| panic!("{label}, jobs {jobs}, step {step}: {e} for {edit:?}"));
        let full = design
            .analyze_with_jobs(threshold, budget, jobs)
            .expect("edited design analyses");
        assert_eq!(incremental, full, "{label}, jobs {jobs}, step {step}");
        reports.push(incremental);
    }
    reports
}

#[test]
fn extracted_designs_match_full_analysis_for_every_generator_and_jobs() {
    let budget = Seconds::from_nano(100.0);
    for (label, tree) in generator_trees() {
        // Shadow engines drive the edit generation (the design does not
        // expose its trees).  Prunes are excluded: every leaf of an
        // extracted net is a sink, and `apply_eco` refuses to prune sink
        // nodes (covered by the sta unit tests).
        let params = EcoStreamParams {
            p_prune: 0.0,
            ..EcoStreamParams::default()
        };
        let mut shadow = EditableTree::new(tree.clone());
        let mut stream = EcoStream::new(params, 0xC0DE ^ tree.node_count() as u64);
        let mut edits = Vec::new();
        for _ in 0..12 {
            let edit = stream.next_edit(shadow.tree());
            edits.push(to_eco_edit("the_net", shadow.tree(), &edit));
            shadow.apply(&edit).expect("generated edits are valid");
        }

        let design = || {
            Design::from_extracted(
                CellLibrary::nmos_1981(),
                "inv_4x",
                vec![("the_net".to_string(), tree.clone())],
            )
            .expect("generator tree builds a design")
        };
        let serial = drive(&label, design(), &edits, 0.5, budget, 1);
        for jobs in &JOBS_SWEEP[1..] {
            let wide = drive(&label, design(), &edits, 0.5, budget, *jobs);
            assert_eq!(wide, serial, "{label}: jobs {jobs} diverged from serial");
        }
    }
}

#[test]
fn dag_designs_match_full_analysis_with_cone_limited_propagation() {
    let params = EcoDagParams {
        chains: 4,
        depth: 5,
        cross_probability: 0.35,
        wire_nodes: 3,
        po_stride: 1,
    };
    let budget = Seconds::from_nano(500.0);
    for seed in [1u64, 2] {
        // Value edits on seeded (net, node) targets, plus periodic
        // graft-then-prune pairs on fresh names — every structural shape
        // the engines support, across many different cones.
        let dag = eco_dag(&params, seed);
        let mut rng = Rng::from_seed(seed ^ 0xD00D);
        let mut edits: Vec<EcoEdit> = Vec::new();
        for round in 0..24 {
            let net = &dag.nets[rng.index(dag.nets.len())];
            let node = net.nodes[rng.index(net.nodes.len())].clone();
            let kind = match round % 4 {
                0 | 1 => EcoEditKind::SetCap {
                    node,
                    cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
                },
                2 => EcoEditKind::SetBranch {
                    node,
                    branch: penfield_rubinstein::core::element::Branch::line(
                        Ohms::new(rng.range_f64(20.0, 200.0)),
                        Farads::from_femto(rng.range_f64(1.0, 20.0)),
                    ),
                },
                _ => {
                    let mut b = penfield_rubinstein::core::builder::RcTreeBuilder::with_input_name(
                        format!("eco_stub_{round}"),
                    );
                    b.add_capacitance(b.input(), Farads::from_femto(15.0))
                        .expect("valid stub");
                    EcoEditKind::Graft {
                        parent: node,
                        via: penfield_rubinstein::core::element::Branch::resistor(Ohms::new(60.0)),
                        subtree: Box::new(b.build().expect("valid stub")),
                    }
                }
            };
            edits.push(EcoEdit {
                net: net.name.clone(),
                kind,
            });
            if round % 4 == 3 {
                // Prune the stub again two rounds later, from a different
                // cone's perspective.
                edits.push(EcoEdit {
                    net: net.name.clone(),
                    kind: EcoEditKind::Prune {
                        node: format!("eco_stub_{round}"),
                    },
                });
            }
        }

        let label = format!("dag seed {seed}");
        let serial = drive(
            &label,
            eco_dag(&params, seed).design,
            &edits,
            0.5,
            budget,
            1,
        );
        for jobs in &JOBS_SWEEP[1..] {
            let wide = drive(
                &label,
                eco_dag(&params, seed).design,
                &edits,
                0.5,
                budget,
                *jobs,
            );
            assert_eq!(wide, serial, "{label}: jobs {jobs} diverged from serial");
        }
    }
}

#[test]
fn critical_endpoint_crosses_cones_and_stays_bit_identical() {
    // Two independent chains with their own endpoints: fattening the load
    // at the tail of one chain, then the other, must flip the critical
    // endpoint between cones — the report is re-sorted from cached per-net
    // contributions, not just patched in place.
    let params = EcoDagParams {
        chains: 2,
        depth: 4,
        cross_probability: 0.0,
        wire_nodes: 2,
        po_stride: 1,
    };
    let budget = Seconds::from_nano(500.0);
    let dag = eco_dag(&params, 7);
    let tail_node = |c: usize| {
        dag.nets
            .iter()
            .find(|n| n.name == format!("out{c}"))
            .expect("endpoint net exists")
            .nodes
            .last()
            .expect("wire has nodes")
            .clone()
    };
    let heavy = |c: usize, ff: f64| EcoEdit {
        net: format!("out{c}"),
        kind: EcoEditKind::SetCap {
            node: tail_node(c),
            cap: Farads::from_femto(ff),
        },
    };
    let edits = [
        heavy(0, 50_000.0),
        heavy(1, 200_000.0),
        heavy(0, 800_000.0),
        heavy(1, 100.0),
    ];
    let mut design = dag.design;
    let mut criticals = Vec::new();
    for (step, edit) in edits.iter().enumerate() {
        let report = design
            .apply_eco_with_jobs(std::slice::from_ref(edit), 0.5, budget, 1)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            report,
            design
                .analyze_with_jobs(0.5, budget, 1)
                .expect("analyzable"),
            "step {step}"
        );
        criticals.push(
            report
                .critical_endpoint()
                .expect("has endpoints")
                .name
                .to_string(),
        );
    }
    assert_eq!(
        criticals,
        vec!["po0", "po1", "po0", "po0"],
        "the critical endpoint must move between cones as edits land"
    );
}
