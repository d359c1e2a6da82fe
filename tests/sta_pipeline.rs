//! End-to-end static-timing pipeline tests: SPEF-extracted interconnect,
//! cell library, stage analysis and multi-stage certification, with the
//! exact simulator as the referee for single stages.

use penfield_rubinstein::core::units::{Farads, Ohms, Seconds};
use penfield_rubinstein::netlist::parse_spice;
use penfield_rubinstein::sim::modal::ModalStepResponse;
use penfield_rubinstein::sim::network::LumpedNetwork;
use penfield_rubinstein::sta::{
    analyze_stage, prepend_driver, CellLibrary, Design, Driver, Load, Net, Sink,
};
use penfield_rubinstein::workloads::htree::{h_tree, HTreeParams};

#[test]
fn stage_bounds_bracket_exact_crossing_for_spice_net() {
    let deck = r"
* extracted fan-out net
U1 in   a   150 0.02p
U2 a    b   300 0.05p
R3 a    c   80
C3 c    0   0.01p
.output b c
";
    let net = parse_spice(deck).unwrap();
    let b_node = net.node_by_name("b").unwrap();
    let c_node = net.node_by_name("c").unwrap();
    let loads = vec![
        (b_node, Farads::from_pico(0.013)),
        (c_node, Farads::from_pico(0.013)),
    ];
    let driver = Ohms::new(2_000.0);
    let stage = analyze_stage(driver, &net, &loads, 0.5).unwrap();

    // Exact check: rebuild the augmented tree and simulate it.
    let (augmented, map) = prepend_driver(driver, &net, &loads).unwrap();
    let lumped = LumpedNetwork::from_tree(&augmented, 16).unwrap();
    let modal = ModalStepResponse::new(&lumped).unwrap();
    for sink in &stage.sinks {
        let mapped = map[sink.node.index()];
        let idx = lumped.index_of(mapped).unwrap().unwrap();
        let crossing = modal.crossing_time(idx, 0.5).unwrap();
        assert!(
            crossing >= sink.bounds.lower.value() * 0.995 - 1e-15,
            "{}: exact {crossing} below lower bound {}",
            sink.name,
            sink.bounds.lower
        );
        assert!(
            crossing <= sink.bounds.upper.value() * 1.005 + 1e-15,
            "{}: exact {crossing} above upper bound {}",
            sink.name,
            sink.bounds.upper
        );
    }
}

#[test]
fn clock_tree_design_certifies_against_budget() {
    // A buffer driving an H-tree whose leaves are primary outputs.
    let (htree, leaves) = h_tree(HTreeParams {
        levels: 3,
        ..HTreeParams::default()
    });
    let mut design = Design::new(CellLibrary::nmos_1981());
    design.add_instance("clkbuf", "superbuffer").unwrap();

    // Primary input to the buffer through a short wire.
    let mut b = penfield_rubinstein::core::builder::RcTreeBuilder::new();
    b.add_line(b.input(), "load", Ohms::new(25.0), Farads::from_femto(5.0))
        .unwrap();
    design
        .add_net(Net {
            name: "n_in".into(),
            driver: Driver::PrimaryInput,
            interconnect: b.build().unwrap(),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::Instance("clkbuf".into()),
            }],
        })
        .unwrap();

    // The H-tree itself, driven by the buffer, leaves as primary outputs.
    let sinks: Vec<Sink> = leaves
        .iter()
        .map(|&leaf| Sink {
            node: htree.name(leaf).unwrap().to_string(),
            load: Load::PrimaryOutput(format!("ff_{}", htree.name(leaf).unwrap()).into()),
        })
        .collect();
    design
        .add_net(Net {
            name: "n_clk".into(),
            driver: Driver::Instance("clkbuf".into()),
            interconnect: htree.clone(),
            sinks,
        })
        .unwrap();

    let report = design.analyze(0.9, Seconds::from_nano(10.0)).unwrap();
    assert_eq!(report.endpoints.len(), leaves.len());
    // Symmetric tree: every endpoint has (numerically) the same arrival.
    let first = report.endpoints[0].arrival;
    for e in &report.endpoints {
        assert!((e.arrival.max.value() - first.max.value()).abs() < 1e-12 * first.max.value());
    }
    assert!(report.certification().is_pass());
    assert!(report.worst_slack().value() > 0.0);

    // An aggressive budget cannot be certified.
    let tight = design
        .analyze(0.9, report.endpoints[0].arrival.min * 0.5)
        .unwrap();
    assert!(tight.certification().is_fail());
}

#[test]
fn library_drive_strength_trades_off_as_expected() {
    // Upsizing the driver must reduce the certified worst arrival of a
    // wire-dominated net, and the improvement must be visible through the
    // whole pipeline (library -> stage -> report).
    let lib = CellLibrary::nmos_1981();
    let wire = {
        let mut b = penfield_rubinstein::core::builder::RcTreeBuilder::new();
        b.add_line(b.input(), "load", Ohms::new(500.0), Farads::from_pico(0.3))
            .unwrap();
        b.build().unwrap()
    };
    let mut arrivals = Vec::new();
    for cell in ["inv_1x", "inv_4x", "buf_8x"] {
        let mut design = Design::new(lib.clone());
        design.add_instance("u_drv", cell).unwrap();
        design
            .add_net(Net {
                name: "n_in".into(),
                driver: Driver::PrimaryInput,
                interconnect: {
                    let mut b = penfield_rubinstein::core::builder::RcTreeBuilder::new();
                    b.add_resistor(b.input(), "load", Ohms::new(1.0)).unwrap();
                    b.build().unwrap()
                },
                sinks: vec![Sink {
                    node: "load".into(),
                    load: Load::Instance("u_drv".into()),
                }],
            })
            .unwrap();
        design
            .add_net(Net {
                name: "n_out".into(),
                driver: Driver::Instance("u_drv".into()),
                interconnect: wire.clone(),
                sinks: vec![Sink {
                    node: "load".into(),
                    load: Load::PrimaryOutput("po".into()),
                }],
            })
            .unwrap();
        let report = design.analyze(0.5, Seconds::from_nano(100.0)).unwrap();
        arrivals.push((cell, report.endpoints[0].arrival.max));
    }
    // Wire delay shrinks with drive strength; intrinsic delays differ by
    // less, so the net interconnect-limited arrival must be ordered.
    let inv1 = arrivals[0].1;
    let inv4 = arrivals[1].1;
    assert!(inv4 < inv1, "{arrivals:?}");
}
