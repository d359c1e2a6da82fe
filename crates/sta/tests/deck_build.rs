//! `Design::from_extracted` builds a deck straight into a fresh design:
//! one driver-cell lookup, one feeder tree cloned per net, and each sink's
//! augmentation taken from the output ids in hand.  This suite pins it to
//! the per-net path it replaced — one `add_instance` and two `add_net`
//! calls per deck net, written out below — on the built design's reports,
//! rendered bytes and net order, and on every error the deck can raise.

use rctree_core::builder::RcTreeBuilder;
use rctree_core::corner::CornerSet;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_sta::{CellLibrary, Design, Driver, Load, Net, Sink, StaError};
use rctree_workloads::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET_S: f64 = 150e-9;

/// The deck bridge written out one public call at a time.
fn one_call_per_net(
    library: CellLibrary,
    driver_cell: &str,
    nets: Vec<(String, RcTree)>,
) -> Result<Design, StaError> {
    library.cell(driver_cell)?;
    let mut design = Design::new(library);
    for (name, tree) in nets {
        let inst = format!("{name}_drv");
        design.add_instance(&inst, driver_cell)?;

        let mut feeder = RcTreeBuilder::new();
        feeder
            .add_line(
                feeder.input(),
                "pin",
                Ohms::new(10.0),
                Farads::from_femto(1.0),
            )
            .expect("static feeder wire is valid");
        design.add_net(Net {
            name: format!("{name}_pi"),
            driver: Driver::PrimaryInput,
            interconnect: feeder.build().expect("static feeder wire is valid"),
            sinks: vec![Sink {
                node: "pin".into(),
                load: Load::Instance(inst.clone()),
            }],
        })?;

        let sinks = tree
            .outputs()
            .map(|id| {
                let node = tree.name(id).expect("output node exists").to_string();
                Sink {
                    load: Load::PrimaryOutput(format!("{name}/{node}").into()),
                    node,
                }
            })
            .collect();
        design.add_net(Net {
            name,
            driver: Driver::Instance(inst),
            interconnect: tree,
            sinks,
        })?;
    }
    Ok(design)
}

/// Both builds of the same deck, by the same driver cell.
fn both(
    driver_cell: &str,
    nets: Vec<(String, RcTree)>,
) -> (Result<Design, StaError>, Result<Design, StaError>) {
    (
        Design::from_extracted(CellLibrary::nmos_1981(), driver_cell, nets.clone()),
        one_call_per_net(CellLibrary::nmos_1981(), driver_cell, nets),
    )
}

fn deck(nets: usize, seed: u64) -> Vec<(String, RcTree)> {
    SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    }
    .trees(seed)
}

#[test]
fn a_deck_builds_the_same_design_as_one_call_per_net() {
    for (nets, seed, cell) in [(40, 11, "inv_4x"), (7, 12, "inv_1x"), (1, 13, "inv_4x")] {
        let (direct, reference) = both(cell, deck(nets, seed));
        let (mut direct, mut reference) = (direct.expect("deck"), reference.expect("deck"));
        assert_eq!(direct.net_count(), reference.net_count());
        assert_eq!(direct.instance_count(), reference.instance_count());
        for jobs in [1, 2] {
            let required = Seconds::new(BUDGET_S);
            let want = reference
                .analyze_with_jobs(THRESHOLD, required, jobs)
                .expect("analyze");
            let got = direct
                .analyze_with_jobs(THRESHOLD, required, jobs)
                .expect("analyze");
            assert_eq!(got, want, "{nets} nets, jobs {jobs}");
            assert_eq!(format!("{got}"), format!("{want}"), "REPORT bytes");
        }
        let order = |design: &mut Design| -> Vec<String> {
            let snapshot = design
                .publish(THRESHOLD, Seconds::new(BUDGET_S), 1)
                .expect("publish");
            snapshot.net_names().map(str::to_string).collect()
        };
        assert_eq!(order(&mut direct), order(&mut reference), "net order");

        // The resolved sink loads drive every corner lane too.
        let mut corners = CornerSet::nominal();
        corners.push("slow", 1.3, 1.2, 1.1).expect("corner");
        direct.set_corners(corners.clone());
        reference.set_corners(corners);
        let lanes = |design: &Design| {
            design
                .analyze_corners(THRESHOLD, Seconds::new(BUDGET_S), 2)
                .expect("corners")
                .reports()
                .to_vec()
        };
        assert_eq!(lanes(&direct), lanes(&reference));
    }
}

#[test]
fn deck_errors_match_one_call_per_net() {
    let tree = |seed| deck(1, seed).remove(0).1;
    let named = |names: &[&str]| -> Vec<(String, RcTree)> {
        names
            .iter()
            .zip(1..)
            .map(|(name, seed)| (name.to_string(), tree(seed)))
            .collect()
    };
    let cases = [
        (
            "inv_4x",
            &["x", "y", "x"][..],
            StaError::DuplicateInstance {
                name: "x_drv".into(),
            },
        ),
        (
            "inv_4x",
            &["x", "x_pi"][..],
            StaError::DuplicateNet {
                name: "x_pi".into(),
            },
        ),
        (
            "inv_4x",
            &["x_pi", "x"][..],
            StaError::DuplicateNet {
                name: "x_pi".into(),
            },
        ),
        (
            "nand_999x",
            &[][..],
            StaError::UnknownCell {
                name: "nand_999x".into(),
            },
        ),
    ];
    for (cell, names, want) in cases {
        let (direct, reference) = both(cell, named(names));
        let (direct, reference) = (direct.unwrap_err(), reference.unwrap_err());
        assert_eq!(reference, want);
        assert_eq!(direct, want);
    }
}
