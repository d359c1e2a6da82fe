//! Corner lanes through the snapshot surface and the ECO re-time, against
//! the materialized single-corner oracle, `assert_eq!` with no tolerance:
//!
//! * every lane of a published snapshot answers node-level queries and
//!   sink windows exactly like a snapshot published from that corner's
//!   materialized design, before and after a seeded ECO stream;
//! * a publish whose batch dirties enough nets to shard the pre-commit
//!   re-time keeps every lane equal to its oracle for any worker count,
//!   and a batch whose last edit fails changes nothing;
//! * a corner whose scaled values are invalid fails alike on every path
//!   (corner sweep, publish, materialized oracle), and never the nominal
//!   analysis.

use rctree_core::builder::{RcTreeBuilder, INPUT_NAME};
use rctree_core::corner::CornerSet;
use rctree_core::element::Branch;
use rctree_core::error::CoreError;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_sta::{
    CellLibrary, Design, DesignSnapshot, Driver, EcoEdit, EcoEditKind, Load, Net, Sink, StaError,
    TimingReport,
};
use rctree_workloads::corners::{corner_set, CornerSpecParams};
use rctree_workloads::deck::SpefDeckParams;
use rctree_workloads::rng::Rng;

const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(200e-9);

/// Worker counts exercised (serial, even split, odd prime).
const JOBS: [usize; 3] = [1, 2, 7];

/// Every net of a deck design with its node names, feeders included.
type NetNodes = Vec<(String, Vec<String>)>;

/// A 40-net extracted deck with a seeded 4-corner set (two per-net
/// overrides), plus every net's node names.
fn deck() -> (Design, NetNodes) {
    let params = SpefDeckParams {
        nets: 40,
        ..SpefDeckParams::default()
    };
    let trees: Vec<(String, RcTree)> = params.trees(0x1A7E);
    let mut nets = Vec::new();
    for (name, tree) in &trees {
        // `from_extracted` feeds every net through an `input` -> `pin`
        // wire named `<net>_pi`.
        nets.push((
            format!("{name}_pi"),
            vec![INPUT_NAME.to_string(), "pin".to_string()],
        ));
        let nodes = tree.node_ids().map(|id| tree.name(id).unwrap().to_string());
        nets.push((name.clone(), nodes.collect()));
    }
    let names: Vec<String> = trees.iter().map(|(name, _)| name.clone()).collect();
    let mut design = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees).unwrap();
    let set = corner_set(&CornerSpecParams::default(), &names, 0x1A7E);
    assert_eq!(set.len(), 4);
    design.set_corners(set);
    (design, nets)
}

/// Asserts that every lane of `snapshot` answers like a snapshot published
/// from that lane's materialized design: every net's sink windows and every
/// node's times and bounds.  Returns the number of node queries compared.
fn assert_lanes_match_materialized(
    label: &str,
    design: &Design,
    snapshot: &DesignSnapshot,
    nets: &NetNodes,
) -> usize {
    let mut queries = 0;
    for k in 0..design.corner_count() {
        let oracle = design
            .materialize_corner(k)
            .unwrap()
            .publish(THRESHOLD, BUDGET, 1)
            .unwrap();
        for (net, nodes) in nets {
            let view = snapshot.net(net).unwrap();
            let want = oracle.net(net).unwrap();
            assert_eq!(view.corner_count(), design.corner_count());
            assert_eq!(
                view.sinks_at(k),
                Some(want.sinks()),
                "{label}: {net} lane {k}"
            );
            for node in nodes {
                assert_eq!(
                    view.node_times_at(node, THRESHOLD, k),
                    want.node_times(node, THRESHOLD),
                    "{label}: {net}/{node} lane {k}"
                );
                queries += 1;
            }
        }
    }
    queries
}

/// A seeded batch of `count` setcap edits on payload nets.
fn setcap_batch(nets: &NetNodes, rng: &mut Rng, count: usize) -> Vec<EcoEdit> {
    let payload: Vec<&(String, Vec<String>)> = nets
        .iter()
        .filter(|(name, _)| !name.ends_with("_pi"))
        .collect();
    (0..count)
        .map(|_| {
            let (net, nodes) = payload[rng.index(payload.len())];
            EcoEdit {
                net: net.clone(),
                kind: EcoEditKind::SetCap {
                    node: nodes[1 + rng.index(nodes.len() - 1)].clone(),
                    cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
                },
            }
        })
        .collect()
}

#[test]
fn snapshot_lanes_answer_like_materialized_corners_through_an_eco_stream() {
    let (mut design, nets) = deck();
    let mut snapshot = design.publish(THRESHOLD, BUDGET, 2).unwrap();
    let queries = assert_lanes_match_materialized("published", &design, &snapshot, &nets);
    assert_eq!(
        queries,
        design.corner_count() * nets.iter().map(|(_, n)| n.len()).sum::<usize>()
    );

    let mut rng = Rng::from_seed(0x5EED);
    for step in 0..4 {
        let edits = setcap_batch(&nets, &mut rng, 3);
        snapshot = design
            .publish_after_eco(&edits, THRESHOLD, BUDGET, 2, &snapshot)
            .unwrap();
        assert_lanes_match_materialized(&format!("step {step}"), &design, &snapshot, &nets);
    }
}

/// Every lane's report of `snapshot`, nominal first.
fn lane_reports(snapshot: &DesignSnapshot) -> Vec<TimingReport> {
    let corners = snapshot.corners().expect("a multi-corner snapshot");
    (0..corners.len())
        .map(|k| corners.report(k).unwrap().clone())
        .collect()
}

#[test]
fn a_wide_publish_retimes_every_lane_on_the_sharded_path() {
    let mut per_jobs = Vec::new();
    for jobs in JOBS {
        let (mut design, nets) = deck();
        let snapshot = design.publish(THRESHOLD, BUDGET, jobs).unwrap();
        // One setcap on each of twelve payload nets: a dirty set wide
        // enough to shard the pre-commit re-time of every lane.
        let edits: Vec<EcoEdit> = nets
            .iter()
            .filter(|(name, _)| !name.ends_with("_pi"))
            .take(12)
            .enumerate()
            .map(|(i, (net, nodes))| EcoEdit {
                net: net.clone(),
                kind: EcoEditKind::SetCap {
                    node: nodes.last().unwrap().clone(),
                    cap: Farads::from_femto(3.0 + i as f64),
                },
            })
            .collect();
        let next = design
            .publish_after_eco(&edits, THRESHOLD, BUDGET, jobs, &snapshot)
            .unwrap();
        let reports = lane_reports(&next);
        for (k, report) in reports.iter().enumerate() {
            let oracle = design
                .materialize_corner(k)
                .unwrap()
                .analyze_with_jobs(THRESHOLD, BUDGET, 1)
                .unwrap();
            assert_eq!(report, &oracle, "jobs {jobs}: lane {k}");
        }

        // The same twelve nets again, the last edit making its net
        // unanalysable: the batch fails in the re-time and changes
        // nothing, so an empty publish reproduces `next` lane for lane.
        let mut failing = edits.clone();
        let last = failing.last_mut().unwrap();
        last.kind = EcoEditKind::SetBranch {
            node: nets
                .iter()
                .find(|(name, _)| name == &last.net)
                .map(|(_, nodes)| nodes.last().unwrap().clone())
                .unwrap(),
            branch: Branch::resistor(Ohms::new(1e300)),
        };
        let before = design.analyze_corners(THRESHOLD, BUDGET, jobs).unwrap();
        let err = design
            .publish_after_eco(&failing, THRESHOLD, BUDGET, jobs, &next)
            .unwrap_err();
        assert!(matches!(err, StaError::Core(_)), "jobs {jobs}: {err:?}");
        assert_eq!(
            design
                .analyze_corners(THRESHOLD, BUDGET, jobs)
                .unwrap()
                .reports(),
            before.reports(),
            "jobs {jobs}"
        );
        let again = design
            .publish_after_eco(&[], THRESHOLD, BUDGET, jobs, &next)
            .unwrap();
        assert_eq!(lane_reports(&again), reports, "jobs {jobs}");
        per_jobs.push(reports);
    }
    assert_eq!(per_jobs[1], per_jobs[0]);
    assert_eq!(per_jobs[2], per_jobs[0]);
}

#[test]
fn a_corner_splice_error_is_the_same_on_every_path() {
    // `inv_4x` (2.5 kΩ) driving a 50 Ω / 5 fF line: at r_scale 1e308 the
    // corner's driver resistance overflows to infinity.
    let mut design = Design::new(CellLibrary::nmos_1981());
    design.add_instance("u0", "inv_4x").unwrap();
    let mut b = RcTreeBuilder::new();
    b.add_line(b.input(), "load", Ohms::new(50.0), Farads::from_femto(5.0))
        .unwrap();
    design
        .add_net(Net {
            name: "n0".into(),
            driver: Driver::Instance("u0".into()),
            interconnect: b.build().unwrap(),
            sinks: vec![Sink {
                node: "load".into(),
                load: Load::PrimaryOutput("out".into()),
            }],
        })
        .unwrap();
    let corner_free = design.analyze_with_jobs(THRESHOLD, BUDGET, 1).unwrap();
    design.set_corners(CornerSet::parse("big=1e308,1,1; override n0 big 1 1").unwrap());

    let want = StaError::Core(CoreError::InvalidValue {
        what: "resistance",
        value: f64::INFINITY,
    });
    for jobs in JOBS {
        assert_eq!(
            design.analyze_corners(THRESHOLD, BUDGET, jobs).unwrap_err(),
            want
        );
        assert_eq!(
            design.clone().publish(THRESHOLD, BUDGET, jobs).unwrap_err(),
            want
        );
        assert_eq!(
            design
                .materialize_corner(1)
                .unwrap()
                .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
                .unwrap_err(),
            want
        );
        assert_eq!(
            design.analyze_with_jobs(THRESHOLD, BUDGET, jobs).unwrap(),
            corner_free
        );
    }
}
