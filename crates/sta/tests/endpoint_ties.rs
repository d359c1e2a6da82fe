//! The endpoint order's tie-breaker under incremental updates.
//!
//! A report lists endpoints by descending worst arrival, ties in
//! `(net rank, sink)` order.  The ECO path keeps that order persistently
//! and re-files only the endpoints of the cone it walks, so a tie is where
//! an incremental update could disagree with a from-scratch sort.  This
//! suite builds a design of identical nets, each fanning out to identical
//! branches, so whole blocks of endpoints tie exactly on every corner
//! lane, then drives seeded edits drawn from a few discrete values: each
//! edit moves a net's endpoints out of their tie group, into another
//! group, or back.  After every edit, every lane of the published snapshot
//! must equal a from-scratch analysis and render byte-identically.

use rctree_core::builder::RcTreeBuilder;
use rctree_core::corner::CornerSet;
use rctree_core::tree::RcTree;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_sta::{CellLibrary, Design, EcoEdit, EcoEditKind, TimingReport};
use rctree_workloads::rng::Rng;

const THRESHOLD: f64 = 0.5;
const NETS: usize = 64;
const BRANCHES: usize = 4;

/// A stem feeding `BRANCHES` identical output branches.
fn fanout_tree() -> RcTree {
    let mut b = RcTreeBuilder::new();
    let stem = b
        .add_line(b.input(), "stem", Ohms::new(120.0), Farads::from_femto(8.0))
        .expect("stem");
    for k in 0..BRANCHES {
        let leaf = b
            .add_line(
                stem,
                format!("b{k}"),
                Ohms::new(300.0),
                Farads::from_femto(12.0),
            )
            .expect("branch");
        b.mark_output(leaf).expect("output");
    }
    b.build().expect("tree")
}

/// Identical nets with a 4-corner set (nominal plus three scaled lanes).
fn tied_design() -> Design {
    let nets = (0..NETS).map(|i| (format!("n{i}"), fanout_tree()));
    let mut design =
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", nets).expect("design");
    let mut corners = CornerSet::nominal();
    corners.push("slow", 1.3, 1.2, 1.1).expect("slow");
    corners.push("fast", 0.8, 0.9, 0.9).expect("fast");
    corners.push("wire", 1.5, 1.0, 1.0).expect("wire");
    design.set_corners(corners);
    design
}

/// Adjacent endpoints whose worst arrivals are exactly equal.
fn adjacent_ties(report: &TimingReport) -> usize {
    let all: Vec<_> = report.endpoints.iter().collect();
    all.windows(2)
        .filter(|w| w[0].arrival.max == w[1].arrival.max)
        .count()
}

/// The report order restated from its definition: descending worst
/// arrival, ties by net rank, then sink.  Every instance here is driven
/// from a primary input, so the net ranks of the endpoint-bearing nets
/// follow their driver instances' names (`<net>_drv`), and a net's sinks
/// are its branches `b0..`.
fn assert_tie_order(report: &TimingReport, context: &str) {
    let key = |name: &str| {
        let (net, branch) = name.split_once('/').expect("deck endpoint name");
        (format!("{net}_drv"), branch.to_string())
    };
    let mut want: Vec<_> = report.endpoints.iter().collect();
    want.sort_by(|a, b| {
        b.arrival
            .max
            .value()
            .total_cmp(&a.arrival.max.value())
            .then_with(|| key(&a.name).cmp(&key(&b.name)))
    });
    assert!(
        report
            .endpoints
            .iter()
            .map(|e| &e.name)
            .eq(want.iter().map(|e| &e.name)),
        "{context}: ties out of (net rank, sink) order"
    );
}

/// Every lane's oracle: lane 0 from `analyze_with_jobs`, lane `k` from
/// the materialized corner design.
fn oracle(design: &Design, budget: Seconds) -> Vec<TimingReport> {
    let mut lanes = vec![design
        .analyze_with_jobs(THRESHOLD, budget, 1)
        .expect("analyze")];
    for k in 1..design.corner_count() {
        let corner = design.materialize_corner(k).expect("materialize");
        lanes.push(
            corner
                .analyze_with_jobs(THRESHOLD, budget, 1)
                .expect("analyze corner"),
        );
    }
    lanes
}

#[test]
fn incremental_order_matches_analysis_through_ties_on_every_lane() {
    let budget = Seconds::from_nano(40.0);
    for jobs in [1, 2] {
        let mut design = tied_design();
        let mut snapshot = design.publish(THRESHOLD, budget, jobs).expect("publish");
        let initial_ties = adjacent_ties(snapshot.report());
        assert!(
            initial_ties >= NETS * BRANCHES - 2,
            "identical nets should tie: {initial_ties}"
        );
        let nodes: Vec<String> = std::iter::once("stem".to_string())
            .chain((0..BRANCHES).map(|k| format!("b{k}")))
            .collect();
        // Zero restores a node's original lumped cap, so edits fall back
        // into the original tie group as well as into each other's.
        let caps = [0.0, 2.0, 5.0];
        let mut rng = Rng::from_seed(0x71E5 + jobs as u64);
        let mut fewest = initial_ties;
        let mut regained = false;
        for step in 0..160 {
            let edit = EcoEdit {
                net: format!("n{}", rng.index(NETS)),
                kind: EcoEditKind::SetCap {
                    node: nodes[rng.index(nodes.len())].clone(),
                    cap: Farads::from_femto(caps[rng.index(caps.len())]),
                },
            };
            snapshot = design
                .publish_after_eco(&[edit], THRESHOLD, budget, jobs, &snapshot)
                .expect("edit applies");
            let corners = snapshot.corners().expect("multi-corner snapshot");
            for (k, want) in oracle(&design, budget).iter().enumerate() {
                let got = corners.report(k).expect("lane");
                assert_tie_order(got, &format!("jobs {jobs}, step {step}, lane {k}"));
                assert_eq!(got, want, "jobs {jobs}, step {step}, lane {k}");
                assert_eq!(
                    got.to_string(),
                    want.to_string(),
                    "jobs {jobs}, step {step}, lane {k}: rendering"
                );
            }
            let ties = adjacent_ties(snapshot.report());
            regained |= ties > fewest;
            fewest = fewest.min(ties);
        }
        assert!(fewest < initial_ties, "no edit broke a tie");
        assert!(regained, "no edit moved an endpoint back into a tie");
    }
}
