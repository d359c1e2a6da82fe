//! Equivalence gates for the delay-algebra refactor and the symbolic
//! polynomial lane.
//!
//! Three contracts are pinned here:
//!
//! 1. **`f64` bit-identity** — the generic-kernel scalar path produces the
//!    exact bits of the ECO path (the cold ECO warm-up of a clone,
//!    `apply_eco_with_jobs(&[], ..)`, which propagates and files every
//!    endpoint through its own state), for every worker count and under
//!    seeded ECO streams.  `assert_eq!`, not tolerances.
//! 2. **Symbolic exactness** — evaluating the `Poly2` lane at any uniform
//!    `(r_scale, c_scale)` agrees with the materialized-corner analysis at
//!    that scale (delay scale 1, no per-net overrides) to 1e-9 relative,
//!    and `certify_over` finds the same continuum worst case a dense
//!    1e3-point sampling oracle finds, on every workloads generator.
//! 3. **Lane reuse** — a snapshot's lane, rebuilt over its predecessor's
//!    edit cone, `==` a full build of the edited design; it is built once
//!    per snapshot however many threads ask, and paths of any depth neither
//!    copy per stage nor recurse per stage.

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};

use rctree_core::builder::RcTreeBuilder;
use rctree_core::cert::Certification;
use rctree_core::corner::CornerSet;
use rctree_core::element::Branch;
use rctree_core::units::{Farads, Ohms, Seconds};
use rctree_obs::{Obs, ObsConfig};
use rctree_sta::{
    CellLibrary, Design, DesignSnapshot, EcoEdit, EcoEditKind, SymbolicAnalysis, TimingReport,
};
use rctree_workloads::corners::{corner_set, CornerSpecParams};
use rctree_workloads::dag::{eco_dag, EcoDag, EcoDagParams};
use rctree_workloads::deck::SpefDeckParams;
use rctree_workloads::fig3::{figure3_tree, Figure3Values};
use rctree_workloads::fig7::figure7_tree;
use rctree_workloads::htree::{h_tree, HTreeParams};
use rctree_workloads::interval_spec;
use rctree_workloads::ladder::{distributed_line, rc_ladder, repeated_chain};
use rctree_workloads::mos_net::representative_mos_fanout;
use rctree_workloads::pla::PlaLine;
use rctree_workloads::random::RandomTreeConfig;
use rctree_workloads::rng::Rng;

const THRESHOLD: f64 = 0.5;

/// Worker counts exercised by every gate (serial, even split, odd prime).
const JOBS: [usize; 3] = [1, 2, 7];

/// Relative tolerance of the symbolic-vs-materialized comparisons: the two
/// paths accumulate the same terms in different association orders.
const REL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-30);
    (a - b).abs() <= REL * scale
}

/// One deck per workloads generator family, each with a budget on its own
/// time scale (the paper trees run in normalized seconds, the NMOS decks
/// in real nanoseconds).
fn generator_designs() -> Vec<(&'static str, Design, Seconds)> {
    let mut out = Vec::new();

    let dag = eco_dag(&EcoDagParams::default(), 0xA11CE);
    let budget = dag.budget();
    out.push(("eco_dag_default", dag.design, budget));

    let wide = EcoDagParams {
        chains: 6,
        depth: 3,
        cross_probability: 0.5,
        wire_nodes: 2,
        po_stride: 2,
    };
    let dag = eco_dag(&wide, 0xBEEF);
    let budget = dag.budget();
    out.push(("eco_dag_wide", dag.design, budget));

    let deck = SpefDeckParams {
        nets: 12,
        ..SpefDeckParams::default()
    };
    out.push((
        "spef_deck",
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", deck.trees(0xC0))
            .expect("deck builds"),
        Seconds::from_nano(500.0),
    ));

    // Every single-tree generator, one net each, in one extracted deck.
    let trees = vec![
        ("fig3".to_string(), figure3_tree(Figure3Values::default()).0),
        ("fig7".to_string(), figure7_tree().0),
        ("htree".to_string(), h_tree(HTreeParams::default()).0),
        (
            "ladder".to_string(),
            rc_ladder(Ohms::new(1000.0), Farads::new(1e-12), 8).0,
        ),
        (
            "line".to_string(),
            distributed_line(Ohms::new(400.0), Farads::new(0.5e-12)).0,
        ),
        (
            "chain".to_string(),
            repeated_chain(Ohms::new(200.0), Farads::from_femto(20.0), 6),
        ),
        (
            "random".to_string(),
            RandomTreeConfig::default().generate(0x5EED),
        ),
        ("mos".to_string(), representative_mos_fanout().0),
        ("pla".to_string(), PlaLine::new(8).tree().0),
    ];
    out.push((
        "paper_trees",
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_1x", trees).expect("trees build"),
        Seconds::new(1e4),
    ));

    out
}

/// Per-endpoint comparison of a symbolic evaluation against a scalar
/// report, by name: same endpoint set, windows within `REL`.
fn assert_reports_close(name: &str, got: &TimingReport, want: &TimingReport) {
    assert_eq!(
        got.endpoints.len(),
        want.endpoints.len(),
        "{name}: endpoint count"
    );
    for e in &want.endpoints {
        let g = got
            .endpoints
            .iter()
            .find(|g| g.name == e.name)
            .unwrap_or_else(|| panic!("{name}: endpoint {} missing", e.name));
        assert!(
            close(g.arrival.max.value(), e.arrival.max.value()),
            "{name}/{}: max {:e} vs {:e}",
            e.name,
            g.arrival.max.value(),
            e.arrival.max.value()
        );
        assert!(
            close(g.arrival.min.value(), e.arrival.min.value()),
            "{name}/{}: min {:e} vs {:e}",
            e.name,
            g.arrival.min.value(),
            e.arrival.min.value()
        );
    }
    assert!(
        close(got.worst_slack().value(), want.worst_slack().value()),
        "{name}: worst slack {:e} vs {:e}",
        got.worst_slack().value(),
        want.worst_slack().value()
    );
}

/// A corner-set spec of uniform `(r, c)` scale points with delay scale 1
/// and no overrides — the materialized oracle of the symbolic lane.
fn uniform_corner_spec(points: &[(f64, f64)]) -> CornerSet {
    let mut spec = String::new();
    for (k, (r, c)) in points.iter().enumerate() {
        writeln!(spec, "p{k}={r:?},{c:?},1.0").unwrap();
    }
    CornerSet::parse(&spec).expect("generated spec parses")
}

/// The lane of a cold `publish` of a clone of `design`: a publish without
/// a seed, so its lane is a full build, swept on the pool with `jobs`.
fn full_lane(design: &Design, threshold: f64, budget: Seconds, jobs: usize) -> SymbolicAnalysis {
    let snapshot = design.clone().publish(threshold, budget, jobs).unwrap();
    let lane = snapshot.symbolic().unwrap();
    drop(snapshot);
    Arc::unwrap_or_clone(lane)
}

/// Gate 1: the refactored scalar kernel is bit-identical across worker
/// counts and to the independent rebuild path, on every generator.
#[test]
fn scalar_reports_are_bit_identical_across_jobs_and_paths() {
    for (name, design, budget) in generator_designs() {
        let reference = design.analyze_with_jobs(THRESHOLD, budget, 1).unwrap();
        for jobs in JOBS {
            let report = design.analyze_with_jobs(THRESHOLD, budget, jobs).unwrap();
            assert_eq!(report, reference, "{name}: jobs {jobs}");
            let rebuilt = design
                .clone()
                .apply_eco_with_jobs(&[], THRESHOLD, budget, jobs)
                .unwrap();
            assert_eq!(rebuilt, reference, "{name}: rebuild, jobs {jobs}");
        }
    }
}

/// Gate 1b: bit-identity holds through seeded ECO streams — the warm
/// incremental path and a cold analysis of the edited design agree
/// exactly, for every worker count.
#[test]
fn scalar_bit_identity_survives_seeded_eco_streams() {
    for jobs in JOBS {
        let dag = eco_dag(&EcoDagParams::default(), 0xEC0);
        let budget = dag.budget();
        let mut design = dag.design;
        let mut rng = Rng::from_seed(0x57EAD ^ jobs as u64);
        for _round in 0..6 {
            let edits: Vec<EcoEdit> = (0..4)
                .map(|_| {
                    let net = &dag.nets[rng.index(dag.nets.len())];
                    EcoEdit {
                        net: net.name.clone(),
                        kind: EcoEditKind::SetCap {
                            node: net.nodes[rng.index(net.nodes.len())].clone(),
                            cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
                        },
                    }
                })
                .collect();
            let warm = design
                .apply_eco_with_jobs(&edits, THRESHOLD, budget, jobs)
                .unwrap();
            let cold = design.analyze_with_jobs(THRESHOLD, budget, jobs).unwrap();
            assert_eq!(warm, cold, "jobs {jobs}");
        }
    }
}

/// Gate 2: the symbolic lane is worker-count independent (bitwise) and
/// agrees with the nominal scalar report at `(1, 1)` to `REL`.
#[test]
fn symbolic_lane_is_jobs_independent_and_matches_nominal() {
    for (name, design, budget) in generator_designs() {
        let reference = full_lane(&design, THRESHOLD, budget, 1);
        let nominal = design.analyze_with_jobs(THRESHOLD, budget, 1).unwrap();
        for jobs in JOBS {
            let sym = full_lane(&design, THRESHOLD, budget, jobs);
            assert_eq!(
                sym.report_at(1.0, 1.0),
                reference.report_at(1.0, 1.0),
                "{name}: jobs {jobs}"
            );
            assert_eq!(
                sym.report_at(1.3, 0.8),
                reference.report_at(1.3, 0.8),
                "{name}: jobs {jobs} at (1.3, 0.8)"
            );
        }
        assert_reports_close(name, &reference.report_at(1.0, 1.0), &nominal);
        // The nominal evaluation also reproduces the critical paths.
        let at_nominal = reference.report_at(1.0, 1.0);
        for e in &nominal.endpoints {
            let g = at_nominal
                .endpoints
                .iter()
                .find(|g| g.name == e.name)
                .unwrap();
            assert_eq!(g.critical_path, e.critical_path, "{name}/{}", e.name);
        }
    }
}

/// Gate 2b: evaluating the symbolic lane at any uniform scale point agrees
/// with the **materialized-corner** analysis at that scale to `REL`, on
/// every generator.
#[test]
fn symbolic_evaluation_matches_materialized_corners() {
    let points = [(0.8, 0.9), (1.25, 1.1), (1.4, 1.2), (0.6, 1.3), (1.0, 1.0)];
    for (name, mut design, budget) in generator_designs() {
        let sym = full_lane(&design, THRESHOLD, budget, 2);
        design.set_corners(uniform_corner_spec(&points));
        for (k, &(r, c)) in points.iter().enumerate() {
            let oracle = design
                .materialize_corner(k + 1)
                .unwrap()
                .analyze_with_jobs(THRESHOLD, budget, 2)
                .unwrap();
            assert_reports_close(
                &format!("{name} at ({r}, {c})"),
                &sym.report_at(r, c),
                &oracle,
            );
        }
    }
}

/// Gate 2c: symbolic-vs-materialized agreement holds through seeded ECO
/// streams — after every batch the re-derived polynomials track the edited
/// design exactly.
#[test]
fn symbolic_evaluation_tracks_seeded_eco_streams() {
    let points = [(0.85, 1.15), (1.3, 0.75)];
    let dag = eco_dag(&EcoDagParams::default(), 0xD1CE);
    let budget = dag.budget();
    let mut design = dag.design;
    design.set_corners(uniform_corner_spec(&points));
    let mut rng = Rng::from_seed(0xEC0_57EA);
    for round in 0..4 {
        let edits: Vec<EcoEdit> = (0..5)
            .map(|_| {
                let net = &dag.nets[rng.index(dag.nets.len())];
                EcoEdit {
                    net: net.name.clone(),
                    kind: EcoEditKind::SetCap {
                        node: net.nodes[rng.index(net.nodes.len())].clone(),
                        cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
                    },
                }
            })
            .collect();
        let warm = design
            .apply_eco_with_jobs(&edits, THRESHOLD, budget, 2)
            .unwrap();
        let sym = full_lane(&design, THRESHOLD, budget, 2);
        assert_reports_close(
            &format!("round {round} nominal"),
            &sym.report_at(1.0, 1.0),
            &warm,
        );
        for (k, &(r, c)) in points.iter().enumerate() {
            let oracle = design
                .materialize_corner(k + 1)
                .unwrap()
                .analyze_with_jobs(THRESHOLD, budget, 2)
                .unwrap();
            assert_reports_close(
                &format!("round {round} at ({r}, {c})"),
                &sym.report_at(r, c),
                &oracle,
            );
        }
    }
}

/// Gate 3: `certify_over` against a dense-sampling oracle — a ≥1e3-point
/// grid over the box, each point materialized and analysed through the
/// corner lanes.  The continuum worst case must dominate every sample and
/// agree with the grid's worst (the box corners are grid points, and each
/// candidate maximum lies on the box boundary) in location value and
/// slack to `REL`, on every generator.
#[test]
fn certify_over_matches_dense_sampling_oracle() {
    const STEPS: usize = 33; // 33 × 33 = 1089 sample points
    for (seed, (name, mut design, budget)) in generator_designs().into_iter().enumerate() {
        let spec = interval_spec(seed as u64);
        let sym = full_lane(&design, THRESHOLD, budget, 2);
        let cert = sym.certify_over(budget, spec.r, spec.c);

        let axis = |(lo, hi): (f64, f64), i: usize| {
            if i + 1 == STEPS {
                hi
            } else {
                lo + (hi - lo) * i as f64 / (STEPS - 1) as f64
            }
        };
        let mut grid = Vec::with_capacity(STEPS * STEPS);
        for i in 0..STEPS {
            for j in 0..STEPS {
                grid.push((axis(spec.r, i), axis(spec.c, j)));
            }
        }
        design.set_corners(uniform_corner_spec(&grid));
        let lanes = design.analyze_corners(THRESHOLD, budget, 4).unwrap();

        let mut grid_worst = f64::NEG_INFINITY;
        for (k, &(r, c)) in grid.iter().enumerate() {
            let report = lanes.report(k + 1).unwrap();
            let arrival = report
                .critical_endpoint()
                .map_or(0.0, |e| e.arrival.max.value());
            assert!(
                arrival <= cert.worst_arrival.value() * (1.0 + REL) + 1e-30,
                "{name}: sample ({r}, {c}) arrival {arrival:e} exceeds certified \
                 worst {:e}",
                cert.worst_arrival.value()
            );
            grid_worst = grid_worst.max(arrival);
        }
        assert!(
            close(grid_worst, cert.worst_arrival.value()),
            "{name}: grid worst {grid_worst:e} vs certified {:e}",
            cert.worst_arrival.value()
        );
        assert!(
            close(
                cert.worst_slack.value(),
                budget.value() - cert.worst_arrival.value()
            ),
            "{name}: slack consistency"
        );
        let (r, c) = cert.at;
        assert!(
            spec.r.0 <= r && r <= spec.r.1 && spec.c.0 <= c && c <= spec.c.1,
            "{name}: worst point ({r}, {c}) outside the box"
        );
        // The verdict is the certification of the evaluated report at the
        // worst point.
        assert_eq!(
            cert.verdict,
            sym.report_at(r, c).certification_against(budget),
            "{name}: verdict"
        );
    }
}

/// Gate 4: the snapshot-level lazy symbolic analysis — built from the
/// published net views, cached per revision, refreshed by ECO publishes.
#[test]
fn snapshot_symbolic_is_cached_and_tracks_eco_publishes() {
    let dag = eco_dag(&EcoDagParams::default(), 0xFACE);
    let budget = dag.budget();
    let mut design = dag.design;
    let snap1 = design.publish(THRESHOLD, budget, 2).unwrap();
    let sym1 = snap1.symbolic().unwrap();
    assert_reports_close(
        "snapshot nominal",
        &sym1.report_at(1.0, 1.0),
        snap1.report(),
    );
    // Cached: the second call returns the same analysis.
    assert!(std::sync::Arc::ptr_eq(&sym1, &snap1.symbolic().unwrap()));

    let edits = vec![EcoEdit {
        net: dag.nets[0].name.clone(),
        kind: EcoEditKind::SetCap {
            node: dag.nets[0].nodes[0].clone(),
            cap: Farads::from_femto(250.0),
        },
    }];
    let snap2 = design
        .publish_after_eco(&edits, THRESHOLD, budget, 2, &snap1)
        .unwrap();
    let sym2 = snap2.symbolic().unwrap();
    assert_reports_close(
        "snapshot after eco",
        &sym2.report_at(1.0, 1.0),
        snap2.report(),
    );
    // The successor's symbolic lane is exactly the design-level analysis
    // of the edited state — same coefficient tables, bitwise.
    let fresh: SymbolicAnalysis = full_lane(&design, THRESHOLD, budget, 2);
    assert_eq!(sym2.report_at(1.2, 0.9), fresh.report_at(1.2, 0.9));
    // The old snapshot's cached lane is untouched by the publish.
    assert_reports_close(
        "old snapshot",
        &snap1.symbolic().unwrap().report_at(1.0, 1.0),
        snap1.report(),
    );
}

/// Gate 5: node-level symbolic queries — the snapshot views' coefficient
/// tables evaluate to the scalar node bounds at nominal (bitwise) and
/// expose exact polynomial sensitivities.
#[test]
fn node_symbolic_queries_match_scalar_and_expose_sensitivities() {
    let deck = SpefDeckParams {
        nets: 4,
        ..SpefDeckParams::default()
    };
    let mut design =
        Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", deck.trees(0xFEED)).unwrap();
    let budget = Seconds::from_nano(500.0);
    let snap = design.publish(THRESHOLD, budget, 2).unwrap();
    let net = snap.net("net0").expect("deck net exists");
    let node = net.sinks()[0].node.clone();

    let (_, scalar_bounds) = net.node_times(&node, THRESHOLD).unwrap();
    let (times, bounds) = net.node_symbolic(&node, THRESHOLD).unwrap();
    assert_eq!(bounds.eval(1.0, 1.0), scalar_bounds);
    // The symbolic times evaluate to rc-scaled characteristic times: t_d
    // is an rc-monomial, so doubling both scales quadruples it.
    let t_d = times.t_d.eval(1.0, 1.0);
    assert!(close(times.t_d.eval(2.0, 2.0), 4.0 * t_d));

    let (dr, dc) = net.node_sens(&node, THRESHOLD).unwrap();
    // Exact polynomial derivatives: finite differences of the bound agree.
    let h = 1e-6;
    let fd_r = (bounds.upper.eval(1.0 + h, 1.0) - bounds.upper.eval(1.0 - h, 1.0)) / (2.0 * h);
    let fd_c = (bounds.upper.eval(1.0, 1.0 + h) - bounds.upper.eval(1.0, 1.0 - h)) / (2.0 * h);
    assert!((dr - fd_r).abs() <= 1e-6 * dr.abs().max(1e-30));
    assert!((dc - fd_c).abs() <= 1e-6 * dc.abs().max(1e-30));
    assert!(dr > 0.0 && dc > 0.0, "a real wire has positive sensitivity");
}

/// Gate 6: the interval slack accessor — consistent with worst slack, with
/// certification, and `(required, required)` on an empty report.
#[test]
fn slack_interval_brackets_certification() {
    let dag = eco_dag(&EcoDagParams::default(), 0x51AC);
    let budget = dag.budget();
    let design = dag.design;
    let report = design.analyze_with_jobs(THRESHOLD, budget, 2).unwrap();
    let (lo, hi) = report.slack_interval();
    assert_eq!(lo, report.worst_slack());
    assert!(lo <= hi);
    // An in-between budget is exactly the indeterminate region.
    let worst_max = budget - lo;
    let worst_min = budget - hi;
    let mid = Seconds::new((worst_max.value() + worst_min.value()) / 2.0);
    if worst_min < worst_max {
        assert_eq!(
            report.certification_against(mid),
            rctree_core::cert::Certification::Indeterminate
        );
    }
    let empty = TimingReport {
        threshold: THRESHOLD,
        required_time: Seconds::from_nano(3.0),
        endpoints: Default::default(),
    };
    assert_eq!(
        empty.slack_interval(),
        (Seconds::from_nano(3.0), Seconds::from_nano(3.0))
    );
}

/// A seeded ECO edit on a random `eco_dag` net, cycling through every edit
/// shape the engines support: set a node's cap, replace its branch with a
/// line, graft a stub under it, and prune the stub grafted one round
/// earlier.
fn dag_edit(dag: &EcoDag, rng: &mut Rng, round: usize, grafted: &mut Option<String>) -> EcoEdit {
    let net = &dag.nets[rng.index(dag.nets.len())];
    let node = net.nodes[rng.index(net.nodes.len())].clone();
    let (net, kind) = match (round % 4, grafted.take()) {
        (3, Some(stub_net)) => (
            stub_net,
            EcoEditKind::Prune {
                node: format!("eco_stub_{}", round - 1),
            },
        ),
        (0 | 3, _) => (
            net.name.clone(),
            EcoEditKind::SetCap {
                node,
                cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
            },
        ),
        (1, _) => (
            net.name.clone(),
            EcoEditKind::SetBranch {
                node,
                branch: Branch::line(
                    Ohms::new(rng.range_f64(20.0, 200.0)),
                    Farads::from_femto(rng.range_f64(1.0, 20.0)),
                ),
            },
        ),
        _ => {
            let mut b = RcTreeBuilder::with_input_name(format!("eco_stub_{round}"));
            b.add_capacitance(b.input(), Farads::from_femto(15.0))
                .expect("valid stub");
            *grafted = Some(net.name.clone());
            (
                net.name.clone(),
                EcoEditKind::Graft {
                    parent: node,
                    via: Branch::resistor(Ohms::new(60.0)),
                    subtree: Box::new(b.build().expect("valid stub")),
                },
            )
        }
    };
    EcoEdit { net, kind }
}

/// The `(count, sum)` of the `nets_swept` attribute over the
/// `sta.symbolic_build` spans recorded so far.
fn nets_swept(obs: &Obs) -> (f64, f64) {
    let text = obs.registry().expose(true);
    let exposition = rctree_obs::parse_exposition(&text).expect("well-formed exposition");
    let series = |stat: &str| {
        exposition
            .series
            .get(&format!(
                "rctree_phase_attr_{stat}{{attr=\"nets_swept\",phase=\"sta.symbolic_build\"}}"
            ))
            .map_or(0.0, |s| s.1)
    };
    (series("count"), series("sum"))
}

/// `certify_over`'s verdict is the report's at the witness point, for
/// budgets that fail, straddle and pass the worst endpoint's window there.
fn assert_verdicts_follow_the_report(lane: &SymbolicAnalysis) {
    let box_r = (0.8, 1.4);
    let box_c = (0.9, 1.2);
    let at = lane.certify_over(lane.required_time(), box_r, box_c).at;
    let report = lane.report_at(at.0, at.1);
    let worst = report.critical_endpoint().expect("endpoints").arrival;
    let (min, max) = (worst.min.value(), worst.max.value());
    for (required, want) in [
        (0.99 * min, Some(Certification::Fail)),
        (0.5 * (min + max), None),
        (1.01 * max, Some(Certification::Pass)),
    ] {
        let required = Seconds::new(required);
        let verdict = lane.certify_over(required, box_r, box_c).verdict;
        assert_eq!(verdict, report.certification_against(required));
        if let Some(want) = want {
            assert_eq!(verdict, want);
        }
    }
}

/// Gate 7: a seeded lane is the full build.  Seeded ECO streams (setcap,
/// setline, graft, prune) run on a 4-corner `eco_dag`; every publish's lane
/// — a cone rebuild of its predecessor's, or of an older lane when the
/// predecessors were never built — must `==` a fresh full build
/// ([`full_lane`]) of the design as published.  Covered: every
/// revision built; only every third built; an old snapshot built after its
/// successor was published; and a threshold change and a cold `publish`,
/// both without a seed, so their lanes are full builds.
#[test]
fn seeded_symbolic_lanes_equal_full_builds_through_eco_streams() {
    let params = EcoDagParams {
        chains: 4,
        depth: 8,
        cross_probability: 0.5,
        wire_nodes: 3,
        po_stride: 1,
    };
    let obs = Obs::new(ObsConfig::default());
    let _entered = obs.enter();
    for jobs in [1usize, 2] {
        for build_every in [1usize, 3] {
            let label = format!("jobs {jobs}, every {build_every}");
            let dag = eco_dag(&params, 0x5EED);
            let budget = dag.budget();
            let mut design = eco_dag(&params, 0x5EED).design;
            let names: Vec<String> = dag.nets.iter().map(|n| n.name.clone()).collect();
            let spec = CornerSpecParams {
                corners: 4,
                overrides: 0,
            };
            design.set_corners(corner_set(&spec, &names, 0xC0));
            let nets = design.net_count() as f64;
            let mut rng = Rng::from_seed(0xEC0 ^ jobs as u64);
            let mut grafted = None;

            let mut snapshot = design.publish(THRESHOLD, budget, jobs).unwrap();
            let mut expected = full_lane(&design, THRESHOLD, budget, jobs);
            // An unbuilt predecessor and the design-level lane it had.
            let mut unbuilt: Option<(DesignSnapshot, SymbolicAnalysis)> = None;
            for round in 0..18 {
                if round % build_every == 0 {
                    let before = nets_swept(&obs);
                    assert_eq!(
                        *snapshot.symbolic().unwrap(),
                        expected,
                        "{label}: round {round}"
                    );
                    let after = nets_swept(&obs);
                    assert_eq!(after.0, before.0 + 1.0, "{label}: one build per snapshot");
                    if round == 0 {
                        assert_eq!(
                            after.1 - before.1,
                            nets,
                            "{label}: the cold lane sweeps all"
                        );
                    } else {
                        assert!(
                            after.1 - before.1 < nets,
                            "{label}: round {round} re-swept all"
                        );
                    }
                    assert_verdicts_follow_the_report(&snapshot.symbolic().unwrap());
                } else {
                    unbuilt = Some((snapshot.clone(), expected.clone()));
                }
                let edit = dag_edit(&dag, &mut rng, round, &mut grafted);
                snapshot = design
                    .publish_after_eco(&[edit], THRESHOLD, budget, jobs, &snapshot)
                    .unwrap();
                expected = full_lane(&design, THRESHOLD, budget, jobs);
                // A predecessor built after its successor was published
                // still answers for its own revision.
                if let Some((old, old_expected)) = unbuilt.take().filter(|_| round == 7) {
                    assert_eq!(
                        *old.symbolic().unwrap(),
                        old_expected,
                        "{label}: old snapshot"
                    );
                }
            }
            assert_eq!(*snapshot.symbolic().unwrap(), expected, "{label}: last");

            // A threshold change and a cold publish carry no seed: full
            // builds that sweep every net.
            for (what, next) in [
                (
                    "threshold change",
                    design.publish_after_eco(&[], 0.7, budget, jobs, &snapshot),
                ),
                ("cold publish", design.publish(THRESHOLD, budget, jobs)),
            ] {
                let next = next.unwrap();
                let fresh = full_lane(&design, next.threshold(), budget, jobs);
                let before = nets_swept(&obs);
                assert_eq!(*next.symbolic().unwrap(), fresh, "{label}: {what}");
                assert_eq!(nets_swept(&obs).1 - before.1, nets, "{label}: {what}");
            }
        }
    }
}

/// Gate 8: the lane is built once per snapshot.  Eight threads asking a
/// fresh snapshot for its lane at once record one `sta.symbolic_build`
/// span and all receive the same `Arc`.
#[test]
fn concurrent_first_calls_build_the_lane_once() {
    let dag = eco_dag(&EcoDagParams::default(), 0x0CE);
    let budget = dag.budget();
    let mut design = dag.design;
    let snapshot = design.publish(THRESHOLD, budget, 2).unwrap();
    let obs = Obs::new(ObsConfig::default());
    let barrier = Barrier::new(8);
    let lanes: Vec<Arc<SymbolicAnalysis>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let _entered = obs.enter();
                    barrier.wait();
                    snapshot.symbolic().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(lanes.iter().all(|lane| Arc::ptr_eq(lane, &lanes[0])));
    assert_eq!(nets_swept(&obs).0, 1.0, "exactly one build");
}

/// Gate 9: paths of any depth.  One 50,000-stage chain goes through the
/// scalar analysis, a publish, the snapshot's lane, an ECO at the chain
/// head, the successor's seeded lane and a box certification, then is
/// dropped — without recursing once per stage anywhere, and without
/// copying the path per stage (that would be ≈1.25·10⁹ names).
#[test]
fn a_fifty_thousand_stage_chain_times_and_drops_without_deep_recursion() {
    const DEPTH: usize = 50_000;
    let params = EcoDagParams {
        chains: 1,
        depth: DEPTH,
        cross_probability: 0.0,
        wire_nodes: 1,
        po_stride: 1,
    };
    let dag = eco_dag(&params, 0xDEE9);
    let budget = Seconds::new(1.0);
    let mut design = dag.design;
    let report = design.analyze_with_jobs(THRESHOLD, budget, 2).unwrap();
    assert_eq!(
        report.critical_endpoint().unwrap().critical_path.len(),
        DEPTH
    );
    let first = design.publish(THRESHOLD, budget, 2).unwrap();
    let lane = first.symbolic().unwrap();
    assert_eq!(lane.endpoints().len(), 1);
    let head = EcoEdit {
        net: dag.nets[0].name.clone(),
        kind: EcoEditKind::SetCap {
            node: dag.nets[0].nodes[0].clone(),
            cap: Farads::from_femto(90.0),
        },
    };
    let second = design
        .publish_after_eco(&[head], THRESHOLD, budget, 2, &first)
        .unwrap();
    let seeded = second.symbolic().unwrap();
    let cert = seeded.certify_over(budget, (0.8, 1.4), (0.9, 1.2));
    let at_witness = seeded.report_at(cert.at.0, cert.at.1);
    let worst = at_witness.critical_endpoint().unwrap();
    assert_eq!(worst.critical_path.len(), DEPTH);
    assert_eq!(
        second.report().critical_endpoint().unwrap().critical_path,
        seeded.report_at(1.0, 1.0).endpoints[0].critical_path
    );
    drop((report, first, lane, second, seeded, at_witness, design));
}
