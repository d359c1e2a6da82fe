//! Multi-corner sweep amortization: K corner lanes of one design versus K
//! independent single-corner analyses.
//!
//! The tentpole measurement of the corner subsystem, framed as the
//! per-revision cost of a signoff loop: after every committed edit, all K
//! PVT corners must be re-timed before the next decision.  Two engines
//! race on an identical seeded deck and corner set:
//!
//! * **lanes** — one design with the corner set installed; each revision
//!   `Design::analyze_corners` splices every net once per corner (each
//!   lane's values scaled as they are spliced) into its worker's scratch
//!   and sweeps the K lanes with one kernel, then propagates each lane
//!   over one cached topology;
//! * **serial** — the pre-corner workflow: each revision, every corner's
//!   scaled design is reconstructed from the edited nominal design
//!   ([`Design::materialize_corner`] — a scaled deck is a *derived*
//!   artifact, and without corner lanes there is no mechanism to keep K
//!   of them in sync with edits except rebuilding) and fully analysed
//!   with `analyze_with_jobs`.
//!
//! Before timing, every lane is asserted **bit-identical**
//! (`assert_eq!` on full reports) to its materialized single-corner
//! oracle, so the amortization is never bought with drift.
//!
//! Environment knobs:
//!
//! * `CORNER_NETS`  — nets in the seeded deck (default 1024);
//! * `CORNER_ITERS` — timed repetitions per engine, best-of (default 3);
//! * `CORNER_FLOOR` — minimum accepted speedup at K=4 (default 2.0).
//!
//! A machine-readable summary is written to
//! `target/BENCH_corner_sweep.json`.

use std::time::Instant;

use rctree_core::corner::CornerSet;
use rctree_core::units::Seconds;
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::corners::{corner_set, CornerSpecParams};
use rctree_workloads::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(150e-9);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&x: &f64| x > 0.0)
        .unwrap_or(default)
}

fn workload(nets: usize) -> (Design, CornerSet) {
    let params = SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    };
    let trees: Vec<(String, _)> = params.trees(0xC0).into_iter().collect();
    let names: Vec<String> = trees.iter().map(|(n, _)| n.clone()).collect();
    let design = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees)
        .expect("seeded deck builds a design");
    let set = corner_set(&CornerSpecParams::default(), &names, 0xC0);
    (design, set)
}

fn best_of<F: FnMut() -> f64>(iters: usize, mut f: F) -> f64 {
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One revision on the lane engine: re-install the corner set (nothing
/// the sweep reads is cached across revisions) and sweep the K corner
/// lanes.  Returns the worst slack over all lanes.
fn revision_lanes(design: &mut Design, set: &CornerSet, jobs: usize) -> f64 {
    design.set_corners(set.clone());
    let analysis = design
        .analyze_corners(THRESHOLD, BUDGET, jobs)
        .expect("corner sweep analyses");
    let worst = analysis.worst_against(BUDGET).0;
    analysis.reports()[worst].slack_against(BUDGET).value()
}

/// One revision on the serial baseline: every corner's scaled design is
/// reconstructed from the (edited) nominal design and fully analysed,
/// K independent single-corner runs.  Returns the worst slack over all K.
fn revision_serial(design: &Design, k: usize, jobs: usize) -> f64 {
    let mut worst = f64::INFINITY;
    for lane in 0..k {
        let report = design
            .materialize_corner(lane)
            .expect("lane index in range")
            .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
            .expect("materialized corner analyses");
        worst = worst.min(report.slack_against(BUDGET).value());
    }
    worst
}

fn main() {
    let nets = env_usize("CORNER_NETS", 1024);
    let iters = env_usize("CORNER_ITERS", 3);
    let floor = env_f64("CORNER_FLOOR", 2.0);
    let jobs = rctree_par::default_jobs();

    let (mut design, set) = workload(nets);
    let k = set.len();
    println!(
        "corner_sweep: {nets}-net deck, K={k} corners ({}), {jobs} jobs, best of {iters}",
        set.names_csv()
    );

    // Correctness gate: every lane of the corner sweep is bit-identical
    // to its fully materialized single-corner oracle.
    design.set_corners(set.clone());
    let analysis = design
        .analyze_corners(THRESHOLD, BUDGET, jobs)
        .expect("corner sweep analyses");
    for lane in 0..k {
        let oracle = design
            .materialize_corner(lane)
            .expect("lane index in range")
            .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
            .expect("materialized corner analyses");
        assert_eq!(
            analysis.report(lane),
            Some(&oracle),
            "lane {lane} ({}) diverged from its single-corner oracle",
            analysis.names()[lane]
        );
    }

    let lanes_s = best_of(iters, || revision_lanes(&mut design, &set, jobs));
    let serial_s = best_of(iters, || revision_serial(&design, k, jobs));
    let speedup = serial_s / lanes_s;

    println!(
        "  lanes  {:>9.2} ms/revision   serial {:>9.2} ms/revision   amortization {:>5.2}x",
        lanes_s * 1e3,
        serial_s * 1e3,
        speedup
    );

    // The acceptance bar: a K=4 lane sweep must amortize to at least
    // `floor` (default 2x) over 4 independent analyses.
    assert!(
        speedup >= floor,
        "K={k} amortization {speedup:.2}x fell below the {floor}x acceptance bar"
    );

    let json = format!(
        "{{\n  \"bench\": \"corner_sweep\",\n  \"nets\": {nets},\n  \"corners\": {k},\n  \
         \"jobs\": {jobs},\n  \"iters\": {iters},\n  \
         \"lanes_s_per_revision\": {lanes_s},\n  \"serial_s_per_revision\": {serial_s},\n  \
         \"amortization\": {speedup},\n  \"floor\": {floor},\n  \"bit_identical\": true\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_corner_sweep.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  summary written to {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
