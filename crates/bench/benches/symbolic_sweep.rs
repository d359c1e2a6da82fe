//! Symbolic sweep amortization: one polynomial-lane analysis answering N
//! scale points versus N materialized re-analyses.
//!
//! The tentpole measurement of the delay-algebra refactor, framed as a
//! what-if loop: given a signed-off deck, evaluate the timing report at N
//! global wire-scale points `(r, c)` — a margining sweep over a process
//! box.  Two engines race on an identical seeded deck and point set:
//!
//! * **symbolic** — the lane of a freshly published snapshot
//!   (`DesignSnapshot::symbolic`, a full build: one pass computes every
//!   endpoint bound as a degree-≤2 polynomial in `(r, c)`); each point is
//!   then a constant-time `SymbolicAnalysis::report_at` evaluation (no
//!   tree walk at all).  The publish runs outside the timed region;
//! * **serial** — the pre-algebra workflow: each point's scaled design is
//!   reconstructed from the nominal one ([`Design::materialize_corner`]
//!   with the point installed as a corner lane) and fully re-analysed
//!   with `analyze_with_jobs`.
//!
//! Before timing, every point's symbolic evaluation is asserted to agree
//! with its materialized oracle to 1e-9 relative on every endpoint bound
//! (the coefficient-identity gate — graph-level evaluation reassociates
//! coefficient cells, so the guarantee is 1e-9, not bitwise), and the
//! nominal evaluation `report_at(1, 1)` is asserted against the plain
//! scalar analysis the same way.  The amortization is never bought with
//! drift.
//!
//! Environment knobs:
//!
//! * `SYMBOLIC_NETS`   — nets in the seeded deck (default 1024);
//! * `SYMBOLIC_POINTS` — scale points N in the sweep (default 8);
//! * `SYMBOLIC_ITERS`  — timed repetitions per engine, best-of (default 3);
//! * `SYMBOLIC_FLOOR`  — minimum accepted speedup at N=8 (default 2.0).
//!
//! A machine-readable summary is written to
//! `target/BENCH_symbolic_sweep.json`.

use std::collections::HashMap;
use std::time::Instant;

use rctree_core::corner::CornerSet;
use rctree_core::units::Seconds;
use rctree_sta::{CellLibrary, Design, DesignSnapshot, TimingReport};
use rctree_workloads::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET: Seconds = Seconds::new(150e-9);
const REL_TOL: f64 = 1e-9;

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

fn workload(nets: usize) -> Design {
    let params = SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    };
    Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", params.trees(0xC0))
        .expect("seeded deck builds a design")
}

/// N deterministic scale points spread over the `[0.8, 1.4] × [0.85, 1.25]`
/// box, traversed in opposite directions so no point has `r == c`.
fn sweep_points(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let t = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            (0.8 + 0.6 * t, 1.25 - 0.4 * t)
        })
        .collect()
}

/// The sweep points installed as corner lanes 1..=N, so the serial
/// baseline can materialize each point with `Design::materialize_corner`.
fn points_as_corners(points: &[(f64, f64)]) -> CornerSet {
    let mut set = CornerSet::nominal();
    for (k, &(r, c)) in points.iter().enumerate() {
        set.push(&format!("p{}", k + 1), r, c, 1.0)
            .expect("sweep points are finite and positive");
    }
    set
}

fn assert_reports_close(sym: &TimingReport, oracle: &TimingReport, label: &str) {
    assert_eq!(
        sym.endpoints.len(),
        oracle.endpoints.len(),
        "{label}: endpoint count diverged"
    );
    let by_name: HashMap<&str, (f64, f64)> = oracle
        .endpoints
        .iter()
        .map(|e| (&*e.name, (e.arrival.min.value(), e.arrival.max.value())))
        .collect();
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-30);
    for e in &sym.endpoints {
        let &(min, max) = by_name
            .get(&*e.name)
            .unwrap_or_else(|| panic!("{label}: endpoint {} missing from oracle", e.name));
        assert!(
            close(e.arrival.min.value(), min) && close(e.arrival.max.value(), max),
            "{label}: endpoint {} diverged beyond {REL_TOL:e} rel: \
             symbolic [{:e}, {:e}] vs oracle [{min:e}, {max:e}]",
            e.name,
            e.arrival.min.value(),
            e.arrival.max.value()
        );
    }
}

/// The best of `iters` timed runs of `f`, each on a fresh `setup()`
/// input, which is made and dropped outside the timed region.
fn best_of<S>(iters: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(&S) -> f64) -> f64 {
    (0..iters)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(f(&input));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A freshly published snapshot: its symbolic lane is not built yet, and
/// a cold publish carries no seed, so the first `symbolic()` is a full
/// build.
fn fresh_snapshot(design: &mut Design, jobs: usize) -> DesignSnapshot {
    design
        .publish(THRESHOLD, BUDGET, jobs)
        .expect("the deck publishes")
}

/// One sweep on the symbolic engine: the snapshot's polynomial lane, then
/// one `report_at` evaluation per point.  Returns the worst slack over all
/// points.
fn sweep_symbolic(snapshot: &DesignSnapshot, points: &[(f64, f64)]) -> f64 {
    let sym = snapshot.symbolic().expect("symbolic analysis succeeds");
    points
        .iter()
        .map(|&(r, c)| sym.report_at(r, c).slack_against(BUDGET).value())
        .fold(f64::INFINITY, f64::min)
}

/// One sweep on the serial baseline: every point's scaled design is
/// reconstructed and fully analysed, N independent runs.
fn sweep_serial(design: &Design, n: usize, jobs: usize) -> f64 {
    let mut worst = f64::INFINITY;
    for lane in 1..=n {
        let report = design
            .materialize_corner(lane)
            .expect("lane index in range")
            .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
            .expect("materialized point analyses");
        worst = worst.min(report.slack_against(BUDGET).value());
    }
    worst
}

fn main() {
    let nets = env_usize("SYMBOLIC_NETS", 1024);
    let n = env_usize("SYMBOLIC_POINTS", 8);
    let iters = env_usize("SYMBOLIC_ITERS", 3);
    let floor = env_f64("SYMBOLIC_FLOOR", 2.0);
    let jobs = rctree_par::default_jobs();

    let points = sweep_points(n);
    let mut design = workload(nets);
    design.set_corners(points_as_corners(&points));
    println!("symbolic_sweep: {nets}-net deck, N={n} scale points, {jobs} jobs, best of {iters}");

    // Coefficient-identity gate: the polynomial lane evaluated at each
    // sweep point agrees with the fully materialized oracle at that point,
    // and at (1, 1) with the plain scalar analysis, to 1e-9 relative.
    let sym = fresh_snapshot(&mut design, jobs)
        .symbolic()
        .expect("symbolic analysis succeeds");
    let scalar = design
        .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
        .expect("scalar analysis succeeds");
    assert_reports_close(&sym.report_at(1.0, 1.0), &scalar, "nominal (1, 1)");
    for (lane, &(r, c)) in points.iter().enumerate() {
        let oracle = design
            .materialize_corner(lane + 1)
            .expect("lane index in range")
            .analyze_with_jobs(THRESHOLD, BUDGET, jobs)
            .expect("materialized point analyses");
        assert_reports_close(
            &sym.report_at(r, c),
            &oracle,
            &format!("point p{} (r={r}, c={c})", lane + 1),
        );
    }

    let symbolic_s = best_of(
        iters,
        || fresh_snapshot(&mut design, jobs),
        |snapshot| sweep_symbolic(snapshot, &points),
    );
    let serial_s = best_of(iters, || (), |()| sweep_serial(&design, n, jobs));
    let speedup = serial_s / symbolic_s;

    println!(
        "  symbolic {:>9.2} ms/sweep   serial {:>9.2} ms/sweep   amortization {:>5.2}x",
        symbolic_s * 1e3,
        serial_s * 1e3,
        speedup
    );

    // The acceptance bar: an N=8 sweep through one symbolic analysis must
    // amortize to at least `floor` (default 2x) over 8 re-analyses.
    assert!(
        speedup >= floor,
        "N={n} amortization {speedup:.2}x fell below the {floor}x acceptance bar"
    );

    let json = format!(
        "{{\n  \"bench\": \"symbolic_sweep\",\n  \"nets\": {nets},\n  \"points\": {n},\n  \
         \"jobs\": {jobs},\n  \"iters\": {iters},\n  \
         \"symbolic_s_per_sweep\": {symbolic_s},\n  \"serial_s_per_sweep\": {serial_s},\n  \
         \"amortization\": {speedup},\n  \"floor\": {floor},\n  \
         \"identity_rel_tol\": {REL_TOL:e}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_symbolic_sweep.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  summary written to {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
