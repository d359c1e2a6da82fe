//! ECO arrival-propagation throughput on the cone-limited path.
//!
//! On deep multi-stage designs the arrival propagation, not stage timing,
//! is what an edit could cost.  This bench drives exactly that shape — a
//! DAG of `ECO_PROP_CHAINS` parallel chains, `ECO_PROP_DEPTH` stages deep
//! (`rctree_workloads::dag::eco_dag`) — through
//! [`Design::apply_eco_with_jobs`] with a seeded stream of
//! single-capacitor edits: persistent per-net engines, cached Kahn
//! topology and arrival windows, re-propagation limited to the edited
//! net's fan-out cone, and only the cone's endpoints re-filed in the
//! persistent endpoint order.
//!
//! Before any timing, the report after the full stream is asserted
//! **bit-identical** to a from-scratch `analyze` of the edited design, so
//! the throughput is never bought with drift.  The bench reports cone
//! edits/s; regressions are tracked in absolute terms by the repository
//! benchmark (`rcbench`), not by a ratio here.
//!
//! Environment knobs:
//!
//! * `ECO_PROP_CHAINS` — parallel chains (default 8);
//! * `ECO_PROP_DEPTH`  — stages per chain (default 64);
//! * `ECO_PROP_EDITS`  — edits per timed run (default 256);
//! * `ECO_PROP_ITERS`  — timed repetitions, best-of (default 3).
//!
//! A machine-readable summary is written to
//! `target/BENCH_eco_propagation.json`.

use std::time::Instant;

use rctree_core::units::{Farads, Seconds};
use rctree_sta::{Design, EcoEdit, EcoEditKind, TimingReport};
use rctree_workloads::dag::{eco_dag, EcoDag, EcoDagParams};
use rctree_workloads::rng::Rng;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Seeded single-capacitor edit stream over the DAG's advertised (net,
/// node) names.  Values are absolute, so replaying the same stream leaves
/// the design in the same state — which keeps best-of repetitions fair.
fn edit_stream(dag: &EcoDag, edits: usize, seed: u64) -> Vec<EcoEdit> {
    let mut rng = Rng::from_seed(seed);
    (0..edits)
        .map(|_| {
            let net = &dag.nets[rng.index(dag.nets.len())];
            let node = net.nodes[rng.index(net.nodes.len())].clone();
            EcoEdit {
                net: net.name.clone(),
                kind: EcoEditKind::SetCap {
                    node,
                    cap: Farads::from_femto(rng.range_f64(1.0, 40.0)),
                },
            }
        })
        .collect()
}

/// Applies the stream one edit at a time, returning the final report.
/// `jobs = 1`: the bench targets the propagation algorithm, not pool
/// scheduling.
fn run_stream(
    design: &mut Design,
    edits: &[EcoEdit],
    threshold: f64,
    budget: Seconds,
) -> TimingReport {
    let mut last = None;
    for edit in edits {
        let report = design
            .apply_eco_with_jobs(std::slice::from_ref(edit), threshold, budget, 1)
            .expect("generated edits apply");
        last = Some(report);
    }
    last.expect("stream is non-empty")
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

fn main() {
    let chains = env_usize("ECO_PROP_CHAINS", 8);
    let depth = env_usize("ECO_PROP_DEPTH", 64);
    let edits = env_usize("ECO_PROP_EDITS", 256);
    let iters = env_usize("ECO_PROP_ITERS", 3);
    let params = EcoDagParams {
        chains,
        depth,
        cross_probability: 0.15,
        wire_nodes: 3,
        po_stride: 4,
    };
    let threshold = 0.5;
    let budget = Seconds::from_nano(2000.0 * depth as f64);

    let dag = eco_dag(&params, 0xEC0);
    let instances = dag.instance_count();
    let nets = dag.nets.len();
    let stream = edit_stream(&dag, edits, 0x5EED);
    println!(
        "eco_propagation: {chains}x{depth} DAG ({instances} instances, {nets} nets), \
         {edits} edits, best of {iters}"
    );

    // Correctness gate first: the incremental report after the full
    // stream equals a from-scratch analysis of the edited design.
    let mut cone = dag.design;
    cone.apply_eco_with_jobs(&[], threshold, budget, 1)
        .expect("warm-up");
    let report = run_stream(&mut cone, &stream, threshold, budget);
    assert_eq!(
        report,
        cone.analyze(threshold, budget).expect("analyzable"),
        "cone path drifted from a full analysis"
    );

    // Timed runs on the warmed design (state is identical at the start of
    // every repetition: the stream's cap values are absolute).
    let cone_s = best_of(iters, || {
        run_stream(&mut cone, &stream, threshold, budget)
            .worst_slack()
            .value()
    });
    let cone_eps = edits as f64 / cone_s;
    println!("  cone-limited {cone_eps:>12.0} edits/s");

    let json = format!(
        "{{\n  \"bench\": \"eco_propagation\",\n  \"chains\": {chains},\n  \"depth\": {depth},\n  \
         \"instances\": {instances},\n  \"nets\": {nets},\n  \"edits\": {edits},\n  \
         \"iters\": {iters},\n  \"cone_edits_per_s\": {cone_eps},\n  \"bit_identical\": true\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_eco_propagation.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  summary written to {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
