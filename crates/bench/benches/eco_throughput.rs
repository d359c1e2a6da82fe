//! ECO edit throughput: incremental re-analysis versus rebuild-and-rerun.
//!
//! This is the tentpole measurement of the incremental engine: a
//! 2^12-node H-tree (the paper's clock-distribution workload) absorbs a
//! seeded stream of edits, and after every edit the timing of the deepest
//! sink is re-queried.  Two engines race on identical streams:
//!
//! * **incremental** — one `EditableTree`; each edit writes the tree's
//!   row, patches the engine's own repair columns and repairs the live
//!   characteristic-time state in `O(depth · log n)`
//!   (`O(depth + |subtree|)` for structural edits);
//! * **rebuild** — the pre-ECO workflow; each edit is followed by
//!   `RcTree::rebuild()` (a table copy with its pre-order re-derived)
//!   plus a full `BatchTimes::of` sweep, `O(n)` per edit.
//!
//! Before timing, both engines run the stream once and their final states
//! are asserted equal to 1e-9 relative, so the speedup is never bought
//! with drift.  Two phases are measured: single-capacitor tweaks (the hot
//! ECO op, and the acceptance target of ≥10x) and a mixed stream with
//! branch resizes, grafts and prunes.
//!
//! Environment knobs:
//!
//! * `ECO_LEVELS` — H-tree branching levels (default 11 → 4096 nodes);
//! * `ECO_EDITS`  — edits per timed phase (default 512);
//! * `ECO_ITERS`  — timed repetitions per engine, best-of (default 3).
//!
//! A machine-readable summary is written to
//! `target/BENCH_eco_throughput.json`.

use std::time::Instant;

use rctree_core::batch::BatchTimes;
use rctree_core::incremental::EditableTree;
use rctree_core::tree::{NodeId, RcTree};
use rctree_workloads::eco::{EcoStream, EcoStreamParams};
use rctree_workloads::htree::{h_tree, HTreeParams};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn workload(levels: usize) -> (RcTree, NodeId) {
    let (tree, leaves) = h_tree(HTreeParams {
        levels,
        ..HTreeParams::default()
    });
    let sink = *leaves.last().expect("H-tree has leaves");
    (tree, sink)
}

/// Runs `edits` stream steps on the incremental engine, querying the sink
/// after every edit; returns the last Elmore delay seen.
fn run_incremental(
    tree: &RcTree,
    sink: NodeId,
    params: EcoStreamParams,
    seed: u64,
    edits: usize,
    query_sink: bool,
) -> (EditableTree, f64) {
    let mut eco = EditableTree::new(tree.clone());
    let mut stream = EcoStream::new(params, seed);
    let mut last = 0.0;
    for _ in 0..edits {
        let edit = stream.next_edit(eco.tree());
        eco.apply(&edit).expect("generated edits are valid");
        last = if query_sink {
            // Node ids are stable while the stream is value-only.
            eco.elmore_delay(sink).expect("sink exists").value()
        } else {
            eco.times().t_p().value()
        };
    }
    (eco, last)
}

/// The same stream on the rebuild-and-rerun baseline: the edit is applied
/// (cheap), then the tree is rebuilt from scratch and a full batch sweep
/// answers the query — the pre-incremental workflow.
fn run_rebuild(
    tree: &RcTree,
    sink: NodeId,
    params: EcoStreamParams,
    seed: u64,
    edits: usize,
    query_sink: bool,
) -> (EditableTree, f64) {
    let mut eco = EditableTree::new(tree.clone());
    let mut stream = EcoStream::new(params, seed);
    let mut last = 0.0;
    for _ in 0..edits {
        let edit = stream.next_edit(eco.tree());
        eco.apply(&edit).expect("generated edits are valid");
        let rebuilt = eco.tree().rebuild();
        let batch = BatchTimes::of(&rebuilt).expect("edited trees stay analysable");
        last = if query_sink {
            batch.elmore_delay(sink).expect("sink exists").value()
        } else {
            batch.t_p().value()
        };
    }
    (eco, last)
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

struct Phase {
    name: &'static str,
    incremental_eps: f64,
    rebuild_eps: f64,
    speedup: f64,
}

/// One measured scenario: an edit-stream shape plus the query performed
/// after each edit.
struct Scenario {
    name: &'static str,
    params: EcoStreamParams,
    seed: u64,
    edits: usize,
    iters: usize,
    query_sink: bool,
}

fn measure(tree: &RcTree, sink: NodeId, sc: &Scenario) -> Phase {
    let (params, seed, edits, query_sink) = (sc.params, sc.seed, sc.edits, sc.query_sink);
    // Correctness gate: identical final state on both engines.
    let (inc_state, inc_last) = run_incremental(tree, sink, params, seed, edits, query_sink);
    let (reb_state, reb_last) = run_rebuild(tree, sink, params, seed, edits, query_sink);
    assert_eq!(
        inc_state.tree(),
        reb_state.tree(),
        "{}: engines diverged structurally",
        sc.name
    );
    let rel = (inc_last - reb_last).abs() / reb_last.abs().max(1e-30);
    assert!(
        rel < 1e-9,
        "{}: query drifted ({inc_last} vs {reb_last})",
        sc.name
    );

    let inc_s = best_of(sc.iters, || {
        run_incremental(tree, sink, params, seed, edits, query_sink).1
    });
    let reb_s = best_of(sc.iters, || {
        run_rebuild(tree, sink, params, seed, edits, query_sink).1
    });
    Phase {
        name: sc.name,
        incremental_eps: edits as f64 / inc_s,
        rebuild_eps: edits as f64 / reb_s,
        speedup: reb_s / inc_s,
    }
}

fn main() {
    let levels = env_usize("ECO_LEVELS", 11);
    let edits = env_usize("ECO_EDITS", 512);
    let iters = env_usize("ECO_ITERS", 3);
    let (tree, sink) = workload(levels);
    let nodes = tree.node_count();

    println!("eco_throughput: {nodes}-node H-tree, {edits} edits/phase, best of {iters}");

    let single = measure(
        &tree,
        sink,
        &Scenario {
            name: "single_cap",
            params: EcoStreamParams::caps_only(),
            seed: 0xEC0,
            edits,
            iters,
            query_sink: true,
        },
    );
    let mixed = measure(
        &tree,
        sink,
        &Scenario {
            name: "mixed",
            params: EcoStreamParams::default(),
            seed: 0xEC1,
            edits,
            iters,
            query_sink: false,
        },
    );

    for phase in [&single, &mixed] {
        println!(
            "  {:<10} incremental {:>12.0} edits/s   rebuild {:>10.0} edits/s   speedup {:>7.1}x",
            phase.name, phase.incremental_eps, phase.rebuild_eps, phase.speedup
        );
    }

    // The acceptance bar: ≥10x on single-cap edits at the 2^12-node scale.
    if nodes >= 2048 {
        assert!(
            single.speedup >= 10.0,
            "single-cap speedup {:.1}x fell below the 10x acceptance bar",
            single.speedup
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"eco_throughput\",\n  \"nodes\": {nodes},\n  \"edits\": {edits},\n  \
         \"iters\": {iters},\n  \
         \"single_cap\": {{ \"incremental_edits_per_s\": {}, \"rebuild_edits_per_s\": {}, \
         \"speedup\": {} }},\n  \
         \"mixed\": {{ \"incremental_edits_per_s\": {}, \"rebuild_edits_per_s\": {}, \
         \"speedup\": {} }},\n  \"equivalent_to_1e9_rel\": true\n}}\n",
        single.incremental_eps,
        single.rebuild_eps,
        single.speedup,
        mixed.incremental_eps,
        mixed.rebuild_eps,
        mixed.speedup,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_eco_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  summary written to {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
