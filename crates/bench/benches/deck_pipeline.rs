//! End-to-end deck pipeline at ingestion scale: stream-generate a SPEF
//! deck to disk, stream-parse it back (chunked reader, the document text
//! never fully in memory), build the design, and analyze — reporting
//! per-stage times, nets/s, ingest MB/s (`parse_mb_per_s`, 10^6 deck bytes
//! per second of parse) and the process peak RSS at every deck size.
//!
//! The analysis is [`Design::analyze_with_jobs`]: augmentation
//! pre-resolved when the design is built, each net spliced and swept in
//! its worker's scratch, cached propagation topology.  Its report is
//! asserted **bit-identical** to the cold ECO warm-up of a clone
//! ([`Design::apply_eco_with_jobs`] with no edits), which sweeps the same
//! nets but propagates and files every endpoint through the ECO state,
//! before timing means anything.
//!
//! Environment knobs:
//!
//! * `DECK_NETS`        — single deck size (default 1000);
//! * `DECK_NETS_LIST`   — comma-separated sizes overriding `DECK_NETS`
//!   (e.g. `10000,100000,1000000` for the ROADMAP trajectory);
//! * `DECK_JOBS`        — worker count (default: available parallelism,
//!   at least 4);
//! * `DECK_ITERS`       — timed repetitions per path, best-of (default 3);
//! * `DECK_RSS_CEILING_MB` — when set, assert the process peak RSS
//!   (`VmHWM`) stays below this many MiB (the CI smoke gate).
//!
//! A machine-readable summary (one entry per size) is written to
//! `target/BENCH_deck_pipeline.json`.

use std::io::{BufWriter, Write as _};
use std::time::Instant;

use rctree_core::units::Seconds;
use rctree_netlist::parse_spef_read;
use rctree_sta::{CellLibrary, Design, TimingReport};
use rctree_workloads::deck::{render_spef_deck, SpefDeckParams};

const THRESHOLD: f64 = 0.5;
const DRIVER_CELL: &str = "inv_4x";
const SEED: u64 = 0xDECC;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Deck sizes to sweep: `DECK_NETS_LIST` wins, else a single `DECK_NETS`.
fn sizes() -> Vec<usize> {
    if let Ok(list) = std::env::var("DECK_NETS_LIST") {
        let sizes: Vec<usize> = list
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !sizes.is_empty() {
            return sizes;
        }
    }
    vec![env_usize("DECK_NETS", 1000)]
}

/// Peak resident set size of this process in MiB (`VmHWM`, monotonic over
/// the process lifetime), or 0.0 where `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn best_of<T, F: FnMut() -> T>(iters: usize, mut f: F) -> f64 {
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

struct SizeResult {
    nets: usize,
    nodes: usize,
    bytes: u64,
    gen_s: f64,
    parse_s: f64,
    build_s: f64,
    analyze_s: f64,
    peak_rss_mib: f64,
}

fn run_size(
    nets: usize,
    jobs: usize,
    iters: usize,
    budget: Seconds,
    dir: &std::path::Path,
) -> SizeResult {
    let params = SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    };
    let path = dir.join(format!("deck_pipeline_{nets}.spef"));

    // Stage 1: stream-generate the deck to disk (constant memory).
    let start = Instant::now();
    {
        let file = std::fs::File::create(&path).expect("create deck file");
        let mut out = BufWriter::new(file);
        render_spef_deck(&params, SEED, &mut out).expect("render deck");
        out.flush().expect("flush deck");
    }
    let gen_s = start.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    // Stage 2: stream-parse it back (chunked reader — the file text is
    // never fully resident).
    let start = Instant::now();
    let parsed = {
        let file = std::fs::File::open(&path).expect("open deck file");
        parse_spef_read(file, jobs).expect("generated deck parses")
    };
    let parse_s = start.elapsed().as_secs_f64();
    let nodes: usize = parsed.iter().map(|n| n.tree.node_count()).sum();

    // Stage 3: design build (augmentation pre-resolved, names interned).
    let start = Instant::now();
    let design = Design::from_extracted(
        CellLibrary::nmos_1981(),
        DRIVER_CELL,
        parsed.into_iter().map(|n| (n.name, n.tree)),
    )
    .expect("generated deck builds a design");
    let build_s = start.elapsed().as_secs_f64();

    // Correctness gate: the batch analysis must be bit-identical to the
    // cold ECO warm-up before its timing means anything.
    let report: TimingReport = design
        .analyze_with_jobs(THRESHOLD, budget, jobs)
        .expect("analysis");
    let warm_up_report = design
        .clone()
        .apply_eco_with_jobs(&[], THRESHOLD, budget, jobs)
        .expect("ECO warm-up");
    assert!(
        report == warm_up_report,
        "analysis differs from the ECO warm-up at {nets} nets"
    );

    // Stage 4: analysis throughput.
    let analyze_s = best_of(iters, || {
        design
            .analyze_with_jobs(THRESHOLD, budget, jobs)
            .expect("analysis")
    });

    let _ = std::fs::remove_file(&path);
    SizeResult {
        nets,
        nodes,
        bytes,
        gen_s,
        parse_s,
        build_s,
        analyze_s,
        peak_rss_mib: peak_rss_mib(),
    }
}

fn main() {
    let iters = env_usize("DECK_ITERS", 3);
    let avail = rctree_par::available_parallelism();
    let jobs = env_usize("DECK_JOBS", avail.max(4));
    let budget = Seconds::from_nano(50.0);
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
    let _ = std::fs::create_dir_all(dir);

    let mut entries = Vec::new();
    println!("deck_pipeline: {jobs} workers (hardware {avail}), best of {iters}");
    for nets in sizes() {
        let r = run_size(nets, jobs, iters, budget, dir);
        println!(
            "  {:>9} nets / {:>9} nodes  ({:.1} MiB SPEF)",
            r.nets,
            r.nodes,
            r.bytes as f64 / (1024.0 * 1024.0)
        );
        let parse_mb_per_s = r.bytes as f64 / 1e6 / r.parse_s;
        println!(
            "    gen {:>9.3} s   parse {:>9.3} s ({:>10.0} nets/s, {:>7.1} MB/s)   build {:>9.3} s",
            r.gen_s,
            r.parse_s,
            r.nets as f64 / r.parse_s,
            parse_mb_per_s,
            r.build_s
        );
        println!(
            "    analyze          {:>9.4} s  {:>12.1} nets/s",
            r.analyze_s,
            r.nets as f64 / r.analyze_s
        );
        println!("    peak RSS {:>8.1} MiB", r.peak_rss_mib);
        entries.push(format!(
            "    {{ \"nets\": {}, \"nodes\": {}, \"spef_bytes\": {}, \"gen_s\": {}, \
             \"parse_s\": {}, \"parse_nets_per_s\": {}, \"parse_mb_per_s\": {}, \"build_s\": {}, \
             \"analyze_s\": {}, \"analyze_nets_per_s\": {}, \"peak_rss_mib\": {} }}",
            r.nets,
            r.nodes,
            r.bytes,
            r.gen_s,
            r.parse_s,
            r.nets as f64 / r.parse_s,
            parse_mb_per_s,
            r.build_s,
            r.analyze_s,
            r.nets as f64 / r.analyze_s,
            r.peak_rss_mib
        ));
    }

    // CI smoke gate: bounded-memory ingestion means the peak RSS stays
    // under an explicit ceiling for the configured deck size.
    let final_rss = peak_rss_mib();
    if let Ok(ceiling) = std::env::var("DECK_RSS_CEILING_MB") {
        let ceiling: f64 = ceiling
            .trim()
            .parse()
            .expect("DECK_RSS_CEILING_MB is a number");
        println!("  peak RSS {final_rss:.1} MiB (ceiling {ceiling} MiB)");
        assert!(
            final_rss > 0.0,
            "VmHWM unavailable; cannot enforce the RSS ceiling"
        );
        assert!(
            final_rss <= ceiling,
            "peak RSS {final_rss:.1} MiB exceeds the {ceiling} MiB ceiling"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"deck_pipeline\",\n  \"workers\": {jobs},\n  \
         \"available_parallelism\": {avail},\n  \"iters\": {iters},\n  \
         \"bit_identical\": true,\n  \"peak_rss_mib\": {final_rss},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = dir.join("BENCH_deck_pipeline.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("  summary written to {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}
