//! Sharded write path: ECO edits/s versus writer shard count.
//!
//! Starts one in-process `rctree-serve` instance per shard count over the
//! same generated deck and drives it with an ECO-only shard-crossing mix
//! (every connection's consecutive edits hop shards, so all writers stay
//! busy).  A publish costs `O(dirty)` work plus one refcount bump per
//! `Arc`-shared chunk of the endpoint order and the net-view vector, so
//! at this deck size an edit is dominated by request handling, not by the
//! shard's net count, and edits/s need not rise with shard count on a
//! small machine.  What sharding still guarantees is asserted: zero
//! protocol errors and committed edits on every shard.  The shard-count
//! trajectory is written to `target/BENCH_serve_sharded.json`.
//!
//! Environment knobs:
//!
//! * `SHARD_NETS`  — deck size (default 2048);
//! * `SHARD_CONNS` — concurrent connections (default 4);
//! * `SHARD_REQS`  — ECO requests per connection (default 120).

use rctree_core::units::Seconds;
use rctree_serve::{run_load, ServeConfig, Server};
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::{shard_crossing_mix, RequestMixParams, SpefDeckParams};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

struct Lap {
    shards: usize,
    elapsed_s: f64,
    edits: u64,
    edits_per_s: f64,
    requests_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn main() {
    let nets = env_usize("SHARD_NETS", 2048);
    let connections = env_usize("SHARD_CONNS", 4);
    let requests = env_usize("SHARD_REQS", 120);

    let trees = SpefDeckParams {
        nets,
        ..SpefDeckParams::default()
    }
    .trees(0x5AAD);
    println!(
        "serve_sharded: {nets}-net deck, {connections} connections x {requests} ECO requests, \
         shards 1 -> 4"
    );

    let mut laps: Vec<Lap> = Vec::new();
    for shards in [1usize, 2, 4] {
        let design = Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees.clone())
            .expect("deck builds");
        let mut config = ServeConfig::new(0.5, Seconds::new(500e-9), 1);
        config.shards = shards;
        let server = Server::start(design, &config, ("127.0.0.1", 0)).expect("server starts");
        assert_eq!(server.shard_count(), shards, "deck has enough components");
        let addr = server.local_addr();

        let params = RequestMixParams {
            requests_per_connection: requests,
            eco_fraction: 1.0,
            certify_budget: 400e-9,
        };
        let scripts =
            shard_crossing_mix(&trees, connections, &params, shards, 0xEC0 + shards as u64);
        let report = run_load(addr, &scripts).expect("load run");
        assert_eq!(
            report.protocol_errors, 0,
            "generated ECO edits must all apply at {shards} shards"
        );
        let revisions = server.revisions();
        assert!(
            revisions.iter().all(|&r| r > 0),
            "every shard committed edits: {revisions:?}"
        );
        let edits = server.revision();
        server.shutdown();
        server.join();

        let edits_per_s = edits as f64 / report.elapsed_s.max(1e-12);
        println!(
            "  {shards} shard(s): {edits_per_s:>8.0} edits/s  ({edits} edits in {:.2} s, \
             p50 {:>6.0} us, p99 {:>6.0} us)",
            report.elapsed_s, report.p50_us, report.p99_us
        );
        laps.push(Lap {
            shards,
            elapsed_s: report.elapsed_s,
            edits,
            edits_per_s,
            requests_per_s: report.queries_per_s,
            p50_us: report.p50_us,
            p99_us: report.p99_us,
        });
    }

    let single = laps[0].edits_per_s;
    let quad = laps.last().expect("laps").edits_per_s;
    let speedup = quad / single;
    println!("  4-shard speedup over 1 shard: {speedup:.2}x");

    let mut trajectory = String::new();
    for (i, lap) in laps.iter().enumerate() {
        if i > 0 {
            trajectory.push_str(",\n");
        }
        trajectory.push_str(&format!(
            "    {{ \"shards\": {}, \"edits\": {}, \"elapsed_s\": {}, \"edits_per_s\": {}, \
             \"requests_per_s\": {}, \"p50_us\": {}, \"p99_us\": {} }}",
            lap.shards,
            lap.edits,
            lap.elapsed_s,
            lap.edits_per_s,
            lap.requests_per_s,
            lap.p50_us,
            lap.p99_us
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve_sharded\",\n  \"nets\": {nets},\n  \
         \"connections\": {connections},\n  \"requests_per_connection\": {requests},\n  \
         \"speedup_4_over_1\": {speedup},\n  \"trajectory\": [\n{trajectory}\n  ]\n}}\n",
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_serve_sharded.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("  summary written to {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
