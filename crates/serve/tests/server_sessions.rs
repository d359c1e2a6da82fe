//! Concurrent-session equivalence: every response a live server hands any
//! of K concurrent clients must be **byte-identical** to a serial oracle
//! that replays the server's accepted-edit order — the protocol's
//! attributability guarantee (`OK rev <r>` names the snapshot) made
//! testable.
//!
//! The oracle is a fresh [`EcoExecutor`] over the same design, driven
//! through the same pure rendering functions the connection handlers use;
//! what the test pins is therefore exactly the concurrency model — that
//! the `RwLock`-swapped snapshot store and the single-writer mutex never
//! expose a torn or unserialisable state — not formatting trivia.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use rctree_core::tree::RcTree;
use rctree_core::units::Seconds;
use rctree_serve::protocol::{self, Request};
use rctree_serve::{fetch_metrics, EcoExecutor, ServeConfig, Server, MAX_REQUEST_LINE};
use rctree_sta::{CellLibrary, Design, DesignSnapshot};
use rctree_workloads::{
    request_mix, shard_crossing_mix, shard_of, RequestMixParams, SpefDeckParams,
};

const THRESHOLD: f64 = 0.5;
const BUDGET_S: f64 = 150e-9;

fn deck_trees() -> Vec<(String, RcTree)> {
    SpefDeckParams {
        nets: 12,
        ..SpefDeckParams::default()
    }
    .trees(0xC0FFEE)
}

fn design_of(trees: &[(String, RcTree)]) -> Design {
    Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees.to_vec()).expect("deck builds")
}

fn config() -> ServeConfig {
    ServeConfig::new(THRESHOLD, Seconds::new(BUDGET_S), 1)
}

/// One client session: sends every request line, reads every response
/// block to its final line.
fn run_client(addr: SocketAddr, script: &[String]) -> Vec<Vec<String>> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut responses = Vec::with_capacity(script.len());
    for request in script {
        writeln!(writer, "{request}").expect("send");
        writer.flush().expect("flush");
        let mut block = Vec::new();
        loop {
            let mut line = String::new();
            assert_ne!(
                reader.read_line(&mut line).expect("read"),
                0,
                "server closed mid-response to `{request}`"
            );
            let line = line.trim_end_matches(['\r', '\n']).to_string();
            let done = protocol::is_final(&line);
            block.push(line);
            if done {
                break;
            }
        }
        responses.push(block);
    }
    responses
}

/// The final line's revision of a response block.
fn block_rev(block: &[String]) -> u64 {
    protocol::final_revision(block.last().expect("non-empty block")).expect("rev on final line")
}

/// Replays the captured run through a serial oracle and asserts every
/// response byte-identical.
fn verify_against_oracle(
    trees: &[(String, RcTree)],
    scripts: &[Vec<String>],
    transcripts: &[Vec<Vec<String>>],
    server_log: &[String],
) {
    // Partition the captured (request, response) pairs into reads and ECO
    // writes; order the writes by their committed revision window.
    let mut reads: Vec<(&String, &Vec<String>)> = Vec::new();
    // (pre_rev, applied, request, response)
    let mut writes: Vec<(u64, u64, &String, &Vec<String>)> = Vec::new();
    for (script, transcript) in scripts.iter().zip(transcripts) {
        assert_eq!(script.len(), transcript.len());
        for (request, response) in script.iter().zip(transcript) {
            match protocol::parse_request(request).expect("generated requests parse") {
                Some(Request::Eco { .. }) => {
                    let applied = response.iter().filter(|l| l.starts_with("edit ")).count() as u64;
                    let pre_rev = block_rev(response) - applied;
                    writes.push((pre_rev, applied, request, response));
                }
                Some(_) => reads.push((request, response)),
                None => panic!("blank request generated"),
            }
        }
    }
    // Commit order: by pre-revision; all-skip requests at a given revision
    // ran before the request that advanced it (they would otherwise have
    // seen the successor revision), and are order-independent among
    // themselves since they mutate nothing.
    writes.sort_by_key(|&(pre_rev, applied, _, _)| (pre_rev, applied > 0));

    // Serial replay: every write request re-executed in commit order on a
    // fresh executor over the same design.
    let mut oracle =
        EcoExecutor::new(design_of(trees), THRESHOLD, Seconds::new(BUDGET_S), 1).expect("oracle");
    let mut snapshots: Vec<Arc<DesignSnapshot>> = vec![oracle.snapshot()];
    let mut accepted: Vec<String> = Vec::new();
    for (pre_rev, _, request, response) in &writes {
        assert_eq!(
            oracle.revision(),
            *pre_rev,
            "oracle out of sync before `{request}`"
        );
        let script = match protocol::parse_request(request) {
            Ok(Some(Request::Eco { script })) => script,
            other => panic!("expected ECO request, got {other:?}"),
        };
        let (lines, _) = oracle.exec_eco(
            &script,
            &mut |snapshot, _rev| snapshots.push(Arc::clone(snapshot)),
            &mut |summary| accepted.push(summary.to_string()),
        );
        assert_eq!(&&lines, response, "ECO response diverged for `{request}`");
    }
    assert_eq!(
        accepted, server_log,
        "oracle's accepted-edit order diverged from the server log"
    );

    // Every read response re-rendered against the snapshot its final line
    // names.
    for (request, response) in reads {
        let rev = block_rev(response) as usize;
        assert!(
            rev < snapshots.len(),
            "response names unknown revision {rev}"
        );
        let snapshot = &snapshots[rev];
        let expected = match protocol::parse_request(request).expect("parses") {
            Some(Request::Query {
                net,
                node,
                corner,
                sens,
            }) => protocol::render_query(
                snapshot,
                rev as u64,
                &net,
                node.as_deref(),
                corner.as_deref(),
                sens,
            ),
            Some(Request::Report { corner }) => {
                protocol::render_report(snapshot, rev as u64, corner.as_deref())
            }
            Some(Request::Certify { budget, over: None }) => {
                protocol::render_certify(snapshot, rev as u64, budget)
            }
            Some(Request::Certify {
                budget,
                over: Some(over),
            }) => protocol::render_certify_over(snapshot, rev as u64, budget, &over),
            other => panic!("unexpected read request {other:?}"),
        };
        assert_eq!(
            response, &expected,
            "read response diverged for `{request}` at rev {rev}"
        );
    }
}

#[test]
fn concurrent_sessions_match_a_serial_oracle_replay() {
    let trees = deck_trees();
    for clients in [1usize, 4, 8] {
        let server =
            Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("server starts");
        let addr = server.local_addr();
        let params = RequestMixParams {
            requests_per_connection: 50,
            eco_fraction: 0.3,
            certify_budget: 120e-9,
        };
        let scripts = request_mix(&trees, clients, &params, 0xBEEF + clients as u64);
        let transcripts: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| scope.spawn(move || run_client(addr, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let log = server.eco_log();
        assert_eq!(
            log.len() as u64,
            server.revision(),
            "one committed edit per revision"
        );
        server.shutdown();
        server.join();

        verify_against_oracle(&trees, &scripts, &transcripts, &log);
    }
}

#[test]
fn read_only_sessions_are_deterministic_and_see_revision_zero() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();
    let params = RequestMixParams {
        requests_per_connection: 40,
        eco_fraction: 0.0,
        certify_budget: 110e-9,
    };
    // Two clients issuing the *same* script concurrently must receive
    // bit-identical transcripts (there are no writers, so every response
    // is rev 0).
    let script = request_mix(&trees, 1, &params, 77).remove(0);
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| run_client(addr, &script));
        let hb = scope.spawn(|| run_client(addr, &script));
        (ha.join().expect("a"), hb.join().expect("b"))
    });
    assert_eq!(a, b);
    assert!(a.iter().all(|block| block_rev(block) == 0));

    // And the REPORT payload equals the offline baseline rendering.
    let mut offline = design_of(&trees);
    let baseline = offline
        .publish(THRESHOLD, Seconds::new(BUDGET_S), 1)
        .expect("baseline");
    let expected_report = protocol::render_report(&Arc::new(baseline), 0, None);
    let report_blocks: Vec<&Vec<String>> = script
        .iter()
        .zip(&a)
        .filter(|(req, _)| *req == "REPORT")
        .map(|(_, block)| block)
        .collect();
    assert!(!report_blocks.is_empty(), "mix contains REPORT requests");
    for block in report_blocks {
        assert_eq!(block, &expected_report);
    }
    server.shutdown();
    server.join();
}

/// A multi-corner deck: every data-bearing `OK` line names the corner
/// vector, `--corner` selects lanes by index or name, `CERTIFY` names the
/// worst corner — and the whole transcript (a request mix with accepted
/// ECO edits, then corner-specific requests) is byte-identical to a
/// serial oracle replay over the same corner-carrying design.
#[test]
fn multi_corner_sessions_name_the_corner_vector_and_match_the_oracle() {
    use rctree_workloads::{corner_set, CornerSpecParams};

    let trees = deck_trees();
    let net_names: Vec<String> = trees.iter().map(|(n, _)| n.clone()).collect();
    let set = corner_set(
        &CornerSpecParams {
            corners: 4,
            overrides: 2,
        },
        &net_names,
        0xD1CE,
    );
    let csv = set.names_csv();
    let mut design = design_of(&trees);
    design.set_corners(set.clone());
    let server = Server::start(design, &config(), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let params = RequestMixParams {
        requests_per_connection: 30,
        eco_fraction: 0.35,
        certify_budget: 120e-9,
    };
    let mut script = request_mix(&trees, 1, &params, 0xAB).remove(0);
    let (net0, tree0) = &trees[0];
    let node0 = tree0
        .name(tree0.outputs().next().expect("an output"))
        .expect("named")
        .to_string();
    script.extend([
        "REPORT".to_string(),
        "REPORT --corner 2".to_string(),
        "REPORT --corner 2".to_string(),
        format!("REPORT --corner {}", set.corner(3).name),
        "REPORT --corner worst".to_string(),
        format!("QUERY {net0} --corner 1"),
        format!("QUERY {net0} {node0} --corner {}", set.corner(1).name),
        "CERTIFY 1.2e-7".to_string(),
        "REPORT --corner bogus".to_string(),
        "STATS".to_string(),
    ]);
    let transcript = run_client(addr, &script);
    let log = server.eco_log();
    server.shutdown();
    server.join();

    // Every successful response names the corner vector on its final line.
    let tail = format!(" corners {csv}");
    for (request, block) in script.iter().zip(&transcript) {
        let last = block.last().expect("non-empty block");
        if last.starts_with("OK ") {
            assert!(
                last.ends_with(&tail),
                "`{request}` final line lacks the corner vector: {last}"
            );
        }
    }

    // Serial oracle replay over the same corner-carrying design: one
    // client is serial, so reads see the oracle's current revision and
    // every response must be byte-identical — including the CERTIFY
    // worst-corner line and the `--corner` renderings.
    let mut oracle_design = design_of(&trees);
    oracle_design.set_corners(set.clone());
    let mut oracle =
        EcoExecutor::new(oracle_design, THRESHOLD, Seconds::new(BUDGET_S), 1).expect("oracle");
    let mut snapshots: Vec<Arc<DesignSnapshot>> = vec![oracle.snapshot()];
    let mut accepted: Vec<String> = Vec::new();
    for (request, response) in script.iter().zip(&transcript) {
        match protocol::parse_request(request).expect("script parses") {
            Some(Request::Eco { script }) => {
                let (lines, _) = oracle.exec_eco(
                    &script,
                    &mut |snapshot, _rev| snapshots.push(Arc::clone(snapshot)),
                    &mut |summary| accepted.push(summary.to_string()),
                );
                assert_eq!(&lines, response, "ECO response diverged for `{request}`");
            }
            Some(Request::Stats) => {
                assert!(response[0].contains(" corners 4 "), "{response:?}");
                assert!(response[0].contains(" report_cache_hits "), "{response:?}");
            }
            Some(read) => {
                let rev = block_rev(response);
                let snapshot = &snapshots[rev as usize];
                let expected = match read {
                    Request::Query {
                        net,
                        node,
                        corner,
                        sens,
                    } => protocol::render_query(
                        snapshot,
                        rev,
                        &net,
                        node.as_deref(),
                        corner.as_deref(),
                        sens,
                    ),
                    Request::Report { corner } => {
                        protocol::render_report(snapshot, rev, corner.as_deref())
                    }
                    Request::Certify { budget, over: None } => {
                        protocol::render_certify(snapshot, rev, budget)
                    }
                    Request::Certify {
                        budget,
                        over: Some(over),
                    } => protocol::render_certify_over(snapshot, rev, budget, &over),
                    other => panic!("unexpected request {other:?}"),
                };
                assert_eq!(
                    response, &expected,
                    "read response diverged for `{request}`"
                );
            }
            None => panic!("blank request"),
        }
    }
    assert_eq!(accepted, log, "accepted-edit order diverged");
    assert!(!log.is_empty(), "the mix should commit some edits");

    // The CERTIFY response names the oracle's worst corner explicitly.
    let certify = &transcript[script.len() - 3];
    let final_snapshot = snapshots.last().expect("snapshots");
    let corners = final_snapshot.corners().expect("multi-corner snapshot");
    let (worst, _, _) = corners.worst_against(Seconds::new(1.2e-7));
    assert!(
        certify[0].contains(&format!(" corner {} ", corners.names()[worst])),
        "CERTIFY must name the worst corner: {certify:?}"
    );

    // Identical REPORT --corner 2 requests at one revision hit the
    // rendered cache; the second response is byte-identical regardless.
    let stats_line = &transcript[script.len() - 1][0];
    let hits: u64 = stats_line
        .split_whitespace()
        .skip_while(|t| *t != "report_cache_hits")
        .nth(1)
        .expect("report_cache_hits counter")
        .parse()
        .expect("numeric counter");
    assert!(hits >= 1, "repeated REPORTs should hit the cache: {hits}");

    // A bogus selector is a clean error naming the revision.
    let bogus = &transcript[script.len() - 2];
    assert!(bogus[0].starts_with("ERR rev "), "{bogus:?}");
    assert!(bogus[0].contains("unknown corner `bogus`"), "{bogus:?}");
}

/// The shard owning a request's net under a `shards`-way split of the
/// deck (each deck net is one connected component, in deck order).
fn shard_of_request(trees: &[(String, RcTree)], net: &str, shards: usize) -> usize {
    let index = trees
        .iter()
        .position(|(n, _)| n == net)
        .expect("request names a deck net");
    shard_of(index, trees.len(), shards)
}

/// Sharded equivalence: K concurrent clients issue shard-crossing mixes
/// against a 4-shard server, and every response is re-derived
/// byte-identically by **per-shard serial oracles** — scalar-rev verbs
/// (QUERY/ECO) against the owning shard's oracle at the named revision,
/// composed verbs (REPORT/CERTIFY) through the composed renderers at the
/// revision vector on their final line.
#[test]
fn sharded_sessions_match_per_shard_serial_oracle_replay() {
    const SHARDS: usize = 4;
    let trees = deck_trees();
    for clients in [1usize, 4] {
        let mut config = config();
        config.shards = SHARDS;
        let server =
            Server::start(design_of(&trees), &config, ("127.0.0.1", 0)).expect("server starts");
        assert_eq!(server.shard_count(), SHARDS);
        let addr = server.local_addr();
        let params = RequestMixParams {
            requests_per_connection: 40,
            eco_fraction: 0.35,
            certify_budget: 120e-9,
        };
        let scripts = shard_crossing_mix(&trees, clients, &params, SHARDS, 0xFACE + clients as u64);
        let transcripts: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| scope.spawn(move || run_client(addr, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        let logs = server.eco_logs();
        let revisions = server.revisions();
        server.shutdown();
        server.join();
        assert_eq!(logs.len(), SHARDS);
        for (log, rev) in logs.iter().zip(&revisions) {
            assert_eq!(log.len() as u64, *rev, "one committed edit per revision");
        }

        // Partition the captured pairs: ECO writes per owning shard,
        // scalar reads (QUERY) per owning shard, composed reads
        // (REPORT/CERTIFY) at their revision vector.
        type Write<'a> = (u64, u64, &'a String, &'a Vec<String>);
        let mut shard_writes: Vec<Vec<Write>> = vec![Vec::new(); SHARDS];
        let mut scalar_reads: Vec<(usize, &String, &Vec<String>)> = Vec::new();
        let mut composed_reads: Vec<(&String, &Vec<String>)> = Vec::new();
        for (script, transcript) in scripts.iter().zip(&transcripts) {
            for (request, response) in script.iter().zip(transcript) {
                match protocol::parse_request(request).expect("generated requests parse") {
                    Some(Request::Eco { script }) => {
                        let net = rctree_sta::script::parse_eco_script_line(1, &script)
                            .ok()
                            .and_then(|parsed| match parsed {
                                rctree_sta::ScriptLine::Edits(edits) => {
                                    Some(edits[0].edit.net.clone())
                                }
                                _ => None,
                            })
                            .expect("generated ECOs carry edits");
                        let shard = shard_of_request(&trees, &net, SHARDS);
                        let applied =
                            response.iter().filter(|l| l.starts_with("edit ")).count() as u64;
                        let pre_rev = block_rev(response) - applied;
                        shard_writes[shard].push((pre_rev, applied, request, response));
                    }
                    Some(Request::Query { net, .. }) => {
                        scalar_reads.push((
                            shard_of_request(&trees, &net, SHARDS),
                            request,
                            response,
                        ));
                    }
                    Some(Request::Report { .. }) | Some(Request::Certify { .. }) => {
                        composed_reads.push((request, response));
                    }
                    other => panic!("unexpected request {other:?}"),
                }
            }
        }

        // Per-shard serial replay over the partitioned design: each
        // shard's writes in its own commit order, snapshots recorded per
        // revision.
        let shard_designs = design_of(&trees).partition(SHARDS).expect("partitions");
        assert_eq!(shard_designs.len(), SHARDS);
        let mut shard_snapshots: Vec<Vec<Arc<DesignSnapshot>>> = Vec::new();
        for (shard, design) in shard_designs.into_iter().enumerate() {
            let mut oracle =
                EcoExecutor::new(design, THRESHOLD, Seconds::new(BUDGET_S), 1).expect("oracle");
            let mut snapshots = vec![oracle.snapshot()];
            let mut accepted: Vec<String> = Vec::new();
            shard_writes[shard].sort_by_key(|&(pre_rev, applied, _, _)| (pre_rev, applied > 0));
            for (pre_rev, _, request, response) in &shard_writes[shard] {
                assert_eq!(
                    oracle.revision(),
                    *pre_rev,
                    "shard {shard} oracle out of sync before `{request}`"
                );
                let script = match protocol::parse_request(request) {
                    Ok(Some(Request::Eco { script })) => script,
                    other => panic!("expected ECO request, got {other:?}"),
                };
                let (lines, _) = oracle.exec_eco(
                    &script,
                    &mut |snapshot, _rev| snapshots.push(Arc::clone(snapshot)),
                    &mut |summary| accepted.push(summary.to_string()),
                );
                assert_eq!(
                    &&lines, response,
                    "shard {shard} ECO response diverged for `{request}`"
                );
            }
            assert_eq!(
                accepted, logs[shard],
                "shard {shard} accepted-edit order diverged from the server log"
            );
            shard_snapshots.push(snapshots);
        }

        // Scalar reads re-render against the owning shard's snapshot at
        // the scalar revision on their final line.
        for (shard, request, response) in scalar_reads {
            let rev = block_rev(response);
            let snapshot = &shard_snapshots[shard][rev as usize];
            let expected = match protocol::parse_request(request).expect("parses") {
                Some(Request::Query {
                    net,
                    node,
                    corner,
                    sens,
                }) => protocol::render_query(
                    snapshot,
                    rev,
                    &net,
                    node.as_deref(),
                    corner.as_deref(),
                    sens,
                ),
                other => panic!("unexpected scalar read {other:?}"),
            };
            assert_eq!(
                response, &expected,
                "QUERY diverged for `{request}` on shard {shard} at rev {rev}"
            );
        }

        // Composed reads re-render through the composed renderers at the
        // revision *vector* on their final line.
        for (request, response) in composed_reads {
            let revs = protocol::final_revisions(response.last().expect("non-empty"))
                .expect("revision vector on final line");
            assert_eq!(revs.len(), SHARDS, "one revision per shard: `{request}`");
            let snapshots: Vec<Arc<DesignSnapshot>> = revs
                .iter()
                .enumerate()
                .map(|(shard, &rev)| Arc::clone(&shard_snapshots[shard][rev as usize]))
                .collect();
            let expected = match protocol::parse_request(request).expect("parses") {
                Some(Request::Report { corner }) => {
                    protocol::render_report_composed(&snapshots, &revs, corner.as_deref())
                }
                Some(Request::Certify { budget, over: None }) => {
                    protocol::render_certify_composed(&snapshots, &revs, budget)
                }
                Some(Request::Certify {
                    budget,
                    over: Some(over),
                }) => protocol::render_certify_over_composed(&snapshots, &revs, budget, &over),
                other => panic!("unexpected composed read {other:?}"),
            };
            assert_eq!(
                response, &expected,
                "composed response diverged for `{request}` at revs {revs:?}"
            );
        }
    }
}

/// Cross-shard invariants the mixes cannot hit: a spanning ECO is
/// rejected whole with a revision vector, the sharded STATS line carries
/// the per-shard counters, and a quiescent sharded REPORT equals the
/// unsharded payload except for its vector final line.
#[test]
fn sharded_protocol_rejects_spanning_ecos_and_extends_stats() {
    const SHARDS: usize = 4;
    let trees = deck_trees();
    let mut config = config();
    config.shards = SHARDS;
    let server =
        Server::start(design_of(&trees), &config, ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    // One net from shard 0 and one from the last shard.
    let (net_a, tree_a) = &trees[0];
    let (net_b, tree_b) = &trees[trees.len() - 1];
    assert_eq!(shard_of_request(&trees, net_a, SHARDS), 0);
    assert_eq!(shard_of_request(&trees, net_b, SHARDS), SHARDS - 1);
    let node_a = tree_a
        .name(tree_a.preorder().collect::<Vec<_>>()[0])
        .expect("named")
        .to_string();
    let node_b = tree_b
        .name(tree_b.preorder().collect::<Vec<_>>()[0])
        .expect("named")
        .to_string();

    let responses = run_client(
        addr,
        &[
            format!("ECO setcap {net_a} {node_a} 2e-15; setcap {net_b} {node_b} 2e-15"),
            format!("ECO setcap {net_b} {node_b} 3e-15"),
            "REPORT".to_string(),
            "STATS".to_string(),
        ],
    );
    // The spanning request is rejected whole — nothing committed anywhere.
    assert_eq!(
        responses[0],
        vec![format!(
            "ERR rev 0,0,0,0 ECO spans shards 0 and {}; split the request",
            SHARDS - 1
        )]
    );
    // The single-shard ECO commits on its own shard only.
    assert!(responses[1][0].starts_with("edit 1 "), "{responses:?}");
    assert_eq!(responses[1][1], "OK rev 1");
    assert_eq!(server.revisions(), vec![0, 0, 0, 1]);

    // REPORT answers at the revision vector.
    assert_eq!(responses[2].last().unwrap(), "OK rev 0,0,0,1");

    // STATS: per-shard counters and the routing table (feeder + main net
    // per deck net).
    let stats = &responses[3][0];
    let field = |name: &str| -> String {
        stats
            .split_whitespace()
            .skip_while(|t| *t != name)
            .nth(1)
            .unwrap_or_else(|| panic!("missing `{name}` in {stats}"))
            .to_string()
    };
    assert_eq!(field("shards"), SHARDS.to_string());
    assert_eq!(field("routing_table"), (2 * trees.len()).to_string());
    assert_eq!(field("revision"), "0,0,0,1");
    assert_eq!(field("shard_revs"), "0,0,0,1");
    assert_eq!(field("shard_applied"), "0,0,0,1");
    assert_eq!(field("shard_skipped"), "0,0,0,0");
    assert_eq!(responses[3].last().unwrap(), "OK rev 0,0,0,1");

    server.shutdown();
    server.join();
}

/// A quiescent (no-writer) sharded server must serve the same QUERY and
/// REPORT payloads as the unsharded server over the same deck — sharding
/// changes who owns a net, never a single number — with only the
/// composed verbs' final line widening to a revision vector.
#[test]
fn sharded_and_unsharded_servers_agree_at_rest() {
    let trees = deck_trees();
    let single = Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("single");
    let mut sharded_config = config();
    sharded_config.shards = 3;
    let sharded =
        Server::start(design_of(&trees), &sharded_config, ("127.0.0.1", 0)).expect("sharded");

    let mut script: Vec<String> = trees.iter().map(|(n, _)| format!("QUERY {n}")).collect();
    script.push("REPORT".to_string());
    script.push("CERTIFY 1.2e-7".to_string());
    let a = run_client(single.local_addr(), &script);
    let b = run_client(sharded.local_addr(), &script);
    for (i, (request, (block_a, block_b))) in script.iter().zip(a.iter().zip(&b)).enumerate() {
        if request.starts_with("QUERY") {
            assert_eq!(block_a, block_b, "QUERY payloads diverge for `{request}`");
        } else {
            // Payload identical; final line scalar vs vector.
            assert_eq!(
                block_a[..block_a.len() - 1],
                block_b[..block_b.len() - 1],
                "payload diverges for `{request}` (#{i})"
            );
            assert_eq!(block_a.last().unwrap(), "OK rev 0");
            assert_eq!(block_b.last().unwrap(), "OK rev 0,0,0");
        }
    }

    single.shutdown();
    single.join();
    sharded.shutdown();
    sharded.join();
}

#[test]
fn protocol_errors_quit_and_shutdown_behave() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let responses = run_client(
        addr,
        &[
            "FROBNICATE".to_string(),
            "QUERY no_such_net".to_string(),
            "QUERY net0 no_such_node".to_string(),
            "ECO setcap net0 ghost 1e-15".to_string(),
            "ECO quit".to_string(),
            "CERTIFY nan".to_string(),
        ],
    );
    assert!(responses[0][0].starts_with("ERR rev 0 bad request: unknown verb"));
    assert!(responses[1][0].starts_with("ERR rev 0 unknown net `no_such_net`"));
    assert!(responses[2][0].starts_with("ERR rev 0 query failed:"));
    // The failing directive is skipped, not fatal — and commits nothing.
    assert!(responses[3][0].starts_with("skip line 1:"), "{responses:?}");
    assert_eq!(responses[3][1], "OK rev 0");
    assert!(responses[4][0].contains("QUIT"), "{responses:?}");
    assert!(responses[5][0].starts_with("ERR rev 0 bad request:"));

    // A final request whose newline never arrives is still served at EOF,
    // even when a read timeout already buffered it as a partial line
    // (the client pauses longer than the server's poll interval before
    // closing its write half).
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        write!(writer, "CERTIFY 2e-7").expect("send partial");
        writer.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(120));
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut block = Vec::new();
        loop {
            let mut line = String::new();
            assert_ne!(
                reader.read_line(&mut line).expect("read"),
                0,
                "partial final request was dropped unserved"
            );
            let line = line.trim_end_matches(['\r', '\n']).to_string();
            let done = protocol::is_final(&line);
            block.push(line);
            if done {
                break;
            }
        }
        assert!(block[0].starts_with("certify required 2e-7"), "{block:?}");
        assert_eq!(block[1], "OK rev 0");
    }

    // QUIT closes just this connection; the server keeps serving others.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "QUIT").expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("ok line");
        assert_eq!(line.trim_end(), "OK rev 0");
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
    }
    let survivors = run_client(addr, &["STATS".to_string()]);
    assert!(survivors[0][0].starts_with("stats "));

    // SHUTDOWN stops the whole server.
    let _ = run_client(addr, &["SHUTDOWN".to_string()]);
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after SHUTDOWN"
    );
}

/// A request line may be `MAX_REQUEST_LINE` bytes, newline included.  A
/// line at the cap is served and its connection stays open; a line one
/// byte longer, streamed across read timeouts, gets one `ERR` line, counts
/// as a protocol error and closes its connection; the server goes on
/// serving fresh connections.
#[test]
fn request_lines_are_capped_on_both_sides_of_the_bound() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();
    // `CERTIFY 2e-7` padded with spaces to `len` bytes, newline excluded.
    let padded = |len: usize| {
        let request = "CERTIFY 2e-7";
        request.to_string() + &" ".repeat(len - request.len())
    };

    let at_cap = run_client(addr, &[padded(MAX_REQUEST_LINE - 1), "STATS".to_string()]);
    assert!(
        at_cap[0][0].starts_with("certify required 2e-7"),
        "{at_cap:?}"
    );
    assert_eq!(at_cap[0][1], "OK rev 0");
    assert!(
        at_cap[1][0].starts_with("stats "),
        "the connection stays open"
    );

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A server without the cap would wait for more of the line.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        // The cap's worth of bytes with no newline among them, in two
        // writes the server's read timeouts fall between; the newline that
        // would make the line one byte too long never needs to arrive.
        let line = padded(MAX_REQUEST_LINE);
        let (head, tail) = line.split_at(MAX_REQUEST_LINE / 3);
        stream.write_all(head.as_bytes()).expect("send head");
        std::thread::sleep(std::time::Duration::from_millis(60));
        stream.write_all(tail.as_bytes()).expect("send tail");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("error line");
        assert_eq!(
            reply,
            format!("ERR rev 0 bad request: request line exceeds {MAX_REQUEST_LINE} bytes\n")
        );
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("eof"), 0, "{reply:?}");
    }

    let fresh = run_client(addr, &["CERTIFY 2e-7".to_string()]);
    assert_eq!(fresh[0], at_cap[0], "a fresh connection is served");
    let metrics = fetch_metrics(addr, false).expect("scrape");
    assert!(
        metrics.contains("\nrctree_protocol_errors_total 1\n"),
        "{metrics}"
    );
    server.shutdown();
    server.join();
}

/// The continuum surface on the wire: `CERTIFY --over` answers with the
/// exact worst point of the symbolic lane (byte-identical to the shared
/// offline renderer), `QUERY --sens` appends the nominal sensitivities,
/// and the sharded composed block with one shard degenerates to the
/// scalar block.
#[test]
fn certify_over_and_sens_are_served_and_match_the_shared_renderer() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let (net, tree) = &trees[0];
    let node = tree
        .name(tree.preorder().collect::<Vec<_>>()[1])
        .expect("named")
        .to_string();
    let script = vec![
        "CERTIFY 1.2e-7 --over r 0.8..1.4 c 0.9..1.2".to_string(),
        "CERTIFY 1.2e-7 --over r 0.8..1.4".to_string(),
        format!("QUERY {net} {node} --sens"),
        format!("QUERY {net} {node}"),
        "CERTIFY 1.2e-7 --over r 1.4..0.8".to_string(),
        format!("QUERY {net} --sens"),
    ];
    let responses = run_client(addr, &script);
    let _ = run_client(addr, &["SHUTDOWN".to_string()]);
    server.join();

    // The offline oracle: a fresh snapshot of the same design, rendered
    // through the same shared payload function.
    let oracle =
        EcoExecutor::new(design_of(&trees), THRESHOLD, Seconds::new(BUDGET_S), 1).expect("oracle");
    let snapshot = oracle.snapshot();

    let over = protocol::ScaleBox {
        r: (0.8, 1.4),
        c: (0.9, 1.2),
    };
    let line = protocol::certify_over_line(&snapshot, 1.2e-7, &over).expect("renders");
    assert_eq!(responses[0], vec![line.clone(), "OK rev 0".to_string()]);
    assert!(
        line.starts_with("certify required 1.2e-7 over r 0.8..1.4 c 0.9..1.2 worst_slack "),
        "{line}"
    );
    assert!(line.contains(" worst at r="), "{line}");
    // All delays grow with both scales, so the worst point of a box that
    // excludes larger scales than its top corner is that top corner.
    assert!(line.contains(" worst at r=1.4,c=1.2 "), "{line}");

    // The composed renderer with one shard is byte-identical.
    assert_eq!(
        protocol::render_certify_over_composed(
            std::slice::from_ref(&snapshot),
            &[0],
            1.2e-7,
            &over
        ),
        responses[0]
    );

    // Omitted `c` range certifies the nominal c line.
    assert!(
        responses[1][0]
            .starts_with("certify required 1.2e-7 over r 0.8..1.4 c 1.0..1.0 worst_slack "),
        "{:?}",
        responses[1]
    );

    // `--sens` appends one payload line; the query is otherwise unchanged.
    assert_eq!(responses[2].len(), 3, "{:?}", responses[2]);
    assert!(responses[2][0].starts_with("node "), "{:?}", responses[2]);
    assert!(
        responses[2][1].starts_with("sens dT_dr "),
        "{:?}",
        responses[2]
    );
    assert!(responses[2][1].contains(" dT_dc "), "{:?}", responses[2]);
    assert_eq!(responses[2][0], responses[3][0]);
    assert_eq!(
        responses[2],
        protocol::render_query(&snapshot, 0, net, Some(&node), None, true)
    );

    // Malformed boxes and a node-less `--sens` are clean errors.
    assert!(responses[4][0].starts_with("ERR rev 0 bad request:"));
    assert!(responses[5][0].starts_with("ERR rev 0 bad request:"));
    assert!(
        responses[5][0].contains("requires a node"),
        "{:?}",
        responses[5]
    );
}

/// On a sharded server, `CERTIFY --over` composes across shards: min
/// worst slack, the argmin shard's worst point, conjunction verdict.
#[test]
fn sharded_certify_over_composes_across_shards() {
    const SHARDS: usize = 3;
    let trees = deck_trees();
    let mut config = config();
    config.shards = SHARDS;
    let server =
        Server::start(design_of(&trees), &config, ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();
    let responses = run_client(
        addr,
        &["CERTIFY 1.2e-7 --over r 0.7..1.3 c 0.8..1.1".to_string()],
    );
    let _ = run_client(addr, &["SHUTDOWN".to_string()]);
    server.join();

    let over = protocol::ScaleBox {
        r: (0.7, 1.3),
        c: (0.8, 1.1),
    };
    let shard_designs = design_of(&trees).partition(SHARDS).expect("partitions");
    let snapshots: Vec<Arc<DesignSnapshot>> = shard_designs
        .into_iter()
        .map(|d| {
            EcoExecutor::new(d, THRESHOLD, Seconds::new(BUDGET_S), 1)
                .expect("oracle")
                .snapshot()
        })
        .collect();
    let revs = vec![0; SHARDS];
    assert_eq!(
        responses[0],
        protocol::render_certify_over_composed(&snapshots, &revs, 1.2e-7, &over)
    );
    assert_eq!(*responses[0].last().expect("final"), "OK rev 0,0,0");
}

/// A one-shard `CERTIFY` block, restated from the snapshot's own report
/// values rather than through a renderer: on a nominal-only deck the
/// certify line carries the report's slack and verdict against the
/// budget; on a three-corner deck it names the lane of smallest slack
/// (ties to the lowest lane), the verdict is the conjunction over every
/// lane, and the final line ends with the corner vector.
#[test]
fn one_shard_certify_lines_restate_the_report_values() {
    use rctree_core::cert::Certification;
    use rctree_core::corner::CornerSet;

    let trees = deck_trees();
    let mut cornered = design_of(&trees);
    let mut set = CornerSet::nominal();
    set.push("slow", 1.3, 1.2, 1.1).expect("corner");
    set.push("fast", 0.8, 0.9, 0.85).expect("corner");
    cornered.set_corners(set);

    // Budgets that pass, fail, sit at the server budget, and fall inside
    // the nominal critical endpoint's arrival window.
    let nominal = EcoExecutor::new(design_of(&trees), THRESHOLD, Seconds::new(BUDGET_S), 1)
        .expect("oracle")
        .snapshot();
    let (lo, hi) = nominal.report().slack_interval();
    let inside = BUDGET_S - (lo.value() + hi.value()) / 2.0;
    let budgets = [1e-6, 1e-12, BUDGET_S, inside];
    let script: Vec<String> = budgets.iter().map(|b| format!("CERTIFY {b:e}")).collect();

    let mut verdicts = Vec::new();
    for (design, corner_tail) in [
        (design_of(&trees), ""),
        (cornered, " corners nominal,slow,fast"),
    ] {
        let snapshot = EcoExecutor::new(design.clone(), THRESHOLD, Seconds::new(BUDGET_S), 1)
            .expect("oracle")
            .snapshot();
        let server = Server::start(design, &config(), ("127.0.0.1", 0)).expect("server starts");
        let responses = run_client(server.local_addr(), &script);
        server.shutdown();
        server.join();

        for (&budget, response) in budgets.iter().zip(&responses) {
            let required = Seconds::new(budget);
            let line = match snapshot.corners() {
                None => {
                    let report = snapshot.report();
                    let verdict = report.certification_against(required);
                    verdicts.push(verdict);
                    format!(
                        "certify required {budget:e} worst_slack {:e} {verdict}",
                        report.slack_against(required).value()
                    )
                }
                Some(corners) => {
                    let lanes: Vec<_> = (0..corners.len())
                        .map(|k| corners.report(k).expect("lane in range"))
                        .collect();
                    let mut worst = 0;
                    for k in 1..lanes.len() {
                        if lanes[k].slack_against(required) < lanes[worst].slack_against(required) {
                            worst = k;
                        }
                    }
                    let verdict = lanes.iter().fold(Certification::Pass, |v, r| {
                        v.and(r.certification_against(required))
                    });
                    format!(
                        "certify required {budget:e} worst_slack {:e} corner {} {verdict}",
                        lanes[worst].slack_against(required).value(),
                        corners.names()[worst]
                    )
                }
            };
            assert_eq!(
                response,
                &vec![line, format!("OK rev 0{corner_tail}")],
                "CERTIFY {budget:e}"
            );
        }
    }
    for verdict in [Certification::Pass, Certification::Fail] {
        assert!(verdicts.contains(&verdict), "{verdicts:?} lacks {verdict}");
    }
}
