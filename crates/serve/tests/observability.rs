//! Observability on the wire: the `METRICS`/`TRACE` verbs, the pinned
//! `STATS` payload, and the determinism guarantees the exposition makes —
//! quiesced repeated scrapes are byte-identical (the scrape verbs are
//! self-excluding), and the `stable` subset is byte-identical across
//! worker-thread counts for the same request history.
//!
//! The `STATS` pin matters because this PR re-keyed its counters onto the
//! metrics registry: the payload must stay byte-identical to the
//! pre-observability format, and its values must agree with `METRICS` by
//! construction (shared series, derived sums).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use rctree_core::tree::RcTree;
use rctree_core::units::Seconds;
use rctree_serve::protocol;
use rctree_serve::{fetch_metrics, EcoExecutor, ServeConfig, Server};
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::SpefDeckParams;

const THRESHOLD: f64 = 0.5;
const BUDGET_S: f64 = 150e-9;

fn deck_trees() -> Vec<(String, RcTree)> {
    SpefDeckParams {
        nets: 8,
        ..SpefDeckParams::default()
    }
    .trees(0xBEEF)
}

fn design_of(trees: &[(String, RcTree)]) -> Design {
    Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees.to_vec()).expect("deck builds")
}

fn config(jobs: usize) -> ServeConfig {
    ServeConfig::new(THRESHOLD, Seconds::new(BUDGET_S), jobs)
}

/// A one-directive `ECO` line re-capping the first primary-output node of
/// deck net 0, and that net's primary-output count.
fn one_edit_eco(trees: &[(String, RcTree)]) -> (String, usize) {
    let (net, tree) = &trees[0];
    let node = tree.outputs().next().expect("deck nets have outputs");
    let name = tree.name(node).expect("output node is named");
    (
        format!("ECO setcap {net} {name} 3e-15"),
        tree.outputs().count(),
    )
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

/// `STATS` must render byte-identical to the pre-observability format —
/// same fields (less the two arena sizes, removed with the arena), same
/// order, same spelling — with its counters now living in the metrics
/// registry.  The expected line is reconstructed from a
/// serial oracle over the same design plus the known request history.
#[test]
fn stats_payload_is_byte_identical_to_the_pre_obs_format() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(1), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let net = &trees[0].0;
    let responses = run_client(
        addr,
        &[
            format!("QUERY {net}"),
            "REPORT".to_string(),
            "REPORT".to_string(), // second render is a cache hit
            "FROBNICATE".to_string(),
            "STATS".to_string(),
        ],
    );

    let oracle =
        EcoExecutor::new(design_of(&trees), THRESHOLD, Seconds::new(BUDGET_S), 1).expect("oracle");
    let snapshot = oracle.snapshot();
    // Requests: QUERY + REPORT + REPORT + STATS (the parse error is not
    // a request; STATS counts itself before rendering, as before).
    let expected = format!(
        "stats nets {} instances {} endpoints {} revision 0 corners 1 connections 1 requests 4 \
         queries 1 eco_applied 0 eco_skipped 0 report_cache_hits 1 shards 1 routing_table 0 \
         shard_revs 0 shard_applied 0 shard_skipped 0 shard_report_cache_hits 1",
        snapshot.net_count(),
        snapshot.instance_count(),
        snapshot.report().endpoints.len(),
    );
    assert_eq!(responses[4], vec![expected, "OK rev 0".to_string()]);

    server.shutdown();
    server.join();
}

/// Unknown verbs echo the offending token **as typed** — the protocol
/// uppercases only for matching, never in the error message.
#[test]
fn unknown_verb_errors_echo_the_token_as_typed_on_the_wire() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(1), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let responses = run_client(
        addr,
        &[
            "frobnicate now".to_string(),
            "FROBNICATE".to_string(),
            "Metricz".to_string(),
        ],
    );
    assert_eq!(
        responses[0],
        vec!["ERR rev 0 bad request: unknown verb `frobnicate`".to_string()]
    );
    assert_eq!(
        responses[1],
        vec!["ERR rev 0 bad request: unknown verb `FROBNICATE`".to_string()]
    );
    assert_eq!(
        responses[2],
        vec!["ERR rev 0 bad request: unknown verb `Metricz`".to_string()]
    );

    server.shutdown();
    server.join();
}

/// `METRICS` is well-formed, carries the registry's server series with
/// values that agree with the request history (and hence with `STATS`,
/// which shares the series), and — because the scrape verbs are
/// self-excluding — repeated quiesced scrapes are **byte-identical**.
#[test]
fn metrics_is_well_formed_counts_the_workload_and_is_byte_stable_quiesced() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(1), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let net = &trees[0].0;
    let responses = run_client(
        addr,
        &[
            format!("QUERY {net}"),
            format!("QUERY {net}"),
            "REPORT".to_string(),
            "REPORT".to_string(),
            "frobnicate".to_string(),
            format!("ECO setcap {net} ghost 1e-15"), // skipped, commits nothing
            "CERTIFY 2e-7".to_string(),
        ],
    );
    assert_eq!(responses.len(), 7);

    // Quiesced now: repeated scrapes on one connection must be
    // byte-identical (METRICS moves no counter and opens no span; a new
    // connection would bump only `rctree_connections_total` at accept).
    let scrapes = run_client(addr, &["METRICS".to_string(), "METRICS".to_string()]);
    assert_eq!(
        scrapes[0], scrapes[1],
        "quiesced scrapes must be byte-identical"
    );
    let payload = scrapes[0][..scrapes[0].len() - 1].join("\n");

    let exposition = rctree_obs::parse_exposition(&payload).expect("well-formed exposition");
    let value = |key: &str| -> f64 {
        exposition
            .series
            .get(key)
            .unwrap_or_else(|| panic!("missing series `{key}`"))
            .1
    };
    // 2 QUERY + 2 REPORT + 1 ECO + 1 CERTIFY (the parse error is not a
    // request; METRICS excludes itself).
    assert_eq!(value("rctree_requests_total"), 6.0);
    assert_eq!(value("rctree_requests_verb_total{verb=\"QUERY\"}"), 2.0);
    assert_eq!(value("rctree_requests_verb_total{verb=\"REPORT\"}"), 2.0);
    assert_eq!(value("rctree_requests_verb_total{verb=\"ECO\"}"), 1.0);
    assert_eq!(value("rctree_requests_verb_total{verb=\"CERTIFY\"}"), 1.0);
    assert_eq!(value("rctree_requests_verb_total{verb=\"STATS\"}"), 0.0);
    assert_eq!(value("rctree_protocol_errors_total"), 1.0);
    assert_eq!(value("rctree_report_cache_hits_total"), 1.0);
    assert_eq!(value("rctree_shard_eco_applied_total{shard=\"0\"}"), 0.0);
    assert_eq!(value("rctree_shard_eco_skipped_total{shard=\"0\"}"), 1.0);
    // The workload connection plus this scraping connection.
    assert_eq!(value("rctree_connections_total"), 2.0);
    // Design-shape gauges are refreshed at scrape time (each deck net
    // becomes a feeder + main net pair in the stage design).
    assert_eq!(value("rctree_nets"), 2.0 * trees.len() as f64);
    assert_eq!(value("rctree_corners"), 1.0);
    assert_eq!(value("rctree_shard_revision{shard=\"0\"}"), 0.0);
    // The serve.request span auto-metrics count the served verbs.
    assert_eq!(value("rctree_phase_total{phase=\"serve.request\"}"), 6.0);
    // Response bytes were accumulated per verb and are nonzero.
    assert!(value("rctree_response_bytes_total{verb=\"REPORT\"}") > 0.0);

    // Families carry TYPE metadata for every series' family.
    for family in [
        "rctree_connections_total",
        "rctree_requests_total",
        "rctree_request_duration_us",
        "rctree_nets",
    ] {
        assert!(
            exposition.families.contains_key(family),
            "missing TYPE for `{family}`"
        );
    }

    server.shutdown();
    server.join();
}

/// `TRACE <n>` returns the most recent finished spans as `span …` lines —
/// and, being self-excluding, does not grow the ring it reads.
#[test]
fn trace_returns_span_lines_and_excludes_itself() {
    let trees = deck_trees();
    let server =
        Server::start(design_of(&trees), &config(1), ("127.0.0.1", 0)).expect("server starts");
    let addr = server.local_addr();

    let net = &trees[0].0;
    let responses = run_client(
        addr,
        &[
            format!("QUERY {net}"),
            "TRACE 4".to_string(),
            "TRACE 4".to_string(),
        ],
    );
    let first = &responses[1];
    assert_eq!(first.last().unwrap(), "OK rev 0");
    assert!(
        first.len() > 1,
        "warm-up and QUERY spans should be in the ring: {first:?}"
    );
    for line in &first[..first.len() - 1] {
        assert!(line.starts_with("span "), "not a span line: {line}");
        assert!(line.contains(" name="), "missing name attr: {line}");
        assert!(line.contains(" dur_ns="), "missing duration: {line}");
    }
    assert!(
        first.iter().any(|l| l.contains("name=serve.request")),
        "the QUERY request span should be traced: {first:?}"
    );
    // TRACE opened no span of its own: the second block is identical.
    assert_eq!(responses[1], responses[2]);

    server.shutdown();
    server.join();
}

/// The `stable` exposition subset is **byte-identical across worker
/// thread counts** for the same request history — the jobs knob may only
/// change wall-clock (volatile) families, never a workload-determined
/// counter, gauge, span count, or span attribute sum.
#[test]
fn stable_metrics_are_byte_identical_across_job_counts() {
    let trees = deck_trees();
    let net = &trees[0].0;
    let (eco, net_outputs) = one_edit_eco(&trees);
    let mut expositions = Vec::new();
    for jobs in [1usize, 2, 7] {
        let server = Server::start(design_of(&trees), &config(jobs), ("127.0.0.1", 0))
            .expect("server starts");
        let addr = server.local_addr();
        // Scrape on the requests' own connection: a connection finishes
        // recording one request before it reads the next, while a scrape
        // on a new connection can miss the last request's bookkeeping.
        let mut responses = run_client(
            addr,
            &[
                format!("QUERY {net}"),
                "REPORT".to_string(),
                "REPORT".to_string(),
                "frobnicate".to_string(),
                eco.clone(),
                "CERTIFY 2e-7".to_string(),
                "STATS".to_string(),
                "METRICS stable".to_string(),
            ],
        );
        let scrape = responses.pop().expect("the scrape's response");
        assert_eq!(responses.len(), 7);
        assert_eq!(
            responses[4].last().unwrap(),
            "OK rev 1",
            "{:?}",
            responses[4]
        );
        let stable = scrape[..scrape.len() - 1].join("\n");
        // The full exposition must still parse; only its volatile families
        // are jobs-dependent.
        rctree_obs::parse_exposition(&fetch_metrics(addr, false).expect("scrape"))
            .expect("full exposition is well-formed");
        expositions.push((jobs, stable));
        server.shutdown();
        server.join();
    }
    let (_, baseline) = &expositions[0];
    assert!(
        baseline.contains("rctree_requests_total"),
        "stable subset must keep the workload counters"
    );
    assert!(
        !baseline.contains("rctree_request_duration_us"),
        "stable subset must drop wall-clock families"
    );
    for (jobs, text) in &expositions[1..] {
        assert_eq!(
            text, baseline,
            "stable exposition diverged between jobs=1 and jobs={jobs}"
        );
    }

    // What the two publishes touched: the start-up publish files every
    // endpoint once; the one-edit ECO removes and re-inserts only the
    // edited net's endpoints, copying one endpoint chunk and one net-view
    // chunk (this 16-net, 30-endpoint deck fits in one of each).
    let exposition = rctree_obs::parse_exposition(baseline).expect("well-formed exposition");
    let series = |key: &str| -> f64 {
        exposition
            .series
            .get(key)
            .unwrap_or_else(|| panic!("missing series `{key}`"))
            .1
    };
    let endpoints = EcoExecutor::new(design_of(&trees), THRESHOLD, Seconds::new(BUDGET_S), 1)
        .expect("oracle")
        .snapshot()
        .report()
        .endpoints
        .len();
    assert_eq!((endpoints, net_outputs), (30, 4));
    let attr = |name: &str, stat: &str| {
        series(&format!(
            "rctree_phase_attr_{stat}{{attr=\"{name}\",phase=\"sta.publish\"}}"
        ))
    };
    assert_eq!(attr("endpoints_moved", "count"), 2.0);
    assert_eq!(
        attr("endpoints_moved", "sum"),
        (endpoints + 2 * net_outputs) as f64
    );
    assert_eq!(attr("chunks_copied", "sum"), 2.0);
}

/// The `sta.symbolic_build` span says what each `CERTIFY --over` build did:
/// the first sweeps every net, the one after a one-net `ECO` sweeps only
/// that net (a cone rebuild of the previous revision's lane), and the
/// attributes sit in the stable subset, byte-identical across worker
/// counts.
#[test]
fn certify_over_after_an_eco_sweeps_only_the_edited_net() {
    let trees = deck_trees();
    let (eco, _) = one_edit_eco(&trees);
    let over = "CERTIFY 2e-7 --over r 0.8..1.4 c 0.9..1.2".to_string();
    let nets = 2.0 * trees.len() as f64;
    let swept = |text: &str| {
        let exposition = rctree_obs::parse_exposition(text).expect("well-formed exposition");
        let attr = |stat: &str| {
            exposition.series[&format!(
                "rctree_phase_attr_{stat}{{attr=\"nets_swept\",phase=\"sta.symbolic_build\"}}"
            )]
                .1
        };
        (attr("count"), attr("sum"))
    };
    let mut expositions = Vec::new();
    for jobs in [1usize, 2, 7] {
        let server = Server::start(design_of(&trees), &config(jobs), ("127.0.0.1", 0))
            .expect("server starts");
        // Scrape on the requests' own connection: a connection finishes
        // recording one request before it reads the next.
        let scrape = "METRICS stable".to_string();
        let responses = run_client(
            server.local_addr(),
            &[
                over.clone(),
                scrape.clone(),
                eco.clone(),
                over.clone(),
                scrape,
            ],
        );
        assert!(responses[0].last().unwrap().starts_with("OK rev 0"));
        assert!(responses[3].last().unwrap().starts_with("OK rev 1"));
        let payload = |block: &[String]| block[..block.len() - 1].join("\n");
        assert_eq!(swept(&payload(&responses[1])), (1.0, nets), "jobs {jobs}");
        let stable = payload(&responses[4]);
        assert_eq!(swept(&stable), (2.0, nets + 1.0), "jobs {jobs}");
        for attr in ["cone_ranks", "candidates"] {
            assert!(
                stable.contains(&format!(
                    "rctree_phase_attr_count{{attr=\"{attr}\",phase=\"sta.symbolic_build\"}} 2"
                )),
                "missing `{attr}`"
            );
        }
        expositions.push((jobs, stable));
        server.shutdown();
        server.join();
    }
    let (_, baseline) = &expositions[0];
    for (jobs, text) in &expositions[1..] {
        assert_eq!(
            text, baseline,
            "stable exposition diverged between jobs=1 and jobs={jobs}"
        );
    }
}
