//! The served workloads, `serve_eco` and `dag_certify`: one `Server` on
//! loopback, driven over the wire protocol.
//!
//! * `serve_eco` — 2e4 extracted nets built in memory.  A closed-loop
//!   writer connection alternates a seeded value-edit `ECO` line (the
//!   `request_mix` edit form) with `CERTIFY <budget>`; a reader connection
//!   paced at a fixed rate sends `QUERY <net>` / `QUERY <net> <node>` and a
//!   `REPORT` every 100th request for as long as the writer runs, timed
//!   from each request's scheduled send time.
//! * `dag_certify` — an 8 × 32 `eco_dag` (cross p = 0.5) with a seeded
//!   4-corner `CornerSet`.  One closed-loop connection alternates a seeded
//!   `ECO setcap` with `CERTIFY <budget> --over r 0.8..1.4 c 0.9..1.2`.
//!
//! After the traffic the final `REPORT` and `CERTIFY --over` payloads are
//! compared with a fresh serial `EcoExecutor` replaying `Server::eco_log`.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rctree_core::corner::CornerSet;
use rctree_core::tree::RcTree;
use rctree_core::units::Seconds;
use rctree_obs::{parse_exposition, Exposition};
use rctree_serve::{fetch_metrics, protocol, EcoExecutor, ScaleBox, ServeConfig, Server};
use rctree_sta::{CellLibrary, Design};
use rctree_workloads::rng::Rng;
use rctree_workloads::{
    corner_set, eco_dag, request_mix, CornerSpecParams, EcoDagNet, EcoDagParams, RequestMixParams,
    SpefDeckParams,
};

use crate::trace::Tracer;
use crate::{
    median, quantile, status_mib, Options, Outcome, Size, Workload, END_TO_END, JOBS, PER_LAYER,
    THRESHOLD,
};

/// Required time of the served analysis and every `CERTIFY` budget.
const BUDGET_S: f64 = 5e-7;
/// The continuum box of every `CERTIFY --over`.
const OVER: ScaleBox = ScaleBox {
    r: (0.8, 1.4),
    c: (0.9, 1.2),
};
/// Server starts per run: at least `MIN_SETUPS`, more while they take
/// under `SETUP_SECONDS` in total, at most `MAX_SETUPS`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_SECONDS: f64 = 1.0;
/// The paced reader's request rate, well below its capacity.
const READ_RATE_PER_S: f64 = 200.0;
/// Every this many reader requests one is a `REPORT`.
const REPORT_EVERY: u64 = 100;
/// Generated script lengths; longer runs wrap around (every edit sets an
/// absolute value, so a repeated edit stays valid).
const SCRIPT_LEN: usize = 4096;
/// Consecutive writer requests per throughput block (see `block_rate`).
const RATE_BLOCK: usize = 20;
/// The `dag_certify` design shape is fixed so every seed measures the same
/// design; the seed drives the corner set and the edit stream.
const DAG_SHAPE_SEED: u64 = 7;

fn certify_line() -> String {
    format!("CERTIFY {BUDGET_S:e}")
}

fn certify_over_line() -> String {
    format!(
        "CERTIFY {BUDGET_S:e} --over r {}..{} c {}..{}",
        OVER.r.0, OVER.r.1, OVER.c.0, OVER.c.1
    )
}

/// The generated inputs of one served workload.
enum Input {
    Extracted(Vec<(String, RcTree)>),
    Dag {
        params: EcoDagParams,
        corners: CornerSet,
        nets: Vec<EcoDagNet>,
    },
}

impl Input {
    fn generate(opts: &Options) -> Input {
        let tiny = opts.size == Size::Tiny;
        match opts.workload {
            Workload::DagCertify => {
                let params = EcoDagParams {
                    chains: if tiny { 4 } else { 8 },
                    depth: if tiny { 6 } else { 32 },
                    cross_probability: 0.5,
                    ..EcoDagParams::default()
                };
                let nets = eco_dag(&params, DAG_SHAPE_SEED).nets;
                let names: Vec<String> = nets.iter().map(|n| n.name.clone()).collect();
                let corners = corner_set(
                    &CornerSpecParams {
                        corners: 4,
                        overrides: 0,
                    },
                    &names,
                    opts.seed,
                );
                Input::Dag {
                    params,
                    corners,
                    nets,
                }
            }
            _ => Input::Extracted(
                SpefDeckParams {
                    nets: if tiny { 100 } else { 20_000 },
                    ..SpefDeckParams::default()
                }
                .trees(opts.seed),
            ),
        }
    }

    /// Untimed part of a design build: what input generation hands over.
    fn prepare(&self) -> Prepared {
        match self {
            Input::Extracted(trees) => Prepared::Extracted(trees.clone()),
            Input::Dag {
                params, corners, ..
            } => Prepared::Dag(
                Box::new(eco_dag(params, DAG_SHAPE_SEED).design),
                corners.clone(),
            ),
        }
    }

    /// The writer's script: an edit, then a certification, repeated.
    fn writer_script(&self, seed: u64) -> Vec<String> {
        let edits: Vec<String> = match self {
            Input::Extracted(trees) => request_mix(
                trees,
                1,
                &RequestMixParams {
                    requests_per_connection: SCRIPT_LEN,
                    eco_fraction: 1.0,
                    certify_budget: BUDGET_S,
                },
                seed,
            )
            .remove(0),
            Input::Dag { nets, .. } => {
                let mut rng = Rng::from_seed(seed ^ 0xEC0_D4C5);
                (0..SCRIPT_LEN)
                    .map(|_| {
                        let net = &nets[rng.index(nets.len())];
                        let node = &net.nodes[rng.index(net.nodes.len())];
                        let cap = rng.range_f64(1e-15, 20e-15);
                        format!("ECO setcap {} {node} {cap:e}", net.name)
                    })
                    .collect()
            }
        };
        let verdict = match self {
            Input::Extracted(_) => certify_line(),
            Input::Dag { .. } => certify_over_line(),
        };
        edits
            .into_iter()
            .flat_map(|edit| [edit, verdict.clone()])
            .collect()
    }

    /// The paced reader's `QUERY` script (`serve_eco` only).
    fn reader_script(&self, seed: u64) -> Vec<String> {
        match self {
            Input::Extracted(trees) => request_mix(
                trees,
                1,
                &RequestMixParams {
                    requests_per_connection: 2 * SCRIPT_LEN,
                    eco_fraction: 0.0,
                    certify_budget: BUDGET_S,
                },
                seed ^ 0x5EAD,
            )
            .remove(0)
            .into_iter()
            .filter(|r| r.starts_with("QUERY "))
            .collect(),
            Input::Dag { .. } => Vec::new(),
        }
    }
}

enum Prepared {
    Extracted(Vec<(String, RcTree)>),
    Dag(Box<Design>, CornerSet),
}

impl Prepared {
    /// The timed part of a design build.
    fn build(self) -> Result<Design, String> {
        match self {
            Prepared::Extracted(trees) => {
                Design::from_extracted(CellLibrary::nmos_1981(), "inv_4x", trees)
                    .map_err(|e| format!("build: {e}"))
            }
            Prepared::Dag(mut design, corners) => {
                design.set_corners(corners);
                Ok(*design)
            }
        }
    }
}

/// One line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request and reads its response block, final line
    /// included.
    fn request(&mut self, request: &str) -> io::Result<Vec<String>> {
        writeln!(self.writer, "{request}")?;
        self.writer.flush()?;
        let mut block = Vec::new();
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            let line = self.line.trim_end_matches(['\r', '\n']).to_string();
            let last = protocol::is_final(&line);
            block.push(line);
            if last {
                return Ok(block);
            }
        }
    }
}

/// The client-side verbs the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Eco,
    Certify,
    CertifyOver,
    Query,
    Report,
}

impl Verb {
    fn of(request: &str) -> Verb {
        match request.split_whitespace().next() {
            Some("ECO") => Verb::Eco,
            Some("CERTIFY") if request.contains("--over") => Verb::CertifyOver,
            Some("CERTIFY") => Verb::Certify,
            Some("REPORT") => Verb::Report,
            _ => Verb::Query,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Verb::Eco => "client.eco",
            Verb::Certify => "client.certify",
            Verb::CertifyOver => "client.certify_over",
            Verb::Query => "client.query",
            Verb::Report => "client.report",
        }
    }
}

/// Client-side outcome of one request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    verb: Verb,
    latency_us: f64,
    failed: bool,
}

/// Whether a response block is a failure: an `ERR` final line or a
/// skipped ECO directive.
fn block_failed(block: &[String]) -> bool {
    block.last().is_none_or(|l| l.starts_with("ERR"))
        || block.iter().any(|l| l.starts_with("skip "))
}

/// The closed-loop writer: requests back to back until `deadline`.
/// Returns the samples, each request's completion time (s since the
/// start) and the transport errors.
fn run_writer(
    addr: SocketAddr,
    script: &[String],
    deadline: Instant,
    tracer: &Tracer,
) -> (Vec<Sample>, Vec<f64>, u64) {
    let start = Instant::now();
    let (mut samples, mut done) = (Vec::new(), Vec::new());
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(_) => return (samples, done, 1),
    };
    let mut errors = 0;
    for (i, request) in script.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let verb = Verb::of(request);
        let t0 = Instant::now();
        let result = conn.request(request);
        let t1 = Instant::now();
        tracer.record(
            tracer.reserve(),
            verb.span_name(),
            0,
            i as u64,
            t0,
            t1,
            None,
        );
        match result {
            Ok(block) => {
                samples.push(Sample {
                    verb,
                    latency_us: (t1 - t0).as_secs_f64() * 1e6,
                    failed: block_failed(&block),
                });
                done.push((t1 - start).as_secs_f64());
            }
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    (samples, done, errors)
}

/// Closed-loop throughput that one stall cannot swing: requests completed
/// per second over each block of `RATE_BLOCK` consecutive requests, median
/// over the blocks (the plain rate when there is no full block).
fn block_rate(done: &[f64]) -> f64 {
    let rates: Vec<f64> = (RATE_BLOCK..done.len())
        .step_by(RATE_BLOCK)
        .map(|i| RATE_BLOCK as f64 / (done[i] - done[i - RATE_BLOCK]))
        .collect();
    match (rates.is_empty(), done.last()) {
        (false, _) => median(&rates),
        (true, Some(&last)) => done.len() as f64 / last,
        (true, None) => 0.0,
    }
}

/// The paced reader: request `k` is due at `k / READ_RATE_PER_S` after the
/// start and is timed from that due time, so a stall is charged to every
/// request it delays.  Returns the samples, each request's send lag (µs)
/// and the transport errors.
fn run_reader(
    addr: SocketAddr,
    script: &[String],
    stop: &AtomicBool,
    tracer: &Tracer,
) -> (Vec<Sample>, Vec<f64>, u64) {
    let mut samples = Vec::new();
    let mut lags = Vec::new();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(_) => return (samples, lags, 1),
    };
    let start = Instant::now();
    for k in 0u64.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + Duration::from_secs_f64(k as f64 / READ_RATE_PER_S);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let request = if k % REPORT_EVERY == REPORT_EVERY - 1 {
            "REPORT"
        } else {
            &script[k as usize % script.len()]
        };
        let verb = Verb::of(request);
        let result = conn.request(request);
        let done = Instant::now();
        tracer.record(
            tracer.reserve(),
            verb.span_name(),
            0,
            (1 << 32) + k,
            due,
            done,
            None,
        );
        match result {
            Ok(block) => {
                lags.push((sent - due).as_secs_f64() * 1e6);
                samples.push(Sample {
                    verb,
                    latency_us: (done - due).as_secs_f64() * 1e6,
                    failed: block_failed(&block),
                });
            }
            Err(_) => return (samples, lags, 1),
        }
    }
    (samples, lags, 0)
}

/// Starts servers (see `MIN_SETUPS`), keeping the last; returns it with
/// the median start time and, for the traced run, the median build time
/// and the `VmRSS` after the last build.
fn start_server(
    input: &Input,
    tracer: &Tracer,
    traced: bool,
) -> Result<(Server, f64, f64, f64), String> {
    let config = ServeConfig::new(THRESHOLD, Seconds::new(BUDGET_S), JOBS);
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut build_rss = 0.0;
    let started = Instant::now();
    loop {
        let prepared = input.prepare();
        let root = tracer.reserve();
        let t0 = Instant::now();
        let design = prepared.build()?;
        let t1 = Instant::now();
        if traced {
            build_rss = status_mib("VmRSS");
        }
        tracer.record(
            tracer.reserve(),
            "sta.design_build",
            root,
            0,
            t0,
            t1,
            traced.then_some(build_rss),
        );
        let server = Server::start(design, &config, ("127.0.0.1", 0))
            .map_err(|e| format!("server start: {e}"))?;
        let t2 = Instant::now();
        tracer.record(
            tracer.reserve(),
            "serve.Server::start",
            root,
            0,
            t1,
            t2,
            None,
        );
        tracer.record(root, "bench.setup", 0, 0, t0, t2, None);
        setups.push((t2 - t0).as_secs_f64());
        builds.push((t1 - t0).as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if setups.len() >= MAX_SETUPS || (setups.len() >= MIN_SETUPS && spent >= SETUP_SECONDS) {
            return Ok((server, median(&setups), median(&builds), build_rss));
        }
        server.shutdown();
        server.join();
    }
}

fn scrape(addr: SocketAddr) -> Result<Exposition, String> {
    fetch_metrics(addr, false)
        .map_err(|e| format!("METRICS scrape: {e}"))
        .and_then(|text| parse_exposition(&text))
}

/// Value of one exposition series (0 when absent).
fn series(x: &Exposition, key: &str) -> f64 {
    x.series.get(key).map_or(0.0, |&(_, v)| v)
}

/// Server-side deltas between two scrapes.
struct Delta<'a> {
    before: &'a Exposition,
    after: &'a Exposition,
}

impl Delta<'_> {
    fn of(&self, key: &str) -> f64 {
        series(self.after, key) - series(self.before, key)
    }

    /// Mean of a histogram series over the interval (sum delta / count
    /// delta), 0 when nothing was recorded.
    fn mean(&self, family: &str, labels: &str) -> f64 {
        let count = self.of(&format!("{family}_count{labels}"));
        if count == 0.0 {
            return 0.0;
        }
        self.of(&format!("{family}_sum{labels}")) / count
    }
}

fn verb_labels(verb: &str) -> String {
    format!("{{verb=\"{verb}\"}}")
}

fn phase_labels(phase: &str) -> String {
    format!("{{phase=\"{phase}\"}}")
}

/// Runs `serve_eco` or `dag_certify`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let input = Input::generate(opts);
    let writer_script = input.writer_script(opts.seed);
    let reader_script = input.reader_script(opts.seed);
    let tracer = Tracer::new(opts.trace);

    let (server, setup_s, build_s, build_rss) = start_server(&input, &tracer, opts.trace)?;
    let addr = server.local_addr();
    let before = if opts.trace {
        Some(scrape(addr)?)
    } else {
        None
    };

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let stop = AtomicBool::new(false);
    let ((writes, write_done, write_errors), (reads, lags, read_errors)) =
        std::thread::scope(|s| {
            let reader = (!reader_script.is_empty())
                .then(|| s.spawn(|| run_reader(addr, &reader_script, &stop, &tracer)));
            let writer = run_writer(addr, &writer_script, deadline, &tracer);
            stop.store(true, Ordering::SeqCst);
            let reads = reader.map_or_else(
                || (Vec::new(), Vec::new(), 0),
                |h| h.join().expect("reader thread panicked"),
            );
            (writer, reads)
        });
    let peak_rss = status_mib("VmHWM");
    let after = if opts.trace {
        Some(scrape(addr)?)
    } else {
        None
    };

    let mut out = Outcome::default();
    let all: Vec<Sample> = writes.iter().chain(&reads).copied().collect();
    out.attempted = all.len() as u64 + write_errors + read_errors;
    out.failed = all.iter().filter(|s| s.failed).count() as u64 + write_errors + read_errors;

    // Correctness, after the traffic: the final served payloads against a
    // serial replay of the accepted-edit log.
    let served = Conn::open(addr)
        .and_then(|mut conn| Ok((conn.request("REPORT")?, conn.request(&certify_over_line())?)));
    let log = server.eco_log();
    let revision = server.revision();
    server.shutdown();
    server.join();
    let (served_report, served_over) = served.map_err(|e| format!("final requests: {e}"))?;
    out.check(
        log.len() as u64 == revision,
        &format!("{} logged edits == served revision {revision}", log.len()),
    );
    let mut oracle = EcoExecutor::new(
        input.prepare().build()?,
        THRESHOLD,
        Seconds::new(BUDGET_S),
        1,
    )
    .map_err(|e| format!("oracle: {e}"))?;
    let mut replay_skipped = 0;
    for summary in &log {
        let (_, counts) = oracle.exec_eco(summary, &mut |_, _| {}, &mut |_| {});
        replay_skipped += counts.skipped;
    }
    out.check(replay_skipped == 0, "every logged edit replays");
    let snapshot = oracle.snapshot();
    let rev = oracle.revision();
    out.check(
        served_report == protocol::render_report(&snapshot, rev, None),
        &format!(
            "final REPORT ({} lines) == serial replay",
            served_report.len()
        ),
    );
    out.check(
        served_over == protocol::render_certify_over(&snapshot, rev, BUDGET_S, &OVER),
        "final CERTIFY --over == serial replay",
    );

    let lat = |verb: Verb| -> Vec<f64> {
        all.iter()
            .filter(|s| s.verb == verb)
            .map(|s| s.latency_us)
            .collect()
    };
    let (eco, certify, over, query, report) = (
        lat(Verb::Eco),
        lat(Verb::Certify),
        lat(Verb::CertifyOver),
        lat(Verb::Query),
        lat(Verb::Report),
    );
    out.notes.push(format!(
        "samples: ECO {}, CERTIFY {}, CERTIFY --over {}, QUERY {}, REPORT {}; {} accepted edits; \
         writer {:.2} s, {} throughput blocks of {RATE_BLOCK}",
        eco.len(),
        certify.len(),
        over.len(),
        query.len(),
        report.len(),
        log.len(),
        write_done.last().copied().unwrap_or(0.0),
        write_done.len().saturating_sub(1) / RATE_BLOCK
    ));
    // The writer's read-your-write verdict after each edit.
    let read = if opts.workload == Workload::ServeEco {
        &certify
    } else {
        &over
    };
    if !opts.trace {
        out.set_metrics(
            &END_TO_END,
            &[
                ("setup_s", setup_s),
                ("peak_rss_mb", peak_rss),
                ("write_p50_us", median(&eco)),
                ("read_p50_us", median(read)),
                ("ops_per_s", block_rate(&write_done)),
            ],
        );
        return Ok(out);
    }

    let (before, after) = (before.expect("traced"), after.expect("traced"));
    let delta = Delta {
        before: &before,
        after: &after,
    };
    let hist = "rctree_request_duration_us";
    let phase = |p: &str| delta.mean("rctree_phase_duration_us", &phase_labels(p));
    // Phases that only ran during set-up, from the first scrape alone.
    let none = Exposition::default();
    let setup = Delta {
        before: &none,
        after: &before,
    };
    let setup_phase_s = |p: &str| setup.mean("rctree_phase_duration_us", &phase_labels(p)) / 1e6;
    let eco_server = delta.mean(hist, &verb_labels("ECO"));
    let certify_server = delta.mean(hist, &verb_labels("CERTIFY"));
    let reports = delta.of(&format!("{hist}_count{}", verb_labels("REPORT")));
    let cone = phase_labels("sta.propagate_cone");
    let cone_ranks = delta
        .of("rctree_phase_attr_sum{attr=\"cone_ranks\",phase=\"sta.propagate_cone\"}")
        / delta
            .of(&format!("rctree_phase_duration_us_count{cone}"))
            .max(1.0);
    let candidates: Vec<f64> = snapshot
        .symbolic()
        .map_err(|e| format!("oracle symbolic lane: {e}"))?
        .endpoints()
        .iter()
        .map(|e| e.candidate_count() as f64)
        .collect();
    let over_workload = opts.workload == Workload::DagCertify;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.set_metrics(
        &PER_LAYER,
        &[
            ("sta.build_s", build_s),
            ("sta.build_rss_mb", build_rss),
            ("sta.stage_sweep_s", setup_phase_s("sta.stage_sweep")),
            ("sta.propagate_full_s", setup_phase_s("sta.propagate_full")),
            ("serve.eco_server_us", eco_server),
            ("serve.eco_wait_us", mean(&eco) - eco_server),
            ("sta.eco_apply_us", phase("sta.eco_apply")),
            ("sta.publish_us", phase("sta.publish")),
            ("sta.propagate_cone_us", phase("sta.propagate_cone")),
            ("sta.cone_ranks_mean", cone_ranks),
            (
                "serve.query_server_us",
                delta.mean(hist, &verb_labels("QUERY")),
            ),
            (
                "serve.report_server_us",
                delta.mean(hist, &verb_labels("REPORT")),
            ),
            (
                "serve.report_cache_hit_ratio",
                delta.of("rctree_report_cache_hits_total") / reports.max(1.0),
            ),
            (
                if over_workload {
                    "serve.certify_over_server_us"
                } else {
                    "serve.certify_server_us"
                },
                certify_server,
            ),
            ("sta.symbolic_build_us", phase("sta.symbolic_build")),
            (
                "sta.symbolic_builds",
                delta.of(&format!(
                    "rctree_phase_duration_us_count{}",
                    phase_labels("sta.symbolic_build")
                )),
            ),
            (
                "sta.symbolic_candidates_max",
                candidates.iter().copied().fold(0.0, f64::max),
            ),
            ("sta.symbolic_candidates_sum", candidates.iter().sum()),
            (
                "serve.eco_applied",
                delta.of("rctree_shard_eco_applied_total{shard=\"0\"}"),
            ),
            (
                "serve.eco_skipped",
                delta.of("rctree_shard_eco_skipped_total{shard=\"0\"}"),
            ),
            ("bench.reader_lag_p99_us", quantile(&lags, 0.99)),
            ("eco_p50_us", median(&eco)),
            ("eco_p95_us", quantile(&eco, 0.95)),
            ("certify_p50_us", median(&certify)),
            ("query_p50_us", median(&query)),
            ("query_p99_us", quantile(&query, 0.99)),
            ("report_p50_us", median(&report)),
            ("certify_over_p50_us", median(&over)),
            ("certify_over_p95_us", quantile(&over, 0.95)),
            ("failed_frac", out.failed as f64 / out.attempted as f64),
        ],
    );
    let dump = opts.out_dir.join(format!(
        "trace-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .write(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    out.notes
        .push(format!("spans written to {}", dump.display()));
    Ok(out)
}
