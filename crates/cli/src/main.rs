//! `rcdelay` — Penfield–Rubinstein delay bounds from the command line.
//!
//! See [`rctree_cli::USAGE`] or run `rcdelay --help`.
//!
//! Exit status: `0` when every requested certification passes (or none
//! was requested), `1` on any error **and** whenever a certification
//! (`--budget`, or the final verdict of an `rcdelay eco` session) fails,
//! `2` when the bounds cannot decide (`indeterminate`) — so a CI gate on
//! "exit 0" only goes green for *proven* timing.

use std::io::{BufRead, BufWriter, ErrorKind, Read, StdoutLock, Write};
use std::process::ExitCode;

use rctree_cli::{
    analyze_deck_from_paths, certify_over_from_paths, deck_design_from_paths, load_corner_set,
    load_tree, parse_args, parse_eco_script, parse_eco_script_line, profile_from_paths,
    read_deck_nets, render_profile_json, render_profile_table, report, CliError, Command,
    EcoSession, Options, ScriptLine, USAGE,
};
use rctree_core::cert::Certification;
use rctree_core::units::Seconds;

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read standard input: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    }
}

/// Maps an optional certification verdict to the process exit status.
fn verdict_exit(verdict: Option<Certification>) -> ExitCode {
    match verdict {
        Some(Certification::Fail) => ExitCode::FAILURE,
        Some(Certification::Indeterminate) => ExitCode::from(2),
        Some(Certification::Pass) | None => ExitCode::SUCCESS,
    }
}

/// The one writer of standard output: runs `write` on a locked, buffered
/// stdout, flushes it (a sizing loop wants each slack line as it lands)
/// and passes `status` on.  A closed pipe — `rcdelay report ... | head` —
/// is the end of output, not an error: the rest is dropped and the
/// verdict's status stands.  Any other write error fails.
fn stream(
    status: ExitCode,
    write: impl FnOnce(&mut BufWriter<StdoutLock<'static>>) -> std::io::Result<()>,
) -> ExitCode {
    let mut stdout = BufWriter::with_capacity(1 << 16, std::io::stdout().lock());
    match write(&mut stdout).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
        _ => status,
    }
}

/// [`stream`] of one finished text.
fn respond(text: &str, status: ExitCode) -> ExitCode {
    stream(status, |out| out.write_all(text.as_bytes()))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(CliError::Usage(message)) => {
            if message == USAGE {
                return respond(USAGE, ExitCode::SUCCESS);
            }
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        Err(other) => {
            eprintln!("error: {other}");
            return ExitCode::FAILURE;
        }
    };

    match &opts.command {
        Command::Report => {
            let text = match read_input(&opts.path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match load_tree(&text, &opts).and_then(|tree| report(&tree, &opts)) {
                // The verdict must be visible to scripts and CI, not just
                // humans reading stdout: fail → 1, unproven → 2.
                Ok(report) => respond(&report.to_string(), verdict_exit(report.certification)),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Eco { script, watch, .. } => {
            // The deck streams from its path through the chunked SPEF
            // reader inside the session/run helpers — it is never read
            // into one string here.
            if *watch {
                return run_watch(script, &opts);
            }
            match read_input(script) {
                Ok(script_text) => run_batch(&script_text, &opts),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::DeckReport { decks, driver } => {
            let budget = opts.budget.expect("report mode requires --budget");
            let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
            let corners = match opts.corners.as_deref().map(load_corner_set).transpose() {
                Ok(corners) => corners,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match analyze_deck_from_paths(
                decks,
                driver,
                opts.threshold,
                budget,
                jobs,
                corners.as_ref(),
                opts.corner.as_deref(),
            ) {
                Ok(deck) => {
                    let report = deck.report();
                    let status = stream(verdict_exit(Some(report.certification())), |out| {
                        report.write_to(out)
                    });
                    // The process exit frees the design and the report at
                    // once; dropping them piece by piece would cost
                    // ≈0.3 s on a 1e5-net deck.
                    std::mem::forget(deck);
                    status
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::CertifyOver {
            decks,
            driver,
            over_r,
            over_c,
        } => {
            let budget = opts.budget.expect("certify-over mode requires --budget");
            let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
            match certify_over_from_paths(
                decks,
                driver,
                opts.threshold,
                budget,
                jobs,
                *over_r,
                *over_c,
            ) {
                Ok((report, analysed)) => {
                    let status = respond(&report.text, verdict_exit(report.certification));
                    // As for `report`: the process exit frees the design,
                    // its snapshot and the symbolic lane at once.
                    std::mem::forget(analysed);
                    status
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Serve {
            decks,
            driver,
            port,
            shards,
            slow_us,
        } => run_serve(&opts, decks, driver, *port, *shards, *slow_us),
        Command::Profile {
            decks,
            driver,
            json,
        } => {
            let budget = opts.budget.expect("profile mode requires --budget");
            let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
            match profile_from_paths(decks, driver, opts.threshold, budget, jobs) {
                Ok((rows, certification, analysed)) => {
                    let text = match *json {
                        true => render_profile_json(&rows),
                        false => render_profile_table(&rows),
                    };
                    let status = respond(&text, verdict_exit(Some(certification)));
                    std::mem::forget(analysed);
                    status
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Scrape {
            addr,
            stable,
            out,
            prev,
        } => run_scrape(addr, *stable, out.as_deref(), prev.as_deref()),
        Command::BenchClient {
            addr,
            deck,
            connections,
            requests,
            seed,
            eco_fraction,
            shards,
            out,
            shutdown,
        } => run_bench_client(
            &opts,
            addr,
            deck,
            *connections,
            *requests,
            *seed,
            *eco_fraction,
            *shards,
            out,
            *shutdown,
        ),
        Command::GenDeck { nets, seed } => {
            let params = rctree_workloads::SpefDeckParams {
                nets: *nets,
                ..rctree_workloads::SpefDeckParams::default()
            };
            // Stream net by net: a million-net fixture deck writes in
            // constant memory instead of materialising gigabytes first.  A
            // closed pipe is the end of output, as for every payload.
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            match rctree_workloads::render_spef_deck(&params, *seed, &mut out)
                .and_then(|()| out.flush())
            {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write deck: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
    }
}

/// `rcdelay serve`: build the deck design, start the server, and block
/// until a client sends `SHUTDOWN`.
fn run_serve(
    opts: &Options,
    decks: &[String],
    driver: &str,
    port: u16,
    shards: usize,
    slow_us: Option<u64>,
) -> ExitCode {
    let budget = opts.budget.expect("serve mode requires --budget");
    let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
    let mut design = match deck_design_from_paths(decks, driver, jobs) {
        Ok(design) => design,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spec) = opts.corners.as_deref() {
        match load_corner_set(spec) {
            Ok(set) => design.set_corners(set),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut config = rctree_serve::ServeConfig::new(opts.threshold, Seconds::new(budget), jobs);
    config.shards = shards;
    config.slow_us = slow_us;
    let server = match rctree_serve::Server::start(design, &config, ("127.0.0.1", port)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The listening line is the machine-readable handshake: scripts (and
    // the CI smoke step) scrape the bound address from it.
    emit(&format!(
        "rctree-serve listening on {} ({} nets, threshold {}, budget {budget:e} s, {jobs} jobs, \
         {} shards)",
        server.local_addr(),
        server.net_count(),
        opts.threshold,
        server.shard_count()
    ));
    server.join();
    emit("rctree-serve stopped");
    ExitCode::SUCCESS
}

/// `rcdelay bench-client`: drive a running server with a seeded request
/// mix and write the JSON summary.
#[allow(clippy::too_many_arguments)]
fn run_bench_client(
    opts: &Options,
    addr: &str,
    deck: &str,
    connections: usize,
    requests: usize,
    seed: u64,
    eco_fraction: f64,
    shards: usize,
    out: &str,
    shutdown: bool,
) -> ExitCode {
    use std::net::ToSocketAddrs;

    let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
    let nets = match read_deck_nets(deck, jobs) {
        Ok(nets) => nets
            .into_iter()
            .map(|n| (n.name, n.tree))
            .collect::<Vec<_>>(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = rctree_workloads::RequestMixParams {
        requests_per_connection: requests,
        eco_fraction,
        certify_budget: opts.budget.unwrap_or(100e-9),
    };
    let scripts = if shards > 1 {
        rctree_workloads::shard_crossing_mix(&nets, connections, &params, shards, seed)
    } else {
        rctree_workloads::request_mix(&nets, connections, &params, seed)
    };
    let socket = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(socket) => socket,
        None => {
            eprintln!("error: cannot resolve `{addr}`");
            return ExitCode::FAILURE;
        }
    };
    // Server-side counters bracket the run: the stable (deterministic)
    // METRICS subset scraped before and after, diffed into the JSON
    // summary so a benchmark record says what the *server* did, not just
    // what the client observed.  Best-effort — a scrape failure degrades
    // to an empty delta map, it never fails the bench.
    let before = match rctree_serve::fetch_metrics(socket, true) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("warning: METRICS scrape before load failed: {e}");
            None
        }
    };
    let mut report = match rctree_serve::run_load(socket, &scripts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: load run against {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(before) = before {
        match rctree_serve::fetch_metrics(socket, true) {
            Ok(after) => {
                let parsed = rctree_obs::parse_exposition(&before)
                    .and_then(|b| rctree_obs::parse_exposition(&after).map(|a| (b, a)));
                match parsed {
                    Ok((b, a)) => report.server_deltas = rctree_obs::counter_deltas(&b, &a),
                    Err(e) => eprintln!("warning: METRICS exposition failed to parse: {e}"),
                }
            }
            Err(e) => eprintln!("warning: METRICS scrape after load failed: {e}"),
        }
    }
    for (key, delta) in &report.server_deltas {
        if key.starts_with("rctree_requests_total")
            || key.starts_with("rctree_protocol_errors_total")
            || key.starts_with("rctree_report_cache_hits_total")
        {
            emit(&format!("bench-client: server {key} +{delta:.0}"));
        }
    }
    emit(&format!(
        "bench-client: {} connections x {} requests -> {:.0} queries/s \
         (p50 {:.0} us, p90 {:.0} us, p99 {:.0} us, {} protocol errors)",
        report.connections,
        requests,
        report.queries_per_s,
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.protocol_errors
    ));
    for v in &report.per_verb {
        emit(&format!(
            "bench-client: {:>6}: {} requests, p50 {:.0} us, p90 {:.0} us, p99 {:.0} us",
            v.verb, v.requests, v.p50_us, v.p90_us, v.p99_us
        ));
    }
    if let Some(parent) = std::path::Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("error: cannot write `{out}`: {e}");
        return ExitCode::FAILURE;
    }
    emit(&format!("summary written to {out}"));
    if shutdown {
        if let Err(e) = send_shutdown(socket) {
            eprintln!("error: SHUTDOWN failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `rcdelay scrape`: fetch a running server's `METRICS` exposition, check
/// it is well-formed and carries the core server series, optionally check
/// counter monotonicity against a previous scrape, and write it out.
fn run_scrape(addr: &str, stable: bool, out: Option<&str>, prev: Option<&str>) -> ExitCode {
    use std::net::ToSocketAddrs;

    let socket = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(socket) => socket,
        None => {
            eprintln!("error: cannot resolve `{addr}`");
            return ExitCode::FAILURE;
        }
    };
    let text = match rctree_serve::fetch_metrics(socket, stable) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: METRICS scrape of {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exposition = match rctree_obs::parse_exposition(&text) {
        Ok(exposition) => exposition,
        Err(e) => {
            eprintln!("error: exposition is malformed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The server registers its core families eagerly, so their absence
    // means the scrape did not hit an rctree server (or hit a bug).
    for family in ["rctree_connections_total", "rctree_requests_total"] {
        if !exposition.families.contains_key(family) {
            eprintln!("error: exposition is missing required family `{family}`");
            return ExitCode::FAILURE;
        }
    }
    if let Some(prev_path) = prev {
        let prev_text = match std::fs::read_to_string(prev_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read `{prev_path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let prev_exposition = match rctree_obs::parse_exposition(&prev_text) {
            Ok(exposition) => exposition,
            Err(e) => {
                eprintln!("error: previous exposition is malformed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = rctree_obs::check_monotone(&prev_exposition, &exposition) {
            eprintln!("error: counter went backwards against `{prev_path}`: {e}");
            return ExitCode::FAILURE;
        }
        emit(&format!(
            "scrape: {} series, monotone against {prev_path}",
            exposition.series.len()
        ));
    } else {
        emit(&format!("scrape: {} series", exposition.series.len()));
    }
    match out {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            emit(&format!("exposition written to {path}"));
            ExitCode::SUCCESS
        }
        None => respond(&text, ExitCode::SUCCESS),
    }
}

/// Sends `SHUTDOWN` on a fresh connection and waits for its `OK`.
fn send_shutdown(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let stream = std::net::TcpStream::connect(addr)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);
    writeln!(writer, "SHUTDOWN")?;
    writer.flush()?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(())
}

/// Prints a session line immediately; a failed write does not stop the
/// session.
fn emit(line: &str) {
    respond(&format!("{line}\n"), ExitCode::SUCCESS);
}

/// `rcdelay eco` with the whole script up front: the session header, one
/// slack line per edit, then the final verdict.  A failing edit ends the
/// session: the header and the lines of the edits already applied print,
/// then the error, and the status is 1.
fn run_batch(script_text: &str, opts: &Options) -> ExitCode {
    let started = parse_eco_script(script_text).and_then(|edits| {
        Ok((
            EcoSession::open(&opts.path, opts, Some(edits.len()))?,
            edits,
        ))
    });
    let ((mut session, mut text), edits) = match started {
        Ok(started) => started,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let status = match session.apply_all(&edits, &mut text) {
        Ok(()) => respond(&text, verdict_exit(Some(session.certification()))),
        Err(e) => {
            respond(&text, ExitCode::FAILURE);
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    // The process exit frees the session's design and its warm state at
    // once.
    std::mem::forget(session);
    status
}

/// One streamed script line: parse, apply each edit, report.  Bad lines
/// and failing edits are reported on stderr and skipped — the engine is
/// transactional, so the session keeps serving.  Returns `true` on `quit`.
fn watch_line(session: &mut EcoSession, line_no: usize, raw: &str) -> bool {
    match parse_eco_script_line(line_no, raw) {
        Ok(ScriptLine::Empty) => false,
        Ok(ScriptLine::Quit) => true,
        Ok(ScriptLine::Edits(edits)) => {
            for se in &edits {
                match session.apply(se) {
                    Ok(out) => emit(&out),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            false
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

/// `rcdelay eco --watch`: stream the edit script line by line — from
/// standard input when the script argument is `-`, or by tailing the
/// script file (polled; a `quit` line ends the session) — printing each
/// edit's slack delta as it lands.  The exit status reflects the final
/// certification, exactly like batch mode.  The deck itself streams from
/// `opts.path` through the chunked SPEF reader.
fn run_watch(script: &str, opts: &Options) -> ExitCode {
    let (mut session, header) = match EcoSession::open(&opts.path, opts, None) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    respond(&header, ExitCode::SUCCESS);

    let mut line_no = 0usize;
    if script == "-" {
        let stdin = std::io::stdin();
        for raw in stdin.lock().lines() {
            let raw = match raw {
                Ok(raw) => raw,
                Err(e) => {
                    eprintln!("error: cannot read standard input: {e}");
                    break;
                }
            };
            line_no += 1;
            if watch_line(&mut session, line_no, &raw) {
                break;
            }
        }
    } else {
        let file = match std::fs::File::open(script) {
            Ok(file) => file,
            Err(e) => {
                eprintln!("error: cannot read `{script}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut reader = std::io::BufReader::new(file);
        let mut buf = String::new();
        // Polls with no new data while a partial line is pending; after two
        // quiet polls the pending text is treated as a complete final line,
        // so a script whose last line (e.g. `quit`) lacks a trailing
        // newline cannot hang the session.  The poll interval rides the
        // server's idle-backoff ramp (1 ms floor, 25 ms cap, reset on new
        // data), so a bursty writer is tailed at the floor and an idle
        // script costs a wake-up per cap interval.
        let mut quiet_polls = 0u32;
        let mut idle = rctree_serve::Backoff::server_default();
        loop {
            match reader.read_line(&mut buf) {
                Err(e) => {
                    eprintln!("error: cannot read `{script}`: {e}");
                    break;
                }
                // No new data yet: poll until the writer appends or quits.
                Ok(0) => {
                    if !buf.is_empty() {
                        quiet_polls += 1;
                        if quiet_polls >= 2 {
                            line_no += 1;
                            let quit = watch_line(
                                &mut session,
                                line_no,
                                buf.trim_end_matches(['\n', '\r']),
                            );
                            buf.clear();
                            quiet_polls = 0;
                            if quit {
                                break;
                            }
                            continue;
                        }
                    }
                    std::thread::sleep(idle.current());
                    idle.backoff();
                }
                Ok(_) => {
                    quiet_polls = 0;
                    idle.reset();
                    if buf.ends_with('\n') {
                        line_no += 1;
                        let quit =
                            watch_line(&mut session, line_no, buf.trim_end_matches(['\n', '\r']));
                        buf.clear();
                        if quit {
                            break;
                        }
                    }
                    // else: a partially written line — keep accumulating.
                }
            }
        }
    }
    emit(&session.footer());
    let status = verdict_exit(Some(session.certification()));
    std::mem::forget(session);
    status
}
