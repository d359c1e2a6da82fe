//! The TCP listener, connection threads, and request dispatch.
//!
//! # Sharding
//!
//! With `--shards N` the served design is partitioned by net range
//! ([`rctree_sta::Design::partition`]): each shard owns its own
//! [`EcoExecutor`] writer, snapshot chain, and revision counter, so
//! independent ECOs on different shards commit and publish concurrently
//! instead of serializing behind one writer lock.  Requests route by net
//! name through a static table built at start-up (the partition never
//! changes while the server runs):
//!
//! * `QUERY` goes to the shard owning its net and answers with that
//!   shard's scalar revision — exactly the single-shard grammar.
//! * `ECO` routes to the single shard owning every known net in the
//!   request; a request spanning two shards is rejected whole (no edit
//!   applies) with an `ERR` naming both shards.  Accepted requests hold
//!   only that shard's writer lock.
//! * `REPORT` / `CERTIFY` / `STATS` compose across all shards and answer
//!   with a revision *vector* (`OK rev <r0,r1,…>`), one revision per
//!   shard, each naming the published snapshot the composition read.
//!
//! With one shard (the default) every path reduces to the pre-sharding
//! single-writer code and the protocol stays byte-identical.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rctree_core::units::Seconds;
use rctree_obs::{Counter, Gauge, Histogram, Obs, ObsConfig, Stability};
use rctree_sta::script::{parse_eco_script_line, ScriptLine};
use rctree_sta::{Design, DesignSnapshot, StaError};

use crate::protocol::{self, Request};
use crate::session::EcoExecutor;
use crate::store::{RenderedReportCache, ServerStats, SnapshotStore};

/// Ceiling of the idle backoff ramp: how long a parked accept/read waits
/// at most before re-checking the shutdown flag (`std::net` has no
/// readiness notification without `unsafe` or an external dependency, so
/// both loops poll — but the interval ramps up from
/// [`DEFAULT_POLL_FLOOR`] only while idle, so a busy connection polls at
/// the floor).
const POLL_CAP: Duration = Duration::from_millis(25);

/// Floor of the server's idle backoff ramp.
pub const DEFAULT_POLL_FLOOR: Duration = Duration::from_millis(1);

/// Longest request line a connection reads, newline included: 1 MiB.  A
/// line that reaches it without a newline, over however many reads, is
/// answered with one `ERR` line and its connection is closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// An exponential idle-backoff ramp between a floor and a cap.
///
/// Polling loops over interfaces without readiness notification (the
/// accept loop, per-connection read timeouts, `rcdelay eco --watch`'s
/// file tail) share one policy: wait the **floor** right after activity,
/// double the wait on every idle round up to the **cap**, and snap back
/// to the floor the moment anything happens.  A busy source is polled at
/// the floor (lowest latency), an idle one costs a wake-up per cap
/// interval (lowest burn).
///
/// [`Backoff::backoff`]/[`Backoff::reset`] report whether the interval
/// changed, so callers that arm timers (e.g. socket read timeouts) only
/// re-arm on change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    floor: Duration,
    cap: Duration,
    current: Duration,
}

impl Backoff {
    /// A ramp from `floor` to `cap`, starting at the floor.  The cap is
    /// raised to at least 1 µs and the floor clamped into `[1 µs, cap]`,
    /// so the ramp always makes progress.
    pub fn new(floor: Duration, cap: Duration) -> Backoff {
        let cap = cap.max(Duration::from_micros(1));
        let floor = floor.clamp(Duration::from_micros(1), cap);
        Backoff {
            floor,
            cap,
            current: floor,
        }
    }

    /// The server's default ramp: [`DEFAULT_POLL_FLOOR`] up to the 25 ms
    /// poll cap.
    pub fn server_default() -> Backoff {
        Backoff::new(DEFAULT_POLL_FLOOR, POLL_CAP)
    }

    /// The current idle interval — what to sleep (or arm a timeout with)
    /// before the next poll.
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Records one idle round: doubles the interval, capped.  Returns
    /// whether the interval changed.
    pub fn backoff(&mut self) -> bool {
        let next = (self.current * 2).min(self.cap);
        let changed = next != self.current;
        self.current = next;
        changed
    }

    /// Records activity: snaps the interval back to the floor.  Returns
    /// whether the interval changed.
    pub fn reset(&mut self) -> bool {
        let changed = self.current != self.floor;
        self.current = self.floor;
        changed
    }
}

/// Analysis parameters of a server instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Switching threshold for every stage delay.
    pub threshold: f64,
    /// Required arrival time (the slack/certification budget).
    pub required_time: Seconds,
    /// Worker threads for the initial analysis and ECO re-timing.
    pub jobs: usize,
    /// Writer shards the design is partitioned into (clamped to the
    /// design's connected-component count; 0 and 1 both mean unsharded).
    pub shards: usize,
    /// Slow-request log threshold in microseconds (`--slow-us`): requests
    /// whose handling exceeds it are logged to stderr.  `None` disables
    /// the log.
    pub slow_us: Option<u64>,
}

impl ServeConfig {
    /// An unsharded config with no slow log.
    pub fn new(threshold: f64, required_time: Seconds, jobs: usize) -> ServeConfig {
        ServeConfig {
            threshold,
            required_time,
            jobs,
            shards: 1,
            slow_us: None,
        }
    }
}

/// Errors starting a server.
#[derive(Debug)]
pub enum ServeError {
    /// The baseline analysis of the design failed.
    Sta(StaError),
    /// Binding or configuring the listener failed.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Sta(e) => write!(f, "baseline analysis failed: {e}"),
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StaError> for ServeError {
    fn from(e: StaError) -> Self {
        ServeError::Sta(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One writer shard: its snapshot store, its serialized `EcoExecutor`,
/// and its slice of the audit log and counters (registry handles under
/// `rctree_shard_*{shard="<s>"}`).
#[derive(Debug)]
struct Shard {
    store: SnapshotStore,
    writer: Mutex<EcoExecutor>,
    /// Accepted directives in this shard's commit order, one
    /// newline-terminated summary each — the audit log the per-shard
    /// serial-oracle equivalence tests replay.
    eco_log: Mutex<String>,
    applied: Arc<Counter>,
    skipped: Arc<Counter>,
    report_cache_hits: Arc<Counter>,
}

/// Per-verb registry handles: request count, response bytes, and the
/// (volatile) handling-duration histogram.
#[derive(Debug)]
struct VerbStats {
    requests: Arc<Counter>,
    bytes: Arc<Counter>,
    duration_us: Arc<Histogram>,
}

/// Design-shape gauges refreshed at every `METRICS` scrape (size probes,
/// exactly what `STATS` reads — not continuously maintained).
#[derive(Debug)]
struct GaugeSet {
    nets: Arc<Gauge>,
    instances: Arc<Gauge>,
    endpoints: Arc<Gauge>,
    corners: Arc<Gauge>,
    shard_revision: Vec<Arc<Gauge>>,
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
struct Shared {
    shards: Vec<Shard>,
    /// Net name → owning shard.  Empty when unsharded (everything is
    /// shard 0).
    router: HashMap<String, usize>,
    reports: RenderedReportCache,
    stats: ServerStats,
    verbs: HashMap<&'static str, VerbStats>,
    gauges: GaugeSet,
    obs: Arc<Obs>,
    shutdown: AtomicBool,
    slow_us: Option<u64>,
}

/// A running timing server.
///
/// Dropping the handle does **not** stop the server; call
/// [`Server::shutdown`] (or have a client send `SHUTDOWN`) and then
/// [`Server::join`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Partitions the design into writer shards, warms each shard,
    /// publishes the baseline snapshots (revision 0 per shard), binds
    /// the listener, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Sta`] if partitioning or a baseline analysis fails;
    /// * [`ServeError::Io`] if the listener cannot be bound.
    pub fn start(
        design: Design,
        config: &ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> Result<Server, ServeError> {
        let designs = if config.shards <= 1 {
            vec![design]
        } else {
            design.partition(config.shards)?
        };
        let obs = Obs::new(ObsConfig::default());
        let mut shards = Vec::with_capacity(designs.len());
        {
            // Enter the runtime for the warm-up so the baseline
            // `sta.net_build` / `sta.propagate_full` spans land in the ring.
            let _warm = obs.enter();
            for (s, design) in designs.into_iter().enumerate() {
                let executor =
                    EcoExecutor::new(design, config.threshold, config.required_time, config.jobs)?;
                let store = SnapshotStore::new(executor.snapshot());
                let label = s.to_string();
                let registry = obs.registry();
                shards.push(Shard {
                    store,
                    writer: Mutex::new(executor),
                    eco_log: Mutex::new(String::new()),
                    applied: registry.counter(
                        "rctree_shard_eco_applied_total",
                        Stability::Stable,
                        &[("shard", &label)],
                    ),
                    skipped: registry.counter(
                        "rctree_shard_eco_skipped_total",
                        Stability::Stable,
                        &[("shard", &label)],
                    ),
                    report_cache_hits: registry.counter(
                        "rctree_shard_report_cache_hits_total",
                        Stability::Stable,
                        &[("shard", &label)],
                    ),
                });
            }
        }
        let mut router = HashMap::new();
        if shards.len() > 1 {
            for (s, shard) in shards.iter().enumerate() {
                let (snapshot, _) = shard.store.load();
                for name in snapshot.net_names() {
                    router.insert(name.to_string(), s);
                }
            }
        }
        let registry = obs.registry();
        let stats = ServerStats::new(registry);
        let mut verbs = HashMap::new();
        for verb in protocol::VERBS {
            verbs.insert(
                verb,
                VerbStats {
                    requests: registry.counter(
                        "rctree_requests_verb_total",
                        Stability::Stable,
                        &[("verb", verb)],
                    ),
                    bytes: registry.counter(
                        "rctree_response_bytes_total",
                        Stability::Stable,
                        &[("verb", verb)],
                    ),
                    duration_us: registry.histogram(
                        "rctree_request_duration_us",
                        Stability::Volatile,
                        &[("verb", verb)],
                    ),
                },
            );
        }
        let gauges = GaugeSet {
            nets: registry.gauge("rctree_nets", Stability::Stable, &[]),
            instances: registry.gauge("rctree_instances", Stability::Stable, &[]),
            endpoints: registry.gauge("rctree_endpoints", Stability::Stable, &[]),
            corners: registry.gauge("rctree_corners", Stability::Stable, &[]),
            shard_revision: (0..shards.len())
                .map(|s| {
                    registry.gauge(
                        "rctree_shard_revision",
                        Stability::Stable,
                        &[("shard", &s.to_string())],
                    )
                })
                .collect(),
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shards,
            router,
            reports: RenderedReportCache::default(),
            stats,
            verbs,
            gauges,
            obs,
            shutdown: AtomicBool::new(false),
            slow_us: config.slow_us,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability runtime — the registry `METRICS`
    /// exposes and the span ring `TRACE` reads.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// Number of writer shards actually serving (after clamping to the
    /// design's connected-component count).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Total committed revisions across all shards (the scalar revision
    /// when unsharded).
    pub fn revision(&self) -> u64 {
        self.revisions().iter().sum()
    }

    /// The per-shard revision vector.
    pub fn revisions(&self) -> Vec<u64> {
        self.shared
            .shards
            .iter()
            .map(|s| s.store.load().1)
            .collect()
    }

    /// Number of nets in the served design (summed across shards).
    pub fn net_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.store.load().0.net_count())
            .sum()
    }

    /// The accepted-directive log in commit order — per shard, joined in
    /// shard order (each shard's internal order is its commit order; the
    /// cross-shard interleaving is not serialized).
    pub fn eco_log(&self) -> Vec<String> {
        self.eco_logs().into_iter().flatten().collect()
    }

    /// Per-shard accepted-directive logs, each in that shard's commit
    /// order.
    pub fn eco_logs(&self) -> Vec<Vec<String>> {
        self.shared
            .shards
            .iter()
            .map(|s| {
                // Undoes exactly the '\n' each summary is written with;
                // `lines` would also drop a '\r' before it.
                let log = lock(&s.eco_log);
                log.split_terminator('\n').map(str::to_string).collect()
            })
            .collect()
    }

    /// Requests shutdown: the listener stops accepting and every
    /// connection closes after its in-flight request.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop and every connection thread exit
    /// (after [`Server::shutdown`] or a client `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Accepts connections until shutdown, then joins every handler.
///
/// The idle sleep ramps exponentially from [`DEFAULT_POLL_FLOOR`] up to
/// [`POLL_CAP`] and resets on every accepted connection, so a busy
/// listener reacts at the floor and an idle one costs one wake-up per
/// 25 ms.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut idle = Backoff::server_default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                idle.reset();
                shared.stats.connections.bump();
                let shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, shared)
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle.current());
                idle.backoff();
            }
            Err(_) => break,
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// What to do after responding to one request.
enum After {
    Continue,
    Close,
}

/// One connection: read request lines, write response blocks, until EOF,
/// `QUIT`, `SHUTDOWN`, or server shutdown.
///
/// The read timeout ramps exponentially from [`DEFAULT_POLL_FLOOR`] up to
/// [`POLL_CAP`] while the connection is idle and resets to the floor on
/// every received line, so a request that lands just after a timeout
/// waits ≈the floor instead of a full fixed poll — this is what collapses
/// the served p99 from the old fixed 25 ms poll.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // Enter the server's observability runtime for the lifetime of this
    // connection thread: request spans and the sta/netlist phase spans
    // they enclose report into the server's registry and span ring.
    let _obs = shared.obs.enter();
    let mut idle = Backoff::server_default();
    // Reads poll so a parked connection notices server shutdown.
    let _ = stream.set_read_timeout(Some(idle.current()));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut buf = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Read at most what is left under the cap, so a client streaming
        // without a newline cannot grow `buf` past it; a partial line kept
        // across read timeouts counts towards the same cap.
        let room = MAX_REQUEST_LINE.saturating_sub(buf.len()) as u64;
        match (&mut reader).take(room).read_line(&mut buf) {
            // EOF.  A read timeout may have parked a partial request in
            // `buf` (appended without its newline before the client
            // closed); serve it before closing, exactly as the
            // `at_eof` branch below does when EOF and data arrive in one
            // read.
            Ok(0) => {
                if !buf.is_empty() {
                    let line = buf.trim_end_matches(['\r', '\n']).to_string();
                    buf.clear();
                    let _ = respond(&line, &shared, &mut writer);
                }
                break;
            }
            Ok(_) => {
                if idle.reset() {
                    let _ = reader.get_ref().set_read_timeout(Some(idle.current()));
                }
                if buf.len() >= MAX_REQUEST_LINE && !buf.ends_with('\n') {
                    shared.stats.protocol_errors.bump();
                    let message =
                        format!("bad request: request line exceeds {MAX_REQUEST_LINE} bytes");
                    let _ = writeln!(writer, "{}", error_line(&shared, &message))
                        .and_then(|()| writer.flush());
                    break;
                }
                // `read_line` without a trailing newline means EOF cut the
                // final line; serve it, then close.
                let at_eof = !buf.ends_with('\n');
                let line = buf.trim_end_matches(['\r', '\n']).to_string();
                buf.clear();
                match respond(&line, &shared, &mut writer) {
                    Ok(After::Continue) if !at_eof => {}
                    _ => break,
                }
            }
            // Timeout while idle (or mid-line: partial data stays in `buf`
            // and the next round continues it).
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle.backoff() {
                    let _ = reader.get_ref().set_read_timeout(Some(idle.current()));
                }
            }
            Err(_) => break,
        }
    }
}

/// A response block: owned lines, or a shared byte payload out of the
/// rendered-report cache, newlines included.
enum Block {
    Owned(Vec<String>),
    Payload(Arc<Vec<u8>>),
}

impl Block {
    /// Writes the block; returns the bytes written.
    fn write(&self, out: &mut impl Write) -> io::Result<u64> {
        match self {
            Block::Owned(lines) => {
                let mut bytes = 0;
                for line in lines {
                    writeln!(out, "{line}")?;
                    bytes += line.len() as u64 + 1;
                }
                Ok(bytes)
            }
            Block::Payload(payload) => {
                out.write_all(payload)?;
                Ok(payload.len() as u64)
            }
        }
    }
}

/// Where an `ECO` request goes.
enum EcoRoute {
    /// Every known net belongs to this shard (requests naming no known
    /// net fall through to shard 0, whose executor re-derives the exact
    /// parse-error / skip response).
    Shard(usize),
    /// Known nets on two different shards: reject the request whole.
    Reject(usize, usize),
}

/// Routes an `ECO` request line by the nets its edits name.  The script
/// is parsed here only for routing; the owning shard's executor re-parses
/// and renders, so malformed scripts produce the executor's own error
/// text (against shard 0).
fn route_eco(shared: &Shared, script: &str) -> EcoRoute {
    let edits = match parse_eco_script_line(1, script) {
        Ok(ScriptLine::Edits(edits)) => edits,
        // Parse errors, blank scripts, and `quit` go to shard 0.
        _ => return EcoRoute::Shard(0),
    };
    let mut target: Option<usize> = None;
    for se in &edits {
        let Some(&shard) = shared.router.get(&se.edit.net) else {
            continue;
        };
        match target {
            None => target = Some(shard),
            Some(t) if t != shard => return EcoRoute::Reject(t.min(shard), t.max(shard)),
            Some(_) => {}
        }
    }
    EcoRoute::Shard(target.unwrap_or(0))
}

/// The shard owning `net` (shard 0 for unknown nets, which every shard
/// rejects identically).
fn route_net(shared: &Shared, net: &str) -> usize {
    shared.router.get(net).copied().unwrap_or(0)
}

/// Loads one consistent `(snapshot, revision)` pair per shard.  Each
/// pair is internally consistent; the vector as a whole names exactly
/// which published shard states a composed response read.
fn load_all(shared: &Shared) -> (Vec<Arc<DesignSnapshot>>, Vec<u64>) {
    let mut snapshots = Vec::with_capacity(shared.shards.len());
    let mut revs = Vec::with_capacity(shared.shards.len());
    for shard in &shared.shards {
        let (snapshot, rev) = shard.store.load();
        snapshots.push(snapshot);
        revs.push(rev);
    }
    (snapshots, revs)
}

/// Runs one `ECO` request on shard `s`: serializes on that shard's
/// writer lock only, publishes into that shard's store, and logs into
/// that shard's audit log.
fn exec_eco_on(shared: &Shared, s: usize, script: &str) -> Vec<String> {
    let shard = &shared.shards[s];
    let mut executor = lock(&shard.writer);
    let (lines, counts) = executor.exec_eco(
        script,
        &mut |snapshot, rev| shard.store.publish(Arc::clone(snapshot), rev),
        &mut |summary| {
            let mut log = lock(&shard.eco_log);
            log.push_str(summary);
            log.push('\n');
        },
    );
    // Only the per-shard counters are written; the `STATS` globals are
    // derived by summing them at render time, so they cannot drift.
    shard.applied.add(counts.applied);
    shard.skipped.add(counts.skipped);
    lines
}

/// The wire verb of a parsed request, for per-verb counters and span
/// attributes.  `METRICS`/`TRACE` never reach this: they are intercepted
/// before the counted path.
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Query { .. } => "QUERY",
        Request::Report { .. } => "REPORT",
        Request::Certify { .. } => "CERTIFY",
        Request::Stats => "STATS",
        Request::Eco { .. } => "ECO",
        Request::Quit => "QUIT",
        Request::Shutdown => "SHUTDOWN",
        Request::Metrics { .. } => "METRICS",
        Request::Trace { .. } => "TRACE",
    }
}

/// Parses one request line, serves it, writes the response block.
///
/// `METRICS` and `TRACE` are **self-excluding**: they are answered before
/// any counter moves or span opens, so a quiesced server answers repeated
/// scrapes byte-identically.  (`STATS` keeps counting itself, as it
/// always has.)  Every other parsed request bumps `rctree_requests_total`
/// and its per-verb counter, runs under a `serve.request` span, and
/// records its response bytes and handling duration after the flush.
fn respond(line: &str, shared: &Shared, out: &mut impl Write) -> io::Result<After> {
    let mut after = After::Continue;
    let parsed = match protocol::parse_request(line) {
        Ok(Some(Request::Metrics { stable })) => {
            for line in render_metrics(shared, stable) {
                writeln!(out, "{line}")?;
            }
            out.flush()?;
            return Ok(After::Continue);
        }
        Ok(Some(Request::Trace { n })) => {
            for line in render_trace(shared, n) {
                writeln!(out, "{line}")?;
            }
            out.flush()?;
            return Ok(After::Continue);
        }
        other => other,
    };
    let started = Instant::now();
    let mut verb: Option<&'static str> = None;
    let mut span = rctree_obs::Span::disabled();
    let block = match parsed {
        // Blank lines get no response at all.
        Ok(None) => return Ok(After::Continue),
        Err(message) => {
            shared.stats.protocol_errors.bump();
            Block::Owned(vec![error_line(shared, &format!("bad request: {message}"))])
        }
        Ok(Some(request)) => {
            shared.stats.requests.bump();
            let v = verb_of(&request);
            verb = Some(v);
            span = rctree_obs::span("serve.request");
            span.attr_str("verb", v);
            match request {
                Request::Query {
                    net,
                    node,
                    corner,
                    sens,
                } => {
                    let s = route_net(shared, &net);
                    let shard = &shared.shards[s];
                    let (snapshot, rev) = shard.store.load();
                    span.attr_u64("shard", s as u64);
                    span.attr_u64("rev", rev);
                    Block::Owned(protocol::render_query(
                        &snapshot,
                        rev,
                        &net,
                        node.as_deref(),
                        corner.as_deref(),
                        sens,
                    ))
                }
                Request::Report { corner } => {
                    let (snapshots, revs) = load_all(shared);
                    if span.is_live() {
                        span.attr_str("rev", protocol::rev_csv(&revs));
                    }
                    let (payload, hit) = shared.reports.rendered(&revs, corner.as_deref(), || {
                        protocol::report_block_composed(&snapshots, &revs, corner.as_deref())
                    });
                    if hit {
                        shared.stats.report_cache_hits.bump();
                        for shard in &shared.shards {
                            shard.report_cache_hits.bump();
                        }
                    }
                    span.attr_u64("cache_hit", u64::from(hit));
                    Block::Payload(payload)
                }
                Request::Certify { budget, over } => {
                    let (snapshots, revs) = load_all(shared);
                    if span.is_live() {
                        span.attr_str("rev", protocol::rev_csv(&revs));
                    }
                    Block::Owned(match over {
                        Some(over) => {
                            protocol::render_certify_over_composed(&snapshots, &revs, budget, &over)
                        }
                        None => protocol::render_certify_composed(&snapshots, &revs, budget),
                    })
                }
                Request::Stats => Block::Owned(render_stats(shared)),
                Request::Quit => {
                    after = After::Close;
                    Block::Owned(vec![final_ok(shared)])
                }
                Request::Shutdown => {
                    after = After::Close;
                    shared.shutdown.store(true, Ordering::SeqCst);
                    Block::Owned(vec![final_ok(shared)])
                }
                Request::Eco { script } => match route_eco(shared, &script) {
                    EcoRoute::Shard(s) => {
                        span.attr_u64("shard", s as u64);
                        Block::Owned(exec_eco_on(shared, s, &script))
                    }
                    EcoRoute::Reject(a, b) => {
                        let (_, revs) = load_all(shared);
                        Block::Owned(vec![protocol::err_revs(
                            &revs,
                            &format!("ECO spans shards {a} and {b}; split the request"),
                        )])
                    }
                },
                Request::Metrics { .. } | Request::Trace { .. } => {
                    unreachable!("intercepted before the counted path")
                }
            }
        }
    };
    let mut write_span = match verb {
        Some(_) => rctree_obs::span("serve.write"),
        None => rctree_obs::Span::disabled(),
    };
    let bytes = block.write(out)?;
    out.flush()?;
    // The handling time ends with the flush; recording the spans is not
    // part of it.
    let dur_us = started.elapsed().as_micros() as u64;
    write_span.attr_u64("bytes", bytes);
    drop(write_span);
    if let Some(verb) = verb {
        span.attr_u64("bytes", bytes);
        drop(span);
        if let Some(vs) = shared.verbs.get(verb) {
            vs.requests.bump();
            vs.bytes.add(bytes);
            vs.duration_us.record(dur_us);
        }
        if let Some(threshold) = shared.slow_us {
            if dur_us > threshold {
                eprintln!("rctree-serve: slow request verb={verb} us={dur_us} line={line}");
            }
        }
    }
    Ok(after)
}

/// A request-level `ERR rev …` line over the revision vector (one
/// revision when unsharded, so the line is the scalar one).
fn error_line(shared: &Shared, message: &str) -> String {
    let (_, revs) = load_all(shared);
    protocol::err_revs(&revs, message)
}

/// The bare `OK rev …` line of `QUIT`/`SHUTDOWN`, `METRICS` and `TRACE`
/// over the revision vector (one revision when unsharded).
fn final_ok(shared: &Shared) -> String {
    let (_, revs) = load_all(shared);
    protocol::ok_revs(&revs)
}

/// The `STATS` response block.
///
/// Every value is read from the published snapshots and the registry, so
/// rendering takes no writer lock; like every counter here the values are
/// *not* part of the deterministic response surface.  The sharded fields
/// (`shards`, `routing_table`, `shard_revs`, `shard_applied`,
/// `shard_skipped`, `shard_report_cache_hits`) follow the unsharded
/// ones.
fn render_stats(shared: &Shared) -> Vec<String> {
    let (snapshots, revs) = load_all(shared);
    let mut nets = 0;
    let mut instances = 0;
    let mut endpoints = 0;
    for snapshot in &snapshots {
        nets += snapshot.net_count();
        instances += snapshot.instance_count();
        endpoints += snapshot.report().endpoints.len();
    }
    let csv = |get: &dyn Fn(&Shard) -> u64| {
        shared
            .shards
            .iter()
            .map(|s| get(s).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    // The eco globals are sums over the per-shard registry counters —
    // derived, not separately maintained, so `STATS` and `METRICS` agree
    // by construction.
    let eco_applied: u64 = shared.shards.iter().map(|s| s.applied.get()).sum();
    let eco_skipped: u64 = shared.shards.iter().map(|s| s.skipped.get()).sum();
    let final_line = format!(
        "{}{}",
        protocol::ok_revs(&revs),
        protocol::corner_tail(&snapshots[0])
    );
    vec![
        format!(
            "stats nets {} instances {} endpoints {} revision {} corners {} connections {} \
             requests {} queries {} eco_applied {} eco_skipped {} report_cache_hits {} shards {} \
             routing_table {} shard_revs {} shard_applied {} shard_skipped {} \
             shard_report_cache_hits {}",
            nets,
            instances,
            endpoints,
            protocol::rev_csv(&revs),
            snapshots[0].corner_count(),
            shared.stats.connections.get(),
            shared.stats.requests.get(),
            shared.stats.queries.get(),
            eco_applied,
            eco_skipped,
            shared.stats.report_cache_hits.get(),
            shared.shards.len(),
            shared.router.len(),
            protocol::rev_csv(&revs),
            csv(&|s| s.applied.get()),
            csv(&|s| s.skipped.get()),
            csv(&|s| s.report_cache_hits.get()),
        ),
        final_line,
    ]
}

/// The `METRICS [stable]` response block: the design-shape gauges are
/// refreshed from the published snapshots (the same size probe `STATS`
/// does), then the whole registry is rendered.  Nothing in here moves a
/// counter or opens a span, so a quiesced server answers repeated
/// scrapes byte-identically; with `stable` the volatile (wall-clock)
/// families are skipped and the text is additionally byte-identical
/// across `RCTREE_JOBS` for the same request history.
fn render_metrics(shared: &Shared, stable_only: bool) -> Vec<String> {
    let (snapshots, revs) = load_all(shared);
    let mut nets = 0i64;
    let mut instances = 0i64;
    let mut endpoints = 0i64;
    for snapshot in &snapshots {
        nets += snapshot.net_count() as i64;
        instances += snapshot.instance_count() as i64;
        endpoints += snapshot.report().endpoints.len() as i64;
    }
    shared.gauges.nets.set(nets);
    shared.gauges.instances.set(instances);
    shared.gauges.endpoints.set(endpoints);
    shared
        .gauges
        .corners
        .set(snapshots[0].corner_count() as i64);
    for (gauge, rev) in shared.gauges.shard_revision.iter().zip(&revs) {
        gauge.set(*rev as i64);
    }
    let text = shared.obs.registry().expose(stable_only);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.push(final_ok(shared));
    lines
}

/// The `TRACE <n>` response block: the most recent `n` finished spans,
/// oldest first, one `span …` line each.  Like `METRICS`, serving it
/// moves no counters and opens no span.
fn render_trace(shared: &Shared, n: usize) -> Vec<String> {
    let mut lines: Vec<String> = shared
        .obs
        .ring()
        .recent(n)
        .iter()
        .map(|r| r.render())
        .collect();
    lines.push(final_ok(shared));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_ramps_doubling_to_the_cap_and_resets_to_the_floor() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(25));
        assert_eq!(b.current(), Duration::from_millis(1));
        let ramp: Vec<u64> =
            std::iter::from_fn(|| b.backoff().then(|| b.current().as_millis() as u64)).collect();
        assert_eq!(ramp, vec![2, 4, 8, 16, 25]);
        // Saturated: further idle rounds change nothing.
        assert!(!b.backoff());
        assert_eq!(b.current(), Duration::from_millis(25));
        // Activity snaps back to the floor, once.
        assert!(b.reset());
        assert_eq!(b.current(), Duration::from_millis(1));
        assert!(!b.reset());
    }

    #[test]
    fn backoff_clamps_degenerate_ranges() {
        // Floor above the cap collapses to the cap.
        let mut b = Backoff::new(Duration::from_millis(50), Duration::from_millis(25));
        assert_eq!(b.current(), Duration::from_millis(25));
        assert!(!b.backoff());
        // Zero floor is raised so the ramp makes progress.
        let mut b = Backoff::new(Duration::ZERO, Duration::from_millis(25));
        assert_eq!(b.current(), Duration::from_micros(1));
        assert!(b.backoff());
        assert_eq!(b.current(), Duration::from_micros(2));
        assert_eq!(Backoff::server_default().current(), DEFAULT_POLL_FLOOR);
    }
}
