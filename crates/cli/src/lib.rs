//! # rctree-cli
//!
//! The `rcdelay` command-line tool: Penfield–Rubinstein delay-bound analysis
//! for RC-tree netlists from the shell.
//!
//! ```text
//! rcdelay [OPTIONS] <netlist-file>
//! rcdelay eco [OPTIONS] --budget <seconds> <deck.spef> <edit-script>
//! rcdelay report --budget <seconds> <deck.spef>...
//! rcdelay serve --budget <seconds> [--port N] <deck.spef>...
//! rcdelay bench-client [OPTIONS] <host:port> <deck.spef>
//! rcdelay gen-deck [--nets N] [--seed N]
//!
//!   --format <spice|spef|expr>   input format          (default: spice; eco: spef)
//!   --net <name>                 SPEF net to analyse   (default: first net)
//!   --threshold <v>              switching threshold   (default: 0.5)
//!   --budget <seconds>           certify against a delay budget
//!   --voltage-at <seconds>       also report voltage bounds at this time
//!   --jobs <n>                   worker threads        (default: available parallelism)
//!   --driver <cell>              eco mode driver cell  (default: inv_4x)
//!   --watch                      eco mode: stream the script line by line
//!   --corners <spec>             report/serve/eco: multi-corner PVT set
//!   --corner <k|name|worst>      report mode: select the printed corner
//!   --help                       print usage
//! ```
//!
//! `rcdelay report` prints the deck-level design timing report —
//! byte-identical to the `REPORT` payload of a server on the same decks;
//! `rcdelay serve` starts the `rctree-serve` timing/ECO server and
//! `rcdelay bench-client` load-tests one (emitting
//! `target/BENCH_serve.json`); `rcdelay gen-deck` prints a reproducible
//! multi-net SPEF deck for smoke tests.
//!
//! `rcdelay eco` turns the deck into a per-net timing design, applies an
//! edit script one edit at a time through the incremental ECO engine, and
//! prints the slack delta after every edit.  Several directives may share
//! a line separated by `;` — errors then report the 1-based edit index
//! within the line next to the line number.  The process exits nonzero
//! when the final certification fails or when the script references an
//! unknown net or node (reported with the offending token and location).
//!
//! # Watch mode
//!
//! With `--watch` the script is consumed **line by line** instead of up
//! front — from standard input when the script argument is `-`, or by
//! tailing the script file (polled every 40 ms) otherwise — and each
//! edit's slack delta is printed (and flushed) as it lands.  That turns
//! the command into a sizing-loop server: a synthesis or optimisation
//! process pipes one edit batch per line and reads one slack line back
//! per edit.  Failing edits are reported on stderr and *skipped* (the
//! incremental engine is transactional, so the session state stays
//! valid); a `quit` line — or end of input — ends the session, and the
//! exit status reflects the final certification exactly like batch mode.
//!
//! The library half of the crate (this module) contains the argument parser
//! and the report generation so that both are unit-testable without spawning
//! a process; `main.rs` is a thin wrapper that reads the file and prints the
//! report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;

use rctree_core::analysis::TreeAnalysis;
use rctree_core::cert::Certification;
use rctree_core::corner::CornerSet;
use rctree_core::tree::RcTree;
use rctree_core::units::Seconds;
use rctree_netlist::{parse_expr, parse_spef_deck, parse_spef_read, parse_spice, SpefNet};
use rctree_sta::{CellLibrary, CornerAnalysis, Design, TimingReport};
pub use rctree_sta::{ScriptEdit, ScriptLine};

/// Input netlist formats understood by the tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// SPICE-subset deck (R/C/U cards).
    Spice,
    /// SPEF-lite parasitic file.
    Spef,
    /// The paper's `URC`/`WB`/`WC` wiring-algebra expression.
    Expr,
}

/// The tool's operating mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One-shot delay-bound report of a single tree (the default).
    Report,
    /// Incremental ECO session: apply an edit script to a SPEF deck and
    /// print per-edit slack deltas.
    Eco {
        /// Path of the edit-script file (`-` for standard input).
        script: String,
        /// Driver cell prepended to every extracted net.
        driver: String,
        /// Stream the script line by line (stdin or a file tail), printing
        /// each edit's slack delta as it lands, instead of reading the
        /// whole script up front.
        watch: bool,
    },
    /// Deck-level design report (`rcdelay report`): every net of one or
    /// more SPEF decks as a timed stage, the full arrival-propagated
    /// timing report printed — byte-identical to the payload of the
    /// server's `REPORT` verb on the same decks.
    DeckReport {
        /// SPEF deck paths (`-` for standard input).
        decks: Vec<String>,
        /// Driver cell prepended to every extracted net.
        driver: String,
    },
    /// Continuum certification over a box of global wire scales
    /// (`rcdelay certify-over`): one symbolic polynomial analysis
    /// certifies every `(r_scale, c_scale)` in the box and prints the
    /// exact worst point — byte-identical to the payload of the server's
    /// `CERTIFY --over` verb on the same decks.
    CertifyOver {
        /// SPEF deck paths (`-` for standard input).
        decks: Vec<String>,
        /// Driver cell prepended to every extracted net.
        driver: String,
        /// `r_scale` range (`--over-r`).
        over_r: (f64, f64),
        /// `c_scale` range (`--over-c`; nominal `(1, 1)` when omitted).
        over_c: (f64, f64),
    },
    /// Long-running timing server (`rcdelay serve`): load the decks into
    /// a shared design and serve the `rctree-serve` wire protocol.
    Serve {
        /// SPEF deck paths.
        decks: Vec<String>,
        /// Driver cell prepended to every extracted net.
        driver: String,
        /// TCP port to bind on 127.0.0.1 (0 picks an ephemeral port,
        /// printed on startup).
        port: u16,
        /// Writer shards the design is partitioned into (1 = the
        /// unsharded single-writer protocol).
        shards: usize,
        /// Idle-poll backoff floor in microseconds (`None` = the server
        /// default).
        poll_us: Option<u64>,
        /// Slow-request log threshold in microseconds (`--slow-us`;
        /// `None` disables the stderr slow log).
        slow_us: Option<u64>,
    },
    /// Per-phase pipeline profile (`rcdelay profile`): run the deck
    /// pipeline (ingest, net build, baseline analysis) under the
    /// observability runtime and print the per-phase duration breakdown.
    Profile {
        /// SPEF deck paths (`-` for standard input).
        decks: Vec<String>,
        /// Driver cell prepended to every extracted net.
        driver: String,
        /// Emit the machine-readable JSON document instead of the table.
        json: bool,
    },
    /// Scrape and validate a running server's `METRICS` exposition
    /// (`rcdelay scrape`): every line must parse, the required series must
    /// be present; optionally diff against a previous scrape for counter
    /// monotonicity.
    Scrape {
        /// Server address (`host:port`, as printed by `rcdelay serve`).
        addr: String,
        /// Scrape only the deterministic subset (`METRICS stable`).
        stable: bool,
        /// Write the scraped text here (`None`: stdout).
        out: Option<String>,
        /// Path of a previous scrape to check counter monotonicity
        /// against.
        prev: Option<String>,
    },
    /// Load generator (`rcdelay bench-client`): drive a running server
    /// with a seeded request mix and emit `BENCH_serve.json`.
    BenchClient {
        /// Server address (`host:port`, as printed by `rcdelay serve`).
        addr: String,
        /// The deck the server was started with (source of net/node names
        /// for the request mix).
        deck: String,
        /// Concurrent connections.
        connections: usize,
        /// Requests per connection.
        requests: usize,
        /// Mix seed.
        seed: u64,
        /// Fraction of requests that are ECO edits (0.0 = read-only).
        eco_fraction: f64,
        /// Writer shards of the target server (>1 switches to the
        /// shard-crossing mix so every connection hops shards).
        shards: usize,
        /// Output path of the JSON summary.
        out: String,
        /// Send `SHUTDOWN` to the server after the run.
        shutdown: bool,
    },
    /// Deterministic SPEF deck generator (`rcdelay gen-deck`), printed to
    /// standard output.
    GenDeck {
        /// Number of `*D_NET` sections.
        nets: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Operating mode (`rcdelay` vs `rcdelay eco`).
    pub command: Command,
    /// Path of the netlist file (`-` for standard input).
    pub path: String,
    /// Input format.
    pub format: InputFormat,
    /// SPEF net name to analyse (first net when `None`).
    pub net: Option<String>,
    /// Switching threshold as a fraction of the swing.
    pub threshold: f64,
    /// Optional delay budget for certification, in seconds.
    pub budget: Option<f64>,
    /// Optional time at which to report voltage bounds, in seconds.
    pub voltage_at: Option<f64>,
    /// Worker threads for deck-scale work (`None`: `RCTREE_JOBS` or the
    /// available hardware parallelism, per [`rctree_par::default_jobs`]).
    pub jobs: Option<usize>,
    /// Multi-corner spec for the deck modes (`--corners`): a spec file
    /// path, or an inline spec when the value contains `=` (the
    /// `CornerSet::parse` grammar; separate inline lines with `;`).
    pub corners: Option<String>,
    /// Corner selector for `rcdelay report` (`--corner`): a lane index, a
    /// corner name, or `worst`.
    pub corner: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: Command::Report,
            path: String::new(),
            format: InputFormat::Spice,
            net: None,
            threshold: 0.5,
            budget: None,
            voltage_at: None,
            jobs: None,
            corners: None,
            corner: None,
        }
    }
}

/// Usage text printed for `--help` and argument errors.
pub const USAGE: &str = "\
rcdelay: Penfield-Rubinstein delay bounds for RC tree netlists

usage: rcdelay [OPTIONS] <netlist-file>
       rcdelay eco [OPTIONS] --budget <seconds> <deck.spef> <edit-script>
       rcdelay report --budget <seconds> <deck.spef>...
       rcdelay certify-over --budget <seconds> --over-r <lo..hi>
                            [--over-c <lo..hi>] <deck.spef>...
       rcdelay serve --budget <seconds> [--port <n>] [--shards <n>] <deck.spef>...
       rcdelay bench-client [OPTIONS] <host:port> <deck.spef>
       rcdelay profile --budget <seconds> [--json] <deck.spef>...
       rcdelay scrape [--stable] [--prev <file>] [--out <file>] <host:port>
       rcdelay gen-deck [--nets <n>] [--seed <n>]

`report` prints the deck-level design timing report (byte-identical to the
server's REPORT payload on the same decks); `certify-over` certifies the
budget over a whole continuum box of wire scales through the symbolic
polynomial lane and prints the exact worst point (byte-identical to the
server's `CERTIFY --over` payload); `serve` starts the rctree-serve
timing/ECO server (see crates/serve/README.md for the wire protocol);
`bench-client` drives a running server with a seeded request mix and writes
queries/s + latency percentiles (plus server-side METRICS counter deltas)
to target/BENCH_serve.json; `profile` runs the full deck pipeline under the
observability runtime and prints a per-phase time breakdown; `scrape`
fetches a running server's METRICS exposition, checks it is well-formed,
and optionally diffs it against a previous scrape; `gen-deck` prints a
reproducible multi-net SPEF deck.

options:
  --format <spice|spef|expr>   input format (default: spice; eco mode: spef)
  --net <name>                 SPEF net to analyse (default: first)
  --threshold <v>              switching threshold in (0,1) (default: 0.5)
  --budget <seconds>           certify every output against this budget
                               (required in eco mode; exit status 1 on a
                               failing certification, 2 on indeterminate)
  --voltage-at <seconds>       also report voltage bounds at this time
  --jobs <n>                   worker threads for deck parsing and design
                               analysis (default: RCTREE_JOBS, else
                               available parallelism)
  --driver <cell>              eco mode: driver cell for every extracted
                               net (default: inv_4x)
  --watch                      eco mode: stream the edit script line by
                               line (stdin when <edit-script> is `-`, a
                               polled file tail otherwise), printing each
                               edit's slack delta immediately; bad edits
                               are reported and skipped instead of ending
                               the session
  --corners <spec>             report/serve/eco: install a multi-corner
                               PVT set — a spec file path, or an inline
                               spec when the value contains `=` (lines
                               `<name>=<r>,<c>[,<d>]` and
                               `override <net> <corner> <r> <c>`,
                               `;`-separated inline); each corner is
                               one more lane of element values, timed
                               by the same sweep as nominal
  --corner <k|name|worst>      report mode: print this corner's report
                               instead of nominal (`worst` picks the
                               smallest-slack corner against --budget);
                               byte-identical to the server's
                               `REPORT --corner` payload
  --over-r <lo..hi>            certify-over: the r_scale range of the
                               certification box (both ends positive and
                               finite, lo <= hi; required)
  --over-c <lo..hi>            certify-over: the c_scale range of the box
                               (default 1..1, the nominal c line)
  --port <n>                   serve mode: TCP port on 127.0.0.1
                               (default 0 = ephemeral, printed on start)
  --shards <n>                 serve: partition the design into n writer
                               shards (net-range split; independent ECOs
                               commit concurrently; default 1 = the
                               unsharded single-writer protocol);
                               bench-client: generate the shard-crossing
                               mix for an n-shard server (default 1)
  --poll-us <n>                serve: idle-poll backoff floor in
                               microseconds (default 1000; ramps up to
                               25 ms while a connection stays idle)
  --slow-us <n>                serve: log requests slower than n
                               microseconds to stderr (default: off)
  --connections <n>            bench-client: concurrent connections (4)
  --requests <n>               bench-client: requests per connection (100)
  --eco-fraction <v>           bench-client: fraction of requests that are
                               ECO edits, in [0,1] (default 0 = read-only)
  --out <path>                 bench-client: JSON summary path
                               (default target/BENCH_serve.json);
                               scrape: write the exposition here instead
                               of stdout
  --shutdown                   bench-client: send SHUTDOWN when done
  --json                       profile: emit the breakdown as JSON
  --stable                     scrape: request only the deterministic
                               (cross-RCTREE_JOBS stable) metric subset
  --prev <file>                scrape: check counter monotonicity against
                               a previously scraped exposition file
  --nets <n>                   gen-deck: number of *D_NET sections (64)
  --seed <n>                   bench-client/gen-deck: generator seed (1)
  --help                       print this message

edit-script directives (`#` comments; several directives may share a line,
separated by `;` — errors then name the 1-based edit within the line):
  setcap  <net> <node> <farads>          replace a node's load capacitance
  setres  <net> <node> <ohms>            replace a branch with a resistor
  setline <net> <node> <ohms> <farads>   replace a branch with an RC line
  graft   <net> <parent> <name> <ohms> <farads>
                                         attach a new load node via a
                                         resistor (adds load to existing
                                         endpoints; not itself timed)
  prune   <net> <node>                   remove a node and its subtree
  quit                                   end the session (ends a --watch
                                         file tail cleanly)
";

/// Errors produced by argument parsing or analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad or missing command-line arguments; the string is a message for
    /// the user.
    Usage(String),
    /// The netlist failed to parse.
    Netlist(String),
    /// The analysis failed (e.g. no outputs marked).
    Analysis(String),
    /// An ECO edit script failed to parse or apply; the message carries
    /// the 1-based script line and, where one can be singled out, the
    /// offending token in backticks (the same structured shape as the
    /// netlist parse errors).
    Script(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Netlist(m) => write!(f, "netlist error: {m}"),
            CliError::Analysis(m) => write!(f, "analysis error: {m}"),
            CliError::Script(m) => write!(f, "edit script error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses command-line arguments (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown flags, missing values, malformed
/// numbers, or a missing input path.  `--help` is reported as a usage error
/// carrying the usage text so the caller can print it and exit successfully.
pub fn parse_args<I, S>(args: I) -> Result<Options, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mode {
        Tree,
        Eco,
        DeckReport,
        CertifyOver,
        Serve,
        BenchClient,
        GenDeck,
        Profile,
        Scrape,
    }

    let mut opts = Options::default();
    let mut iter = args.into_iter();
    let mut positionals: Vec<String> = Vec::new();
    let mut mode = Mode::Tree;
    let mut watch = false;
    let mut driver = "inv_4x".to_string();
    let mut driver_given = false;
    let mut format_given = false;
    let mut first = true;
    let mut port: Option<u16> = None;
    let mut connections: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut eco_fraction: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut nets: Option<usize> = None;
    let mut shutdown = false;
    let mut shards: Option<usize> = None;
    let mut poll_us: Option<u64> = None;
    let mut slow_us: Option<u64> = None;
    let mut over_r: Option<(f64, f64)> = None;
    let mut over_c: Option<(f64, f64)> = None;
    let mut json = false;
    let mut stable = false;
    let mut prev: Option<String> = None;

    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        if first {
            first = false;
            mode = match arg {
                "eco" => Mode::Eco,
                "report" => Mode::DeckReport,
                "certify-over" => Mode::CertifyOver,
                "serve" => Mode::Serve,
                "bench-client" => Mode::BenchClient,
                "gen-deck" => Mode::GenDeck,
                "profile" => Mode::Profile,
                "scrape" => Mode::Scrape,
                _ => Mode::Tree,
            };
            if mode != Mode::Tree {
                continue;
            }
        }
        let mut value_of = |name: &str| -> Result<String, CliError> {
            iter.next()
                .map(|v| v.as_ref().to_string())
                .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))
        };
        let positive = |flag: &str, text: &str| -> Result<usize, CliError> {
            text.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    CliError::Usage(format!("{flag}: `{text}` is not a positive integer"))
                })
        };
        match arg {
            "--help" | "-h" => return Err(CliError::Usage(USAGE.to_string())),
            "--driver" => {
                driver_given = true;
                driver = value_of("--driver")?;
            }
            "--watch" => watch = true,
            "--shutdown" => shutdown = true,
            "--format" => {
                format_given = true;
                opts.format = match value_of("--format")?.as_str() {
                    "spice" => InputFormat::Spice,
                    "spef" => InputFormat::Spef,
                    "expr" => InputFormat::Expr,
                    other => {
                        return Err(CliError::Usage(format!("unknown format `{other}`")));
                    }
                };
            }
            "--net" => opts.net = Some(value_of("--net")?),
            "--threshold" => {
                opts.threshold = parse_number(&value_of("--threshold")?, "--threshold")?;
            }
            "--budget" => {
                opts.budget = Some(parse_number(&value_of("--budget")?, "--budget")?);
            }
            "--voltage-at" => {
                opts.voltage_at = Some(parse_number(&value_of("--voltage-at")?, "--voltage-at")?);
            }
            "--jobs" => {
                let text = value_of("--jobs")?;
                opts.jobs = Some(positive("--jobs", &text)?);
            }
            "--port" => {
                let text = value_of("--port")?;
                port = Some(text.parse::<u16>().map_err(|_| {
                    CliError::Usage(format!("--port: `{text}` is not a port number"))
                })?);
            }
            "--connections" => {
                let text = value_of("--connections")?;
                connections = Some(positive("--connections", &text)?);
            }
            "--requests" => {
                let text = value_of("--requests")?;
                requests = Some(positive("--requests", &text)?);
            }
            "--seed" => {
                let text = value_of("--seed")?;
                seed = Some(text.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("--seed: `{text}` is not an unsigned integer"))
                })?);
            }
            "--eco-fraction" => {
                let value = parse_number(&value_of("--eco-fraction")?, "--eco-fraction")?;
                if !(0.0..=1.0).contains(&value) {
                    return Err(CliError::Usage(format!(
                        "--eco-fraction {value} must lie in [0, 1]"
                    )));
                }
                eco_fraction = Some(value);
            }
            "--corners" => opts.corners = Some(value_of("--corners")?),
            "--corner" => opts.corner = Some(value_of("--corner")?),
            "--shards" => {
                let text = value_of("--shards")?;
                shards = Some(positive("--shards", &text)?);
            }
            "--poll-us" => {
                let text = value_of("--poll-us")?;
                poll_us = Some(
                    text.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "--poll-us: `{text}` is not a positive integer"
                            ))
                        })?,
                );
            }
            "--slow-us" => {
                let text = value_of("--slow-us")?;
                slow_us = Some(
                    text.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "--slow-us: `{text}` is not a positive integer"
                            ))
                        })?,
                );
            }
            "--json" => json = true,
            "--stable" => stable = true,
            "--prev" => prev = Some(value_of("--prev")?),
            "--over-r" => {
                let text = value_of("--over-r")?;
                over_r = Some(
                    rctree_core::algebra::parse_scale_range(&text)
                        .map_err(|e| CliError::Usage(format!("--over-r: {e}")))?,
                );
            }
            "--over-c" => {
                let text = value_of("--over-c")?;
                over_c = Some(
                    rctree_core::algebra::parse_scale_range(&text)
                        .map_err(|e| CliError::Usage(format!("--over-c: {e}")))?,
                );
            }
            "--out" => out = Some(value_of("--out")?),
            "--nets" => {
                let text = value_of("--nets")?;
                nets = Some(positive("--nets", &text)?);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(CliError::Usage(format!("unknown option `{other}`")));
            }
            positional => positionals.push(positional.to_string()),
        }
    }

    // Flags that belong to one mode are refused elsewhere rather than
    // silently ignored.
    let refuse = |given: bool, message: &str| -> Result<(), CliError> {
        if given {
            Err(CliError::Usage(message.into()))
        } else {
            Ok(())
        }
    };
    if mode != Mode::Serve {
        refuse(port.is_some(), "--port only applies to `rcdelay serve`")?;
        refuse(
            poll_us.is_some(),
            "--poll-us only applies to `rcdelay serve`",
        )?;
        refuse(
            slow_us.is_some(),
            "--slow-us only applies to `rcdelay serve`",
        )?;
    }
    if mode != Mode::Profile {
        refuse(json, "--json only applies to `rcdelay profile`")?;
    }
    if mode != Mode::Scrape {
        refuse(stable, "--stable only applies to `rcdelay scrape`")?;
        refuse(prev.is_some(), "--prev only applies to `rcdelay scrape`")?;
    }
    if !matches!(mode, Mode::Serve | Mode::BenchClient) {
        refuse(
            shards.is_some(),
            "--shards only applies to `rcdelay serve` and `rcdelay bench-client`",
        )?;
    }
    if mode != Mode::BenchClient {
        refuse(
            connections.is_some() || requests.is_some() || eco_fraction.is_some(),
            "--connections/--requests/--eco-fraction only apply to `rcdelay bench-client`",
        )?;
        refuse(
            shutdown,
            "--shutdown only applies to `rcdelay bench-client`",
        )?;
    }
    if !matches!(mode, Mode::BenchClient | Mode::Scrape) {
        refuse(
            out.is_some(),
            "--out only applies to `rcdelay bench-client` and `rcdelay scrape`",
        )?;
    }
    if mode != Mode::GenDeck {
        refuse(nets.is_some(), "--nets only applies to `rcdelay gen-deck`")?;
    }
    if mode != Mode::CertifyOver {
        refuse(
            over_r.is_some() || over_c.is_some(),
            "--over-r/--over-c only apply to `rcdelay certify-over`",
        )?;
    }
    if !matches!(mode, Mode::BenchClient | Mode::GenDeck) {
        refuse(
            seed.is_some(),
            "--seed only applies to `rcdelay bench-client` and `rcdelay gen-deck`",
        )?;
    }
    if mode != Mode::Eco {
        refuse(watch, "--watch only applies to `rcdelay eco`")?;
    }
    if !matches!(mode, Mode::Eco | Mode::DeckReport | Mode::Serve) {
        refuse(
            opts.corners.is_some(),
            "--corners only applies to `rcdelay report`, `rcdelay serve` and `rcdelay eco`",
        )?;
    }
    if mode == Mode::CertifyOver {
        refuse(
            over_r.is_none(),
            "certify-over mode requires --over-r <lo..hi> (the certification box)",
        )?;
    }
    if mode != Mode::DeckReport {
        refuse(
            opts.corner.is_some(),
            "--corner only applies to `rcdelay report`",
        )?;
    }

    // The deck-design modes share the eco-mode flag surface.
    let deck_mode_checks = |opts: &Options, what: &str| -> Result<(), CliError> {
        if format_given && opts.format != InputFormat::Spef {
            return Err(CliError::Usage(format!(
                "{what} mode only supports --format spef"
            )));
        }
        if opts.budget.is_none() {
            return Err(CliError::Usage(format!(
                "{what} mode requires --budget (slack needs a required time)"
            )));
        }
        if opts.net.is_some() {
            return Err(CliError::Usage(format!(
                "--net does not apply to {what} mode"
            )));
        }
        if opts.voltage_at.is_some() {
            return Err(CliError::Usage(format!(
                "--voltage-at does not apply to {what} mode"
            )));
        }
        Ok(())
    };

    match mode {
        Mode::Eco => {
            if positionals.len() != 2 {
                return Err(CliError::Usage(
                    "eco mode requires exactly <deck.spef> and <edit-script>".into(),
                ));
            }
            deck_mode_checks(&opts, "eco")?;
            opts.format = InputFormat::Spef;
            let script = positionals.pop().expect("two positionals");
            opts.path = positionals.pop().expect("two positionals");
            opts.command = Command::Eco {
                script,
                driver,
                watch,
            };
        }
        Mode::DeckReport | Mode::Serve => {
            let what = if mode == Mode::Serve {
                "serve"
            } else {
                "report"
            };
            if positionals.is_empty() {
                return Err(CliError::Usage(format!(
                    "{what} mode requires at least one <deck.spef>"
                )));
            }
            deck_mode_checks(&opts, what)?;
            opts.format = InputFormat::Spef;
            opts.path = positionals[0].clone();
            opts.command = if mode == Mode::Serve {
                Command::Serve {
                    decks: positionals,
                    driver,
                    port: port.unwrap_or(0),
                    shards: shards.unwrap_or(1),
                    poll_us,
                    slow_us,
                }
            } else {
                Command::DeckReport {
                    decks: positionals,
                    driver,
                }
            };
        }
        Mode::CertifyOver => {
            if positionals.is_empty() {
                return Err(CliError::Usage(
                    "certify-over mode requires at least one <deck.spef>".into(),
                ));
            }
            deck_mode_checks(&opts, "certify-over")?;
            opts.format = InputFormat::Spef;
            opts.path = positionals[0].clone();
            opts.command = Command::CertifyOver {
                decks: positionals,
                driver,
                over_r: over_r.expect("checked above"),
                over_c: over_c.unwrap_or((1.0, 1.0)),
            };
        }
        Mode::BenchClient => {
            if positionals.len() != 2 {
                return Err(CliError::Usage(
                    "bench-client mode requires <host:port> and <deck.spef>".into(),
                ));
            }
            refuse(
                driver_given,
                "--driver does not apply to `rcdelay bench-client`",
            )?;
            refuse(
                format_given && opts.format != InputFormat::Spef,
                "bench-client mode only supports --format spef",
            )?;
            refuse(
                opts.net.is_some() || opts.voltage_at.is_some(),
                "--net/--voltage-at do not apply to `rcdelay bench-client`",
            )?;
            opts.format = InputFormat::Spef;
            let deck = positionals.pop().expect("two positionals");
            let addr = positionals.pop().expect("two positionals");
            opts.path = deck.clone();
            opts.command = Command::BenchClient {
                addr,
                deck,
                connections: connections.unwrap_or(4),
                requests: requests.unwrap_or(100),
                seed: seed.unwrap_or(1),
                eco_fraction: eco_fraction.unwrap_or(0.0),
                shards: shards.unwrap_or(1),
                out: out.unwrap_or_else(|| "target/BENCH_serve.json".into()),
                shutdown,
            };
        }
        Mode::Profile => {
            if positionals.is_empty() {
                return Err(CliError::Usage(
                    "profile mode requires at least one <deck.spef>".into(),
                ));
            }
            deck_mode_checks(&opts, "profile")?;
            opts.format = InputFormat::Spef;
            opts.path = positionals[0].clone();
            opts.command = Command::Profile {
                decks: positionals,
                driver,
                json,
            };
        }
        Mode::Scrape => {
            if positionals.len() != 1 {
                return Err(CliError::Usage(
                    "scrape mode requires exactly one <host:port>".into(),
                ));
            }
            refuse(
                driver_given || format_given,
                "--driver/--format do not apply to `rcdelay scrape`",
            )?;
            refuse(
                opts.budget.is_some()
                    || opts.jobs.is_some()
                    || opts.net.is_some()
                    || opts.voltage_at.is_some(),
                "scrape mode only accepts --stable, --prev and --out",
            )?;
            let addr = positionals.pop().expect("one positional");
            opts.command = Command::Scrape {
                addr,
                stable,
                out,
                prev,
            };
        }
        Mode::GenDeck => {
            if !positionals.is_empty() {
                return Err(CliError::Usage(
                    "gen-deck takes no positional arguments (the deck prints to stdout)".into(),
                ));
            }
            refuse(
                driver_given || format_given || opts.net.is_some() || opts.voltage_at.is_some(),
                "gen-deck only accepts --nets and --seed",
            )?;
            refuse(
                opts.budget.is_some() || opts.jobs.is_some(),
                "gen-deck only accepts --nets and --seed",
            )?;
            opts.command = Command::GenDeck {
                nets: nets.unwrap_or(64),
                seed: seed.unwrap_or(1),
            };
        }
        Mode::Tree => {
            refuse(driver_given, "--driver only applies to `rcdelay eco`")?;
            if positionals.len() > 1 {
                return Err(CliError::Usage("more than one input file given".into()));
            }
            opts.path = positionals
                .pop()
                .ok_or_else(|| CliError::Usage("missing input netlist file".into()))?;
        }
    }
    if !(opts.threshold > 0.0 && opts.threshold < 1.0) {
        return Err(CliError::Usage(format!(
            "threshold {} must lie strictly between 0 and 1",
            opts.threshold
        )));
    }
    Ok(opts)
}

fn parse_number(text: &str, flag: &str) -> Result<f64, CliError> {
    text.parse::<f64>()
        .map_err(|_| CliError::Usage(format!("{flag}: `{text}` is not a number")))
}

/// Parses the netlist text according to the selected format.
///
/// # Errors
///
/// Returns [`CliError::Netlist`] when the input cannot be parsed or the
/// requested SPEF net does not exist.
pub fn load_tree(text: &str, opts: &Options) -> Result<RcTree, CliError> {
    match opts.format {
        InputFormat::Spice => parse_spice(text).map_err(|e| CliError::Netlist(e.to_string())),
        InputFormat::Spef => {
            // Deck-level parallel ingestion: `*D_NET` sections are parsed
            // across the worker pool, with results in document order.
            let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
            let nets = parse_spef_deck(text, jobs).map_err(|e| CliError::Netlist(e.to_string()))?;
            let net = match &opts.net {
                Some(name) => nets
                    .into_iter()
                    .find(|n| &n.name == name)
                    .ok_or_else(|| CliError::Netlist(format!("no net named `{name}`")))?,
                None => nets
                    .into_iter()
                    .next()
                    .expect("parse_spef never returns an empty list"),
            };
            Ok(net.tree)
        }
        InputFormat::Expr => {
            let expr = parse_expr(text).map_err(|e| CliError::Netlist(e.to_string()))?;
            expr.to_tree().map_err(|e| CliError::Netlist(e.to_string()))
        }
    }
}

/// Resolves a `--corners` value into a [`CornerSet`]: an **inline** spec
/// when the value contains `=` (corner definitions are `name=r,c[,d]`, so
/// any spec text has one; separate lines with `;`), otherwise the path of
/// a spec file in the same grammar.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when the file cannot be read or the spec
/// fails to parse.
pub fn load_corner_set(value: &str) -> Result<CornerSet, CliError> {
    let spec = if value.contains('=') {
        value.to_string()
    } else {
        std::fs::read_to_string(value)
            .map_err(|e| CliError::Usage(format!("--corners: cannot read `{value}`: {e}")))?
    };
    CornerSet::parse(&spec).map_err(|e| CliError::Usage(format!("--corners: {e}")))
}

/// Resolves a `--corner` selector against the corner names of an
/// analysis: a lane index, a corner name, or `worst` (whose lane the
/// caller computes against the budget).
fn resolve_corner_selector(names: &[String], token: &str, worst: usize) -> Result<usize, CliError> {
    if token == "worst" {
        return Ok(worst);
    }
    if let Ok(k) = token.parse::<usize>() {
        return if k < names.len() {
            Ok(k)
        } else {
            Err(CliError::Usage(format!(
                "--corner: index {k} out of range (deck has {} corner(s))",
                names.len()
            )))
        };
    }
    names
        .iter()
        .position(|n| n == token)
        .ok_or_else(|| CliError::Usage(format!("--corner: unknown corner `{token}`")))
}

/// A rendered report plus the machine-readable verdict that decides the
/// process exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The human-readable report text.
    pub text: String,
    /// The certification verdict when a `--budget` was given
    /// (`None` otherwise).  [`Certification::Fail`] makes `rcdelay` exit
    /// nonzero.
    pub certification: Option<Certification>,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Runs the analysis and renders the human-readable report.
///
/// # Errors
///
/// Returns [`CliError::Analysis`] when the tree cannot be analysed (no
/// outputs, no capacitance, invalid threshold).
pub fn report(tree: &RcTree, opts: &Options) -> Result<Report, CliError> {
    let analysis = TreeAnalysis::of(tree).map_err(|e| CliError::Analysis(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} nodes, {} branches, C_total = {}, {} output(s), threshold {}",
        tree.node_count(),
        tree.branch_count(),
        tree.total_capacitance(),
        analysis.len(),
        opts.threshold
    );
    let _ = writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "output", "T_P (s)", "T_D (s)", "T_R (s)", "t_min (s)", "t_max (s)"
    );
    for o in analysis.outputs() {
        let b = o
            .times
            .delay_bounds(opts.threshold)
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        let _ = writeln!(
            out,
            "{:<16} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e}",
            o.name,
            o.times.t_p.value(),
            o.times.t_d.value(),
            o.times.t_r.value(),
            b.lower.value(),
            b.upper.value()
        );
    }

    if let Some(t) = opts.voltage_at {
        let _ = writeln!(out, "\nvoltage bounds at t = {t:.6e} s:");
        for o in analysis.outputs() {
            let vb = o
                .times
                .voltage_bounds(Seconds::new(t))
                .map_err(|e| CliError::Analysis(e.to_string()))?;
            let _ = writeln!(out, "  {:<16} [{:.5}, {:.5}]", o.name, vb.lower, vb.upper);
        }
    }

    let mut certification = None;
    if let Some(budget) = opts.budget {
        let verdict = analysis
            .certify_all(opts.threshold, Seconds::new(budget))
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        let _ = writeln!(
            out,
            "\ncertification against a {budget:.6e} s budget: {verdict}"
        );
        certification = Some(verdict);
    }
    Ok(Report {
        text: out,
        certification,
    })
}

/// Builds the per-net timing design of one or more SPEF decks: every
/// extracted net becomes one driven stage with its leaves as primary
/// outputs, exactly as in eco mode ([`Design::from_extracted`]).  Deck
/// boundaries are invisible to the design — net names must be unique
/// across all decks (duplicates are rejected).
///
/// # Errors
///
/// * [`CliError::Netlist`] if a deck fails to parse;
/// * [`CliError::Analysis`] if the design cannot be built (unknown driver
///   cell, duplicate net names across decks).
pub fn deck_design(deck_texts: &[String], driver: &str, jobs: usize) -> Result<Design, CliError> {
    let mut all: Vec<(String, RcTree)> = Vec::new();
    for text in deck_texts {
        let nets = parse_spef_deck(text, jobs).map_err(|e| CliError::Netlist(e.to_string()))?;
        all.extend(nets.into_iter().map(|n| (n.name, n.tree)));
    }
    Design::from_extracted(CellLibrary::nmos_1981(), driver, all)
        .map_err(|e| CliError::Analysis(e.to_string()))
}

/// Streams one deck input — a file path, or standard input for `-` —
/// through the chunked SPEF reader ([`parse_spef_read`]), so the document
/// text never has to fit in memory.  Results (nets and errors) are
/// byte-identical to reading the whole file and calling
/// [`parse_spef_deck`].
///
/// # Errors
///
/// Returns [`CliError::Netlist`] when the input cannot be opened or
/// parsed.
pub fn read_deck_nets(path: &str, jobs: usize) -> Result<Vec<SpefNet>, CliError> {
    let parsed = if path == "-" {
        parse_spef_read(std::io::stdin().lock(), jobs)
    } else {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::Netlist(format!("cannot read `{path}`: {e}")))?;
        parse_spef_read(file, jobs)
    };
    parsed.map_err(|e| CliError::Netlist(e.to_string()))
}

/// [`deck_design`] over deck **paths** instead of in-memory texts: each
/// deck streams through [`read_deck_nets`], which is what keeps
/// million-net ingestion within a bounded text footprint.
///
/// # Errors
///
/// As for [`deck_design`], plus open/read failures as
/// [`CliError::Netlist`].
pub fn deck_design_from_paths(
    paths: &[String],
    driver: &str,
    jobs: usize,
) -> Result<Design, CliError> {
    let mut all: Vec<(String, RcTree)> = Vec::new();
    for path in paths {
        let nets = read_deck_nets(path, jobs)?;
        all.extend(nets.into_iter().map(|n| (n.name, n.tree)));
    }
    Design::from_extracted(CellLibrary::nmos_1981(), driver, all)
        .map_err(|e| CliError::Analysis(e.to_string()))
}

/// Runs the deck-level design report (`rcdelay report`): the full
/// arrival-propagated [`rctree_sta::TimingReport`], rendered through its
/// `Display` — **byte-identical** to the payload of the server's `REPORT`
/// verb on the same decks (the server's snapshot path is pinned
/// bit-identical to `analyze`).
///
/// # Errors
///
/// As for [`deck_design`], plus analysis errors.
pub fn deck_report(
    deck_texts: &[String],
    driver: &str,
    threshold: f64,
    budget: f64,
    jobs: usize,
    corners: Option<&CornerSet>,
    corner: Option<&str>,
) -> Result<Report, CliError> {
    let deck = analyze_deck(
        deck_design(deck_texts, driver, jobs)?,
        threshold,
        budget,
        jobs,
        corners,
        corner,
    )?;
    let report = deck.report();
    Ok(Report {
        text: report.to_string(),
        certification: Some(report.certification()),
    })
}

/// The analysis behind [`deck_report`], over deck **paths** (each deck
/// streams through [`read_deck_nets`]), without rendering: `rcdelay
/// report` writes the [`DeckReport`] straight to its output.
///
/// # Errors
///
/// As for [`deck_report`], plus open/read failures as
/// [`CliError::Netlist`].
pub fn analyze_deck_from_paths(
    paths: &[String],
    driver: &str,
    threshold: f64,
    budget: f64,
    jobs: usize,
    corners: Option<&CornerSet>,
    corner: Option<&str>,
) -> Result<DeckReport, CliError> {
    analyze_deck(
        deck_design_from_paths(paths, driver, jobs)?,
        threshold,
        budget,
        jobs,
        corners,
        corner,
    )
}

/// Runs the continuum certification (`rcdelay certify-over`): the decks
/// stream through [`read_deck_nets`], one symbolic polynomial analysis of
/// the published design snapshot certifies the whole `(r_scale, c_scale)`
/// box, and the exact worst point is reported.  The payload line is
/// rendered by the serve crate's shared formatter
/// ([`rctree_serve::protocol::certify_over_line`]), so it is
/// byte-identical to the server's `CERTIFY --over` response payload on
/// the same decks.  The returned verdict (the certification at the worst
/// point — `Pass` there proves the whole box) drives the exit status
/// exactly like `--budget` elsewhere.  The analysed design, its snapshot
/// and the snapshot's symbolic lane come back with the report, so the
/// caller decides when, or whether, their memory is freed.
///
/// # Errors
///
/// As for [`deck_design_from_paths`], plus analysis errors.
pub fn certify_over_from_paths(
    paths: &[String],
    driver: &str,
    threshold: f64,
    budget: f64,
    jobs: usize,
    over_r: (f64, f64),
    over_c: (f64, f64),
) -> Result<(Report, impl Sized), CliError> {
    let design = deck_design_from_paths(paths, driver, jobs)?;
    let executor = rctree_serve::EcoExecutor::new(design, threshold, Seconds::new(budget), jobs)
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let snapshot = executor.snapshot();
    let over = rctree_serve::ScaleBox {
        r: over_r,
        c: over_c,
    };
    let text = rctree_serve::protocol::certify_over_line(&snapshot, budget, &over)
        .map_err(CliError::Analysis)?;
    let verdict = snapshot
        .symbolic()
        .map_err(|e| CliError::Analysis(e.to_string()))?
        .certify_over(Seconds::new(budget), over.r, over.c)
        .verdict;
    let report = Report {
        text: format!("{text}\n"),
        certification: Some(verdict),
    };
    Ok((report, (executor, snapshot)))
}

/// One row of the `rcdelay profile` per-phase breakdown, aggregated from
/// the observability registry's `rctree_phase_duration_us` histogram.
///
/// `p50_us`/`max_us` are bucket upper bounds of the log-linear histogram
/// (≤ ~12.5% relative error by construction), hence the `~` in the table
/// rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Span name of the phase (e.g. `sta.propagate_full`).
    pub phase: String,
    /// Finished spans recorded for the phase.
    pub count: u64,
    /// Summed duration over all spans, microseconds (exact).
    pub total_us: u64,
    /// `total_us / count`.
    pub mean_us: f64,
    /// Median span duration, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// Largest span duration, microseconds (bucket upper bound).
    pub max_us: u64,
}

/// Runs the full deck pipeline — streamed SPEF ingest, design build, one
/// baseline analysis — under a private observability runtime
/// ([`rctree_obs::Obs`]) and returns the per-phase duration breakdown
/// (`rcdelay profile`).  The phases are the pipeline's built-in span
/// sites (`spef.chunk`, `spef.parse_batch`, `sta.net_build`,
/// `sta.propagate_full`, `sta.stage_sweep`, …); rows sort by phase name.
///
/// The certification verdict of the baseline analysis rides along so the
/// exit status behaves exactly like `rcdelay report` on the same decks.
/// So do the design and its report, dropped by neither the observed
/// region nor this call: the caller decides when, or whether, their
/// memory is freed.
///
/// # Errors
///
/// As for [`deck_design_from_paths`], plus analysis errors.
pub fn profile_from_paths(
    paths: &[String],
    driver: &str,
    threshold: f64,
    budget: f64,
    jobs: usize,
) -> Result<(Vec<PhaseProfile>, Certification, impl Sized), CliError> {
    let obs = rctree_obs::Obs::new(rctree_obs::ObsConfig::default());
    let (certification, analysed) = {
        let _scope = obs.enter();
        let design = deck_design_from_paths(paths, driver, jobs)?;
        let report = design
            .analyze_with_jobs(threshold, Seconds::new(budget), jobs)
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        (report.certification(), (design, report))
    };

    let mut rows: Vec<PhaseProfile> = obs
        .registry()
        .histogram_series("rctree_phase_duration_us")
        .into_iter()
        .filter(|(_, snap)| snap.count > 0)
        .map(|(labels, snap)| {
            // Labels render as `{phase="<name>"}` (a single label by
            // construction of the span auto-metrics).
            let phase = labels
                .strip_prefix("{phase=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .unwrap_or(&labels)
                .to_string();
            let mut p50_us = 0;
            let mut max_us = 0;
            let mut seen = 0u64;
            let half = snap.count.div_ceil(2);
            for (idx, &n) in snap.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if seen < half {
                    p50_us = rctree_obs::bucket_upper_bound(idx);
                }
                seen += n;
                max_us = rctree_obs::bucket_upper_bound(idx);
            }
            PhaseProfile {
                phase,
                count: snap.count,
                total_us: snap.sum,
                mean_us: snap.sum as f64 / snap.count as f64,
                p50_us,
                max_us,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.phase.cmp(&b.phase));
    Ok((rows, certification, analysed))
}

/// Renders a [`profile_from_paths`] breakdown as the human-readable table
/// (`rcdelay profile`) — fixed columns, rows sorted by phase name.
#[must_use]
pub fn render_profile_table(rows: &[PhaseProfile]) -> String {
    let mut out = String::new();
    let width = rows
        .iter()
        .map(|r| r.phase.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    let _ = writeln!(
        out,
        "{:width$}  {:>8}  {:>12}  {:>12}  {:>10}  {:>10}",
        "phase", "count", "total_us", "mean_us", "~p50_us", "~max_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:width$}  {:>8}  {:>12}  {:>12.1}  {:>10}  {:>10}",
            r.phase, r.count, r.total_us, r.mean_us, r.p50_us, r.max_us
        );
    }
    out
}

/// Renders a [`profile_from_paths`] breakdown as the machine-readable
/// JSON document (`rcdelay profile --json`).
#[must_use]
pub fn render_profile_json(rows: &[PhaseProfile]) -> String {
    let mut out = String::from("{\n  \"phases\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"phase\": \"{}\", \"count\": {}, \"total_us\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \"max_us\": {} }}{comma}",
            r.phase, r.count, r.total_us, r.mean_us, r.p50_us, r.max_us
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// A deck's analysed design and the report of its selected lane: what
/// `rcdelay report` prints, kept with the design it came from so the
/// caller decides when, or whether, their memory is freed.
#[derive(Debug)]
pub struct DeckReport {
    /// Held only so that its drop is the caller's to make or skip.
    _design: Design,
    lanes: DeckLanes,
}

#[derive(Debug)]
enum DeckLanes {
    /// The single-corner analysis.
    Nominal(TimingReport),
    /// Every corner's report, and the selected lane.
    Corners(CornerAnalysis, usize),
}

impl DeckReport {
    /// The selected lane's report.
    pub fn report(&self) -> &TimingReport {
        match &self.lanes {
            DeckLanes::Nominal(report) => report,
            DeckLanes::Corners(analysis, k) => analysis
                .report(*k)
                .expect("resolved corner index is in range"),
        }
    }
}

fn analyze_deck(
    mut design: Design,
    threshold: f64,
    budget: f64,
    jobs: usize,
    corners: Option<&CornerSet>,
    corner: Option<&str>,
) -> Result<DeckReport, CliError> {
    if corners.is_none() && corner.is_none() {
        // The single-corner path: exactly the pre-corner float sequence
        // (which `analyze_corners` lane 0 is pinned bit-identical to).
        let report = design
            .analyze_with_jobs(threshold, Seconds::new(budget), jobs)
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        return Ok(DeckReport {
            _design: design,
            lanes: DeckLanes::Nominal(report),
        });
    }
    if let Some(set) = corners {
        design.set_corners(set.clone());
    }
    let required = Seconds::new(budget);
    let analysis = design
        .analyze_corners(threshold, required, jobs)
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let k = match corner {
        None => 0,
        Some(token) => {
            resolve_corner_selector(analysis.names(), token, analysis.worst_against(required).0)?
        }
    };
    Ok(DeckReport {
        _design: design,
        lanes: DeckLanes::Corners(analysis, k),
    })
}

/// Parses one script line (1-based `line` number for error reporting).
/// Several directives may share a line, separated by `;`.
///
/// The grammar lives in [`rctree_sta::script`] (shared with the
/// `rctree-serve` wire protocol); this wrapper maps its errors into
/// [`CliError::Script`].
///
/// # Errors
///
/// Returns [`CliError::Script`] with the location (line, and 1-based edit
/// index within multi-edit lines) and the offending token for unknown
/// directives, missing fields and malformed numbers.
pub fn parse_eco_script_line(line: usize, raw: &str) -> Result<ScriptLine, CliError> {
    rctree_sta::script::parse_eco_script_line(line, raw)
        .map_err(|e| CliError::Script(e.message().to_string()))
}

/// Parses a whole ECO edit script (see [`USAGE`] for the grammar).  A
/// `quit` directive ends the script early.
///
/// # Errors
///
/// As for [`parse_eco_script_line`].
pub fn parse_eco_script(text: &str) -> Result<Vec<ScriptEdit>, CliError> {
    rctree_sta::script::parse_eco_script(text)
        .map_err(|e| CliError::Script(e.message().to_string()))
}

/// The result of an ECO session: the rendered per-edit log and the final
/// verdict (which decides the exit code).
#[derive(Debug, Clone, PartialEq)]
pub struct EcoOutcome {
    /// Human-readable per-edit slack log.
    pub text: String,
    /// Certification of the design after the last edit.
    pub certification: Certification,
}

/// A live ECO session over a parsed deck: the incremental design plus the
/// rolling slack/certification state.  [`run_eco`], `rcdelay eco`'s batch
/// mode ([`EcoSession::apply_all`]) and its `--watch` streaming loop all
/// drive one of these, so the per-edit output is identical whether the
/// script arrives up front or line by line.
#[derive(Debug)]
pub struct EcoSession {
    design: Design,
    threshold: f64,
    required: Seconds,
    jobs: usize,
    slack: Seconds,
    certification: Certification,
    edits_applied: usize,
}

impl EcoSession {
    /// Parses the deck, builds the per-net design, runs the cache-warming
    /// baseline analysis, and returns the session plus its header text
    /// (the `eco session:` / `baseline:` lines).
    ///
    /// `script_edits` is the edit count shown in the header; streaming
    /// callers that cannot know it pass `None`.
    ///
    /// # Errors
    ///
    /// * [`CliError::Usage`] outside eco mode or without a budget;
    /// * [`CliError::Netlist`] if the deck fails to parse;
    /// * [`CliError::Analysis`] if the design cannot be built or analysed.
    pub fn new(
        deck: &str,
        opts: &Options,
        script_edits: Option<usize>,
    ) -> Result<(EcoSession, String), CliError> {
        let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
        let nets = parse_spef_deck(deck, jobs).map_err(|e| CliError::Netlist(e.to_string()))?;
        Self::from_nets(nets, opts, script_edits)
    }

    /// [`EcoSession::new`] over a deck **path** (or `-` for standard
    /// input): the deck streams through [`read_deck_nets`] instead of
    /// being read into one string first.
    ///
    /// # Errors
    ///
    /// As for [`EcoSession::new`], plus open/read failures as
    /// [`CliError::Netlist`].
    pub fn open(
        path: &str,
        opts: &Options,
        script_edits: Option<usize>,
    ) -> Result<(EcoSession, String), CliError> {
        let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
        let nets = read_deck_nets(path, jobs)?;
        Self::from_nets(nets, opts, script_edits)
    }

    fn from_nets(
        nets: Vec<SpefNet>,
        opts: &Options,
        script_edits: Option<usize>,
    ) -> Result<(EcoSession, String), CliError> {
        let Command::Eco { driver, .. } = &opts.command else {
            return Err(CliError::Usage("run_eco requires eco mode".into()));
        };
        let budget = opts
            .budget
            .ok_or_else(|| CliError::Usage("eco mode requires --budget".into()))?;
        let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
        let net_count = nets.len();
        let mut design = Design::from_extracted(
            CellLibrary::nmos_1981(),
            driver,
            nets.into_iter().map(|n| (n.name, n.tree)),
        )
        .map_err(|e| CliError::Analysis(e.to_string()))?;
        let corner_names = match &opts.corners {
            Some(value) => {
                let set = load_corner_set(value)?;
                let names = (!set.is_nominal_only()).then(|| set.names_csv());
                design.set_corners(set);
                names
            }
            None => None,
        };

        let required = Seconds::new(budget);
        let baseline = design
            .apply_eco_with_jobs(&[], opts.threshold, required, jobs)
            .map_err(|e| CliError::Analysis(e.to_string()))?;

        let mut out = String::new();
        let edits_text = match script_edits {
            Some(n) => format!("{n} edits, "),
            None => "streaming edits, ".to_string(),
        };
        let _ = writeln!(
            out,
            "eco session: {net_count} nets, {edits_text}threshold {}, budget {budget:.6e} s, driver {driver}",
            opts.threshold
        );
        if let Some(names) = corner_names {
            let _ = writeln!(out, "corners: {names} (every lane re-timed per edit)");
        }
        let slack = baseline.worst_slack();
        let certification = baseline.certification();
        let _ = writeln!(
            out,
            "baseline: worst slack {:+.6e} s, certification {certification}",
            slack.value()
        );
        Ok((
            EcoSession {
                design,
                threshold: opts.threshold,
                required,
                jobs,
                slack,
                certification,
                edits_applied: 0,
            },
            out,
        ))
    }

    /// Certification of the design after the last applied edit.
    pub fn certification(&self) -> Certification {
        self.certification
    }

    /// Applies one script edit through the incremental engine and returns
    /// its log line.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Script`] carrying the edit's location (line,
    /// and 1-based edit index within multi-edit lines) when the edit
    /// references an unknown net/node or fails validation; the design is
    /// left exactly as it was (the engine is transactional), so a
    /// streaming caller may keep the session running.
    pub fn apply(&mut self, se: &ScriptEdit) -> Result<String, CliError> {
        let report = self
            .design
            .apply_eco_with_jobs(
                std::slice::from_ref(&se.edit),
                self.threshold,
                self.required,
                self.jobs,
            )
            .map_err(|e| CliError::Script(format!("{}: {e}", se.location())))?;
        let new_slack = report.worst_slack();
        self.certification = report.certification();
        self.edits_applied += 1;
        let line = format!(
            "edit {:>4} (line {:>3}) {:<44} slack {:+.6e} s (delta {:+.3e} s) {}",
            self.edits_applied,
            se.line,
            se.summary,
            new_slack.value(),
            (new_slack - self.slack).value(),
            self.certification
        );
        self.slack = new_slack;
        Ok(line)
    }

    /// The closing `final certification:` line.
    pub fn footer(&self) -> String {
        format!("final certification: {}", self.certification)
    }

    /// Applies `edits` in order, appending each edit's log line to `text`,
    /// then the footer.
    ///
    /// # Errors
    ///
    /// The first failing edit's error, as from [`EcoSession::apply`]: the
    /// session stops there, and `text` ends with the line of the last
    /// edit applied before it.
    pub fn apply_all(&mut self, edits: &[ScriptEdit], text: &mut String) -> Result<(), CliError> {
        for se in edits {
            let line = self.apply(se)?;
            let _ = writeln!(text, "{line}");
        }
        let _ = writeln!(text, "{}", self.footer());
        Ok(())
    }
}

/// Runs a full ECO session: parse the deck, build the per-net design,
/// apply the script one edit at a time, and log the slack delta after
/// each.
///
/// # Errors
///
/// * [`CliError::Netlist`] if the deck fails to parse;
/// * [`CliError::Script`] if the script fails to parse, or an edit
///   references an unknown net/node (reported with its script location and
///   the offending token) or fails validation;
/// * [`CliError::Analysis`] if the design cannot be built or analysed.
pub fn run_eco(deck: &str, script: &str, opts: &Options) -> Result<EcoOutcome, CliError> {
    let edits = parse_eco_script(script)?;
    let (mut session, mut text) = EcoSession::new(deck, opts, Some(edits.len()))?;
    session.apply_all(&edits, &mut text)?;
    Ok(EcoOutcome {
        text,
        certification: session.certification(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_sta::EcoEditKind;

    const FIG7_DECK: &str = "\
R1 in n1 15\nC1 n1 0 2\nRB n1 ns 8\nCB ns 0 7\nU1 n1 n2 3 4\nC2 n2 0 9\n.output n2\n";

    #[test]
    fn parses_full_argument_set() {
        let opts = parse_args([
            "--format",
            "spef",
            "--net",
            "clk",
            "--threshold",
            "0.9",
            "--budget",
            "1e-9",
            "--voltage-at",
            "5e-10",
            "--jobs",
            "3",
            "deck.spef",
        ])
        .unwrap();
        assert_eq!(opts.format, InputFormat::Spef);
        assert_eq!(opts.net.as_deref(), Some("clk"));
        assert_eq!(opts.threshold, 0.9);
        assert_eq!(opts.budget, Some(1e-9));
        assert_eq!(opts.voltage_at, Some(5e-10));
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.path, "deck.spef");
    }

    #[test]
    fn defaults_are_sensible() {
        let opts = parse_args(["file.sp"]).unwrap();
        assert_eq!(opts.format, InputFormat::Spice);
        assert_eq!(opts.threshold, 0.5);
        assert!(opts.budget.is_none());
        assert!(opts.jobs.is_none());
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(parse_args::<_, &str>([]), Err(CliError::Usage(_))));
        assert!(matches!(parse_args(["--help"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["--format", "verilog", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--threshold", "1.5", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--threshold", "abc", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse_args(["--budget"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["--jobs", "0", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--jobs", "two", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["a.sp", "b.sp"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--bogus", "x"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn spice_report_contains_figure10_numbers() {
        let opts = Options {
            path: "-".into(),
            threshold: 0.9,
            budget: Some(1000.0),
            voltage_at: Some(100.0),
            ..Options::default()
        };
        let tree = load_tree(FIG7_DECK, &opts).unwrap();
        let report = report(&tree, &opts).unwrap();
        let text = &report.text;
        assert!(text.contains("n2"));
        assert!(text.contains("7.23664"), "{text}");
        assert!(text.contains("pass"));
        assert!(text.contains("[0.16644, 0.35714]"));
        assert_eq!(report.certification, Some(Certification::Pass));
    }

    #[test]
    fn expr_format_loads_the_paper_notation() {
        let opts = Options {
            path: "-".into(),
            format: InputFormat::Expr,
            ..Options::default()
        };
        let tree = load_tree(
            "(URC 15 0) WC (URC 0 2) WC (WB ((URC 8 0) WC (URC 0 7))) WC (URC 3 4) WC (URC 0 9)",
            &opts,
        )
        .unwrap();
        assert_eq!(tree.outputs().count(), 1);
        let report = report(&tree, &opts).unwrap();
        assert!(report.text.contains("threshold 0.5"));
        // No budget given: no verdict, so the exit code cannot be failure.
        assert_eq!(report.certification, None);
    }

    #[test]
    fn spef_format_selects_nets() {
        let spef = "\
*D_NET a 1\n*CONN\n*I drv I\n*P x O\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*D_NET b 1\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";
        let mut opts = Options {
            path: "-".into(),
            format: InputFormat::Spef,
            ..Options::default()
        };
        let first = load_tree(spef, &opts).unwrap();
        assert!(first.node_by_name("x").is_ok());
        opts.net = Some("b".into());
        let second = load_tree(spef, &opts).unwrap();
        assert!(second.node_by_name("y").is_ok());
        opts.net = Some("zzz".into());
        assert!(matches!(load_tree(spef, &opts), Err(CliError::Netlist(_))));
    }

    #[test]
    fn bad_netlists_are_reported() {
        let opts = Options {
            path: "-".into(),
            ..Options::default()
        };
        assert!(matches!(
            load_tree("garbage line\n", &opts),
            Err(CliError::Netlist(_))
        ));
        // A tree with no outputs fails at analysis time.
        let tree = load_tree("R1 in a 5\nC1 a 0 1\n.output a\n", &opts).unwrap();
        assert!(report(&tree, &opts).is_ok());
    }

    #[test]
    fn error_display_is_prefixed() {
        assert!(CliError::Usage("x".into()).to_string().contains("usage"));
        assert!(CliError::Netlist("x".into())
            .to_string()
            .contains("netlist"));
        assert!(CliError::Analysis("x".into())
            .to_string()
            .contains("analysis"));
        assert!(CliError::Script("x".into())
            .to_string()
            .contains("edit script"));
    }

    /// A two-net SPEF deck for the eco tests: one fast wire, one slow.
    const ECO_DECK: &str = "\
*D_NET fast 0.001
*CONN
*I drv I
*P x O
*CAP
1 x 0.001
*RES
1 drv x 5
*END
\
*D_NET slow 0.3
*CONN
*I drv I
*P y O
*CAP
1 y 0.3
*RES
1 drv y 800
*END
";

    fn eco_opts(budget: f64) -> Options {
        Options {
            command: Command::Eco {
                script: "edits.eco".into(),
                driver: "inv_4x".into(),
                watch: false,
            },
            path: "deck.spef".into(),
            format: InputFormat::Spef,
            budget: Some(budget),
            ..Options::default()
        }
    }

    #[test]
    fn eco_arguments_parse_and_validate() {
        let opts = parse_args([
            "eco",
            "--budget",
            "5e-9",
            "--driver",
            "buf_8x",
            "--jobs",
            "2",
            "deck.spef",
            "edits.eco",
        ])
        .unwrap();
        assert_eq!(opts.path, "deck.spef");
        assert_eq!(opts.format, InputFormat::Spef);
        assert_eq!(
            opts.command,
            Command::Eco {
                script: "edits.eco".into(),
                driver: "buf_8x".into(),
                watch: false,
            }
        );
        // `--watch` rides along in eco mode and is refused elsewhere.
        let watch = parse_args(["eco", "--watch", "--budget", "1e-9", "deck.spef", "-"]).unwrap();
        assert!(matches!(watch.command, Command::Eco { watch: true, .. }));
        assert!(matches!(
            parse_args(["--watch", "deck.sp"]),
            Err(CliError::Usage(_))
        ));

        // Missing budget, missing script, or a non-SPEF format are refused.
        assert!(matches!(
            parse_args(["eco", "deck.spef", "edits.eco"]),
            Err(CliError::Usage(_))
        ));
        // Mode-mismatched flags are refused rather than silently ignored.
        assert!(matches!(
            parse_args(["--driver", "buf_8x", "deck.sp"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "eco",
                "--budget",
                "1e-9",
                "--net",
                "n1",
                "deck.spef",
                "edits.eco"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "eco",
                "--budget",
                "1e-9",
                "--voltage-at",
                "1e-9",
                "deck.spef",
                "edits.eco"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["eco", "--budget", "1e-9", "deck.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "eco",
                "--budget",
                "1e-9",
                "--format",
                "spice",
                "deck.spef",
                "edits.eco"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_and_report_arguments_parse_and_validate() {
        let opts = parse_args([
            "serve", "--budget", "1e-7", "--port", "7411", "--driver", "buf_8x", "a.spef", "b.spef",
        ])
        .unwrap();
        assert_eq!(
            opts.command,
            Command::Serve {
                decks: vec!["a.spef".into(), "b.spef".into()],
                driver: "buf_8x".into(),
                port: 7411,
                shards: 1,
                poll_us: None,
                slow_us: None,
            }
        );
        assert_eq!(opts.format, InputFormat::Spef);

        let opts = parse_args([
            "serve",
            "--budget",
            "1e-7",
            "--shards",
            "4",
            "--poll-us",
            "250",
            "--slow-us",
            "5000",
            "a.spef",
        ])
        .unwrap();
        assert_eq!(
            opts.command,
            Command::Serve {
                decks: vec!["a.spef".into()],
                driver: "inv_4x".into(),
                port: 0,
                shards: 4,
                poll_us: Some(250),
                slow_us: Some(5000),
            }
        );

        let opts = parse_args(["report", "--budget", "1e-7", "deck.spef"]).unwrap();
        assert_eq!(
            opts.command,
            Command::DeckReport {
                decks: vec!["deck.spef".into()],
                driver: "inv_4x".into(),
            }
        );

        // Budget is mandatory, decks are mandatory, port is serve-only.
        assert!(matches!(
            parse_args(["serve", "deck.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--port", "7411", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--port", "worst", "d.spef"]),
            Err(CliError::Usage(_))
        ));

        // --shards is serve/bench-client-only and must be positive;
        // --poll-us is serve-only.
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--shards", "4", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--shards", "0", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--poll-us", "500", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--poll-us", "0", "d.spef"]),
            Err(CliError::Usage(_))
        ));

        // --slow-us is serve-only and must be positive.
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--slow-us", "500", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--slow-us", "0", "d.spef"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_and_scrape_arguments_parse_and_validate() {
        let opts =
            parse_args(["profile", "--budget", "1e-7", "--json", "a.spef", "b.spef"]).unwrap();
        assert_eq!(
            opts.command,
            Command::Profile {
                decks: vec!["a.spef".into(), "b.spef".into()],
                driver: "inv_4x".into(),
                json: true,
            }
        );
        assert_eq!(opts.format, InputFormat::Spef);

        let opts = parse_args([
            "scrape",
            "--stable",
            "--prev",
            "prev.prom",
            "--out",
            "cur.prom",
            "127.0.0.1:7411",
        ])
        .unwrap();
        assert_eq!(
            opts.command,
            Command::Scrape {
                addr: "127.0.0.1:7411".into(),
                stable: true,
                out: Some("cur.prom".into()),
                prev: Some("prev.prom".into()),
            }
        );

        // Profile shares the deck-mode surface: budget mandatory, decks
        // mandatory, --json profile-only.
        assert!(matches!(
            parse_args(["profile", "a.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["profile", "--budget", "1e-7"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--json", "d.spef"]),
            Err(CliError::Usage(_))
        ));

        // Scrape takes exactly one address and only its own flags;
        // --stable/--prev are scrape-only.
        assert!(matches!(parse_args(["scrape"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["scrape", "127.0.0.1:1", "127.0.0.1:2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["scrape", "--budget", "1e-7", "127.0.0.1:1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--stable", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--prev", "p", "d.spef"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn corner_flags_parse_and_validate() {
        let opts = parse_args([
            "report",
            "--budget",
            "1e-7",
            "--corners",
            "fast=0.8,0.85,0.9",
            "--corner",
            "fast",
            "d.spef",
        ])
        .unwrap();
        assert_eq!(opts.corners.as_deref(), Some("fast=0.8,0.85,0.9"));
        assert_eq!(opts.corner.as_deref(), Some("fast"));

        // serve and eco accept --corners; --corner is report-only; the
        // single-tree mode refuses both.
        assert!(parse_args(["serve", "--budget", "1e-7", "--corners", "c.spec", "d.spef"]).is_ok());
        assert!(parse_args([
            "eco",
            "--budget",
            "1e-7",
            "--corners",
            "c.spec",
            "d.spef",
            "e.eco"
        ])
        .is_ok());
        assert!(matches!(
            parse_args(["--corners", "c.spec", "tree.sp"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--corner", "1", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["gen-deck", "--corners", "x=1,1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn certify_over_arguments_parse_and_validate() {
        let opts = parse_args([
            "certify-over",
            "--budget",
            "1.2e-7",
            "--over-r",
            "0.8..1.4",
            "--over-c",
            "0.9..1.2",
            "a.spef",
            "b.spef",
        ])
        .unwrap();
        assert_eq!(
            opts.command,
            Command::CertifyOver {
                decks: vec!["a.spef".into(), "b.spef".into()],
                driver: "inv_4x".into(),
                over_r: (0.8, 1.4),
                over_c: (0.9, 1.2),
            }
        );

        // `--over-c` defaults to the degenerate nominal interval.
        let opts = parse_args([
            "certify-over",
            "--budget",
            "1.2e-7",
            "--over-r",
            "0.8..1.4",
            "deck.spef",
        ])
        .unwrap();
        assert!(matches!(
            opts.command,
            Command::CertifyOver {
                over_c: (c0, c1),
                ..
            } if c0 == 1.0 && c1 == 1.0
        ));

        // The box is mandatory in certify-over mode and refused elsewhere;
        // ranges must be finite, positive, and ordered; budget is mandatory.
        assert!(matches!(
            parse_args(["certify-over", "--budget", "1e-7", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--over-r", "0.8..1.4", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "certify-over",
                "--budget",
                "1e-7",
                "--over-r",
                "1.4..0.8",
                "d.spef"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "certify-over",
                "--budget",
                "1e-7",
                "--over-r",
                "nope",
                "d.spef"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["certify-over", "--over-r", "0.8..1.4", "d.spef"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn corner_reports_select_lanes_and_keep_nominal_bytes() {
        let set = load_corner_set("fast=0.8,0.85,0.9;slow=1.3,1.2").unwrap();
        assert_eq!(set.len(), 3);
        assert!(matches!(
            load_corner_set("fast=0,1"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            load_corner_set("/no/such/spec.corners"),
            Err(CliError::Usage(_))
        ));

        let texts = vec![ECO_DECK.to_string()];
        let nominal = deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, None, None).unwrap();
        // Installing corners leaves the default (lane-0) report
        // byte-identical to the single-corner rendering.
        let with = deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), None).unwrap();
        assert_eq!(nominal.text, with.text);
        let slow = deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), Some("slow")).unwrap();
        assert_ne!(slow.text, nominal.text);
        let by_index = deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), Some("2")).unwrap();
        assert_eq!(by_index.text, slow.text);
        // Every scale of `slow` exceeds 1, so it is the worst corner.
        let worst =
            deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), Some("worst")).unwrap();
        assert_eq!(worst.text, slow.text);
        assert!(matches!(
            deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), Some("bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, Some(&set), Some("9")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn eco_sessions_install_corners_and_keep_applying_edits() {
        let mut opts = eco_opts(60e-9);
        opts.corners = Some("fast=0.8,0.85,0.9;slow=1.3,1.2,1.1".into());
        let (mut session, header) = EcoSession::new(ECO_DECK, &opts, None).unwrap();
        assert!(header.contains("corners: nominal,fast,slow"), "{header}");
        let ScriptLine::Edits(edits) = parse_eco_script_line(1, "setcap slow y 1.2e-12").unwrap()
        else {
            panic!("expected edits");
        };
        assert!(session.apply(&edits[0]).unwrap().contains("edit    1"));
        assert!(session.footer().contains("final certification"));
    }

    #[test]
    fn bench_client_and_gen_deck_arguments_parse_and_validate() {
        let opts = parse_args([
            "bench-client",
            "--connections",
            "8",
            "--requests",
            "250",
            "--seed",
            "42",
            "--eco-fraction",
            "0.25",
            "--shards",
            "4",
            "--out",
            "/tmp/bench.json",
            "--shutdown",
            "127.0.0.1:7411",
            "deck.spef",
        ])
        .unwrap();
        assert_eq!(
            opts.command,
            Command::BenchClient {
                addr: "127.0.0.1:7411".into(),
                deck: "deck.spef".into(),
                connections: 8,
                requests: 250,
                seed: 42,
                eco_fraction: 0.25,
                shards: 4,
                out: "/tmp/bench.json".into(),
                shutdown: true,
            }
        );

        // Defaults.
        let opts = parse_args(["bench-client", "127.0.0.1:7411", "deck.spef"]).unwrap();
        assert_eq!(
            opts.command,
            Command::BenchClient {
                addr: "127.0.0.1:7411".into(),
                deck: "deck.spef".into(),
                connections: 4,
                requests: 100,
                seed: 1,
                eco_fraction: 0.0,
                shards: 1,
                out: "target/BENCH_serve.json".into(),
                shutdown: false,
            }
        );

        let opts = parse_args(["gen-deck", "--nets", "9", "--seed", "3"]).unwrap();
        assert_eq!(opts.command, Command::GenDeck { nets: 9, seed: 3 });
        assert_eq!(
            parse_args(["gen-deck"]).unwrap().command,
            Command::GenDeck { nets: 64, seed: 1 }
        );

        // Mode-mismatched flags are refused rather than ignored.
        assert!(matches!(
            parse_args(["bench-client", "127.0.0.1:1", "d.spef", "--nets", "4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["gen-deck", "--connections", "4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["bench-client", "--eco-fraction", "1.5", "a", "b"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--seed", "3", "tree.sp"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["bench-client", "only-addr"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn deck_report_renders_the_design_report() {
        let texts = vec![ECO_DECK.to_string()];
        let report = deck_report(&texts, "inv_4x", 0.5, 60e-9, 1, None, None).unwrap();
        assert_eq!(report.certification, Some(Certification::Pass));
        assert!(report.text.contains("timing report"), "{}", report.text);
        assert!(report.text.contains("worst slack"), "{}", report.text);
        // Both deck nets produced endpoints.
        assert!(report.text.contains("fast/x") && report.text.contains("slow/y"));

        // Duplicate net names across decks are rejected (the nets collide).
        let err = deck_report(
            &[ECO_DECK.to_string(), ECO_DECK.to_string()],
            "inv_4x",
            0.5,
            60e-9,
            1,
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err:?}");

        // A bad driver cell is an analysis error.
        let err = deck_report(&texts, "nand_999x", 0.5, 60e-9, 1, None, None).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err:?}");
    }

    #[test]
    fn eco_script_parses_every_directive_and_flags_bad_tokens() {
        let script = "\
# a comment line
setcap fast x 2e-15
setres fast x 120 # trailing comment
setline slow y 90 3e-14
graft slow y tap1 50 1e-14
prune slow tap1
";
        let edits = parse_eco_script(script).unwrap();
        assert_eq!(edits.len(), 5);
        assert_eq!(edits[0].line, 2);
        assert_eq!(edits[0].edit.net, "fast");
        assert!(matches!(edits[4].edit.kind, EcoEditKind::Prune { .. }));

        for (bad, needle) in [
            (
                "resize fast x 1
",
                "`resize`",
            ),
            (
                "setcap fast x nope
",
                "`nope`",
            ),
            (
                "setcap fast x
",
                "takes 3 fields",
            ),
            (
                "graft slow y tap 50
",
                "takes 5 fields",
            ),
        ] {
            let err = parse_eco_script(bad).unwrap_err();
            let CliError::Script(message) = &err else {
                panic!("expected script error, got {err:?}");
            };
            assert!(
                message.contains("line 1") && message.contains(needle),
                "{message}"
            );
        }
    }

    #[test]
    fn multi_edit_lines_split_on_semicolons_and_number_their_edits() {
        let script = "setcap fast x 2e-15; setres fast x 120; setcap slow y 1e-13\nprune slow y\n";
        let edits = parse_eco_script(script).unwrap();
        assert_eq!(edits.len(), 4);
        assert_eq!(
            edits
                .iter()
                .map(|e| (e.line, e.index, e.count))
                .collect::<Vec<_>>(),
            vec![(1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 1, 1)]
        );
        assert_eq!(edits[1].location(), "line 1, edit 2");
        assert_eq!(edits[3].location(), "line 2");

        // Parse errors inside a multi-edit line carry the edit index.
        let err = parse_eco_script("setcap fast x 1e-15; resize fast x 2\n").unwrap_err();
        let CliError::Script(message) = &err else {
            panic!("expected script error, got {err:?}");
        };
        assert!(
            message.contains("line 1, edit 2") && message.contains("`resize`"),
            "{message}"
        );
        // Trailing/doubled separators are harmless.
        assert_eq!(
            parse_eco_script("setcap fast x 1e-15;;\n").unwrap().len(),
            1
        );
    }

    #[test]
    fn quit_directive_ends_the_script() {
        let edits = parse_eco_script("setcap fast x 1e-15\nquit\nsetcap fast x 2e-15\n").unwrap();
        assert_eq!(edits.len(), 1);
        assert!(matches!(
            parse_eco_script_line(3, "  quit  # done"),
            Ok(ScriptLine::Quit)
        ));
        assert!(matches!(
            parse_eco_script_line(1, "# note"),
            Ok(ScriptLine::Empty)
        ));
        // `quit` may not share a line with edits, and stray tokens are
        // rejected.
        assert!(parse_eco_script("setcap fast x 1e-15; quit\n").is_err());
        assert!(parse_eco_script("quit now\n").is_err());
    }

    #[test]
    fn session_applies_multi_edit_lines_atomically_per_edit() {
        // The failing middle edit of a multi-edit line is reported with
        // its index while the edits around it land (the engine is
        // transactional per apply).
        let opts = eco_opts(60e-9);
        let (mut session, header) = EcoSession::new(ECO_DECK, &opts, None).unwrap();
        assert!(header.contains("streaming edits"), "{header}");
        let ScriptLine::Edits(edits) = parse_eco_script_line(
            7,
            "setcap slow y 1.2e-12; setcap slow ghost 1e-15; setcap fast x 2e-15",
        )
        .unwrap() else {
            panic!("expected edits");
        };
        assert!(session.apply(&edits[0]).unwrap().contains("edit    1"));
        let err = session.apply(&edits[1]).unwrap_err();
        let CliError::Script(message) = &err else {
            panic!("expected script error, got {err:?}");
        };
        assert!(
            message.contains("line 7, edit 2") && message.contains("`ghost`"),
            "{message}"
        );
        // The session keeps serving after the failure.
        assert!(session.apply(&edits[2]).unwrap().contains("edit    2"));
        assert!(session.footer().contains("final certification"));
    }

    #[test]
    fn eco_session_reports_slack_deltas_and_verdicts() {
        let opts = eco_opts(60e-9);
        let script = "setcap slow y 1.2e-12\nsetcap slow y 0.3e-12\n";
        let outcome = run_eco(ECO_DECK, script, &opts).unwrap();
        assert_eq!(outcome.certification, Certification::Pass);
        assert!(outcome.text.contains("baseline"), "{}", outcome.text);
        assert!(outcome.text.contains("edit    1"), "{}", outcome.text);
        assert!(outcome.text.contains("delta"), "{}", outcome.text);
        assert!(outcome.text.contains("final certification: pass"));

        // An impossible budget fails certification.
        let fail = run_eco(ECO_DECK, script, &eco_opts(1e-12)).unwrap();
        assert_eq!(fail.certification, Certification::Fail);
    }

    #[test]
    fn eco_unknown_references_carry_line_and_token() {
        let opts = eco_opts(60e-9);
        let err = run_eco(
            ECO_DECK,
            "setcap ghost x 1e-15
",
            &opts,
        )
        .unwrap_err();
        let CliError::Script(message) = &err else {
            panic!("expected script error, got {err:?}");
        };
        assert!(
            message.contains("line 1") && message.contains("`ghost`"),
            "{message}"
        );

        let err = run_eco(
            ECO_DECK,
            "setcap fast x 1e-15
prune fast nope
",
            &opts,
        )
        .unwrap_err();
        let CliError::Script(message) = &err else {
            panic!("expected script error, got {err:?}");
        };
        assert!(
            message.contains("line 2") && message.contains("`nope`"),
            "{message}"
        );
    }
}
