//! # rctree-cli
//!
//! The `rcdelay` command-line tool: Penfield–Rubinstein delay-bound analysis
//! for RC-tree netlists from the shell.
//!
//! ```text
//! rcdelay [OPTIONS] <netlist-file>
//! rcdelay eco [OPTIONS] --budget <seconds> <deck.spef> <edit-script>
//! rcdelay report --budget <seconds> <deck.spef>...
//! rcdelay certify-over --budget <seconds> --over-r <lo..hi> <deck.spef>...
//! rcdelay serve --budget <seconds> [--port N] <deck.spef>...
//! rcdelay bench-client [OPTIONS] <host:port> <deck.spef>
//! rcdelay profile --budget <seconds> [--json] <deck.spef>...
//! rcdelay scrape [--stable] [--prev <file>] [--out <file>] <host:port>
//! rcdelay gen-deck [--nets N] [--seed N]
//! ```
//!
//! [`USAGE`] lists every flag and the modes that take it; [`parse_args`]
//! refuses a flag in any other mode.
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
//! a process; `main.rs` is a thin wrapper that prints what they return.  One
//! table decides which mode takes which flag.  Every deck mode streams its
//! decks from their paths ([`read_deck_nets`]): `rcdelay report` runs
//! [`Design::analyze_corners`] (one nominal lane without `--corners`),
//! `rcdelay certify-over` certifies the symbolic lane of a published
//! snapshot ([`Design::publish`]), and `rcdelay eco` drives an
//! [`EcoSession`] opened on the deck's path.

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

/// The modes of `rcdelay`, selected by the first argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Tree,
    Eco,
    DeckReport,
    CertifyOver,
    Serve,
    Profile,
    BenchClient,
    Scrape,
    GenDeck,
}

/// Every mode: the first argument that selects it (empty for the
/// single-tree report, the default), and the least and the most operands
/// it takes.
const MODES: [(Mode, &str, usize, usize); 9] = [
    (Mode::Tree, "", 1, 1),
    (Mode::Eco, "eco", 2, 2),
    (Mode::DeckReport, "report", 1, usize::MAX),
    (Mode::CertifyOver, "certify-over", 1, usize::MAX),
    (Mode::Serve, "serve", 1, usize::MAX),
    (Mode::Profile, "profile", 1, usize::MAX),
    (Mode::BenchClient, "bench-client", 2, 2),
    (Mode::Scrape, "scrape", 1, 1),
    (Mode::GenDeck, "gen-deck", 0, 0),
];

/// Every mode.
const ALL: &[Mode] = &[
    Mode::Tree,
    Mode::Eco,
    Mode::DeckReport,
    Mode::CertifyOver,
    Mode::Serve,
    Mode::Profile,
    Mode::BenchClient,
    Mode::Scrape,
    Mode::GenDeck,
];

/// The modes that build a design from SPEF decks; each requires
/// `--budget`.
const DECKS: &[Mode] = &[
    Mode::Eco,
    Mode::DeckReport,
    Mode::CertifyOver,
    Mode::Serve,
    Mode::Profile,
];

/// The modes that read a netlist: the single-tree report, the deck modes
/// and the load generator, which reads its server's deck.
const READERS: &[Mode] = &[
    Mode::Tree,
    Mode::Eco,
    Mode::DeckReport,
    Mode::CertifyOver,
    Mode::Serve,
    Mode::Profile,
    Mode::BenchClient,
];

/// Every flag: its name, whether it takes a value, and the modes that
/// accept it.  [`parse_args`] refuses a flag in any other mode.
const FLAGS: [(&str, bool, &[Mode]); 25] = [
    ("--threshold", true, ALL),
    ("--format", true, READERS),
    ("--budget", true, READERS),
    ("--jobs", true, READERS),
    ("--driver", true, DECKS),
    ("--net", true, &[Mode::Tree]),
    ("--voltage-at", true, &[Mode::Tree]),
    ("--watch", false, &[Mode::Eco]),
    (
        "--corners",
        true,
        &[Mode::Eco, Mode::DeckReport, Mode::Serve],
    ),
    ("--corner", true, &[Mode::DeckReport]),
    ("--over-r", true, &[Mode::CertifyOver]),
    ("--over-c", true, &[Mode::CertifyOver]),
    ("--port", true, &[Mode::Serve]),
    ("--slow-us", true, &[Mode::Serve]),
    ("--shards", true, &[Mode::Serve, Mode::BenchClient]),
    ("--connections", true, &[Mode::BenchClient]),
    ("--requests", true, &[Mode::BenchClient]),
    ("--eco-fraction", true, &[Mode::BenchClient]),
    ("--shutdown", false, &[Mode::BenchClient]),
    ("--out", true, &[Mode::BenchClient, Mode::Scrape]),
    ("--json", false, &[Mode::Profile]),
    ("--stable", false, &[Mode::Scrape]),
    ("--prev", true, &[Mode::Scrape]),
    ("--nets", true, &[Mode::GenDeck]),
    ("--seed", true, &[Mode::BenchClient, Mode::GenDeck]),
];

/// How a mode is named in a usage message.
fn mode_title(word: &str) -> String {
    match word {
        "" => "`rcdelay <netlist-file>`".to_string(),
        word => format!("`rcdelay {word}`"),
    }
}

/// Parses command-line arguments (excluding the program name).
///
/// The first argument selects the mode; every later one is a flag, with
/// its value when it takes one, or an operand.  One table says which modes
/// accept each flag, and a flag the mode does not accept is refused
/// rather than ignored.  Values are typed once the whole line is read:
/// every occurrence of a flag must parse, and the last one wins.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown flags, flags of another mode,
/// missing values, malformed numbers, or a wrong number of operands.
/// `--help` is reported as a usage error carrying the usage text so the
/// caller can print it and exit successfully.
pub fn parse_args<I, S>(args: I) -> Result<Options, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter().map(|a| a.as_ref().to_string()).peekable();
    let (mode, word, least, most) = args
        .peek()
        .and_then(|first| {
            MODES
                .iter()
                .find(|m| !m.1.is_empty() && m.1 == first.as_str())
        })
        .copied()
        .unwrap_or(MODES[0]);
    if mode != Mode::Tree {
        args.next();
    }
    let title = mode_title(word);

    // Each flag occurrence, in order, with its value (empty for a switch).
    let mut given: Vec<(&str, String)> = Vec::new();
    let mut positionals: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(CliError::Usage(USAGE.to_string()));
        }
        let Some(&(flag, takes_value, modes)) = FLAGS.iter().find(|f| f.0 == arg) else {
            if arg.starts_with('-') && arg != "-" {
                return Err(CliError::Usage(format!("unknown option `{arg}`")));
            }
            positionals.push(arg);
            continue;
        };
        if !modes.contains(&mode) {
            let takers: Vec<String> = MODES
                .iter()
                .filter(|m| modes.contains(&m.0))
                .map(|m| mode_title(m.1))
                .collect();
            return Err(CliError::Usage(format!(
                "{flag} only applies to {}",
                takers.join(", ")
            )));
        }
        let value = match takes_value {
            true => args
                .next()
                .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))?,
            false => String::new(),
        };
        given.push((flag, value));
    }
    if !(least..=most).contains(&positionals.len()) {
        let expected = match most {
            usize::MAX => format!("at least {least}"),
            _ => least.to_string(),
        };
        return Err(CliError::Usage(format!(
            "{title} takes {expected} operand(s), not {}",
            positionals.len()
        )));
    }

    let on = |flag: &str| given.iter().any(|(name, _)| *name == flag);
    let mut opts = Options::default();
    let format = last(&given, "--format", input_format)?;
    if READERS.contains(&mode) && mode != Mode::Tree {
        if format.is_some_and(|f| f != InputFormat::Spef) {
            return Err(CliError::Usage(format!(
                "{title} only supports --format spef"
            )));
        }
        opts.format = InputFormat::Spef;
    } else if let Some(format) = format {
        opts.format = format;
    }
    if let Some(threshold) = last(&given, "--threshold", number)? {
        opts.threshold = threshold;
    }
    opts.net = last(&given, "--net", string)?;
    opts.budget = last(&given, "--budget", number)?;
    opts.voltage_at = last(&given, "--voltage-at", number)?;
    opts.jobs = last(&given, "--jobs", positive)?;
    opts.corners = last(&given, "--corners", string)?;
    opts.corner = last(&given, "--corner", string)?;
    if DECKS.contains(&mode) && opts.budget.is_none() {
        return Err(CliError::Usage(format!(
            "{title} requires --budget (slack needs a required time)"
        )));
    }

    let driver = last(&given, "--driver", string)?.unwrap_or_else(|| "inv_4x".to_string());
    let shards = last(&given, "--shards", positive)?.unwrap_or(1);
    let seed = last(&given, "--seed", unsigned)?.unwrap_or(1);
    let out = last(&given, "--out", string)?;
    opts.path = match mode {
        Mode::Scrape | Mode::GenDeck => String::new(),
        Mode::BenchClient => positionals[1].clone(),
        _ => positionals[0].clone(),
    };
    opts.command = match mode {
        Mode::Tree => Command::Report,
        Mode::Eco => Command::Eco {
            script: positionals[1].clone(),
            driver,
            watch: on("--watch"),
        },
        Mode::DeckReport => Command::DeckReport {
            decks: positionals,
            driver,
        },
        Mode::CertifyOver => Command::CertifyOver {
            decks: positionals,
            driver,
            over_r: last(&given, "--over-r", scale_range)?.ok_or_else(|| {
                CliError::Usage(
                    "certify-over mode requires --over-r <lo..hi> (the certification box)".into(),
                )
            })?,
            over_c: last(&given, "--over-c", scale_range)?.unwrap_or((1.0, 1.0)),
        },
        Mode::Serve => Command::Serve {
            decks: positionals,
            driver,
            port: last(&given, "--port", port)?.unwrap_or(0),
            shards,
            slow_us: last(&given, "--slow-us", positive)?.map(|n| n as u64),
        },
        Mode::Profile => Command::Profile {
            decks: positionals,
            driver,
            json: on("--json"),
        },
        Mode::BenchClient => Command::BenchClient {
            addr: positionals[0].clone(),
            deck: positionals[1].clone(),
            connections: last(&given, "--connections", positive)?.unwrap_or(4),
            requests: last(&given, "--requests", positive)?.unwrap_or(100),
            seed,
            eco_fraction: last(&given, "--eco-fraction", fraction)?.unwrap_or(0.0),
            shards,
            out: out.unwrap_or_else(|| "target/BENCH_serve.json".into()),
            shutdown: on("--shutdown"),
        },
        Mode::Scrape => Command::Scrape {
            addr: positionals[0].clone(),
            stable: on("--stable"),
            out,
            prev: last(&given, "--prev", string)?,
        },
        Mode::GenDeck => Command::GenDeck {
            nets: last(&given, "--nets", positive)?.unwrap_or(64),
            seed,
        },
    };
    if !(opts.threshold > 0.0 && opts.threshold < 1.0) {
        return Err(CliError::Usage(format!(
            "threshold {} must lie strictly between 0 and 1",
            opts.threshold
        )));
    }
    Ok(opts)
}

/// The value of `flag` read by `parse`, `None` when it was not given:
/// every occurrence must parse, and the last one wins.
fn last<T>(
    given: &[(&str, String)],
    flag: &str,
    parse: impl Fn(&str, &str) -> Result<T, CliError>,
) -> Result<Option<T>, CliError> {
    let mut value = None;
    for (name, text) in given {
        if *name == flag {
            value = Some(parse(flag, text)?);
        }
    }
    Ok(value)
}

// The value parsers of `last`: each reads the text given to `flag`.

fn string(_: &str, text: &str) -> Result<String, CliError> {
    Ok(text.to_string())
}

fn number(flag: &str, text: &str) -> Result<f64, CliError> {
    text.parse::<f64>()
        .map_err(|_| CliError::Usage(format!("{flag}: `{text}` is not a number")))
}

fn positive(flag: &str, text: &str) -> Result<usize, CliError> {
    text.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| CliError::Usage(format!("{flag}: `{text}` is not a positive integer")))
}

fn unsigned(flag: &str, text: &str) -> Result<u64, CliError> {
    text.parse::<u64>()
        .map_err(|_| CliError::Usage(format!("{flag}: `{text}` is not an unsigned integer")))
}

fn port(flag: &str, text: &str) -> Result<u16, CliError> {
    text.parse::<u16>()
        .map_err(|_| CliError::Usage(format!("{flag}: `{text}` is not a port number")))
}

fn fraction(flag: &str, text: &str) -> Result<f64, CliError> {
    let value = number(flag, text)?;
    match (0.0..=1.0).contains(&value) {
        true => Ok(value),
        false => Err(CliError::Usage(format!(
            "{flag} {value} must lie in [0, 1]"
        ))),
    }
}

fn scale_range(flag: &str, text: &str) -> Result<(f64, f64), CliError> {
    rctree_core::algebra::parse_scale_range(text)
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

fn input_format(_: &str, text: &str) -> Result<InputFormat, CliError> {
    match text {
        "spice" => Ok(InputFormat::Spice),
        "spef" => Ok(InputFormat::Spef),
        "expr" => Ok(InputFormat::Expr),
        other => Err(CliError::Usage(format!("unknown format `{other}`"))),
    }
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

/// Builds the per-net timing design of one or more SPEF decks: every
/// extracted net becomes one driven stage with its leaves as primary
/// outputs, exactly as in eco mode ([`Design::from_extracted`]).  Each
/// deck streams through [`read_deck_nets`], which is what keeps
/// million-net ingestion within a bounded text footprint.  Deck
/// boundaries are invisible to the design — net names must be unique
/// across all decks (duplicates are rejected).
///
/// # Errors
///
/// * [`CliError::Netlist`] if a deck cannot be opened, read or parsed;
/// * [`CliError::Analysis`] if the design cannot be built (unknown driver
///   cell, duplicate net names across decks).
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

/// Runs the deck-level design report (`rcdelay report`) without
/// rendering it: the decks stream through [`read_deck_nets`], `corners`
/// (when given) is installed, and [`Design::analyze_corners`] times every
/// lane — one nominal lane without corners, the same analysis
/// [`Design::analyze_with_jobs`] runs.  `corner` selects the printed lane
/// (index, name, or `worst` against `budget`; nominal by default).  The
/// selected lane's [`rctree_sta::TimingReport`] is **byte-identical** to
/// the payload of the server's `REPORT` verb on the same decks (the
/// server's snapshot path is pinned bit-identical to `analyze`), and
/// `rcdelay report` writes it straight to its output.
///
/// # Errors
///
/// As for [`deck_design_from_paths`], plus analysis errors, and
/// [`CliError::Usage`] for a `corner` selector the analysis does not
/// have.
pub fn analyze_deck_from_paths(
    paths: &[String],
    driver: &str,
    threshold: f64,
    budget: f64,
    jobs: usize,
    corners: Option<&CornerSet>,
    corner: Option<&str>,
) -> Result<DeckReport, CliError> {
    let mut design = deck_design_from_paths(paths, driver, jobs)?;
    if let Some(set) = corners {
        design.set_corners(set.clone());
    }
    let required = Seconds::new(budget);
    let analysis = design
        .analyze_corners(threshold, required, jobs)
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let lane = match corner {
        None => 0,
        Some(token) => {
            resolve_corner_selector(analysis.names(), token, analysis.worst_against(required).0)?
        }
    };
    Ok(DeckReport {
        _design: design,
        analysis,
        lane,
    })
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
    let mut design = deck_design_from_paths(paths, driver, jobs)?;
    let snapshot = design
        .publish(threshold, Seconds::new(budget), jobs)
        .map_err(|e| CliError::Analysis(e.to_string()))?;
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
    Ok((report, (design, snapshot)))
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

/// A deck's analysed design, every lane's report and the selected lane:
/// what `rcdelay report` prints, kept with the design it came from so the
/// caller decides when, or whether, their memory is freed.
#[derive(Debug)]
pub struct DeckReport {
    /// Held only so that its drop is the caller's to make or skip.
    _design: Design,
    analysis: CornerAnalysis,
    lane: usize,
}

impl DeckReport {
    /// The selected lane's report.
    pub fn report(&self) -> &TimingReport {
        self.analysis
            .report(self.lane)
            .expect("resolved corner index is in range")
    }
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

/// A live ECO session over a parsed deck: the incremental design plus the
/// rolling slack/certification state.  `rcdelay eco`'s batch mode
/// ([`EcoSession::apply_all`]) and its `--watch` streaming loop both
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
    /// Streams the deck from its path (or standard input for `-`) through
    /// [`read_deck_nets`], builds the per-net design, runs the
    /// cache-warming baseline analysis, and returns the session plus its
    /// header text (the `eco session:` / `baseline:` lines).
    ///
    /// `script_edits` is the edit count shown in the header; streaming
    /// callers that cannot know it pass `None`.
    ///
    /// # Errors
    ///
    /// * [`CliError::Usage`] outside eco mode or without a budget;
    /// * [`CliError::Netlist`] if the deck cannot be opened, read or
    ///   parsed;
    /// * [`CliError::Analysis`] if the design cannot be built or analysed.
    pub fn open(
        path: &str,
        opts: &Options,
        script_edits: Option<usize>,
    ) -> Result<(EcoSession, String), CliError> {
        let Command::Eco { driver, .. } = &opts.command else {
            return Err(CliError::Usage("an ECO session requires eco mode".into()));
        };
        let budget = opts
            .budget
            .ok_or_else(|| CliError::Usage("eco mode requires --budget".into()))?;
        let jobs = opts.jobs.unwrap_or_else(rctree_par::default_jobs);
        let nets = read_deck_nets(path, jobs)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_sta::EcoEditKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Every flag in every mode, each case the mode's smallest valid line
    /// plus that flag with a valid value: it parses exactly in the modes
    /// listed, and is a usage error in every other.  Each smallest line
    /// parses to the options written out here.
    #[test]
    fn every_flag_is_accepted_exactly_by_its_modes() {
        let decks = vec!["d.spef".to_string()];
        let driver = "inv_4x".to_string();
        let deck_opts = |command| Options {
            command,
            path: "d.spef".into(),
            format: InputFormat::Spef,
            budget: Some(1e-7),
            ..Options::default()
        };
        let modes: [(&str, Vec<&str>, Options); 9] = [
            (
                "tree",
                vec!["t.sp"],
                Options {
                    command: Command::Report,
                    path: "t.sp".into(),
                    format: InputFormat::Spice,
                    ..Options::default()
                },
            ),
            (
                "eco",
                vec!["eco", "--budget", "1e-7", "d.spef", "e.eco"],
                deck_opts(Command::Eco {
                    script: "e.eco".into(),
                    driver: driver.clone(),
                    watch: false,
                }),
            ),
            (
                "report",
                vec!["report", "--budget", "1e-7", "d.spef"],
                deck_opts(Command::DeckReport {
                    decks: decks.clone(),
                    driver: driver.clone(),
                }),
            ),
            (
                "certify-over",
                vec![
                    "certify-over",
                    "--budget",
                    "1e-7",
                    "--over-r",
                    "0.8..1.4",
                    "d.spef",
                ],
                deck_opts(Command::CertifyOver {
                    decks: decks.clone(),
                    driver: driver.clone(),
                    over_r: (0.8, 1.4),
                    over_c: (1.0, 1.0),
                }),
            ),
            (
                "serve",
                vec!["serve", "--budget", "1e-7", "d.spef"],
                deck_opts(Command::Serve {
                    decks: decks.clone(),
                    driver: driver.clone(),
                    port: 0,
                    shards: 1,
                    slow_us: None,
                }),
            ),
            (
                "profile",
                vec!["profile", "--budget", "1e-7", "d.spef"],
                deck_opts(Command::Profile {
                    decks: decks.clone(),
                    driver: driver.clone(),
                    json: false,
                }),
            ),
            (
                "bench-client",
                vec!["bench-client", "127.0.0.1:1", "d.spef"],
                Options {
                    command: Command::BenchClient {
                        addr: "127.0.0.1:1".into(),
                        deck: "d.spef".into(),
                        connections: 4,
                        requests: 100,
                        seed: 1,
                        eco_fraction: 0.0,
                        shards: 1,
                        out: "target/BENCH_serve.json".into(),
                        shutdown: false,
                    },
                    path: "d.spef".into(),
                    format: InputFormat::Spef,
                    ..Options::default()
                },
            ),
            (
                "scrape",
                vec!["scrape", "127.0.0.1:1"],
                Options {
                    command: Command::Scrape {
                        addr: "127.0.0.1:1".into(),
                        stable: false,
                        out: None,
                        prev: None,
                    },
                    path: String::new(),
                    format: InputFormat::Spice,
                    ..Options::default()
                },
            ),
            (
                "gen-deck",
                vec!["gen-deck"],
                Options {
                    command: Command::GenDeck { nets: 64, seed: 1 },
                    path: String::new(),
                    format: InputFormat::Spice,
                    ..Options::default()
                },
            ),
        ];
        let readers = "tree eco report certify-over serve profile bench-client";
        let flags: [(&str, Option<&str>, &str); 25] = [
            (
                "--threshold",
                Some("0.4"),
                "tree eco report certify-over serve profile bench-client scrape gen-deck",
            ),
            ("--format", Some("spef"), readers),
            ("--budget", Some("2e-7"), readers),
            ("--jobs", Some("2"), readers),
            (
                "--driver",
                Some("buf_8x"),
                "eco report certify-over serve profile",
            ),
            ("--net", Some("n1"), "tree"),
            ("--voltage-at", Some("1e-9"), "tree"),
            ("--watch", None, "eco"),
            ("--corners", Some("fast=0.8,0.9"), "eco report serve"),
            ("--corner", Some("0"), "report"),
            ("--over-r", Some("0.9..1.1"), "certify-over"),
            ("--over-c", Some("0.9..1.2"), "certify-over"),
            ("--port", Some("7411"), "serve"),
            ("--slow-us", Some("500"), "serve"),
            ("--shards", Some("2"), "serve bench-client"),
            ("--connections", Some("3"), "bench-client"),
            ("--requests", Some("5"), "bench-client"),
            ("--eco-fraction", Some("0.5"), "bench-client"),
            ("--shutdown", None, "bench-client"),
            ("--out", Some("o.json"), "bench-client scrape"),
            ("--json", None, "profile"),
            ("--stable", None, "scrape"),
            ("--prev", Some("p.prom"), "scrape"),
            ("--nets", Some("9"), "gen-deck"),
            ("--seed", Some("3"), "bench-client gen-deck"),
        ];
        for (mode, line, expected) in &modes {
            assert_eq!(parse_args(line).as_ref(), Ok(expected), "{mode}");
            for (flag, value, takers) in flags {
                let mut case = line.clone();
                case.push(flag);
                case.extend(value);
                let parsed = parse_args(&case);
                if takers.split(' ').any(|m| m == *mode) {
                    assert!(parsed.is_ok(), "{case:?}: {parsed:?}");
                } else {
                    assert!(
                        matches!(parsed, Err(CliError::Usage(_))),
                        "{case:?}: {parsed:?}"
                    );
                }
            }
        }
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
            path: write_temp("eco.spef", ECO_DECK),
            format: InputFormat::Spef,
            budget: Some(budget),
            ..Options::default()
        }
    }

    /// Writes `contents` to a fresh file named after `name` in this test
    /// process's own temporary directory and returns its path: every call
    /// gets a file of its own, so tests running in parallel share none.
    fn write_temp(name: &str, contents: &str) -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("rctree-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)));
        std::fs::write(&path, contents).expect("temp file");
        path.to_string_lossy().into_owned()
    }

    /// What `rcdelay report` prints for the deck files at `paths`, and its
    /// verdict, at threshold 0.5, a 60 ns budget and one job.
    fn deck_text(
        paths: &[String],
        driver: &str,
        corners: Option<&CornerSet>,
        corner: Option<&str>,
    ) -> Result<Report, CliError> {
        let deck = analyze_deck_from_paths(paths, driver, 0.5, 60e-9, 1, corners, corner)?;
        let report = deck.report();
        Ok(Report {
            text: report.to_string(),
            certification: Some(report.certification()),
        })
    }

    /// `rcdelay eco`'s batch run of `script` over the deck at `opts.path`:
    /// the per-edit log and the final verdict.
    fn eco_batch(script: &str, opts: &Options) -> Result<(String, Certification), CliError> {
        let edits = parse_eco_script(script)?;
        let (mut session, mut text) = EcoSession::open(&opts.path, opts, Some(edits.len()))?;
        session.apply_all(&edits, &mut text)?;
        Ok((text, session.certification()))
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

        // --shards is serve/bench-client-only and must be positive.
        assert!(matches!(
            parse_args(["report", "--budget", "1e-7", "--shards", "4", "d.spef"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["serve", "--budget", "1e-7", "--shards", "0", "d.spef"]),
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

        let paths = vec![write_temp("eco.spef", ECO_DECK)];
        let nominal = deck_text(&paths, "inv_4x", None, None).unwrap();
        // Installing corners leaves the default (lane-0) report
        // byte-identical to the single-corner rendering.
        let with = deck_text(&paths, "inv_4x", Some(&set), None).unwrap();
        assert_eq!(nominal.text, with.text);
        let slow = deck_text(&paths, "inv_4x", Some(&set), Some("slow")).unwrap();
        assert_ne!(slow.text, nominal.text);
        let by_index = deck_text(&paths, "inv_4x", Some(&set), Some("2")).unwrap();
        assert_eq!(by_index.text, slow.text);
        // Every scale of `slow` exceeds 1, so it is the worst corner.
        let worst = deck_text(&paths, "inv_4x", Some(&set), Some("worst")).unwrap();
        assert_eq!(worst.text, slow.text);
        assert!(matches!(
            deck_text(&paths, "inv_4x", Some(&set), Some("bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            deck_text(&paths, "inv_4x", Some(&set), Some("9")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn eco_sessions_install_corners_and_keep_applying_edits() {
        let mut opts = eco_opts(60e-9);
        opts.corners = Some("fast=0.8,0.85,0.9;slow=1.3,1.2,1.1".into());
        let (mut session, header) = EcoSession::open(&opts.path, &opts, None).unwrap();
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
        let paths = vec![write_temp("eco.spef", ECO_DECK)];
        let report = deck_text(&paths, "inv_4x", None, None).unwrap();
        assert_eq!(report.certification, Some(Certification::Pass));
        assert!(report.text.contains("timing report"), "{}", report.text);
        assert!(report.text.contains("worst slack"), "{}", report.text);
        // Both deck nets produced endpoints.
        assert!(report.text.contains("fast/x") && report.text.contains("slow/y"));

        // Duplicate net names across decks are rejected (the nets collide).
        let err =
            deck_text(&[paths[0].clone(), paths[0].clone()], "inv_4x", None, None).unwrap_err();
        assert!(matches!(err, CliError::Analysis(_)), "{err:?}");

        // A bad driver cell is an analysis error.
        let err = deck_text(&paths, "nand_999x", None, None).unwrap_err();
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
        let (mut session, header) = EcoSession::open(&opts.path, &opts, None).unwrap();
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
        let (text, certification) = eco_batch(script, &opts).unwrap();
        assert_eq!(certification, Certification::Pass);
        assert!(text.contains("baseline"), "{text}");
        assert!(text.contains("edit    1"), "{text}");
        assert!(text.contains("delta"), "{text}");
        assert!(text.contains("final certification: pass"));

        // An impossible budget fails certification.
        let (_, fail) = eco_batch(script, &eco_opts(1e-12)).unwrap();
        assert_eq!(fail, Certification::Fail);
    }

    #[test]
    fn eco_unknown_references_carry_line_and_token() {
        let opts = eco_opts(60e-9);
        let err = eco_batch(
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

        let err = eco_batch(
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
