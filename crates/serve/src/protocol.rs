//! The wire protocol: request grammar and response rendering.
//!
//! Requests are single text lines; responses are blocks of zero or more
//! payload lines terminated by exactly one final line beginning with
//! `OK rev <r>` or `ERR rev <r> <message>` (see `crates/serve/README.md`
//! for the full grammar).  The revision `r` names the snapshot the
//! response was computed against, which is what makes every response
//! *attributable*: a client (or a test oracle) can replay the server's
//! accepted-edit order to revision `r` and re-derive the response
//! byte-for-byte.
//!
//! Rendering lives here as pure functions over the per-shard
//! [`DesignSnapshot`]s of a response, so the connection handlers and the
//! serial-oracle equivalence tests share one formatter — the equivalence
//! pinned by `tests/server_sessions.rs` is then exactly the concurrency
//! model (which snapshots a response saw), not accidental formatting
//! drift.  An unsharded server is the one-shard case: `REPORT`, `CERTIFY`
//! and `CERTIFY --over` go through the composed renderers over one
//! snapshot, whose final lines carry a one-entry revision vector, the
//! scalar `OK rev <r>`.  [`render_report`], [`render_certify`] and
//! [`render_certify_over`] are those one-snapshot calls.

use std::borrow::Borrow;

use rctree_core::algebra::parse_scale_range;
use rctree_core::cert::Certification;
use rctree_core::units::Seconds;
use rctree_sta::{BoxCertification, DesignSnapshot, Load, TimingReport};

/// A continuum certification box over the global wire scales: the operand
/// of `CERTIFY <budget> --over r <lo..hi> [c <lo..hi>]`.  The `c` range
/// defaults to the nominal point `(1, 1)` when omitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleBox {
    /// `r_scale` range (both ends positive and finite, `lo ≤ hi`).
    pub r: (f64, f64),
    /// `c_scale` range (both ends positive and finite, `lo ≤ hi`).
    pub c: (f64, f64),
}

/// The counted wire verbs, in wire spelling — the per-verb metric series
/// (`rctree_requests_verb_total{verb=…}` and friends) are registered for
/// exactly this set at server start, so the exposition carries every verb
/// from the first scrape.  `METRICS` and `TRACE` are deliberately absent:
/// scraping is self-excluding and moves no counters.
pub const VERBS: [&str; 7] = [
    "QUERY", "REPORT", "ECO", "CERTIFY", "STATS", "QUIT", "SHUTDOWN",
];

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `QUERY <net> [node] [--corner <k|name>] [--sens]` — cached sink
    /// windows of a net, or on-demand characteristic times and delay
    /// bounds at one interconnect node, in the selected timing corner
    /// (nominal when omitted).  `--sens` additionally reports the exact
    /// polynomial sensitivities `dT/dr`, `dT/dc` of the node's upper
    /// bound at nominal; it requires a node and cannot be combined with
    /// `--corner`.
    Query {
        /// Net name.
        net: String,
        /// Optional node name within the net's interconnect.
        node: Option<String>,
        /// Optional corner selector: a lane index or a corner name.
        corner: Option<String>,
        /// Whether to append the nominal wire-scale sensitivities.
        sens: bool,
    },
    /// `REPORT [--corner <k|name|worst>]` — the full design timing report
    /// of one corner (nominal when omitted, `worst` for the smallest-slack
    /// lane against the server budget).
    Report {
        /// Optional corner selector: a lane index, a corner name, or
        /// `worst`.
        corner: Option<String>,
    },
    /// `ECO <edit-script-line>` — one edit-script line (the `rcdelay eco`
    /// grammar; several `;`-separated directives allowed).
    Eco {
        /// The raw script line (everything after the verb).
        script: String,
    },
    /// `CERTIFY <budget-seconds> [--over r <lo..hi> [c <lo..hi>]]` —
    /// three-valued certification against an arbitrary budget; with
    /// `--over`, certified over the whole continuum box of global wire
    /// scales via the symbolic polynomial lane (the exact worst point in
    /// the box is reported, not a sampling).
    Certify {
        /// Required arrival time in seconds.
        budget: f64,
        /// Optional continuum certification box.
        over: Option<ScaleBox>,
    },
    /// `STATS` — server counters (not part of the deterministic surface).
    Stats,
    /// `METRICS [stable]` — the observability registry as Prometheus-style
    /// text.  The full exposition is byte-stable across repeated scrapes of
    /// a quiesced server; `METRICS stable` additionally drops the
    /// wall-clock-valued (volatile) families, leaving only series that are
    /// byte-identical across `RCTREE_JOBS` for the same workload.  Scraping
    /// is self-excluding: a `METRICS`/`TRACE` request moves no counter.
    Metrics {
        /// Whether to emit only the deterministic (stable) subset.
        stable: bool,
    },
    /// `TRACE <n>` — the most recent `n` finished spans as one-line
    /// records (diagnostic; not part of the deterministic surface).
    Trace {
        /// Maximum number of spans to return.
        n: usize,
    },
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — stop the whole server (connections drain, the
    /// listener closes).
    Shutdown,
}

/// Parses one request line.  Returns `Ok(None)` for blank lines (they get
/// no response), `Err(message)` for malformed requests.
///
/// Verbs are case-insensitive; net and node names are case-sensitive.
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let verb = trimmed.split_whitespace().next().expect("non-empty");
    let rest = trimmed[verb.len()..].trim();
    let mut args: Vec<&str> = rest.split_whitespace().collect();
    let exact = |args: &[&str], want: usize, usage: &str| -> Result<(), String> {
        if args.len() == want {
            Ok(())
        } else {
            Err(format!("`{verb}` takes {usage}"))
        }
    };
    // Pulls a trailing-or-anywhere `--corner <value>` out of the argument
    // list, so positional arguments parse the same with or without it.
    let take_corner = |args: &mut Vec<&str>| -> Result<Option<String>, String> {
        match args.iter().position(|a| *a == "--corner") {
            None => Ok(None),
            Some(i) if i + 1 < args.len() => {
                let value = args.remove(i + 1).to_string();
                args.remove(i);
                Ok(Some(value))
            }
            Some(_) => Err(format!("`{verb}`: --corner takes a value")),
        }
    };
    // Pulls an `--over r <lo..hi> [c <lo..hi>]` clause out of the argument
    // list.  Ranges use the core scale-range grammar (`parse_scale_range`).
    let take_over = |args: &mut Vec<&str>| -> Result<Option<ScaleBox>, String> {
        let Some(i) = args.iter().position(|a| *a == "--over") else {
            return Ok(None);
        };
        let usage = || format!("`{verb}`: --over takes `r <lo..hi> [c <lo..hi>]`");
        if args.len() < i + 3 || args[i + 1] != "r" {
            return Err(usage());
        }
        let r = parse_scale_range(args[i + 2]).map_err(|e| format!("`{verb}`: {e}"))?;
        let mut consumed = 3;
        let c = if args.len() > i + 3 && args[i + 3] == "c" {
            if args.len() < i + 5 {
                return Err(usage());
            }
            consumed = 5;
            parse_scale_range(args[i + 4]).map_err(|e| format!("`{verb}`: {e}"))?
        } else {
            (1.0, 1.0)
        };
        args.drain(i..i + consumed);
        Ok(Some(ScaleBox { r, c }))
    };
    // Pulls a bare flag out of the argument list.
    let take_flag = |args: &mut Vec<&str>, flag: &str| -> bool {
        match args.iter().position(|a| *a == flag) {
            Some(i) => {
                args.remove(i);
                true
            }
            None => false,
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            let corner = take_corner(&mut args)?;
            let sens = take_flag(&mut args, "--sens");
            if sens && corner.is_some() {
                return Err("`QUERY`: --sens cannot be combined with --corner \
                            (sensitivities are nominal wire-scale derivatives)"
                    .into());
            }
            match args.as_slice() {
                [_net] if sens => Err("`QUERY`: --sens requires a node".into()),
                [net] => Ok(Some(Request::Query {
                    net: (*net).to_string(),
                    node: None,
                    corner,
                    sens,
                })),
                [net, node] => Ok(Some(Request::Query {
                    net: (*net).to_string(),
                    node: Some((*node).to_string()),
                    corner,
                    sens,
                })),
                _ => Err("`QUERY` takes <net> [node] [--corner <k|name>] [--sens]".into()),
            }
        }
        "REPORT" => {
            let corner = take_corner(&mut args)?;
            exact(&args, 0, "[--corner <k|name|worst>]")?;
            Ok(Some(Request::Report { corner }))
        }
        "ECO" => {
            if rest.is_empty() {
                Err("`ECO` takes an edit-script line".into())
            } else {
                Ok(Some(Request::Eco {
                    script: rest.to_string(),
                }))
            }
        }
        "CERTIFY" => {
            let over = take_over(&mut args)?;
            exact(
                &args,
                1,
                "<budget-seconds> [--over r <lo..hi> [c <lo..hi>]]",
            )?;
            let budget = args[0]
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("`CERTIFY`: `{}` is not a finite number", args[0]))?;
            Ok(Some(Request::Certify { budget, over }))
        }
        "STATS" => {
            exact(&args, 0, "no arguments")?;
            Ok(Some(Request::Stats))
        }
        "METRICS" => match args.as_slice() {
            [] => Ok(Some(Request::Metrics { stable: false })),
            [only] if only.eq_ignore_ascii_case("stable") => {
                Ok(Some(Request::Metrics { stable: true }))
            }
            _ => Err("`METRICS` takes [stable]".into()),
        },
        "TRACE" => {
            exact(&args, 1, "<count>")?;
            let n = args[0]
                .parse::<usize>()
                .map_err(|_| format!("`TRACE`: `{}` is not a span count", args[0]))?;
            Ok(Some(Request::Trace { n }))
        }
        "QUIT" => {
            exact(&args, 0, "no arguments")?;
            Ok(Some(Request::Quit))
        }
        "SHUTDOWN" => {
            exact(&args, 0, "no arguments")?;
            Ok(Some(Request::Shutdown))
        }
        // Report the verb as the client typed it, not the case-folded
        // match key.
        _ => Err(format!("unknown verb `{verb}`")),
    }
}

/// The success terminator of a response block.
pub fn ok_line(rev: u64) -> String {
    format!("OK rev {rev}")
}

/// The failure terminator of a response block.
pub fn err_line(rev: u64, message: &str) -> String {
    format!("ERR rev {rev} {message}")
}

/// Whether a line terminates a response block.
pub fn is_final(line: &str) -> bool {
    line.starts_with("OK ") || line.starts_with("ERR ") || line == "OK" || line == "ERR"
}

/// Extracts the revision from a **scalar** final line (`OK rev <r>` /
/// `ERR rev <r> …`).  Multi-shard responses carry a revision vector on
/// their final line; use [`final_revisions`] for those.
pub fn final_revision(line: &str) -> Option<u64> {
    let mut tokens = line.split_whitespace();
    let status = tokens.next()?;
    if status != "OK" && status != "ERR" {
        return None;
    }
    if tokens.next()? != "rev" {
        return None;
    }
    tokens.next()?.parse().ok()
}

/// The comma-joined revision vector of a sharded response's final line.
/// A scalar revision is a one-element vector, so single-shard lines parse
/// too.
pub fn rev_csv(revs: &[u64]) -> String {
    let mut out = String::new();
    for (i, rev) in revs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rev.to_string());
    }
    out
}

/// The success terminator of a cross-shard response block:
/// `OK rev <r0,r1,…>`.
pub fn ok_revs(revs: &[u64]) -> String {
    format!("OK rev {}", rev_csv(revs))
}

/// The failure terminator of a cross-shard response block.
pub fn err_revs(revs: &[u64], message: &str) -> String {
    format!("ERR rev {} {}", rev_csv(revs), message)
}

/// Extracts the revision vector from a final line — `OK rev <r0,r1,…>` or
/// the scalar form (a one-element vector).  `None` for non-final lines or
/// a malformed vector.
pub fn final_revisions(line: &str) -> Option<Vec<u64>> {
    let mut tokens = line.split_whitespace();
    let status = tokens.next()?;
    if status != "OK" && status != "ERR" {
        return None;
    }
    if tokens.next()? != "rev" {
        return None;
    }
    tokens.next()?.split(',').map(|t| t.parse().ok()).collect()
}

/// The ` corners <name,...>` tail appended to data-bearing `OK` lines of
/// multi-corner decks.  Empty for nominal-only decks, so their responses
/// stay byte-identical to the single-corner protocol (`final_revision`
/// tolerates trailing tokens either way).
pub fn corner_tail(snapshot: &DesignSnapshot) -> String {
    match snapshot.corners() {
        Some(corners) => format!(" corners {}", corners.names_csv()),
        None => String::new(),
    }
}

/// The name of corner `k` (callers resolve `k` first, so it is in range).
fn corner_name(snapshot: &DesignSnapshot, k: usize) -> String {
    match snapshot.corners() {
        Some(corners) => corners.names()[k].clone(),
        None => "nominal".to_string(),
    }
}

/// Resolves a `--corner` selector (lane index or corner name) against a
/// snapshot.  `worst` is only meaningful for `REPORT` and handled there.
fn resolve_corner(snapshot: &DesignSnapshot, token: &str) -> Result<usize, String> {
    let count = snapshot.corner_count();
    if let Ok(k) = token.parse::<usize>() {
        return if k < count {
            Ok(k)
        } else {
            Err(format!(
                "corner index {k} out of range (deck has {count} corner(s))"
            ))
        };
    }
    match snapshot.corners() {
        Some(corners) => corners
            .index_of(token)
            .ok_or_else(|| format!("unknown corner `{token}`")),
        None if token == "nominal" => Ok(0),
        None => Err(format!("unknown corner `{token}` (deck is nominal-only)")),
    }
}

/// Renders what a sink drives.
fn load_text(load: &Load) -> String {
    match load {
        Load::Instance(inst) => format!("inst {inst}"),
        Load::PrimaryOutput(po) => format!("po {po}"),
    }
}

/// Renders the response block of `QUERY <net> [node] [--corner <k|name>]
/// [--sens]` against one snapshot.  Sink and node lines have the same
/// shape in every corner; the selected corner is named on the final `OK`
/// line when one was requested explicitly.  With `sens`, a
/// `sens dT_dr … dT_dc …` payload line follows the node line — the exact
/// derivatives of the node's symbolic upper bound at the nominal scales.
pub fn render_query(
    snapshot: &DesignSnapshot,
    rev: u64,
    net: &str,
    node: Option<&str>,
    corner: Option<&str>,
    sens: bool,
) -> Vec<String> {
    let selected = match corner.map(|c| resolve_corner(snapshot, c)).transpose() {
        Ok(selected) => selected,
        Err(message) => return vec![err_line(rev, &message)],
    };
    let k = selected.unwrap_or(0);
    let Some(timing) = snapshot.net(net) else {
        return vec![err_line(rev, &format!("unknown net `{net}`"))];
    };
    match node {
        None => {
            let sinks = timing.sinks_at(k).expect("resolved corner is in range");
            let mut lines: Vec<String> = sinks
                .iter()
                .map(|s| {
                    format!(
                        "sink {} drives {} lower {:e} upper {:e}",
                        s.node,
                        load_text(&s.load),
                        s.lower.value(),
                        s.upper.value()
                    )
                })
                .collect();
            lines.push(ok_selected(snapshot, &[rev], selected));
            lines
        }
        Some(node) => match timing.node_times_at(node, snapshot.threshold(), k) {
            Ok((times, bounds)) => {
                let mut lines = vec![format!(
                    "node {node} t_p {:e} t_d {:e} t_r {:e} elmore {:e} lower {:e} upper {:e}",
                    times.t_p.value(),
                    times.t_d.value(),
                    times.t_r.value(),
                    times.elmore_delay().value(),
                    bounds.lower.value(),
                    bounds.upper.value()
                )];
                if sens {
                    match timing.node_sens(node, snapshot.threshold()) {
                        Ok((dr, dc)) => {
                            lines.push(format!("sens dT_dr {dr:e} dT_dc {dc:e}"));
                        }
                        Err(e) => return vec![err_line(rev, &format!("query failed: {e}"))],
                    }
                }
                lines.push(ok_selected(snapshot, &[rev], selected));
                lines
            }
            Err(e) => vec![err_line(rev, &format!("query failed: {e}"))],
        },
    }
}

/// `report`'s text followed by the final line `last`.
fn report_with_final(report: &TimingReport, last: &str) -> Vec<u8> {
    let mut block = Vec::new();
    report.push_to(&mut block);
    block.extend_from_slice(last.as_bytes());
    block.push(b'\n');
    block
}

/// A one-line block.
fn line_block(line: &str) -> Vec<u8> {
    format!("{line}\n").into_bytes()
}

/// The lines of a rendered block, newlines dropped.
fn block_lines(block: &[u8]) -> Vec<String> {
    std::str::from_utf8(block)
        .expect("a rendered block is UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The `certify … over …` payload line: box, exact worst point, slack and
/// verdict.  Range ends and the worst point print in Rust's shortest
/// round-trip form, so the reported point can be fed back verbatim (e.g.
/// into a materialized-corner spec) to reproduce the worst-case analysis.
fn over_line(budget: f64, over: &ScaleBox, cert: &BoxCertification, verdict: &str) -> String {
    format!(
        "certify required {:e} over r {:?}..{:?} c {:?}..{:?} worst_slack {:e} \
         worst at r={:?},c={:?} {}",
        budget,
        over.r.0,
        over.r.1,
        over.c.0,
        over.c.1,
        cert.worst_slack.value(),
        cert.at.0,
        cert.at.1,
        verdict
    )
}

/// The payload line of `CERTIFY <budget> --over …` against one snapshot:
/// the continuum certification of the symbolic polynomial lane over the
/// whole scale box.  The offline `rcdelay certify-over` command prints it;
/// the served line over one shard is the same bytes.
pub fn certify_over_line(
    snapshot: &DesignSnapshot,
    budget: f64,
    over: &ScaleBox,
) -> Result<String, String> {
    let sym = snapshot
        .symbolic()
        .map_err(|e| format!("certify failed: {e}"))?;
    let cert = sym.certify_over(Seconds::new(budget), over.r, over.c);
    Ok(over_line(budget, over, &cert, &cert.verdict.to_string()))
}

/// The final `OK` line of a data-bearing response: the revision vector
/// (one revision per shard; the scalar `OK rev <r>` for one), the
/// selected corner when one was requested explicitly, then the corner
/// vector of the lead shard `lead`.
fn ok_selected(lead: &DesignSnapshot, revs: &[u64], selected: Option<usize>) -> String {
    let mut line = ok_revs(revs);
    if let Some(k) = selected {
        line.push_str(&format!(" corner {k} {}", corner_name(lead, k)));
    }
    line.push_str(&corner_tail(lead));
    line
}

/// The corner-`k` report of one shard snapshot (`k` resolved, in range).
fn corner_report(snapshot: &DesignSnapshot, k: usize) -> &TimingReport {
    match k {
        0 => snapshot.report(),
        k => snapshot
            .corners()
            .and_then(|c| c.report(k))
            .expect("resolved corner is in range"),
    }
}

/// The worst lane of a deck against `required` and its slack: the lane
/// whose **composed** slack (the minimum over shards) is smallest, ties to
/// the lowest lane — over one shard, the lane and slack
/// [`rctree_sta::CornerAnalysis::worst_against`] gives.  Lane 0 for
/// nominal-only decks.
fn composed_worst_lane(
    snapshots: &[impl Borrow<DesignSnapshot>],
    required: Seconds,
) -> (usize, Seconds) {
    let lanes = snapshots[0].borrow().corner_count();
    let composed_slack = |k: usize| -> Seconds {
        snapshots
            .iter()
            .map(|s| corner_report(s.borrow(), k).slack_against(required))
            .reduce(|a, b| if b < a { b } else { a })
            .expect("at least one shard")
    };
    let mut worst = 0usize;
    let mut slack = composed_slack(0);
    for k in 1..lanes {
        let s = composed_slack(k);
        if s < slack {
            worst = k;
            slack = s;
        }
    }
    (worst, slack)
}

/// The response block of `REPORT [--corner <k|name|worst>]` as bytes,
/// every line newline-terminated: the per-shard reports of the selected
/// corner merged through [`TimingReport::compose`] (one shard's report is
/// its own composition), so the payload is byte-identical to what
/// `rcdelay report` (with the same `--corners` spec and `--corner`
/// selector) prints offline for the unsharded design state, then the
/// final `OK` line over the revision vector.  `worst` picks the lane of
/// smallest composed slack against the lead snapshot's required time.
/// `snapshots` and `revs` are the per-shard pairs, in shard order.  The
/// server caches this block and sends it with one write.
pub fn report_block_composed(
    snapshots: &[impl Borrow<DesignSnapshot>],
    revs: &[u64],
    corner: Option<&str>,
) -> Vec<u8> {
    debug_assert_eq!(snapshots.len(), revs.len());
    let lead = snapshots[0].borrow();
    let selected = match corner {
        None => None,
        Some("worst") => Some(composed_worst_lane(snapshots, lead.required_time()).0),
        Some(token) => match resolve_corner(lead, token) {
            Ok(k) => Some(k),
            Err(message) => return line_block(&err_revs(revs, &message)),
        },
    };
    let k = selected.unwrap_or(0);
    let composed = TimingReport::compose(snapshots.iter().map(|s| corner_report(s.borrow(), k)));
    report_with_final(&composed, &ok_selected(lead, revs, selected))
}

/// [`report_block_composed`] split into its lines, newlines dropped.
pub fn render_report_composed(
    snapshots: &[impl Borrow<DesignSnapshot>],
    revs: &[u64],
    corner: Option<&str>,
) -> Vec<String> {
    block_lines(&report_block_composed(snapshots, revs, corner))
}

/// [`render_report_composed`] over one snapshot at revision `rev`.
pub fn render_report(snapshot: &DesignSnapshot, rev: u64, corner: Option<&str>) -> Vec<String> {
    render_report_composed(&[snapshot], &[rev], corner)
}

/// Renders the response block of `CERTIFY <budget>`: the worst slack is
/// the minimum over shards and the verdict the conjunction over every
/// shard and corner.  On a multi-corner deck the worst composed lane is
/// named on the certify line; nominal-only decks keep the single-corner
/// line format.
pub fn render_certify_composed(
    snapshots: &[impl Borrow<DesignSnapshot>],
    revs: &[u64],
    budget: f64,
) -> Vec<String> {
    let required = Seconds::new(budget);
    let lead = snapshots[0].borrow();
    let (worst, slack) = composed_worst_lane(snapshots, required);
    let mut verdict = Certification::Pass;
    for s in snapshots {
        let s = s.borrow();
        for k in 0..s.corner_count() {
            verdict = verdict.and(corner_report(s, k).certification_against(required));
        }
    }
    let corner = match lead.corners() {
        Some(corners) => format!(" corner {}", corners.names()[worst]),
        None => String::new(),
    };
    vec![
        format!(
            "certify required {:e} worst_slack {:e}{corner} {verdict}",
            budget,
            slack.value(),
        ),
        ok_selected(lead, revs, None),
    ]
}

/// [`render_certify_composed`] over one snapshot at revision `rev`.
pub fn render_certify(snapshot: &DesignSnapshot, rev: u64, budget: f64) -> Vec<String> {
    render_certify_composed(&[snapshot], &[rev], budget)
}

/// Renders the response block of `CERTIFY <budget> --over …`: each shard
/// certifies its own symbolic lane over the same box, the reported worst
/// point is the smallest-slack shard's (ties to the lowest shard), and
/// the verdict is the conjunction over every shard.  Over one shard the
/// payload line is that shard's [`certify_over_line`].
pub fn render_certify_over_composed(
    snapshots: &[impl Borrow<DesignSnapshot>],
    revs: &[u64],
    budget: f64,
    over: &ScaleBox,
) -> Vec<String> {
    let required = Seconds::new(budget);
    let mut worst: Option<BoxCertification> = None;
    let mut verdict = Certification::Pass;
    for snapshot in snapshots {
        let sym = match snapshot.borrow().symbolic() {
            Ok(sym) => sym,
            Err(e) => return vec![err_revs(revs, &format!("certify failed: {e}"))],
        };
        let cert = sym.certify_over(required, over.r, over.c);
        verdict = verdict.and(cert.verdict);
        match &worst {
            Some(w) if cert.worst_slack >= w.worst_slack => {}
            _ => worst = Some(cert),
        }
    }
    let cert = worst.expect("at least one shard");
    vec![
        over_line(budget, over, &cert, &verdict.to_string()),
        ok_selected(snapshots[0].borrow(), revs, None),
    ]
}

/// [`render_certify_over_composed`] over one snapshot at revision `rev`.
pub fn render_certify_over(
    snapshot: &DesignSnapshot,
    rev: u64,
    budget: f64,
    over: &ScaleBox,
) -> Vec<String> {
    render_certify_over_composed(&[snapshot], &[rev], budget, over)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("  "), Ok(None));
        assert_eq!(
            parse_request("QUERY clk"),
            Ok(Some(Request::Query {
                net: "clk".into(),
                node: None,
                corner: None,
                sens: false
            }))
        );
        assert_eq!(
            parse_request("query clk n4"),
            Ok(Some(Request::Query {
                net: "clk".into(),
                node: Some("n4".into()),
                corner: None,
                sens: false
            }))
        );
        assert_eq!(
            parse_request("REPORT"),
            Ok(Some(Request::Report { corner: None }))
        );
        assert_eq!(
            parse_request("ECO setcap clk n4 2e-15; prune clk stub"),
            Ok(Some(Request::Eco {
                script: "setcap clk n4 2e-15; prune clk stub".into()
            }))
        );
        assert_eq!(
            parse_request("CERTIFY 5e-9"),
            Ok(Some(Request::Certify {
                budget: 5e-9,
                over: None
            }))
        );
        assert_eq!(parse_request("STATS"), Ok(Some(Request::Stats)));
        assert_eq!(parse_request("QUIT"), Ok(Some(Request::Quit)));
        assert_eq!(parse_request("shutdown"), Ok(Some(Request::Shutdown)));
    }

    #[test]
    fn observability_verbs_parse() {
        assert_eq!(
            parse_request("METRICS"),
            Ok(Some(Request::Metrics { stable: false }))
        );
        assert_eq!(
            parse_request("metrics stable"),
            Ok(Some(Request::Metrics { stable: true }))
        );
        assert_eq!(
            parse_request("METRICS STABLE"),
            Ok(Some(Request::Metrics { stable: true }))
        );
        assert!(parse_request("METRICS everything")
            .unwrap_err()
            .contains("[stable]"));
        assert_eq!(
            parse_request("TRACE 16"),
            Ok(Some(Request::Trace { n: 16 }))
        );
        assert_eq!(parse_request("trace 0"), Ok(Some(Request::Trace { n: 0 })));
        assert!(parse_request("TRACE").unwrap_err().contains("<count>"));
        assert!(parse_request("TRACE many")
            .unwrap_err()
            .contains("not a span count"));
    }

    #[test]
    fn unknown_verbs_echo_the_token_as_typed() {
        // Pinned: the error must carry the verb exactly as the client sent
        // it, not the case-folded match key (`frobnicate`, not
        // `FROBNICATE`).
        assert_eq!(
            parse_request("frobnicate x"),
            Err("unknown verb `frobnicate`".to_string())
        );
        assert_eq!(
            parse_request("FROBNICATE"),
            Err("unknown verb `FROBNICATE`".to_string())
        );
        assert_eq!(
            parse_request("Query-ish clk"),
            Err("unknown verb `Query-ish`".to_string())
        );
    }

    #[test]
    fn corner_selectors_parse() {
        assert_eq!(
            parse_request("QUERY clk --corner slow"),
            Ok(Some(Request::Query {
                net: "clk".into(),
                node: None,
                corner: Some("slow".into()),
                sens: false
            }))
        );
        assert_eq!(
            parse_request("query clk --corner 2 n4"),
            Ok(Some(Request::Query {
                net: "clk".into(),
                node: Some("n4".into()),
                corner: Some("2".into()),
                sens: false
            }))
        );
        assert_eq!(
            parse_request("REPORT --corner worst"),
            Ok(Some(Request::Report {
                corner: Some("worst".into())
            }))
        );
        assert!(parse_request("REPORT --corner")
            .unwrap_err()
            .contains("--corner"));
        assert!(parse_request("QUERY clk n4 --corner").is_err());
        assert!(parse_request("REPORT --corner 1 extra").is_err());
    }

    #[test]
    fn sens_and_over_clauses_parse() {
        assert_eq!(
            parse_request("QUERY clk n4 --sens"),
            Ok(Some(Request::Query {
                net: "clk".into(),
                node: Some("n4".into()),
                corner: None,
                sens: true
            }))
        );
        assert!(parse_request("QUERY clk --sens")
            .unwrap_err()
            .contains("requires a node"));
        assert!(parse_request("QUERY clk n4 --sens --corner 1")
            .unwrap_err()
            .contains("--corner"));
        assert_eq!(
            parse_request("CERTIFY 5e-9 --over r 0.8..1.4"),
            Ok(Some(Request::Certify {
                budget: 5e-9,
                over: Some(ScaleBox {
                    r: (0.8, 1.4),
                    c: (1.0, 1.0)
                })
            }))
        );
        assert_eq!(
            parse_request("certify 5e-9 --over r 0.8..1.4 c 0.9..1.2"),
            Ok(Some(Request::Certify {
                budget: 5e-9,
                over: Some(ScaleBox {
                    r: (0.8, 1.4),
                    c: (0.9, 1.2)
                })
            }))
        );
        // The clause may precede the budget — flags parse position-free.
        assert_eq!(
            parse_request("CERTIFY --over r 1..1 3e-9"),
            Ok(Some(Request::Certify {
                budget: 3e-9,
                over: Some(ScaleBox {
                    r: (1.0, 1.0),
                    c: (1.0, 1.0)
                })
            }))
        );
        assert!(parse_request("CERTIFY 5e-9 --over").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over r").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over c 1..2").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over r 1.4..0.8").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over r 0..1").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over r nope").is_err());
        assert!(parse_request("CERTIFY 5e-9 --over r 1..2 c").is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_message() {
        assert!(parse_request("QUERY").unwrap_err().contains("QUERY"));
        assert!(parse_request("QUERY a b c").is_err());
        assert!(parse_request("REPORT now").is_err());
        assert!(parse_request("CERTIFY abc").unwrap_err().contains("`abc`"));
        assert!(parse_request("CERTIFY inf").is_err());
        assert!(parse_request("ECO").is_err());
        assert!(parse_request("FROBNICATE x")
            .unwrap_err()
            .contains("`FROBNICATE`"));
    }

    #[test]
    fn final_lines_carry_the_revision() {
        assert!(is_final(&ok_line(7)));
        assert!(is_final(&err_line(3, "nope")));
        assert!(!is_final("sink n4 drives po out lower 1e-9 upper 2e-9"));
        assert_eq!(final_revision(&ok_line(7)), Some(7));
        assert_eq!(final_revision(&err_line(3, "nope")), Some(3));
        assert_eq!(final_revision("sink x"), None);
    }
}
