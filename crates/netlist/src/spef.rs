//! SPEF-lite parasitic parser.
//!
//! Modern parasitic extractors emit IEEE 1481 SPEF; static timing tools read
//! the `*D_NET` sections and build exactly the RC trees this library
//! analyses.  This module accepts a practical subset ("SPEF-lite") that is
//! sufficient to exchange single-net parasitics:
//!
//! ```text
//! *SPEF "IEEE 1481-1998"          // header lines are ignored
//! *T_UNIT 1 NS                    // units: only *R_UNIT / *C_UNIT are used
//! *R_UNIT 1 OHM
//! *C_UNIT 1 PF
//!
//! *D_NET clk_leaf 0.022
//! *CONN
//! *I buf:Z I                      // driver pin = the tree's input
//! *P ff1:CK O                     // load pins  = outputs
//! *P ff2:CK O
//! *CAP
//! 1 n1 0.010
//! 2 ff1:CK 0.007
//! 3 ff2:CK 0.005
//! *RES
//! 1 buf:Z n1 15.0
//! 2 n1 ff1:CK 8.0
//! 3 n1 ff2:CK 3.0
//! *END
//! ```
//!
//! Only grounded caps (two-field `*CAP` entries) are supported; coupling
//! caps (three node fields) are rejected with a clear error, since an RC
//! *tree* cannot represent them.  Resistance and capacitance unit scales
//! default to ohms and picofarads as in the SPEF standard.
//!
//! Decks are read by one scanner, [`crate::stream::SpefReader`];
//! [`parse_spef_deck`] is that reader over the text's bytes, and the
//! serial [`parse_spef`] walks `str::lines`.  Both hand each `*D_NET` body
//! to `parse_d_net`, which tokenizes each line into a fixed array,
//! matches directives with case-insensitive byte compares, and files the
//! cards into this thread's tree assembler by name id: a line costs one
//! float parse and no allocation of its own, and a section allocates only
//! its tree.

use crate::error::{NetlistError, Result};
use crate::spice::Assembler;
use crate::stream::SpefReader;
use crate::value::parse_value;
use rctree_core::tree::RcTree;

/// A single `*D_NET` parsed from a SPEF-lite file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpefNet {
    /// Net name from the `*D_NET` line.
    pub name: String,
    /// Total capacitance declared on the `*D_NET` line (farads).
    pub declared_total_cap: f64,
    /// The reconstructed RC tree.
    pub tree: RcTree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Preamble,
    Conn,
    Cap,
    Res,
}

/// Parses every `*D_NET` section of a SPEF-lite document.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors, the tree-structure
/// errors of the SPICE parser for malformed nets, and
/// [`NetlistError::Empty`] if the document holds no `*D_NET` at all.
pub fn parse_spef(text: &str) -> Result<Vec<SpefNet>> {
    let mut nets = Vec::new();
    let mut units = Units::default();

    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        if let Some((name, declared_total_cap)) = units.scan_top_level(line, line_no)? {
            let tree = Assembler::with(|asm| parse_d_net(asm, &mut lines, &name, line_no, units))?;
            nets.push(SpefNet {
                name,
                declared_total_cap,
                tree,
            });
        }
    }

    if nets.is_empty() {
        return Err(NetlistError::Empty);
    }
    Ok(nets)
}

/// The `*R_UNIT`/`*C_UNIT` scales in effect at a point of the document,
/// plus the recognition of top-level directives.  Shared verbatim between
/// the serial parser and the deck scanner so the two cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Units {
    pub(crate) r: f64,
    pub(crate) c: f64,
}

impl Default for Units {
    fn default() -> Self {
        Units {
            r: 1.0,   // ohms
            c: 1e-12, // SPEF default: picofarads
        }
    }
}

impl Units {
    /// Processes one top-level (outside any `*D_NET` body) line: unit
    /// directives update the scales in place; a `*D_NET` header returns the
    /// net name and its declared total capacitance (already scaled); any
    /// other line is ignored.
    pub(crate) fn scan_top_level(
        &mut self,
        line: &str,
        line_no: usize,
    ) -> Result<Option<(String, f64)>> {
        let line_bytes = line.as_bytes();
        if has_prefix(line_bytes, b"*R_UNIT") {
            self.r = unit_scale(line, line_no, &["OHM", "KOHM"])?;
        } else if has_prefix(line_bytes, b"*C_UNIT") {
            self.c = unit_scale(line, line_no, &["FF", "PF", "NF", "UF", "F"])?;
        } else if has_prefix(line_bytes, b"*D_NET") {
            let tokens = Tokens::of(line);
            if tokens.len < 3 {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens.items[0],
                    "*D_NET requires a name and a total capacitance",
                ));
            }
            let total = parse_value(tokens.items[2], line_no)? * self.c;
            return Ok(Some((tokens.items[1].to_string(), total)));
        }
        Ok(None)
    }
}

/// Parses a SPEF-lite document and returns the net with the given name.
///
/// # Errors
///
/// In addition to [`parse_spef`]'s errors, returns
/// [`NetlistError::UnknownInput`] if no net carries the requested name.
pub fn parse_spef_net(text: &str, net_name: &str) -> Result<SpefNet> {
    parse_spef(text)?
        .into_iter()
        .find(|n| n.name == net_name)
        .ok_or_else(|| NetlistError::UnknownInput {
            name: net_name.to_string(),
        })
}

/// Parses every `*D_NET` section of a SPEF-lite document, fanning the
/// sections out over `jobs` worker threads.
///
/// This is the deck scanner, [`SpefReader`], over the text's bytes: the
/// same scan, the same parallel section batches and the same errors as
/// streaming the document from a file.  The result is **bit-identical**
/// to [`parse_spef`] for every `jobs` value: nets are returned in
/// document order and each section sees exactly the lines and unit scales
/// the serial parser would give it, with absolute line numbers in every
/// error.
///
/// On an invalid document the error returned is the first failing section
/// in document order, except that a malformed unit directive or `*D_NET`
/// header anywhere in the document is reported before any section error.
///
/// # Errors
///
/// The same errors as [`parse_spef`], including [`NetlistError::Empty`]
/// when the document holds no `*D_NET` at all.
pub fn parse_spef_deck(text: &str, jobs: usize) -> Result<Vec<SpefNet>> {
    SpefReader::new(text.as_bytes()).parse_all(jobs)
}

/// The text of a line before any `//` comment, trimmed.
pub(crate) fn strip_comment(raw: &str) -> &str {
    let bytes = raw.as_bytes();
    let end = bytes.windows(2).position(|w| w == b"//");
    raw[..end.unwrap_or(bytes.len())].trim()
}

/// Whether `line` starts with `prefix`, ignoring ASCII case.
pub(crate) fn has_prefix(line: &[u8], prefix: &[u8]) -> bool {
    line.get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
}

/// Most tokens any SPEF-lite line is read for.
const MAX_TOKENS: usize = 4;

/// The first [`MAX_TOKENS`] whitespace-separated tokens of a line, and how
/// many the line has, counted up to one past the array.
struct Tokens<'a> {
    items: [&'a str; MAX_TOKENS],
    len: usize,
}

impl<'a> Tokens<'a> {
    fn of(line: &'a str) -> Self {
        let mut items = [""; MAX_TOKENS];
        let mut len = 0;
        for token in line.split_whitespace().take(MAX_TOKENS + 1) {
            if let Some(slot) = items.get_mut(len) {
                *slot = token;
            }
            len += 1;
        }
        Tokens { items, len }
    }
}

fn unit_scale(line: &str, line_no: usize, accepted: &[&str]) -> Result<f64> {
    let tokens = Tokens::of(line);
    if tokens.len < 3 {
        return Err(NetlistError::parse_at(
            line_no,
            tokens.items[0],
            format!("unit directive `{line}` requires a scale and a unit"),
        ));
    }
    let scale = parse_value(tokens.items[1], line_no)?;
    let unit = tokens.items[2].to_ascii_uppercase();
    if !accepted.contains(&unit.as_str()) {
        return Err(NetlistError::parse_at(
            line_no,
            tokens.items[2],
            format!("unsupported unit `{}`", tokens.items[2]),
        ));
    }
    let unit_factor = match unit.as_str() {
        "OHM" => 1.0,
        "KOHM" => 1e3,
        "FF" => 1e-15,
        "PF" => 1e-12,
        "NF" => 1e-9,
        "UF" => 1e-6,
        "F" => 1.0,
        _ => 1.0,
    };
    Ok(scale * unit_factor)
}

/// Parses the body of the `*D_NET` named `name` from `lines` (0-based
/// document line index and text) through its `*END` line into the net's
/// tree, under the unit scales in effect at its header.  The cards go into
/// the assembler `asm` (this thread's, from [`Assembler::with`]) by name
/// id; only the driver pin's name borrows the lines until the tree is
/// built.
pub(crate) fn parse_d_net<'a, I>(
    asm: &mut Assembler,
    lines: &mut I,
    name: &str,
    header_line: usize,
    units: Units,
) -> Result<RcTree>
where
    I: Iterator<Item = (usize, &'a str)>,
{
    let mut section = Section::Preamble;
    let mut driver: Option<&'a str> = None;

    for (idx, raw) in lines.by_ref() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let bytes = line.as_bytes();
        if bytes[0] == b'*' {
            if has_prefix(bytes, b"*END") {
                let input = driver.ok_or_else(|| {
                    NetlistError::parse_at(
                        line_no,
                        name,
                        format!("net `{name}` has no *I driver pin"),
                    )
                })?;
                return asm.build(input);
            }
            let directive = if has_prefix(bytes, b"*CONN") {
                Some(Section::Conn)
            } else if has_prefix(bytes, b"*CAP") {
                Some(Section::Cap)
            } else if has_prefix(bytes, b"*RES") {
                Some(Section::Res)
            } else {
                None
            };
            if let Some(next) = directive {
                section = next;
                continue;
            }
        }
        let tokens = Tokens::of(line);
        let [head, a, b, c] = tokens.items;
        if head.eq_ignore_ascii_case("*I") || head.eq_ignore_ascii_case("*P") {
            if section != Section::Conn {
                return Err(NetlistError::parse_at(
                    line_no,
                    head,
                    "pin declarations must appear inside *CONN",
                ));
            }
            if tokens.len < 3 {
                return Err(NetlistError::parse_at(
                    line_no,
                    head,
                    "pin declaration requires a name and a direction",
                ));
            }
            if b.eq_ignore_ascii_case("I") {
                if driver.replace(a).is_some() {
                    return Err(NetlistError::NotATree {
                        message: format!("net `{name}` declares more than one driver"),
                    });
                }
            } else if b.eq_ignore_ascii_case("O") {
                asm.output(line_no, a);
            } else {
                let other = b.to_ascii_uppercase();
                return Err(NetlistError::parse_at(
                    line_no,
                    other.as_str(),
                    format!("unknown pin direction `{other}`"),
                ));
            }
            continue;
        }

        match section {
            Section::Cap => match tokens.len {
                3 => asm.cap(line_no, a, parse_value(b, line_no)? * units.c),
                4 => return Err(NetlistError::FloatingCapacitor { line: line_no }),
                _ => {
                    return Err(NetlistError::parse_at(
                        line_no,
                        head,
                        "*CAP entry requires: index node value",
                    ));
                }
            },
            Section::Res => {
                if tokens.len < 4 {
                    return Err(NetlistError::parse_at(
                        line_no,
                        head,
                        "*RES entry requires: index node node value",
                    ));
                }
                let r = parse_value(c, line_no)? * units.r;
                asm.branch(line_no, a, b, r, 0.0, false);
            }
            Section::Conn | Section::Preamble => {
                return Err(NetlistError::parse_at(
                    line_no,
                    head,
                    format!("unexpected line `{line}` in D_NET section"),
                ));
            }
        }
    }

    // Reported at the `*D_NET` header (the old behaviour was a useless
    // "line 0" once the rest of the document had been consumed).
    Err(NetlistError::parse_at(
        header_line,
        name,
        format!("net `{name}` is missing its *END line"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::moments::characteristic_times;

    const SAMPLE: &str = r#"
*SPEF "IEEE 1481-1998"
*DESIGN "repro"
*R_UNIT 1 OHM
*C_UNIT 1 PF

*D_NET net1 0.022
*CONN
*I buf:Z I
*P ff1:CK O
*P ff2:CK O
*CAP
1 n1 0.002
2 ff1:CK 0.007
3 ff2:CK 0.013
*RES
1 buf:Z n1 15.0
2 n1 ff1:CK 8.0
3 n1 ff2:CK 3.0
*END
"#;

    #[test]
    fn parses_sample_net() {
        let nets = parse_spef(SAMPLE).unwrap();
        assert_eq!(nets.len(), 1);
        let net = &nets[0];
        assert_eq!(net.name, "net1");
        assert!((net.declared_total_cap - 0.022e-12).abs() < 1e-20);
        assert_eq!(net.tree.node_count(), 4);
        let total = net.tree.total_capacitance().value();
        assert!((total - 0.022e-12).abs() < 1e-20);
        let outs: Vec<String> = net
            .tree
            .outputs()
            .map(|id| net.tree.name(id).unwrap().to_string())
            .collect();
        assert!(outs.contains(&"ff1:CK".to_string()));
        assert!(outs.contains(&"ff2:CK".to_string()));
    }

    #[test]
    fn characteristic_times_computable_from_spef() {
        let net = parse_spef_net(SAMPLE, "net1").unwrap();
        let out = net.tree.node_by_name("ff1:CK").unwrap();
        let t = characteristic_times(&net.tree, out).unwrap();
        assert!(t.satisfies_ordering());
        assert!(t.t_d.value() > 0.0);
    }

    #[test]
    fn missing_net_name_is_reported() {
        assert!(matches!(
            parse_spef_net(SAMPLE, "does_not_exist"),
            Err(NetlistError::UnknownInput { .. })
        ));
    }

    #[test]
    fn kohm_and_ff_units_are_scaled() {
        let text = r#"
*R_UNIT 1 KOHM
*C_UNIT 1 FF
*D_NET n 10
*CONN
*I drv I
*P load O
*CAP
1 load 10
*RES
1 drv load 2
*END
"#;
        let net = parse_spef_net(text, "n").unwrap();
        let load = net.tree.node_by_name("load").unwrap();
        assert!((net.tree.resistance_from_input(load).unwrap().value() - 2000.0).abs() < 1e-9);
        assert!((net.tree.total_capacitance().value() - 10e-15).abs() < 1e-26);
    }

    #[test]
    fn coupling_caps_are_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I drv I
*P load O
*CAP
1 load other:pin 0.5
*RES
1 drv load 2
*END
"#;
        assert!(matches!(
            parse_spef(text),
            Err(NetlistError::FloatingCapacitor { .. })
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I a I
*I b I
*CAP
1 x 1
*RES
1 a x 2
*END
"#;
        assert!(matches!(
            parse_spef(text),
            Err(NetlistError::NotATree { .. })
        ));
    }

    #[test]
    fn missing_driver_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*P load O
*CAP
1 load 1
*RES
1 drv load 2
*END
"#;
        assert!(matches!(parse_spef(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn missing_end_rejected() {
        let text = r#"
*D_NET n 1
*CONN
*I drv I
*CAP
1 load 1
*RES
1 drv load 2
"#;
        assert!(matches!(parse_spef(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn empty_document_rejected() {
        assert!(matches!(
            parse_spef("// nothing here\n"),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn multiple_nets_parse_independently() {
        let text = format!("{SAMPLE}\n{}", SAMPLE.replace("net1", "net2"));
        let nets = parse_spef(&text).unwrap();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[1].name, "net2");
    }

    /// A deck of `n` copies of [`SAMPLE`]'s net under distinct names.
    fn replicated_deck(n: usize) -> String {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&SAMPLE.replace("net1", &format!("net{i}")));
        }
        text
    }

    #[test]
    fn deck_parse_is_bit_identical_to_serial_for_any_job_count() {
        let text = replicated_deck(33);
        let serial = parse_spef(&text).unwrap();
        assert_eq!(serial.len(), 33);
        for jobs in [1, 2, 7, rctree_par::available_parallelism()] {
            let parallel = parse_spef_deck(&text, jobs).unwrap();
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn deck_parse_applies_units_in_document_order() {
        // The second net is parsed under KOHM/FF scales declared between
        // the sections; the scanner must hand each section the scales in
        // effect where it starts.
        let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*P x O\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*R_UNIT 1 KOHM\n*C_UNIT 1 FF\n\
*D_NET b 1\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";
        let serial = parse_spef(text).unwrap();
        let parallel = parse_spef_deck(text, 2).unwrap();
        assert_eq!(parallel, serial);
        let y = parallel[1].tree.node_by_name("y").unwrap();
        assert!((parallel[1].tree.resistance_from_input(y).unwrap().value() - 7000.0).abs() < 1e-9);
        assert!((parallel[1].tree.total_capacitance().value() - 2e-15).abs() < 1e-26);
    }

    #[test]
    fn parse_errors_carry_line_and_token() {
        // A bad `*CAP` value inside the second net: the error names the
        // absolute 1-based line and the offending token, from both the
        // serial and the deck parser.
        let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*D_NET b 1\n*CONN\n*I drv I\n*CAP\n1 y bogus\n*RES\n1 drv y 7\n*END\n";
        for result in [parse_spef(text), parse_spef_deck(text, 2)] {
            match result {
                Err(NetlistError::Parse { line, token, .. }) => {
                    assert_eq!(line, 13);
                    assert_eq!(token.as_deref(), Some("bogus"));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn missing_end_is_reported_at_the_net_header() {
        let text = "// preamble\n*D_NET n 1\n*CONN\n*I drv I\n*CAP\n1 load 1\n";
        for result in [parse_spef(text), parse_spef_deck(text, 2)] {
            match result {
                Err(NetlistError::Parse { line, token, .. }) => {
                    assert_eq!(line, 2, "reported at the *D_NET header");
                    assert_eq!(token.as_deref(), Some("n"));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn tab_separated_pin_lines_parse() {
        // Pins are matched on their first token, any case, whatever
        // whitespace follows it.
        let spaced = parse_spef(SAMPLE).unwrap();
        for text in [
            SAMPLE.replace("*I ", "*I\t").replace("*P ", "*P\t"),
            SAMPLE.replace("*I buf:Z I", "*i\tbuf:Z\ti"),
            SAMPLE.replace(' ', "\t"),
        ] {
            assert_eq!(parse_spef(&text).unwrap(), spaced, "{text}");
            assert_eq!(parse_spef_deck(&text, 2).unwrap(), spaced, "{text}");
        }
        // A pin line is still checked like one.
        let bare = SAMPLE.replace("*P ff2:CK O", "*P\tff2:CK");
        match parse_spef(&bare) {
            Err(NetlistError::Parse { line, token, .. }) => {
                assert_eq!(line, 11);
                assert_eq!(token.as_deref(), Some("*P"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn deck_parser_rejects_empty_documents() {
        assert!(matches!(
            parse_spef_deck("// nothing\n", 4),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn byte_splitter_handles_crlf_and_missing_trailing_newline() {
        // CRLF line endings: the byte scanner must strip `\r` exactly like
        // `str::lines` does for the serial parser.
        let crlf = SAMPLE.replace('\n', "\r\n");
        assert_eq!(
            parse_spef_deck(&crlf, 2).unwrap(),
            parse_spef(&crlf).unwrap()
        );

        // A document whose final `*END` lacks a trailing newline still
        // closes the last section.
        let trimmed = replicated_deck(3);
        let trimmed = trimmed.trim_end_matches('\n');
        assert_eq!(
            parse_spef_deck(trimmed, 2).unwrap(),
            parse_spef(trimmed).unwrap()
        );

        // Section followed by trailing top-level noise only.
        let noisy = format!("{SAMPLE}\n// trailing comment\n\n");
        assert_eq!(
            parse_spef_deck(&noisy, 2).unwrap(),
            parse_spef(&noisy).unwrap()
        );
    }

    #[test]
    fn byte_splitter_treats_in_body_headers_as_body_lines() {
        // A stray `*D_NET`-looking line inside an unterminated body belongs
        // to that body; both parsers agree the document is one broken net,
        // reported at the first header.
        let text = "*D_NET outer 1\n*CONN\n*I drv I\n*D_NET inner 2\n*CAP\n1 x 1\n";
        let serial = parse_spef(text).unwrap_err();
        let deck = parse_spef_deck(text, 2).unwrap_err();
        assert_eq!(format!("{serial}"), format!("{deck}"));
    }
}
