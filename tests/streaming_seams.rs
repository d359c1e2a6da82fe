//! Streaming/whole-text seam equivalence: `parse_spef_read` must return
//! **byte-identical** results (and errors) to `parse_spef_deck` on the
//! same bytes, for every chunk size.
//!
//! Sweeping chunk sizes of 1..=17 bytes places a chunk boundary at every
//! byte offset of each fixture, so every seam is exercised: mid-line,
//! mid-token, mid-`*D_NET` section, between the `\r` and `\n` of a CRLF
//! pair, and at end of input with and without a trailing newline.
//!
//! `parse_spef_deck` is the same reader over the text's bytes, so every
//! valid fixture is also checked against the serial `parse_spef`, which
//! walks `str::lines` and shares none of the byte scanner.

use penfield_rubinstein::netlist::{parse_spef, parse_spef_deck, NetlistError, SpefNet};
use penfield_rubinstein::workloads::deck::{spef_deck, SpefDeckParams};
use rctree_netlist::stream::SpefReader;

/// Chunk sizes that cover every byte boundary of small fixtures plus a
/// couple of larger strides.
fn chunk_sweep() -> Vec<usize> {
    let mut sizes: Vec<usize> = (1..=17).collect();
    sizes.extend([64, 4096, 1 << 20]);
    sizes
}

/// Streams `text` at every chunk size and checks exact agreement —
/// parsed nets and errors alike — with the whole-text deck parser, and
/// with the serial parser whenever either accepts the document (on an
/// invalid one the serial parser may report a section error that the deck
/// scanner outranks with a later top-level error).
fn assert_stream_matches(text: &str) {
    let want: Result<Vec<SpefNet>, NetlistError> = parse_spef_deck(text, 2);
    let serial = parse_spef(text);
    if want.is_ok() || serial.is_ok() {
        assert_eq!(want, serial, "deck and serial parsers disagree on:\n{text}");
    }
    for chunk in chunk_sweep() {
        let got = SpefReader::with_chunk_size(text.as_bytes(), chunk).parse_all(2);
        assert_eq!(got, want, "chunk size {chunk} diverged on:\n{text}");
    }
}

fn small_deck() -> String {
    spef_deck(
        &SpefDeckParams {
            nets: 9,
            ..SpefDeckParams::default()
        },
        1234,
    )
}

#[test]
fn generated_deck_streams_identically_at_every_seam() {
    assert_stream_matches(&small_deck());
}

#[test]
fn crlf_line_endings_stream_identically() {
    assert_stream_matches(&small_deck().replace('\n', "\r\n"));
}

#[test]
fn missing_trailing_newline_streams_identically() {
    let deck = small_deck();
    assert_stream_matches(deck.trim_end_matches('\n'));
    // ... and with CRLF endings.
    let crlf = deck.replace('\n', "\r\n");
    assert_stream_matches(crlf.trim_end_matches("\r\n"));
}

#[test]
fn missing_end_streams_identically() {
    // Drop the final `*END` so the last section runs to end of input; the
    // error must still be reported at that section's `*D_NET` header.
    let deck = small_deck();
    let truncated = deck.trim_end_matches('\n').trim_end_matches("*END");
    assert!(truncated.len() < deck.len(), "fixture must end with *END");
    assert_stream_matches(truncated);
    assert!(matches!(
        parse_spef_deck(truncated, 1),
        Err(NetlistError::Parse { .. })
    ));
}

#[test]
fn unit_directives_between_sections_stream_identically() {
    let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*P x O\n*CAP\n1 x 1\n*RES\n1 drv x 5\n*END\n\
*R_UNIT 1 KOHM\n*C_UNIT 1 FF\n\
*D_NET b 1\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";
    assert_stream_matches(text);
}

#[test]
fn section_error_then_scan_error_prefers_the_scan_error() {
    // The whole-text path scans the entire document before parsing any
    // section, so the malformed `*R_UNIT` after the broken section wins.
    // The streaming path must replicate that ordering even though it
    // encounters (and fails) the section first.
    let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*CAP\n1 x bogus\n*RES\n1 drv x 5\n*END\n\
*R_UNIT 1 PARSEC\n";
    assert_stream_matches(text);
    match parse_spef_deck(text, 1) {
        Err(NetlistError::Parse { line, token, .. }) => {
            assert_eq!(line, 9, "the scan error's line, not the section's");
            assert_eq!(token.as_deref(), Some("PARSEC"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn section_error_alone_is_reported_as_is() {
    let text = "\
*D_NET a 1\n*CONN\n*I drv I\n*CAP\n1 x bogus\n*RES\n1 drv x 5\n*END\n\
*D_NET b 1\n*CONN\n*I drv I\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";
    assert_stream_matches(text);
    match parse_spef_deck(text, 1) {
        Err(NetlistError::Parse { line, token, .. }) => {
            assert_eq!(line, 5);
            assert_eq!(token.as_deref(), Some("bogus"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn in_body_stray_headers_stream_identically() {
    // A stray `*D_NET`-looking line inside an unterminated body belongs to
    // that body on both paths.
    assert_stream_matches("*D_NET outer 1\n*CONN\n*I drv I\n*D_NET inner 2\n*CAP\n1 x 1\n");
}

#[test]
fn empty_and_comment_only_documents_stream_identically() {
    assert_stream_matches("");
    assert_stream_matches("// nothing here\n");
    assert_stream_matches("*SPEF \"IEEE 1481-1998\"\n\n// still nothing\n");
}

#[test]
fn incremental_pull_api_yields_document_order() {
    let deck = small_deck();
    let want = parse_spef_deck(&deck, 1).unwrap();
    let mut reader = SpefReader::with_chunk_size(deck.as_bytes(), 11);
    let mut got = Vec::new();
    while let Some(batch) = reader.next_nets(1).unwrap() {
        assert!(!batch.is_empty());
        got.extend(batch);
    }
    assert_eq!(got, want);
    assert_eq!(reader.next_nets(1).unwrap(), None, "reader stays done");
}

/// Two nets under a femtofarad unit, in the plain form the fixtures below
/// vary.
const TWO_NETS: &str = "\
*SPEF \"IEEE 1481-1998\"\n\
*C_UNIT 1 FF\n\
*D_NET a 3\n*CONN\n*I drv I\n*P x O\n*CAP\n1 x 1\n2 m 2\n*RES\n1 drv m 5\n2 m x 6\n*END\n\
*D_NET b 2\n*CONN\n*I drv I\n*P y O\n*CAP\n1 y 2\n*RES\n1 drv y 7\n*END\n";

/// Checks `text` at every seam and that it parses to the same two nets as
/// [`TWO_NETS`].
fn assert_two_nets(text: &str) {
    assert_stream_matches(text);
    assert_eq!(
        parse_spef_deck(text, 1),
        parse_spef(TWO_NETS),
        "fixture must parse like the plain deck:\n{text}"
    );
}

#[test]
fn unicode_whitespace_before_directives_streams_identically() {
    // `str::trim` strips U+00A0 and U+3000, so these lines still open and
    // close sections: the byte scanner must fall back to the `str` path
    // when a line's first non-blank byte is not ASCII.
    for space in ["\u{a0}", "\u{3000}", " \u{a0}\t", "\u{3000}\u{a0}"] {
        assert_two_nets(&TWO_NETS.replace("*END", &format!("{space}*END")));
        assert_two_nets(&TWO_NETS.replace("*D_NET", &format!("{space}*D_NET")));
        assert_two_nets(
            &TWO_NETS
                .replace("*END", &format!("{space}*END"))
                .replace("*D_NET", &format!("{space}*D_NET")),
        );
    }
    // Unicode whitespace between tokens splits them too, and so do the
    // vertical tab, NEL and the line separator, which end no line.
    assert_two_nets(&TWO_NETS.replace("1 x 1", "1\u{a0}x\u{3000}1"));
    for space in ["\x0B", "\u{85}", "\u{2028}", "\x0B\u{85}\u{2028}"] {
        assert_two_nets(&TWO_NETS.replace("1 drv y 7", &format!("1{space}drv{space}y{space}7")));
        assert_two_nets(&TWO_NETS.replace("*P x O", &format!("*P{space}x{space}O{space}")));
    }
    // Non-ASCII node names are tokens like any other.
    let named = TWO_NETS
        .replace(" x", " né")
        .replace(" m", " 中間")
        .replace(" y", " ÿ\u{1F600}");
    assert_stream_matches(&named);
    let nets = parse_spef_deck(&named, 1).unwrap();
    let outputs: Vec<&str> = nets
        .iter()
        .flat_map(|net| net.tree.outputs().map(|id| net.tree.name(id).unwrap()))
        .collect();
    assert_eq!(outputs, ["né", "ÿ\u{1F600}"]);
    assert!(nets[0].tree.node_by_name("中間").is_ok());
    let plain = parse_spef(TWO_NETS).unwrap();
    for (net, plain) in nets.iter().zip(&plain) {
        assert_eq!(net.tree.node_count(), plain.tree.node_count());
        assert_eq!(net.tree.total_capacitance(), plain.tree.total_capacitance());
    }
}

#[test]
fn lower_case_end_streams_identically() {
    assert_two_nets(&TWO_NETS.replace("*END", "*end"));
    assert_two_nets(&TWO_NETS.replacen("*END", "*End", 1));
}

#[test]
fn comments_after_end_and_mid_token_stream_identically() {
    assert_two_nets(&TWO_NETS.replace("*END", "*END// closed"));
    assert_two_nets(&TWO_NETS.replace("*END", "*END//"));
    // A comment that starts mid-token cuts the token there.
    assert_two_nets(&TWO_NETS.replace("1 drv y 7", "1 drv y 7//5 ohm"));
    assert_two_nets(&TWO_NETS.replace("*P x O", "*P x O//utput"));
    // A comment inside the `*END` keyword leaves the section open.
    let split_end = TWO_NETS.replacen("*END", "*EN//D", 1);
    assert_stream_matches(&split_end);
    assert!(parse_spef_deck(&split_end, 1).is_err());
}

#[test]
fn blank_lines_inside_bodies_stream_identically() {
    assert_two_nets(&TWO_NETS.replace("*CONN\n", "*CONN\n\n   \n"));
    assert_two_nets(&TWO_NETS.replace("*RES\n", "*RES\n\t\n// note\n\n"));
    assert_two_nets(&TWO_NETS.replace('\n', "\n\n"));
}

#[test]
fn tabs_with_crlf_stream_identically() {
    let tabbed = TWO_NETS.replace(' ', "\t");
    assert_two_nets(&tabbed);
    assert_two_nets(&tabbed.replace('\n', "\r\n"));
    assert_two_nets(&TWO_NETS.replace(' ', " \t ").replace('\n', "\r\n"));
}

#[test]
fn tab_separated_pin_lines_stream_identically() {
    // Pins are matched on their first token, so a tab after `*I`/`*P`
    // is as good as a space.
    assert_two_nets(&TWO_NETS.replace("*I ", "*I\t").replace("*P ", "*P\t"));
    assert_two_nets(&TWO_NETS.replace("*I drv I", "*i\tdrv\ti"));
}
