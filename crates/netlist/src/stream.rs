//! Streaming SPEF-lite ingestion in bounded memory — the one deck scanner.
//!
//! [`SpefReader`] consumes a document from any [`Read`] source in
//! fixed-size chunks and hands completed `*D_NET` sections to the section
//! parser in parallel batches as soon as their `*END` arrives, so peak
//! memory is `O(chunk + largest section + two batches)` whatever the deck
//! size.  With more than one job, one batch is in flight: the calling
//! thread scans the next batch while the pool parses the current one.
//! [`crate::parse_spef_deck`] is this reader over the bytes of an
//! in-memory text.
//!
//! # Per-line cost
//!
//! Each read's complete lines are checked as UTF-8 together and split on
//! `\n` eight bytes at a time; none is copied into a `String`.  A line
//! inside a section body then costs a look at its first non-blank byte:
//! only a `*` followed by `END` (any case) closes the section.  When that
//! byte is not ASCII the line falls back to the `str` path, because
//! `str::trim` also strips Unicode whitespace such as U+00A0.  A closed
//! body is copied out of the buffer once, as a whole, as the text its
//! read already validated (a body split across two reads is checked once
//! more when it closes), so the parser never re-checks it.  Top-level lines
//! (headers and unit directives) take the `str` path; there are a few per
//! section.  The section parser then walks each body line once more to
//! tokenize it (see [`crate::spef`]).
//!
//! # Equivalence with the serial parser
//!
//! Nets are identical to [`crate::parse_spef`] on the same bytes, with the
//! same absolute line numbers in every error: lines split exactly as
//! `str::lines` splits them, unit directives apply in document order, and
//! a section left open at end of input reports its missing `*END` at its
//! header.  The `streaming_seams` suite checks this at every chunk size
//! from 1 byte.  Errors differ in one way: a malformed top-level line
//! anywhere in the document wins over any section-body error, so after a
//! section fails the reader keeps scanning (without parsing) to end of
//! input.  Input a `&str` cannot hold is rejected as well: non-UTF-8 bytes
//! ([`NetlistError::Parse`] at the offending line) and I/O failures
//! ([`NetlistError::Io`]).

use std::collections::VecDeque;
use std::io::Read;
use std::sync::Arc;

use rctree_core::tree::RcTree;

use crate::error::{NetlistError, Result};
use crate::spef::{has_prefix, parse_d_net, strip_comment, SpefNet, Units};
use crate::spice::Assembler;

/// Default chunk size: large enough to amortise syscalls, small enough
/// that a reader never holds a meaningful fraction of a big deck.
const DEFAULT_CHUNK: usize = 1 << 20;

/// How many completed sections [`SpefReader::next_nets`] parses per batch.
/// Small enough to bound memory, large enough to keep the worker pool fed.
const PARSE_BATCH: usize = 512;

/// A `*D_NET` section: the scanned header, the unit scales in effect
/// there and, once the section is closed, its body.
#[derive(Debug, Clone)]
struct RawSection {
    name: String,
    declared_total_cap: f64,
    units: Units,
    /// 1-based line number of the `*D_NET` header.
    header_line: usize,
    /// Every line after the header through `*END` (or end of input), line
    /// endings included.
    body: String,
}

impl RawSection {
    /// Parses the body into the net's tree.
    fn tree(&self) -> Result<RcTree> {
        // The body's first line is document line `header_line + 1`;
        // `parse_d_net` reports `idx + 1`, so enumerate from the header.
        let mut lines = self
            .body
            .lines()
            .enumerate()
            .map(|(k, raw)| (self.header_line + k, raw));
        Assembler::with(|asm| {
            parse_d_net(asm, &mut lines, &self.name, self.header_line, self.units)
        })
    }
}

/// Whether a body line closes its section: it reads `*END` (any case)
/// after leading whitespace, exactly when `strip_comment` would leave a
/// line starting with `*END`.
fn closes_section(line: &str) -> bool {
    // ASCII whitespace as `char::is_whitespace` sees it.
    let blank = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = line.as_bytes();
    match bytes.iter().position(|b| !blank(b)) {
        None => false,
        Some(first) if bytes[first].is_ascii() => has_prefix(&bytes[first..], b"*END"),
        // Leading Unicode whitespace: let `str::trim` decide.
        Some(_) => has_prefix(strip_comment(line).as_bytes(), b"*END"),
    }
}

/// Offset of the first `\n` in `bytes`, looked for eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let diff = word ^ (ONES * u64::from(b'\n'));
        // The lowest high bit set marks the first zero byte of `diff`.
        let zeros = diff.wrapping_sub(ONES) & !diff & (ONES << 7);
        if zeros != 0 {
            return Some(offset + zeros.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| offset + i)
}

/// The scanner's state between lines.
#[derive(Debug, Default)]
struct Scan {
    /// 1-based number of the last line scanned.
    line_no: usize,
    units: Units,
    /// The section whose body is being scanned, if any, and the
    /// read-buffer offset where its body starts.
    open: Option<(RawSection, usize)>,
    /// Completed sections not yet returned.
    ready: VecDeque<RawSection>,
}

impl Scan {
    /// Scans one line; `next` is the read-buffer offset just past it
    /// (past its `\n`, when it has one).  Returns whether the line closes
    /// the open section, which the caller then [closes](Scan::close).
    fn line(&mut self, line: &str, next: usize) -> Result<bool> {
        self.line_no += 1;
        if self.open.is_some() {
            // Every line of an open section — stray headers and unit
            // directives included — belongs to its body.
            return Ok(closes_section(line));
        }
        let line = strip_comment(line);
        if line.is_empty() {
            return Ok(false);
        }
        if let Some((name, declared_total_cap)) = self.units.scan_top_level(line, self.line_no)? {
            let section = RawSection {
                name,
                declared_total_cap,
                units: self.units,
                header_line: self.line_no,
                body: String::new(),
            };
            self.open = Some((section, next));
        }
        Ok(false)
    }

    /// Queues the open section, if any, with the body `buf[start..end]`.
    /// A body inside `checked`, the text the current read validated, is
    /// copied from it as text; one that began in an earlier read is
    /// checked once more.
    fn close(&mut self, buf: &[u8], end: usize, checked: Checked<'_>) {
        if let Some((mut section, start)) = self.open.take() {
            section.body = match start.checked_sub(checked.base) {
                Some(from) => checked.text[from..end - checked.base].to_string(),
                None => std::str::from_utf8(&buf[start..end])
                    .expect("the scanner validated every line")
                    .to_string(),
            };
            self.ready.push_back(section);
        }
    }
}

/// The text one read's lines were validated as, and its offset in the
/// read buffer.
#[derive(Debug, Clone, Copy)]
struct Checked<'a> {
    text: &'a str,
    base: usize,
}

/// A chunked, bounded-memory reader of SPEF-lite decks.
///
/// Feed it any [`Read`] source and pull parsed nets in document order with
/// [`SpefReader::next_nets`], or use the one-shot [`parse_spef_read`].
/// See the module docs for the equivalence guarantees.
#[derive(Debug)]
pub struct SpefReader<R> {
    source: R,
    chunk_size: usize,
    /// Read buffer.  `buf[pos..]` is input not yet split into lines; while
    /// a section is open, its body so far sits just before.  Never holds
    /// more than one section plus one chunk.
    buf: Vec<u8>,
    pos: usize,
    scan: Scan,
    /// End of input reached and fully processed.
    done: bool,
    /// The batch scanned while the previous one was being parsed, or the
    /// scan error that ended it.
    ahead: Option<Result<Vec<RawSection>>>,
}

impl<R: Read> SpefReader<R> {
    /// A reader with the default chunk size (1 MiB).
    pub fn new(source: R) -> Self {
        Self::with_chunk_size(source, DEFAULT_CHUNK)
    }

    /// A reader with an explicit chunk size (minimum 1 byte).  Tiny sizes
    /// are only useful for seam tests; throughput wants the default.
    pub fn with_chunk_size(source: R, chunk_size: usize) -> Self {
        SpefReader {
            source,
            chunk_size: chunk_size.max(1),
            buf: Vec::new(),
            pos: 0,
            scan: Scan::default(),
            done: false,
            ahead: None,
        }
    }

    /// Reads one chunk into the buffer, first dropping what no longer
    /// needs keeping.  Returns the number of bytes read (0 at end of
    /// input).
    fn fill(&mut self) -> Result<usize> {
        let keep = self.scan.open.as_ref().map_or(self.pos, |open| open.1);
        self.buf.drain(..keep);
        self.pos -= keep;
        if let Some(open) = self.scan.open.as_mut() {
            open.1 -= keep;
        }
        let len = self.buf.len();
        self.buf.resize(len + self.chunk_size, 0);
        let read = self.source.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        Ok(read?)
    }

    /// Scans every complete line in `buf[pos..]` and, at end of input, the
    /// final unterminated line (exactly the line `str::lines` would still
    /// yield: a trailing `\r` stays).  The lines are checked as UTF-8
    /// together.
    fn scan_lines(&mut self, at_end: bool) -> Result<()> {
        let base = self.pos;
        let end = match self.buf[base..].iter().rposition(|&b| b == b'\n') {
            _ if at_end => self.buf.len(),
            Some(last) => base + last + 1,
            None => return Ok(()),
        };
        let (text, valid) = match std::str::from_utf8(&self.buf[base..end]) {
            Ok(text) => (text, true),
            Err(e) => {
                let prefix = std::str::from_utf8(&self.buf[base..base + e.valid_up_to()]);
                (prefix.expect("the bytes before the error are valid"), false)
            }
        };
        let mut start = 0;
        while start < text.len() {
            let (line, next) = match find_newline(&text.as_bytes()[start..]) {
                Some(len) => {
                    let line = &text[start..start + len];
                    (line.strip_suffix('\r').unwrap_or(line), start + len + 1)
                }
                None if valid => (&text[start..], text.len()),
                // The rest is the start of the line with the bad byte.
                None => break,
            };
            start = next;
            if self.scan.line(line, base + next)? {
                self.scan
                    .close(&self.buf, base + next, Checked { text, base });
            }
        }
        self.pos = base + start;
        if valid {
            Ok(())
        } else {
            let line_no = self.scan.line_no + 1;
            Err(NetlistError::parse(line_no, "input is not valid UTF-8"))
        }
    }

    /// Pulls the next completed raw section, reading more chunks as
    /// needed.  `Ok(None)` at end of input.  Top-level scan errors, UTF-8
    /// errors and I/O errors are terminal: the sections the same read
    /// queued before the error are dropped with it.
    fn next_raw_section(&mut self) -> Result<Option<RawSection>> {
        loop {
            if let Some(section) = self.scan.ready.pop_front() {
                return Ok(Some(section));
            }
            if self.done {
                return Ok(None);
            }
            let mut chunk_span = rctree_obs::span("spef.chunk");
            let scanned = self.fill().and_then(|n| {
                chunk_span.attr_u64("bytes", n as u64);
                self.done = n == 0;
                self.scan_lines(self.done)
            });
            if let Err(e) = scanned {
                self.done = true;
                self.scan.ready.clear();
                self.scan.open = None;
                return Err(e);
            }
            if self.done {
                // An open section is parsed as-is, so its missing `*END`
                // is reported at the header.
                let end = self.buf.len();
                let checked = Checked {
                    text: "",
                    base: end,
                };
                self.scan.close(&self.buf, end, checked);
            }
        }
    }

    /// Scans up to [`PARSE_BATCH`] completed sections.
    fn scan_batch(&mut self) -> Result<Vec<RawSection>> {
        let mut raws = Vec::new();
        while raws.len() < PARSE_BATCH {
            match self.next_raw_section()? {
                Some(raw) => raws.push(raw),
                None => break,
            }
        }
        Ok(raws)
    }

    /// Parses and returns the next batch of nets, in document order;
    /// `Ok(None)` at end of input.  Each batch is parsed in parallel by
    /// the calling thread and `jobs - 1` threads of the persistent
    /// [`rctree_par::global_pool`] (0 is taken as 1).  With more than one
    /// job, one batch is in flight: the calling thread scans the next
    /// batch while the pool parses this one, then joins the parse.
    ///
    /// When a section body fails to parse, the rest of the input is still
    /// scanned and a top-level scan error found there wins over the
    /// section error.  A scan error found while a batch is in flight is
    /// returned after that batch's nets when the batch parses, and in
    /// place of them when it does not.  Any error is terminal for the
    /// reader.
    pub fn next_nets(&mut self, jobs: usize) -> Result<Option<Vec<SpefNet>>> {
        let raws = match self.ahead.take() {
            Some(scanned) => scanned?,
            None => self.scan_batch()?,
        };
        if raws.is_empty() {
            return Ok(None);
        }
        // Workers own their data on the persistent pool: the batch is
        // shared, and each net's name is copied out once its tree is in.
        let raws = Arc::new(raws);
        let parse = rctree_par::start_map_global(jobs, Arc::clone(&raws), raws.len(), |i, raws| {
            raws[i].tree()
        });
        if jobs > 1 {
            self.ahead = Some(self.scan_batch());
        }
        // The calling thread's share of the parse and its wait: disjoint
        // from the `spef.chunk` spans of the scan above.
        let mut batch_span = rctree_obs::span("spef.parse_batch");
        let trees = parse.join();
        if batch_span.is_live() {
            let bytes = raws.iter().map(|raw| raw.body.len() as u64).sum();
            let max_nodes = trees.iter().flatten().map(RcTree::node_count).max();
            batch_span.attr_u64("nets", raws.len() as u64);
            batch_span.attr_u64("bytes", bytes);
            batch_span.attr_u64("max_nodes", max_nodes.unwrap_or(0) as u64);
        }
        drop(batch_span);
        let mut nets = Vec::with_capacity(raws.len());
        for (raw, tree) in raws.iter().zip(trees) {
            match tree {
                Ok(tree) => nets.push(SpefNet {
                    name: raw.name.clone(),
                    declared_total_cap: raw.declared_total_cap,
                    tree,
                }),
                Err(section_error) => {
                    // Keep scanning (not parsing) to end of input: a
                    // top-level error anywhere outranks this one.
                    if let Some(scanned) = self.ahead.take() {
                        scanned?;
                    }
                    while self.next_raw_section()?.is_some() {}
                    return Err(section_error);
                }
            }
        }
        Ok(Some(nets))
    }

    /// Parses the whole source, collecting every net in document order.
    ///
    /// Identical results and errors to [`crate::parse_spef_deck`] on the
    /// same bytes, including [`NetlistError::Empty`] when the input holds
    /// no `*D_NET` at all — but without ever holding the full text.
    pub fn parse_all(&mut self, jobs: usize) -> Result<Vec<SpefNet>> {
        let mut nets = Vec::new();
        while let Some(batch) = self.next_nets(jobs)? {
            nets.extend(batch);
        }
        if nets.is_empty() {
            return Err(NetlistError::Empty);
        }
        Ok(nets)
    }
}

/// Parses a SPEF-lite deck from any [`Read`] source in bounded memory —
/// the streaming drop-in for [`crate::parse_spef_deck`].
///
/// # Errors
///
/// The same errors in the same order as [`crate::parse_spef_deck`] on the
/// same bytes, plus [`NetlistError::Io`] for source failures and a
/// [`NetlistError::Parse`] for non-UTF-8 input.
pub fn parse_spef_read<R: Read>(source: R, jobs: usize) -> Result<Vec<SpefNet>> {
    SpefReader::new(source).parse_all(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
*SPEF \"IEEE 1481-1998\"\n\
*R_UNIT 1 OHM\n\
*C_UNIT 1 PF\n\
*D_NET net1 0.022\n\
*CONN\n\
*I buf:Z I\n\
*P ff1:CK O\n\
*CAP\n\
1 n1 0.002\n\
2 ff1:CK 0.020\n\
*RES\n\
1 buf:Z n1 15.0\n\
2 n1 ff1:CK 8.0\n\
*END\n";

    #[test]
    fn streams_match_whole_text_parse() {
        let want = crate::parse_spef_deck(SAMPLE, 1).unwrap();
        for chunk in [1, 2, 3, 7, 64, DEFAULT_CHUNK] {
            let mut reader = SpefReader::with_chunk_size(SAMPLE.as_bytes(), chunk);
            assert_eq!(reader.parse_all(1).unwrap(), want, "chunk {chunk}");
        }
    }

    /// A chain net of `len` resistors: its header line, and its body
    /// through `*END` with line endings.
    fn chain_net(name: &str, len: usize) -> (String, String) {
        let mut body = format!("*CONN\n*I d I\n*P n{len} O\n*CAP\n1 n{len} 1\n*RES\n");
        for k in 1..=len {
            let from = if k == 1 {
                "d".to_string()
            } else {
                format!("n{}", k - 1)
            };
            body.push_str(&format!("{k} {from} n{k} 1\n"));
        }
        body.push_str("*END\n");
        (format!("*D_NET {name} 1\n"), body)
    }

    #[test]
    fn parse_batch_spans_carry_sizes_and_stay_clear_of_the_scan() {
        // Two batches, so one is in flight while the next is scanned.
        let nets = PARSE_BATCH + 88;
        let mut deck = String::new();
        let mut bytes = [0u64; 2];
        let mut max_nodes = [0u64; 2];
        for i in 0..nets {
            let len = 1 + (i * 7) % 23;
            let (header, body) = chain_net(&format!("net{i}"), len);
            let batch = i / PARSE_BATCH;
            bytes[batch] += body.len() as u64;
            max_nodes[batch] = max_nodes[batch].max(len as u64 + 1);
            deck.push_str(&header);
            deck.push_str(&body);
        }
        for jobs in [1, 2, 3] {
            let obs = rctree_obs::Obs::new(rctree_obs::ObsConfig::default());
            {
                let _scope = obs.enter();
                let mut reader = SpefReader::with_chunk_size(deck.as_bytes(), 4096);
                assert_eq!(reader.parse_all(jobs).unwrap().len(), nets);
            }
            let spans = obs.ring().recent(obs.ring().capacity());
            let attr = |span: &rctree_obs::SpanRecord, key: &str| {
                let value = span.attrs.iter().find(|(k, _)| *k == key);
                match value.map(|(_, v)| v) {
                    Some(rctree_obs::AttrValue::U64(v)) => *v,
                    other => panic!("attribute {key}: {other:?}"),
                }
            };
            let batches: Vec<_> = spans
                .iter()
                .filter(|s| s.name == "spef.parse_batch")
                .collect();
            assert_eq!(batches.len(), 2, "jobs = {jobs}");
            for (k, span) in batches.iter().enumerate() {
                let want_nets = if k == 0 { PARSE_BATCH } else { 88 };
                assert_eq!(attr(span, "nets"), want_nets as u64, "jobs = {jobs}");
                assert_eq!(attr(span, "bytes"), bytes[k], "jobs = {jobs}");
                assert_eq!(attr(span, "max_nodes"), max_nodes[k], "jobs = {jobs}");
            }
            // The calling thread's scan and parse spans never overlap, so
            // neither counts time the other already covers.
            let chunks = spans.iter().filter(|s| s.name == "spef.chunk");
            for chunk in chunks {
                for batch in &batches {
                    let apart = chunk.start_ns + chunk.dur_ns <= batch.start_ns
                        || batch.start_ns + batch.dur_ns <= chunk.start_ns;
                    assert!(apart, "jobs = {jobs}: {chunk:?} overlaps {batch:?}");
                }
            }
        }
    }

    #[test]
    fn in_flight_batches_keep_the_error_order() {
        // A deck of two batches and a bit; `bad_cap` breaks a section of
        // the first batch, `bad_unit` puts a malformed unit directive in
        // the second batch's stretch, scanned while the first is parsed.
        let deck = |bad_cap: bool, bad_unit: bool| {
            let mut deck = String::new();
            for i in 0..PARSE_BATCH + 9 {
                if i == PARSE_BATCH + 3 && bad_unit {
                    deck.push_str("*R_UNIT 1 PARSEC\n");
                }
                let (header, body) = chain_net(&format!("net{i}"), 2);
                deck.push_str(&header);
                match i == 5 && bad_cap {
                    true => deck.push_str(&body.replace("1 n2 1\n", "1 n2 bogus\n")),
                    false => deck.push_str(&body),
                }
            }
            deck
        };
        let token = |result: Result<Option<Vec<SpefNet>>>| match result {
            Err(NetlistError::Parse { token, .. }) => token.unwrap(),
            other => panic!("unexpected: {other:?}"),
        };
        // Small chunks, so the first batch is complete before the scan
        // reaches the bad directive.
        let reader =
            |text: &str| SpefReader::with_chunk_size(std::io::Cursor::new(text.to_string()), 64);
        for jobs in [1, 2, 3] {
            // The first batch parses: its nets come out before the scan
            // error found while it was in flight.
            let mut pull = reader(&deck(false, true));
            let first = pull.next_nets(jobs).unwrap().unwrap();
            assert_eq!(first.len(), PARSE_BATCH, "jobs = {jobs}");
            assert_eq!(token(pull.next_nets(jobs)), "PARSEC", "jobs = {jobs}");
            // It does not: the scan error still outranks its section error.
            assert_eq!(token(reader(&deck(true, true)).next_nets(jobs)), "PARSEC");
            // With no scan error, the section error stands.
            assert_eq!(token(reader(&deck(true, false)).next_nets(jobs)), "bogus");
            let text = deck(false, false);
            let all = reader(&text).parse_all(jobs).unwrap();
            assert_eq!(all, crate::parse_spef(&text).unwrap(), "jobs = {jobs}");
        }
    }

    #[test]
    fn a_scan_error_ends_the_pull() {
        // Nets `a` and `b` are complete before the bad directive, so one
        // read can queue them ahead of the error.
        let net = |name: &str| {
            format!("*D_NET {name} 1\n*CONN\n*I d I\n*P y O\n*CAP\n1 y 1\n*RES\n1 d y 1\n*END\n")
        };
        let deck = format!("{}{}*R_UNIT 1 PARSEC\n{}", net("a"), net("b"), net("c"));
        for jobs in [1, 2] {
            for chunk in [1, DEFAULT_CHUNK] {
                let mut reader = SpefReader::with_chunk_size(deck.as_bytes(), chunk);
                match reader.next_nets(jobs) {
                    Err(NetlistError::Parse { token, .. }) => {
                        assert_eq!(token.as_deref(), Some("PARSEC"))
                    }
                    other => panic!("jobs {jobs}, chunk {chunk}: {other:?}"),
                }
                for _ in 0..3 {
                    let later = reader.next_nets(jobs);
                    assert!(
                        matches!(later, Ok(None)),
                        "jobs {jobs}, chunk {chunk}: {later:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(matches!(
            parse_spef_read("// nothing\n".as_bytes(), 1),
            Err(NetlistError::Empty)
        ));
        assert!(matches!(
            parse_spef_read("".as_bytes(), 1),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn io_failures_surface_as_io_errors() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        match parse_spef_read(Broken, 1) {
            Err(NetlistError::Io { message }) => assert!(message.contains("disk on fire")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_utf8_input_is_a_parse_error_at_the_line() {
        let mut bytes = SAMPLE.as_bytes().to_vec();
        bytes.extend_from_slice(b"*D_NET bad \xFF\n");
        match parse_spef_read(&bytes[..], 1) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 15),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
