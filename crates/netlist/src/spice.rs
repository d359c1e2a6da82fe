//! SPICE-subset deck parser and writer for RC trees.
//!
//! The accepted deck format covers exactly the element set of the paper's
//! RC-tree model:
//!
//! ```text
//! * Figure 7 example network (comment)
//! R1   in  n1  15
//! C1   n1  0   2
//! RB   n1  ns  8
//! CB   ns  0   7
//! U1   n1  n2  3 4        ; uniform RC line, total R then total C
//! C2   n2  0   9
//! .input  in
//! .output n2
//! .end
//! ```
//!
//! * `R` cards are lumped resistors, `C` cards grounded capacitors (one
//!   terminal must be node `0`/`gnd`), `U` cards uniform distributed RC
//!   lines with total resistance and capacitance.
//! * Values accept SPICE engineering suffixes (`15`, `0.04p`, `1.5k`, …).
//! * `.input` names the driven root (default: a node literally named `in`);
//!   `.output` marks one or more observation nodes.
//! * Comments start with `*` or `;`; everything after `;` on a line is
//!   ignored.
//!
//! The parser verifies that the resistive elements form a tree rooted at the
//! input (single drive point, no loops, everything connected), mirroring the
//! paper's definition of an RC tree.

use std::cell::RefCell;

use rctree_core::builder::RcTreeBuilder;
use rctree_core::element::Branch;
use rctree_core::intern::{Interner, NameId};
use rctree_core::tree::{NodeId, RcTree};
use rctree_core::units::{Farads, Ohms};

use crate::error::{NetlistError, Result};
use crate::value::{format_value, parse_value};

/// Default name of the input node when no `.input` directive is present.
pub const DEFAULT_INPUT: &str = "in";

/// A parsed resistive branch card (resistor or uniform line) shared between
/// the SPICE and SPEF parsers.  Node names are ids in the [`Assembler`]'s
/// name table, so the card lists outlive the text of one section.
#[derive(Debug, Clone, Copy)]
struct BranchCard {
    line: usize,
    node_a: NameId,
    node_b: NameId,
    resistance: f64,
    capacitance: f64,
    distributed: bool,
}

/// A section with more names or cards than this gives its assembler's
/// buffers back once it is built, so one very large net does not pin its
/// scratch on every worker for the rest of the process.
const SCRATCH_RELEASE: usize = 4096;

thread_local! {
    /// This thread's assembler; the SPICE parser and every SPEF section
    /// parsed on the thread reuse its buffers.
    static ASSEMBLER: RefCell<Assembler> = RefCell::new(Assembler::default());
}

/// The one tree assembler, shared between the SPICE and SPEF parsers: it
/// collects a net's branch, capacitor and output cards and turns them into
/// a validated [`RcTree`].
///
/// Node names are numbered in a local [`Interner`] as the cards arrive;
/// resistive branches become a CSR adjacency (every node's branch indices,
/// in card order, in one flat array), and the depth-first elaboration from
/// the input tracks visited nodes by name id.  Every buffer is per-thread
/// scratch ([`Assembler::with`]), so a section allocates only its tree,
/// whose columns are sized once from the name table.
#[derive(Debug, Default)]
pub(crate) struct Assembler {
    names: Interner,
    branches: Vec<BranchCard>,
    caps: Vec<(usize, NameId, f64)>,
    outputs: Vec<(usize, NameId)>,
    /// Line of the first branch card with a grounded end, if any.
    grounded: Option<usize>,
    /// CSR adjacency: node `v`'s branches are `edges[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    fill: Vec<u32>,
    edges: Vec<u32>,
    /// The built node of each name, once the elaboration reaches it.
    node: Vec<Option<NodeId>>,
    used: Vec<bool>,
    frontier: Vec<NameId>,
}

impl Assembler {
    /// Runs `f` with this thread's assembler, emptied first.
    pub(crate) fn with<T>(f: impl FnOnce(&mut Assembler) -> T) -> T {
        ASSEMBLER.with(|cell| {
            let mut asm = cell.borrow_mut();
            asm.clear();
            let out = f(&mut asm);
            let cards = asm
                .branches
                .len()
                .max(asm.caps.len())
                .max(asm.outputs.len());
            if asm.names.len().max(cards) > SCRATCH_RELEASE {
                *asm = Assembler::default();
            }
            out
        })
    }

    fn clear(&mut self) {
        self.names.clear();
        self.branches.clear();
        self.caps.clear();
        self.outputs.clear();
        self.grounded = None;
    }

    /// Whether no branch or capacitor card has been added.
    fn is_empty(&self) -> bool {
        self.branches.is_empty() && self.caps.is_empty()
    }

    /// A resistive branch card between nodes `a` and `b`.
    pub(crate) fn branch(
        &mut self,
        line: usize,
        a: &str,
        b: &str,
        r: f64,
        c: f64,
        distributed: bool,
    ) {
        if self.grounded.is_none() && (is_ground(a) || is_ground(b)) {
            self.grounded = Some(line);
        }
        let card = BranchCard {
            line,
            node_a: self.names.intern(a),
            node_b: self.names.intern(b),
            resistance: r,
            capacitance: c,
            distributed,
        };
        self.branches.push(card);
    }

    /// A grounded capacitor card on `node`.
    pub(crate) fn cap(&mut self, line: usize, node: &str, value: f64) {
        let id = self.names.intern(node);
        self.caps.push((line, id, value));
    }

    /// An output card naming `node`.
    pub(crate) fn output(&mut self, line: usize, node: &str) {
        let id = self.names.intern(node);
        self.outputs.push((line, id));
    }

    /// Assembles the cards into a validated [`RcTree`] driven at
    /// `input_name`.
    ///
    /// Every name of a valid tree is one of its nodes, so the name table's
    /// size is the tree's: the builder's columns are allocated once, at
    /// their final size.
    pub(crate) fn build(&mut self, input_name: &str) -> Result<RcTree> {
        if let Some(line) = self.grounded {
            return Err(NetlistError::NotATree {
                message: format!(
                    "line {line}: resistive element connects to ground, which an RC tree forbids"
                ),
            });
        }
        let root = self.names.intern(input_name);
        let Assembler {
            names,
            branches,
            caps,
            outputs,
            start,
            fill,
            edges,
            node,
            used,
            frontier,
            ..
        } = self;
        let n = names.len();

        start.clear();
        start.resize(n + 1, 0);
        for b in branches.iter() {
            start[b.node_a.index() + 1] += 1;
            start[b.node_b.index() + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        fill.clear();
        fill.extend_from_slice(&start[..n]);
        edges.clear();
        edges.resize(2 * branches.len(), 0);
        for (i, b) in branches.iter().enumerate() {
            for v in [b.node_a.index(), b.node_b.index()] {
                edges[fill[v] as usize] = i as u32;
                fill[v] += 1;
            }
        }
        let degree = |v: usize| start[v + 1] - start[v];

        if !branches.is_empty() && degree(root.index()) == 0 {
            return Err(NetlistError::UnknownInput {
                name: input_name.to_string(),
            });
        }

        let mut builder = RcTreeBuilder::with_capacity(input_name, n, names.text_bytes());
        node.clear();
        node.resize(n, None);
        node[root.index()] = Some(builder.input());
        used.clear();
        used.resize(branches.len(), false);

        // Depth-first elaboration from the input.
        frontier.clear();
        frontier.push(root);
        while let Some(v) = frontier.pop() {
            let parent_id = node[v.index()].expect("frontier nodes are built");
            let range = start[v.index()] as usize..start[v.index() + 1] as usize;
            for &edge in &edges[range] {
                let edge = edge as usize;
                if used[edge] {
                    continue;
                }
                let b = &branches[edge];
                let other = if b.node_a == v { b.node_b } else { b.node_a };
                used[edge] = true;
                if node[other.index()].is_some() {
                    return Err(NetlistError::NotATree {
                        message: format!(
                            "line {}: element between `{}` and `{}` closes a loop",
                            b.line,
                            names.resolve(b.node_a),
                            names.resolve(b.node_b)
                        ),
                    });
                }
                let child = if b.distributed {
                    builder.add_line(
                        parent_id,
                        names.resolve(other),
                        Ohms::new(b.resistance),
                        Farads::new(b.capacitance),
                    )?
                } else {
                    builder.add_resistor(
                        parent_id,
                        names.resolve(other),
                        Ohms::new(b.resistance),
                    )?
                };
                node[other.index()] = Some(child);
                frontier.push(other);
            }
        }

        if let Some(unused) = used.iter().position(|u| !u) {
            let b = &branches[unused];
            return Err(NetlistError::NotATree {
                message: format!(
                    "line {}: element between `{}` and `{}` is not reachable from the input `{}`",
                    b.line,
                    names.resolve(b.node_a),
                    names.resolve(b.node_b),
                    input_name
                ),
            });
        }

        // Grounded capacitors.
        for &(line, name, value) in caps.iter() {
            let id = node[name.index()].ok_or_else(|| {
                let name = names.resolve(name);
                NetlistError::parse_at(
                    line,
                    name,
                    format!("capacitor references unknown node `{name}`"),
                )
            })?;
            builder.add_capacitance(id, Farads::new(value))?;
        }

        // Outputs (default: every leaf — a node on exactly one branch that is
        // not the input — if none are specified).
        if outputs.is_empty() {
            for (v, id) in node.iter().enumerate() {
                if v != root.index() && degree(v) == 1 {
                    builder.mark_output(id.expect("leaves were visited"))?;
                }
            }
        } else {
            for &(line, name) in outputs.iter() {
                let id = node[name.index()].ok_or_else(|| {
                    let name = names.resolve(name);
                    NetlistError::parse_at(
                        line,
                        name,
                        format!("output references unknown node `{name}`"),
                    )
                })?;
                builder.mark_output(id)?;
            }
        }

        Ok(builder.build()?)
    }
}

/// Parses a SPICE-subset deck into an [`RcTree`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for syntax errors,
/// [`NetlistError::NotATree`] if the resistive elements do not form a tree
/// rooted at the input, [`NetlistError::FloatingCapacitor`] for capacitors
/// not connected to ground, and [`NetlistError::Empty`] for decks without
/// elements.
pub fn parse_spice(deck: &str) -> Result<RcTree> {
    Assembler::with(|asm| parse_spice_into(asm, deck))
}

/// [`parse_spice`] into this thread's assembler.
fn parse_spice_into(asm: &mut Assembler, deck: &str) -> Result<RcTree> {
    let mut input: Option<&str> = None;
    let mut tokens: Vec<&str> = Vec::new();

    for (idx, raw_line) in deck.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        tokens.clear();
        tokens.extend(line.split_whitespace());
        let head = tokens[0];

        if head.eq_ignore_ascii_case(".end") {
            break;
        }
        if head.eq_ignore_ascii_case(".input") {
            let name = tokens.get(1).ok_or_else(|| {
                NetlistError::parse_at(line_no, head, ".input requires a node name")
            })?;
            input = Some(*name);
            continue;
        }
        if head.eq_ignore_ascii_case(".output") {
            if tokens.len() < 2 {
                return Err(NetlistError::parse_at(
                    line_no,
                    head,
                    ".output requires at least one node name",
                ));
            }
            for name in &tokens[1..] {
                asm.output(line_no, name);
            }
            continue;
        }
        if head.starts_with('.') {
            // Unknown directives are ignored for forward compatibility.
            continue;
        }

        match head.as_bytes()[0].to_ascii_lowercase() {
            b'r' => {
                let (a, b, v) = three_fields(&tokens, line_no)?;
                asm.branch(line_no, a, b, v, 0.0, false);
            }
            b'c' => {
                let (node, other, v) = three_fields(&tokens, line_no)?;
                if is_ground(other) {
                    asm.cap(line_no, node, v);
                } else if is_ground(node) {
                    asm.cap(line_no, other, v);
                } else {
                    return Err(NetlistError::FloatingCapacitor { line: line_no });
                }
            }
            b'u' => {
                if tokens.len() < 5 {
                    return Err(NetlistError::parse_at(
                        line_no,
                        head,
                        "U card requires: name node node R C",
                    ));
                }
                let r = parse_value(tokens[3], line_no)?;
                let c = parse_value(tokens[4], line_no)?;
                asm.branch(line_no, tokens[1], tokens[2], r, c, true);
            }
            _ => {
                return Err(NetlistError::parse_at(
                    line_no,
                    head,
                    format!("unknown element card `{head}`"),
                ));
            }
        }
    }

    if asm.is_empty() {
        return Err(NetlistError::Empty);
    }

    asm.build(input.unwrap_or(DEFAULT_INPUT))
}

fn three_fields<'a>(tokens: &[&'a str], line: usize) -> Result<(&'a str, &'a str, f64)> {
    if tokens.len() < 4 {
        return Err(NetlistError::parse_at(
            line,
            tokens[0],
            format!("`{}` card requires: name node node value", tokens[0]),
        ));
    }
    let v = parse_value(tokens[3], line)?;
    Ok((tokens[1], tokens[2], v))
}

fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd") || name.eq_ignore_ascii_case("vss")
}

/// Writes an [`RcTree`] as a SPICE-subset deck accepted by [`parse_spice`].
pub fn write_spice(tree: &RcTree, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("* {title}\n"));
    let input_name = tree.name(tree.input()).expect("input exists").to_string();
    let mut r_count = 0usize;
    let mut u_count = 0usize;
    let mut c_count = 0usize;

    for id in tree.preorder() {
        if id == tree.input() {
            continue;
        }
        let name = tree.name(id).expect("valid node");
        let parent = tree.parent(id).expect("valid node").expect("non-input");
        let parent_name = tree.name(parent).expect("valid node");
        match tree.branch(id).expect("valid node").expect("non-input") {
            Branch::Resistor { resistance } => {
                r_count += 1;
                out.push_str(&format!(
                    "R{r_count} {parent_name} {name} {}\n",
                    format_value(resistance.value(), "")
                ));
            }
            Branch::Line {
                resistance,
                capacitance,
            } => {
                u_count += 1;
                out.push_str(&format!(
                    "U{u_count} {parent_name} {name} {} {}\n",
                    format_value(resistance.value(), ""),
                    format_value(capacitance.value(), "")
                ));
            }
        }
    }
    for id in tree.preorder() {
        let cap = tree.capacitance(id).expect("valid node");
        if !cap.is_zero() {
            c_count += 1;
            let name = tree.name(id).expect("valid node");
            out.push_str(&format!(
                "C{c_count} {name} 0 {}\n",
                format_value(cap.value(), "")
            ));
        }
    }
    out.push_str(&format!(".input {input_name}\n"));
    let outputs: Vec<String> = tree
        .outputs()
        .map(|id| tree.name(id).expect("valid").to_string())
        .collect();
    if !outputs.is_empty() {
        out.push_str(&format!(".output {}\n", outputs.join(" ")));
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rctree_core::moments::characteristic_times;

    const FIG7_DECK: &str = r"
* Figure 7 example network
R1   in  n1  15
C1   n1  0   2
RB   n1  ns  8
CB   ns  0   7
U1   n1  n2  3 4
C2   n2  0   9
.input  in
.output n2
.end
";

    #[test]
    fn parses_figure7_deck() {
        let tree = parse_spice(FIG7_DECK).unwrap();
        assert_eq!(tree.node_count(), 4);
        assert_eq!(tree.total_capacitance(), Farads::new(22.0));
        let out = tree.node_by_name("n2").unwrap();
        assert!(tree.is_output(out).unwrap());
        let t = characteristic_times(&tree, out).unwrap();
        assert!((t.t_p.value() - 419.0).abs() < 1e-9);
        assert!((t.t_d.value() - 363.0).abs() < 1e-9);
    }

    #[test]
    fn engineering_suffixes_in_deck() {
        let deck = r"
Rdrv in  a  380
Cdrv a   0  0.04p
Rw   a   b  1.5k
Cl   b   0  10f
.output b
";
        let tree = parse_spice(deck).unwrap();
        let b = tree.node_by_name("b").unwrap();
        assert!((tree.total_capacitance().value() - (0.04e-12 + 10e-15)).abs() < 1e-20);
        assert_eq!(tree.resistance_from_input(b).unwrap(), Ohms::new(1880.0));
    }

    #[test]
    fn default_outputs_are_leaves() {
        let deck = r"
R1 in a 10
R2 a  b 20
R3 a  c 30
C1 b 0 1
C2 c 0 1
";
        let tree = parse_spice(deck).unwrap();
        let outs: Vec<String> = tree
            .outputs()
            .map(|id| tree.name(id).unwrap().to_string())
            .collect();
        assert_eq!(outs.len(), 2);
        assert!(outs.contains(&"b".to_string()));
        assert!(outs.contains(&"c".to_string()));
    }

    #[test]
    fn ground_aliases_for_capacitors() {
        for gnd in ["0", "gnd", "GND", "vss"] {
            let deck = format!("R1 in a 10\nC1 a {gnd} 2\n.output a\n");
            let tree = parse_spice(&deck).unwrap();
            assert_eq!(tree.total_capacitance(), Farads::new(2.0));
        }
    }

    #[test]
    fn floating_capacitor_rejected() {
        let deck = "R1 in a 10\nC1 a b 2\n";
        assert!(matches!(
            parse_spice(deck),
            Err(NetlistError::FloatingCapacitor { line: 2 })
        ));
    }

    #[test]
    fn loops_are_rejected() {
        let deck = "R1 in a 10\nR2 a b 10\nR3 b in 10\nC1 b 0 1\n";
        assert!(matches!(
            parse_spice(deck),
            Err(NetlistError::NotATree { .. })
        ));
    }

    #[test]
    fn disconnected_elements_are_rejected() {
        let deck = "R1 in a 10\nR2 x y 10\nC1 a 0 1\n";
        assert!(matches!(
            parse_spice(deck),
            Err(NetlistError::NotATree { .. })
        ));
    }

    #[test]
    fn resistor_to_ground_is_rejected() {
        let deck = "R1 in a 10\nR2 a 0 10\nC1 a 0 1\n";
        assert!(matches!(
            parse_spice(deck),
            Err(NetlistError::NotATree { .. })
        ));
    }

    #[test]
    fn unknown_cards_and_missing_fields_rejected() {
        assert!(matches!(
            parse_spice("X1 a b 5\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_spice("R1 a b\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_spice("U1 a b 5\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_spice(".output\nR1 in a 1\nC1 a 0 1\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_spice(".input\nR1 in a 1\n"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse_spice("* only a comment\n"),
            Err(NetlistError::Empty)
        ));
    }

    #[test]
    fn unknown_input_node_rejected() {
        let deck = "R1 in a 10\nC1 a 0 1\n.input vdd\n";
        assert!(matches!(
            parse_spice(deck),
            Err(NetlistError::UnknownInput { .. })
        ));
    }

    #[test]
    fn unknown_output_node_rejected() {
        let deck = "R1 in a 10\nC1 a 0 1\n.output zzz\n";
        assert!(matches!(parse_spice(deck), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn parse_errors_carry_line_and_token() {
        // A bad numeric literal deep in the deck is reported with the exact
        // 1-based line number and the offending token.
        let deck = "R1 in a 10\nC1 a 0 1\nR2 a b bogus\nC2 b 0 1\n.output b\n";
        match parse_spice(deck) {
            Err(NetlistError::Parse { line, token, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(token.as_deref(), Some("bogus"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // An unknown `.output` node is reported at the directive's line (it
        // used to surface as line 0 once the deck had been tokenized).
        match parse_spice("R1 in a 10\nC1 a 0 1\n.output zzz\n") {
            Err(NetlistError::Parse { line, token, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(token.as_deref(), Some("zzz"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Unknown element cards name the card itself.
        match parse_spice("X1 a b 5\n") {
            Err(NetlistError::Parse { line, token, .. }) => {
                assert_eq!(line, 1);
                assert_eq!(token.as_deref(), Some("X1"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn round_trip_through_writer() {
        let tree = parse_spice(FIG7_DECK).unwrap();
        let deck2 = write_spice(&tree, "round trip");
        let tree2 = parse_spice(&deck2).unwrap();
        assert_eq!(tree2.node_count(), tree.node_count());
        assert!(
            (tree2.total_capacitance().value() - tree.total_capacitance().value()).abs() < 1e-18
        );
        let out1 = tree.node_by_name("n2").unwrap();
        let out2 = tree2.node_by_name("n2").unwrap();
        let t1 = characteristic_times(&tree, out1).unwrap();
        let t2 = characteristic_times(&tree2, out2).unwrap();
        assert!((t1.t_p.value() - t2.t_p.value()).abs() < 1e-9);
        assert!((t1.t_d.value() - t2.t_d.value()).abs() < 1e-9);
        assert!((t1.t_r.value() - t2.t_r.value()).abs() < 1e-9);
    }

    #[test]
    fn nodes_are_numbered_in_depth_first_card_order() {
        // The elaboration expands the most recently reached node first and
        // walks each node's cards in deck order; node ids follow.
        let deck = "R1 in a 1\nR2 in b 1\nR3 a c 1\nR4 b d 1\nR5 a e 1\nC1 c 0 1\n";
        let tree = parse_spice(deck).unwrap();
        let names: Vec<&str> = tree.node_ids().map(|id| tree.name(id).unwrap()).collect();
        assert_eq!(names, ["in", "a", "b", "d", "c", "e"]);
        // Without `.output` cards every leaf is an output.
        let outs: Vec<&str> = tree.outputs().map(|id| tree.name(id).unwrap()).collect();
        assert_eq!(outs, ["d", "c", "e"]);
    }

    /// The largest buffer this thread's assembler holds, in elements.
    fn scratch_held() -> usize {
        ASSEMBLER.with(|cell| {
            let asm = cell.borrow();
            [
                asm.branches.capacity(),
                asm.caps.capacity(),
                asm.start.capacity(),
                asm.edges.capacity(),
                asm.node.capacity(),
                asm.used.capacity(),
                asm.frontier.capacity(),
            ]
            .into_iter()
            .max()
            .unwrap_or(0)
        })
    }

    #[test]
    fn a_large_net_gives_its_scratch_back() {
        let chain = |n: usize| {
            let mut deck = String::new();
            for k in 1..=n {
                let from = if k == 1 {
                    "in".to_string()
                } else {
                    format!("n{}", k - 1)
                };
                deck.push_str(&format!("R{k} {from} n{k} 1\nC{k} n{k} 0 1f\n"));
            }
            deck
        };
        // At the limit the buffers stay for the next net on this thread.
        let kept = parse_spice(&chain(SCRATCH_RELEASE - 1)).unwrap();
        assert_eq!(kept.node_count(), SCRATCH_RELEASE);
        assert!(scratch_held() >= SCRATCH_RELEASE - 1);
        // Past it they are freed, on success and on error alike.
        let freed = parse_spice(&chain(SCRATCH_RELEASE)).unwrap();
        assert_eq!(freed.node_count(), SCRATCH_RELEASE + 1);
        assert_eq!(scratch_held(), 0);
        let broken = format!("{}R0 n3 n7 1\n", chain(SCRATCH_RELEASE + 10));
        assert!(matches!(
            parse_spice(&broken),
            Err(NetlistError::NotATree { .. })
        ));
        assert_eq!(scratch_held(), 0);
        // A small net after a freed one parses as before.
        assert_eq!(parse_spice(FIG7_DECK).unwrap().node_count(), 4);
        assert!(scratch_held() < 64);
    }

    #[test]
    fn semicolon_comments_are_stripped() {
        let deck = "R1 in a 10 ; driver\nC1 a 0 1 ; load\n.output a\n";
        let tree = parse_spice(deck).unwrap();
        assert_eq!(tree.node_count(), 2);
    }
}
