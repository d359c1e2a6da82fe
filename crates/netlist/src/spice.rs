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

use std::collections::HashMap;

use rctree_core::builder::RcTreeBuilder;
use rctree_core::element::Branch;
use rctree_core::tree::{NodeId, RcTree};
use rctree_core::units::{Farads, Ohms};

use crate::error::{NetlistError, Result};
use crate::value::{format_value, parse_value};

/// Default name of the input node when no `.input` directive is present.
pub const DEFAULT_INPUT: &str = "in";

/// A parsed resistive branch card (resistor or uniform line) shared between
/// the SPICE and SPEF parsers.  Node names borrow the parsed text.
#[derive(Debug, Clone)]
pub(crate) struct BranchCard<'a> {
    pub(crate) line: usize,
    pub(crate) node_a: &'a str,
    pub(crate) node_b: &'a str,
    pub(crate) resistance: f64,
    pub(crate) capacitance: f64,
    pub(crate) distributed: bool,
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
    let mut branches: Vec<BranchCard> = Vec::new();
    let mut caps: Vec<(usize, &str, f64)> = Vec::new();
    let mut input: Option<&str> = None;
    let mut outputs: Vec<(usize, &str)> = Vec::new();

    for (idx, raw_line) in deck.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let head = tokens[0].to_ascii_lowercase();

        if head == ".end" {
            break;
        }
        if head == ".input" {
            let name = tokens.get(1).ok_or_else(|| {
                NetlistError::parse_at(line_no, tokens[0], ".input requires a node name")
            })?;
            input = Some(*name);
            continue;
        }
        if head == ".output" {
            if tokens.len() < 2 {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens[0],
                    ".output requires at least one node name",
                ));
            }
            outputs.extend(tokens[1..].iter().map(|s| (line_no, *s)));
            continue;
        }
        if head.starts_with('.') {
            // Unknown directives are ignored for forward compatibility.
            continue;
        }

        match head.chars().next() {
            Some('r') => {
                let (a, b, v) = three_fields(&tokens, line_no)?;
                branches.push(BranchCard {
                    line: line_no,
                    node_a: a,
                    node_b: b,
                    resistance: v,
                    capacitance: 0.0,
                    distributed: false,
                });
            }
            Some('c') => {
                let (node, other, v) = three_fields(&tokens, line_no)?;
                if is_ground(other) {
                    caps.push((line_no, node, v));
                } else if is_ground(node) {
                    caps.push((line_no, other, v));
                } else {
                    return Err(NetlistError::FloatingCapacitor { line: line_no });
                }
            }
            Some('u') => {
                if tokens.len() < 5 {
                    return Err(NetlistError::parse_at(
                        line_no,
                        tokens[0],
                        "U card requires: name node node R C",
                    ));
                }
                let r = parse_value(tokens[3], line_no)?;
                let c = parse_value(tokens[4], line_no)?;
                branches.push(BranchCard {
                    line: line_no,
                    node_a: tokens[1],
                    node_b: tokens[2],
                    resistance: r,
                    capacitance: c,
                    distributed: true,
                });
            }
            _ => {
                return Err(NetlistError::parse_at(
                    line_no,
                    tokens[0],
                    format!("unknown element card `{}`", tokens[0]),
                ));
            }
        }
    }

    if branches.is_empty() && caps.is_empty() {
        return Err(NetlistError::Empty);
    }

    build_tree(input.unwrap_or(DEFAULT_INPUT), &branches, &caps, &outputs)
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

/// Assembles branch and capacitor cards into a validated [`RcTree`].
///
/// Shared between the SPICE and SPEF parsers.  Node names are numbered in
/// a local table (the input is 0), resistive branches become a CSR
/// adjacency (every node's branch indices, in card order, in one flat
/// array), and the depth-first elaboration from the input tracks visited
/// nodes by index; only the names of the built tree's nodes are
/// allocated.
pub(crate) fn build_tree(
    input_name: &str,
    branches: &[BranchCard<'_>],
    caps: &[(usize, &str, f64)],
    outputs: &[(usize, &str)],
) -> Result<RcTree> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut names = vec![input_name];
    index.insert(input_name, 0);
    let mut intern = |name| {
        *index.entry(name).or_insert_with(|| {
            names.push(name);
            names.len() - 1
        })
    };
    let mut ends = Vec::with_capacity(branches.len());
    for b in branches {
        if is_ground(b.node_a) || is_ground(b.node_b) {
            return Err(NetlistError::NotATree {
                message: format!(
                    "line {}: resistive element connects to ground, which an RC tree forbids",
                    b.line
                ),
            });
        }
        ends.push((intern(b.node_a), intern(b.node_b)));
    }

    // CSR adjacency: node `v`'s branches are `edges[start[v]..start[v + 1]]`.
    let mut start = vec![0usize; names.len() + 1];
    for &(a, b) in &ends {
        start[a + 1] += 1;
        start[b + 1] += 1;
    }
    for v in 0..names.len() {
        start[v + 1] += start[v];
    }
    let mut fill = start[..names.len()].to_vec();
    let mut edges = vec![0usize; 2 * ends.len()];
    for (i, &(a, b)) in ends.iter().enumerate() {
        for v in [a, b] {
            edges[fill[v]] = i;
            fill[v] += 1;
        }
    }
    let degree = |v: usize| start[v + 1] - start[v];

    if !branches.is_empty() && degree(0) == 0 {
        return Err(NetlistError::UnknownInput {
            name: input_name.to_string(),
        });
    }

    let mut builder = RcTreeBuilder::with_input_name(input_name);
    // The built node of each name, once the elaboration reaches it.
    let mut node: Vec<Option<NodeId>> = vec![None; names.len()];
    node[0] = Some(builder.input());
    let mut used = vec![false; branches.len()];

    // Depth-first elaboration from the input.
    let mut frontier = vec![0usize];
    while let Some(v) = frontier.pop() {
        let parent_id = node[v].expect("frontier nodes are built");
        for &edge in &edges[start[v]..start[v + 1]] {
            if used[edge] {
                continue;
            }
            let b = &branches[edge];
            let (a, z) = ends[edge];
            let other = if a == v { z } else { a };
            used[edge] = true;
            if node[other].is_some() {
                return Err(NetlistError::NotATree {
                    message: format!(
                        "line {}: element between `{}` and `{}` closes a loop",
                        b.line, b.node_a, b.node_b
                    ),
                });
            }
            let child = if b.distributed {
                builder.add_line(
                    parent_id,
                    names[other],
                    Ohms::new(b.resistance),
                    Farads::new(b.capacitance),
                )?
            } else {
                builder.add_resistor(parent_id, names[other], Ohms::new(b.resistance))?
            };
            node[other] = Some(child);
            frontier.push(other);
        }
    }

    if let Some(unused) = used.iter().position(|u| !u) {
        let b = &branches[unused];
        return Err(NetlistError::NotATree {
            message: format!(
                "line {}: element between `{}` and `{}` is not reachable from the input `{}`",
                b.line, b.node_a, b.node_b, input_name
            ),
        });
    }
    let built = |name: &str| index.get(name).and_then(|&v| node[v]);

    // Grounded capacitors.
    for &(line, name, value) in caps {
        let id = built(name).ok_or_else(|| {
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
        for (v, id) in node.iter().enumerate().skip(1) {
            if degree(v) == 1 {
                builder.mark_output(id.expect("leaves were visited"))?;
            }
        }
    } else {
        for &(line, name) in outputs {
            let id = built(name).ok_or_else(|| {
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

    #[test]
    fn semicolon_comments_are_stripped() {
        let deck = "R1 in a 10 ; driver\nC1 a 0 1 ; load\n.output a\n";
        let tree = parse_spice(deck).unwrap();
        assert_eq!(tree.node_count(), 2);
    }
}
