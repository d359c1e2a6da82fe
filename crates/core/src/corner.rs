//! Multi-corner (PVT) scaling model.
//!
//! Real signoff evaluates the same deck at several process / voltage /
//! temperature corners.  The Penfield–Rubinstein characteristic times are
//! built from sums of `R·C` products, so a corner that scales every
//! resistance by `r_scale` and every capacitance by `c_scale` can reuse the
//! *topology* of the nominal analysis unchanged — only the element values
//! differ.  [`CornerSet`] names those corners and carries their scale
//! factors; `rctree-sta` splices each net once per corner lane, scaling
//! its element values as it splices them, and sweeps every lane with one
//! kernel.
//!
//! ## Scaling semantics
//!
//! For a corner `(r_scale, c_scale, delay_scale)`:
//!
//! * every **wire** branch resistance and capacitance, and every lumped
//!   interconnect node capacitance, is multiplied by the corner's
//!   `(r_scale, c_scale)` — or by a per-net override registered with
//!   [`CornerSet::override_net`] (modelling e.g. a metal layer whose RC
//!   tracks a different process axis);
//! * every **driver** resistance is multiplied by the *global* `r_scale`
//!   (cell drive strength tracks the process corner, not the wire stack);
//! * every **sink load** capacitance is multiplied by the global `c_scale`;
//! * every instance **intrinsic delay** is multiplied by `delay_scale`.
//!
//! Each scaling is a single `x * s` multiplication of the original nominal
//! value — one IEEE-754 rounding — so scaling at splice time, at sweep
//! time, or by materialising a fully scaled design all produce bit-identical
//! floats.  (Scaled *sums* would not: `(a + b) * s != a*s + b*s` in floating
//! point.  Every consumer therefore scales elements before accumulating.)
//!
//! Corner 0 is always the implicit **nominal** corner with unit scales; its
//! lane runs the exact float sequence of the single-corner path.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One named corner: global scale factors applied to the nominal deck.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (unique within a [`CornerSet`]).
    pub name: String,
    /// Multiplier on every resistance (wire and driver).
    pub r_scale: f64,
    /// Multiplier on every capacitance (wire, node, and sink load).
    pub c_scale: f64,
    /// Multiplier on every instance intrinsic delay.
    pub delay_scale: f64,
}

/// A named set of corners; index 0 is always the implicit nominal corner
/// with unit scales.
///
/// ```
/// use rctree_core::corner::CornerSet;
///
/// let mut corners = CornerSet::nominal();
/// corners.push("slow", 1.3, 1.2, 1.25).unwrap();
/// corners.push("fast", 0.8, 0.9, 0.85).unwrap();
/// assert_eq!(corners.len(), 3);
/// assert_eq!(corners.corner(0).name, "nominal");
/// assert_eq!(corners.index_of("fast"), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSet {
    corners: Vec<Corner>,
    /// Per-net wire-scale overrides: net name -> corner index -> (r, c).
    overrides: HashMap<String, BTreeMap<usize, (f64, f64)>>,
}

/// A malformed corner specification (invalid scale, duplicate name,
/// unknown corner in an override, or unparseable spec text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CornerError(String);

impl fmt::Display for CornerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corner spec: {}", self.0)
    }
}

impl std::error::Error for CornerError {}

fn check_scale(what: &str, value: f64) -> Result<(), CornerError> {
    if !value.is_finite() || value <= 0.0 {
        Err(CornerError(format!(
            "{what} scale {value} must be finite and positive"
        )))
    } else {
        Ok(())
    }
}

impl CornerSet {
    /// The single-corner set: just the implicit nominal corner.
    pub fn nominal() -> CornerSet {
        CornerSet {
            corners: vec![Corner {
                name: "nominal".to_string(),
                r_scale: 1.0,
                c_scale: 1.0,
                delay_scale: 1.0,
            }],
            overrides: HashMap::new(),
        }
    }

    /// Appends a corner and returns its index.  Scales must be finite and
    /// strictly positive (so zero elements stay zero and the per-lane error
    /// behaviour mirrors the nominal lane); names must be unique.
    pub fn push(
        &mut self,
        name: &str,
        r_scale: f64,
        c_scale: f64,
        delay_scale: f64,
    ) -> Result<usize, CornerError> {
        if name.is_empty() || name.contains(char::is_whitespace) || name.contains(',') {
            return Err(CornerError(format!(
                "corner name `{name}` must be non-empty without whitespace or commas"
            )));
        }
        if self.index_of(name).is_some() {
            return Err(CornerError(format!("duplicate corner name `{name}`")));
        }
        check_scale("resistance", r_scale)?;
        check_scale("capacitance", c_scale)?;
        check_scale("delay", delay_scale)?;
        self.corners.push(Corner {
            name: name.to_string(),
            r_scale,
            c_scale,
            delay_scale,
        });
        Ok(self.corners.len() - 1)
    }

    /// Registers a per-net wire-scale override: at corner `corner`, net
    /// `net`'s wire branch R/C and interconnect node caps use
    /// `(r_scale, c_scale)` instead of the corner's global scales.  Driver
    /// resistance and sink loads keep the global scales.
    pub fn override_net(
        &mut self,
        net: &str,
        corner: usize,
        r_scale: f64,
        c_scale: f64,
    ) -> Result<(), CornerError> {
        if corner == 0 {
            return Err(CornerError(
                "the nominal corner cannot be overridden (lane 0 is the unscaled deck)".to_string(),
            ));
        }
        if corner >= self.corners.len() {
            return Err(CornerError(format!(
                "override names corner index {corner}, but only {} corners exist",
                self.corners.len()
            )));
        }
        check_scale("resistance", r_scale)?;
        check_scale("capacitance", c_scale)?;
        self.overrides
            .entry(net.to_string())
            .or_default()
            .insert(corner, (r_scale, c_scale));
        Ok(())
    }

    /// Number of corners, nominal included (always `>= 1`).
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// `true` iff only the nominal corner is present.
    pub fn is_nominal_only(&self) -> bool {
        self.corners.len() == 1 && self.overrides.is_empty()
    }

    /// Never empty: corner 0 always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The corner at index `k` (panics if out of range).
    pub fn corner(&self, k: usize) -> &Corner {
        &self.corners[k]
    }

    /// All corners in index order.
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// The index of the named corner, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.corners.iter().position(|c| c.name == name)
    }

    /// Comma-joined corner names, in index order (the protocol tail).
    pub fn names_csv(&self) -> String {
        let names: Vec<&str> = self.corners.iter().map(|c| c.name.as_str()).collect();
        names.join(",")
    }

    /// The wire `(r_scale, c_scale)` for net `net` at corner `k`: the
    /// per-net override if one is registered, else the corner's globals.
    pub fn wire_scales(&self, net: &str, k: usize) -> (f64, f64) {
        if let Some(per_net) = self.overrides.get(net) {
            if let Some(&scales) = per_net.get(&k) {
                return scales;
            }
        }
        let c = &self.corners[k];
        (c.r_scale, c.c_scale)
    }

    /// Parses a corner specification.
    ///
    /// One entry per line (or `;`-separated); `#` starts a comment.
    ///
    /// ```text
    /// <name>=<r_scale>,<c_scale>[,<delay_scale>]     # appends a corner
    /// override <net> <corner-name> <r_scale> <c_scale>
    /// ```
    ///
    /// `delay_scale` defaults to 1.  Corner 0 (`nominal`, unit scales) is
    /// implicit and must not be redeclared.  Overrides may only reference
    /// corners already declared.
    pub fn parse(spec: &str) -> Result<CornerSet, CornerError> {
        let mut set = CornerSet::nominal();
        for raw in spec.lines().flat_map(|l| l.split(';')) {
            let entry = raw.split('#').next().unwrap_or("").trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(rest) = entry.strip_prefix("override ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [net, corner_name, rs, cs] = parts[..] else {
                    return Err(CornerError(format!(
                        "override `{entry}` must be `override <net> <corner> <r_scale> <c_scale>`"
                    )));
                };
                let k = set.index_of(corner_name).ok_or_else(|| {
                    CornerError(format!("override names unknown corner `{corner_name}`"))
                })?;
                let rs = parse_scale("resistance", rs)?;
                let cs = parse_scale("capacitance", cs)?;
                set.override_net(net, k, rs, cs)?;
                continue;
            }
            let Some((name, scales)) = entry.split_once('=') else {
                return Err(CornerError(format!(
                    "entry `{entry}` must be `<name>=<r_scale>,<c_scale>[,<delay_scale>]`"
                )));
            };
            let name = name.trim();
            let parts: Vec<&str> = scales.split(',').map(str::trim).collect();
            let (rs, cs, ds) = match parts[..] {
                [rs, cs] => (rs, cs, "1"),
                [rs, cs, ds] => (rs, cs, ds),
                _ => {
                    return Err(CornerError(format!(
                        "corner `{name}` must list 2 or 3 scales, got {}",
                        parts.len()
                    )))
                }
            };
            let rs = parse_scale("resistance", rs)?;
            let cs = parse_scale("capacitance", cs)?;
            let ds = parse_scale("delay", ds)?;
            set.push(name, rs, cs, ds)?;
        }
        Ok(set)
    }
}

fn parse_scale(what: &str, text: &str) -> Result<f64, CornerError> {
    let value: f64 = text
        .parse()
        .map_err(|_| CornerError(format!("{what} scale `{text}` is not a number")))?;
    check_scale(what, value)?;
    Ok(value)
}

impl Default for CornerSet {
    fn default() -> Self {
        CornerSet::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_corner_zero() {
        let set = CornerSet::nominal();
        assert_eq!(set.len(), 1);
        assert!(set.is_nominal_only());
        assert!(!set.is_empty());
        let c = set.corner(0);
        assert_eq!(c.name, "nominal");
        assert_eq!((c.r_scale, c.c_scale, c.delay_scale), (1.0, 1.0, 1.0));
    }

    #[test]
    fn push_validates_scales_and_names() {
        let mut set = CornerSet::nominal();
        assert!(set.push("slow", 1.3, 1.2, 1.25).is_ok());
        assert!(set.push("slow", 1.0, 1.0, 1.0).is_err(), "duplicate name");
        assert!(set.push("nominal", 1.0, 1.0, 1.0).is_err());
        assert!(set.push("bad", 0.0, 1.0, 1.0).is_err(), "zero scale");
        assert!(set.push("bad", -1.0, 1.0, 1.0).is_err());
        assert!(set.push("bad", f64::NAN, 1.0, 1.0).is_err());
        assert!(set.push("bad", 1.0, f64::INFINITY, 1.0).is_err());
        assert!(set.push("has space", 1.0, 1.0, 1.0).is_err());
        assert!(set.push("has,comma", 1.0, 1.0, 1.0).is_err());
        assert!(!set.is_nominal_only());
    }

    #[test]
    fn wire_scales_use_override_when_present() {
        let mut set = CornerSet::nominal();
        let slow = set.push("slow", 1.3, 1.2, 1.0).unwrap();
        set.override_net("n1", slow, 1.5, 1.6).unwrap();
        assert_eq!(set.wire_scales("n1", slow), (1.5, 1.6));
        assert_eq!(set.wire_scales("n2", slow), (1.3, 1.2));
        assert_eq!(set.wire_scales("n1", 0), (1.0, 1.0));
        assert!(set.override_net("n1", 7, 1.0, 1.0).is_err());
        assert!(set.override_net("n1", slow, 0.0, 1.0).is_err());
        assert!(set.override_net("n1", 0, 1.1, 1.1).is_err(), "nominal");
    }

    #[test]
    fn parse_round_trips_a_spec() {
        let set = CornerSet::parse(
            "# three extra corners\n\
             slow=1.3,1.2,1.25\n\
             fast=0.8,0.9,0.85; hot=1.1,1.05\n\
             override n42 slow 1.45 1.35\n",
        )
        .unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.names_csv(), "nominal,slow,fast,hot");
        assert_eq!(set.corner(3).delay_scale, 1.0);
        assert_eq!(set.wire_scales("n42", 1), (1.45, 1.35));
        assert_eq!(set.wire_scales("n42", 2), (0.8, 0.9));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(CornerSet::parse("slow=1.3").is_err(), "one scale");
        assert!(CornerSet::parse("slow 1.3,1.2").is_err(), "no equals");
        assert!(CornerSet::parse("slow=a,b").is_err(), "non-numeric");
        assert!(CornerSet::parse("slow=1.3,0").is_err(), "zero scale");
        assert!(CornerSet::parse("nominal=1,1").is_err(), "redeclared");
        assert!(
            CornerSet::parse("override n1 ghost 1 1").is_err(),
            "unknown corner"
        );
        assert!(CornerSet::parse("override n1 nominal 1").is_err());
    }

    /// The exact error strings are part of the CLI/server surface (they are
    /// echoed verbatim to users), so pin them rather than just `is_err()`.
    #[test]
    fn parse_errors_name_the_offending_entry() {
        let msg = |spec: &str| CornerSet::parse(spec).unwrap_err().to_string();

        // Malformed override lines: wrong arity, unknown corner, bad scale.
        assert_eq!(
            msg("slow=1.3,1.2\noverride n1 slow 1.4"),
            "corner spec: override `override n1 slow 1.4` must be \
             `override <net> <corner> <r_scale> <c_scale>`"
        );
        assert_eq!(
            msg("override n1 ghost 1.1 1.1"),
            "corner spec: override names unknown corner `ghost`"
        );
        assert_eq!(
            msg("slow=1.3,1.2\noverride n1 slow 1.1 oops"),
            "corner spec: capacitance scale `oops` is not a number"
        );
        assert_eq!(
            msg("slow=1.3,1.2\noverride n1 nominal 1.1 1.1"),
            "corner spec: the nominal corner cannot be overridden \
             (lane 0 is the unscaled deck)"
        );

        // Duplicate corner names, including the implicit nominal lane.
        assert_eq!(
            msg("slow=1.3,1.2;slow=1.1,1.1"),
            "corner spec: duplicate corner name `slow`"
        );
        assert_eq!(
            msg("nominal=1,1"),
            "corner spec: duplicate corner name `nominal`"
        );

        // Non-finite and non-positive scales name axis and value.
        assert_eq!(
            msg("slow=inf,1.2"),
            "corner spec: resistance scale inf must be finite and positive"
        );
        assert_eq!(
            msg("slow=1.3,NaN"),
            "corner spec: capacitance scale NaN must be finite and positive"
        );
        assert_eq!(
            msg("slow=1.3,1.2,-2"),
            "corner spec: delay scale -2 must be finite and positive"
        );
        assert_eq!(
            msg("slow=0,1.2"),
            "corner spec: resistance scale 0 must be finite and positive"
        );

        // Entry-shape errors echo the offending text.
        assert_eq!(
            msg("slow 1.3,1.2"),
            "corner spec: entry `slow 1.3,1.2` must be \
             `<name>=<r_scale>,<c_scale>[,<delay_scale>]`"
        );
        assert_eq!(
            msg("slow=1.1,1.2,1.3,1.4"),
            "corner spec: corner `slow` must list 2 or 3 scales, got 4"
        );
    }
}
