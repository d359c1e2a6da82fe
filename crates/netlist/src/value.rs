//! Numeric literals with SPICE-style engineering suffixes.
//!
//! SPICE decks write `1.5k`, `0.04p`, `3meg` and so on.  This module parses
//! such literals into plain `f64` values in base SI units.

use crate::error::{NetlistError, Result};

/// Parses a numeric literal with an optional SPICE engineering suffix.
///
/// Recognized suffixes (case-insensitive): `f` (1e-15), `p` (1e-12),
/// `n` (1e-9), `u` (1e-6), `m` (1e-3), `k` (1e3), `meg` (1e6), `g` (1e9),
/// `t` (1e12).  Any trailing unit letters after the suffix (e.g. `pF`,
/// `kOhm`) are ignored, matching SPICE behaviour.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] if the literal has no leading number.
pub fn parse_value(token: &str, line: usize) -> Result<f64> {
    // Suffix-free decimal literals (every extracted value in a SPEF deck)
    // skip the lowercase copy: the general path would parse the same
    // digits and multiply by 1.0, which leaves every bit unchanged.  A
    // token `str::parse` accepts is such a literal when it ends in a digit
    // or `.`, since the words it also accepts (`inf`, `nan`) end in
    // letters; so one byte, not the whole token, decides the fast path.
    if token
        .as_bytes()
        .last()
        .is_some_and(|&b| b.is_ascii_digit() || b == b'.')
    {
        if let Ok(value) = token.parse::<f64>() {
            return Ok(value);
        }
    }
    parse_value_general(token, line)
}

/// [`parse_value`] without the literal fast path.
fn parse_value_general(token: &str, line: usize) -> Result<f64> {
    let lower = token.trim().to_ascii_lowercase();
    // Split the leading numeric part from the suffix.
    let split = lower
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(lower.len());
    // Careful with scientific notation: an `e` followed by digits/sign is
    // part of the number, but a bare trailing `e` is not a valid suffix.
    let (mut num_part, mut suffix) = lower.split_at(split);
    // Handle the case where the numeric part ends with 'e' that actually
    // begins an exponent that was cut (e.g. "1e-3"): the find above only
    // triggers on the first non-numeric char, and '-'/'+' are allowed, so
    // "1e-3" stays intact.  But "1e" alone would leave a dangling 'e'.
    if num_part.ends_with('e') {
        num_part = &num_part[..num_part.len() - 1];
        suffix = &lower[split - 1..];
    }
    let base: f64 = num_part.parse().map_err(|_| {
        NetlistError::parse_at(
            line,
            token.trim(),
            format!("invalid numeric literal `{token}`"),
        )
    })?;
    let mult = if suffix.starts_with("meg") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('f') => 1e-15,
            Some('p') => 1e-12,
            Some('n') => 1e-9,
            Some('u') => 1e-6,
            Some('m') => 1e-3,
            Some('k') => 1e3,
            Some('g') => 1e9,
            Some('t') => 1e12,
            // Unknown suffix letters (e.g. a unit like "ohm") are ignored.
            Some(_) => 1.0,
        }
    };
    Ok(base * mult)
}

/// Formats a value in engineering notation with the given unit, choosing a
/// convenient SI prefix.
pub fn format_value(value: f64, unit: &str) -> String {
    let abs = value.abs();
    let (scaled, prefix) = if abs == 0.0 {
        (0.0, "")
    } else if abs >= 1e9 {
        (value / 1e9, "G")
    } else if abs >= 1e6 {
        (value / 1e6, "M")
    } else if abs >= 1e3 {
        (value / 1e3, "k")
    } else if abs >= 1.0 {
        (value, "")
    } else if abs >= 1e-3 {
        (value * 1e3, "m")
    } else if abs >= 1e-6 {
        (value * 1e6, "u")
    } else if abs >= 1e-9 {
        (value * 1e9, "n")
    } else if abs >= 1e-12 {
        (value * 1e12, "p")
    } else {
        (value * 1e15, "f")
    };
    format!("{scaled}{prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_numbers() {
        assert_eq!(parse_value("15", 1).unwrap(), 15.0);
        assert_eq!(parse_value("0.04", 1).unwrap(), 0.04);
        assert_eq!(parse_value("-3.5", 1).unwrap(), -3.5);
        assert_eq!(parse_value("1e-3", 1).unwrap(), 1e-3);
        assert_eq!(parse_value("2.5e6", 1).unwrap(), 2.5e6);
    }

    /// Relative-error comparison for scaled literals (the multiplication by
    /// the suffix factor rounds in the last bit).
    fn close(a: f64, b: f64) {
        assert!((a - b).abs() <= 1e-12 * b.abs().max(1e-300), "{a} vs {b}");
    }

    #[test]
    fn engineering_suffixes() {
        close(parse_value("1k", 1).unwrap(), 1000.0);
        close(parse_value("0.04p", 1).unwrap(), 0.04e-12);
        close(parse_value("30n", 1).unwrap(), 30e-9);
        close(parse_value("2u", 1).unwrap(), 2e-6);
        close(parse_value("5m", 1).unwrap(), 5e-3);
        close(parse_value("3meg", 1).unwrap(), 3e6);
        close(parse_value("2G", 1).unwrap(), 2e9);
        close(parse_value("1T", 1).unwrap(), 1e12);
        close(parse_value("7f", 1).unwrap(), 7e-15);
    }

    #[test]
    fn unit_letters_after_suffix_are_ignored() {
        close(parse_value("0.01pF", 1).unwrap(), 0.01e-12);
        close(parse_value("180ohm", 1).unwrap(), 180.0);
        close(parse_value("1.5kOhm", 1).unwrap(), 1500.0);
    }

    #[test]
    fn invalid_literals_rejected() {
        assert!(parse_value("abc", 3).is_err());
        assert!(parse_value("", 3).is_err());
        match parse_value("xyz", 9) {
            Err(NetlistError::Parse { line, token, .. }) => {
                assert_eq!(line, 9);
                assert_eq!(token.as_deref(), Some("xyz"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// The suffix-free fast path of [`parse_value`] returns exactly what
    /// the general path does — the same bits, or the same error — over a
    /// table of edge cases and seeded literals built from digits, signs,
    /// `.`, `e`/`E`, exponents and engineering suffixes.
    #[test]
    fn literal_fast_path_matches_the_general_path_bit_for_bit() {
        let agree = |token: &str| match (parse_value(token, 7), parse_value_general(token, 7)) {
            (Ok(fast), Ok(general)) => {
                assert_eq!(fast.to_bits(), general.to_bits(), "`{token}`");
            }
            (fast, general) => assert_eq!(fast, general, "`{token}`"),
        };
        let long = [
            "2.2250738585072014e-308",
            "0.30000000000000004",
            "123456789012345678901234567890",
        ];
        for token in [
            "0", "-0", "+0", "-0.0", "15", "0.04", ".5", "5.", "-3.5", "+2", "1e-3", "2.5E6",
            "1E+3", "1e", "1E", "1e+", "e5", "E", ".", "-", "+", "+-1", "--1", "1.2.3", "",
            "1e308", "1e309", "-1e-400", "4.9e-324", "0.1", "0.3", "1k", "1.5kOhm", "3meg", "3MEG",
            "2E-3p", "0.01pF", "180ohm", "1e-3f", "7F", "1ee3", "x", "inf", "NaN", "infinity",
            "1_000", " 1", "1 ",
        ]
        .into_iter()
        .chain(long)
        {
            agree(token);
        }

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let pick = |alphabet: &[u8], k: usize| alphabet[k] as char;
        for _ in 0..20_000 {
            let mut token = String::new();
            if next(4) == 0 {
                // Anything over the literal alphabet plus suffix letters.
                let alphabet = b"0123456789.-+eEkKfpnumMgGtTxo";
                for _ in 0..1 + next(10) {
                    token.push(pick(alphabet, next(alphabet.len())));
                }
            } else {
                // A well-formed decimal, maybe exponent, maybe suffix.
                if next(3) == 0 {
                    token.push(pick(b"+-", next(2)));
                }
                for _ in 0..next(8) {
                    token.push(pick(b"0123456789", next(10)));
                }
                if next(2) == 0 {
                    token.push('.');
                    for _ in 0..next(18) {
                        token.push(pick(b"0123456789", next(10)));
                    }
                }
                if next(3) == 0 {
                    token.push(pick(b"eE", next(2)));
                    if next(2) == 0 {
                        token.push(pick(b"+-", next(2)));
                    }
                    for _ in 0..next(4) {
                        token.push(pick(b"0123456789", next(10)));
                    }
                }
                if next(4) == 0 {
                    let suffixes = ["f", "p", "n", "u", "m", "k", "meg", "g", "t", "pF", "Ohm"];
                    token.push_str(suffixes[next(suffixes.len())]);
                }
            }
            agree(&token);
        }
    }

    #[test]
    fn formatting_picks_prefixes() {
        assert_eq!(format_value(0.0, "F"), "0F");
        assert_eq!(format_value(1500.0, "Ohm"), "1.5kOhm");
        assert_eq!(format_value(0.05e-12, "F"), "50fF");
        assert_eq!(format_value(2e-9, "s"), "2ns");
        assert_eq!(format_value(3.0, "Ohm"), "3Ohm");
        assert_eq!(format_value(5e6, "Hz"), "5MHz");
        assert_eq!(format_value(7e9, "Hz"), "7GHz");
        assert_eq!(format_value(2e-6, "F"), "2uF");
        assert_eq!(format_value(4e-3, "F"), "4mF");
        assert_eq!(format_value(3e-15, "F"), "3fF");
    }
}
