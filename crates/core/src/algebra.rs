//! The **delay algebra**: the scalar arithmetic of the timing kernel,
//! abstracted into a trait so one traversal can carry either plain `f64`
//! seconds or symbolic polynomials in the uniform R/C scale factors.
//!
//! Every quantity the batch kernel accumulates — subtree capacitance,
//! path resistance, `T_P`, the Elmore prefix sums, the `T_Re` numerator —
//! is built from resistance elements and capacitance elements by addition,
//! multiplication and division by small dimensionless constants.  The
//! [`DelayValue`] trait captures exactly that vocabulary, and
//! [`crate::batch`]'s sweep is written once, generically, over it:
//!
//! * instantiated at **`f64`** it is the production scalar kernel;
//! * instantiated at [`Poly2`] it computes, in the *same* one-post-order +
//!   one-pre-order traversal, every characteristic time as a bivariate
//!   polynomial in the uniform resistance scale `r` and capacitance scale
//!   `c` — the symbolic lane behind continuum corner certification
//!   (following the analytic-delay-function formulation of
//!   arXiv:2510.15907).
//!
//! # Trait laws
//!
//! For all values `a`, `b`, `c` and finite scalars `k`:
//!
//! 1. `add` is commutative and associative with identity [`DelayValue::zero`]
//!    (up to the rounding of the underlying coefficient arithmetic — the
//!    kernel never relies on re-association);
//! 2. `mul` is commutative and distributes over `add`, with
//!    `a.mul(&zero) = zero`;
//! 3. `scale(k)` equals `mul` by the constant `k` injected as a
//!    dimensionless value, and `div(k)` is its inverse application:
//!    `a.scale(k).div(k) ≈ a` for `k ≠ 0`;
//! 4. the injectors are linear: `from_r(x + y)` equals
//!    `from_r(x).add(&from_r(y))` in exact arithmetic, likewise `from_c`;
//! 5. `is_zero` recognises exactly the additive identity (all-zero
//!    coefficients), and `div_exact` is the exact right-inverse of `mul`
//!    whenever it returns `Some`: `a.mul(&b).div_exact(&b) == Some(a)` in
//!    exact arithmetic for `b` in its supported divisor class.
//!
//! # The f64 bit-identity contract
//!
//! The `f64` instance injects elements **unchanged** (`from_r`/`from_c` are
//! the identity) and maps every trait operation onto the corresponding
//! native IEEE-754 operation (`add` → `+`, `mul` → `*`, `div(k)` → `/ k`,
//! `div_exact` → `/`).  The generic kernel in [`crate::batch`] performs its
//! operations in **the same order with the same association** as
//! hand-written scalar loops would (the incremental engine's repairs are
//! written that way), so the `f64` instantiation executes the *identical
//! float sequence* — bit-for-bit, not merely numerically close.  The
//! scalar path has this one kernel, so its order is pinned by what it
//! produces: the `rctree-sta` equivalence suites compare it across every
//! workload generator, worker count and seeded ECO stream, and CI checks
//! the report bytes of a 20,000-net deck against fixed md5 sums.
//!
//! [`Poly2`] values, by contrast, carry a dense 3×3 coefficient grid over
//! the monomials `r^i·c^j` (`0 ≤ i, j ≤ 2` — degree ≤ 2 per variable, which
//! is exactly what one Elmore/`T_Re` term needs: the `T_Re` numerator
//! reaches `r²c`).  Under uniform scaling every kernel output degenerates
//! to a single monomial (`T_P`, `T_De`, `T_Re` ∝ `r·c`; `R_ee` ∝ `r`;
//! `C_T` ∝ `c`), which the downstream symbolic bound machinery
//! ([`crate::bounds::symbolic_delay_bounds`]) exploits.

use crate::error::{CoreError, Result};

/// The scalar vocabulary of the timing kernel (see the module docs for the
/// laws and the `f64` bit-identity contract).
///
/// `from_r` / `from_c` inject a raw resistance/capacitance element value
/// into the algebra; the kernel's inputs stay plain `&[f64]` arrays and
/// every element is injected exactly once, at first use.
pub trait DelayValue: Clone + PartialEq + std::fmt::Debug {
    /// The additive identity.
    fn zero() -> Self;
    /// Injects a resistance element value.
    fn from_r(value: f64) -> Self;
    /// Injects a capacitance element value.
    fn from_c(value: f64) -> Self;
    /// Addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, rhs: &Self) -> Self;
    /// Multiplication by another algebra value.
    fn mul(&self, rhs: &Self) -> Self;
    /// Multiplication by a dimensionless scalar.
    fn scale(&self, k: f64) -> Self;
    /// Division by a dimensionless scalar.
    fn div(&self, k: f64) -> Self;
    /// Exact division by another algebra value, when the divisor lies in
    /// the instance's supported divisor class (`f64`: any nonzero value;
    /// [`Poly2`]: a single-term monomial dividing every term of `self`).
    fn div_exact(&self, rhs: &Self) -> Option<Self>;
    /// Whether this is the additive identity.
    fn is_zero(&self) -> bool;
}

impl DelayValue for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn from_r(value: f64) -> Self {
        value
    }
    #[inline]
    fn from_c(value: f64) -> Self {
        value
    }
    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(&self, rhs: &Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    #[inline]
    fn scale(&self, k: f64) -> Self {
        self * k
    }
    #[inline]
    fn div(&self, k: f64) -> Self {
        self / k
    }
    #[inline]
    fn div_exact(&self, rhs: &Self) -> Option<Self> {
        if *rhs == 0.0 {
            None
        } else {
            Some(self / rhs)
        }
    }
    #[inline]
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
}

/// Per-variable degree bound of [`Poly2`] (coefficients of `r^i·c^j` for
/// `0 ≤ i, j <` this).
pub const POLY2_DEG: usize = 3;

/// A bivariate polynomial in the uniform resistance scale `r` and
/// capacitance scale `c`, dense over the monomial grid `r^i·c^j`,
/// `0 ≤ i, j ≤ 2`.
///
/// This is the symbolic instance of the delay algebra: `from_r(x) = x·r`,
/// `from_c(x) = x·c`, so a kernel sweep over nominal element values yields
/// each characteristic time *as a function of the scales* — evaluating the
/// result at `(r, c)` reproduces (to rounding) the scalar kernel run on a
/// design whose every resistance is pre-multiplied by `r` and every
/// capacitance by `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poly2 {
    /// `coeff[i][j]` multiplies `r^i · c^j`.
    coeff: [[f64; POLY2_DEG]; POLY2_DEG],
}

impl Poly2 {
    /// The zero polynomial.
    pub const ZERO: Poly2 = Poly2 {
        coeff: [[0.0; POLY2_DEG]; POLY2_DEG],
    };

    /// The single-term polynomial `value · r^i · c^j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` exceeds the degree bound (2).
    pub fn monomial(i: usize, j: usize, value: f64) -> Poly2 {
        assert!(
            i < POLY2_DEG && j < POLY2_DEG,
            "monomial degree ({i},{j}) out of range"
        );
        let mut p = Poly2::ZERO;
        p.coeff[i][j] = value;
        p
    }

    /// The coefficient of `r^i · c^j` (zero outside the grid).
    pub fn coeff(&self, i: usize, j: usize) -> f64 {
        if i < POLY2_DEG && j < POLY2_DEG {
            self.coeff[i][j]
        } else {
            0.0
        }
    }

    /// Evaluates the polynomial at `(r, c)` by nested Horner recurrences.
    pub fn eval(&self, r: f64, c: f64) -> f64 {
        let mut acc = 0.0;
        for i in (0..POLY2_DEG).rev() {
            let row = &self.coeff[i];
            let mut row_val = 0.0;
            for j in (0..POLY2_DEG).rev() {
                row_val = row_val * c + row[j];
            }
            acc = acc * r + row_val;
        }
        acc
    }

    /// Evaluates `∂/∂r` at `(r, c)`.
    pub fn eval_dr(&self, r: f64, c: f64) -> f64 {
        let mut acc = 0.0;
        for i in (1..POLY2_DEG).rev() {
            let row = &self.coeff[i];
            let mut row_val = 0.0;
            for j in (0..POLY2_DEG).rev() {
                row_val = row_val * c + row[j];
            }
            acc = acc * r + row_val * i as f64;
        }
        acc
    }

    /// Evaluates `∂/∂c` at `(r, c)`.
    pub fn eval_dc(&self, r: f64, c: f64) -> f64 {
        let mut acc = 0.0;
        for i in (0..POLY2_DEG).rev() {
            let row = &self.coeff[i];
            let mut row_val = 0.0;
            for j in (1..POLY2_DEG).rev() {
                row_val = row_val * c + row[j] * j as f64;
            }
            acc = acc * r + row_val;
        }
        acc
    }

    /// The additive inverse.
    pub fn neg(&self) -> Poly2 {
        let mut out = *self;
        for row in &mut out.coeff {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
        out
    }

    /// `Some((i, j, coeff))` when the polynomial has **exactly one**
    /// nonzero coefficient — the shape test behind the symbolic bound
    /// machinery (uniform scaling makes every kernel output a monomial).
    pub fn as_monomial(&self) -> Option<(usize, usize, f64)> {
        let mut found = None;
        for (i, row) in self.coeff.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    if found.is_some() {
                        return None;
                    }
                    found = Some((i, j, v));
                }
            }
        }
        found
    }

    /// Maximum of the polynomial over the box `[r.0, r.1] × [c.0, c.1]`,
    /// returned as `(value, (r*, c*))` — the **exact** worst point, found by
    /// closed-form critical-point/edge evaluation rather than sampling:
    ///
    /// * the four box corners;
    /// * per edge, the stationary point of the univariate quadratic the
    ///   polynomial restricts to (`∂/∂var = 0` is linear in the free
    ///   variable);
    /// * the interior stationary point, when the gradient is linear in
    ///   `(r, c)` — true whenever the cross-quadratic coefficients
    ///   (`r²c`, `rc²`, `r²c²`) vanish, which covers every polynomial the
    ///   timing layers produce (endpoint arrivals are affine-plus-bilinear:
    ///   `A + B·rc` and edge restrictions thereof).
    ///
    /// Candidates are evaluated in a fixed order and replaced only on a
    /// strictly larger value, so ties resolve deterministically (corners
    /// before edge points before the interior point).
    ///
    /// # Panics
    ///
    /// Panics if either interval is inverted or not finite.
    pub fn max_over_box(&self, r: (f64, f64), c: (f64, f64)) -> (f64, (f64, f64)) {
        assert!(
            r.0.is_finite() && r.1.is_finite() && c.0.is_finite() && c.1.is_finite(),
            "non-finite certification box"
        );
        assert!(r.0 <= r.1 && c.0 <= c.1, "inverted certification box");
        let mut best = (self.eval(r.0, c.0), (r.0, c.0));
        let consider = |p: &Poly2, rv: f64, cv: f64, best: &mut (f64, (f64, f64))| {
            let v = p.eval(rv, cv);
            if v > best.0 {
                *best = (v, (rv, cv));
            }
        };
        // Remaining corners (the first seeded `best`).
        consider(self, r.1, c.0, &mut best);
        consider(self, r.0, c.1, &mut best);
        consider(self, r.1, c.1, &mut best);
        // Edge stationary points: fix one variable at a bound, the
        // restriction is a quadratic in the other.
        for rv in [r.0, r.1] {
            // q(c) = q0 + q1·c + q2·c²  with  q_j = Σ_i coeff[i][j]·r^i.
            let q = |j: usize| {
                let mut acc = 0.0;
                for i in (0..POLY2_DEG).rev() {
                    acc = acc * rv + self.coeff[i][j];
                }
                acc
            };
            let (q1, q2) = (q(1), q(2));
            if q2 != 0.0 {
                let cv = -q1 / (2.0 * q2);
                if cv > c.0 && cv < c.1 {
                    consider(self, rv, cv, &mut best);
                }
            }
        }
        for cv in [c.0, c.1] {
            let q = |i: usize| {
                let mut acc = 0.0;
                for j in (0..POLY2_DEG).rev() {
                    acc = acc * cv + self.coeff[i][j];
                }
                acc
            };
            let (q1, q2) = (q(1), q(2));
            if q2 != 0.0 {
                let rv = -q1 / (2.0 * q2);
                if rv > r.0 && rv < r.1 {
                    consider(self, rv, cv, &mut best);
                }
            }
        }
        // Interior stationary point of the linear-gradient family:
        //   ∂p/∂r = a10 + a11·c + 2·a20·r = 0
        //   ∂p/∂c = a01 + a11·r + 2·a02·c = 0
        if self.coeff[2][1] == 0.0 && self.coeff[1][2] == 0.0 && self.coeff[2][2] == 0.0 {
            let (a10, a01, a11) = (self.coeff[1][0], self.coeff[0][1], self.coeff[1][1]);
            let (a20, a02) = (self.coeff[2][0], self.coeff[0][2]);
            let det = 4.0 * a20 * a02 - a11 * a11;
            if det != 0.0 {
                let rv = (a11 * a01 - 2.0 * a02 * a10) / det;
                let cv = (a11 * a10 - 2.0 * a20 * a01) / det;
                if rv > r.0 && rv < r.1 && cv > c.0 && cv < c.1 {
                    consider(self, rv, cv, &mut best);
                }
            }
        }
        best
    }

    /// Minimum of the polynomial over the box, as `(value, (r*, c*))` —
    /// the mirror of [`Poly2::max_over_box`] through negation, with the
    /// same deterministic candidate order.
    pub fn min_over_box(&self, r: (f64, f64), c: (f64, f64)) -> (f64, (f64, f64)) {
        let (v, at) = self.neg().max_over_box(r, c);
        (-v, at)
    }

    /// Coefficientwise `self ≥ other`: implies `self(r, c) ≥ other(r, c)`
    /// for every `r, c ≥ 0` (all monomials are non-negative there) — the
    /// sound pruning test for candidate envelopes.
    pub fn dominates(&self, other: &Poly2) -> bool {
        for i in 0..POLY2_DEG {
            for j in 0..POLY2_DEG {
                if self.coeff[i][j] < other.coeff[i][j] {
                    return false;
                }
            }
        }
        true
    }
}

impl DelayValue for Poly2 {
    fn zero() -> Self {
        Poly2::ZERO
    }

    fn from_r(value: f64) -> Self {
        Poly2::monomial(1, 0, value)
    }

    fn from_c(value: f64) -> Self {
        Poly2::monomial(0, 1, value)
    }

    fn add(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for i in 0..POLY2_DEG {
            for j in 0..POLY2_DEG {
                out.coeff[i][j] += rhs.coeff[i][j];
            }
        }
        out
    }

    fn sub(&self, rhs: &Self) -> Self {
        let mut out = *self;
        for i in 0..POLY2_DEG {
            for j in 0..POLY2_DEG {
                out.coeff[i][j] -= rhs.coeff[i][j];
            }
        }
        out
    }

    fn mul(&self, rhs: &Self) -> Self {
        let mut out = Poly2::ZERO;
        for i in 0..POLY2_DEG {
            for j in 0..POLY2_DEG {
                let a = self.coeff[i][j];
                if a == 0.0 {
                    continue;
                }
                for k in 0..POLY2_DEG {
                    for l in 0..POLY2_DEG {
                        let b = rhs.coeff[k][l];
                        if b == 0.0 {
                            continue;
                        }
                        // The kernel's products stay within degree 2 per
                        // variable (the T_Re numerator peaks at r²c); a
                        // truncation here would mean the algebra is being
                        // used outside that envelope.
                        assert!(
                            i + k < POLY2_DEG && j + l < POLY2_DEG,
                            "Poly2 product overflows degree 2 at r^{}c^{}",
                            i + k,
                            j + l
                        );
                        out.coeff[i + k][j + l] += a * b;
                    }
                }
            }
        }
        out
    }

    fn scale(&self, k: f64) -> Self {
        let mut out = *self;
        for row in &mut out.coeff {
            for v in row.iter_mut() {
                *v *= k;
            }
        }
        out
    }

    fn div(&self, k: f64) -> Self {
        let mut out = *self;
        for row in &mut out.coeff {
            for v in row.iter_mut() {
                *v /= k;
            }
        }
        out
    }

    fn div_exact(&self, rhs: &Self) -> Option<Self> {
        let (di, dj, d) = rhs.as_monomial()?;
        let mut out = Poly2::ZERO;
        for i in 0..POLY2_DEG {
            for j in 0..POLY2_DEG {
                let v = self.coeff[i][j];
                if v == 0.0 {
                    continue;
                }
                if i < di || j < dj {
                    return None;
                }
                out.coeff[i - di][j - dj] = v / d;
            }
        }
        Some(out)
    }

    fn is_zero(&self) -> bool {
        self.coeff.iter().all(|row| row.iter().all(|&v| v == 0.0))
    }
}

/// The symbolic analogue of
/// [`CharacteristicTimes`](crate::moments::CharacteristicTimes): every
/// characteristic quantity of one output as a polynomial in the uniform
/// scales `(r, c)`.  Produced by
/// [`SymbolicScratch`](crate::batch::SymbolicScratch); consumed by
/// [`crate::bounds::symbolic_delay_bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicTimes {
    /// `T_P(r, c)` — output-independent.
    pub t_p: Poly2,
    /// `T_De(r, c)`, the Elmore delay.
    pub t_d: Poly2,
    /// `T_Re(r, c)`, the rise time.
    pub t_r: Poly2,
    /// `R_ee(r, c)`, the output's path resistance.
    pub r_ee: Poly2,
    /// `C_T(r, c)`, the total network capacitance.
    pub total_cap: Poly2,
}

/// Parses an interval written as `a..b` (both finite, `0 < a ≤ b`) — the
/// wire / CLI grammar of continuum certification boxes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidValue`] on malformed syntax, non-finite or
/// non-positive endpoints, or an inverted interval.
pub fn parse_scale_range(spec: &str) -> Result<(f64, f64)> {
    let err = || CoreError::InvalidValue {
        what: "scale range",
        value: f64::NAN,
    };
    let (lo, hi) = spec.split_once("..").ok_or_else(err)?;
    let lo: f64 = lo.trim().parse().map_err(|_| err())?;
    let hi: f64 = hi.trim().parse().map_err(|_| err())?;
    if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi < lo {
        return Err(CoreError::InvalidValue {
            what: "scale range",
            value: lo,
        });
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(entries: &[(usize, usize, f64)]) -> Poly2 {
        let mut p = Poly2::ZERO;
        for &(i, j, v) in entries {
            p = p.add(&Poly2::monomial(i, j, v));
        }
        p
    }

    #[test]
    fn f64_instance_is_the_identity_embedding() {
        assert_eq!(<f64 as DelayValue>::from_r(3.25), 3.25);
        assert_eq!(<f64 as DelayValue>::from_c(0.125), 0.125);
        assert_eq!(2.0_f64.add(&3.0), 5.0);
        assert_eq!(2.0_f64.sub(&3.0), -1.0);
        assert_eq!(2.0_f64.mul(&3.0), 6.0);
        assert_eq!(7.0_f64.div(2.0), 3.5);
        assert_eq!(7.0_f64.scale(2.0), 14.0);
        assert_eq!(7.0_f64.div_exact(&2.0), Some(3.5));
        assert_eq!(7.0_f64.div_exact(&0.0), None);
        assert!(<f64 as DelayValue>::zero().is_zero());
        assert!(!1.0_f64.is_zero());
    }

    #[test]
    fn poly_eval_matches_direct_expansion() {
        let p = poly(&[(0, 0, 2.0), (1, 1, 3.0), (2, 1, -1.5), (0, 2, 0.5)]);
        for &(r, c) in &[(1.0, 1.0), (0.8, 1.3), (2.0, 0.5), (0.0, 0.0)] {
            let direct = 2.0 + 3.0 * r * c - 1.5 * r * r * c + 0.5 * c * c;
            assert!((p.eval(r, c) - direct).abs() < 1e-12 * direct.abs().max(1.0));
        }
    }

    #[test]
    fn poly_derivatives_match_finite_differences() {
        let p = poly(&[(1, 0, 2.0), (1, 1, 3.0), (2, 2, 0.7), (0, 2, -1.1)]);
        let (r, c) = (1.2, 0.9);
        let h = 1e-6;
        let dr = (p.eval(r + h, c) - p.eval(r - h, c)) / (2.0 * h);
        let dc = (p.eval(r, c + h) - p.eval(r, c - h)) / (2.0 * h);
        assert!((p.eval_dr(r, c) - dr).abs() < 1e-5);
        assert!((p.eval_dc(r, c) - dc).abs() < 1e-5);
    }

    #[test]
    fn poly_algebra_round_trips() {
        let a = poly(&[(1, 0, 2.0), (0, 1, 3.0)]);
        let b = poly(&[(1, 1, 4.0)]);
        let prod = a.mul(&b); // 8 r²c + 12 rc²
        assert_eq!(prod.coeff(2, 1), 8.0);
        assert_eq!(prod.coeff(1, 2), 12.0);
        assert_eq!(prod.div_exact(&b), Some(a));
        assert_eq!(a.sub(&a), Poly2::ZERO);
        assert!(a.sub(&a).is_zero());
        assert_eq!(a.scale(2.0).div(2.0), a);
    }

    #[test]
    fn div_exact_rejects_non_dividing_monomials() {
        let a = poly(&[(1, 0, 2.0), (0, 1, 3.0)]);
        let r = Poly2::monomial(1, 0, 1.0);
        assert_eq!(a.div_exact(&r), None); // the 3c term has no r factor
        assert_eq!(a.div_exact(&a), None); // divisor is not a monomial
        assert_eq!(a.div_exact(&Poly2::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "overflows degree 2")]
    fn product_beyond_degree_two_panics() {
        let r2 = Poly2::monomial(2, 0, 1.0);
        let _ = r2.mul(&Poly2::monomial(1, 0, 1.0));
    }

    #[test]
    fn as_monomial_recognises_single_terms_only() {
        assert_eq!(Poly2::monomial(1, 1, 2.5).as_monomial(), Some((1, 1, 2.5)));
        assert_eq!(Poly2::ZERO.as_monomial(), None);
        assert_eq!(poly(&[(1, 0, 1.0), (0, 1, 1.0)]).as_monomial(), None);
    }

    #[test]
    fn bilinear_max_is_at_the_top_corner() {
        // A + B·rc with B > 0 is increasing in both variables on a
        // positive box.
        let p = poly(&[(0, 0, 2.0), (1, 1, 3.0)]);
        let (v, at) = p.max_over_box((0.8, 1.4), (0.9, 1.2));
        assert_eq!(at, (1.4, 1.2));
        assert!((v - (2.0 + 3.0 * 1.4 * 1.2)).abs() < 1e-12);
        let (vmin, at_min) = p.min_over_box((0.8, 1.4), (0.9, 1.2));
        assert_eq!(at_min, (0.8, 0.9));
        assert!((vmin - (2.0 + 3.0 * 0.8 * 0.9)).abs() < 1e-12);
    }

    #[test]
    fn edge_and_interior_critical_points_are_found() {
        // p = -(r - 1)² - (c - 1)²: interior max at (1, 1).
        let p = poly(&[
            (0, 0, -2.0),
            (1, 0, 2.0),
            (2, 0, -1.0),
            (0, 1, 2.0),
            (0, 2, -1.0),
        ]);
        let (v, at) = p.max_over_box((0.5, 1.5), (0.5, 1.5));
        assert!((v - 0.0).abs() < 1e-12);
        assert!((at.0 - 1.0).abs() < 1e-12 && (at.1 - 1.0).abs() < 1e-12);
        // Same poly over a box excluding the interior optimum in c: the
        // maximum moves to the c = 0.5 edge with the r-stationary point.
        let (v_edge, at_edge) = p.max_over_box((0.5, 1.5), (0.2, 0.5));
        assert!((at_edge.0 - 1.0).abs() < 1e-12);
        assert_eq!(at_edge.1, 0.5);
        assert!((v_edge - -0.25).abs() < 1e-12);
    }

    #[test]
    fn max_over_box_matches_dense_sampling_on_random_quadratics() {
        // Linear-gradient family (no cross-quadratic terms): closed form
        // must dominate a fine sampling grid.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for _ in 0..50 {
            let p = poly(&[
                (0, 0, next()),
                (1, 0, next()),
                (0, 1, next()),
                (1, 1, next()),
                (2, 0, next()),
                (0, 2, next()),
            ]);
            let (rb, cb) = ((0.7, 1.6), (0.8, 1.3));
            let (v, _) = p.max_over_box(rb, cb);
            let mut sampled = f64::NEG_INFINITY;
            for a in 0..=40 {
                for b in 0..=40 {
                    let r = rb.0 + (rb.1 - rb.0) * a as f64 / 40.0;
                    let c = cb.0 + (cb.1 - cb.0) * b as f64 / 40.0;
                    sampled = sampled.max(p.eval(r, c));
                }
            }
            assert!(
                v >= sampled - 1e-9,
                "closed form {v} below sampling {sampled}"
            );
        }
    }

    #[test]
    fn dominates_is_coefficientwise() {
        let a = poly(&[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = poly(&[(0, 0, 0.5), (1, 1, 2.0)]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
    }

    #[test]
    fn scale_range_parses_and_rejects() {
        assert_eq!(parse_scale_range("0.8..1.4").unwrap(), (0.8, 1.4));
        assert_eq!(parse_scale_range(" 1 .. 1 ").unwrap(), (1.0, 1.0));
        for bad in [
            "", "0.8", "0.8..", "..1.4", "a..b", "1.4..0.8", "0..1", "-1..2", "1..inf",
        ] {
            assert!(parse_scale_range(bad).is_err(), "{bad} should be rejected");
        }
    }
}
