//! Adaptively filtered, exactly-rounded geometric predicates.
//!
//! The two predicates every Delaunay algorithm lives on:
//!
//! * [`orient2d`] — which side of the directed line `a → b` does `c` lie on?
//! * [`incircle`] — does `d` lie inside the circle through `a`, `b`, `c`?
//!
//! Both use the classic two-stage strategy of Shewchuk's `predicates.c`: a
//! straight floating-point evaluation with a conservative forward error
//! bound, falling back to exact expansion arithmetic ([`crate::exact`]) only
//! when the filter cannot certify the sign. The filter constants
//! (`CCW_ERRBOUND_A`, `ICC_ERRBOUND_A`) are Shewchuk's.

use crate::exact::Expansion;
use crate::point::Point2;

/// Result of an orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// `c` is to the left of the directed line `a → b` (counter-clockwise).
    CounterClockwise,
    /// `c` is to the right (clockwise).
    Clockwise,
    /// The three points are exactly collinear.
    Collinear,
}

/// Machine epsilon for `f64` halved, i.e. 2^-53 — the `epsilon` of
/// Shewchuk's predicates (ulp of 1.0 divided by 2).
const EPSILON: f64 = f64::EPSILON / 2.0;
/// Static filter constant for `orient2d`.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;
/// Static filter constant for `incircle`.
const ICC_ERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;

/// Sign of the determinant
/// `| ax-cx  ay-cy |`
/// `| bx-cx  by-cy |`,
/// exactly rounded.
///
/// The filtered evaluation is `#[inline]` so callers in other crates pay
/// no call for the common case; the expansion-arithmetic fallback stays
/// out of line ([`orient2d_slow`]).
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> Orientation {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return sign_to_orientation(det);
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return sign_to_orientation(det);
        }
        -detleft - detright
    } else {
        return sign_to_orientation(det);
    };

    let errbound = CCW_ERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return sign_to_orientation(det);
    }

    orient2d_slow(a, b, c)
}

/// The filter could not certify the sign: decide it exactly.
#[cold]
#[inline(never)]
fn orient2d_slow(a: Point2, b: Point2, c: Point2) -> Orientation {
    sign_to_orientation(orient2d_exact(a, b, c) as f64)
}

/// Exact sign of the orient2d determinant, expanded on the *original*
/// coordinates:
/// `ax·by − ax·cy − ay·bx + ay·cx + bx·cy − by·cx`.
fn orient2d_exact(a: Point2, b: Point2, c: Point2) -> i32 {
    let terms = [
        Expansion::from_product(a.x, b.y),
        Expansion::from_product(a.x, c.y).neg(),
        Expansion::from_product(a.y, b.x).neg(),
        Expansion::from_product(a.y, c.x),
        Expansion::from_product(b.x, c.y),
        Expansion::from_product(b.y, c.x).neg(),
    ];
    let mut sum = Expansion::zero();
    for t in &terms {
        sum = sum.add(t);
    }
    sum.sign()
}

#[inline]
fn sign_to_orientation(det: f64) -> Orientation {
    if det > 0.0 {
        Orientation::CounterClockwise
    } else if det < 0.0 {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Returns `> 0` if `d` is strictly inside the circumcircle of the
/// counter-clockwise triangle `(a, b, c)`, `< 0` if strictly outside, `0` if
/// exactly on the circle. Exactly rounded.
///
/// If `(a, b, c)` is clockwise the sign is inverted, matching the standard
/// determinant definition.
///
/// `#[inline]` for the same reason as [`orient2d`]; the exact fallback is
/// [`incircle_exact`], kept cold and out of line.
#[inline]
pub fn incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICC_ERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return if det > 0.0 {
            1
        } else if det < 0.0 {
            -1
        } else {
            0
        };
    }

    incircle_exact(a, b, c, d)
}

/// Exact incircle evaluated over expansions of the translated coordinates.
///
/// The translations `a − d` etc. are performed with error-free
/// transformations, so the entire computation is exact even though it is
/// expressed on translated points.
#[cold]
#[inline(never)]
fn incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> i32 {
    // Each translated coordinate is an exact 2-component expansion.
    let adx = diff_expansion(a.x, d.x);
    let ady = diff_expansion(a.y, d.y);
    let bdx = diff_expansion(b.x, d.x);
    let bdy = diff_expansion(b.y, d.y);
    let cdx = diff_expansion(c.x, d.x);
    let cdy = diff_expansion(c.y, d.y);

    let alift = adx.mul(&adx).add(&ady.mul(&ady));
    let blift = bdx.mul(&bdx).add(&bdy.mul(&bdy));
    let clift = cdx.mul(&cdx).add(&cdy.mul(&cdy));

    let bxcy = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let cxay = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let axby = adx.mul(&bdy).sub(&bdx.mul(&ady));

    alift
        .mul(&bxcy)
        .add(&blift.mul(&cxay))
        .add(&clift.mul(&axby))
        .sign()
}

/// `a - b` as an exact expansion.
fn diff_expansion(a: f64, b: f64) -> Expansion {
    let (x, y) = crate::exact::two_diff(a, b);
    Expansion::from_f64(y).grow(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn orient_basic() {
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orient_degenerate_duplicates() {
        assert_eq!(
            orient2d(p(1.0, 1.0), p(1.0, 1.0), p(2.0, 3.0)),
            Orientation::Collinear
        );
        assert_eq!(
            orient2d(p(1.0, 1.0), p(2.0, 3.0), p(2.0, 3.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn orient_near_degenerate_exact_fallback() {
        // Points nearly collinear: the classic filter-failure case. The
        // third point is displaced off the line y = x by one ulp at 1e17
        // scale relative position — f64 arithmetic alone misjudges these.
        let a = p(0.5, 0.5);
        let b = p(12.0, 12.0);
        // c is on the line y=x, then perturbed in the last place.
        let cx = 24.00000000000005;
        let c_on = p(cx, cx);
        assert_eq!(orient2d(a, b, c_on), Orientation::Collinear);
        let c_up = p(cx, f64::from_bits(cx.to_bits() + 1));
        let c_dn = p(cx, f64::from_bits(cx.to_bits() - 1));
        assert_eq!(orient2d(a, b, c_up), Orientation::CounterClockwise);
        assert_eq!(orient2d(a, b, c_dn), Orientation::Clockwise);
    }

    #[test]
    fn orient_antisymmetry_under_swap() {
        let a = p(0.1, 0.2);
        let b = p(0.9, 0.3);
        let c = p(0.4, 0.8);
        assert_eq!(orient2d(a, b, c), Orientation::CounterClockwise);
        assert_eq!(orient2d(b, a, c), Orientation::Clockwise);
        // Cyclic permutation preserves orientation.
        assert_eq!(orient2d(b, c, a), Orientation::CounterClockwise);
        assert_eq!(orient2d(c, a, b), Orientation::CounterClockwise);
    }

    #[test]
    fn incircle_basic() {
        // Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert_eq!(incircle(a, b, c, p(0.0, 0.0)), 1);
        assert_eq!(incircle(a, b, c, p(2.0, 0.0)), -1);
        // (0,-1) lies exactly on the circle.
        assert_eq!(incircle(a, b, c, p(0.0, -1.0)), 0);
    }

    #[test]
    fn incircle_orientation_flip() {
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        // Clockwise triangle inverts the sign.
        assert_eq!(incircle(a, c, b, p(0.0, 0.0)), -1);
    }

    #[test]
    fn incircle_near_cocircular_exact_fallback() {
        // Four nearly cocircular points around the unit circle; perturb the
        // query point by one ulp and demand a consistent sign change.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        let on = p(0.0, -1.0);
        assert_eq!(incircle(a, b, c, on), 0);
        let inside = p(0.0, f64::from_bits((-1.0f64).to_bits() - 1)); // toward 0
        let outside = p(0.0, f64::from_bits((-1.0f64).to_bits() + 1)); // away
        assert_eq!(incircle(a, b, c, inside), 1);
        assert_eq!(incircle(a, b, c, outside), -1);
    }

    #[test]
    fn incircle_degenerate_collinear_triangle() {
        // Collinear "triangle": determinant is 0 for any cocircular setup,
        // and sign depends on side; mainly assert it does not panic and is
        // antisymmetric under swapping a/b.
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let c = p(2.0, 0.0);
        let d = p(0.5, 0.5);
        let s1 = incircle(a, b, c, d);
        let s2 = incircle(b, a, c, d);
        assert_eq!(s1, -s2);
    }
}
