//! Circumcircle computations and triangle quality measures.
//!
//! Delaunay refinement drives on two quantities per triangle:
//!
//! * the **circumcenter**, where Steiner points are inserted, and
//! * the **circumradius-to-shortest-edge ratio** ρ = R / ℓ_min, the quality
//!   measure of Ruppert/Chew refinement (ρ ≤ √2 guarantees a minimum angle
//!   of ≈ 20.7°).
//!
//! These are computed in plain floating point — exactness is not required
//! because refinement only uses them as *hints* (where to insert, what to
//! refine); topological decisions go through [`crate::predicates`].

use crate::point::Point2;

/// Twice the signed area of triangle `(a, b, c)` (positive when CCW).
#[inline]
pub fn triangle_area2(a: Point2, b: Point2, c: Point2) -> f64 {
    (b - a).cross(c - a)
}

/// Circumcenter of triangle `(a, b, c)`.
///
/// Returns `None` when the triangle is (numerically) degenerate: the
/// determinant underflows to zero and no finite center exists.
#[inline]
pub fn circumcenter(a: Point2, b: Point2, c: Point2) -> Option<Point2> {
    let bp = b - a;
    let cp = c - a;
    let d = 2.0 * bp.cross(cp);
    if d == 0.0 {
        return None;
    }
    let bl = bp.norm_sq();
    let cl = cp.norm_sq();
    let ux = (cp.y * bl - bp.y * cl) / d;
    let uy = (bp.x * cl - cp.x * bl) / d;
    let center = Point2::new(a.x + ux, a.y + uy);
    center.is_finite().then_some(center)
}

/// Squared circumradius of triangle `(a, b, c)`; `f64::INFINITY` for a
/// degenerate triangle.
#[inline]
pub fn circumradius_sq(a: Point2, b: Point2, c: Point2) -> f64 {
    match circumcenter(a, b, c) {
        Some(cc) => cc.dist_sq(a),
        None => f64::INFINITY,
    }
}

/// Squared length of the shortest edge of triangle `(a, b, c)`.
#[inline]
pub fn shortest_edge_sq(a: Point2, b: Point2, c: Point2) -> f64 {
    a.dist_sq(b).min(b.dist_sq(c)).min(c.dist_sq(a))
}

/// Quality report for one triangle.
#[derive(Clone, Copy, Debug)]
pub struct TriangleQuality {
    /// Squared circumradius.
    pub circumradius_sq: f64,
    /// Squared shortest edge length.
    pub shortest_edge_sq: f64,
    /// Squared circumradius-to-shortest-edge ratio ρ².
    pub ratio_sq: f64,
    /// Twice the signed area.
    pub area2: f64,
}

impl TriangleQuality {
    /// Measure triangle `(a, b, c)`.
    #[inline]
    pub fn of(a: Point2, b: Point2, c: Point2) -> TriangleQuality {
        let r2 = circumradius_sq(a, b, c);
        let e2 = shortest_edge_sq(a, b, c);
        TriangleQuality {
            circumradius_sq: r2,
            shortest_edge_sq: e2,
            ratio_sq: if e2 > 0.0 { r2 / e2 } else { f64::INFINITY },
            area2: triangle_area2(a, b, c),
        }
    }

    /// True if ρ exceeds `max_ratio` (the triangle is "skinny") — the
    /// comparison is done on squares to avoid the square root.
    #[inline]
    pub fn is_skinny(&self, max_ratio: f64) -> bool {
        self.ratio_sq > max_ratio * max_ratio
    }

    /// True if the circumradius exceeds `max_size` — the triangle is
    /// "large" w.r.t. a sizing constraint. Refining on circumradius rather
    /// than area gives meshes graded to the local sizing function.
    #[inline]
    pub fn is_oversized(&self, max_size: f64) -> bool {
        self.circumradius_sq > max_size * max_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn circumcenter_right_triangle() {
        // Right triangle: circumcenter is the hypotenuse midpoint.
        let cc = circumcenter(p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0)).unwrap();
        assert!((cc.x - 1.0).abs() < 1e-12);
        assert!((cc.y - 1.0).abs() < 1e-12);
        let r2 = circumradius_sq(p(0.0, 0.0), p(2.0, 0.0), p(0.0, 2.0));
        assert!((r2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn circumcenter_equidistant() {
        let (a, b, c) = (p(0.3, 0.1), p(1.7, 0.4), p(0.9, 1.9));
        let cc = circumcenter(a, b, c).unwrap();
        let (da, db, dc) = (cc.dist_sq(a), cc.dist_sq(b), cc.dist_sq(c));
        assert!((da - db).abs() < 1e-10 * da);
        assert!((da - dc).abs() < 1e-10 * da);
    }

    #[test]
    fn degenerate_triangle_has_no_center() {
        assert!(circumcenter(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)).is_none());
        assert_eq!(
            circumradius_sq(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)),
            f64::INFINITY
        );
    }

    #[test]
    fn equilateral_quality() {
        // Equilateral triangle: R = ℓ/√3 so ρ² = 1/3 — the best possible.
        let h = 3.0f64.sqrt() / 2.0;
        let q = TriangleQuality::of(p(0.0, 0.0), p(1.0, 0.0), p(0.5, h));
        assert!((q.ratio_sq - 1.0 / 3.0).abs() < 1e-12);
        assert!(!q.is_skinny(std::f64::consts::SQRT_2));
    }

    #[test]
    fn skinny_triangle_detected() {
        // Very flat triangle: enormous ratio.
        let q = TriangleQuality::of(p(0.0, 0.0), p(1.0, 0.0), p(0.5, 0.01));
        assert!(q.is_skinny(std::f64::consts::SQRT_2));
        assert!(q.ratio_sq > 100.0);
    }

    #[test]
    fn oversized_triangle_detected() {
        let h = 3.0f64.sqrt() / 2.0;
        let q = TriangleQuality::of(p(0.0, 0.0), p(1.0, 0.0), p(0.5, h));
        assert!(q.is_oversized(0.1));
        assert!(!q.is_oversized(10.0));
    }

    #[test]
    fn area_sign_tracks_orientation() {
        assert!(triangle_area2(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)) > 0.0);
        assert!(triangle_area2(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)) < 0.0);
        assert_eq!(triangle_area2(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)), 0.0);
    }
}
