//! Sizing fields: how small triangles must be where.
//!
//! A sizing field maps a location to the target circumradius for triangles
//! covering it. The **uniform** field drives UPDR-style meshes; the
//! **graded** fields drive NUPDR-style meshes whose element sizes vary
//! smoothly over the domain (the paper's motivating non-uniform case).

use pumg_geometry::Point2;
use std::fmt;
use std::sync::Arc;

/// A target-size function h(p): triangles with circumradius above `h` at
/// their circumcenter are refined.
#[derive(Clone)]
pub enum SizingField {
    /// Constant target size everywhere.
    Uniform(f64),
    /// Size grows linearly with distance from `center`: `h_min` at the
    /// center, `h_max` at distance ≥ `radius`.
    RadialGraded {
        center: Point2,
        h_min: f64,
        h_max: f64,
        radius: f64,
    },
    /// Size grows linearly with distance from the segment `a`–`b`.
    SegmentGraded {
        a: Point2,
        b: Point2,
        h_min: f64,
        h_max: f64,
        radius: f64,
    },
    /// Arbitrary user function.
    Custom(Arc<dyn Fn(Point2) -> f64 + Send + Sync>),
}

impl SizingField {
    /// Target circumradius at `p`. Always positive for well-formed fields.
    #[inline]
    pub fn size_at(&self, p: Point2) -> f64 {
        match self {
            SizingField::Uniform(h) => *h,
            SizingField::RadialGraded {
                center,
                h_min,
                h_max,
                radius,
            } => {
                let t = (p.dist(*center) / radius).clamp(0.0, 1.0);
                h_min + (h_max - h_min) * t
            }
            SizingField::SegmentGraded {
                a,
                b,
                h_min,
                h_max,
                radius,
            } => {
                let d = dist_point_segment(p, *a, *b);
                let t = (d / radius).clamp(0.0, 1.0);
                h_min + (h_max - h_min) * t
            }
            SizingField::Custom(f) => f(p),
        }
    }

    /// The smallest size the field can produce (used for safety floors and
    /// work estimates).
    pub fn min_size(&self) -> f64 {
        match self {
            SizingField::Uniform(h) => *h,
            SizingField::RadialGraded { h_min, h_max, .. }
            | SizingField::SegmentGraded { h_min, h_max, .. } => h_min.min(*h_max),
            SizingField::Custom(_) => 0.0,
        }
    }
}

impl fmt::Debug for SizingField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingField::Uniform(h) => write!(f, "Uniform({h})"),
            SizingField::RadialGraded {
                center,
                h_min,
                h_max,
                radius,
            } => write!(
                f,
                "RadialGraded(center={center:?}, {h_min}..{h_max}, r={radius})"
            ),
            SizingField::SegmentGraded { h_min, h_max, .. } => {
                write!(f, "SegmentGraded({h_min}..{h_max})")
            }
            SizingField::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Distance from `p` to segment `a`–`b`.
fn dist_point_segment(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b - a;
    let len2 = ab.norm_sq();
    if len2 == 0.0 {
        return p.dist(a);
    }
    let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
    p.dist(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_constant() {
        let s = SizingField::Uniform(0.5);
        assert_eq!(s.size_at(Point2::new(0.0, 0.0)), 0.5);
        assert_eq!(s.size_at(Point2::new(100.0, -3.0)), 0.5);
        assert_eq!(s.min_size(), 0.5);
    }

    #[test]
    fn radial_graded_interpolates() {
        let s = SizingField::RadialGraded {
            center: Point2::new(0.0, 0.0),
            h_min: 0.1,
            h_max: 1.0,
            radius: 10.0,
        };
        assert!((s.size_at(Point2::new(0.0, 0.0)) - 0.1).abs() < 1e-12);
        assert!((s.size_at(Point2::new(5.0, 0.0)) - 0.55).abs() < 1e-12);
        assert!((s.size_at(Point2::new(20.0, 0.0)) - 1.0).abs() < 1e-12);
        assert_eq!(s.min_size(), 0.1);
    }

    #[test]
    fn segment_graded_uses_segment_distance() {
        let s = SizingField::SegmentGraded {
            a: Point2::new(0.0, 0.0),
            b: Point2::new(10.0, 0.0),
            h_min: 0.2,
            h_max: 2.0,
            radius: 5.0,
        };
        // On the segment.
        assert!((s.size_at(Point2::new(5.0, 0.0)) - 0.2).abs() < 1e-12);
        // Beyond the radius.
        assert!((s.size_at(Point2::new(5.0, 9.0)) - 2.0).abs() < 1e-12);
        // Past an endpoint the distance is to the endpoint.
        assert!((s.size_at(Point2::new(12.5, 0.0)) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn custom_field() {
        let s = SizingField::Custom(Arc::new(|p: Point2| 0.1 + p.x.abs()));
        assert!((s.size_at(Point2::new(2.0, 0.0)) - 2.1).abs() < 1e-12);
        assert_eq!(s.min_size(), 0.0);
    }

    #[test]
    fn point_segment_distance() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(4.0, 0.0);
        assert_eq!(dist_point_segment(Point2::new(2.0, 3.0), a, b), 3.0);
        assert_eq!(dist_point_segment(Point2::new(-3.0, 4.0), a, b), 5.0);
        assert_eq!(dist_point_segment(Point2::new(2.0, 0.0), a, b), 0.0);
        // Degenerate segment.
        assert_eq!(dist_point_segment(Point2::new(3.0, 4.0), a, a), 5.0);
    }
}
