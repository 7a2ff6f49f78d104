//! Property-based tests for the Delaunay kernel: structural validity, the
//! Delaunay property, area conservation, serialization round trips, and
//! refinement quality on randomized inputs.

use proptest::prelude::*;
use pumg_delaunay::builder::MeshBuilder;
use pumg_delaunay::mesh::{EdgeRef, TriMesh, VFlags};
use pumg_delaunay::refine::{refine, refine_since, RefineParams};
use pumg_geometry::Point2;

fn interior_points(n: usize, w: f64, h: f64) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0.01..0.99f64, 0.01..0.99f64).prop_map(move |(x, y)| Point2::new(x * w, y * h)),
        0..n,
    )
}

/// A `w × h` domain: 0 the rectangle, 1 the rectangle with a hole, 2 an L
/// (the last two are what `insert_points` must not accelerate).
fn domain(shape: u8, w: f64, h: f64) -> MeshBuilder {
    match shape {
        0 => MeshBuilder::rectangle(0.0, 0.0, w, h),
        1 => MeshBuilder::rectangle(0.0, 0.0, w, h).with_circular_hole(
            Point2::new(0.5 * w, 0.5 * h),
            0.25 * w.min(h),
            10,
        ),
        _ => {
            let mut b = MeshBuilder::new();
            b.add_polygon(&[
                Point2::new(0.0, 0.0),
                Point2::new(w, 0.0),
                Point2::new(w, 0.5 * h),
                Point2::new(0.5 * w, 0.5 * h),
                Point2::new(0.5 * w, h),
                Point2::new(0.0, h),
            ]);
            b
        }
    }
}

/// A query point: random in (a margin around) the unit square scaled to
/// the domain, or snapped onto an existing vertex (kind 2) or the midpoint
/// of an existing edge (kind 3) — the `Duplicate` and `OnEdge` cases.
fn query(mesh: &TriMesh, w: f64, h: f64, (kind, x, y, pick): QuerySeed) -> Point2 {
    match kind {
        2 => mesh.point(pick.index(mesh.num_vertices()) as u32),
        3 => {
            let tris: Vec<_> = mesh.tri_ids().collect();
            let t = tris[pick.index(tris.len())];
            let (a, b) = mesh.edge_verts(EdgeRef {
                t,
                e: pick.index(3),
            });
            mesh.point(a).midpoint(mesh.point(b))
        }
        _ => Point2::new(x * w, y * h),
    }
}

type QuerySeed = (u8, f64, f64, prop::sample::Index);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_insertions_keep_mesh_valid(pts in interior_points(120, 3.0, 2.0)) {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 3.0, 2.0).build().unwrap();
        for p in pts {
            mesh.insert_point(p, VFlags::default());
        }
        prop_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
        prop_assert!(mesh.validate_delaunay().is_ok(), "{:?}", mesh.validate_delaunay());
        prop_assert!((mesh.total_area() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_insertions_are_stable(pts in interior_points(40, 1.0, 1.0)) {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        for &p in &pts {
            mesh.insert_point(p, VFlags::default());
        }
        let (nv, nt) = (mesh.num_vertices(), mesh.num_tris());
        // Re-inserting the same points must be a no-op.
        for &p in &pts {
            let out = mesh.insert_point(p, VFlags::default());
            prop_assert!(matches!(out, pumg_delaunay::insert::InsertOutcome::Duplicate(_)));
        }
        prop_assert_eq!(mesh.num_vertices(), nv);
        prop_assert_eq!(mesh.num_tris(), nt);
    }

    #[test]
    fn encode_decode_roundtrip(pts in interior_points(60, 2.0, 2.0)) {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 2.0).build().unwrap();
        for p in pts {
            mesh.insert_point(p, VFlags::default());
        }
        let back = TriMesh::decode(&mesh.encode()).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.num_tris(), mesh.num_tris());
        prop_assert!((back.total_area() - mesh.total_area()).abs() < 1e-9);
        // Idempotent: encoding the compacted mesh again is byte-identical.
        prop_assert_eq!(back.encode(), TriMesh::decode(&back.encode()).unwrap().encode());
    }

    #[test]
    fn refinement_quality_on_random_domains(
        w in 0.5..3.0f64,
        h in 0.5..3.0f64,
        size in 0.08..0.4f64,
    ) {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, w, h).build().unwrap();
        let report = refine(&mut mesh, &RefineParams::with_uniform_size(size));
        prop_assert_eq!(report.remaining_bad, 0);
        prop_assert!(mesh.validate().is_ok());
        prop_assert!(mesh.validate_delaunay().is_ok());
        prop_assert!((mesh.total_area() - w * h).abs() < 1e-6);
        // Quality bound.
        for t in mesh.tri_ids() {
            let [a, b, c] = mesh.tri_points(t);
            let q = pumg_geometry::TriangleQuality::of(a, b, c);
            prop_assert!(q.ratio_sq <= 2.0 * (1.0 + 1e-9), "skinny triangle survived: {}", q.ratio_sq);
        }
    }

    #[test]
    fn segments_survive_refinement(n_seg in 1usize..4, size in 0.15..0.5f64) {
        // Domain with interior constrained chords; refinement must keep a
        // chain of constrained edges along each original chord line.
        let mut b = MeshBuilder::rectangle(0.0, 0.0, 2.0, 2.0);
        for i in 0..n_seg {
            let y = 0.5 + 0.4 * i as f64;
            let p0 = b.add_point(Point2::new(0.2, y));
            let p1 = b.add_point(Point2::new(1.8, y));
            b.add_segment(p0, p1);
        }
        let mut mesh = b.build().unwrap();
        refine(&mut mesh, &RefineParams::with_uniform_size(size));
        prop_assert!(mesh.validate().is_ok());
        // Every constrained edge must lie on the rectangle boundary or on
        // one of the chord lines y = 0.5 + 0.4 i.
        for t in mesh.tri_ids() {
            for e in 0..3 {
                if mesh.tri(t).is_constrained(e) {
                    let (a, bb) = mesh.edge_verts(pumg_delaunay::mesh::EdgeRef { t, e });
                    let (pa, pb) = (mesh.point(a), mesh.point(bb));
                    let on_rect = |p: Point2| {
                        p.x == 0.0 || p.x == 2.0 || p.y == 0.0 || p.y == 2.0
                    };
                    let on_chord = |p: Point2| {
                        (0..n_seg).any(|i| (p.y - (0.5 + 0.4 * i as f64)).abs() < 1e-12)
                    };
                    prop_assert!(
                        (on_rect(pa) && on_rect(pb)) || (on_chord(pa) && on_chord(pb)),
                        "constrained edge strayed: {pa:?} {pb:?}"
                    );
                }
            }
        }
    }

    /// `refine_since` seeded with what the insertions touched must equal a
    /// full `refine` byte for byte — on a carved domain (every segment on
    /// the hull) and on one with interior chords (segments with a triangle
    /// on each side, where a new apex can encroach from the far side).
    #[test]
    fn refine_since_equals_full_refine(
        pts in interior_points(60, 2.0, 2.0),
        chords in 0usize..3,
        hole in any::<bool>(),
        size in 0.06..0.2f64,
    ) {
        let mut b = MeshBuilder::rectangle(0.0, 0.0, 2.0, 2.0);
        for i in 0..chords {
            let y = 0.3 + 0.25 * i as f64;
            let p0 = b.add_point(Point2::new(0.2, y));
            let p1 = b.add_point(Point2::new(1.8, y));
            b.add_segment(p0, p1);
        }
        if hole {
            b = b.with_circular_hole(Point2::new(1.0, 1.4), 0.3, 12);
        }
        let mut base = b.build().unwrap();
        let params = RefineParams::with_uniform_size(size);
        let first = refine(&mut base, &params);
        // An unsettled first pass hands out watermark 0, which makes the
        // follow-up a full pass: equal by construction, nothing to learn.
        prop_assume!(first.settled > 0);
        prop_assert_eq!(first.settled as usize, base.num_vertices());

        let mut incremental = base.clone();
        let mut full = base;
        for &p in &pts {
            let a = incremental.insert_point(p, VFlags::default());
            let b = full.insert_point(p, VFlags::default());
            prop_assert_eq!(a, b);
        }
        let r_inc = refine_since(&mut incremental, &params, first.settled);
        let r_full = refine(&mut full, &params);
        prop_assert_eq!(r_inc, r_full);
        prop_assert_eq!(incremental.encode(), full.encode());
        prop_assert_eq!(incremental.arena_len(), full.arena_len());
        prop_assert!(incremental.validate().is_ok());
    }

    /// `insert_points` is an `insert_point` loop: the same outcomes, the
    /// same bytes, and — because it leaves the same location hint — the
    /// same refinement afterwards, on rectangles (the accelerated path) and
    /// on holed and L-shaped domains (the guard's fallback).
    #[test]
    fn insert_points_equals_an_insert_point_loop(
        shape in 0u8..3,
        w in 1.0..3.0f64,
        h in 1.0..3.0f64,
        size in 0.08..0.25f64,
        seeds in prop::collection::vec(
            (0u8..4, -0.05..1.05f64, -0.05..1.05f64, any::<prop::sample::Index>()),
            1..160,
        ),
        sorted in any::<bool>(),
    ) {
        let mut base = domain(shape, w, h).build().unwrap();
        let params = RefineParams::with_uniform_size(size);
        let settled = refine(&mut base, &params).settled;
        let mut pts: Vec<Point2> = seeds.into_iter().map(|s| query(&base, w, h, s)).collect();
        if sorted {
            pts.sort_by_key(|a| (a.x.to_bits(), a.y.to_bits()));
        }

        let mut looped = base.clone();
        let want: Vec<_> = pts.iter().map(|&p| looped.insert_point(p, VFlags::default())).collect();
        let mut batched = base;
        let got = batched.insert_points(&pts, VFlags::default());
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched.encode(), looped.encode());

        let r_batched = refine_since(&mut batched, &params, settled);
        let r_looped = refine_since(&mut looped, &params, settled);
        prop_assert_eq!(r_batched, r_looped);
        prop_assert_eq!(batched.encode(), looped.encode());
        prop_assert!(batched.validate().is_ok());
    }
}
