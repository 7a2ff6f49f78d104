//! Golden meshes: `(num_tris, num_vertices, fnv1a(encode()))` recorded from
//! the kernel as it stood before the allocation-free hot path landed. Any
//! change to the locate → insert → legalize → refine path must reproduce
//! these meshes bit for bit — same arena order, same wire bytes — or the
//! cross-engine, replay and twin-digest suites upstream lose their meaning.

use pumg_delaunay::builder::MeshBuilder;
use pumg_delaunay::mesh::{TriMesh, VFlags};
use pumg_delaunay::refine::{refine, refine_region, RefineParams};
use pumg_delaunay::sizing::SizingField;
use pumg_geometry::Point2;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fingerprint(mesh: &TriMesh) -> (usize, usize, u64) {
    (mesh.num_tris(), mesh.num_vertices(), fnv1a(&mesh.encode()))
}

#[test]
fn unit_square_uniform() {
    let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
    let report = refine(&mut mesh, &RefineParams::with_uniform_size(0.012));
    assert_eq!(report.remaining_bad, 0);
    assert_eq!(fingerprint(&mesh), (9664, 4965, 11095586584561378065));
}

#[test]
fn pipe_cross_section_uniform() {
    let mut mesh = MeshBuilder::pipe_cross_section(Point2::new(0.0, 0.0), 2.0, 0.5, 32)
        .build()
        .unwrap();
    let report = refine(&mut mesh, &RefineParams::with_uniform_size(0.04));
    assert_eq!(report.remaining_bad, 0);
    assert_eq!(fingerprint(&mesh), (10340, 5334, 13207632271704254748));
}

#[test]
fn graded_square() {
    let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 4.0, 4.0).build().unwrap();
    let sizing = SizingField::RadialGraded {
        center: Point2::new(0.0, 0.0),
        h_min: 0.01,
        h_max: 0.3,
        radius: 4.0,
    };
    refine(&mut mesh, &RefineParams::with_sizing(sizing));
    assert_eq!(fingerprint(&mesh), (1046, 576, 15578767369696496535));
}

/// The phase-3 pattern of the parallel methods: refine, integrate foreign
/// points, refine again.
#[test]
fn square_with_hole_reinsert_and_rerefine() {
    let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 4.0, 4.0)
        .with_circular_hole(Point2::new(2.0, 2.0), 1.0, 16)
        .build()
        .unwrap();
    let params = RefineParams::with_uniform_size(0.06);
    refine(&mut mesh, &params);
    assert_eq!(fingerprint(&mesh), (5022, 2681, 12430255427088087397));
    // A deterministic low-discrepancy point stream.
    for i in 0..400u32 {
        let x = 4.0 * ((i as f64 * 0.618_033_988_749_895) % 1.0);
        let y = 4.0 * ((i as f64 * 0.754_877_666_246_693) % 1.0);
        mesh.insert_point(Point2::new(x, y), VFlags::default());
    }
    let report = refine(&mut mesh, &params);
    assert_eq!(report.remaining_bad, 0);
    assert_eq!(fingerprint(&mesh), (5754, 3055, 9633602305228270132));
}

/// Region-restricted pass followed by a full one (the NUPDR primitive).
#[test]
fn region_restricted_then_full() {
    let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 1.0).build().unwrap();
    let params = RefineParams::with_uniform_size(0.02);
    let report = refine_region(&mut mesh, &params, |p| p.x < 1.25);
    assert_eq!(
        (
            report.inserted,
            report.seg_splits,
            report.skipped_region,
            report.remaining_bad
        ),
        (1835, 99, 136, 48)
    );
    assert_eq!(fingerprint(&mesh), (3771, 1942, 11100956133981782172));
    refine(&mut mesh, &params);
    assert_eq!(fingerprint(&mesh), (6884, 3548, 10241446056498501978));
}
