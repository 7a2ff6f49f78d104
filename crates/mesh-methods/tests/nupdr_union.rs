//! NUPDR's product is one mesh: the leaves' final owned point sets,
//! triangulated together over the whole domain, must form a mesh of the
//! quality and sizing the run asked for, with as many triangles as the
//! leaves reported owning. Checked for the in-core baseline and for ONUPDR
//! on both engines.

use mrts::config::MrtsConfig;
use mrts::des::Des;
use mrts::runtime::Engine;
use mrts::threaded::Threads;
use pumg_delaunay::insert::InsertOutcome;
use pumg_delaunay::mesh::VFlags;
use pumg_geometry::{circumcenter, Point2, TriangleQuality};
use pumg_methods::domain::{h_for_elements, DomainSpec, SizingSpec, Workload};
use pumg_methods::nupdr::{nupdr_incore_points, NupdrParams};
use pumg_methods::ooc_nupdr::{onupdr_setup, LeafObj, OnupdrOpts};
use pumg_methods::region::mesh_region;

/// |union − Σ owned| / union, pooled over the three runs. Leaves mesh
/// their points against different neighbourhoods, so a few per mille of
/// triangles near leaf borders are counted by neither or both sides.
const MAX_COUNT_MISMATCH: f64 = 0.0010;
/// Share of union triangles whose circumradius exceeds the sizing at
/// their circumcenter, pooled over the three runs.
const MAX_SIZE_VIOLATIONS: f64 = 0.0016;
/// A single run may reach this multiple of a pooled bound: the parallel
/// runs' schedules, and with them their borders' meshes, vary run to run.
const SINGLE_RUN_SLACK: f64 = 2.0;
/// ρ ≤ √2 is a minimum angle of arcsin(1 / (2√2)) ≈ 20.705°.
const MIN_ANGLE_DEG: f64 = 20.7;

/// The benchmark's grading (`h_min` = h̄ / 2.5, focus at the origin) on
/// the unit square, at about `elements` triangles.
fn graded_square(elements: u64) -> NupdrParams {
    let domain = DomainSpec::unit_square();
    let h_min = h_for_elements(domain.area(), elements) / 2.5;
    NupdrParams::new(Workload {
        domain,
        sizing: SizingSpec::Graded {
            focus: Point2::new(0.0, 0.0),
            h_min,
            h_max: h_min * 4.0,
            radius: 1.4,
        },
    })
}

/// One run's union mesh against the triangles its leaves reported owning.
#[derive(Debug)]
struct Union {
    tris: usize,
    owned: u64,
    outside: usize,
    /// Triangles with ρ > √2 whose shortest edge is above the refiner's
    /// minimum-edge floor.
    skinny: usize,
    min_angle_deg: f64,
    oversized: usize,
}

impl Union {
    fn mismatch(&self) -> f64 {
        (self.tris as f64 - self.owned as f64).abs()
    }
}

/// Triangulate the whole domain with every owned point inserted, and
/// check the one run against the `owned` triangles its leaves reported.
fn check(what: &str, p: &NupdrParams, mut points: Vec<Point2>, owned: u64) -> Union {
    let wl = &p.workload;
    let mut mesh = mesh_region(&wl.domain, &wl.domain.bbox()).expect("domain meshes");
    points.sort_by_key(|q| (q.x.to_bits(), q.y.to_bits()));
    let outside = mesh
        .insert_points(&points, VFlags(VFlags::STEINER))
        .iter()
        .filter(|o| matches!(o, InsertOutcome::Outside))
        .count();
    mesh.validate().expect("union mesh is valid");
    // The floor `leaf_task` refines with.
    let floor_sq = (wl.sizing.min_size() * 0.05).powi(2);
    let mut u = Union {
        tris: mesh.num_tris(),
        owned,
        outside,
        skinny: 0,
        min_angle_deg: 90.0,
        oversized: 0,
    };
    for t in mesh.tri_ids() {
        let [a, b, c] = mesh.tri_points(t);
        let q = TriangleQuality::of(a, b, c);
        if q.is_skinny(std::f64::consts::SQRT_2) && q.shortest_edge_sq >= floor_sq {
            u.skinny += 1;
        }
        let sin_min = (q.shortest_edge_sq / (4.0 * q.circumradius_sq)).sqrt();
        u.min_angle_deg = u.min_angle_deg.min(sin_min.asin().to_degrees());
        let cc = circumcenter(a, b, c).expect("valid triangles are not degenerate");
        if q.is_oversized(wl.sizing.size_at(cc)) {
            u.oversized += 1;
        }
    }
    let tris = u.tris as f64;
    eprintln!(
        "{what}: union {} triangles, owned {owned} ({:+.3} %), min angle {:.2}°, \
         oversized {:.3} %",
        u.tris,
        100.0 * (tris - owned as f64) / tris,
        u.min_angle_deg,
        100.0 * u.oversized as f64 / tris
    );
    assert_eq!(
        u.outside, 0,
        "{what}: owned points outside the domain: {u:?}"
    );
    assert_eq!(
        u.skinny, 0,
        "{what}: skinny triangles above the floor: {u:?}"
    );
    assert!(u.min_angle_deg >= MIN_ANGLE_DEG, "{what}: {u:?}");
    assert!(
        u.mismatch() <= SINGLE_RUN_SLACK * MAX_COUNT_MISMATCH * tris,
        "{what}: {u:?}"
    );
    assert!(
        u.oversized as f64 <= SINGLE_RUN_SLACK * MAX_SIZE_VIOLATIONS * tris,
        "{what}: {u:?}"
    );
    u
}

fn onupdr<E: Engine>(what: &str, p: &NupdrParams) -> Union {
    let mut rt = onupdr_setup::<E>(p, MrtsConfig::in_core(2), OnupdrOpts::default());
    rt.run();
    let (mut points, mut owned) = (Vec::new(), 0);
    rt.for_each_object(|_, obj| {
        if let Some(l) = obj.as_any().downcast_ref::<LeafObj>() {
            points.extend_from_slice(&l.points);
            owned += l.elems;
        }
    });
    check(what, p, points, owned)
}

/// The in-core baseline and ONUPDR on both engines, each checked on its
/// own and the three pooled against the tighter bounds. The three runs
/// are independent and run side by side.
#[test]
fn nupdr_union_is_one_mesh() {
    let p = graded_square(20_000);
    let runs = std::thread::scope(|s| {
        let des = s.spawn(|| onupdr::<Des>("ONUPDR on the DES", &p));
        let threads = s.spawn(|| onupdr::<Threads>("ONUPDR on threads", &p));
        let (r, points) = nupdr_incore_points(&p, 2, 1 << 30).expect("baseline converges");
        [
            check("in-core", &p, points.concat(), r.elements),
            des.join().expect("the DES run's check passed"),
            threads.join().expect("the threaded run's check passed"),
        ]
    });
    let tris = runs.iter().map(|u| u.tris).sum::<usize>() as f64;
    let mismatch = runs.iter().map(Union::mismatch).sum::<f64>() / tris;
    let oversized = runs.iter().map(|u| u.oversized).sum::<usize>() as f64 / tris;
    eprintln!(
        "pooled: |union − owned| {:.3} %, oversized {:.3} %",
        100.0 * mismatch,
        100.0 * oversized
    );
    assert!(
        mismatch <= MAX_COUNT_MISMATCH,
        "pooled count mismatch {:.3} %",
        100.0 * mismatch
    );
    assert!(
        oversized <= MAX_SIZE_VIOLATIONS,
        "pooled oversized share {:.3} %",
        100.0 * oversized
    );
}
