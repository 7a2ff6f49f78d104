//! Zero-allocation guard for the kernel's steady state.
//!
//! A counting global allocator (per-thread counters, so parallel tests do
//! not see each other) wraps the system one. After a warm-up that sizes the
//! scratch buffers, and with arena capacity reserved up front, point
//! location must not allocate at all, and insertion and refinement may
//! allocate only when a scratch `Vec` (`stack`, `work`, cavity, star)
//! doubles its capacity — a handful of times per pass, never per point.
//!
//! The domain is a quadrilateral in general position: the corners of a
//! rectangle are exactly cocircular and its first circumcenters symmetric,
//! so the predicates' filters give up and the exact fallback builds its
//! expansions on the heap. That path is cold by construction and not what
//! this guard is about.
//!
//! The wire decoder is held to the other side of the same rule: a header
//! whose counts the buffer cannot hold is rejected before any arena is
//! allocated.

use pumg_delaunay::builder::MeshBuilder;
use pumg_delaunay::mesh::{TriMesh, VFlags};
use pumg_delaunay::refine::{refine, RefineParams};
use pumg_delaunay::sizing::SizingField;
use pumg_delaunay::wire::WireError;
use pumg_geometry::Point2;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which neither allocates
// (const-initialized, no destructor) nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

/// Capacity doublings a `Vec` grown by pushes from empty to `len` performs.
fn doublings(len: usize) -> u64 {
    (usize::BITS - len.leading_zeros()) as u64
}

/// Deterministic points strictly inside the domain.
fn stream(seed: u64) -> impl FnMut() -> Point2 {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.01 + 0.98 * ((s >> 11) as f64 / (1u64 << 53) as f64)
    };
    move || Point2::new(0.1 + 0.8 * next(), 0.1 + 0.7 * next())
}

fn domain() -> TriMesh {
    let mut b = MeshBuilder::new();
    b.add_polygon(&[
        Point2::new(0.0, 0.0),
        Point2::new(1.037, 0.051),
        Point2::new(0.953, 0.913),
        Point2::new(-0.029, 0.802),
    ]);
    b.build().unwrap()
}

#[test]
fn locate_never_allocates() {
    let mut mesh = domain();
    refine(&mut mesh, &RefineParams::with_uniform_size(0.02));
    let mut pts = stream(1);
    std::hint::black_box(mesh.locate(pts())); // warm-up
    let n = allocations(|| {
        for _ in 0..10_000 {
            std::hint::black_box(mesh.locate(pts()));
        }
    });
    assert_eq!(n, 0, "10k point locations allocated {n} times");
}

#[test]
fn insert_allocates_only_to_grow_scratch() {
    let mut mesh = domain();
    let mut pts = stream(2);
    mesh.reserve(1_200, 2_400);
    for _ in 0..100 {
        mesh.insert_point(pts(), VFlags::default()); // sizes the scratch stack
    }
    let n = allocations(|| {
        for _ in 0..1_000 {
            std::hint::black_box(mesh.insert_point(pts(), VFlags::default()));
        }
    });
    // Only the legalization stack may still grow: a flip cascade deeper
    // than any the warm-up saw doubles it.
    assert!(
        n <= doublings(64),
        "1k insertions into reserved arenas allocated {n} times"
    );
    mesh.validate().unwrap();
}

/// A batch insertion allocates its outcome list and its start grid, plus
/// the legalization stack's doublings — the same number for 1 k points as
/// for 4 k, never one per point. The domain is a rectangle, because only a
/// rectangle gets the grid; random interior points meet none of its
/// cocircular corners' degeneracies.
#[test]
fn insert_points_allocates_a_bounded_number_of_times() {
    let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 0.9).build().unwrap();
    refine(&mut mesh, &RefineParams::with_uniform_size(0.02));
    let mut pts = stream(3);
    mesh.reserve(5_500, 11_000);
    let warm: Vec<Point2> = (0..100).map(|_| pts()).collect();
    mesh.insert_points(&warm, VFlags::default()); // sizes the scratch stack
    let budget = 2 + doublings(64);
    for n in [1_000, 4_000] {
        let batch: Vec<Point2> = (0..n).map(|_| pts()).collect();
        let before = mesh.num_vertices();
        let allocs = allocations(|| {
            std::hint::black_box(mesh.insert_points(&batch, VFlags::default()));
        });
        assert_eq!(mesh.num_vertices(), before + n, "every point is new");
        assert!(
            allocs <= budget,
            "inserting {n} points in one batch allocated {allocs} times (budget {budget})"
        );
    }
    mesh.validate().unwrap();
}

/// Fine sizing inside a window well away from the boundary, coarse
/// elsewhere: the measured pass works in the interior only. Near segments
/// refinement keeps meeting exactly collinear points (split midpoints, the
/// circumcenters of right triangles), and those go through the exact
/// fallback — see the module comment.
fn windowed(fine: f64, coarse: f64) -> RefineParams {
    RefineParams::with_sizing(SizingField::Custom(Arc::new(move |p: Point2| {
        let inside = (0.25..0.75).contains(&p.x) && (0.25..0.65).contains(&p.y);
        if inside {
            fine
        } else {
            coarse
        }
    })))
}

#[test]
fn refine_allocates_only_to_grow_scratch() {
    let mut base = domain();
    refine(&mut base, &RefineParams::with_uniform_size(0.05));
    let params = windowed(0.006, 0.05);
    // Dry run to learn how large the mesh gets.
    let mut dry = base.clone();
    let report = refine(&mut dry, &params);
    assert!(report.inserted > 2_000, "{report:?}");
    assert_eq!(report.seg_splits, 0, "{report:?}");

    let mut mesh = base;
    mesh.reserve(dry.num_vertices(), dry.arena_len());
    let mut measured = None;
    let n = allocations(|| measured = Some(refine(&mut mesh, &params)));
    assert_eq!(measured, Some(report));
    // The work stack, the legalization stack and the cavity and star
    // buffers grow by doubling; nothing allocates per inserted point.
    let budget = doublings(4 * dry.arena_len()) + 3 * doublings(64);
    assert!(
        n <= budget,
        "inserting {} circumcenters allocated {n} times (budget {budget})",
        report.inserted
    );
}

#[test]
fn decode_rejects_a_hostile_header_before_allocating() {
    // The 12-byte header of an empty mesh, then claims of huge counts.
    let empty = TriMesh::new().encode();
    let header: [u8; 12] = empty[..].try_into().unwrap();
    for (nv, nt) in [(0, u32::MAX), (u32::MAX, 0), (u32::MAX, u32::MAX)] {
        let mut buf = header;
        buf[4..8].copy_from_slice(&nv.to_le_bytes());
        buf[8..12].copy_from_slice(&nt.to_le_bytes());
        let mut got = None;
        let n = allocations(|| got = Some(TriMesh::decode(&buf).map(|_| ())));
        assert_eq!(got, Some(Err(WireError::Truncated)));
        assert_eq!(n, 0, "nv = {nv}, nt = {nt}: {n} allocations");
    }
}
