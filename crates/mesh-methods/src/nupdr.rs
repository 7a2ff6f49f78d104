//! NUPDR — Non-Uniform Parallel Delaunay Refinement (in-core baseline).
//!
//! The graded-sizing method: a **quadtree** distributes the data into
//! blocks corresponding to its leaves (split while a leaf is large relative
//! to the local sizing); a **master** keeps a refinement queue of leaves
//! with poor-quality triangles and hands leaves to **workers**; refining a
//! leaf requires the leaf plus its **buffer** `BUF` (neighboring leaves),
//! and afterwards the buffer leaves are re-checked and possibly re-queued.
//!
//! Data distribution follows the point-set model (see DESIGN.md §3): a
//! leaf owns the Steiner points inside its box; a worker materializes the
//! constrained triangulation of the leaf ∪ buffer region from those
//! points, refines within the leaf's reach, and returns the (possibly
//! grown) owned point set plus the circumcenters of remaining bad
//! triangles — which the master maps to leaves and re-queues. Conformity
//! between neighboring leaves follows from the uniqueness of the Delaunay
//! triangulation over shared buffer points.

use crate::common::{point_batch_bytes, ClusterSim, MethodError, MethodResult};
use crate::domain::Workload;
use crate::region::{count_owned_triangles, mesh_region};
use mrts::config::NetModel;
use pumg_delaunay::mesh::VFlags;
use pumg_delaunay::refine::{refine_region, RefineParams};
use pumg_delaunay::TriMesh;
use pumg_geometry::{circumcenter, BBox, Point2, TriangleQuality};
use pumg_quadtree::{NodeId as QNodeId, QuadTree};
use std::collections::VecDeque;

/// Parameters of a NUPDR run.
#[derive(Clone, Copy, Debug)]
pub struct NupdrParams {
    pub workload: Workload,
    /// A leaf splits while its extent exceeds `split_factor × h(center)`.
    pub split_factor: f64,
    pub max_depth: u8,
}

impl NupdrParams {
    pub fn new(workload: Workload) -> Self {
        NupdrParams {
            workload,
            split_factor: 8.0,
            max_depth: 7,
        }
    }
}

/// One leaf of the distribution.
#[derive(Clone, Debug)]
pub struct LeafInfo {
    /// Index in the leaf list.
    pub idx: usize,
    /// Quadtree node.
    pub qnode: QNodeId,
    /// Owned box.
    pub bbox: BBox,
    /// Meshed region: bounding box of the leaf and its buffer.
    pub region: BBox,
    /// Leaf-list indices of the buffer (edge/corner neighbors).
    pub buffer: Vec<usize>,
}

/// Build the sizing-driven quadtree and the leaf list (leaves that miss
/// the domain are dropped). Returns the tree (leaf payload = leaf-list
/// index or `u32::MAX`) and the list.
pub fn build_leaves(params: &NupdrParams) -> (QuadTree<u32>, Vec<LeafInfo>) {
    let wl = &params.workload;
    let sizing = wl.sizing;
    let mut tree: QuadTree<u32> = QuadTree::new(wl.domain.bbox(), u32::MAX);
    tree.refine_while(
        |b, _| b.max_extent() > params.split_factor * sizing.size_at(b.center()),
        |_, _| u32::MAX,
        params.max_depth,
    );

    // Keep leaves that touch the domain.
    let mut leaves = Vec::new();
    let leaf_ids: Vec<QNodeId> = tree.leaves().collect();
    for q in leaf_ids {
        let bbox = tree.node_bbox(q);
        if leaf_touches_domain(wl, &bbox) {
            let idx = leaves.len();
            *tree.leaf_data_mut(q).expect("q came from leaf_ids") = idx as u32;
            leaves.push(LeafInfo {
                idx,
                qnode: q,
                bbox,
                region: bbox,
                buffer: Vec::new(),
            });
        }
    }
    // Buffers and regions.
    for leaf in leaves.iter_mut() {
        let q = leaf.qnode;
        let mut region = leaf.bbox;
        let mut buffer = Vec::new();
        for nq in tree.neighbors(q) {
            let data = *tree.leaf_data(nq).expect("neighbors() returns leaves");
            if data != u32::MAX {
                buffer.push(data as usize);
                region.expand(tree.node_bbox(nq).min);
                region.expand(tree.node_bbox(nq).max);
            }
        }
        leaf.buffer = buffer;
        leaf.region = region;
    }
    (tree, leaves)
}

fn leaf_touches_domain(wl: &Workload, bbox: &BBox) -> bool {
    for i in 0..6 {
        for j in 0..6 {
            let p = Point2::new(
                bbox.min.x + bbox.width() * (i as f64 + 0.5) / 6.0,
                bbox.min.y + bbox.height() * (j as f64 + 0.5) / 6.0,
            );
            if wl.domain.contains(p) {
                return true;
            }
        }
    }
    false
}

/// Result of refining one leaf.
#[derive(Clone, Debug, Default)]
pub struct LeafTaskOutput {
    /// The leaf's owned Steiner points after refinement (replaces the
    /// previous set).
    pub owned_points: Vec<Point2>,
    /// Owned triangles / vertices (elements attributed to this leaf).
    pub owned_tris: u64,
    pub owned_verts: u64,
    /// Circumcenters of remaining bad triangles that belong to *other*
    /// leaves (the master re-queues their owners).
    pub bad_ccs: Vec<Point2>,
    /// Footprint of the materialized region mesh.
    pub mesh_footprint: usize,
}

/// The worker kernel: materialize the leaf ∪ buffer region from the known
/// points, refine the leaf, report. `None` when the region misses the
/// domain.
pub fn leaf_task(
    workload: &Workload,
    leaf: &LeafInfo,
    input_points: impl Iterator<Item = Point2>,
) -> Option<LeafTaskOutput> {
    let mut mesh = mesh_region(&workload.domain, &leaf.region)?;
    // Sort the carried points so the reconstruction is independent of the
    // order buffers were collected in (message arrival order differs
    // between the baseline and the MRTS port). Curve order keeps each walk
    // short; the curve's frame is the domain's, shared by every leaf, so
    // neighbours insert the points they share in the same order.
    let domain_bbox = workload.domain.bbox();
    let mut pts: Vec<Point2> = input_points.collect();
    pts.sort_unstable_by_key(|a| (morton_key(*a, &domain_bbox), a.x.to_bits(), a.y.to_bits()));
    pts.dedup();
    for p in pts {
        mesh.insert_point(p, VFlags(VFlags::STEINER));
    }
    let bbox = leaf.bbox;
    let sizing = workload.sizing;
    // Refine to a *scratch sizing* that matches the true field in and near
    // the leaf and coarsens with distance: h'(p) = max(h(p), dist(p,
    // leaf)/2). Only leaf-owned points persist; the coarse far-field points
    // are deterministic scratch, so the leaf pays full cost only for its
    // own area.
    let scratch = pumg_delaunay::sizing::SizingField::Custom(std::sync::Arc::new(move |p| {
        sizing.size_at(p).max(dist_to_bbox(p, &bbox) / 2.0)
    }));
    let mut params = RefineParams::with_sizing(scratch);
    params.min_edge_len = workload.sizing.min_size() * 0.05;

    let closed_x = bbox.max.x >= domain_bbox.max.x;
    let closed_y = bbox.max.y >= domain_bbox.max.y;
    let owns = |p: Point2| {
        let x_ok = p.x >= bbox.min.x && (p.x < bbox.max.x || (closed_x && p.x <= bbox.max.x));
        let y_ok = p.y >= bbox.min.y && (p.y < bbox.max.y || (closed_y && p.y <= bbox.max.y));
        x_ok && y_ok
    };
    let min_edge_sq = params.min_edge_len * params.min_edge_len;
    let owned_bad = |mesh: &TriMesh| {
        mesh.tri_ids().filter(|&t| owns(mesh.centroid(t))).any(|t| {
            let [a, b, c] = mesh.tri_points(t);
            let q = TriangleQuality::of(a, b, c);
            q.shortest_edge_sq >= min_edge_sq
                && circumcenter(a, b, c).is_some_and(|cc| {
                    q.is_skinny(params.max_ratio) || q.is_oversized(params.sizing.size_at(cc))
                })
        })
    };
    // Refine only within the leaf's reach: its extent, which the split
    // rule keeps above 4h, covers the reporting band (2h) plus one
    // circumcircle, so a point beyond it cannot change a refined owned
    // triangle or a reported bad circumcenter. A leaf that starts from
    // few points can still have an owned triangle whose fix lies beyond
    // the reach; the reach then doubles until none is left (DESIGN.md,
    // "NUPDR leaf reach").
    let mut reach = bbox.max_extent();
    while refine_region(&mut mesh, &params, |p| dist_to_bbox(p, &bbox) <= reach).skipped_region > 0
        && owned_bad(&mesh)
    {
        reach *= 2.0;
    }

    let mut owned_points = Vec::new();
    let mut owned_verts = 0;
    for v in 0..mesh.num_vertices() as u32 {
        let f = mesh.vflags(v);
        if f.is(VFlags::SUPER) {
            continue;
        }
        let p = mesh.point(v);
        if owns(p) {
            owned_verts += 1;
            if f.is(VFlags::STEINER) {
                owned_points.push(p);
            }
        }
    }

    // Report bad triangles (by the *true* sizing) in the shared
    // responsibility band just outside the leaf — farther scratch areas are
    // deliberately coarse and their owners handle them.
    let mut bad_ccs = Vec::new();
    for t in mesh.tri_ids() {
        let [a, b, c] = mesh.tri_points(t);
        let q = TriangleQuality::of(a, b, c);
        let Some(cc) = circumcenter(a, b, c) else {
            continue;
        };
        let band = dist_to_bbox(cc, &bbox) <= 2.0 * workload.sizing.size_at(cc);
        let bad = q.is_skinny(params.max_ratio) || q.is_oversized(workload.sizing.size_at(cc));
        // Triangles already at the minimum-edge floor are unfixable by
        // anyone; reporting them would re-queue their owners forever.
        let fixable = q.shortest_edge_sq >= params.min_edge_len * params.min_edge_len;
        if bad && fixable && band && !bbox.contains(cc) && domain_bbox.contains(cc) {
            bad_ccs.push(cc);
        }
    }

    Some(LeafTaskOutput {
        owned_points,
        owned_tris: count_owned_triangles(&mesh, &bbox, &domain_bbox),
        owned_verts,
        bad_ccs,
        mesh_footprint: mesh.mem_footprint(),
    })
}

/// Position of `p` on the Z-order (Morton) curve over `frame`: each
/// coordinate quantized to 32 bits, the bits interleaved.
fn morton_key(p: Point2, frame: &BBox) -> u64 {
    fn quantize(v: f64, lo: f64, extent: f64) -> u64 {
        (((v - lo) / extent).clamp(0.0, 1.0) * f64::from(u32::MAX)) as u64
    }
    fn spread(mut x: u64) -> u64 {
        x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
        x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
        x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
        x = (x | x << 2) & 0x3333_3333_3333_3333;
        (x | x << 1) & 0x5555_5555_5555_5555
    }
    let x = quantize(p.x, frame.min.x, frame.width());
    let y = quantize(p.y, frame.min.y, frame.height());
    spread(x) | spread(y) << 1
}

/// Distance from a point to a box (0 inside).
pub fn dist_to_bbox(p: Point2, b: &BBox) -> f64 {
    let dx = (b.min.x - p.x).max(0.0).max(p.x - b.max.x);
    let dy = (b.min.y - p.y).max(0.0).max(p.y - b.max.y);
    (dx * dx + dy * dy).sqrt()
}

/// Run the in-core NUPDR baseline (master–worker over `pes` PEs).
pub fn nupdr_incore(
    params: &NupdrParams,
    pes: usize,
    mem_per_pe: u64,
) -> Result<MethodResult, MethodError> {
    nupdr_incore_scaled(params, pes, mem_per_pe, 1.0)
}

/// [`nupdr_incore`] with a virtual-time multiplier on measured compute (models
/// period-appropriate CPU speed so that disk/network/compute ratios match
/// the paper's platform; see DESIGN.md §3).
pub fn nupdr_incore_scaled(
    params: &NupdrParams,
    pes: usize,
    mem_per_pe: u64,
    compute_scale: f64,
) -> Result<MethodResult, MethodError> {
    master(params, pes, mem_per_pe, compute_scale).map(|(result, _)| result)
}

/// [`nupdr_incore`] that also returns every leaf's final owned point set,
/// indexed like [`build_leaves`]'s list — the input of a union-mesh check.
pub fn nupdr_incore_points(
    params: &NupdrParams,
    pes: usize,
    mem_per_pe: u64,
) -> Result<(MethodResult, Vec<Vec<Point2>>), MethodError> {
    master(params, pes, mem_per_pe, 1.0)
}

/// The points of `new` that are not in `old`, in `new`'s order. Compares
/// like `==` on points (`-0.0` is `0.0`) with one sorted copy of `old`.
pub(crate) fn points_not_in(new: &[Point2], old: &[Point2]) -> Vec<Point2> {
    // Adding +0.0 turns -0.0 into +0.0, so equal coordinates share bits.
    let bits = |p: &Point2| ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits());
    let mut old: Vec<(u64, u64)> = old.iter().map(bits).collect();
    old.sort_unstable();
    new.iter()
        .copied()
        .filter(|p| old.binary_search(&bits(p)).is_err())
        .collect()
}

/// The master loop of the in-core baseline.
fn master(
    params: &NupdrParams,
    pes: usize,
    mem_per_pe: u64,
    compute_scale: f64,
) -> Result<(MethodResult, Vec<Vec<Point2>>), MethodError> {
    let (tree, leaves) = build_leaves(params);
    if leaves.is_empty() {
        return Err(MethodError::BadWorkload(
            "no leaves intersect domain".into(),
        ));
    }
    let mut sim = ClusterSim::new(pes, mem_per_pe, NetModel::cluster());
    sim.set_compute_scale(compute_scale);
    let mut points: Vec<Vec<Point2>> = vec![Vec::new(); leaves.len()];
    let mut elems = vec![0u64; leaves.len()];
    let mut verts = vec![0u64; leaves.len()];
    let mut leaf_mem = vec![0u64; leaves.len()];

    let mut queue: VecDeque<usize> = (0..leaves.len()).collect();
    let mut in_queue = vec![true; leaves.len()];
    // Barren-run counter: a leaf that repeatedly runs without growing is
    // only chasing scratch-view artifacts of its neighbors' reports; stop
    // re-queueing it for bad-circumcenter reasons after a few tries.
    let mut stale = vec![0u32; leaves.len()];
    const STALE_CAP: u32 = 3;
    let mut tasks = 0usize;
    let task_cap = 60 * leaves.len();

    while let Some(li) = queue.pop_front() {
        in_queue[li] = false;
        tasks += 1;
        if tasks > task_cap {
            return Err(MethodError::BadWorkload(format!(
                "NUPDR did not converge within {task_cap} tasks"
            )));
        }
        let leaf = &leaves[li];
        let pe = sim.earliest_pe();

        // Master ships the leaf + buffer point sets to the worker (charged
        // to the worker only: the master streams dispatches asynchronously
        // and must not serialize the workers through its own clock).
        let mut input: Vec<Point2> = points[li].clone();
        for &b in &leaf.buffer {
            input.extend_from_slice(&points[b]);
        }
        sim.charge_comm(pe, point_batch_bytes(input.len()));

        let out = sim.run_on(pe, || leaf_task(&params.workload, leaf, input.into_iter()));
        let Some(out) = out else { continue };

        // Results return to the master.
        sim.charge_comm(pe, point_batch_bytes(out.owned_points.len()));

        sim.free(leaf_mem[li]);
        leaf_mem[li] = out.mesh_footprint as u64;
        sim.alloc(leaf_mem[li])?;

        let new_points = points_not_in(&out.owned_points, &points[li]);
        let grew = !new_points.is_empty();
        if grew {
            stale[li] = 0;
        } else {
            stale[li] += 1;
        }
        points[li] = out.owned_points;
        elems[li] = out.owned_tris;
        verts[li] = out.owned_verts;

        // Re-queue buffer leaves the new points may have affected.
        if grew {
            for &b in &leaf.buffer {
                if in_queue[b] {
                    continue;
                }
                let hit = new_points.iter().any(|&p| {
                    dist_to_bbox(p, &leaves[b].bbox) <= 2.0 * params.workload.sizing.size_at(p)
                });
                if hit {
                    in_queue[b] = true;
                    queue.push_back(b);
                }
            }
        }
        // Re-queue owners of remaining bad triangles.
        for cc in &out.bad_ccs {
            if let Some(q) = tree.locate(*cc) {
                let data = tree.leaf_data(q).copied().unwrap_or(u32::MAX);
                if data != u32::MAX {
                    let owner = data as usize;
                    if !in_queue[owner] && stale[owner] < STALE_CAP {
                        in_queue[owner] = true;
                        queue.push_back(owner);
                    }
                }
            }
        }
    }

    let result = MethodResult {
        elements: elems.iter().sum(),
        vertices: verts.iter().sum(),
        stats: sim.into_stats(),
    };
    Ok((result, points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graded_square(elements: u64) -> NupdrParams {
        let domain = crate::domain::DomainSpec::unit_square();
        let h_avg = crate::domain::h_for_elements(domain.area(), elements);
        let h_min = h_avg / 1.6;
        NupdrParams::new(Workload {
            domain,
            sizing: crate::domain::SizingSpec::Graded {
                focus: Point2::new(0.0, 0.0),
                h_min,
                h_max: h_min * 4.0,
                radius: 1.4,
            },
        })
    }

    #[test]
    fn tree_grades_with_sizing() {
        let p = graded_square(6000);
        let (tree, leaves) = build_leaves(&p);
        assert!(leaves.len() > 4, "graded sizing must split the tree");
        // Leaves near the focus are smaller than far leaves.
        let near = leaves
            .iter()
            .filter(|l| l.bbox.center().norm() < 0.4)
            .map(|l| l.bbox.max_extent())
            .fold(f64::INFINITY, f64::min);
        let far = leaves
            .iter()
            .filter(|l| l.bbox.center().norm() > 1.0)
            .map(|l| l.bbox.max_extent())
            .fold(0.0, f64::max);
        assert!(near < far, "near {near} vs far {far}");
        assert_eq!(tree.num_leaves(), leaves.len(), "square: all leaves kept");
    }

    #[test]
    fn leaf_regions_cover_buffers() {
        let p = graded_square(4000);
        let (_, leaves) = build_leaves(&p);
        for l in &leaves {
            for &b in &l.buffer {
                let nb = leaves[b].bbox;
                assert!(l.region.intersects(&nb));
                assert!(l.region.contains(nb.min) && l.region.contains(nb.max));
            }
        }
    }

    #[test]
    fn leaf_task_refines_and_reports() {
        let p = graded_square(4000);
        let (_, leaves) = build_leaves(&p);
        let leaf = &leaves[0];
        let out = leaf_task(&p.workload, leaf, std::iter::empty()).unwrap();
        assert!(out.owned_tris > 0);
        assert!(!out.owned_points.is_empty(), "refinement must add points");
        // Owned points are inside the leaf box.
        for q in &out.owned_points {
            assert!(leaf.bbox.contains(*q));
        }
        // Re-running with the same points is idempotent-ish: few new points.
        let out2 = leaf_task(&p.workload, leaf, out.owned_points.iter().copied()).unwrap();
        assert!(
            out2.owned_points.len() <= out.owned_points.len() + out.owned_points.len() / 4,
            "second pass should be nearly converged: {} -> {}",
            out.owned_points.len(),
            out2.owned_points.len()
        );
    }

    /// `leaf_task` sorts and deduplicates what it is given, so the order
    /// buffers arrive in (and a point carried twice) cannot change its
    /// output: a leaf's second round, fed its own and its buffer's points,
    /// gives byte-identical results from shuffled input.
    #[test]
    fn leaf_task_ignores_input_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let p = graded_square(4000);
        let (_, leaves) = build_leaves(&p);
        let leaf = leaves.iter().max_by_key(|l| l.buffer.len()).unwrap();
        let mut input = Vec::new();
        for &i in std::iter::once(&leaf.idx).chain(&leaf.buffer) {
            let out = leaf_task(&p.workload, &leaves[i], std::iter::empty()).unwrap();
            input.extend_from_slice(&out.owned_points);
        }
        assert!(input.len() > 100, "only {} carried points", input.len());
        let mut shuffled = input.clone();
        shuffled.extend_from_slice(&input[..input.len() / 3]);
        let mut rng = StdRng::seed_from_u64(5);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let a = leaf_task(&p.workload, leaf, input.into_iter()).unwrap();
        let b = leaf_task(&p.workload, leaf, shuffled.into_iter()).unwrap();
        let bits = |pts: &[Point2]| -> Vec<(u64, u64)> {
            pts.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect()
        };
        assert_eq!(bits(&a.owned_points), bits(&b.owned_points));
        assert_eq!(bits(&a.bad_ccs), bits(&b.bad_ccs));
        assert_eq!(
            (a.owned_tris, a.owned_verts, a.mesh_footprint),
            (b.owned_tris, b.owned_verts, b.mesh_footprint)
        );
    }

    #[test]
    fn points_not_in_matches_a_linear_scan() {
        let pt = |x: f64, y: f64| Point2::new(x, y);
        let old = vec![pt(0.5, 0.5), pt(0.0, 1.0), pt(0.25, 0.75), pt(1.0, 0.0)];
        let new = vec![
            pt(0.9, 0.1),
            pt(-0.0, 1.0),
            pt(0.25, 0.75),
            pt(0.1, 0.2),
            pt(0.5, 0.5),
            pt(0.3, 0.3),
        ];
        let linear: Vec<Point2> = new.iter().copied().filter(|p| !old.contains(p)).collect();
        assert_eq!(points_not_in(&new, &old), linear);
        assert_eq!(linear, vec![pt(0.9, 0.1), pt(0.1, 0.2), pt(0.3, 0.3)]);
    }

    #[test]
    fn nupdr_converges_with_sane_element_count() {
        let p = graded_square(5000);
        let r = nupdr_incore(&p, 4, 1 << 30).unwrap();
        let est = p.workload.estimate_elements();
        assert!(
            (r.elements as f64) > 0.4 * est as f64 && (r.elements as f64) < 2.5 * est as f64,
            "elements {} vs estimate {est}",
            r.elements
        );
        assert!(r.stats.comm_pct() > 0.0);
    }

    #[test]
    fn nupdr_scales_with_workload() {
        let small = nupdr_incore(&graded_square(2500), 2, 1 << 30).unwrap();
        let large = nupdr_incore(&graded_square(10000), 2, 1 << 30).unwrap();
        let ratio = large.elements as f64 / small.elements as f64;
        assert!((2.0..8.0).contains(&ratio), "got ratio {ratio:.2}");
    }

    #[test]
    fn nupdr_oom_detected() {
        let p = graded_square(30_000);
        let err = nupdr_incore(&p, 2, 40_000).unwrap_err();
        assert!(matches!(err, MethodError::OutOfMemory { .. }));
    }

    #[test]
    fn nupdr_on_pipe_domain() {
        let p = NupdrParams::new(Workload::graded_pipe(5000));
        let (_, leaves) = build_leaves(&p);
        assert!(!leaves.is_empty());
        let r = nupdr_incore(&p, 4, 1 << 30).unwrap();
        assert!(r.elements > 1000, "got {}", r.elements);
    }

    #[test]
    fn dist_to_bbox_cases() {
        let b = BBox::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        assert_eq!(dist_to_bbox(Point2::new(0.5, 0.5), &b), 0.0);
        assert_eq!(dist_to_bbox(Point2::new(2.0, 0.5), &b), 1.0);
        assert!((dist_to_bbox(Point2::new(2.0, 2.0), &b) - 2f64.sqrt()).abs() < 1e-12);
    }
}
