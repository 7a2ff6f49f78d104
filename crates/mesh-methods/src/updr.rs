//! UPDR — Uniform Parallel Delaunay Refinement (in-core baseline).
//!
//! The method of Chernikov & Chrisochoides the paper stresses the MRTS
//! control layer with: the domain is decomposed into a uniform grid of
//! **blocks**; each block meshes its own cell plus a **buffer zone** `Z`
//! around it, with refinement restricted to the points it owns; buffer-zone
//! points are then exchanged with the (statically known) neighbors and the
//! buffer is re-meshed. Communication is *structured* — every phase knows
//! its senders and receivers — and phases are separated by *global
//! synchronization*.
//!
//! The in-core baseline here plays the role of the paper's native MPI
//! code: method logic executes directly, timing is charged to a
//! [`ClusterSim`], and exceeding the aggregate memory is a hard error
//! (the paper's `n/a` entries).

use crate::common::{point_batch_bytes, ClusterSim, MethodError, MethodResult};
use crate::domain::{elements_for_h, DomainSpec, SizingSpec, Workload};
use crate::region::{count_owned_triangles, mesh_region};
use mrts::config::NetModel;
use pumg_delaunay::mesh::{VFlags, VId};
use pumg_delaunay::refine::RefineParams;
use pumg_delaunay::TriMesh;
use pumg_geometry::{BBox, Point2};

/// Parameters of a UPDR run.
#[derive(Clone, Copy, Debug)]
pub struct UpdrParams {
    pub workload: Workload,
    /// Blocks per axis (total blocks ≤ grid²; cells outside the domain are
    /// dropped).
    pub grid: usize,
    /// Buffer-zone width as a multiple of the (uniform) element size.
    pub buffer_factor: f64,
}

impl UpdrParams {
    pub fn new(workload: Workload, grid: usize) -> Self {
        UpdrParams {
            workload,
            grid,
            buffer_factor: 2.0,
        }
    }

    /// Buffer-zone width δ.
    pub fn delta(&self) -> f64 {
        self.buffer_factor * self.workload.sizing.min_size()
    }
}

/// One block of the decomposition.
#[derive(Clone, Debug)]
pub struct Block {
    pub idx: usize,
    /// The owned cell.
    pub cell: BBox,
    /// The meshed region: cell inflated by δ (clamped to the domain box).
    pub region: BBox,
    /// Indices (into the block list) of edge/corner neighbors.
    pub neighbors: Vec<usize>,
}

/// Build the block decomposition (dropping cells that miss the domain).
/// Grid lines are computed once with a single formula so neighboring
/// blocks agree bit-exactly on shared boundaries.
pub fn decompose(params: &UpdrParams) -> Vec<Block> {
    let g = params.grid.max(1);
    let bb = params.workload.domain.bbox();
    let xs: Vec<f64> = (0..=g)
        .map(|i| bb.min.x + bb.width() * i as f64 / g as f64)
        .collect();
    let ys: Vec<f64> = (0..=g)
        .map(|j| bb.min.y + bb.height() * j as f64 / g as f64)
        .collect();
    let delta = params.delta();

    // Keep cells that plausibly intersect the domain (analytic sampling).
    let mut keep = Vec::new();
    let mut cell_of = vec![usize::MAX; g * g];
    for j in 0..g {
        for i in 0..g {
            let cell = BBox::new(Point2::new(xs[i], ys[j]), Point2::new(xs[i + 1], ys[j + 1]));
            if cell_touches_domain(&params.workload.domain, &cell) {
                cell_of[j * g + i] = keep.len();
                keep.push((i, j, cell));
            }
        }
    }
    keep.iter()
        .enumerate()
        .map(|(idx, &(i, j, cell))| {
            let region = BBox::new(
                Point2::new(
                    (cell.min.x - delta).max(bb.min.x),
                    (cell.min.y - delta).max(bb.min.y),
                ),
                Point2::new(
                    (cell.max.x + delta).min(bb.max.x),
                    (cell.max.y + delta).min(bb.max.y),
                ),
            );
            let mut neighbors = Vec::new();
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    if di == 0 && dj == 0 {
                        continue;
                    }
                    let (ni, nj) = (i as i64 + di, j as i64 + dj);
                    if ni < 0 || nj < 0 || ni >= g as i64 || nj >= g as i64 {
                        continue;
                    }
                    let n = cell_of[nj as usize * g + ni as usize];
                    if n != usize::MAX {
                        neighbors.push(n);
                    }
                }
            }
            Block {
                idx,
                cell,
                region,
                neighbors,
            }
        })
        .collect()
}

fn cell_touches_domain(domain: &DomainSpec, cell: &BBox) -> bool {
    match domain {
        DomainSpec::Rect { .. } => true,
        DomainSpec::Pipe { .. } => {
            for i in 0..6 {
                for j in 0..6 {
                    let p = Point2::new(
                        cell.min.x + cell.width() * (i as f64 + 0.5) / 6.0,
                        cell.min.y + cell.height() * (j as f64 + 0.5) / 6.0,
                    );
                    if domain.contains(p) {
                        return true;
                    }
                }
            }
            false
        }
    }
}

fn refine_params(sizing: &SizingSpec) -> RefineParams {
    let mut p = RefineParams::with_sizing(sizing.field());
    p.min_edge_len = sizing.min_size() * 0.05;
    p
}

/// A block's final triangles per triangle of the sizing estimate `E` over
/// its region, and extra per triangle of `E` over its buffer zone (the
/// region minus the cell, which phase 3 meshes again with the neighbours'
/// points). Least-squares fit over 1 040 blocks at 15 scales (12 k–8.4 M
/// elements, grids 2–16, square and pipe): a square-domain block lands
/// within 0.97–1.05 of the fit, 0.98–1.02 above 10 k triangles.
const TRIS_PER_E: f64 = 0.91;
const TRIS_PER_BUFFER_E: f64 = 2.48;
/// Final vertices beyond half the triangles, per triangle of `E` over the
/// buffer zone (same fit: the region's border carries the extra vertices,
/// and the buffer zone is a strip along it).
const EXTRA_VERTS_PER_BUFFER_E: f64 = 0.26;
/// Reserve above the fit: covers the spread above, so no square-domain
/// block measured grows its arenas after phase 1. Pipe blocks that the
/// wall clips (4.5–7 k triangles; 4 of 16 blocks at 200 k elements, 8 of
/// 52 at 1 M, 4 of 204 at 3 M) carry more boundary than the fit and
/// outgrow it once.
const ARENA_HEADROOM: f64 = 1.08;
/// Blocks estimated below this keep `Vec` growth: there the buffer zones
/// are most of the region and the fit fails (final / `E` spans 1.23–1.76
/// for the 1.4 k-triangle blocks of 24 k elements on grid 6), and their
/// arenas stay small.
const MIN_RESERVED_TRIS: f64 = 4096.0;

/// Size `mesh`'s arenas once for `block`'s final mesh, so that neither
/// refinement pass grows them by doubling. The estimate is the uniform
/// sizing's triangle count over the area the mesh covers (region ∩
/// domain), weighted up by the buffer zone's share of the region (see
/// [`TRIS_PER_E`]). Graded sizing has no such estimate and keeps `Vec`
/// growth. Only capacity changes — never arena numbering — so the mesh is
/// the same bit for bit.
fn reserve_final_mesh(mesh: &mut TriMesh, workload: &Workload, block: &Block) {
    let SizingSpec::Uniform { h } = workload.sizing else {
        return;
    };
    let e = elements_for_h(mesh.total_area(), h) as f64;
    let region = block.region.width() * block.region.height();
    let buffer_e = e * (1.0 - block.cell.width() * block.cell.height() / region);
    let tris = (TRIS_PER_E * e + TRIS_PER_BUFFER_E * buffer_e) * ARENA_HEADROOM;
    if tris < MIN_RESERVED_TRIS {
        return;
    }
    let verts = tris / 2.0 + EXTRA_VERTS_PER_BUFFER_E * buffer_e * ARENA_HEADROOM;
    mesh.reserve(
        (verts as usize).saturating_sub(mesh.num_vertices()),
        (tris as usize).saturating_sub(mesh.arena_len()),
    );
}

/// Phase 1 kernel: mesh and refine the block's whole region — the paper's
/// "mesh A ∪ Z" step (the buffer zone is meshed by both sides and remeshed
/// after the exchange). Returns the mesh and the refinement watermark
/// ([`RefineReport::settled`](pumg_delaunay::RefineReport::settled)) that
/// lets [`block_phase3`] look only at what the exchange changed; `None`
/// when the region misses the domain.
pub fn block_phase1(workload: &Workload, block: &Block) -> Option<(TriMesh, VId)> {
    let mut mesh = mesh_region(&workload.domain, &block.region)?;
    reserve_final_mesh(&mut mesh, workload, block);
    let report = pumg_delaunay::refine::refine(&mut mesh, &refine_params(&workload.sizing));
    Some((mesh, report.settled))
}

/// Phase 2 kernel: for each neighbor, the owned vertices that fall inside
/// its meshed region (its buffer zone) — the batch shipped to it. One pass
/// over the vertices the live triangles reference serves every neighbor.
pub fn buffer_batches(
    mesh: &TriMesh,
    own_cell: &BBox,
    neighbor_regions: &[BBox],
) -> Vec<Vec<Point2>> {
    let mut referenced = vec![false; mesh.num_vertices()];
    for t in mesh.tri_ids() {
        for &v in &mesh.tri(t).v {
            referenced[v as usize] = true;
        }
    }
    let mut out = vec![Vec::new(); neighbor_regions.len()];
    for v in (0..mesh.num_vertices() as VId).filter(|&v| referenced[v as usize]) {
        let p = mesh.point(v);
        if mesh.vflags(v).is(VFlags::SUPER) || !own_cell.contains(p) {
            continue;
        }
        for (batch, region) in out.iter_mut().zip(neighbor_regions) {
            if region.contains(p) {
                batch.push(p);
            }
        }
    }
    for batch in &mut out {
        batch.sort_by(|a, b| {
            (a.x, a.y)
                .partial_cmp(&(b.x, b.y))
                .expect("refinement coordinates are finite")
        });
        batch.dedup();
    }
    out
}

/// Phase 3 kernel: integrate the received buffer points ("remesh Z") and
/// restore quality. `settled` is the block's phase-1 watermark, or 0 when
/// it is not known (a block reloaded from its wire form): refinement then
/// re-examines every triangle, with the same result. `received` is left
/// sorted and deduplicated. The arenas are reserved for the final mesh
/// first: a no-op after phase 1 in memory, one reallocation for a block
/// reloaded from its (exactly sized) wire form.
pub fn block_phase3(
    workload: &Workload,
    block: &Block,
    mesh: &mut TriMesh,
    settled: VId,
    received: &mut Vec<Point2>,
) {
    reserve_final_mesh(mesh, workload, block);
    // Insertion order affects which Steiner points refinement later picks;
    // sort so the result is independent of message arrival order (the
    // baseline and the MRTS port then produce identical meshes).
    received.sort_by_key(|a| (a.x.to_bits(), a.y.to_bits()));
    received.dedup();
    mesh.insert_points(received, VFlags::default());
    pumg_delaunay::refine::refine_since(mesh, &refine_params(&workload.sizing), settled);
}

/// Count the block's owned triangles and vertices.
pub fn block_counts(mesh: &TriMesh, block: &Block, domain_bbox: &BBox) -> (u64, u64) {
    let tris = count_owned_triangles(mesh, &block.cell, domain_bbox);
    let closed_x = block.cell.max.x >= domain_bbox.max.x;
    let closed_y = block.cell.max.y >= domain_bbox.max.y;
    let mut verts = 0u64;
    for v in 0..mesh.num_vertices() as u32 {
        if mesh.vflags(v).is(VFlags::SUPER) {
            continue;
        }
        let p = mesh.point(v);
        let x_ok = p.x >= block.cell.min.x
            && (p.x < block.cell.max.x || (closed_x && p.x <= block.cell.max.x));
        let y_ok = p.y >= block.cell.min.y
            && (p.y < block.cell.max.y || (closed_y && p.y <= block.cell.max.y));
        if x_ok && y_ok {
            verts += 1;
        }
    }
    (tris, verts)
}

/// Run the in-core UPDR baseline on `pes` processing elements with
/// `mem_per_pe` bytes of memory each.
pub fn updr_incore(
    params: &UpdrParams,
    pes: usize,
    mem_per_pe: u64,
) -> Result<MethodResult, MethodError> {
    updr_incore_scaled(params, pes, mem_per_pe, 1.0)
}

/// [`updr_incore`] with a virtual-time multiplier on measured compute (models
/// period-appropriate CPU speed so that disk/network/compute ratios match
/// the paper's platform; see DESIGN.md §3).
pub fn updr_incore_scaled(
    params: &UpdrParams,
    pes: usize,
    mem_per_pe: u64,
    compute_scale: f64,
) -> Result<MethodResult, MethodError> {
    let blocks = decompose(params);
    if blocks.is_empty() {
        return Err(MethodError::BadWorkload(
            "no blocks intersect domain".into(),
        ));
    }
    let mut sim = ClusterSim::new(pes, mem_per_pe, NetModel::cluster());
    sim.set_compute_scale(compute_scale);
    let pe_of = |idx: usize| idx % pes;
    let domain_bbox = params.workload.domain.bbox();

    // Phase 1: independent meshing of region = cell ∪ buffer.
    let mut meshes: Vec<Option<(TriMesh, VId)>> = Vec::with_capacity(blocks.len());
    for b in &blocks {
        let mesh = sim.run_on(pe_of(b.idx), || block_phase1(&params.workload, b));
        if let Some((m, _)) = &mesh {
            sim.alloc(m.mem_footprint() as u64)?;
        }
        meshes.push(mesh);
    }
    sim.barrier();

    // Phase 2: structured buffer-point exchange.
    let mut inbox: Vec<Vec<Point2>> = vec![Vec::new(); blocks.len()];
    for b in &blocks {
        let Some((mesh, _)) = &meshes[b.idx] else {
            continue;
        };
        let regions: Vec<BBox> = b.neighbors.iter().map(|&n| blocks[n].region).collect();
        for (&n, pts) in b
            .neighbors
            .iter()
            .zip(buffer_batches(mesh, &b.cell, &regions))
        {
            if !pts.is_empty() {
                sim.send(pe_of(b.idx), pe_of(n), point_batch_bytes(pts.len()));
                inbox[n].extend_from_slice(&pts);
            }
        }
    }
    sim.barrier();

    // Phase 3: integrate and re-refine the buffer zones.
    let mut elements = 0u64;
    let mut vertices = 0u64;
    for b in &blocks {
        let Some((mesh, settled)) = meshes[b.idx].as_mut() else {
            continue;
        };
        let before = mesh.mem_footprint() as u64;
        let mut received = std::mem::take(&mut inbox[b.idx]);
        sim.run_on(pe_of(b.idx), || {
            block_phase3(&params.workload, b, mesh, *settled, &mut received)
        });
        sim.free(before);
        sim.alloc(mesh.mem_footprint() as u64)?;
        let (t, v) = block_counts(mesh, b, &domain_bbox);
        elements += t;
        vertices += v;
    }
    sim.barrier();

    Ok(MethodResult {
        elements,
        vertices,
        stats: sim.into_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_square(elements: u64, grid: usize) -> UpdrParams {
        UpdrParams::new(Workload::uniform_square(elements), grid)
    }

    #[test]
    fn decompose_square_full_grid() {
        let p = small_square(2000, 3);
        let blocks = decompose(&p);
        assert_eq!(blocks.len(), 9);
        // Corner block has 3 neighbors, center has 8.
        assert_eq!(blocks[0].neighbors.len(), 3);
        assert_eq!(blocks[4].neighbors.len(), 8);
        // Regions extend past cells by δ (except at the domain border).
        assert!(blocks[4].region.width() > blocks[4].cell.width());
    }

    #[test]
    fn decompose_pipe_drops_empty_cells() {
        let p = UpdrParams::new(Workload::uniform_pipe(4000), 6);
        let blocks = decompose(&p);
        // The 4 bbox corner cells of a disc domain contain domain area (the
        // annulus bulges), but the very center cells are inside the bore —
        // with a 6x6 grid over [-1,1]² the 4 center cells still touch the
        // annulus, so just check we kept a sensible number.
        assert!(blocks.len() <= 36);
        assert!(blocks.len() >= 28);
        // Neighbor lists are symmetric.
        for b in &blocks {
            for &n in &b.neighbors {
                assert!(blocks[n].neighbors.contains(&b.idx));
            }
        }
    }

    #[test]
    fn updr_produces_quality_mesh() {
        let p = small_square(4000, 3);
        let r = updr_incore(&p, 4, 1 << 30).unwrap();
        let est = p.workload.estimate_elements();
        assert!(
            (r.elements as f64) > 0.6 * est as f64 && (r.elements as f64) < 1.8 * est as f64,
            "elements {} vs estimate {est}",
            r.elements
        );
        assert!(r.vertices > 0);
        assert!(r.stats.total > std::time::Duration::ZERO);
        assert!(r.stats.comm_pct() > 0.0, "phases must communicate");
    }

    #[test]
    fn updr_block_meshes_are_valid() {
        let p = small_square(3000, 2);
        let blocks = decompose(&p);
        for b in &blocks {
            let (mut mesh, settled) = block_phase1(&p.workload, b).unwrap();
            mesh.validate().unwrap();
            // After phase 3 with empty input the mesh remains valid.
            block_phase3(&p.workload, b, &mut mesh, settled, &mut Vec::new());
            mesh.validate().unwrap();
        }
    }

    #[test]
    fn updr_element_count_scales_with_size() {
        let small = updr_incore(&small_square(2000, 2), 2, 1 << 30).unwrap();
        let large = updr_incore(&small_square(8000, 2), 2, 1 << 30).unwrap();
        let ratio = large.elements as f64 / small.elements as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "4x workload should give ~4x elements; got {ratio:.2}"
        );
    }

    #[test]
    fn updr_out_of_memory_is_detected() {
        let p = small_square(20_000, 3);
        let err = updr_incore(&p, 2, 50_000).unwrap_err();
        assert!(matches!(err, MethodError::OutOfMemory { .. }));
    }

    #[test]
    fn updr_runs_on_pipe_domain() {
        let p = UpdrParams::new(Workload::uniform_pipe(4000), 4);
        let r = updr_incore(&p, 4, 1 << 30).unwrap();
        let est = p.workload.estimate_elements();
        assert!(
            (r.elements as f64) > 0.5 * est as f64 && (r.elements as f64) < 2.0 * est as f64,
            "elements {} vs estimate {est}",
            r.elements
        );
    }

    #[test]
    fn buffer_exchange_is_structured() {
        // Buffer points for a neighbor must lie inside the sender's cell
        // and the receiver's region.
        let p = small_square(3000, 2);
        let blocks = decompose(&p);
        let (mesh, _) = block_phase1(&p.workload, &blocks[0]).unwrap();
        let batches = buffer_batches(&mesh, &blocks[0].cell, &[blocks[1].region]);
        let pts = &batches[0];
        assert!(!pts.is_empty(), "adjacent blocks must exchange something");
        for q in pts {
            assert!(blocks[0].cell.contains(*q));
            assert!(blocks[1].region.contains(*q));
        }
    }
}
