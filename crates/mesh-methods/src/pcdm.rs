//! PCDM — Parallel Constrained Delaunay Meshing (in-core baseline).
//!
//! The *domain decomposition* method: the domain is split into subdomains
//! whose interfaces are **constrained segments**; every subdomain owns a
//! full constrained Delaunay mesh that conforms to its boundary. When
//! refinement splits an interface segment, the inserted midpoint is sent
//! to the neighbor as a small asynchronous **split message** (aggregated
//! per destination); the neighbor inserts the same point, keeping the two
//! meshes conforming edge-by-edge. There is no global synchronization —
//! the communication graph is unstructured and message-driven, which is
//! exactly why the paper uses PCDM to stress asynchronous messaging.

use crate::common::{point_batch_bytes, ClusterSim, MethodError, MethodResult};
use crate::domain::Workload;
use crate::region::mesh_region;
use mrts::config::NetModel;
use pumg_delaunay::mesh::{VFlags, VId};
use pumg_delaunay::refine::{refine_since, RefineParams};
use pumg_delaunay::TriMesh;
use pumg_geometry::{BBox, Point2};
use std::collections::HashSet;

/// Sides of a rectangular subdomain (W, E, S, N).
pub const SIDES: usize = 4;

/// Parameters of a PCDM run.
#[derive(Clone, Copy, Debug)]
pub struct PcdmParams {
    pub workload: Workload,
    /// Subdomains per axis.
    pub grid: usize,
}

impl PcdmParams {
    pub fn new(workload: Workload, grid: usize) -> Self {
        PcdmParams { workload, grid }
    }
}

/// Exact bit-pattern key of a point (interface points are bit-identical on
/// both sides by construction).
fn key(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// One subdomain: an independent constrained Delaunay mesh plus interface
/// bookkeeping.
pub struct Subdomain {
    pub idx: usize,
    pub cell: BBox,
    pub mesh: TriMesh,
    /// Refinement watermark of `mesh`
    /// ([`RefineReport::settled`](pumg_delaunay::RefineReport::settled)
    /// of the last [`Subdomain::refine_step`]); between steps the mesh only
    /// gains points ([`Subdomain::insert_splits`]), so the next step looks
    /// only at what those changed. In-memory knowledge only: 0 for a
    /// fresh or reloaded subdomain.
    pub(crate) settled: VId,
    /// Interface points already shared (or original) per side.
    pub(crate) known: HashSet<(u64, u64)>,
    /// Neighbor subdomain index per side (W, E, S, N).
    pub neighbors: [Option<usize>; SIDES],
}

impl Subdomain {
    /// Reassemble a subdomain from its serialized parts (used by the MRTS
    /// port's mobile-object decoder).
    pub(crate) fn from_parts(
        idx: usize,
        cell: BBox,
        mesh: TriMesh,
        known: HashSet<(u64, u64)>,
        neighbors: [Option<usize>; SIDES],
    ) -> Subdomain {
        Subdomain {
            idx,
            cell,
            mesh,
            settled: 0,
            known,
            neighbors,
        }
    }

    /// Vertices exactly on the given side's grid line.
    fn side_points(&self, side: usize) -> Vec<Point2> {
        let mut out = Vec::new();
        for v in 0..self.mesh.num_vertices() as u32 {
            if self.mesh.vflags(v).is(VFlags::SUPER) {
                continue;
            }
            let p = self.mesh.point(v);
            let on = match side {
                0 => p.x == self.cell.min.x,
                1 => p.x == self.cell.max.x,
                2 => p.y == self.cell.min.y,
                _ => p.y == self.cell.max.y,
            };
            if on && self.cell.contains(p) {
                out.push(p);
            }
        }
        out
    }

    /// Refine to the sizing field; returns newly created interface points
    /// per side (the split messages to send).
    pub fn refine_step(&mut self, workload: &Workload) -> [Vec<Point2>; SIDES] {
        let mut params = RefineParams::with_sizing(workload.sizing.field());
        params.min_edge_len = workload.sizing.min_size() * 0.05;
        self.settled = refine_since(&mut self.mesh, &params, self.settled).settled;
        let mut out: [Vec<Point2>; SIDES] = Default::default();
        for (side, out_side) in out.iter_mut().enumerate() {
            if self.neighbors[side].is_none() {
                continue;
            }
            for p in self.side_points(side) {
                if self.known.insert(key(p)) {
                    out_side.push(p);
                }
            }
        }
        out
    }

    /// Insert split points received from a neighbor. Returns how many were
    /// actually new (and therefore require a follow-up refinement).
    pub fn insert_splits(&mut self, pts: &[Point2]) -> usize {
        let mut inserted = 0;
        for &p in pts {
            if !self.known.insert(key(p)) {
                continue;
            }
            let mut f = VFlags(VFlags::STEINER);
            f.set(VFlags::BOUNDARY);
            if matches!(
                self.mesh.insert_point(p, f),
                pumg_delaunay::insert::InsertOutcome::Inserted(_)
            ) {
                inserted += 1;
            }
        }
        inserted
    }

    /// All interface points on a side (for conformity checks).
    pub fn interface_points(&self, side: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.side_points(side).into_iter().map(key).collect();
        v.sort_unstable();
        v
    }
}

/// Build the subdomain decomposition: grid cells meshed independently with
/// constrained interfaces; cells missing the domain are dropped.
pub fn build_subdomains(params: &PcdmParams) -> Vec<Subdomain> {
    let g = params.grid.max(1);
    let bb = params.workload.domain.bbox();
    let xs: Vec<f64> = (0..=g)
        .map(|i| bb.min.x + bb.width() * i as f64 / g as f64)
        .collect();
    let ys: Vec<f64> = (0..=g)
        .map(|j| bb.min.y + bb.height() * j as f64 / g as f64)
        .collect();

    let mut subs: Vec<Subdomain> = Vec::new();
    let mut cell_of = vec![usize::MAX; g * g];
    for j in 0..g {
        for i in 0..g {
            let cell = BBox::new(Point2::new(xs[i], ys[j]), Point2::new(xs[i + 1], ys[j + 1]));
            let Some(mesh) = mesh_region(&params.workload.domain, &cell) else {
                continue;
            };
            let mut sd = Subdomain {
                idx: subs.len(),
                cell,
                mesh,
                settled: 0,
                known: HashSet::new(),
                neighbors: [None; SIDES],
            };
            // Seed `known` with the initial border vertices (corners and
            // domain-boundary/grid-line intersections).
            for side in 0..SIDES {
                for p in sd.side_points(side) {
                    sd.known.insert(key(p));
                }
            }
            cell_of[j * g + i] = sd.idx;
            subs.push(sd);
        }
    }
    // Wire neighbor links (W, E, S, N).
    for j in 0..g {
        for i in 0..g {
            let c = cell_of[j * g + i];
            if c == usize::MAX {
                continue;
            }
            let get = |ii: i64, jj: i64| -> Option<usize> {
                if ii < 0 || jj < 0 || ii >= g as i64 || jj >= g as i64 {
                    return None;
                }
                let v = cell_of[jj as usize * g + ii as usize];
                (v != usize::MAX).then_some(v)
            };
            subs[c].neighbors = [
                get(i as i64 - 1, j as i64),
                get(i as i64 + 1, j as i64),
                get(i as i64, j as i64 - 1),
                get(i as i64, j as i64 + 1),
            ];
        }
    }
    subs
}

/// Run the in-core PCDM baseline.
pub fn pcdm_incore(
    params: &PcdmParams,
    pes: usize,
    mem_per_pe: u64,
) -> Result<MethodResult, MethodError> {
    pcdm_incore_scaled(params, pes, mem_per_pe, 1.0)
}

/// [`pcdm_incore`] with a virtual-time multiplier on measured compute (models
/// period-appropriate CPU speed so that disk/network/compute ratios match
/// the paper's platform; see DESIGN.md §3).
pub fn pcdm_incore_scaled(
    params: &PcdmParams,
    pes: usize,
    mem_per_pe: u64,
    compute_scale: f64,
) -> Result<MethodResult, MethodError> {
    let mut subs = build_subdomains(params);
    if subs.is_empty() {
        return Err(MethodError::BadWorkload(
            "no subdomains intersect domain".into(),
        ));
    }
    let mut sim = ClusterSim::new(pes, mem_per_pe, NetModel::cluster());
    sim.set_compute_scale(compute_scale);
    let pe_of = |idx: usize| idx % pes;
    let n = subs.len();
    let mut mem = vec![0u64; n];

    let mut dirty = vec![true; n];
    let mut inbox: Vec<Vec<Point2>> = vec![Vec::new(); n];
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > 200 {
            return Err(MethodError::BadWorkload("PCDM did not converge".into()));
        }
        let mut any = false;
        // Asynchronous refinement: each dirty subdomain refines on its PE
        // and fires aggregated split messages.
        for idx in 0..n {
            if !dirty[idx] {
                continue;
            }
            dirty[idx] = false;
            any = true;
            let wl = params.workload;
            let sd = &mut subs[idx];
            let splits = sim.run_on(pe_of(idx), || sd.refine_step(&wl));
            sim.free(mem[idx]);
            mem[idx] = subs[idx].mesh.mem_footprint() as u64;
            sim.alloc(mem[idx])?;
            for (side, pts) in splits.into_iter().enumerate() {
                if pts.is_empty() {
                    continue;
                }
                let Some(nb) = subs[idx].neighbors[side] else {
                    continue;
                };
                sim.send(pe_of(idx), pe_of(nb), point_batch_bytes(pts.len()));
                inbox[nb].extend(pts);
            }
        }
        // Deliver split messages.
        for idx in 0..n {
            if inbox[idx].is_empty() {
                continue;
            }
            any = true;
            let pts = std::mem::take(&mut inbox[idx]);
            let sd = &mut subs[idx];
            let inserted = sim.run_on(pe_of(idx), || sd.insert_splits(&pts));
            if inserted > 0 {
                dirty[idx] = true;
            }
        }
        if !any {
            break;
        }
    }

    let mut elements = 0u64;
    let mut vertices = 0u64;
    for sd in &subs {
        elements += sd.mesh.num_tris() as u64;
        vertices += count_verts(&sd.mesh);
    }
    Ok(MethodResult {
        elements,
        vertices,
        stats: sim.into_stats(),
    })
}

fn count_verts(mesh: &TriMesh) -> u64 {
    (0..mesh.num_vertices() as u32)
        .filter(|&v| !mesh.vflags(v).is(VFlags::SUPER))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(elements: u64, grid: usize) -> PcdmParams {
        PcdmParams::new(Workload::uniform_square(elements), grid)
    }

    #[test]
    fn build_wires_neighbors() {
        let subs = build_subdomains(&square(2000, 2));
        assert_eq!(subs.len(), 4);
        // Subdomain 0 (SW): E and N neighbors.
        assert_eq!(subs[0].neighbors, [None, Some(1), None, Some(2)]);
        assert_eq!(subs[3].neighbors, [Some(2), None, Some(1), None]);
        for sd in &subs {
            sd.mesh.validate().unwrap();
        }
    }

    #[test]
    fn interfaces_conform_after_run() {
        let params = square(4000, 3);
        let mut subs = build_subdomains(&params);
        // Emulate the run loop directly for checkable access.
        let mut dirty: Vec<bool> = vec![true; subs.len()];
        for _ in 0..50 {
            let mut inbox: Vec<Vec<Point2>> = vec![Vec::new(); subs.len()];
            let mut any = false;
            for idx in 0..subs.len() {
                if !std::mem::replace(&mut dirty[idx], false) {
                    continue;
                }
                any = true;
                let splits = subs[idx].refine_step(&params.workload);
                for (side, pts) in splits.into_iter().enumerate() {
                    if let Some(nb) = subs[idx].neighbors[side] {
                        inbox[nb].extend(pts);
                    }
                }
            }
            for idx in 0..subs.len() {
                let pts = std::mem::take(&mut inbox[idx]);
                if !pts.is_empty() && subs[idx].insert_splits(&pts) > 0 {
                    dirty[idx] = true;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        // Conformity: shared interfaces carry identical point sets.
        for idx in 0..subs.len() {
            for side in 0..SIDES {
                if let Some(nb) = subs[idx].neighbors[side] {
                    let opposite = match side {
                        0 => 1,
                        1 => 0,
                        2 => 3,
                        _ => 2,
                    };
                    assert_eq!(
                        subs[idx].interface_points(side),
                        subs[nb].interface_points(opposite),
                        "interface {idx}/{nb} does not conform"
                    );
                }
            }
        }
        for sd in &subs {
            sd.mesh.validate().unwrap();
        }
    }

    #[test]
    fn pcdm_produces_reasonable_mesh() {
        let params = square(4000, 2);
        let r = pcdm_incore(&params, 4, 1 << 30).unwrap();
        let est = params.workload.estimate_elements();
        assert!(
            (r.elements as f64) > 0.6 * est as f64 && (r.elements as f64) < 2.0 * est as f64,
            "elements {} vs estimate {est}",
            r.elements
        );
        assert!(r.stats.comm_pct() > 0.0, "split messages must be charged");
    }

    #[test]
    fn pcdm_on_pipe() {
        let params = PcdmParams::new(Workload::uniform_pipe(5000), 3);
        let r = pcdm_incore(&params, 4, 1 << 30).unwrap();
        let est = params.workload.estimate_elements();
        assert!(
            (r.elements as f64) > 0.5 * est as f64 && (r.elements as f64) < 2.0 * est as f64,
            "elements {} vs estimate {est}",
            r.elements
        );
    }

    #[test]
    fn pcdm_oom_detected() {
        let err = pcdm_incore(&square(40_000, 2), 2, 60_000).unwrap_err();
        assert!(matches!(err, MethodError::OutOfMemory { .. }));
    }

    #[test]
    fn split_insertion_is_idempotent() {
        let mut subs = build_subdomains(&square(1000, 2));
        let wl = Workload::uniform_square(1000);
        let splits = subs[0].refine_step(&wl);
        let east: Vec<Point2> = splits[1].clone();
        if !east.is_empty() {
            let first = subs[1].insert_splits(&east);
            assert!(first > 0);
            assert_eq!(subs[1].insert_splits(&east), 0, "duplicates are no-ops");
        }
    }
}
