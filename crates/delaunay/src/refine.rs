//! Ruppert-style Delaunay quality refinement.
//!
//! The refinement loop maintains two work queues:
//!
//! * **encroached segments** — a constrained segment whose diametral circle
//!   strictly contains a vertex is split at its midpoint (and the halves
//!   re-checked recursively);
//! * **bad triangles** — skinny (circumradius-to-shortest-edge ratio above
//!   the bound) or oversized (circumradius above the sizing field)
//!   triangles get their circumcenter inserted. If the circumcenter would
//!   *encroach* a segment (it lies inside the segment's diametral circle,
//!   discovered by examining the constrained edges bounding the insertion
//!   cavity), the segment is split instead and the circumcenter rejected —
//!   Ruppert's rule, which is what makes the process terminate.
//!
//! An optional **region predicate** restricts insertions to a subset of the
//! domain: insertion points outside the region are skipped and their
//! triangles left bad. This is the primitive the parallel methods build on —
//! a UPDR block or an NUPDR quadtree leaf refines only the points it owns,
//! and the remaining bad triangles are someone else's work.

use crate::insert::InsertOutcome;
use crate::locate::{Location, WalkMode};
use crate::mesh::{EdgeRef, TId, TriMesh, VFlags, VId, NO_TRI};
use crate::sizing::SizingField;
use pumg_geometry::{circumcenter, shortest_edge_sq, Point2};

/// Parameters of a refinement pass.
#[derive(Clone, Debug)]
pub struct RefineParams {
    /// Maximum circumradius-to-shortest-edge ratio ρ; √2 guarantees a
    /// minimum angle of ≈ 20.7° and termination on domains without acute
    /// input angles.
    pub max_ratio: f64,
    /// Target element size over the domain.
    pub sizing: SizingField,
    /// Safety floor: no edge shorter than this is ever created. Guards
    /// against run-away refinement near small input angles.
    pub min_edge_len: f64,
    /// Hard cap on insertions per pass (guard against pathologies).
    pub max_inserted: usize,
}

impl RefineParams {
    /// Uniform sizing with the default quality bound.
    pub fn with_uniform_size(h: f64) -> Self {
        RefineParams {
            max_ratio: std::f64::consts::SQRT_2,
            sizing: SizingField::Uniform(h),
            min_edge_len: h * 1e-3,
            max_inserted: usize::MAX,
        }
    }

    /// Given sizing field, default quality bound, and a floor derived from
    /// the field's minimum size.
    pub fn with_sizing(sizing: SizingField) -> Self {
        let floor = (sizing.min_size() * 1e-3).max(1e-12);
        RefineParams {
            max_ratio: std::f64::consts::SQRT_2,
            sizing,
            min_edge_len: floor,
            max_inserted: usize::MAX,
        }
    }
}

/// Outcome of a refinement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Steiner points inserted (circumcenters).
    pub inserted: usize,
    /// Constrained segments split (midpoint insertions).
    pub seg_splits: usize,
    /// Insertions skipped because the point fell outside the active region.
    pub skipped_region: usize,
    /// Splits/insertions skipped by the minimum-edge-length floor.
    pub skipped_min_len: usize,
    /// Bad triangles remaining at the end of the pass (0 unless a region
    /// restriction or a cap stopped the pass early).
    pub remaining_bad: usize,
    /// Watermark for a follow-up [`refine_since`]: the mesh's vertex count
    /// at the end of a pass that left nothing undone — every triangle
    /// good, no split skipped or abandoned, the cap not hit — and 0
    /// otherwise (the follow-up must then look at everything).
    pub settled: VId,
}

impl RefineReport {
    /// Total points this pass added to the mesh.
    pub fn points_added(&self) -> usize {
        self.inserted + self.seg_splits
    }
}

/// Refine the whole mesh; see [`refine_region`].
pub fn refine(mesh: &mut TriMesh, params: &RefineParams) -> RefineReport {
    run(mesh, params, |_| true, 0)
}

/// Refine the mesh, inserting only points that satisfy `allow`.
///
/// Returns a report; `remaining_bad > 0` means triangles are still bad but
/// could not be fixed within the region/caps.
pub fn refine_region(
    mesh: &mut TriMesh,
    params: &RefineParams,
    allow: impl Fn(Point2) -> bool,
) -> RefineReport {
    run(mesh, params, allow, 0)
}

/// [`refine`] for a mesh that an earlier pass with the same `params` left
/// settled and that has since only had points *inserted*: looks only at
/// the triangles incident to a vertex `>= since`, where `since` is that
/// pass's [`RefineReport::settled`].
///
/// Every triangle an insertion creates or rewrites contains the inserted
/// vertex, so these are exactly the triangles that changed; all others
/// were good then and are the same triangles now, and a good triangle is a
/// no-op on the work stack. Seeding the changed ones in the same
/// ascending-id order therefore processes the same bad triangles in the
/// same sequence and inserts the same Steiner points as a full pass —
/// the result is identical bit for bit. `since == 0` *is* the full pass.
pub fn refine_since(mesh: &mut TriMesh, params: &RefineParams, since: VId) -> RefineReport {
    run(mesh, params, |_| true, since)
}

/// One unit of refinement work.
enum Work {
    /// Re-examine a triangle; the vertex key detects stale entries.
    Tri(TId, [VId; 3]),
    /// Re-check a segment for encroachment; keyed by its endpoints.
    Seg(EdgeRef, (VId, VId)),
}

struct Pass<'a, F: Fn(Point2) -> bool> {
    params: &'a RefineParams,
    allow: F,
    min_len_sq: f64,
    work: Vec<Work>,
    /// Scratch for [`Pass::find_encroached_by`]: the would-be cavity.
    cavity: Vec<TId>,
    /// Scratch for [`Pass::push_star`].
    star: Vec<TId>,
    /// A wanted segment split was abandoned for a reason no counter records.
    abandoned_split: bool,
    report: RefineReport,
}

/// Does `t` have a vertex created at or after the watermark?
#[inline]
fn touched(mesh: &TriMesh, t: TId, since: VId) -> bool {
    mesh.tri(t).v.iter().any(|&v| v >= since)
}

fn run(
    mesh: &mut TriMesh,
    params: &RefineParams,
    allow: impl Fn(Point2) -> bool,
    since: VId,
) -> RefineReport {
    let mut pass = Pass {
        params,
        allow,
        min_len_sq: params.min_edge_len * params.min_edge_len,
        work: Vec::new(),
        cavity: Vec::new(),
        star: Vec::new(),
        abandoned_split: false,
        report: RefineReport::default(),
    };
    debug_assert!(
        mesh.tri_ids()
            .all(|t| touched(mesh, t, since) || pass.bad_circumcenter(mesh, t).is_none()),
        "refine_since: a triangle older than the watermark is bad"
    );

    // Seed in ascending id order: each changed triangle that is bad (a good
    // one would be popped, measured and dropped — or be stale by then),
    // then its segments. A segment is also seeded from its unchanged side
    // when the triangle across it changed: the new apex may encroach it.
    for t in mesh.tri_ids() {
        let tri = mesh.tri(t);
        let changed = touched(mesh, t, since);
        if changed && pass.bad_circumcenter(mesh, t).is_some() {
            pass.work.push(Work::Tri(t, tri.v));
        }
        if tri.constrained == 0 {
            continue;
        }
        for e in 0..3 {
            let across = tri.nbr[e];
            if tri.is_constrained(e)
                && (changed || (across != NO_TRI && touched(mesh, across, since)))
            {
                let er = EdgeRef { t, e };
                pass.work.push(Work::Seg(er, mesh.edge_verts(er)));
            }
        }
    }

    let mut capped = false;
    while let Some(w) = pass.work.pop() {
        if pass.report.points_added() >= params.max_inserted {
            capped = true;
            break;
        }
        match w {
            Work::Seg(er, key) => pass.process_segment(mesh, er, key),
            Work::Tri(t, key) => pass.process_triangle(mesh, t, key),
        }
    }

    // Count what is still bad (for region-restricted or capped passes).
    for t in mesh.tri_ids() {
        if touched(mesh, t, since) && pass.bad_circumcenter(mesh, t).is_some() {
            pass.report.remaining_bad += 1;
        }
    }
    let r = &mut pass.report;
    let nothing_undone = !capped
        && !pass.abandoned_split
        && r.remaining_bad == 0
        && r.skipped_region == 0
        && r.skipped_min_len == 0;
    if nothing_undone {
        r.settled = mesh.num_vertices() as VId;
    }
    pass.report
}

impl<F: Fn(Point2) -> bool> Pass<'_, F> {
    /// The circumcenter and squared shortest edge of `t` if it is bad —
    /// skinny, or oversized at its circumcenter; `None` for a good (or
    /// exactly degenerate, hence unactionable) triangle. The circumcenter
    /// is computed once; the tests are
    /// [`TriangleQuality`](pumg_geometry::TriangleQuality)'s, on the same
    /// squared quantities.
    #[inline]
    fn bad_circumcenter(&self, mesh: &TriMesh, t: TId) -> Option<(Point2, f64)> {
        let [a, b, c] = mesh.tri_points(t);
        let cc = circumcenter(a, b, c)?;
        let r2 = cc.dist_sq(a);
        let e2 = shortest_edge_sq(a, b, c);
        let ratio_sq = if e2 > 0.0 { r2 / e2 } else { f64::INFINITY };
        let max_ratio = self.params.max_ratio;
        let size = self.params.sizing.size_at(cc);
        let skinny = ratio_sq > max_ratio * max_ratio;
        let oversized = r2 > size * size;
        (skinny || oversized).then_some((cc, e2))
    }

    /// Is the segment `er` still present with the same endpoints?
    fn seg_is_current(&self, mesh: &TriMesh, er: EdgeRef, key: (VId, VId)) -> bool {
        mesh.is_alive(er.t) && mesh.tri(er.t).is_constrained(er.e) && mesh.edge_verts(er) == key
    }

    /// A segment is encroached iff the apex of an adjacent triangle lies
    /// strictly inside its diametral circle. (In a CDT this is equivalent
    /// to "some visible vertex encroaches".)
    fn seg_encroached(&self, mesh: &TriMesh, er: EdgeRef) -> bool {
        let (a, b) = mesh.edge_verts(er);
        let (pa, pb) = (mesh.point(a), mesh.point(b));
        let apex_inside = |t: TId, e: usize| {
            let v = mesh.tri(t).v[e];
            let pv = mesh.point(v);
            (pa - pv).dot(pb - pv) < 0.0
        };
        if apex_inside(er.t, er.e) {
            return true;
        }
        if let Some(tw) = mesh.twin(er) {
            if apex_inside(tw.t, tw.e) {
                return true;
            }
        }
        false
    }

    fn process_segment(&mut self, mesh: &mut TriMesh, er: EdgeRef, key: (VId, VId)) {
        if !self.seg_is_current(mesh, er, key) {
            return;
        }
        if !self.seg_encroached(mesh, er) {
            return;
        }
        self.split_segment(mesh, er);
    }

    /// Split segment `er` at its midpoint (subject to region/floor), then
    /// queue the halves for re-checking. Returns the new vertex.
    fn split_segment(&mut self, mesh: &mut TriMesh, er: EdgeRef) -> Option<VId> {
        let (a, b) = mesh.edge_verts(er);
        let (pa, pb) = (mesh.point(a), mesh.point(b));
        if pa.dist_sq(pb) < 4.0 * self.min_len_sq {
            self.report.skipped_min_len += 1;
            return None;
        }
        let mid = pa.midpoint(pb);
        if mid == pa || mid == pb {
            self.abandoned_split = true;
            return None;
        }
        if !(self.allow)(mid) {
            self.report.skipped_region += 1;
            return None;
        }
        let mut flags = VFlags(VFlags::STEINER);
        flags.set(VFlags::BOUNDARY);
        // The f64 midpoint is usually an ulp off the exact segment line;
        // `insert_at_location` splits the edge when the point is strictly
        // inside the edge's quad (exact pre-check) and falls back to a
        // plain insertion or a no-op in degenerate neighborhoods.
        match mesh.insert_at_location(mid, Location::OnEdge(er), flags) {
            InsertOutcome::Inserted(v) => {
                self.report.seg_splits += 1;
                self.push_star(mesh, v);
                Some(v)
            }
            _ => {
                self.abandoned_split = true;
                None
            }
        }
    }

    fn process_triangle(&mut self, mesh: &mut TriMesh, t: TId, key: [VId; 3]) {
        if !mesh.is_alive(t) || mesh.tri(t).v != key {
            return;
        }
        let Some((cc, shortest_edge_sq)) = self.bad_circumcenter(mesh, t) else {
            return;
        };
        if shortest_edge_sq < self.min_len_sq {
            self.report.skipped_min_len += 1;
            return;
        }

        // Walk toward the circumcenter without crossing segments.
        let loc = mesh.locate_from(cc, t, WalkMode::StopAtConstrained);
        let requeue_and_split = |this: &mut Self, mesh: &mut TriMesh, seg: EdgeRef| {
            if this.split_segment(mesh, seg).is_some() && mesh.is_alive(t) && mesh.tri(t).v == key {
                this.work.push(Work::Tri(t, key));
            }
        };
        match loc {
            Location::Outside(er) => {
                // Blocked by a constrained segment: the circumcenter is
                // hidden behind it — split the segment.
                if mesh.is_alive(er.t) && mesh.tri(er.t).is_constrained(er.e) {
                    requeue_and_split(self, mesh, er);
                }
                // Otherwise the walk left through the unconstrained hull:
                // drop the triangle.
            }
            Location::OnEdge(er) if mesh.tri(er.t).is_constrained(er.e) => {
                // The circumcenter lands exactly on a segment: that segment
                // is encroached; split at *its midpoint* (not at cc).
                requeue_and_split(self, mesh, er);
            }
            Location::OnVertex(..) => {
                // Circumcenter coincides with an existing vertex: nothing
                // useful to insert.
            }
            Location::Inside(_) | Location::OnEdge(_) => {
                // Ruppert's rule: if cc encroaches any segment bounding its
                // insertion cavity, split that segment instead.
                if let Some(seg) = self.find_encroached_by(mesh, cc, loc) {
                    requeue_and_split(self, mesh, seg);
                    return;
                }
                if !(self.allow)(cc) {
                    self.report.skipped_region += 1;
                    return;
                }
                match mesh.insert_at_location(cc, loc, VFlags(VFlags::STEINER)) {
                    InsertOutcome::Inserted(v) => {
                        self.report.inserted += 1;
                        self.push_star(mesh, v);
                        if mesh.is_alive(t) && mesh.tri(t).v == key {
                            self.work.push(Work::Tri(t, key));
                        }
                    }
                    InsertOutcome::Duplicate(_) | InsertOutcome::Outside => {}
                }
            }
        }
    }

    /// Compute the would-be insertion cavity of `cc` (triangles whose
    /// circumcircle contains `cc`, flood-filled without crossing
    /// constraints) and return the first constrained boundary edge whose
    /// diametral circle strictly contains `cc`. The cavity is a handful of
    /// triangles, so membership is a linear scan of the scratch buffer.
    fn find_encroached_by(&mut self, mesh: &TriMesh, cc: Point2, loc: Location) -> Option<EdgeRef> {
        use pumg_geometry::incircle;
        let seed = match loc {
            Location::Inside(t) => t,
            Location::OnEdge(er) => er.t,
            _ => return None,
        };
        self.cavity.clear();
        self.cavity.push(seed);
        let mut i = 0;
        while i < self.cavity.len() {
            let t = self.cavity[i];
            i += 1;
            let tri = *mesh.tri(t);
            for e in 0..3 {
                let n = tri.nbr[e];
                if tri.is_constrained(e) {
                    // Constrained cavity boundary: the encroachment test.
                    let (a, b) = mesh.edge_verts(EdgeRef { t, e });
                    let (pa, pb) = (mesh.point(a), mesh.point(b));
                    if (pa - cc).dot(pb - cc) < 0.0 {
                        return Some(EdgeRef { t, e });
                    }
                    continue;
                }
                if n == NO_TRI || self.cavity.contains(&n) {
                    continue;
                }
                let [x, y, z] = mesh.tri_points(n);
                if incircle(x, y, z, cc) > 0 {
                    self.cavity.push(n);
                }
            }
        }
        None
    }

    /// Queue every triangle incident to `v`, and every constrained edge of
    /// those triangles (the new vertex may encroach nearby segments).
    fn push_star(&mut self, mesh: &TriMesh, v: VId) {
        let start = if mesh.is_alive(mesh.hint) && mesh.tri(mesh.hint).index_of(v).is_some() {
            mesh.hint
        } else {
            match mesh.any_tri_with_vertex(v) {
                Some(t) => t,
                None => return,
            }
        };
        mesh.star_into(v, start, &mut self.star);
        for &t in &self.star {
            self.work.push(Work::Tri(t, mesh.tri(t).v));
            for e in 0..3 {
                if mesh.tri(t).is_constrained(e) {
                    let er = EdgeRef { t, e };
                    self.work.push(Work::Seg(er, mesh.edge_verts(er)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MeshBuilder;

    fn min_angle_deg(mesh: &TriMesh) -> f64 {
        let mut min_angle = f64::INFINITY;
        for t in mesh.tri_ids() {
            let [a, b, c] = mesh.tri_points(t);
            for (u, v, w) in [(a, b, c), (b, c, a), (c, a, b)] {
                let e1 = v - u;
                let e2 = w - u;
                let angle = (e1.dot(e2) / (e1.norm() * e2.norm()))
                    .clamp(-1.0, 1.0)
                    .acos()
                    .to_degrees();
                min_angle = min_angle.min(angle);
            }
        }
        min_angle
    }

    #[test]
    fn refine_unit_square_uniform() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        let params = RefineParams::with_uniform_size(0.1);
        let report = refine(&mut mesh, &params);
        assert!(report.inserted > 10, "report: {report:?}");
        assert_eq!(report.remaining_bad, 0, "report: {report:?}");
        assert_eq!(report.skipped_min_len, 0, "report: {report:?}");
        mesh.validate().unwrap();
        mesh.validate_delaunay().unwrap();
        assert!((mesh.total_area() - 1.0).abs() < 1e-9);
        // Quality: minimum angle over all triangles must respect the bound
        // (ρ ≤ √2 ⇒ min angle ≥ ~20.7°).
        assert!(
            min_angle_deg(&mesh) > 20.0,
            "min angle {}",
            min_angle_deg(&mesh)
        );
    }

    #[test]
    fn finer_sizing_means_more_triangles() {
        let coarse = {
            let mut m = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
            refine(&mut m, &RefineParams::with_uniform_size(0.2));
            m.num_tris()
        };
        let fine = {
            let mut m = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
            refine(&mut m, &RefineParams::with_uniform_size(0.05));
            m.num_tris()
        };
        assert!(
            fine > 4 * coarse,
            "expected ~16x more triangles; coarse={coarse} fine={fine}"
        );
    }

    #[test]
    fn refine_respects_sizes() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 1.0).build().unwrap();
        let h = 0.15;
        refine(&mut mesh, &RefineParams::with_uniform_size(h));
        for t in mesh.tri_ids() {
            let [a, b, c] = mesh.tri_points(t);
            let r2 = pumg_geometry::circumradius_sq(a, b, c);
            assert!(
                r2 <= h * h * (1.0 + 1e-9),
                "triangle {t} circumradius {} exceeds h={h}",
                r2.sqrt()
            );
        }
    }

    #[test]
    fn graded_refinement_varies_density() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 4.0, 4.0).build().unwrap();
        let sizing = SizingField::RadialGraded {
            center: pumg_geometry::Point2::new(0.0, 0.0),
            h_min: 0.05,
            h_max: 0.8,
            radius: 6.0,
        };
        refine(&mut mesh, &RefineParams::with_sizing(sizing));
        mesh.validate().unwrap();
        // Density near the origin must exceed density far away: compare
        // smallest triangle near corner (0,0) vs near (4,4).
        let mut near = f64::INFINITY;
        let mut far = f64::INFINITY;
        for t in mesh.tri_ids() {
            let cen = mesh.centroid(t);
            let [a, b, c] = mesh.tri_points(t);
            let area = pumg_geometry::triangle_area2(a, b, c) * 0.5;
            if cen.dist(pumg_geometry::Point2::new(0.0, 0.0)) < 1.0 {
                near = near.min(area);
            }
            if cen.dist(pumg_geometry::Point2::new(4.0, 4.0)) < 1.0 {
                far = far.min(area);
            }
        }
        assert!(
            near < far / 4.0,
            "graded mesh should be denser near origin: near={near} far={far}"
        );
    }

    #[test]
    fn region_restriction_leaves_outside_bad() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 1.0).build().unwrap();
        let params = RefineParams::with_uniform_size(0.08);
        // Only refine the left part (the initial circumcenters sit exactly
        // on x = 1.0, so put the region boundary off that line).
        let report = refine_region(&mut mesh, &params, |p| p.x < 1.25);
        assert!(report.inserted > 0);
        assert!(report.skipped_region > 0, "report {report:?}");
        assert!(report.remaining_bad > 0, "right half must still be bad");
        mesh.validate().unwrap();
        // Now finish the job with a full pass.
        let report2 = refine(&mut mesh, &params);
        assert_eq!(report2.remaining_bad, 0);
        mesh.validate().unwrap();
    }

    #[test]
    fn max_inserted_cap_stops_early() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        let mut params = RefineParams::with_uniform_size(0.02);
        params.max_inserted = 10;
        let report = refine(&mut mesh, &params);
        assert!(report.points_added() <= 10);
        assert!(report.remaining_bad > 0);
        mesh.validate().unwrap();
    }

    #[test]
    fn refinement_is_deterministic() {
        let run = || {
            let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
            refine(&mut mesh, &RefineParams::with_uniform_size(0.07));
            (mesh.num_tris(), mesh.num_vertices())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn domain_with_hole_refines() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 4.0, 4.0)
            .with_circular_hole(pumg_geometry::Point2::new(2.0, 2.0), 1.0, 16)
            .build()
            .unwrap();
        let area_before = mesh.total_area();
        let report = refine(&mut mesh, &RefineParams::with_uniform_size(0.25));
        assert!(report.inserted > 0);
        assert_eq!(report.remaining_bad, 0);
        mesh.validate().unwrap();
        // Hole must not get meshed over: area unchanged by refinement.
        assert!((mesh.total_area() - area_before).abs() < 1e-9);
    }

    #[test]
    fn pipe_cross_section_refines_cleanly() {
        let mut mesh =
            MeshBuilder::pipe_cross_section(pumg_geometry::Point2::new(0.0, 0.0), 2.0, 0.5, 32)
                .build()
                .unwrap();
        let report = refine(&mut mesh, &RefineParams::with_uniform_size(0.15));
        assert_eq!(report.remaining_bad, 0, "{report:?}");
        mesh.validate().unwrap();
        mesh.validate_delaunay().unwrap();
        assert!(min_angle_deg(&mesh) > 20.0);
    }
}
