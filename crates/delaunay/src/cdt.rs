//! Constrained Delaunay operations: segment insertion and exterior carving.
//!
//! [`TriMesh::insert_segment`] forces an edge between two existing vertices
//! by removing the triangles the segment crosses and retriangulating the two
//! resulting pseudo-polygons with the classic recursive algorithm (Anglada).
//! Segments that pass exactly through vertices are split recursively at
//! those vertices.
//!
//! [`TriMesh::carve_exterior`] removes everything outside the domain: a
//! flood fill seeded at the super-box corners (and at user-provided hole
//! seeds) that never crosses a constrained edge.

use crate::mesh::{EdgeRef, TId, TriMesh, VId, NO_TRI};
use pumg_geometry::{incircle, orient2d, Orientation, Point2};
use std::collections::HashMap;

/// Errors from segment insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// The two endpoints are the same vertex.
    DegenerateSegment,
    /// The segment crosses an existing constrained segment.
    CrossesConstraint,
    /// An endpoint is not part of any live triangle.
    DanglingEndpoint,
}

impl TriMesh {
    /// All live triangles incident to vertex `v`, starting the rotation at
    /// `start` (which must contain `v`). Works for interior and boundary
    /// stars.
    pub fn star_of(&self, v: VId, start: TId) -> Vec<TId> {
        let mut out = Vec::with_capacity(8);
        self.star_into(v, start, &mut out);
        out
    }

    /// [`TriMesh::star_of`] into a caller-owned buffer (cleared first), so
    /// hot loops reuse one allocation.
    pub fn star_into(&self, v: VId, start: TId, out: &mut Vec<TId>) {
        debug_assert!(self.is_alive(start));
        debug_assert!(self.tri(start).index_of(v).is_some());
        out.clear();
        // Rotate CCW: cross the edge opposite v[(i+1)%3] (the edge that
        // contains v and the previous vertex).
        let mut t = start;
        loop {
            out.push(t);
            let tri = self.tri(t);
            let i = tri.index_of(v).expect("every triangle of v's star has v");
            let n = tri.nbr[(i + 1) % 3];
            if n == NO_TRI {
                break;
            }
            if n == start {
                return; // full cycle
            }
            t = n;
        }
        // Hit the hull: rotate the other way from start.
        let mut t = start;
        loop {
            let tri = self.tri(t);
            let i = tri.index_of(v).expect("every triangle of v's star has v");
            let n = tri.nbr[(i + 2) % 3];
            if n == NO_TRI {
                break;
            }
            debug_assert_ne!(n, start, "star should have closed the cycle");
            out.push(n);
            t = n;
        }
    }

    /// Force the segment `va`–`vb` into the triangulation as a constrained
    /// edge (splitting at any vertices the segment passes through).
    pub fn insert_segment(&mut self, va: VId, vb: VId) -> Result<(), SegmentError> {
        if va == vb {
            return Err(SegmentError::DegenerateSegment);
        }
        let start = self
            .any_tri_with_vertex(va)
            .ok_or(SegmentError::DanglingEndpoint)?;

        // Fast path: the edge already exists.
        if let Some(er) = self.find_directed_edge(va, vb, start) {
            self.constrain_edge(er);
            return Ok(());
        }

        let pa = self.point(va);
        let pb = self.point(vb);

        // Find how the segment leaves va's star.
        let mut entry: Option<EdgeRef> = None;
        let mut through: Option<VId> = None;
        for t in self.star_of(va, start) {
            let tri = self.tri(t);
            let i = tri
                .index_of(va)
                .expect("every triangle of va's star has va");
            let x = tri.v[(i + 1) % 3];
            let y = tri.v[(i + 2) % 3];
            let px = self.point(x);
            let py = self.point(y);
            let ox = orient2d(pa, pb, px);
            let oy = orient2d(pa, pb, py);
            if ox == Orientation::Collinear && (px - pa).dot(pb - pa) > 0.0 {
                through = Some(x);
                break;
            }
            if oy == Orientation::Collinear && (py - pa).dot(pb - pa) > 0.0 {
                through = Some(y);
                break;
            }
            // In the CCW triangle (va, x, y) the outgoing direction lies in
            // the wedge iff x is to its right and y to its left.
            if ox == Orientation::Clockwise && oy == Orientation::CounterClockwise {
                entry = Some(EdgeRef { t, e: i });
                break;
            }
        }

        if let Some(w) = through {
            // Segment passes through vertex w: recurse on the two halves.
            self.insert_segment(va, w)?;
            return self.insert_segment(w, vb);
        }

        let entry = entry.ok_or(SegmentError::DanglingEndpoint)?;
        let stopped_at = self.march_and_retriangulate(va, vb, entry)?;
        if stopped_at != vb {
            // The march hit a collinear vertex: continue from there.
            return self.insert_segment(stopped_at, vb);
        }
        Ok(())
    }

    /// Mark the (interior or hull) edge constrained on both sides.
    fn constrain_edge(&mut self, er: EdgeRef) {
        self.tri_mut(er.t).set_constrained(er.e, true);
        if let Some(tw) = self.twin(er) {
            self.tri_mut(tw.t).set_constrained(tw.e, true);
        }
    }

    /// March the cavity crossed by segment `va → vb` starting through edge
    /// `entry` (the edge of va's star triangle opposite va), remove it, and
    /// retriangulate. Returns the vertex at which the constrained edge ends
    /// (normally `vb`, or an intermediate collinear vertex).
    fn march_and_retriangulate(
        &mut self,
        va: VId,
        vb: VId,
        entry: EdgeRef,
    ) -> Result<VId, SegmentError> {
        let pa = self.point(va);
        let pb = self.point(vb);

        let mut removed: Vec<TId> = vec![entry.t];
        // The entry edge runs x0 → y0 with x0 right of the segment and y0
        // left of it (see the wedge test above).
        let (x0, y0) = self.edge_verts(entry);
        let mut upper: Vec<VId> = vec![y0]; // strictly left of a→b
        let mut lower: Vec<VId> = vec![x0]; // strictly right of a→b
        let mut end = vb;
        let mut er = entry; // crossed edge, seen from the last removed tri

        loop {
            if self.tri(er.t).is_constrained(er.e) {
                return Err(SegmentError::CrossesConstraint);
            }
            let tw = self.twin(er).ok_or(SegmentError::CrossesConstraint)?;
            let n = tw.t;
            removed.push(n);
            let w = self.tri(n).v[tw.e];
            if w == vb {
                break;
            }
            let pw = self.point(w);
            match orient2d(pa, pb, pw) {
                Orientation::Collinear => {
                    // The segment passes through w: stop the cavity here.
                    end = w;
                    break;
                }
                Orientation::CounterClockwise => {
                    // w joins the upper chain; exit through edge (w, last
                    // lower vertex).
                    let y_cur = *lower.last().expect("the lower chain starts at x0");
                    upper.push(w);
                    let e = self
                        .find_edge(n, w, y_cur)
                        .expect("exit edge must exist in crossed triangle");
                    er = EdgeRef { t: n, e };
                }
                Orientation::Clockwise => {
                    let x_cur = *upper.last().expect("the upper chain starts at y0");
                    lower.push(w);
                    let e = self
                        .find_edge(n, x_cur, w)
                        .expect("exit edge must exist in crossed triangle");
                    er = EdgeRef { t: n, e };
                }
            }
        }

        // Collect the hole boundary: for every removed triangle, each edge
        // whose neighbor is not removed is a boundary edge. Key by the
        // directed edge as seen from inside the hole.
        let removed_set: std::collections::HashSet<TId> = removed.iter().copied().collect();
        let mut outer: HashMap<(VId, VId), (TId, usize, bool)> = HashMap::new();
        for &t in &removed {
            let tri = *self.tri(t);
            for e in 0..3 {
                let n = tri.nbr[e];
                if n != NO_TRI && removed_set.contains(&n) {
                    continue;
                }
                let (a, b) = self.edge_verts(EdgeRef { t, e });
                let rec = if n == NO_TRI {
                    (NO_TRI, 0, tri.is_constrained(e))
                } else {
                    let j = self
                        .tri(n)
                        .nbr_index_of(t)
                        .expect("boundary neighbor must be mutual");
                    (n, j, tri.is_constrained(e))
                };
                outer.insert((a, b), rec);
            }
        }

        for &t in &removed {
            self.remove_tri(t);
        }

        // Retriangulate the two pseudo-polygons. `pending` pairs up the
        // interior edges of the new triangles.
        let mut pending: HashMap<(VId, VId), (TId, usize)> = HashMap::new();
        self.fill_pseudo_polygon(va, end, &upper, &outer, &mut pending);
        let mut lower_rev = lower.clone();
        lower_rev.reverse();
        self.fill_pseudo_polygon(end, va, &lower_rev, &outer, &mut pending);
        debug_assert!(
            pending.len() == 1 || pending.is_empty(),
            "only the base edge may remain pending: {pending:?}"
        );

        // Constrain the new base edge va–end.
        let start = self
            .any_tri_with_vertex(va)
            .expect("va still has triangles");
        let er = self
            .find_directed_edge(va, end, start)
            .expect("base edge must exist after retriangulation");
        self.constrain_edge(er);
        self.hint = er.t;
        Ok(end)
    }

    /// Recursively triangulate the pseudo-polygon left of the base edge
    /// `a → b` with the ordered chain `chain` (vertices from a-side to
    /// b-side). Registers created edges in `pending` and links hole
    /// boundary edges through `outer`.
    fn fill_pseudo_polygon(
        &mut self,
        a: VId,
        b: VId,
        chain: &[VId],
        outer: &HashMap<(VId, VId), (TId, usize, bool)>,
        pending: &mut HashMap<(VId, VId), (TId, usize)>,
    ) {
        if chain.is_empty() {
            return;
        }
        // Pick c: no other chain vertex inside circumcircle(a, b, c).
        let pa = self.point(a);
        let pb = self.point(b);
        let mut ci = 0usize;
        for (j, &w) in chain.iter().enumerate().skip(1) {
            let pc = self.point(chain[ci]);
            if incircle(pa, pb, pc, self.point(w)) > 0 {
                ci = j;
            }
        }
        let c = chain[ci];

        let t = self.add_tri([a, b, c]);
        // Edges of [a, b, c]: e0 = b→c, e1 = c→a, e2 = a→b.
        self.wire_polygon_edge(t, 2, a, b, outer, pending);
        self.wire_polygon_edge(t, 0, b, c, outer, pending);
        self.wire_polygon_edge(t, 1, c, a, outer, pending);

        self.fill_pseudo_polygon(a, c, &chain[..ci], outer, pending);
        self.fill_pseudo_polygon(c, b, &chain[ci + 1..], outer, pending);
    }

    /// Link edge `e` of new triangle `t` (directed `x → y`): to the outside
    /// mesh if `(x, y)` is a hole boundary edge, to a previously created
    /// triangle if the twin is pending, else leave it pending.
    fn wire_polygon_edge(
        &mut self,
        t: TId,
        e: usize,
        x: VId,
        y: VId,
        outer: &HashMap<(VId, VId), (TId, usize, bool)>,
        pending: &mut HashMap<(VId, VId), (TId, usize)>,
    ) {
        if let Some(&(n, j, constrained)) = outer.get(&(x, y)) {
            self.tri_mut(t).set_constrained(e, constrained);
            if n == NO_TRI {
                self.set_nbr(t, e, NO_TRI);
            } else {
                self.link(t, e, n, j);
            }
            return;
        }
        if let Some((u, f)) = pending.remove(&(y, x)) {
            self.link(t, e, u, f);
            return;
        }
        pending.insert((x, y), (t, e));
    }

    /// Remove all triangles reachable from the super-box vertices and the
    /// `hole_seeds` without crossing a constrained edge. Returns the number
    /// of triangles removed.
    pub fn carve_exterior(&mut self, hole_seeds: &[Point2]) -> usize {
        use crate::locate::Location;
        use crate::mesh::VFlags;

        let mut queue: Vec<TId> = Vec::new();
        let mut dead: Vec<bool> = vec![false; self.arena_len()];

        for t in self.tri_ids() {
            if self.touches_super(t) {
                queue.push(t);
            }
        }
        for &seed in hole_seeds {
            match self.locate(seed) {
                Location::Inside(t) => queue.push(t),
                Location::OnEdge(er) => {
                    queue.push(er.t);
                    if let Some(tw) = self.twin(er) {
                        queue.push(tw.t);
                    }
                }
                Location::OnVertex(t, _) => queue.push(t),
                Location::Outside(_) => {}
            }
        }

        let mut marked = Vec::new();
        while let Some(t) = queue.pop() {
            if dead[t as usize] {
                continue;
            }
            dead[t as usize] = true;
            marked.push(t);
            let tri = *self.tri(t);
            for e in 0..3 {
                if tri.is_constrained(e) {
                    continue;
                }
                let n = tri.nbr[e];
                if n != NO_TRI && !dead[n as usize] {
                    queue.push(n);
                }
            }
        }

        // Unlink survivors from the removed region, then free.
        for &t in &marked {
            let tri = *self.tri(t);
            for e in 0..3 {
                let n = tri.nbr[e];
                if n != NO_TRI && !dead[n as usize] {
                    if let Some(j) = self.tri(n).nbr_index_of(t) {
                        self.set_nbr(n, j, NO_TRI);
                    }
                }
            }
        }
        let count = marked.len();
        for t in marked {
            self.remove_tri(t);
        }

        // Mark boundary vertices: endpoints of constrained edges.
        let ids: Vec<TId> = self.tri_ids().collect();
        for t in ids {
            for e in 0..3 {
                if self.tri(t).is_constrained(e) {
                    let (a, b) = self.edge_verts(EdgeRef { t, e });
                    self.vflags_mut(a).set(VFlags::BOUNDARY);
                    self.vflags_mut(b).set(VFlags::BOUNDARY);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::VFlags;
    use pumg_geometry::Point2;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// A triangulated fan with a handful of random interior points, built
    /// via the insertion machinery.
    fn populated_square(n: usize, seed: u64) -> (TriMesh, Vec<VId>) {
        use rand::{Rng, SeedableRng};
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(8.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(8.0, 8.0), VFlags::default());
        let d = m.add_vertex(p(0.0, 8.0), VFlags::default());
        let t0 = m.add_tri([a, b, c]);
        let t1 = m.add_tri([a, c, d]);
        m.link(t0, 1, t1, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut vs = vec![a, b, c, d];
        for _ in 0..n {
            let q = p(rng.gen_range(0.5..7.5), rng.gen_range(0.5..7.5));
            if let crate::insert::InsertOutcome::Inserted(v) = m.insert_point(q, VFlags::default())
            {
                vs.push(v);
            }
        }
        (m, vs)
    }

    fn has_constrained_edge(m: &TriMesh, a: VId, b: VId) -> bool {
        for t in m.tri_ids() {
            for e in 0..3 {
                let (x, y) = m.edge_verts(EdgeRef { t, e });
                if ((x, y) == (a, b) || (x, y) == (b, a)) && m.tri(t).is_constrained(e) {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn star_of_interior_and_boundary_vertex() {
        let (m, _) = populated_square(20, 7);
        // Corner vertex 0 has a partial star.
        let t = m.any_tri_with_vertex(0).unwrap();
        let star = m.star_of(0, t);
        assert!(!star.is_empty());
        for &t in &star {
            assert!(m.tri(t).index_of(0).is_some());
        }
        // Star must enumerate each triangle once.
        let mut sorted = star.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), star.len());
    }

    #[test]
    fn constrain_existing_edge() {
        let (mut m, _) = populated_square(0, 1);
        // Edge (0, 2) is the diagonal of the 2-triangle square.
        m.insert_segment(0, 2).unwrap();
        m.validate().unwrap();
        assert!(has_constrained_edge(&m, 0, 2));
    }

    #[test]
    fn insert_crossing_segment() {
        let (mut m, _) = populated_square(0, 1);
        // The anti-diagonal (1, 3) crosses the diagonal (0, 2).
        m.insert_segment(1, 3).unwrap();
        m.validate().unwrap();
        assert!(has_constrained_edge(&m, 1, 3));
        assert!((m.total_area() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn insert_segment_through_many_triangles() {
        let (mut m, _) = populated_square(60, 3);
        m.insert_segment(0, 2).unwrap();
        m.validate().unwrap();
        assert!(
            has_constrained_edge(&m, 0, 2) || {
                // The segment may have been split at collinear vertices; then
                // there must exist a chain of constrained edges. Weak check:
                // some constrained edge exists and the mesh is intact.
                m.tri_ids()
                    .any(|t| (0..3).any(|e| m.tri(t).is_constrained(e)))
            }
        );
        assert!((m.total_area() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn insert_segment_through_collinear_vertex() {
        let (mut m, _) = populated_square(0, 1);
        // Put a vertex exactly on the anti-diagonal, then constrain it.
        let mid = match m.insert_point(p(4.0, 4.0), VFlags::default()) {
            crate::insert::InsertOutcome::Inserted(v) => v,
            o => panic!("{o:?}"),
        };
        m.insert_segment(1, 3).unwrap();
        m.validate().unwrap();
        // Both halves must be constrained.
        assert!(has_constrained_edge(&m, 1, mid));
        assert!(has_constrained_edge(&m, mid, 3));
    }

    #[test]
    fn crossing_constraint_is_rejected() {
        let (mut m, _) = populated_square(0, 1);
        m.insert_segment(0, 2).unwrap();
        assert_eq!(m.insert_segment(1, 3), Err(SegmentError::CrossesConstraint));
    }

    #[test]
    fn degenerate_segment_is_rejected() {
        let (mut m, _) = populated_square(0, 1);
        assert_eq!(m.insert_segment(1, 1), Err(SegmentError::DegenerateSegment));
    }

    #[test]
    fn random_segments_preserve_validity() {
        let (mut m, vs) = populated_square(40, 11);
        // Constrain a few disjoint-ish segments; ignore crossing errors.
        let pairs = [(0usize, 2usize), (1, 3), (4, 10), (6, 14), (5, 20)];
        for (i, j) in pairs {
            if i < vs.len() && j < vs.len() {
                let _ = m.insert_segment(vs[i], vs[j]);
                m.validate().unwrap();
            }
        }
        assert!((m.total_area() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn carve_exterior_keeps_constrained_region() {
        // Build a square domain inside a super-box and carve.
        let mut m = TriMesh::new();
        let margin = 40.0;
        let s0 = m.add_vertex(p(-margin, -margin), VFlags(VFlags::SUPER));
        let s1 = m.add_vertex(p(margin, -margin), VFlags(VFlags::SUPER));
        let s2 = m.add_vertex(p(margin, margin), VFlags(VFlags::SUPER));
        let s3 = m.add_vertex(p(-margin, margin), VFlags(VFlags::SUPER));
        let t0 = m.add_tri([s0, s1, s2]);
        let t1 = m.add_tri([s0, s2, s3]);
        m.link(t0, 1, t1, 2);

        let mut quad = Vec::new();
        for &(x, y) in &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)] {
            match m.insert_point(p(x, y), VFlags(VFlags::INPUT)) {
                crate::insert::InsertOutcome::Inserted(v) => quad.push(v),
                o => panic!("{o:?}"),
            }
        }
        for i in 0..4 {
            m.insert_segment(quad[i], quad[(i + 1) % 4]).unwrap();
        }
        let removed = m.carve_exterior(&[]);
        assert!(removed > 0);
        m.validate().unwrap();
        assert!((m.total_area() - 16.0).abs() < 1e-9);
        // No live triangle touches a super vertex.
        for t in m.tri_ids() {
            assert!(!m.touches_super(t));
        }
    }
}
